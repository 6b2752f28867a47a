"""Closed-loop integration: stepping, recording, sync detection, conservation."""

import dataclasses
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from swarmsync import (
    DivergenceError,
    GainVector,
    InteractionGraph,
    SimulationConfig,
    SwarmState,
    TrajectoryRecord,
    alignment_potential,
    complete_graph,
    control_all_to_all,
    control_limited,
    heading_spread,
    laplacian,
    laplacian_potential,
    named_gain_set,
    order_parameter,
    ring_graph,
    rotating_frame,
    simulate,
    simulate_batch,
    step,
    wrap_angle,
)
from swarmsync import SCENARIOS, dynamics, phase
from swarmsync.dynamics import SYNC_HOLD, SYNC_TOL
from swarmsync.topology import edge_arrays, is_connected

RNG = np.random.default_rng(404)


def make_config(**kw):
    base = dict(
        n=2,
        theta0=np.array([0.0, np.pi / 2]),
        gains=GainVector([-1.0, -1.0]),
        t_max=20.0,
    )
    base.update(kw)
    return SimulationConfig(**base)


def random_negative_config(rng, n_max=10, with_ring=True, **kw):
    n = int(rng.integers(3 if with_ring else 2, n_max + 1))
    span = rng.uniform(0.3, 2.6)
    hat = np.concatenate([[0.0, span], rng.uniform(0.0, span, n - 2)])
    theta0 = hat + rng.uniform(-np.pi, np.pi - span)
    gains = GainVector(-(10.0 ** rng.uniform(-0.3, 0.4, n)))
    topology = ring_graph(n) if (with_ring and rng.random() < 0.5) else None
    return SimulationConfig(n=n, theta0=theta0, gains=gains, topology=topology, **kw)


class TestConfigValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="theta0"):
            make_config(theta0=np.zeros(3))

    def test_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            make_config(dt=0.0)

    def test_t_max_must_exceed_dt(self):
        with pytest.raises(ValueError, match="t_max"):
            make_config(t_max=0.001)

    def test_saturate_needs_u_max(self):
        with pytest.raises(ValueError, match="u_max"):
            make_config(saturate=True)

    def test_topology_size_checked(self):
        with pytest.raises(ValueError, match="topology"):
            make_config(topology=ring_graph(3))

    @pytest.mark.parametrize("name, value", [("n", 2.0), ("n", True), ("record_stride", 2.5),
                                             ("record_stride", True), ("seed", 1.5),
                                             ("seed", True)])
    def test_counts_must_be_integers(self, name, value):
        """A float count is a ValueError naming the field, not numpy's
        TypeError from inside the run; a bool is not read as 0 or 1."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            make_config(**{name: value}, jitter=True)

    def test_numpy_integer_counts_run(self):
        cfg = make_config(n=np.int64(2), record_stride=np.int64(2), seed=np.int64(3),
                          jitter=True, t_max=1.0)
        traj, _ = simulate(cfg)
        assert traj.theta.shape == (51, 2)

    def test_stores_copies_of_the_caller_arrays(self):
        """Changing the arrays a config was built from afterwards changes
        neither the config nor its runs; a heading of -0.0 is stored as +0.0."""
        theta0 = np.array([-0.0, 0.4, -0.7])
        positions0 = np.array([[0.0, 1.0], [2.0, -0.0], [3.0, 4.0]])
        cfg = SimulationConfig(n=3, theta0=theta0, gains=GainVector([-1.0, -2.0, -0.5]),
                               positions0=positions0, t_max=1.0, record_stride=10)
        before = simulate(cfg)
        theta0[:], positions0[:] = 1.0, 5.0
        assert same_bits(cfg.theta0, [0.0, 0.4, -0.7])
        assert same_bits(cfg.positions0, [[0.0, 1.0], [2.0, -0.0], [3.0, 4.0]])
        assert_same_run(simulate(cfg), before)


class TestStep:
    def test_negative_zero_heading_steps_as_positive_zero(self):
        """step() reads a -0.0 heading as +0.0, as SimulationConfig does:
        between symmetric headings and with omega0 = -0.0 its command is
        -0.0, which would keep a -0.0 heading."""
        cfg = make_config(n=3, theta0=[0.0, 0.4, -0.4], gains=GainVector(-np.ones(3)),
                          omega0=-0.0)
        new = [step(SwarmState(0.0, np.zeros((3, 2)), np.array([zero, 0.4, -0.4])), cfg)
               for zero in (-0.0, 0.0)]
        assert same_bits(new[0].theta, new[1].theta)
        assert same_bits(new[0].positions, new[1].positions)

    def test_synchronized_equilibrium_translates(self):
        """At sync with omega0 = 0 the headings freeze and every agent
        translates by dt * (cos, sin) of the common heading."""
        theta_c = 0.8
        cfg = make_config(n=3, theta0=np.full(3, theta_c), gains=GainVector(-np.ones(3)))
        state = SwarmState(t=0.0, positions=np.zeros((3, 2)), theta=np.full(3, theta_c))
        new = step(state, cfg)
        np.testing.assert_allclose(new.theta, theta_c, atol=1e-12)
        np.testing.assert_allclose(
            new.positions,
            cfg.dt * np.array([[np.cos(theta_c), np.sin(theta_c)]] * 3),
            atol=1e-12,
        )
        assert new.t == pytest.approx(cfg.dt)

    def test_decoupled_agents_advance_at_omega(self):
        """A synchronized pair has zero coupling, so each heading advances by
        omega0 * dt like a lone agent."""
        cfg = make_config(theta0=np.zeros(2), omega0=0.5)
        state = SwarmState(t=0.0, positions=np.zeros((2, 2)), theta=np.zeros(2))
        new = step(state, cfg)
        np.testing.assert_allclose(new.theta, 0.5 * cfg.dt, atol=1e-12)

    def test_circular_orbit_radius(self):
        """omega0 = 0.5 with zero coupling traces a circle of radius 2."""
        cfg = make_config(theta0=np.zeros(2), omega0=0.5, t_max=4 * np.pi + 1.0)
        traj, _ = simulate(cfg)
        pts = traj.positions[:, 0, :]
        # algebraic circle fit: [2x 2y 1] [a b c]^T = x^2 + y^2
        a_mat = np.column_stack([2 * pts[:, 0], 2 * pts[:, 1], np.ones(len(pts))])
        (a, b, c), *_ = np.linalg.lstsq(a_mat, (pts**2).sum(axis=1), rcond=None)
        radius = np.sqrt(c + a * a + b * b)
        assert radius == pytest.approx(2.0, abs=1e-6)
        radii = np.linalg.norm(pts - np.array([a, b]), axis=1)
        assert radii.max() - radii.min() < 1e-6

    def test_matches_fine_step_reference(self):
        """One dt = 0.01 step agrees with 100 steps at dt/100 and the
        heading gap strictly shrinks."""
        cfg = make_config()
        state = SwarmState(t=0.0, positions=np.zeros((2, 2)), theta=cfg.theta0.copy())
        coarse = step(state, cfg)
        fine_cfg = dataclasses.replace(cfg, dt=cfg.dt / 100)
        ref = state
        for _ in range(100):
            ref = step(ref, fine_cfg)
        np.testing.assert_allclose(coarse.theta, ref.theta, atol=1e-10)
        np.testing.assert_allclose(coarse.positions, ref.positions, atol=1e-10)
        assert abs(coarse.theta[1] - coarse.theta[0]) < np.pi / 2

    def test_graph_edge_arrays_built_once_and_shared(self):
        """step reads the arrays cached on the graph: a second step on the
        graph reuses the same objects, and swapping the cache for an edgeless
        one decouples the agents."""
        graph = ring_graph(4)
        cfg = make_config(n=4, theta0=np.array([0.0, 0.4, 0.8, 1.2]),
                          gains=GainVector(-np.ones(4)), topology=graph, omega0=0.5)
        state = SwarmState(t=0.0, positions=np.zeros((4, 2)), theta=cfg.theta0)
        first = step(state, cfg)
        cached = edge_arrays(graph)
        again = step(state, cfg)
        assert all(a is b for a, b in zip(edge_arrays(graph), cached))
        assert np.array_equal(first.theta, again.theta)
        graph.__dict__["_edge_arrays"] = (np.empty(0, np.intp), np.empty(0, np.intp))
        np.testing.assert_allclose(step(state, cfg).theta, cfg.theta0 + 0.5 * cfg.dt,
                                   rtol=0, atol=1e-15)

    def test_divergence_detected(self):
        cfg = make_config()
        state = SwarmState(t=0.0, positions=np.zeros((2, 2)), theta=np.array([np.nan, 0.0]))
        with pytest.raises(DivergenceError):
            step(state, cfg)


class TestSimulate:
    def test_six_agent_set1_syncs_at_predicted_direction(self, six_theta0, six_positions):
        cfg = SimulationConfig(
            n=6,
            theta0=six_theta0,
            gains=GainVector(named_gain_set("set1", 6)),
            positions0=six_positions,
            t_max=40.0,
        )
        traj, report = simulate(cfg)
        assert report.synchronized
        assert report.t_sync is not None and 0.0 < report.t_sync < 40.0
        # weighted average evaluated by hand: sum(hat/K) = -81 deg, sum(1/K) = -2.45
        expected = np.deg2rad(-1320.0 / 49.0)
        assert abs(wrap_angle(report.final_heading_common - expected)) < 1e-3

    def test_two_agent_mixed_gains_reach_120deg(self):
        """K = [-3, 1] (negative sum) steers the pair to +120 deg, outside
        the initial arc."""
        cfg = SimulationConfig(
            n=2,
            theta0=np.deg2rad([-60.0, 60.0]),
            gains=GainVector([-3.0, 1.0]),
            t_max=40.0,
        )
        _, report = simulate(cfg)
        assert report.synchronized
        assert abs(wrap_angle(report.final_heading_common - np.deg2rad(120.0))) < 1e-3

    def test_balanced_start_stays_put(self):
        """An antipodal pair is an equilibrium: zero control, no sync."""
        cfg = make_config(theta0=np.array([0.0, np.pi]), t_max=10.0)
        traj, report = simulate(cfg)
        assert not report.synchronized
        assert report.t_sync is None
        assert report.max_heading_spread_final == pytest.approx(np.pi, abs=1e-6)
        np.testing.assert_allclose(traj.theta[-1], traj.theta[0], atol=1e-9)

    def test_sample_count_and_times(self):
        cfg = make_config(t_max=1.0, dt=0.01, record_stride=3)
        traj, _ = simulate(cfg)
        assert traj.sample_count == 100 // 3 + 1
        assert np.all(np.diff(traj.times) > 0)
        np.testing.assert_allclose(np.diff(traj.times), 0.03, atol=1e-12)

    def test_recorded_columns_match_pointwise_recomputation(self):
        cfg = SimulationConfig(
            n=4,
            theta0=np.array([0.1, 0.5, -0.8, 1.2]),
            gains=GainVector(-np.ones(4)),
            topology=ring_graph(4),
            t_max=5.0,
            record_stride=10,
        )
        traj, _ = simulate(cfg)
        lap = laplacian(ring_graph(4))
        for s in range(traj.sample_count):
            th = traj.theta[s]
            op = order_parameter(th)
            assert traj.p_mag[s] == pytest.approx(op.magnitude, abs=1e-12)
            assert traj.potential[s] == pytest.approx(alignment_potential(th), abs=1e-12)
            assert traj.graph_potential[s] == pytest.approx(
                laplacian_potential(th, lap), abs=1e-12
            )
            assert traj.conserved[s] == pytest.approx(
                np.sum(th / cfg.gains.gains), abs=1e-12
            )

    def test_conservation_of_gain_weighted_heading_sum(self):
        """sum_k theta_k / K_k stays fixed along unsaturated runs."""
        for _ in range(10):
            cfg = random_negative_config(RNG, t_max=10.0, record_stride=5)
            traj, _ = simulate(cfg)
            drift = np.max(np.abs(traj.conserved - traj.conserved[0]))
            assert drift < 1e-6

    def test_conservation_in_rotating_frame(self):
        for _ in range(5):
            cfg = random_negative_config(RNG, t_max=10.0, omega0=0.5, record_stride=5)
            traj, _ = simulate(cfg)
            rot = rotating_frame(traj, 0.5)
            assert np.max(np.abs(rot.conserved - rot.conserved[0])) < 1e-6

    def test_potential_descends_and_p_mag_bounded(self, six_theta0):
        cfg = SimulationConfig(
            n=6, theta0=six_theta0, gains=GainVector(named_gain_set("set1", 6)), t_max=30.0
        )
        traj, report = simulate(cfg)
        assert np.all(np.diff(traj.potential) <= 1e-9)
        assert np.all(traj.p_mag <= 1.0 + 1e-12)
        assert report.synchronized
        post = traj.times >= report.t_sync
        assert np.all(traj.p_mag[post][1:] > 1.0 - 1e-6)

    def test_saturated_commands_respect_limit(self, six_theta0):
        cfg = SimulationConfig(
            n=6,
            theta0=six_theta0,
            gains=GainVector(named_gain_set("set2", 6)),
            t_max=30.0,
            u_max=0.1,
            saturate=True,
        )
        traj, _ = simulate(cfg)
        assert np.max(np.abs(traj.controls)) <= 0.1
        assert traj.saturated.any()

    @pytest.mark.parametrize("topology,stride", [(None, 5), (ring_graph(6), 5), (None, 10**4),
                                                 (ring_graph(6), 10**4)],
                             ids=["mean-field", "ring", "one-sample", "one-sample-ring"])
    def test_recorded_controls_equal_the_law_bitwise(self, six_theta0, topology, stride):
        """u_k in the record is exactly the command the control API computes
        from the recorded headings, so the CSV shows what was applied. A
        stride above the step count records one sample, whose mean-field
        controls take the kernel's scalar mean, as a 1-D heading vector does."""
        cfg = SimulationConfig(
            n=6,
            theta0=six_theta0,
            gains=GainVector(named_gain_set("set1", 6)),
            omega0=0.5,
            topology=topology,
            t_max=20.0,
            record_stride=stride,
        )
        traj, _ = simulate(cfg)
        assert traj.sample_count == (1 if stride > 2000 else 401)
        for s in range(traj.sample_count):
            if topology is None:
                law = control_all_to_all(traj.theta[s], traj.gains, cfg.omega0)
            else:
                law = control_limited(traj.theta[s], traj.gains, topology, cfg.omega0)
            assert np.array_equal(traj.controls[s], law), f"sample {s}"
        assert not traj.saturated.any()

    def test_saturation_conservation_drift_recorded_only(self, six_theta0):
        """Clipping breaks the pairwise sine cancellation behind the
        conserved sum, so no bound is asserted; the drift is only recorded.
        This is also why the clipped law cannot steer to a prescribed
        direction."""
        cfg = SimulationConfig(
            n=6,
            theta0=six_theta0,
            gains=GainVector(named_gain_set("set2", 6)),
            t_max=60.0,
            u_max=0.1,
            saturate=True,
        )
        traj, _ = simulate(cfg)
        drift = float(np.max(np.abs(traj.conserved - traj.conserved[0])))
        print(f"conserved-sum drift under saturation: {drift:.3f} rad")
        assert np.isfinite(drift)

    def test_mixed_gain_run_descends_instantaneously(self, six_theta0):
        """With one positive gain the descent condition is state-dependent;
        along this trajectory sum_k K_k (dPhi/dtheta_k)^2 stays non-positive
        at every sample, which is why the run synchronizes."""
        from swarmsync import alignment_potential_grad

        cfg = SimulationConfig(
            n=6,
            theta0=six_theta0,
            gains=GainVector(named_gain_set("set3", 6)),
            t_max=100.0,
            record_stride=10,
        )
        traj, report = simulate(cfg)
        assert report.synchronized
        grads = np.array([alignment_potential_grad(theta) for theta in traj.theta])
        assert np.max(np.sum(traj.gains * grads * grads, axis=1)) <= 1e-12

    def test_halving_dt_changes_heading_below_1e6(self, six_theta0):
        gains = GainVector(named_gain_set("set1", 6))
        cfg = SimulationConfig(n=6, theta0=six_theta0, gains=gains, t_max=30.0)
        _, r1 = simulate(cfg)
        _, r2 = simulate(dataclasses.replace(cfg, dt=0.005))
        assert abs(r1.final_heading_common - r2.final_heading_common) < 1e-6

    def test_jitter_is_seed_deterministic(self):
        cfg = make_config(theta0=np.array([0.0, np.pi]), jitter=True, seed=11, t_max=5.0)
        t1, _ = simulate(cfg)
        t2, _ = simulate(cfg)
        np.testing.assert_array_equal(t1.theta, t2.theta)
        assert not np.array_equal(t1.theta[0], np.array([0.0, np.pi]))

    def test_other_gain_class_warns(self):
        cfg = make_config(gains=GainVector([1.0, -0.5]), t_max=1.0)
        with pytest.warns(UserWarning, match="sync-stable"):
            simulate(cfg)

    def test_disconnected_graph_warns_once(self):
        """A run on two components warns once, alone or batched with a
        connected run."""
        split = make_config(n=4, theta0=np.deg2rad([-30.0, 10.0, 40.0, 80.0]),
                            gains=GainVector([-1.0] * 4), t_max=5.0,
                            topology=InteractionGraph(4, ((0, 1), (2, 3))))
        ring = dataclasses.replace(split, topology=ring_graph(4))
        for run in (partial(simulate, split), partial(simulate_batch, [split, ring])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run()
            assert [str(w.message) for w in caught] == [
                "interaction graph is not connected; synchronization is not guaranteed"]


class TestGainSumWarning:
    """A run warns exactly when sync is not linearly stable: unless all gains
    are negative, or exactly one is positive and sum_k 1/K_k > 0 (for two
    agents, K_1 + K_2 < 0). The last two warning cases sum below 0 and
    never sync."""

    @staticmethod
    def start(gains):
        n = len(gains)
        return dynamics._start(make_config(n=n, theta0=np.linspace(0.0, 1.0, n), gains=gains))

    @pytest.mark.parametrize("gains", [[-1.0, -0.2, -3.0], [0.5, -2.0]],
                             ids=["all-negative", "mixed"])
    def test_sum_below_zero_is_silent(self, gains):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.start(gains)

    @pytest.mark.parametrize("gains", [[1.0, -1.0], [1e308, 1e308, -1e308, -1e308],
                                       [0.5] + [-0.6] * 5, [0.5, 0.5] + [-5.0] * 4],
                             ids=["sum-zero", "sum-overflows", "inverse-sum-negative",
                                  "two-positive"])
    def test_sum_not_below_zero_warns(self, gains):
        """The one warning is the gain-set warning, with no numpy overflow
        warning beside it where gains near the float limit are involved."""
        with pytest.warns(UserWarning, match="^gains are not sync-stable") as caught:
            self.start(gains)
        assert [w.category for w in caught] == [UserWarning]


def explicit_rotating_frame(traj, omega0):
    """Reference: rotating_frame as an explicit TrajectoryRecord construction
    that lists every field and copies the unchanged arrays."""
    return TrajectoryRecord(
        times=traj.times.copy(),
        theta=traj.theta - omega0 * traj.times[:, None],
        positions=traj.positions.copy(),
        controls=traj.controls - omega0,
        saturated=traj.saturated.copy(),
        gains=traj.gains,
        omega0=traj.omega0 - omega0,
        edges=traj.edges,
    )


def assert_same_record(got, ref):
    """Every field of two records equal bit for bit: arrays by dtype, shape
    and bytes, omega0 by its float bytes, edges by identity."""
    for f in dataclasses.fields(TrajectoryRecord):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if f.name == "edges":
            assert a is b or all(x is y for x, y in zip(a, b)), f.name
        elif f.name == "omega0":
            assert type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


class TestRotatingFrame:
    @pytest.mark.parametrize("topology,saturate", [(None, False), (ring_graph(6), False),
                                                   (ring_graph(6), True)],
                             ids=["mean-field", "ring", "ring-saturated"])
    @pytest.mark.parametrize("rate", [0.0, 0.5, -0.3])
    def test_every_column_as_the_explicit_construction(self, six_theta0, topology, saturate,
                                                       rate):
        cfg = SimulationConfig(n=6, theta0=six_theta0, gains=GainVector(named_gain_set("set2", 6)),
                               topology=topology, omega0=0.4, u_max=0.3, saturate=saturate,
                               t_max=8.0, record_stride=7)
        traj, _ = simulate(cfg)
        assert traj.saturated.any() == saturate
        rot = rotating_frame(traj, rate)
        assert_same_record(rot, explicit_rotating_frame(traj, rate))
        assert rot.omega0 == 0.4 - rate

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega0", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_rate(self, omega0):
        """The message SimulationConfig and the control API give, where inf
        gave -inf headings and nan columns under numpy warnings."""
        traj, _ = simulate(make_config(t_max=1.0))
        with pytest.raises(ValueError, match=f"^omega0 must be finite, got {omega0!r}$"):
            rotating_frame(traj, omega0)

    def test_identity_for_zero_omega(self):
        cfg = make_config(t_max=5.0)
        traj, _ = simulate(cfg)
        rot = rotating_frame(traj, 0.0)
        np.testing.assert_array_equal(rot.theta, traj.theta)
        np.testing.assert_array_equal(rot.controls, traj.controls)

    def test_rotated_headings_constant_after_sync(self, six_theta0):
        cfg = SimulationConfig(
            n=6,
            theta0=six_theta0,
            gains=GainVector(named_gain_set("set1", 6)),
            omega0=0.5,
            t_max=40.0,
        )
        traj, report = simulate(cfg)
        assert report.synchronized
        rot = rotating_frame(traj, 0.5)
        post = rot.times >= report.t_sync + 1.0
        spread = rot.theta[post].max(axis=0) - rot.theta[post].min(axis=0)
        assert np.max(spread) < 1e-3
        # magnitude columns are frame-invariant
        np.testing.assert_allclose(rot.p_mag, traj.p_mag, atol=1e-12)
        np.testing.assert_allclose(rot.potential, traj.potential, atol=1e-9)

    @pytest.mark.parametrize("topology", [None, ring_graph(6)], ids=["mean-field", "ring"])
    def test_rotating_frame_reproduces_the_unforced_run(self, six_theta0, topology):
        """omega0 adds the same turn rate to every agent and the coupling
        sees only heading differences, so theta(t) - omega0*t of the forced
        run is the omega0 = 0 run: headings at every sample, controls, the
        reported common heading and t_sync (within one step)."""
        base = SimulationConfig(n=6, theta0=six_theta0, gains=GainVector(named_gain_set("set1", 6)),
                                topology=topology, t_max=30.0, record_stride=3)
        traj0, report0 = simulate(base)
        traj_w, report_w = simulate(dataclasses.replace(base, omega0=0.5))
        rot = rotating_frame(traj_w, 0.5)
        assert report0.synchronized and not traj0.saturated.any()
        assert np.max(np.abs(rot.theta - traj0.theta)) < 1e-9
        assert np.max(np.abs(rot.controls - traj0.controls)) < 1e-9
        assert abs(wrap_angle(report_w.final_heading_common - report0.final_heading_common)) < 1e-9
        assert abs(report_w.t_sync - report0.t_sync) <= base.dt


class TestRecordFromItsInputs:
    """_outcome hands the record the e^{i theta} and, for a graph, the edge
    products it computed for the controls. The record is the one built from
    its headings alone, and its rotating frame the explicit construction,
    whose columns come from the rotated headings, not the handed-over ones."""

    @staticmethod
    def records(six_theta0):
        base = SimulationConfig(n=6, theta0=six_theta0, gains=GainVector(named_gain_set("set1", 6)),
                                omega0=0.4, t_max=8.0, record_stride=7)
        ring = dataclasses.replace(base, topology=ring_graph(6))
        saturated = dataclasses.replace(ring, u_max=0.3, saturate=True)
        mixed = simulate_batch([ring, dataclasses.replace(base, gains=GainVector(-np.ones(6)))])
        assert mixed[0][0].edges is not None and mixed[1][0].edges is None
        return {"mean-field": (base, simulate(base)[0]), "ring": (ring, simulate(ring)[0]),
                "mixed-ring": (ring, mixed[0][0]), "mixed-mean-field": (base, mixed[1][0]),
                "saturated": (saturated, simulate(saturated)[0])}

    def test_equals_the_record_built_from_theta(self, six_theta0):
        for name, (cfg, traj) in self.records(six_theta0).items():
            ref = TrajectoryRecord(times=traj.times, theta=traj.theta, positions=traj.positions,
                                   controls=traj.controls, saturated=traj.saturated,
                                   gains=traj.gains, omega0=traj.omega0, edges=traj.edges)
            assert_same_record(traj, ref)
            # the controls from the headings alone, with no shared edge products
            u = cfg.omega0 + traj.gains * phase._grad(np.exp(1j * traj.theta), traj.edges)
            if cfg.saturate:
                assert traj.saturated.any(), name
                u = np.clip(u, -cfg.u_max, cfg.u_max)
            assert same_bits(traj.controls, u), name

    @pytest.mark.parametrize("rate", [0.5, -0.3])
    def test_rotating_frame_derives_its_own_columns(self, six_theta0, rate):
        for name, (_, traj) in self.records(six_theta0).items():
            rot = rotating_frame(traj, rate)
            assert_same_record(rot, explicit_rotating_frame(traj, rate))
            assert not same_bits(rot.p_psi, traj.p_psi), name


class TestCsv:
    def test_exact_bytes_of_a_hand_built_record(self, tmp_path):
        """CRLF rows, %.17g values (0.1 is 0.10000000000000001, not repr's
        0.1), nan for the undefined mean phase of an antipodal pair, and the
        derived columns: U = 1 - |p|^2 and WL = N*U for mean-field, conserved
        = sum theta/K = pi/-2."""
        traj = TrajectoryRecord(
            times=np.array([0.0, 0.1]),
            theta=np.array([[0.0, 0.0], [0.0, np.pi]]),
            positions=np.array([[[0.0, 0.0], [1.0, 2.0]], [[0.1, 0.0], [0.9, 2.0]]]),
            controls=np.array([[0.0, 0.0], [-0.5, 0.25]]),
            saturated=np.zeros((2, 2), dtype=bool),
            gains=np.array([-1.0, -2.0]),
            omega0=0.0,
        )
        path = tmp_path / "t.csv"
        traj.to_csv(path)
        assert path.read_bytes() == (
            b"t,theta_1,theta_2,x_1,x_2,y_1,y_2,u_1,u_2,p_mag,p_psi,U,WL,conserved\r\n"
            b"0,0,0,0,1,0,2,0,0,1,0,0,0,0\r\n"
            b"0.10000000000000001,0,3.1415926535897931,0.10000000000000001,"
            b"0.90000000000000002,0,2,-0.5,0.25,6.123233995736766e-17,nan,1,2,"
            b"-1.5707963267948966\r\n"
        )

    def test_header_and_shape(self, tmp_path):
        cfg = make_config(t_max=1.0, record_stride=10)
        traj, _ = simulate(cfg)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "t",
            "theta_1", "theta_2",
            "x_1", "x_2",
            "y_1", "y_2",
            "u_1", "u_2",
            "p_mag", "p_psi", "U", "WL", "conserved",
        ]
        assert len(lines) == 1 + traj.sample_count

    def test_byte_identical_reruns(self, tmp_path):
        cfg = make_config(t_max=2.0, jitter=True, seed=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        t1, _ = simulate(cfg)
        t1.to_csv(a)
        t2, _ = simulate(cfg)
        t2.to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_undefined_phase_written_as_nan(self, tmp_path):
        cfg = make_config(theta0=np.array([0.0, np.pi]), t_max=1.0)
        traj, _ = simulate(cfg)
        path = tmp_path / "t.csv"
        traj.to_csv(path)
        row = path.read_text().strip().splitlines()[1].split(",")
        assert row[9 + 1] == "nan"  # p_psi column


def test_heading_spread_examples():
    assert heading_spread([0.2, 0.2, 0.2]) == pytest.approx(0.0, abs=1e-15)
    assert heading_spread([0.0, np.pi]) == pytest.approx(np.pi, abs=1e-12)
    # wrapped distance, not raw difference
    assert heading_spread([np.deg2rad(170.0), np.deg2rad(-170.0)]) == pytest.approx(
        np.deg2rad(20.0), abs=1e-12
    )


def test_heading_spread_of_no_heading_is_a_value_error():
    with pytest.raises(ValueError, match="empty theta"):
        heading_spread([])
    with pytest.raises(ValueError, match="empty theta"):
        heading_spread(np.empty((0,)))


def test_heading_spread_of_one_or_a_non_finite_heading():
    assert heading_spread([0.0]) == 0.0
    assert np.isnan(heading_spread([np.nan]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", [[-9e307, 9e307], [-1e308, 1e308, 0.0]])
def test_heading_spread_of_a_span_past_the_float_range(theta):
    """Finite headings whose span overflows give nan, as the pairwise
    definition does and as non-finite headings do, without a warning."""
    assert np.isnan(heading_spread(theta))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(pairwise_spread(theta))


def pairwise_spread(theta):
    """The O(n^2) definition: max over all pairs of |wrap(theta_j - theta_k)|."""
    th = np.asarray(theta, dtype=float)
    return float(np.max(np.abs(wrap_angle(th[:, None] - th[None, :]))))


def awkward_headings(rng, n):
    """Headings with exact ties, clusters on both sides of the +-pi cut,
    antipodal clusters, and copies of one direction several turns apart."""
    kind = int(rng.integers(5))
    if kind == 0:
        return rng.choice(rng.uniform(-np.pi, np.pi, int(rng.integers(1, 5))), n)
    if kind == 1:
        side = np.where(rng.random(n) < 0.5, np.pi, -np.pi)
        return side - np.sign(side) * rng.uniform(0.0, 1e-3, n)
    if kind == 2:
        base = rng.uniform(-np.pi, np.pi) + np.where(rng.random(n) < 0.5, 0.0, np.pi)
        return base + rng.normal(0.0, 10.0 ** rng.uniform(-17, -3), n)
    if kind == 3:
        pool = rng.uniform(-np.pi, np.pi, int(rng.integers(1, 6)))
        return rng.choice(pool, n) + 2.0 * np.pi * rng.integers(-5, 6, n)
    return rng.uniform(-1e3, 1e3, n)


def test_heading_spread_equals_pairwise_definition_exactly():
    rng = np.random.default_rng(77)
    for _ in range(1500):
        theta = awkward_headings(rng, int(rng.integers(1, 40)))
        assert heading_spread(theta) == pairwise_spread(theta), repr(theta)


def test_large_ring_simulates_without_dense_matrices():
    """An n=20,000 ring: a dense Laplacian alone would take 3.2 GB."""
    n = 20_000
    cfg = SimulationConfig(
        n=n,
        theta0=RNG.uniform(-1.0, 1.0, n),
        gains=GainVector(-RNG.uniform(0.5, 2.0, n)),
        topology=ring_graph(n),
        dt=0.01,
        t_max=0.05,
    )
    tracemalloc.start()
    try:
        traj, report = simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert traj.sample_count == 6
    assert np.all(np.isfinite(traj.theta))
    assert np.max(np.abs(traj.conserved - traj.conserved[0])) < 1e-9
    assert np.all(np.diff(traj.graph_potential) <= 1e-9)
    final = traj.theta[-1]
    assert report.max_heading_spread_final == pytest.approx(final.max() - final.min(), abs=1e-12)


# -- the integrator core against the serial loop it replaced -----------------


def reference_run(cfg):
    """The serial loop simulate() ran before the block core, kept as the
    reference the core must equal bit for bit: the allocating RK4 step with
    the coupling law written out in phase._grad's form, so that even the
    sign of a zero command agrees, the per-step sync observer and a finite
    check at every recorded sample. It forms e^{i theta} as np.exp(1j *
    theta), not through phase._unit_vectors, so it stays an oracle
    independent of the way the integrator picks. Returns the recorded states (S, 3, n),
    the recorded controls, t_sync, the final common heading and the time of
    the first step whose spread was below SYNC_TOL."""
    n_steps = int(cfg.t_max / cfg.dt + 1e-9)
    dt, omega0, kvec = cfg.dt, cfg.omega0, cfg.gains.gains
    edges = None if cfg.topology is None else edge_arrays(cfg.topology)
    u_max = cfg.u_max if cfg.saturate else None

    def law(theta):
        z = np.exp(1j * theta)
        if edges is None:  # Im(conj(p) z_k), p the mean heading vector
            g = (np.conj(z.sum() / z.size) * z).imag
        else:
            g = np.bincount(edges[0], (z[edges[0]] * z[edges[1]].conj()).imag, z.size)
        u = omega0 + kvec * g
        return (u if u_max is None else np.clip(u, -u_max, u_max)), z

    def rhs(y):
        u, z = law(y[0])
        out = np.empty_like(y)
        out[0] = u
        out[1] = z.real
        out[2] = z.imag
        return out

    def rk4(y):
        k1 = rhs(y)
        k2 = rhs(y + (0.5 * dt) * k1)
        k3 = rhs(y + (0.5 * dt) * k2)
        k4 = rhs(y + dt * k3)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    theta0 = cfg.theta0.astype(float).copy()
    if cfg.jitter:
        theta0 = theta0 + np.random.default_rng(cfg.seed).uniform(-1e-6, 1e-6, cfg.n)
    y = np.empty((3, cfg.n))
    y[0] = theta0
    y[1] = cfg.positions0[:, 0]
    y[2] = cfg.positions0[:, 1]
    below_since = t_sync = first_below = None

    def observe(t, th):
        nonlocal below_since, t_sync, first_below
        d = wrap_angle(th - th[0])
        below = float(d.max() - d.min()) < SYNC_TOL
        if below and first_below is None:
            first_below = t
        if t_sync is not None:
            return
        if below:
            if below_since is None:
                below_since = t
            if t - below_since >= SYNC_HOLD:
                t_sync = below_since
        else:
            below_since = None

    states = [y]
    observe(0.0, y[0])
    for i in range(n_steps):
        y = rk4(y)
        t = (i + 1) * dt
        if (i + 1) % cfg.record_stride == 0:
            assert np.all(np.isfinite(y))
            states.append(y)
        observe(t, y[0])
    assert np.all(np.isfinite(y))
    if t_sync is None and below_since is not None and n_steps * dt - below_since >= SYNC_HOLD:
        t_sync = below_since
    heading = None
    if t_sync is not None:
        heading = float(np.angle(np.exp(1j * (y[0] - omega0 * (n_steps * dt))).mean()))
    states = np.array(states)
    controls = np.array([law(th)[0] for th in states[:, 0]])
    return states, controls, t_sync, heading, first_below


def per_step_observer(theta, t):
    """The sync observer step by step over headings (L, R, n) at times t:
    each run's t_sync and the start of its window still open at the end
    (nan for none; a run's window is not reported once it has synchronized)."""
    runs = theta.shape[1]
    expected_sync, expected_open = np.full(runs, np.nan), np.full(runs, np.nan)
    for r in range(runs):
        since = None
        for j in range(len(t)):
            if not np.isnan(expected_sync[r]):
                break
            d = wrap_angle(theta[j, r] - theta[j, r, 0])
            if float(d.max() - d.min()) < SYNC_TOL:
                since = t[j] if since is None else since
                if t[j] - since >= SYNC_HOLD:
                    expected_sync[r] = since
            else:
                since = None
        expected_open[r] = np.nan if since is None else since
    return expected_sync, expected_open


def assert_blocks_observe(theta, t, size, expected_sync, expected_open):
    """_sync_block over blocks of size steps gives the per-step observer's
    t_sync, and its open windows for the runs that have not synchronized."""
    runs = theta.shape[1]
    below_since, t_sync = np.full(runs, np.nan), np.full(runs, np.nan)
    for lo in range(0, len(t), size):
        dynamics._sync_block(theta[lo:lo + size], t[lo:lo + size], below_since, t_sync)
    unsynced = np.isnan(expected_sync)
    assert same_bits(t_sync, expected_sync), size
    assert same_bits(below_since[unsynced], expected_open[unsynced]), size


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(cfg, traj, report, ref=None):
    states, controls, t_sync, heading, _ = reference_run(cfg) if ref is None else ref
    assert same_bits(traj.theta, states[:, 0])
    assert same_bits(traj.positions, states[:, 1:].transpose(0, 2, 1))
    assert same_bits(traj.controls, controls)
    assert report.t_sync == t_sync
    assert report.final_heading_common == heading


def assert_same_run(a, b):
    """Two (TrajectoryRecord, ConvergenceReport) pairs equal bit for bit."""
    for name in ("times", "theta", "positions", "controls", "saturated", "p_mag", "p_psi",
                 "potential", "graph_potential", "conserved"):
        assert same_bits(getattr(a[0], name), getattr(b[0], name)), name
    assert a[1] == b[1]


def edge_list_graph(n):
    """A path through every node plus two chords: neither ring nor complete."""
    return InteractionGraph(n, tuple((k, k + 1) for k in range(n - 1)) + ((0, n - 1), (0, 2)))


def core_configs():
    rng = np.random.default_rng(606)
    cfgs = []
    for n in range(2, 9):
        for stride in (1, 3, 10):
            cfg = random_negative_config(rng, n_max=2, with_ring=False, t_max=25.0,
                                         record_stride=stride)
            cfgs.append(dataclasses.replace(cfg, n=n, theta0=rng.uniform(-1.0, 1.0, n),
                                            gains=GainVector(-(10.0 ** rng.uniform(-0.3, 0.4, n))),
                                            positions0=rng.uniform(-3.0, 3.0, (n, 2))))
    six = dict(n=6, theta0=np.deg2rad([-60.0, -45.0, -30.0, 30.0, 45.0, 60.0]),
               gains=GainVector(named_gain_set("set1", 6)), t_max=25.0)
    cfgs += [
        SimulationConfig(**six, topology=ring_graph(6), record_stride=3),
        SimulationConfig(**six, topology=edge_list_graph(6), record_stride=10),
        SimulationConfig(**six, omega0=0.5, record_stride=1),
        SimulationConfig(**six, omega0=-0.3, topology=ring_graph(6), record_stride=10),
        SimulationConfig(**{**six, "gains": GainVector(named_gain_set("set2", 6)), "t_max": 60.0},
                         u_max=0.1, saturate=True, record_stride=3),
        SimulationConfig(**six, u_max=0.5, saturate=True, topology=ring_graph(6), omega0=0.2),
        SimulationConfig(**six, jitter=True, seed=5, record_stride=10),
    ]
    return cfgs


def fixed_point_configs():
    """Runs whose headings become a fixed point of the RK4 map, bit for bit,
    well before t_max: a 2-agent mixed-gain run (sim2's gains), a 2-agent
    run of negative gains and a saturated run."""
    two = dict(n=2, theta0=np.deg2rad([-60.0, 60.0]))
    return [
        SimulationConfig(**two, gains=GainVector([-3.0, 1.0]), t_max=45.0, record_stride=5,
                         positions0=np.array([[1.0, -2.0], [0.5, 3.0]])),
        SimulationConfig(**two, gains=GainVector([-2.0, -3.0]), t_max=30.0, record_stride=7),
        SimulationConfig(n=3, theta0=np.array([0.2, 0.5, 0.9]),
                         gains=GainVector([-2.0, -3.0, -2.5]), u_max=0.3, saturate=True,
                         t_max=25.0, record_stride=3),
    ]


def first_fixed_row(theta) -> int | None:
    """The first step s whose headings equal those of step s - 1 bit for bit."""
    same = [a.tobytes() == b.tobytes() for a, b in zip(theta[1:], theta[:-1])]
    return same.index(True) + 1 if True in same else None


class TestIntegratorCore:
    def test_block_steps(self):
        """The budget's blocks for states of up to 85 headings (24 bytes
        each), FREEZE_CHECK_STEPS steps past that as far as they fit under the
        ceiling, never fewer than two, and never more than the run's steps."""
        budget, ceiling = dynamics.OBSERVER_BLOCK_BYTES, dynamics.OBSERVER_BLOCK_MAX_BYTES
        assert [dynamics._block_steps(24 * m, 10**6) for m in range(1, 86)] == [
            budget // (24 * m) for m in range(1, 86)]
        assert dynamics._block_steps(24 * 86, 10**6) == dynamics.FREEZE_CHECK_STEPS
        assert dynamics._block_steps(24 * 1000, 10**6) == ceiling // 24000 == 10
        assert dynamics._block_steps(24 * 10**5, 10**6) == 2
        assert dynamics._block_steps(24, 50) == 51

    @pytest.mark.parametrize("cfg", core_configs() + fixed_point_configs(), ids=lambda c: (
        f"n{c.n}-s{c.record_stride}-{'mf' if c.topology is None else c.topology.edge_count}"
        f"-w{c.omega0:g}-{'sat' if c.saturate else 'free'}"))
    def test_simulate_equals_the_serial_loop(self, cfg):
        """Mean-field at n = 2..8, ring and explicit-edge graphs, omega0 != 0,
        saturation and strides 1, 3 and 10; and runs that reach a fixed
        point of the RK4 map, whose later steps are filled, not taken."""
        traj, report = simulate(cfg)
        assert report.synchronized
        assert_matches_reference(cfg, traj, report)

    @pytest.mark.parametrize("cfg", fixed_point_configs(), ids=["two-mixed", "two", "saturated"])
    def test_fixed_point_is_found_within_one_check(self, executed_steps, cfg):
        """The headings of the serial loop stop changing at some step F; the
        run takes at least F steps and fewer than F + FREEZE_CHECK_STEPS."""
        fixed = first_fixed_row(reference_run(dataclasses.replace(cfg, record_stride=1))[0][:, 0])
        simulate(cfg)
        assert fixed <= executed_steps[0] < fixed + dynamics.FREEZE_CHECK_STEPS
        assert executed_steps[0] < int(cfg.t_max / cfg.dt + 1e-9)

    @pytest.mark.parametrize("frozen_first", [True, False], ids=["frozen-first", "frozen-last"])
    def test_batch_with_one_row_frozen_takes_every_step(self, executed_steps, frozen_first):
        """A batch of a run that freezes and one that turns at omega0 and
        never does takes every step, and each row equals its own simulate()."""
        frozen = fixed_point_configs()[1]
        turning = dataclasses.replace(frozen, theta0=np.array([0.3, -0.4]), omega0=0.5)
        cfgs = [frozen, turning] if frozen_first else [turning, frozen]
        results = simulate_batch(cfgs)
        steps = int(frozen.t_max / frozen.dt + 1e-9)
        assert executed_steps[0] == steps
        for cfg, result in zip(cfgs, results):
            executed_steps[0] = 0
            assert_same_run(result, simulate(cfg))
            assert (executed_steps[0] < steps) == (cfg is frozen)

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_fixed_point_on_block_boundaries(self, monkeypatch, executed_steps, where):
        """Blocks sized so the check that finds the fixed point at step F
        falls on a block's last row, and the fill starts on the next block's
        first row from the end of the block before ("first": blocks of F + 1
        rows); or on a block's second-to-last row, so the fill is its last
        row alone ("last": a first block of F - 31 rows, then one of 33)."""
        cfg = dataclasses.replace(fixed_point_configs()[1], record_stride=1)
        fixed = first_fixed_row(reference_run(cfg)[0][:, 0])
        slots = fixed + 1
        if where == "last":
            slots = fixed - (dynamics.FREEZE_CHECK_STEPS - 1)
            cfg = dataclasses.replace(cfg, t_max=(fixed + 1.5) * cfg.dt)
        monkeypatch.setattr(dynamics, "OBSERVER_BLOCK_BYTES", slots * 3 * cfg.n * 8)
        traj, report = simulate(cfg)
        assert executed_steps[0] == fixed
        assert_matches_reference(cfg, traj, report)

    def test_never_synchronizing_run(self):
        cfg = make_config(theta0=np.array([0.0, np.pi]), t_max=5.0, omega0=0.25)
        traj, report = simulate(cfg)
        assert report.t_sync is None
        assert_matches_reference(cfg, traj, report)

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_windows_on_block_boundaries(self, monkeypatch, offset):
        """Blocks sized so the window opens on the last step of a block, on
        the first, on the second and on the third; and a horizon that ends the
        run on the step where the window has been held for exactly
        SYNC_HOLD, with no step left after it."""
        cfg = SimulationConfig(n=3, theta0=np.array([0.2, 0.5, 0.9]),
                               gains=GainVector([-1.0, -2.0, -1.5]), t_max=20.0, record_stride=4)
        ref = reference_run(cfg)
        opens = round(ref[4] / cfg.dt)  # the step the window opens on
        state_bytes = 3 * cfg.n * 8
        monkeypatch.setattr(dynamics, "OBSERVER_BLOCK_BYTES", (opens - offset) * state_bytes)
        traj, report = simulate(cfg)
        assert report.t_sync == ref[4]
        assert_matches_reference(cfg, traj, report, ref)

        held = dataclasses.replace(cfg, t_max=ref[4] + SYNC_HOLD + 0.5 * cfg.dt)
        ref = reference_run(held)
        assert ref[2] == ref[4]  # the window is held exactly at the last step
        assert_matches_reference(held, *simulate(held), ref)
        short = dataclasses.replace(cfg, t_max=ref[4] + SYNC_HOLD - 1.5 * cfg.dt)
        ref = reference_run(short)
        assert ref[2] is None  # one step short: still open, not held
        assert_matches_reference(short, *simulate(short), ref)

    @pytest.mark.parametrize("topology", [None, ring_graph(5)], ids=["mean-field", "ring"])
    def test_blocks_shorter_than_the_stride(self, monkeypatch, topology):
        """Two-step blocks, the fewest a block holds, with a stride of five:
        most blocks hold no recorded sample."""
        cfg = SimulationConfig(n=5, theta0=np.array([0.1, 0.4, -0.3, 0.9, 0.6]),
                               gains=GainVector(-np.ones(5)), topology=topology,
                               t_max=15.0, record_stride=5)
        monkeypatch.setattr(dynamics, "OBSERVER_BLOCK_BYTES", 1)
        monkeypatch.setattr(dynamics, "OBSERVER_BLOCK_MAX_BYTES", 1)
        traj, report = simulate(cfg)
        assert report.synchronized
        assert_matches_reference(cfg, traj, report)

    def test_block_observer_equals_the_per_step_observer(self):
        """Windows that open and close on every position within a block, for
        several runs at once and block sizes from one step up."""
        rng = np.random.default_rng(7)
        dt = 0.1  # SYNC_HOLD spans eleven steps: t - start >= 1 from the 11th on
        runs = []
        for longest, tail in ((10, 8), (12, 0), (10, 11), (11, 0), (10, 0)):
            below = []
            while len(below) < 300:  # alternating windows and gaps of 1 to 3 steps
                below += [True] * int(rng.choice([1, 2, 9, 10, longest]))
                below += [False] * int(rng.integers(1, 4))
            runs.append(below + [True] * tail)
        steps = min(len(r) for r in runs)
        below = np.array([r[len(r) - steps:] for r in runs]).T  # (steps, runs), tails kept
        runs = below.shape[1]
        theta = np.where(below[..., None], 0.0, 1e-3) * np.array([0.0, 1.0, -0.5])
        theta = theta + rng.uniform(-3.0, 3.0, runs)[:, None]
        t = np.arange(steps) * dt

        expected_sync, expected_open = per_step_observer(theta, t)
        # never held, held inside, held on the last step, held inside, never held
        assert list(np.isnan(expected_sync)) == [True, False, False, False, True]
        assert expected_sync[2] == t[-11] and not np.isnan(expected_open[0])

        for size in (1, 2, 3, 7, 9, 10, 11, 64, steps):
            assert_blocks_observe(theta, t, size, expected_sync, expected_open)
            for r in range(runs):  # one run alone: blocks with no step below are common
                assert_blocks_observe(theta[:, r:r + 1], t, size, expected_sync[r:r + 1],
                                      expected_open[r:r + 1])

    def test_wide_block_observer_equals_the_per_step_observer(self):
        """Runs of more agents than the observer's prefix: steps with every
        agent aligned, with the prefix aligned and an agent outside it not,
        the reverse, agent 0 alone apart, a nan heading inside and outside
        the prefix, and far from sync, in windows that open and close inside
        a block; some agents a whole turn away. At every block size, alone
        and batched, t_sync and the open windows equal the per-step
        observer's bit for bit."""
        rng = np.random.default_rng(19)
        n, runs, steps, dt, k = 20, 6, 240, 0.1, dynamics.SYNC_PREFIX
        kinds = ("outside", "inside", "agent0", "nan-inside", "nan-outside", "far")
        theta = np.empty((steps, runs, n))
        seen = set()
        for r in range(runs):
            order = []
            longest = [1, 2, 9, 10] if r < 2 else [1, 2, 9, 10, 11, 12, 15]
            while len(order) < steps:  # aligned windows, held from 11 steps on; gaps of 1 to 3
                order += ["aligned"] * int(rng.choice(longest))
                order += list(rng.choice(kinds, int(rng.integers(1, 4))))
            order = order[:steps]
            if r < 2:  # never held: a window open at the end, or none
                order[-12:] = ["far"] * 2 + ["aligned"] * 10 if r == 0 else ["far"] * 12
            turns = 2 * np.pi * rng.integers(-1, 2, n) * (r % 2)
            base = rng.uniform(-3.0, 3.0)
            for j, kind in enumerate(order):
                th = base + rng.uniform(-2e-5, 2e-5, n)  # spread below 4e-5 < SYNC_TOL
                agent = {"outside": rng.integers(k, n), "inside": rng.integers(1, k),
                         "agent0": 0, "nan-inside": rng.integers(0, k),
                         "nan-outside": rng.integers(k, n)}.get(kind)
                if kind.startswith("nan"):
                    th[agent] = np.nan
                elif agent is not None:
                    th[agent] += 1e-3
                elif kind == "far":
                    th += rng.uniform(0.0, 1.0, n)
                theta[j, r] = th + turns
                seen.add(kind)
        assert seen == {"aligned", *kinds}
        d = wrap_angle(theta - theta[..., :1])
        full = d.max(-1) - d.min(-1) < SYNC_TOL
        prefix = d[..., :k].max(-1) - d[..., :k].min(-1) < SYNC_TOL
        assert (prefix & ~full).any() and (full & prefix).any() and (~prefix).any()
        t = np.arange(steps) * dt
        expected_sync, expected_open = per_step_observer(theta, t)
        held, still_open = ~np.isnan(expected_sync), ~np.isnan(expected_open)
        assert held.any() and (~held & still_open).any() and (~held & ~still_open).any()
        for size in range(1, steps + 1):
            assert_blocks_observe(theta, t, size, expected_sync, expected_open)
        for r in range(runs):
            for size in (1, 2, 3, 10, 11, 64, steps):
                assert_blocks_observe(theta[:, r:r + 1], t, size, expected_sync[r:r + 1],
                                      expected_open[r:r + 1])

    @pytest.mark.parametrize("n", [5, dynamics.SYNC_PREFIX, dynamics.SYNC_PREFIX + 1, 20])
    def test_only_runs_beyond_the_prefix_skip_the_full_wrap(self, monkeypatch, n):
        """A block whose prefix spread is exactly SYNC_TOL, agent 0 apart from
        the rest, is not below and takes only the prefix's wrap when n is
        above SYNC_PREFIX; a block at sync takes the prefix's and the full
        one. At n <= SYNC_PREFIX every block takes the full wrap alone."""
        widths = []

        def spy(x):
            widths.append(np.shape(x)[-1])
            return wrap_angle(x)

        monkeypatch.setattr(dynamics, "wrap_angle", spy)
        k, t = dynamics.SYNC_PREFIX, np.arange(2) * 0.01
        edge = np.full((2, 1, n), SYNC_TOL)
        edge[..., 0] = 0.0
        below_since, t_sync = np.full(1, np.nan), np.full(1, np.nan)
        dynamics._sync_block(edge, t, below_since, t_sync)
        assert widths == ([k] if n > k else [n]) and np.isnan(below_since).all()
        widths.clear()
        dynamics._sync_block(np.zeros((2, 1, n)), t + 0.02, below_since, t_sync)
        assert widths == ([k, n] if n > k else [n]) and below_since[0] == 0.02
        assert np.isnan(t_sync).all()

    @pytest.mark.parametrize("topology", [None, ring_graph(12)], ids=["mean-field", "ring"])
    def test_wide_run_equals_the_serial_loop(self, topology):
        """A run of 12 agents, beyond the observer's prefix, that
        synchronizes: the serial loop's records, t_sync and heading."""
        rng = np.random.default_rng(12)
        cfg = SimulationConfig(n=12, theta0=rng.uniform(-0.8, 0.8, 12),
                               gains=GainVector(-rng.uniform(0.5, 2.0, 12)),
                               topology=topology, t_max=25.0, record_stride=7)
        traj, report = simulate(cfg)
        assert report.synchronized
        assert_matches_reference(cfg, traj, report)

    def test_simulate_batch_rows_equal_simulate(self):
        """Mixed n, graphs, omega0, saturation, jitter and strides in one
        call, each config with a sibling that differs in theta0, gains,
        positions0 and omega0: every row bit-equal to its own simulate(), in
        input order."""
        rng = np.random.default_rng(8)
        cfgs = [dataclasses.replace(cfg, t_max=5.0) for cfg in core_configs()]
        cfgs += [dataclasses.replace(cfg, theta0=rng.uniform(-1.0, 1.0, cfg.n),
                                     gains=GainVector(-rng.uniform(0.5, 2.0, cfg.n)),
                                     positions0=rng.uniform(-3.0, 3.0, (cfg.n, 2)),
                                     omega0=float(rng.uniform(-0.5, 0.5)))
                 for cfg in cfgs]
        cfgs = [cfgs[i] for i in rng.permutation(len(cfgs))]
        cfgs.append(make_config(theta0=np.array([0.0, np.pi]), t_max=5.0))
        # one batch whose runs synchronize at different times
        cfgs += [make_config(n=4, theta0=rng.uniform(-spread, spread, 4),
                             gains=GainVector(-np.ones(4)), t_max=15.0, record_stride=5)
                 for spread in (0.1, 0.6, 1.2)]
        results = simulate_batch(cfgs)
        assert len(results) == len(cfgs)
        assert len({report.t_sync for _, report in results[-3:]} - {None}) == 3
        for cfg, result in zip(cfgs, results):
            assert_same_run(result, simulate(cfg))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_simulate_batch_raises_for_the_first_diverging_config(self):
        """Gains near the float limit overflow the state; the error is the one
        simulate raises for the first such config in input order, though a
        later one in another batch diverges sooner."""
        ok = make_config(t_max=3.0)
        soon = make_config(gains=GainVector([-1e308, -1e308]), t_max=3.0)
        late = dataclasses.replace(soon, record_stride=50)  # seen at its first record
        errors = []
        for cfg in (late, soon):
            with pytest.raises(DivergenceError) as exc:
                simulate(cfg)
            errors.append(str(exc.value))
        assert errors[0] != errors[1]
        with pytest.raises(DivergenceError) as exc:
            simulate_batch([ok, late, soon, ok])
        assert str(exc.value) == errors[0]
        # one group of mean-field and ring runs, integrated mean-field first:
        # still the error of the first diverging config in input order
        three = dict(n=3, theta0=np.array([0.0, 0.5, 1.5]), t_max=3.0)
        ring = make_config(**three, gains=GainVector([-1e308] * 3), topology=ring_graph(3))
        mean_field = dataclasses.replace(ring, topology=None)
        ok = make_config(**three, gains=GainVector([-1.0] * 3))
        errors = []
        for cfg in (ring, mean_field):
            with pytest.raises(DivergenceError) as exc:
                simulate(cfg)
            errors.append(str(exc.value))
        assert errors[0] != errors[1]
        for cfgs, error in (([ok, ring, mean_field, ok], errors[0]),
                            ([mean_field, ok, ring], errors[1])):
            with pytest.raises(DivergenceError) as exc:
                simulate_batch(cfgs)
            assert str(exc.value) == error

    def test_diverging_run_warns_nothing(self):
        """The finite checks report an overflowing run as DivergenceError;
        numpy's overflow/invalid RuntimeWarnings stay silent."""
        cfg = make_config(gains=GainVector([-1e308, -1e308]), t_max=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="non-finite state"):
                simulate(cfg)
            with pytest.raises(DivergenceError, match="non-finite state"):
                simulate_batch([make_config(t_max=3.0), cfg])

    def test_simulate_batch_checks_every_budget_first(self):
        with pytest.raises(ValueError, match="step budget"):
            simulate_batch([make_config(), make_config(t_max=2e6, record_stride=10**6)])


class TestHeadingMajorBatch:
    """simulate_batch integrates the runs that share a kernel as one
    heading-major state, with the neighbour law over the disjoint union of
    their graphs and the mean-field law over one row of means per run."""

    KINDS = {
        "mean-field": {},
        "ring-omega0": dict(topology=ring_graph(6), omega0=0.4),
        "saturated-jittered": dict(u_max=0.3, saturate=True, jitter=True, seed=3),
        "edge-list-saturated-omega0": dict(topology=edge_list_graph(6), u_max=0.5,
                                           saturate=True, omega0=-0.2),
    }

    def base_config(self, kind, **kw):
        return SimulationConfig(**{
            "n": 6, "theta0": np.deg2rad([-60.0, -45.0, -30.0, 30.0, 45.0, 60.0]),
            "gains": GainVector(named_gain_set("set1", 6)),
            "positions0": np.arange(12.0).reshape(6, 2), "t_max": 8.0, "record_stride": 3,
            **self.KINDS[kind], **kw})

    # "mixed": the ring-omega0 runs on a ring, no graph and an edge list in
    # turn, so a graph run comes before a mean-field run in input order
    MIXED = (ring_graph(6), None, edge_list_graph(6))

    @pytest.mark.parametrize("runs", [1, 2, 3])
    @pytest.mark.parametrize("kind", [*KINDS, "mixed"])
    def test_rows_equal_simulate(self, monkeypatch, kind, runs):
        """A group of one (with its batch axis), two and three runs that differ
        in theta0, gains, positions0, omega0 and seed, and for "mixed" in
        their topology: one _integrate call, and every row equal to its own
        simulate() bit for bit."""
        rng = np.random.default_rng(runs)
        base = self.base_config("ring-omega0" if kind == "mixed" else kind)
        cfgs = [base] + [dataclasses.replace(base, theta0=rng.uniform(-1.2, 1.2, 6),
                                             gains=GainVector(-rng.uniform(0.3, 3.0, 6)),
                                             positions0=rng.uniform(-4.0, 4.0, (6, 2)),
                                             omega0=base.omega0 + rng.uniform(-0.3, 0.3),
                                             seed=r)
                         for r in range(runs - 1)]
        if kind == "mixed":
            cfgs = [dataclasses.replace(c, topology=g) for c, g in zip(cfgs, self.MIXED)]
        calls = []
        integrate = dynamics._integrate

        def counted(y0, *args):
            calls.append(y0.shape)
            return integrate(y0, *args)

        monkeypatch.setattr(dynamics, "_integrate", counted)
        results = simulate_batch(cfgs)
        assert calls == [(3, runs, 6)]
        monkeypatch.undo()
        for cfg, result in zip(cfgs, results):
            assert_same_run(result, simulate(cfg))

    def test_record_budget_splits_a_mixed_group(self, monkeypatch):
        """Five runs of one group, graph runs before mean-field runs in input
        order, under a record budget of two runs: sorted mean-field first,
        then split into batches of two, two and one, each one _integrate
        call, and every row equal to its own simulate() bit for bit."""
        rng = np.random.default_rng(12)
        base = self.base_config("ring-omega0", t_max=2.0, record_stride=1)
        cfgs = [dataclasses.replace(base, topology=graph, theta0=rng.uniform(-1.2, 1.2, 6),
                                    gains=GainVector(-rng.uniform(0.3, 3.0, 6)),
                                    positions0=rng.uniform(-4.0, 4.0, (6, 2)),
                                    omega0=float(rng.uniform(-0.5, 0.5)))
                for graph in (ring_graph(6), None, edge_list_graph(6), ring_graph(6), None)]
        _, samples = dynamics._step_counts(base)
        monkeypatch.setattr(dynamics, "RECORD_BUDGET", 2 * samples * 6 + 1)
        calls = []
        integrate = dynamics._integrate

        def counted(y0, laws, *args):
            calls.append([law[2] is None for law in laws])
            return integrate(y0, laws, *args)

        monkeypatch.setattr(dynamics, "_integrate", counted)
        results = simulate_batch(cfgs)
        assert calls == [[True, True], [False, False], [False]]
        monkeypatch.setattr(dynamics, "_integrate", integrate)
        for cfg, result in zip(cfgs, results):
            assert_same_run(result, simulate(cfg))

    @pytest.mark.parametrize("runs", [1, 3, 5])
    def test_each_law_is_derived_once(self, monkeypatch, runs):
        """simulate_batch derives each config's law once and hands it to the
        integrator and the record: k configs, k calls of _law, across groups."""
        cfgs = [self.base_config(kind, t_max=0.5) for kind in [*self.KINDS, *self.KINDS][:runs]]
        calls = []
        law = dynamics._law

        def counted(cfg):
            calls.append(cfg)
            return law(cfg)

        monkeypatch.setattr(dynamics, "_law", counted)
        simulate_batch(cfgs)
        assert len(calls) == runs and all(a is b for a, b in zip(calls, cfgs))

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_step_is_the_first_step_of_simulate(self, monkeypatch, kind):
        """One RK4 step on the shared stage routines, with no observer or
        record: bit-equal to the first recorded step of a stride-1 run."""
        cfg = self.base_config(kind, jitter=False, record_stride=1, t_max=0.05)
        traj, _ = simulate(cfg)
        monkeypatch.setattr(dynamics, "_integrate", None)  # step must not build the core
        new = step(SwarmState(0.0, cfg.positions0, cfg.theta0), cfg)
        assert same_bits(new.theta, traj.theta[1])
        assert same_bits(new.positions, traj.positions[1])
        assert new.t == cfg.dt

    def test_step_divergence_warns_nothing(self):
        """An infinite heading gives the DivergenceError, and numpy's invalid
        value warnings stay silent, as in simulate."""
        cfg = make_config()
        state = SwarmState(t=0.5, positions=np.zeros((2, 2)), theta=np.array([np.inf, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="non-finite state after step from t=0.5"):
                step(state, cfg)


class TestKernelTie:
    """The neighbour law on complete_graph(n) with gains K/n is the mean-field
    law with gains K: a tie between the two kernel branches."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 120])
    def test_complete_graph_run_equals_mean_field_run(self, n):
        rng = np.random.default_rng(n)
        theta0 = rng.uniform(-1.0, 1.0, n)
        gains = -(10.0 ** rng.uniform(-0.3, 0.4, n))
        base = dict(n=n, theta0=theta0, t_max=30.0, record_stride=10)
        mf_traj, mf = simulate(SimulationConfig(**base, gains=GainVector(gains)))
        g_traj, g = simulate(SimulationConfig(**base, gains=GainVector(gains / n),
                                              topology=complete_graph(n)))
        np.testing.assert_allclose(g_traj.theta, mf_traj.theta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g_traj.controls, mf_traj.controls, rtol=0, atol=1e-12)
        assert mf.synchronized and g.t_sync == mf.t_sync
        assert abs(wrap_angle(g.final_heading_common - mf.final_heading_common)) < 1e-12


class TestSignedZeroStages:
    """The RK4 step forms its stage angles as the plain real theta + h u and
    writes e^{i angle} with np.exp of the angle as an imaginary part (or
    with np.cos/np.sin, TestSignedZeroStagesCosSin). The plain scheme's
    np.exp(1j * (theta + h u)) differs from both only at an angle of -0.0,
    whose imaginary part i*x turns into +0.0: a -0.0 heading whose command
    is -0.0. A heading that starts at -0.0 enters the run as +0.0
    (SimulationConfig and step() add +0.0), so no heading or stage angle is
    -0.0; the first test pins the numpy facts this rests on."""

    OMEGA0 = -0.0

    def test_numpy_turns_negative_zero_imaginary_parts_positive(self):
        theta, hu = np.array([-0.0, -0.0, 0.0, -1.5]), np.array([-0.0, 0.0, -0.0, 0.5])
        plain = np.array(1j) * (theta + hu)  # the exponent of the plain scheme
        itheta = np.array(1j) * theta
        stage = np.zeros(4, dtype=complex)
        stage.imag = hu
        fused = itheta + stage
        assert same_bits(itheta.imag[:3], np.zeros(3))  # -0.0 * i has a +0.0 imaginary part
        assert same_bits(fused.imag, plain.imag) and same_bits(plain.imag[:3], np.zeros(3))
        assert np.signbit(theta + hu)[0]  # the -0.0 that writing theta + h u into .imag keeps
        assert same_bits(np.exp(fused), np.exp(plain))

    @classmethod
    def configs(cls, topology, runs):
        """Degenerate starts of 3 agents: -0.0 among headings symmetric about
        it (its mean-field command is then -0.0), all-equal headings,
        headings at +-pi and saturation; omega0 = OMEGA0 and -0.0 in the
        positions throughout. Each kind gives up to three runs that share a
        kernel; "mixed" runs each start on a ring, on a path and under the
        mean-field law, all in one batch, graph runs first in input order."""
        graphs = {"mean-field": [None], "ring": [ring_graph(3)],
                  "mixed": [ring_graph(3), InteractionGraph(3, ((0, 1), (1, 2))), None]}
        base = dict(n=3, gains=GainVector([-1.0, -0.5, -2.0]), omega0=cls.OMEGA0,
                    positions0=np.array([[-0.0, -0.0], [0.0, -0.0], [1.0, -0.0]]), t_max=2.0,
                    record_stride=3)
        starts = {
            "symmetric": [np.array([-0.0, a, -a]) for a in (0.4, 1.1, 2.5)],
            "all-equal": [np.full(3, -0.0), np.zeros(3), np.full(3, 0.7)],
            "pi": [np.array([np.pi, -np.pi, np.pi]), np.array([-np.pi, -0.0, np.pi]),
                   np.array([np.pi, np.pi - 1e-9, -np.pi + 1e-9])],
            "saturated": [np.array([-0.0, 1.2, -1.2]), np.array([-0.0, 0.3, 2.9]),
                          np.array([-0.0, -0.0, 3.0])],
        }
        clip = {"saturated": dict(u_max=0.1, saturate=True)}
        return [SimulationConfig(**base, theta0=th, topology=graph, **clip.get(kind, {}))
                for kind, thetas in starts.items() for th in thetas[:runs]
                for graph in graphs[topology]]

    @pytest.mark.parametrize("topology", ["mean-field", "ring"])
    def test_simulate(self, topology):
        for cfg in self.configs(topology, 3):
            assert_matches_reference(cfg, *simulate(cfg))

    @pytest.mark.parametrize("runs", [1, 2, 3])
    @pytest.mark.parametrize("topology", ["mean-field", "ring", "mixed"])
    def test_simulate_batch(self, topology, runs):
        cfgs = self.configs(topology, runs)
        for cfg, result in zip(cfgs, simulate_batch(cfgs)):
            assert_matches_reference(cfg, *result)

    @pytest.mark.parametrize("topology", ["mean-field", "ring"])
    def test_step(self, topology):
        for cfg in self.configs(topology, 3):
            states = reference_run(dataclasses.replace(cfg, t_max=0.015, record_stride=1))[0]
            new = step(SwarmState(0.0, cfg.positions0, cfg.theta0), cfg)
            assert same_bits(new.theta, states[1, 0]), cfg.theta0
            assert same_bits(new.positions, states[1, 1:].T), cfg.theta0


class TestSignedZeroStagesUnforced(TestSignedZeroStages):
    """The same starts with omega0 = +0.0, the default. Adding +0.0 turns a
    -0.0 command into +0.0, a sign that only a -0.0 heading would show; the
    -0.0 starts enter as +0.0, so the integrator skips the add (see
    dynamics._integrate)."""

    OMEGA0 = 0.0


class TestSignedZeroStagesCosSin(TestSignedZeroStages):
    """The same starts with e^{i theta} from np.cos/np.sin, the way batches
    of phase.UNIT_COS_SIN_MIN headings or more take: sin keeps a -0.0 angle
    as np.exp does, so the -0.0 starts entering as +0.0 is what keeps these
    runs equal to the plain scheme."""

    @pytest.fixture(autouse=True)
    def cos_sin(self, monkeypatch):
        monkeypatch.setattr(phase, "UNIT_COS_SIN_MIN", 0)


class TestSignedZeroStagesUnforcedCosSin(TestSignedZeroStagesCosSin):
    OMEGA0 = 0.0


class TestUnitVectorSwitch:
    """Runs on both sides of phase.UNIT_COS_SIN_MIN equal the serial loop,
    which forms e^{i theta} as np.exp(1j * theta) itself."""

    def test_large_ring_run(self):
        """n = 1000 on a ring, past the switch: five recorded samples, and
        the record's derived columns against np.exp's e^{i theta}."""
        rng = np.random.default_rng(1000)
        n = 1000
        cfg = SimulationConfig(n=n, theta0=rng.uniform(0.0, 1.5, n),
                               gains=GainVector(-(10.0 ** rng.uniform(-0.3, 0.4, n))),
                               topology=ring_graph(n), t_max=0.125, record_stride=3)
        traj, report = simulate(cfg)
        assert traj.sample_count == 5
        assert_matches_reference(cfg, traj, report)
        z = np.exp(1j * traj.theta)
        p = z.mean(axis=1)
        assert same_bits(traj.p_mag, np.abs(p))
        assert same_bits(traj.potential, phase._potential(z, None))
        assert same_bits(traj.graph_potential, phase._potential(z, traj.edges))

    @pytest.mark.parametrize("runs", [3, 4], ids=["below", "past"])
    def test_mean_field_batch_straddling_the_switch(self, runs):
        """Runs of 30 agents: a batch of three has 90 headings (np.exp),
        one of four 120 (np.cos/np.sin); each row equals the serial loop."""
        assert (runs * 30 >= phase.UNIT_COS_SIN_MIN) == (runs == 4)
        rng = np.random.default_rng(30 + runs)
        cfgs = [SimulationConfig(n=30, theta0=rng.uniform(-1.0, 1.0, 30),
                                 gains=GainVector(-(10.0 ** rng.uniform(-0.3, 0.4, 30))),
                                 t_max=6.0, record_stride=20) for _ in range(runs)]
        for cfg, result in zip(cfgs, simulate_batch(cfgs)):
            assert_matches_reference(cfg, *result)

    def test_mixed_batch_past_the_switch(self):
        """A ring, a path with chords and a mean-field run of 40 agents in
        one batch of 120 headings, one of them starting at -0.0 and one
        saturating run beside them in a batch of its own."""
        rng = np.random.default_rng(40)
        theta0 = rng.uniform(-1.0, 1.0, 40)
        theta0[3] = -0.0
        base = dict(n=40, gains=GainVector(-(10.0 ** rng.uniform(-0.3, 0.4, 40))), t_max=3.0,
                    record_stride=7)
        cfgs = [SimulationConfig(**base, theta0=theta0, topology=ring_graph(40)),
                SimulationConfig(**base, theta0=-theta0, topology=edge_list_graph(40)),
                SimulationConfig(**base, theta0=theta0[::-1].copy()),
                SimulationConfig(**base, theta0=theta0, u_max=0.2, saturate=True)]
        for cfg, result in zip(cfgs, simulate_batch(cfgs)):
            assert_matches_reference(cfg, *result)


def test_saturating_clip_equals_np_clip_bitwise():
    """The right-hand side clips with maximum and then minimum against 0-d
    bounds, bit for bit np.clip's result: on nan, +-inf, +-0.0, subnormals,
    commands of exactly +-u_max and a subnormal u_max."""
    n = 12
    theta = np.r_[np.full(n - 1, 0.3), 2.0]  # the first n-1 agents share one gradient
    kvec = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-310, -1e-310, 5e-324, 3.0, -3.0,
                     1e300, -1.0])

    def commands(u_max):
        u, z = np.empty(n), np.empty(n, dtype=complex)
        angle, bind = dynamics._make_rhs([(kvec, 0.0, None, u_max)], n)
        angle[:] = theta
        bind(u, z)()
        return u

    raw = commands(None)
    assert np.isnan(raw[0]) and np.isinf(raw[1:3]).all() and 0 < abs(raw[5]) < 2.3e-308
    assert np.signbit(raw[3]) != np.signbit(raw[4]) and raw[8] == -raw[9]
    for u_max in (abs(raw[8]), abs(raw[5]), 1.0):
        assert same_bits(commands(u_max), np.clip(raw, -u_max, u_max)), u_max
        # the record's flag, where _outcome's clip changed a command, is the
        # threshold |u| > u_max on every command a record can hold (no nan)
        u = raw[1:]
        assert same_bits(dynamics._clip(u.copy(), -u_max, u_max) != u, np.abs(u) > u_max)


def test_saturated_flag_is_the_threshold_on_sim3_sat():
    """On every sample of both sim3-sat runs, the record's saturated flag is
    |u| > u_max bit for bit, u the unclipped command the control API
    computes from the recorded headings, and the controls are np.clip(u)."""
    runs = SCENARIOS["sim3-sat"]()
    for (name, cfg), (traj, _) in zip(runs, simulate_batch([cfg for _, cfg in runs])):
        law = (control_all_to_all if cfg.topology is None
               else partial(control_limited, g=cfg.topology))
        u = np.array([law(theta, cfg.gains, omega0=cfg.omega0) for theta in traj.theta])
        assert same_bits(traj.saturated, np.abs(u) > cfg.u_max), name
        assert same_bits(traj.controls, np.clip(u, -cfg.u_max, cfg.u_max)), name
        assert traj.saturated.any() and not traj.saturated.all(), name


# -- metamorphic oracles: symmetries of the closed loop ----------------------


def metamorphic_cases():
    """Twelve seeded runs at n = 6..50 to t_max 40: the mean-field law, and
    the neighbour law on random connected graphs (a random spanning tree
    plus n random chords); some turn at omega0 and some saturate."""
    rng = np.random.default_rng(1010)
    cases = []
    for i, n in enumerate((6, 7, 9, 12, 16, 20, 25, 30, 36, 42, 47, 50)):
        graph = None
        if i % 2:
            order = rng.permutation(n)
            pairs = [(order[k], order[rng.integers(k)]) for k in range(1, n)]
            pairs += [rng.choice(n, size=2, replace=False) for _ in range(n)]
            graph = InteractionGraph(n, tuple({(int(min(e)), int(max(e))) for e in pairs}))
            assert is_connected(graph)
        clip = dict(u_max=0.5, saturate=True) if i % 3 == 0 else {}
        cases.append(SimulationConfig(
            n=n, theta0=rng.uniform(-1.2, 1.2, n) + rng.uniform(-np.pi, np.pi),
            gains=GainVector(-(10.0 ** rng.uniform(-0.3, 0.4, n))),
            positions0=rng.uniform(-3.0, 3.0, (n, 2)), topology=graph,
            omega0=0.3 if i % 4 in (1, 2) else 0.0, t_max=40.0, record_stride=100, **clip))
    return cases


def case_id(cfg):
    law = "mf" if cfg.topology is None else f"graph{cfg.topology.edge_count}"
    return f"n{cfg.n}-{law}-w{cfg.omega0:g}-{'sat' if cfg.saturate else 'free'}"


def relabelled(cfg, perm):
    """cfg with agent k of the new run being agent perm[k] of cfg: its
    heading, gain, position and edges."""
    label = np.argsort(perm)  # the new label of each old agent
    graph = None if cfg.topology is None else InteractionGraph(
        cfg.n, tuple((int(label[j]), int(label[k])) for j, k in cfg.topology.edges))
    return dataclasses.replace(cfg, theta0=cfg.theta0[perm], gains=GainVector(cfg.gains.gains[perm]),
                               positions0=cfg.positions0[perm], topology=graph)


def large_relabelling_cases():
    """n = 1000 to t_max 0.3, every sample recorded: the mean-field law
    turning at omega0, and the saturating neighbour law on a random connected
    graph (a random spanning tree plus n random chords)."""
    rng = np.random.default_rng(1518)
    n = 1000
    order = rng.permutation(n)
    pairs = [(order[k], order[rng.integers(k)]) for k in range(1, n)]
    pairs += [rng.choice(n, size=2, replace=False) for _ in range(n)]
    graph = InteractionGraph(n, tuple({(int(min(e)), int(max(e))) for e in pairs}))
    common = dict(n=n, theta0=rng.uniform(-1.2, 1.2, n), positions0=rng.uniform(-3.0, 3.0, (n, 2)),
                  gains=GainVector(-(10.0 ** rng.uniform(-0.3, 0.4, n))), t_max=0.3)
    return [SimulationConfig(omega0=0.3, **common),
            SimulationConfig(topology=graph, u_max=0.5, saturate=True, **common)]


class TestMetamorphic:
    """The closed loop depends on headings only through their differences,
    and on an agent only through its gain and its edges: turning every
    heading, or relabelling the agents, must give the same run up to
    rounding. Neither oracle needs a reference value."""

    @pytest.mark.parametrize("cfg", metamorphic_cases(), ids=case_id)
    def test_rotation(self, cfg):
        """theta0 + c turns the final common heading by c, with the same t_sync."""
        c = 2.0 + 0.1 * cfg.n
        _, report = simulate(cfg)
        _, turned = simulate(dataclasses.replace(cfg, theta0=cfg.theta0 + c))
        assert report.synchronized and turned.t_sync == report.t_sync
        turn = turned.final_heading_common - report.final_heading_common
        assert abs(wrap_angle(turn - c)) < 1e-12

    @pytest.mark.parametrize("cfg", metamorphic_cases(), ids=case_id)
    def test_relabelling(self, cfg):
        """Agent k of the relabelled run is agent perm[k], with its heading,
        gain, position and edges: the same t_sync and final common heading."""
        perm = np.random.default_rng(cfg.n).permutation(cfg.n)
        _, report = simulate(cfg)
        _, moved_report = simulate(relabelled(cfg, perm))
        assert report.synchronized and moved_report.t_sync == report.t_sync
        moved = moved_report.final_heading_common - report.final_heading_common
        assert abs(wrap_angle(moved)) < 1e-12

    @pytest.mark.parametrize("cfg", large_relabelling_cases(), ids=case_id)
    def test_relabelling_permutes_every_column(self, cfg):
        """At n = 1000, relabelling permutes the graph layer exactly (the
        Laplacian and every neighbour list) and every per-agent column of
        the run (theta, positions, controls, saturated), and leaves the
        whole-swarm columns unchanged (p_mag, p_psi, potential,
        graph_potential, conserved). Run columns agree to 1e-11, absolute and relative: the
        relabelled run sums over agents in another order."""
        perm = np.random.default_rng(cfg.n).permutation(cfg.n)
        label = np.argsort(perm)
        moved = relabelled(cfg, perm)
        if cfg.topology is not None:
            lap = laplacian(cfg.topology)
            assert laplacian(moved.topology).tobytes() == lap[np.ix_(perm, perm)].tobytes()
            for k in range(cfg.n):
                assert moved.topology.neighbors(label[k]) == sorted(
                    label[cfg.topology.neighbors(k)].tolist())
        traj, _ = simulate(cfg)
        got, _ = simulate(moved)
        close = partial(np.testing.assert_allclose, rtol=1e-11, atol=1e-11)
        close(got.theta, traj.theta[:, perm])
        close(got.controls, traj.controls[:, perm])
        close(got.positions, traj.positions[:, perm])
        assert np.array_equal(got.saturated, traj.saturated[:, perm])
        assert traj.saturated.any() == cfg.saturate
        for name in ("p_mag", "p_psi", "potential", "graph_potential", "conserved"):
            close(getattr(got, name), getattr(traj, name), err_msg=name)
