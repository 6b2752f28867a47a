"""Closed-loop integration: stepping, recording, sync detection, conservation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from swarmsync import (
    DivergenceError,
    GainVector,
    SimulationConfig,
    SwarmState,
    TrajectoryRecord,
    alignment_potential,
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
    step,
    wrap_angle,
)

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


class TestStep:
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

    @pytest.mark.parametrize("topology", [None, ring_graph(6)], ids=["mean-field", "ring"])
    def test_recorded_controls_equal_the_law_bitwise(self, six_theta0, topology):
        """u_k in the record is exactly the command the control API computes
        from the recorded headings, so the CSV shows what was applied."""
        cfg = SimulationConfig(
            n=6,
            theta0=six_theta0,
            gains=GainVector(named_gain_set("set1", 6)),
            omega0=0.5,
            topology=topology,
            t_max=20.0,
            record_stride=5,
        )
        traj, _ = simulate(cfg)
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
        from swarmsync import lyapunov_rate

        cfg = SimulationConfig(
            n=6,
            theta0=six_theta0,
            gains=GainVector(named_gain_set("set3", 6)),
            t_max=100.0,
            record_stride=10,
        )
        traj, report = simulate(cfg)
        assert report.synchronized
        rates = [lyapunov_rate(traj.theta[s], traj.gains) for s in range(traj.sample_count)]
        assert max(rates) <= 1e-12

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
        with pytest.warns(UserWarning, match="descent"):
            simulate(cfg)


class TestRotatingFrame:
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
