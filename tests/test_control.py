"""Turn-rate commands, gain validation, saturation, and the gain cap."""

import warnings

import numpy as np
import pytest

from swarmsync import (
    GainVector,
    InteractionGraph,
    SimulationConfig,
    alignment_potential_grad,
    complete_graph,
    control_all_to_all,
    control_limited,
    gain_cap,
    laplacian,
    laplacian_potential_grad,
    named_gain_set,
    ring_graph,
    simulate,
)

RNG = np.random.default_rng(303)

TOL = 1e-12


class TestGainVector:
    def test_rejects_zero_gain(self):
        with pytest.raises(ValueError, match="K_1"):
            GainVector([-1.0, 0.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="^gain K_1 = inf is not finite$"):
            GainVector([-1.0, np.inf])

    @pytest.mark.parametrize("tiny", [-1e-320, 5e-324, -5.5e-309])
    def test_rejects_gain_without_a_finite_reciprocal(self, tiny):
        """1/K overflows below |K| of about 5.56e-309; the message names the
        gain, and numpy's overflow warning is not raised."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^gain K_1 = .* reciprocal 1/K_1 "):
                GainVector([-1.0, tiny, 2.0])

    def test_smallest_gain_with_a_finite_reciprocal(self):
        """Accepted, and the float below it is not."""
        with np.errstate(over="ignore"):
            k = 1 / np.finfo(float).max
            while not np.isfinite(1 / k):
                k = np.nextafter(k, 1.0)
        assert GainVector([-k, k]).gains[1] == k
        with pytest.raises(ValueError, match="K_1"):
            GainVector([-k, np.nextafter(k, 0.0)])

    def test_gains_are_read_only(self):
        g = GainVector([-1.0, -2.0])
        with pytest.raises(ValueError):
            g.gains[0] = 5.0


# |sum_k 1/K_k| of every oracle case is above this, so no case sits on the
# stability boundary, where the eigenvalue test cannot decide; fixed before
# the cases were drawn
STABILITY_MARGIN = 0.05


def stability_cases(count=1200):
    """(gains, M) for seeded cases: n from 2 to 12, 0 to 3 positive gains, M
    the mean-field matrix I - 11^T/N or the Laplacian of a random connected
    graph (a random spanning tree plus random extra edges)."""
    rng = np.random.default_rng(2024)
    cases = []
    while len(cases) < count:
        n = int(rng.integers(2, 13))
        gains = -rng.uniform(0.1, 5.0, n)
        gains[rng.choice(n, int(rng.integers(0, min(3, n) + 1)), replace=False)] *= -1.0
        if abs(np.sum(1.0 / gains)) <= STABILITY_MARGIN:
            continue
        if rng.random() < 0.5:
            m = np.eye(n) - 1.0 / n
        else:
            order = rng.permutation(n)
            edges = {tuple(sorted((int(order[i]), int(order[rng.integers(0, i)]))))
                     for i in range(1, n)}
            edges |= {(j, k) for j in range(n) for k in range(j + 1, n) if rng.random() < 0.2}
            m = laplacian(InteractionGraph(n, tuple(sorted(edges))))
        cases.append((gains, m))
    return cases


def linearly_stable(gains, m):
    """Whether every eigenvalue of J = diag(K) M but the structural zero has
    negative real part. J maps every vector into W = {v : sum_k v_k/K_k = 0}
    (the conserved sum), and 1 is J's zero eigenvector outside W, so the
    other eigenvalues are those of J restricted to W."""
    basis = np.linalg.svd((1.0 / gains)[None, :])[2][1:].T  # orthonormal basis of W
    restricted = basis.T @ (gains[:, None] * m) @ basis
    return bool(np.all(np.linalg.eigvals(restricted).real < 0.0))


class TestSyncStable:
    """GainVector.sync_stable, the rule behind the run-start gain warning:
    sync is linearly stable iff all gains are negative, or exactly one is
    positive and sum_k 1/K_k > 0."""

    def test_matches_the_linearization(self):
        cases = stability_cases()
        verdicts = [GainVector(g).sync_stable for g, _ in cases]
        assert verdicts == [linearly_stable(g, m) for g, m in cases]
        positives = {int(np.sum(g > 0)) for g, _ in cases}
        assert positives == {0, 1, 2, 3} and 0 < sum(verdicts) < len(cases)
        # stable and unstable one-positive cases, and two-positive cases
        # with a positive sum_k 1/K_k, are all in the draw
        one = [v for (g, _), v in zip(cases, verdicts) if np.sum(g > 0) == 1]
        assert any(one) and not all(one)
        assert any(np.sum(g > 0) > 1 and np.sum(1.0 / g) > 0 for g, _ in cases)

    @pytest.mark.parametrize("gains, stable", [
        ([-1.0, -0.2, -3.0], True),
        ([0.5, -2.0], True),                      # 1/K sums to 1.5
        ([1.0, -2.0, -2.0], False),               # 1/K sums to exactly 0
        ([1.0, -1.0], False),
        ([0.5] + [-0.6] * 5, False),              # sum K < 0, sum 1/K < 0
        ([0.5, 0.5] + [-5.0] * 4, False),         # two positive gains
        ([6e-309, -1e308], True),                 # 1/K near the float limit
        ([-6e-309, 1e308], False),
    ])
    def test_cases(self, gains, stable):
        assert GainVector(gains).sync_stable is stable


class TestAllToAll:
    def test_equilibrium_at_sync(self):
        cmd = control_all_to_all(np.full(4, 0.8), -np.ones(4))
        np.testing.assert_allclose(cmd, 0.0, atol=TOL)

    def test_sync_with_omega(self):
        cmd = control_all_to_all(np.full(4, 0.8), -np.ones(4), omega0=0.5)
        np.testing.assert_allclose(cmd, 0.5, atol=TOL)

    def test_pair_turns_toward_each_other(self):
        """-(K_k/2) sin(theta_j - theta_k) with K = -1: the low agent turns up,
        the high one turns down, closing the gap."""
        cmd = control_all_to_all([0.0, np.pi / 2], [-1.0, -1.0])
        np.testing.assert_allclose(cmd, [0.5, -0.5], atol=TOL)

    def test_equals_gain_times_gradient(self):
        for _ in range(100):
            n = int(RNG.integers(2, 10))
            theta = RNG.uniform(-np.pi, np.pi, n)
            gains = RNG.uniform(-3, 3, n)
            gains[gains == 0.0] = -1.0
            omega0 = float(RNG.uniform(-1, 1))
            cmd = control_all_to_all(theta, gains, omega0)
            np.testing.assert_allclose(
                cmd, omega0 + gains * alignment_potential_grad(theta), atol=TOL
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            control_all_to_all([0.0, 1.0], [-1.0, -1.0, -1.0])


class TestLimited:
    def test_equals_gain_times_graph_gradient(self):
        g = ring_graph(5)
        lap = laplacian(g)
        for _ in range(50):
            theta = RNG.uniform(-np.pi, np.pi, 5)
            gains = -RNG.uniform(0.2, 3.0, 5)
            cmd = control_limited(theta, gains, g, omega0=0.3)
            np.testing.assert_allclose(
                cmd, 0.3 + gains * laplacian_potential_grad(theta, lap), atol=TOL
            )

    def test_complete_graph_equals_all_to_all_scaled_by_n(self):
        """The neighbor law has no 1/N factor, so on the complete graph it
        matches the mean-field law with gains scaled by N."""
        n = 6
        g = complete_graph(n)
        for _ in range(50):
            theta = RNG.uniform(-np.pi, np.pi, n)
            gains = -RNG.uniform(0.2, 2.0, n)
            lim = control_limited(theta, gains, g)
            mean_field = control_all_to_all(theta, n * gains)
            np.testing.assert_allclose(lim, mean_field, atol=TOL)

    def test_sync_gives_omega(self):
        cmd = control_limited(np.full(3, -1.1), [-1.0, -2.0, -3.0], ring_graph(3), omega0=0.7)
        np.testing.assert_allclose(cmd, 0.7, atol=TOL)

    def test_ring3_balanced_splay_is_critical(self):
        """Each neighbor sine sum cancels at [0, 2pi/3, 4pi/3]."""
        cmd = control_limited([0.0, 2 * np.pi / 3, 4 * np.pi / 3], [-1.0, -5.0, 2.0], ring_graph(3))
        np.testing.assert_allclose(cmd, 0.0, atol=TOL)

    def test_warns_on_disconnected_graph(self):
        from swarmsync import InteractionGraph

        g = InteractionGraph(4, ((0, 1), (2, 3)))
        with pytest.warns(UserWarning, match="not connected"):
            control_limited([0.0, 1.0, 2.0, 3.0], -np.ones(4), g)


class TestNonFiniteOmega0:
    """Both command functions reject a non-finite omega0 with the message
    SimulationConfig gives, where they returned a row of nan or inf."""

    @pytest.mark.parametrize("omega0", [np.nan, np.inf, -np.inf])
    def test_all_to_all(self, omega0):
        with pytest.raises(ValueError, match=f"^omega0 must be finite, got {omega0!r}$"):
            control_all_to_all([0.1, 0.5], [-1.0, -2.0], omega0)

    @pytest.mark.parametrize("omega0", [np.nan, np.inf, -np.inf])
    def test_limited(self, omega0):
        with pytest.raises(ValueError, match=f"^omega0 must be finite, got {omega0!r}$"):
            control_limited([0.1, 0.5, 0.9], [-1.0, -2.0, -3.0], ring_graph(3), omega0)

    @pytest.mark.parametrize("omega0", [np.nan, np.inf])
    def test_same_message_as_the_config(self, omega0):
        with pytest.raises(ValueError) as config_error:
            SimulationConfig(n=2, theta0=[0.1, 0.5], gains=[-1.0, -2.0], omega0=omega0)
        with pytest.raises(ValueError) as command_error:
            control_all_to_all([0.1, 0.5], [-1.0, -2.0], omega0)
        assert str(command_error.value) == str(config_error.value)


class TestSaturate:
    """Clipping lives in the closed loop: each recorded command is the law's
    command clipped to [-u_max, u_max], flagged only where clipping changed it."""

    U_MAX = 0.1

    def saturated_run(self, theta0_deg, omega0=0.0):
        n = len(theta0_deg)
        cfg = SimulationConfig(
            n=n,
            theta0=np.deg2rad(theta0_deg),
            gains=GainVector(named_gain_set("set2", n)),
            omega0=omega0,
            t_max=20.0,
            u_max=self.U_MAX,
            saturate=True,
            record_stride=10,
        )
        traj, _ = simulate(cfg)
        u_raw = np.array([control_all_to_all(th, traj.gains, omega0) for th in traj.theta])
        return traj, u_raw

    def test_below_limit_unchanged(self):
        traj, u_raw = self.saturated_run([-60.0, -45.0, -30.0, 30.0, 45.0, 60.0])
        inside = np.abs(u_raw) <= self.U_MAX
        assert inside.any()
        np.testing.assert_array_equal(traj.controls[inside], u_raw[inside])
        assert not traj.saturated[inside].any()

    def test_clips_and_records(self):
        traj, u_raw = self.saturated_run([-60.0, -45.0, -30.0, 30.0, 45.0, 60.0])
        assert traj.saturated.any()
        np.testing.assert_array_equal(traj.saturated, np.abs(u_raw) > self.U_MAX)
        np.testing.assert_array_equal(traj.controls, np.clip(u_raw, -self.U_MAX, self.U_MAX))

    def test_boundary_passes_unchanged(self):
        """Headings all at 0 have a gradient of exactly 0, so the first
        command equals omega0 = u_max exactly: it is not flagged."""
        traj, u_raw = self.saturated_run([0.0, 0.0, 0.0], omega0=self.U_MAX)
        np.testing.assert_array_equal(u_raw[0], self.U_MAX)
        np.testing.assert_array_equal(traj.controls[0], self.U_MAX)
        assert not traj.saturated[0].any()

    def test_idempotent_and_never_grows(self):
        traj, u_raw = self.saturated_run([-60.0, -45.0, -30.0, 30.0, 45.0, 60.0])
        np.testing.assert_array_equal(
            np.clip(traj.controls, -self.U_MAX, self.U_MAX), traj.controls
        )
        assert np.all(np.abs(traj.controls) <= np.abs(u_raw))
        assert np.all(np.abs(traj.controls) <= self.U_MAX)

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            SimulationConfig(n=2, theta0=[0.0, 1.0], gains=[-1.0, -1.0], u_max=0.0,
                             saturate=True)


class TestGainCap:
    def test_reference_values(self):
        assert gain_cap(6, 0.1) == pytest.approx(0.12, abs=TOL)
        assert gain_cap(2, 1.0) == pytest.approx(2.0, abs=TOL)

    def test_approaches_u_max_from_above(self):
        assert gain_cap(1000, 0.1) > 0.1
        assert gain_cap(1000, 0.1) == pytest.approx(0.1, abs=1e-3)

    def test_capped_gains_bound_the_mean_field_command(self):
        """|u_k| <= ((N-1)/N)|K_k| <= u_max whenever |K_k| <= cap."""
        u_max = 0.1
        for _ in range(200):
            n = int(RNG.integers(2, 10))
            cap = gain_cap(n, u_max)
            gains = -RNG.uniform(0.0, cap, n)
            gains[gains == 0.0] = -cap
            theta = RNG.uniform(-np.pi, np.pi, n)
            cmd = control_all_to_all(theta, gains)
            assert np.max(np.abs(cmd)) <= u_max + TOL

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gain_cap(1, 0.1)
        with pytest.raises(ValueError):
            gain_cap(4, -0.1)


class TestNamedGainSets:
    def test_set_values(self):
        np.testing.assert_allclose(named_gain_set("set1", 3), [-1.0, -2.0, -3.0])
        np.testing.assert_allclose(named_gain_set("set2", 3), [-1.0, -0.5, -1 / 3])
        np.testing.assert_allclose(named_gain_set("set3", 6), [0.5, -2, -3, -4, -5, -6])
        np.testing.assert_allclose(named_gain_set("set4", 2), [-0.1, -0.05])

    def test_set4_within_cap(self):
        gains = named_gain_set("set4", 6)
        assert np.all(np.abs(gains) <= gain_cap(6, 0.1))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_gain_set("set9", 4)
