"""Turn-rate commands, gain classification, saturation, and the gain cap."""

import numpy as np
import pytest

from swarmsync import (
    GainClass,
    GainVector,
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
        with pytest.raises(ValueError):
            GainVector([-1.0, np.inf])

    def test_classification_all_negative(self):
        assert GainVector([-1.0, -0.2]).classification is GainClass.ALL_NEGATIVE

    def test_classification_mixed_sum_negative(self):
        assert GainVector([0.5, -2.0]).classification is GainClass.MIXED_SUM_NEGATIVE

    def test_classification_other(self):
        assert GainVector([1.0, -0.5]).classification is GainClass.OTHER

    def test_gains_are_read_only(self):
        g = GainVector([-1.0, -2.0])
        with pytest.raises(ValueError):
            g.gains[0] = 5.0


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
