"""Rotated frames, direction prediction, reachability, synthesis, perturbation
bounds, the two-agent extension, and critical-point machinery."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from swarmsync import (
    CriticalKind,
    CriticalPointConfig,
    GainVector,
    InteractionGraph,
    NonAcuteConeError,
    SimulationConfig,
    alignment_potential,
    classify_critical_point,
    critical_point_hessian,
    is_connected,
    is_reachable,
    laplacian,
    laplacian_potential_grad,
    named_gain_set,
    perturbation_bounds,
    predict_direction,
    ring_graph,
    rotated_frame,
    simulate,
    synthesize_gains,
    two_agent_direction,
    two_agent_gains,
    wrap_angle,
)
from swarmsync.analysis import _hessian_entries, _saddle_witness
from swarmsync.phase import alignment_potential_grad, order_parameter

RNG = np.random.default_rng(505)

# sha256 pins (see digest) of synthesize_gains on synthesis_cases() and of
# two_agent_gains on two_agent_cases()
SYNTHESIS_PIN = "8069133fa7951bd8a17b98cd14cd8fed5a6b33f9941fb9ff2dc9df7f10956306"
TWO_AGENT_PIN = "50a0b767b665c79ded6512cf96b9d43534d50de7cb6cf59fda6c87c389877ea2"

# weighted averages of the six reference headings, evaluated by hand:
#   set1: sum(hat/K) = -81 deg, sum(1/K) = -49/20  ->  1620/49 - 60 deg
#   set2: sum(hat/K) = -1725 deg, sum(1/K) = -21   ->  575/7 - 60 deg
SET1_DIRECTION_DEG = -1320.0 / 49.0
SET2_DIRECTION_DEG = 155.0 / 7.0


def random_acute_headings(rng, n=None, span_range=(0.2, 2.8)):
    if n is None:
        n = int(rng.integers(2, 9))
    span = rng.uniform(*span_range)
    hat = np.concatenate([[0.0, span], rng.uniform(0.0, span, n - 2)])
    return hat + rng.uniform(-np.pi, np.pi - span), span


class TestRotatedFrame:
    def test_six_agent_reference(self, six_theta0):
        frame = rotated_frame(six_theta0)
        assert frame.theta_R == pytest.approx(np.deg2rad(-60.0), abs=1e-12)
        np.testing.assert_allclose(
            np.degrees(frame.theta_hat0), [0.0, 15.0, 30.0, 90.0, 105.0, 120.0], atol=1e-10
        )
        assert frame.span == pytest.approx(np.deg2rad(120.0), abs=1e-12)
        assert frame.acute

    def test_identical_pair(self):
        frame = rotated_frame(np.deg2rad([10.0, 10.0]))
        assert frame.theta_R == pytest.approx(np.deg2rad(10.0), abs=1e-15)
        assert frame.span == 0.0
        assert frame.acute

    def test_arc_crossing_the_cut(self):
        """[170, -170] deg spans only 20 deg once the reference is chosen."""
        frame = rotated_frame(np.deg2rad([170.0, -170.0]))
        assert frame.theta_R == pytest.approx(np.deg2rad(170.0), abs=1e-12)
        assert frame.span == pytest.approx(np.deg2rad(20.0), abs=1e-12)
        assert frame.acute

    def test_antipodal_pair_not_acute(self):
        frame = rotated_frame(np.array([-np.pi / 2, np.pi / 2]))
        assert not frame.acute
        assert frame.span == pytest.approx(np.pi, abs=1e-12)

    def test_just_under_half_turn_is_acute(self):
        frame = rotated_frame(np.deg2rad([0.0, 179.99]))
        assert frame.acute

    def test_minimum_is_zero_and_entries_in_span(self):
        for _ in range(100):
            theta0, _ = random_acute_headings(RNG)
            frame = rotated_frame(theta0)
            assert frame.theta_hat0.min() == 0.0
            assert np.all(frame.theta_hat0 <= frame.span + 1e-12)

    def test_rejects_headings_outside_open_interval(self):
        with pytest.raises(ValueError):
            rotated_frame([0.0, np.pi])

    def test_equals_every_reference_search_exactly(self):
        """Against trying every heading as the reference (O(n^2)): same
        theta_R, theta_hat0 and span to the bit, over exact ties, evenly
        spread headings, antipodal clusters and arcs across the +-pi cut, and
        2,000 evenly spread headings, where every gap ties."""

        def every_reference(th):
            best_span, best_rel, best_ref = np.inf, None, 0.0
            for cand in th:
                rel = np.mod(th - cand, 2.0 * np.pi)
                if rel.max() < best_span:
                    best_span, best_rel, best_ref = float(rel.max()), rel, float(cand)
            return best_ref, best_rel, best_span

        def check(th):
            frame = rotated_frame(th)
            ref, rel, span = every_reference(th)
            assert frame.theta_R == ref and frame.span == span, repr(th)
            assert np.array_equal(frame.theta_hat0, rel), repr(th)

        check((np.arange(2000) + 0.5) * (2.0 * np.pi / 2000) - np.pi)
        rng = np.random.default_rng(31)
        for case in range(1500):
            n = int(rng.integers(2, 30))
            kind = case % 4
            if kind == 0:
                th = rng.choice(rng.uniform(-3.1, 3.1, int(rng.integers(1, 5))), n)
            elif kind == 1:
                th = np.linspace(-3.0, 3.0, n) + rng.normal(0.0, 1e-16, n) * rng.integers(0, 2)
            elif kind == 2:
                base = rng.uniform(-1.0, 1.0) + np.where(rng.random(n) < 0.5, 0.0, np.pi)
                th = wrap_angle(base + rng.normal(0.0, 10.0 ** rng.uniform(-16, -3), n))
            else:
                side = np.where(rng.random(n) < 0.5, np.pi, -np.pi)
                th = side - np.sign(side) * rng.uniform(1e-9, 0.3, n)
            th = np.asarray(th)[(th > -np.pi) & (th < np.pi)]
            if th.size >= 2:
                check(th)

    def test_equals_the_stable_unique_search_exactly(self):
        """Against the gap search over np.unique(..., return_index=True),
        whose stable argsort gives each value its first index: same theta_R,
        theta_hat0 and span to the bit, over duplicates, +-0.0, evenly spread
        headings for n from 3 to 2,000 (every gap ties), gaps tied within
        1e-12 and acute configs of 3,000 headings."""

        def unique_search(th):
            values, first = np.unique(th, return_index=True)
            gaps = np.diff(values, append=values[0] + 2.0 * np.pi)
            ends = (np.flatnonzero(gaps >= gaps.max() - 1e-12) + 1) % values.size
            if ends.size > 1:
                v = values[ends]
                spans = np.maximum(np.mod(values[ends - 1] - v, 2.0 * np.pi),
                                   np.mod(values[-1] - v, 2.0 * np.pi))
                ends = ends[spans == spans.min()]
            ref = first[ends].min()
            rel = np.mod(th - th[ref], 2.0 * np.pi)
            return float(th[ref]), rel, float(rel.max())

        def check(th):
            frame = rotated_frame(th)
            ref, rel, span = unique_search(th)
            assert np.float64(frame.theta_R).tobytes() == np.float64(ref).tobytes(), repr(th)
            assert frame.theta_hat0.tobytes() == rel.tobytes(), repr(th)
            assert frame.span == span, repr(th)

        rng = np.random.default_rng(2718)
        for n in list(range(3, 40)) + [64, 333, 1000, 2000]:
            even = (np.arange(n) + 0.5) * (2.0 * np.pi / n) - np.pi
            check(even)
            check(rng.permutation(even))
        for case in range(600):
            n = int(rng.integers(2, 40))
            kind = case % 4
            if kind == 0:  # duplicates, and zeros of both signs
                th = rng.choice(np.concatenate([[0.0, -0.0], rng.uniform(-3.1, 3.1, 3)]), n)
            elif kind == 1:  # near-ties: gaps equal to within 1e-12
                th = (np.arange(n) * (2.0 * np.pi / n) - 3.0
                      + rng.uniform(-4e-13, 4e-13, n) * rng.integers(0, 2))
            elif kind == 2:  # two gaps tied within 1e-12 across the +-pi cut
                a = rng.uniform(0.1, 1.0)
                th = rng.permutation(np.array([-a, a, np.pi - a + rng.uniform(-4e-13, 4e-13),
                                               -np.pi + a, 0.0, -0.0])[:max(n, 2)])
            else:
                th, _ = random_acute_headings(rng, n)
            th = np.asarray(th)[(th > -np.pi) & (th < np.pi)]
            if th.size >= 2:
                check(th)
        for _ in range(5):
            th, _ = random_acute_headings(rng, 3000, (1.0, 2.5))
            check(th)
            check(np.round(th, 2))  # many headings share a value


class TestPredictDirection:
    def test_set1_reference_value(self, six_theta0):
        got = predict_direction(six_theta0, named_gain_set("set1", 6))
        assert got == pytest.approx(np.deg2rad(SET1_DIRECTION_DEG), abs=1e-9)

    def test_set2_reference_value(self, six_theta0):
        got = predict_direction(six_theta0, named_gain_set("set2", 6))
        assert got == pytest.approx(np.deg2rad(SET2_DIRECTION_DEG), abs=1e-9)

    def test_homogeneous_gains_give_arithmetic_mean(self, six_theta0):
        """Equal gains average the initial headings; the reference set is
        symmetric, so the mean is 0."""
        for k in (-0.5, -1.0, -4.0):
            got = predict_direction(six_theta0, np.full(6, k))
            assert got == pytest.approx(0.0, abs=1e-12)

    def test_rejects_positive_gain(self, six_theta0):
        with pytest.raises(ValueError):
            predict_direction(six_theta0, named_gain_set("set3", 6))

    def test_rejects_non_acute(self):
        with pytest.raises(NonAcuteConeError):
            predict_direction([-np.pi / 2, np.pi / 2], [-1.0, -1.0])

    def test_strictly_interior(self):
        for _ in range(200):
            theta0, span = random_acute_headings(RNG)
            n = theta0.size
            frame = rotated_frame(theta0)
            k = -(10.0 ** RNG.uniform(-1, 1, n))
            inv = 1.0 / k
            hat_c = (frame.theta_hat0 @ inv) / inv.sum()
            assert 0.0 < hat_c < frame.span

    def test_power_of_two_weights_match_plain_reciprocals(self):
        """The 1/K weights are scaled by an exact power of two, and the formula
        is homogeneous of degree 0 in K: on gains whose 1/K neither over- nor
        underflows the answer is the plain formula's, bit for bit."""
        rng = np.random.default_rng(2309)
        for _ in range(500):
            theta0, _ = random_acute_headings(rng)
            frame = rotated_frame(theta0)
            k = -np.exp(rng.uniform(-30.0, 30.0, theta0.size))
            inv = 1.0 / k
            plain = float(wrap_angle(float((frame.theta_hat0 @ inv) / inv.sum()) + frame.theta_R))
            assert predict_direction(theta0, k) == plain


def random_connected_graph(rng, n):
    """A random spanning tree on n nodes plus up to n - 1 random chords."""
    order = rng.permutation(n)
    pairs = [(order[k], order[rng.integers(k)]) for k in range(1, n)]
    pairs += [rng.choice(n, size=2, replace=False) for _ in range(int(rng.integers(0, n)))]
    graph = InteractionGraph(n, tuple({(int(min(e)), int(max(e))) for e in pairs}))
    assert is_connected(graph)
    return graph


class TestGraphDirection:
    """On a connected undirected graph the neighbour law keeps the sum of
    theta_k / K_k (each edge's two terms cancel), so the 1/K-weighted
    closed-form direction is where the run synchronizes, as for the
    mean-field law (Olfati-Saber, Fax and Murray, Proc. IEEE 2007)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_run_synchronizes_at_the_predicted_direction(self, seed):
        rng = np.random.default_rng(2007 + seed)
        n = 3 + seed % 10
        theta0, _ = random_acute_headings(rng, n)
        gains = GainVector(-(10.0 ** rng.uniform(-0.3, 0.4, n)))
        cfg = SimulationConfig(n=n, theta0=theta0, gains=gains,
                               topology=random_connected_graph(rng, n),
                               dt=0.05, t_max=150.0, record_stride=50)
        traj, report = simulate(cfg)
        assert report.synchronized
        error = wrap_angle(report.final_heading_common - predict_direction(theta0, gains))
        assert abs(error) < 1e-3
        assert np.max(np.abs(traj.conserved - traj.conserved[0])) < 1e-6


class TestConvexWeights:
    """The prediction is the convex combination of the rotated initial
    headings with weights (1/K_k) / sum_j (1/K_j)."""

    def test_equal_gains(self):
        # equal weights: a pair's midpoint
        assert predict_direction([0.2, 0.6], [-1.0, -1.0]) == pytest.approx(0.4, abs=1e-15)

    def test_two_to_one(self):
        # gains (-1, -2) weigh the headings 2/3 and 1/3
        assert predict_direction([0.0, 0.3], [-1.0, -2.0]) == pytest.approx(0.1, abs=1e-15)

    def test_positive_and_normalized(self):
        """Positive weights summing to 1 put the prediction strictly inside
        the initial arc, for any negative gains."""
        for _ in range(100):
            theta0, _ = random_acute_headings(RNG)
            frame = rotated_frame(theta0)
            gains = -(10.0 ** RNG.uniform(-1, 1, theta0.size))
            hat_c = np.mod(predict_direction(theta0, gains) - frame.theta_R, 2 * np.pi)
            assert 0.0 < hat_c < frame.span

    def test_reproduces_prediction(self, six_theta0):
        gains = named_gain_set("set1", 6)
        frame = rotated_frame(six_theta0)
        lam = (1.0 / gains) / np.sum(1.0 / gains)
        rebuilt = wrap_angle(lam @ frame.theta_hat0 + frame.theta_R)
        assert rebuilt == pytest.approx(predict_direction(six_theta0, gains), abs=1e-12)

    def test_rejects_positive(self):
        # one positive gain makes the 1/K weights (2, -1): not convex
        with pytest.raises(ValueError):
            predict_direction([0.0, 0.3], [-1.0, 2.0])


class TestIsReachable:
    def test_interior_target(self, six_theta0):
        report = is_reachable(six_theta0, 0.0)
        assert report.reachable_negative_gains

    @pytest.mark.parametrize("target_deg", [60.0, -60.0])
    def test_extreme_rays_excluded(self, six_theta0, target_deg):
        assert not is_reachable(six_theta0, np.deg2rad(target_deg)).reachable_negative_gains

    def test_outside_cone(self, six_theta0):
        assert not is_reachable(six_theta0, np.deg2rad(90.0)).reachable_negative_gains

    def test_standard_interval_endpoints(self, six_theta0):
        report = is_reachable(six_theta0, 0.0)
        np.testing.assert_allclose(
            np.degrees(report.interval_standard), [-60.0, 60.0], atol=1e-10
        )

    def test_two_agent_extended_flag(self):
        report = is_reachable(np.deg2rad([-60.0, 60.0]), np.deg2rad(150.0))
        assert not report.reachable_negative_gains
        assert report.reachable_two_agent_extended is True
        report6 = is_reachable(np.deg2rad([-60.0, -45.0, -30.0, 30.0, 45.0, 60.0]), 0.0)
        assert report6.reachable_two_agent_extended is None

    def test_non_acute_raises(self):
        with pytest.raises(NonAcuteConeError):
            is_reachable([-np.pi / 2, np.pi / 2], 0.0)


class TestSynthesizeGains:
    def test_mean_target_with_uniform_scale_gives_unit_gains(self, six_theta0):
        gains = synthesize_gains(six_theta0, 0.0, c=-1.0 / 6.0)
        np.testing.assert_allclose(gains.gains, -1.0, atol=1e-12)

    def test_round_trip_six_agents(self, six_theta0):
        target = np.deg2rad(SET1_DIRECTION_DEG)
        gains = synthesize_gains(six_theta0, target)
        assert gains.all_negative
        assert abs(wrap_angle(predict_direction(six_theta0, gains) - target)) < 1e-12

    def test_round_trip_random(self):
        for _ in range(150):
            theta0, span = random_acute_headings(RNG)
            frame = rotated_frame(theta0)
            t_hat = RNG.uniform(1e-3, frame.span - 1e-3)
            target = wrap_angle(t_hat + frame.theta_R)
            gains = synthesize_gains(theta0, target, c=-float(RNG.uniform(0.1, 4.0)))
            assert gains.all_negative
            got = predict_direction(theta0, gains)
            assert abs(wrap_angle(got - target)) < 1e-12

    def test_inverse_gain_sum_equals_inverse_c(self, six_theta0):
        c = -0.7
        gains = synthesize_gains(six_theta0, np.deg2rad(10.0), c=c)
        assert np.sum(1.0 / gains.gains) == pytest.approx(1.0 / c, abs=1e-12)

    def test_gains_not_unique_under_c_rescaling(self, six_theta0):
        target = np.deg2rad(10.0)
        g1 = synthesize_gains(six_theta0, target, c=-1.0)
        g2 = synthesize_gains(six_theta0, target, c=-2.0)
        assert not np.allclose(g1.gains, g2.gains)
        assert predict_direction(six_theta0, g1) == pytest.approx(
            predict_direction(six_theta0, g2), abs=1e-12
        )

    def test_rejects_unreachable_target(self, six_theta0):
        with pytest.raises(ValueError, match="not reachable"):
            synthesize_gains(six_theta0, np.deg2rad(60.0))

    def test_rejects_nonnegative_c(self, six_theta0):
        with pytest.raises(ValueError):
            synthesize_gains(six_theta0, 0.0, c=1.0)

    def test_pinned_bits(self):
        """The gains of synthesis_cases() bit for bit. The exact targets pin
        which side of the bracket takes a heading equal to the target; the
        others pin which end s_min divides by."""
        cases = synthesis_cases()
        assert len(cases) == 1938
        assert digest(synthesize_gains(*case) for case in cases) == SYNTHESIS_PIN


def synthesis_cases():
    """(theta0, target, c) on 320 seeded acute configs at n = 2..40. Each
    config gives an interior target on each side of the homogeneous mean and,
    as exact targets, the heading nearest the mean on each side and one
    other heading each side (their rotated values equal the frame's bit for
    bit). Every fourth config puts its reference heading at exactly 0, so
    its rotated frame is theta0 itself, and adds the mean as an exact
    target."""
    rng = np.random.default_rng(1515)
    cases = []
    for i in range(320):
        n = 2 + i % 39
        theta0, _ = random_acute_headings(rng, n)
        if i % 4 == 0:
            theta0 = theta0 - theta0.min()
        frame = rotated_frame(theta0)
        hat, c = frame.theta_hat0, -float(rng.uniform(0.1, 4.0))
        mean = float(hat.mean())
        targets = [wrap_angle(frame.theta_R + rng.uniform(0.0, mean)),
                   wrap_angle(frame.theta_R + rng.uniform(mean, frame.span))]
        inner = (hat > 0.0) & (hat < frame.span)
        for side in (inner & (hat < mean), inner & (hat > mean)):
            idx = np.flatnonzero(side)
            if idx.size:
                nearest = idx[np.argmin(np.abs(hat[idx] - mean))]
                targets += [theta0[nearest], theta0[rng.choice(idx)]]
        if i % 4 == 0:
            assert frame.theta_R == 0.0 and np.array_equal(hat, theta0)
            targets.append(mean)
        cases += [(theta0, float(t), c) for t in targets]
    return cases


def digest(results) -> str:
    """sha256 over the gains' bytes, or the error message, of each result."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.encode() if isinstance(r, str) else r.gains.tobytes())
    return h.hexdigest()


class TestPerturbationBounds:
    def test_zero_eta_degenerates_to_mean(self, six_theta0):
        b = perturbation_bounds(six_theta0, 0.0)
        assert b.delta_lower == 0.0 and b.delta_upper == 0.0
        assert b.admissible_lo == pytest.approx(b.mean_direction, abs=1e-15)
        assert b.admissible_hi == pytest.approx(b.mean_direction, abs=1e-15)

    def test_reference_deviations_at_half(self, six_theta0):
        """mean = 60 deg; 2*eta/(1+eta) = 2/3 and 2*eta/(1-eta) = 2 give
        deviations of 40 and 120 deg; the cone then clips the admissible
        interval to [20, 120] deg."""
        b = perturbation_bounds(six_theta0, 0.5)
        assert np.degrees(b.mean_direction) == pytest.approx(60.0, abs=1e-10)
        assert np.degrees(b.delta_lower) == pytest.approx(40.0, abs=1e-10)
        assert np.degrees(b.delta_upper) == pytest.approx(120.0, abs=1e-10)
        assert np.degrees(b.admissible_lo) == pytest.approx(20.0, abs=1e-10)
        assert np.degrees(b.admissible_hi) == pytest.approx(120.0, abs=1e-10)

    def test_monte_carlo_containment(self, six_theta0):
        """Sampled gain errors never push the prediction out of the band."""
        frame = rotated_frame(six_theta0)
        for eta in (0.25, 0.6):
            b = perturbation_bounds(six_theta0, eta)
            for _ in range(300):
                etas = RNG.uniform(0, eta, 6) * RNG.choice([-1.0, 1.0], 6)
                k = -1.0 * (1.0 + etas)
                inv = 1.0 / k
                hat_c = (frame.theta_hat0 @ inv) / inv.sum()
                assert b.contains(hat_c)

    @pytest.mark.parametrize("eta", [-0.1, 1.0, 1.5])
    def test_rejects_bad_eta(self, six_theta0, eta):
        with pytest.raises(ValueError):
            perturbation_bounds(six_theta0, eta)


class TestTwoAgentDirection:
    def test_mixed_gains_plus_120(self):
        got = two_agent_direction(np.deg2rad([-60.0, 60.0]), [-3.0, 1.0])
        assert got == pytest.approx(np.deg2rad(120.0), abs=1e-12)

    def test_mixed_gains_minus_120(self):
        got = two_agent_direction(np.deg2rad([-60.0, 60.0]), [1.0, -3.0])
        assert got == pytest.approx(np.deg2rad(-120.0), abs=1e-12)

    def test_equal_negative_gains_hit_midpoint(self):
        got = two_agent_direction(np.deg2rad([-60.0, 60.0]), [-2.0, -2.0])
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_can_leave_initial_arc(self):
        for _ in range(100):
            theta0, _ = random_acute_headings(RNG, n=2)
            k1 = RNG.uniform(0.1, 2.0)
            k2 = -k1 - RNG.uniform(0.5, 3.0)
            got = two_agent_direction(theta0, [k1, k2])
            assert np.isfinite(got)

    def test_rejects_nonnegative_sum(self):
        with pytest.raises(ValueError):
            two_agent_direction([0.0, 1.0], [2.0, -1.0])

    @pytest.mark.filterwarnings("error")
    def test_gains_near_the_float_limit(self):
        """K_1 + K_2 of two -1e308 gains overflowed to -inf, and the
        direction read 0 deg for 20; the gains are now scaled by a power of
        two first."""
        got = two_agent_direction(np.deg2rad([0.0, 40.0]), [-1e308, -1e308])
        assert np.degrees(got) == pytest.approx(20.0, abs=1e-9)

    def test_power_of_two_gains_match_plain_gains(self):
        """Scaling both gains by a power of two is exact, so on gains whose
        products and sum neither over- nor underflow the answer is the plain
        formula's, bit for bit."""
        rng = np.random.default_rng(2310)
        for _ in range(500):
            theta0, _ = random_acute_headings(rng, n=2)
            k1 = float(np.exp(rng.uniform(-30.0, 30.0)) * rng.choice([-1.0, 1.0]))
            k = np.array([k1, -abs(k1) * np.exp(rng.uniform(0.1, 10.0))])
            frame = rotated_frame(theta0)
            plain = (k[1] * frame.theta_hat0[0] + k[0] * frame.theta_hat0[1]) / k.sum()
            assert two_agent_direction(theta0, k) == float(wrap_angle(plain + frame.theta_R))


def two_agent_cases():
    """(theta0, target) for 200 seeded acute pairs: a target inside the arc,
    below it, beyond it and 1e-9 rad past each end, then each heading itself
    (a boundary direction, which raises); and a shared heading with its own
    direction and another one (which raises)."""
    rng = np.random.default_rng(1516)
    cases = []
    for _ in range(200):
        theta0, span = random_acute_headings(rng, n=2, span_range=(0.05, 2.9))
        ref = rotated_frame(theta0).theta_R
        offsets = (rng.uniform(0.0, span), -rng.uniform(0.0, np.pi), rng.uniform(span, np.pi),
                   -1e-9, span + 1e-9)
        cases += [(theta0, float(wrap_angle(ref + d))) for d in offsets]
        cases += [(theta0, float(t)) for t in theta0]
        shared = np.full(2, theta0[0])
        cases += [(shared, float(theta0[0])), (shared, float(theta0[1]))]
    return cases


def two_agent_result(theta0, target):
    try:
        return two_agent_gains(theta0, target)
    except ValueError as err:
        return str(err)


class TestTwoAgentGains:
    def test_interior_target_uses_negative_pair(self):
        gains = two_agent_gains(np.deg2rad([-60.0, 60.0]), 0.0)
        assert np.all(gains.gains < 0)
        assert two_agent_direction(np.deg2rad([-60.0, 60.0]), gains) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_minus_120_reproduces_reference_gain_ratio(self):
        """Steering [-60, 60] deg to -120 deg needs K_2 = -3 K_1 with K_1 > 0."""
        gains = two_agent_gains(np.deg2rad([-60.0, 60.0]), np.deg2rad(-120.0))
        k1, k2 = gains.gains
        assert k1 > 0 > k2
        assert k2 == pytest.approx(-3.0 * k1, abs=1e-12)

    def test_round_trip_over_the_whole_circle(self):
        for _ in range(100):
            theta0, _ = random_acute_headings(RNG, n=2, span_range=(0.05, 2.9))
            target = float(RNG.uniform(-np.pi, np.pi))
            gains = two_agent_gains(theta0, target)
            assert gains.gains.sum() < 0
            got = two_agent_direction(theta0, gains)
            assert abs(wrap_angle(got - target)) < 1e-12

    def test_degenerate_pair(self):
        gains = two_agent_gains(np.deg2rad([10.0, 10.0]), np.deg2rad(10.0))
        assert np.all(gains.gains < 0)
        with pytest.raises(ValueError, match="one heading"):
            two_agent_gains(np.deg2rad([10.0, 10.0]), np.deg2rad(40.0))

    def test_boundary_targets_need_zero_gain(self):
        theta0 = np.deg2rad([-60.0, 60.0])
        for target_deg in (-60.0, 60.0):
            with pytest.raises(ValueError, match="zero gain"):
                two_agent_gains(theta0, np.deg2rad(target_deg))

    def test_extended_flag_is_where_gains_exist(self):
        """is_reachable's two-agent flag is true exactly where
        two_agent_gains returns gains: false at each heading of a pair,
        whose direction would need a zero gain."""
        for theta0, target in two_agent_cases():
            gains = two_agent_result(theta0, target)
            assert is_reachable(theta0, target).reachable_two_agent_extended is (
                not isinstance(gains, str)), (theta0, target)
        for target_deg in (-60.0, 60.0):
            report = is_reachable(np.deg2rad([-60.0, 60.0]), np.deg2rad(target_deg))
            assert report.reachable_two_agent_extended is False

    @pytest.mark.parametrize("theta0,target", [
        ((0.6083204091937469, 0.608320409193747), -1.9679333519999285),  # K_1 + K_2 was 0.0
        ((0.2426027572710514, 0.2426027572710515), 1.5928698396029661),  # was -2.0, 0.675 rad off
    ])
    def test_rejects_gains_past_double_precision(self, theta0, target):
        """Past an arc a few ulps wide, beyond/span reaches 2**53 and 1 +
        beyond/span rounds the 1 away: the gains raise, naming the limit,
        and the extended flag is false."""
        with pytest.raises(ValueError, match=r"2\*\*53 or more, past double precision"):
            two_agent_gains(theta0, target)
        assert is_reachable(theta0, target).reachable_two_agent_extended is False

    def test_every_returned_pair_is_stable_and_lands(self):
        """Seeded fuzz over spans from 10**-16.5 to 2.5 rad, targets anywhere
        or 1e-17 to 1e-8 rad past an end: every pair returned is sync-stable
        and steers the pair to within 1e-9 rad of the target."""
        rng = np.random.default_rng(2025)
        returned = 0
        for _ in range(10_000):
            span = 10.0 ** rng.uniform(-16.5, np.log10(2.5))
            theta0 = rng.permutation([0.0, span]) + rng.uniform(-np.pi, np.pi - span)
            past = 10.0 ** rng.uniform(-17.0, -8.0)
            target = (rng.uniform(-np.pi, np.pi) if rng.random() < 0.5 else
                      float(wrap_angle(rng.choice([theta0.max() + past, theta0.min() - past]))))
            if not np.all(np.abs(theta0) < np.pi):
                continue
            try:
                gains = two_agent_gains(theta0, target)
            except ValueError:
                continue
            returned += 1
            assert gains.sync_stable, (theta0, target)
            miss = wrap_angle(two_agent_direction(theta0, gains) - target)
            assert abs(miss) < 1e-9, (theta0, target)
        assert returned > 8_000

    def test_pinned_bits(self):
        """The gains, or the error message, of two_agent_cases() bit for
        bit: which end gets the positive gain, and where the boundary error
        fires."""
        results = [two_agent_result(*case) for case in two_agent_cases()]
        kinds = [r if isinstance(r, str) else
                 "inside" if np.all(r.gains < 0) else "beyond" for r in results]
        assert {k: kinds.count(k) for k in set(kinds)} == {
            "inside": 400, "beyond": 800,
            "boundary direction requires a zero gain, which is excluded": 400,
            "agents share one heading; only that direction is reachable": 200}
        assert digest(results) == TWO_AGENT_PIN


@pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    lambda target: is_reachable(np.deg2rad([-60.0, -30.0, 60.0]), target),
    lambda target: synthesize_gains(np.deg2rad([-60.0, -30.0, 60.0]), target),
    lambda target: two_agent_gains(np.deg2rad([-60.0, 60.0]), target),
], ids=["is_reachable", "synthesize_gains", "two_agent_gains"])
def test_non_finite_target_is_named(call, target):
    with pytest.raises(ValueError, match="target must be a finite angle"):
        call(target)


@pytest.mark.parametrize("target", [1e7, -1e7, 1e6 + 1.0, np.deg2rad(1e308)])
@pytest.mark.parametrize("call", [
    lambda target: is_reachable(np.deg2rad([-60.0, -30.0, 60.0]), target),
    lambda target: synthesize_gains(np.deg2rad([-60.0, -30.0, 60.0]), target),
    lambda target: two_agent_gains(np.deg2rad([-60.0, 60.0]), target),
], ids=["is_reachable", "synthesize_gains", "two_agent_gains"])
def test_target_beyond_bound_is_named(call, target):
    """Past 1e6 rad the spacing of doubles grows toward the size of the arc,
    so a wrapped target would be roundoff; the error names the bound."""
    with pytest.raises(ValueError, match=r"\|target\| must be at most 1e\+06 rad"):
        call(target)


@pytest.mark.parametrize("turns", [-2, 2])
def test_targets_wrap_within_bound(turns):
    """Whole turns, and the bound itself, leave every answer as it is."""
    theta3, theta2 = np.deg2rad([-60.0, -30.0, 60.0]), np.deg2rad([-60.0, 60.0])
    target = np.deg2rad(10.0)
    most = np.sign(turns) * (1e6 // (2 * np.pi))  # the most whole turns within the bound
    for shifted in (target + turns * 2 * np.pi, target + most * 2 * np.pi):
        assert is_reachable(theta3, shifted).reachable_negative_gains
        np.testing.assert_allclose(synthesize_gains(theta3, shifted).gains,
                                   synthesize_gains(theta3, target).gains, rtol=1e-6)
        np.testing.assert_allclose(two_agent_gains(theta2, shifted).gains,
                                   two_agent_gains(theta2, target).gains, rtol=1e-6)
    assert is_reachable(theta3, np.sign(turns) * 1e6).interval_rotated is not None


class TestCriticalHessian:
    def fd_hessian(self, theta, h=1e-4):
        n = theta.size
        out = np.zeros((n, n))
        for j in range(n):
            ej = np.zeros(n)
            ej[j] = h
            out[j, j] = (
                alignment_potential(theta + ej)
                - 2 * alignment_potential(theta)
                + alignment_potential(theta - ej)
            ) / h**2
            for k in range(j + 1, n):
                ek = np.zeros(n)
                ek[k] = h
                val = (
                    alignment_potential(theta + ej + ek)
                    - alignment_potential(theta + ej - ek)
                    - alignment_potential(theta - ej + ek)
                    + alignment_potential(theta - ej - ek)
                ) / (4 * h**2)
                out[j, k] = out[k, j] = val
        return out

    def test_equals_negative_fd_hessian(self):
        """The matrix is the global-sign flip of the numerical Hessian of the
        alignment potential."""
        for _ in range(20):
            n = int(RNG.integers(2, 9))
            theta = RNG.uniform(-np.pi, np.pi, n)
            h = critical_point_hessian(theta)
            np.testing.assert_allclose(h, -self.fd_hessian(theta), atol=1e-5)

    def test_block_form_at_partitioned_configuration(self):
        """With m agents opposite the mean phase, H = (1/N) w w^T + |p| diag(w)."""
        for n in (4, 6, 8):
            for m in range(1, (n - 1) // 2 + 1):
                psi = 0.3
                theta = np.array([psi + np.pi] * m + [psi] * (n - m))
                p_mag = (n - 2 * m) / n
                w = np.concatenate([np.ones(m), -np.ones(n - m)])
                expected = np.outer(w, w) / n + p_mag * np.diag(w)
                np.testing.assert_allclose(critical_point_hessian(theta), expected, atol=1e-12)

    def test_saddle_witness_value(self):
        """q supported on the last two (majority) agents gives q^T H q = -2|p|."""
        for n in range(3, 9):
            for m in range(1, (n - 1) // 2 + 1):
                theta = np.array([1.1 + np.pi] * m + [1.1] * (n - m))
                q = np.zeros(n)
                q[-2], q[-1] = -1.0, 1.0
                witness = q @ critical_point_hessian(theta) @ q
                assert witness == pytest.approx(-2.0 * (n - 2 * m) / n, abs=1e-10)

    def test_indefinite_at_saddles(self):
        theta = np.array([0.0, 0.0, 0.0, np.pi])
        w = np.linalg.eigvalsh(critical_point_hessian(theta))
        assert w[0] < -1e-12 < 1e-12 < w[-1]


class TestClassifyCriticalPoint:
    def test_synchronized_minimum(self):
        out = classify_critical_point(np.full(5, 0.4))
        assert out.kind is CriticalKind.SYNC_MINIMUM
        assert out.antipodal_count == 0
        assert out.p_mag == pytest.approx(1.0, abs=1e-12)

    def test_three_agent_saddle(self):
        """[0, 0, pi]: mean phase 0, one opposed agent, |p| = 1/3, and the
        witness value -2/3."""
        theta = np.array([0.0, 0.0, np.pi])
        out = classify_critical_point(theta)
        assert out.kind is CriticalKind.SADDLE
        assert out.antipodal_count == 1
        assert out.p_mag == pytest.approx(1.0 / 3.0, abs=1e-12)
        q = np.array([-1.0, 1.0, 0.0])
        assert q @ critical_point_hessian(theta) @ q == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_balanced_maximum(self):
        out = classify_critical_point(np.array([0.0, np.pi]))
        assert out.kind is CriticalKind.BALANCED_MAXIMUM
        assert out.antipodal_count is None
        assert out.p_mag == pytest.approx(0.0, abs=1e-10)

    def test_rejects_non_critical(self):
        with pytest.raises(ValueError, match="not critical"):
            classify_critical_point(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("grad_tol", [np.nan, np.inf, -np.inf, -1e-12])
    def test_rejects_a_tolerance_that_is_not_finite_and_non_negative(self, grad_tol):
        """A nan tolerance made every comparison false, so [0, 0.5, 1] rad
        (max |gradient| 0.44) came back a synchronized minimum."""
        with pytest.raises(ValueError, match="grad_tol must be a finite non-negative number"):
            classify_critical_point(np.array([0.0, 0.5, 1.0]), grad_tol=grad_tol)

    def test_zero_tolerance_is_allowed(self):
        out = classify_critical_point(np.zeros(3), grad_tol=0.0)  # a gradient of exact zeros
        assert out.kind is CriticalKind.SYNC_MINIMUM


def full_hessian(theta):
    """critical_point_hessian as it was written before it shared its entry
    formula with the witness: the full N x N matrix."""
    z = np.exp(1j * theta)
    h = np.real(np.outer(z, np.conj(z))) / z.size
    np.fill_diagonal(h, 1.0 / z.size - np.real(np.conj(z.mean()) * z))
    return h


def classify_with_full_hessian(theta, grad_tol=1e-8):
    """classify_critical_point as it was when it built the full N x N
    Hessian for its two-entry witness; the reference the O(N) version must
    equal. Returns the classification and the witness (None when no witness
    is evaluated)."""
    th = np.asarray(theta, dtype=float)
    if np.max(np.abs(alignment_potential_grad(th))) > grad_tol:
        raise ValueError("configuration is not critical")
    op = order_parameter(th)
    if op.magnitude < 1e-8:
        return CriticalPointConfig(None, op.magnitude, CriticalKind.BALANCED_MAXIMUM), None
    opposed = np.abs(wrap_angle(th - op.mean_phase)) > 0.5 * np.pi
    m = int(np.count_nonzero(opposed))
    if m == 0:
        return CriticalPointConfig(0, op.magnitude, CriticalKind.SYNC_MINIMUM), None
    aligned = np.flatnonzero(~opposed)
    q = np.zeros(th.size)
    q[aligned[0]] = -1.0
    q[aligned[1]] = 1.0
    witness = float(q @ full_hessian(th) @ q)
    if witness >= 0.0:
        raise ValueError("saddle witness failed")
    return CriticalPointConfig(m, op.magnitude, CriticalKind.SADDLE), witness


def critical_configuration(rng, n, m):
    """m of n headings opposite the other n - m, rotated by a random phase
    and shuffled over the indices."""
    psi = rng.uniform(-np.pi, np.pi)
    theta = wrap_angle(np.where(np.arange(n) < m, psi + np.pi, psi))
    return rng.permutation(theta)


class TestTwoEntryWitness:
    """classify_critical_point evaluates only the 2 x 2 Hessian block of the
    two aligned agents its witness is supported on."""

    def test_matches_the_full_hessian_reference(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(300):
            n = int(np.exp(rng.uniform(np.log(3), np.log(500))))
            m = int(rng.integers(0, (n - 1) // 2 + 1))  # 0 gives a sync minimum
            theta = critical_configuration(rng, n, m)
            expected, witness = classify_with_full_hessian(theta)
            assert classify_critical_point(theta) == expected, (n, m)
            if witness is None:
                continue
            op = order_parameter(theta)
            opposed = np.abs(wrap_angle(theta - op.mean_phase)) > 0.5 * np.pi
            pair = np.flatnonzero(~opposed)[:2]
            two_entry = _saddle_witness(np.exp(1j * theta), op.as_complex, pair)
            assert two_entry == pytest.approx(witness, abs=1e-12), (n, m)
            assert two_entry == pytest.approx(-2.0 * (n - 2 * m) / n, abs=1e-12)
            checked += 1
        assert checked > 200

    def test_entries_are_those_of_the_full_matrix(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 9, 40):
            theta = rng.uniform(-np.pi, np.pi, n)
            z = np.exp(1j * theta)
            full = full_hessian(theta)
            assert np.array_equal(critical_point_hessian(theta), full)
            rows = rng.integers(0, n, 5)
            cols = rng.integers(0, n, 5)
            block = _hessian_entries(z, z.mean(), rows[:, None], cols)
            assert np.array_equal(block, full[np.ix_(rows, cols)])

    def test_large_saddle_in_linear_memory(self):
        """An n=20,000 saddle: the full Hessian would take 9.6 GB while it is
        built (complex outer product plus its real part)."""
        n, m = 20_000, 7_000
        theta = critical_configuration(np.random.default_rng(3), n, m)
        tracemalloc.start()
        try:
            out = classify_critical_point(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert out.kind is CriticalKind.SADDLE
        assert out.antipodal_count == m
        assert out.p_mag == pytest.approx((n - 2 * m) / n, abs=1e-12)


def in_cone(theta0, points) -> np.ndarray:
    """Whether each complex point lies in the unit-disk slice of the acute
    cone spanned by the initial unit heading vectors: the sector
    [theta_R, theta_R + span], with 1e-12 of slack on the radius and angle."""
    frame = rotated_frame(theta0)
    assert frame.acute
    p = np.asarray(points, dtype=complex)
    ang = np.mod(np.angle(p) - frame.theta_R, 2 * np.pi)
    in_sector = (ang <= frame.span + 1e-12) | (ang >= 2 * np.pi - 1e-12)
    return (np.abs(p) <= 1.0 + 1e-12) & in_sector


class TestConicHull:
    """The paper's cone invariant: for negative gains the order parameter
    never leaves the cone of the initial headings."""

    def test_initial_order_parameter_contained(self):
        for _ in range(100):
            theta0, _ = random_acute_headings(RNG)
            assert in_cone(theta0, np.exp(1j * theta0).mean())

    def test_point_just_outside_sector(self, six_theta0):
        frame = rotated_frame(six_theta0)
        assert not in_cone(six_theta0, np.exp(1j * (frame.theta_R - 0.1)))

    def test_outside_unit_disk(self, six_theta0):
        assert not in_cone(six_theta0, 1.5 * np.exp(1j * 0.0))

    def test_trajectory_sweep(self, six_theta0):
        """Every recorded order parameter of a negative-gain run stays in the
        sector."""
        cfg = SimulationConfig(
            n=6, theta0=six_theta0, gains=GainVector(named_gain_set("set1", 6)), t_max=25.0
        )
        traj, _ = simulate(cfg)
        assert in_cone(six_theta0, np.exp(1j * traj.theta).mean(axis=1)).all()

    def test_trajectory_sweep_ring(self, six_theta0):
        """Containment is only argued loosely for neighbor coupling, so this
        is an empirical check on the reference ring run rather than a general
        invariant."""
        cfg = SimulationConfig(
            n=6,
            theta0=six_theta0,
            gains=GainVector(named_gain_set("set1", 6)),
            topology=ring_graph(6),
            t_max=25.0,
        )
        traj, _ = simulate(cfg)
        assert in_cone(six_theta0, np.exp(1j * traj.theta).mean(axis=1)).all()

    def test_non_acute_raises(self):
        """Opposite headings span no acute cone, so the library's cone
        membership of a direction is refused."""
        assert not rotated_frame([-np.pi / 2, np.pi / 2]).acute
        with pytest.raises(NonAcuteConeError):
            is_reachable([-np.pi / 2, np.pi / 2], 0.0)


def test_ring_eigenvector_configurations_are_graph_critical():
    """Unit-modulus Laplacian eigenvectors of rings (Fourier modes) have zero
    graph-potential gradient."""
    for n in range(3, 7):
        lap = laplacian(ring_graph(n))
        for m in range(n):
            theta_bar = 2.0 * np.pi * m * np.arange(n) / n
            np.testing.assert_allclose(
                laplacian_potential_grad(theta_bar, lap), 0.0, atol=1e-10
            )
