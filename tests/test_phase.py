"""Order parameter, potentials, gradients, and their analytic identities.

Gradient values are checked against central finite differences of the
potentials; algebraic identities are held to 1e-12, finite differences
to 1e-6.
"""

import numpy as np
import pytest

from swarmsync import (
    InteractionGraph,
    alignment_potential,
    alignment_potential_grad,
    complete_graph,
    laplacian,
    laplacian_potential,
    laplacian_potential_grad,
    order_parameter,
    ring_graph,
)
from swarmsync import phase
from swarmsync.phase import _expi, _grad, _potential, _unit_vectors
from swarmsync.topology import edge_arrays

RNG = np.random.default_rng(101)

ALGEBRA_TOL = 1e-12
FD_TOL = 1e-6


def fd_gradient(f, theta, h=1e-6):
    g = np.zeros_like(theta)
    for k in range(theta.size):
        e = np.zeros_like(theta)
        e[k] = h
        g[k] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return g


class TestOrderParameter:
    def test_identical_phases(self):
        """All agents at one heading give unit magnitude and that phase."""
        op = order_parameter([0.3, 0.3, 0.3])
        assert op.magnitude == pytest.approx(1.0, abs=ALGEBRA_TOL)
        assert op.mean_phase == pytest.approx(0.3, abs=ALGEBRA_TOL)

    def test_antipodal_pair_has_undefined_phase(self):
        op = order_parameter([0.0, np.pi])
        assert op.magnitude == pytest.approx(0.0, abs=ALGEBRA_TOL)
        assert op.mean_phase is None
        assert not op.phase_defined

    def test_quarter_turn_pair(self):
        """Direct complex sum: (1 + i)/2 has modulus sqrt(2)/2 and angle pi/4."""
        op = order_parameter([0.0, np.pi / 2])
        assert op.magnitude == pytest.approx(np.sqrt(2) / 2, abs=ALGEBRA_TOL)
        assert op.mean_phase == pytest.approx(np.pi / 4, abs=ALGEBRA_TOL)

    def test_magnitude_within_unit_interval(self):
        for _ in range(200):
            n = int(RNG.integers(2, 12))
            op = order_parameter(RNG.uniform(-np.pi, np.pi, n))
            assert 0.0 <= op.magnitude <= 1.0 + ALGEBRA_TOL

    def test_consistency_of_fields(self):
        op = order_parameter(RNG.uniform(-np.pi, np.pi, 7))
        assert op.magnitude == pytest.approx(abs(op.as_complex), abs=ALGEBRA_TOL)
        z = op.magnitude * np.exp(1j * op.mean_phase)
        assert z == pytest.approx(op.as_complex, abs=ALGEBRA_TOL)

    def test_rejects_single_agent(self):
        with pytest.raises(ValueError):
            order_parameter([0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            order_parameter([0.0, np.nan])


class TestAlignmentPotential:
    def test_synchronized_minimum(self):
        assert alignment_potential([1.2, 1.2, 1.2, 1.2]) == pytest.approx(0.0, abs=ALGEBRA_TOL)

    def test_antipodal_maximum(self):
        """Two opposed agents sit at the maximum value N/2 = 1."""
        assert alignment_potential([0.0, np.pi]) == pytest.approx(1.0, abs=ALGEBRA_TOL)

    def test_quarter_turn_pair(self):
        # |p|^2 = 1/2, so (2/2)(1 - 1/2) = 0.5
        assert alignment_potential([0.0, np.pi / 2]) == pytest.approx(0.5, abs=ALGEBRA_TOL)

    def test_bounds_hold_for_random_headings(self):
        for _ in range(1000):
            n = int(RNG.integers(2, 12))
            v = alignment_potential(RNG.uniform(-20.0, 20.0, n))
            assert -ALGEBRA_TOL <= v <= n / 2 + ALGEBRA_TOL


class TestAlignmentGradient:
    def test_zero_at_sync(self):
        np.testing.assert_allclose(
            alignment_potential_grad([0.7, 0.7, 0.7]), 0.0, atol=ALGEBRA_TOL
        )

    def test_quarter_turn_pair(self):
        """-(1/2) sin(+-pi/2) gives [-0.5, +0.5]."""
        np.testing.assert_allclose(
            alignment_potential_grad([0.0, np.pi / 2]), [-0.5, 0.5], atol=ALGEBRA_TOL
        )

    def test_components_sum_to_zero(self):
        for _ in range(300):
            n = int(RNG.integers(2, 12))
            g = alignment_potential_grad(RNG.uniform(-10.0, 10.0, n))
            assert abs(g.sum()) < ALGEBRA_TOL

    def test_matches_finite_differences(self):
        for _ in range(100):
            n = int(RNG.integers(2, 11))
            theta = RNG.uniform(-np.pi, np.pi, n)
            g = alignment_potential_grad(theta)
            np.testing.assert_allclose(g, fd_gradient(alignment_potential, theta), atol=FD_TOL)

    def test_projector_identity(self):
        """||P e^{i theta}||^2 = N (1 - |p|^2) with P = I - (1/N) 1 1^T."""
        for _ in range(50):
            n = int(RNG.integers(2, 12))
            theta = RNG.uniform(-np.pi, np.pi, n)
            z = np.exp(1j * theta)
            proj = np.eye(n) - np.ones((n, n)) / n
            lhs = np.linalg.norm(proj @ z) ** 2
            rhs = n * (1.0 - abs(z.mean()) ** 2)
            assert lhs == pytest.approx(rhs, abs=ALGEBRA_TOL * n)


class TestLaplacianPotential:
    def test_zero_at_sync_on_any_graph(self):
        theta = np.full(5, -0.4)
        for g in (complete_graph(5), ring_graph(5)):
            assert laplacian_potential(theta, laplacian(g)) == pytest.approx(0.0, abs=ALGEBRA_TOL)

    def test_complete_graph_is_n_times_alignment_potential(self):
        for _ in range(100):
            n = int(RNG.integers(2, 11))
            theta = RNG.uniform(-np.pi, np.pi, n)
            wl = laplacian_potential(theta, laplacian(complete_graph(n)))
            assert wl == pytest.approx(n * alignment_potential(theta), abs=1e-12 * n)

    def test_single_edge_quarter_turn(self):
        """Expanding the quadratic form by hand: 1 - cos(pi/2) = 1."""
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert laplacian_potential([0.0, np.pi / 2], lap) == pytest.approx(1.0, abs=ALGEBRA_TOL)

    def test_nonnegative(self):
        lap = laplacian(ring_graph(6))
        for _ in range(200):
            assert laplacian_potential(RNG.uniform(-9, 9, 6), lap) >= -ALGEBRA_TOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            laplacian_potential([0.0, 1.0, 2.0], laplacian(ring_graph(4)))


class TestLaplacianGradient:
    def test_zero_at_sync(self):
        lap = laplacian(ring_graph(4))
        np.testing.assert_allclose(
            laplacian_potential_grad(np.full(4, 2.2), lap), 0.0, atol=ALGEBRA_TOL
        )

    def test_ring3_eigenvector_configuration_is_critical(self):
        """e^{i theta} with theta = [0, 2pi/3, 4pi/3] is a Laplacian eigenvector:
        direct substitution leaves a zero gradient."""
        lap = laplacian(ring_graph(3))
        theta = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        np.testing.assert_allclose(laplacian_potential_grad(theta, lap), 0.0, atol=ALGEBRA_TOL)

    def test_components_sum_to_zero(self):
        for _ in range(200):
            n = int(RNG.integers(3, 12))
            g = ring_graph(n) if RNG.random() < 0.5 else complete_graph(n)
            grad = laplacian_potential_grad(RNG.uniform(-7, 7, n), laplacian(g))
            assert abs(grad.sum()) < ALGEBRA_TOL

    def test_matches_finite_differences(self):
        for _ in range(100):
            n = int(RNG.integers(3, 11))
            g = ring_graph(n) if RNG.random() < 0.5 else complete_graph(n)
            lap = laplacian(g)
            theta = RNG.uniform(-np.pi, np.pi, n)
            np.testing.assert_allclose(
                laplacian_potential_grad(theta, lap),
                fd_gradient(lambda t: laplacian_potential(t, lap), theta),
                atol=FD_TOL,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            laplacian_potential_grad([0.0, 1.0], laplacian(ring_graph(3)))


def dense_grad(z, lap):
    """The graph gradient as the quadratic form's matrix product, Im(conj(z) * (L z))."""
    return np.imag(np.conj(z) * (lap @ z[..., None])[..., 0])


def dense_potential(z, lap):
    return 0.5 * np.sum(np.real(np.conj(z) * (lap @ z[..., None])[..., 0]), axis=-1)


def random_graph(n, p):
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n) if RNG.random() < p]
    return InteractionGraph(n, tuple(pairs))


class TestEdgeKernel:
    def test_matches_dense_laplacian_product(self):
        """The edge-list kernel against L z on random graphs, sparse ones with
        isolated nodes, the edgeless graph and an (S, n) batch, whose rows are
        bit-identical to the 1-D calls the integrator makes."""
        graphs = [InteractionGraph(5, ()), InteractionGraph(1, ())]
        for _ in range(60):
            n = int(RNG.integers(2, 14))
            graphs.append(random_graph(n, RNG.choice([0.1, 0.3, 0.7, 1.0])))
        for g in graphs:
            lap, edges = laplacian(g), edge_arrays(g)
            assert edges[0].dtype == np.intp and edges[0].size == 2 * g.edge_count
            z = np.exp(1j * RNG.uniform(-9.0, 9.0, (7, g.n)))
            batch = _grad(z, edges)
            np.testing.assert_allclose(batch, dense_grad(z, lap), rtol=0, atol=ALGEBRA_TOL)
            np.testing.assert_allclose(
                _potential(z, edges), dense_potential(z, lap), rtol=0, atol=ALGEBRA_TOL
            )
            for s in range(z.shape[0]):
                assert np.array_equal(batch[s], _grad(z[s], edges))
                assert _potential(z[s], edges) == pytest.approx(
                    dense_potential(z[s], lap), abs=ALGEBRA_TOL
                )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 150])
    def test_complete_graph_ties_to_mean_field(self, n):
        """The neighbour kernel on complete_graph(n) is n times the mean-field
        kernel, in 1-D calls and in batch rows; the mean-field batch rows equal
        its 1-D calls bit for bit."""
        z = np.exp(1j * RNG.uniform(-4.0, 4.0, (5, n)))
        edges = edge_arrays(complete_graph(n))
        mean_field = _grad(z, None)
        np.testing.assert_allclose(_grad(z, edges) / n, mean_field, rtol=0, atol=ALGEBRA_TOL)
        for s in range(z.shape[0]):
            row = _grad(z[s], None)
            assert np.array_equal(row, mean_field[s])
            np.testing.assert_allclose(_grad(z[s], edges) / n, row, rtol=0, atol=ALGEBRA_TOL)

    @pytest.mark.parametrize("lap", [
        [[1.0, -1.0], [-1.0, 2.0]],                       # diagonal is not the degree
        [[2.0, -2.0], [-2.0, 2.0]],                       # weighted edge
        [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]],   # not symmetric
        [[0.5, -0.5], [-0.5, 0.5]],                       # fractional weight
        [[1.0, 1.0], [1.0, 1.0]],                         # positive off-diagonal
        [[np.nan, 0.0], [0.0, 0.0]],                      # non-finite
    ])
    def test_rejects_matrices_that_are_not_graph_laplacians(self, lap):
        theta = np.linspace(0.0, 1.0, len(lap))
        for call in (lambda: laplacian_potential(theta, lap),
                     lambda: laplacian_potential_grad(theta, lap)):
            with pytest.raises(ValueError, match="not the Laplacian"):
                call()


def descent_rate(theta, gains, lap=None) -> float:
    """sum_k K_k (dPhi/dtheta_k)^2, the time derivative of the potential Phi
    (mean-field, or the graph's for a Laplacian) under u_k = K_k dPhi/dtheta_k."""
    g = alignment_potential_grad(theta) if lap is None else laplacian_potential_grad(theta, lap)
    return float(np.sum(gains * g * g))


class TestLyapunovRate:
    """The paper's descent property, from the public gradients: with negative
    gains the gradient law never increases the potential."""

    def test_strictly_negative_for_negative_gains_off_critical(self):
        for _ in range(100):
            n = int(RNG.integers(2, 10))
            theta = RNG.uniform(-1.0, 1.0, n)
            if np.max(np.abs(alignment_potential_grad(theta))) < 1e-6:
                continue
            gains = -RNG.uniform(0.1, 5.0, n)
            assert descent_rate(theta, gains) < 0.0

    def test_zero_at_critical_point(self):
        assert descent_rate(np.full(4, 0.9), -np.ones(4)) == pytest.approx(0.0, abs=ALGEBRA_TOL)

    def test_two_agent_closed_form(self):
        """For a pair the rate collapses to (1/4)(K_1 + K_2) sin^2(theta_2 - theta_1)."""
        for _ in range(50):
            theta = RNG.uniform(-np.pi, np.pi, 2)
            gains = RNG.uniform(-3.0, 3.0, 2)
            if np.any(gains == 0.0):
                continue
            expected = 0.25 * gains.sum() * np.sin(theta[1] - theta[0]) ** 2
            assert descent_rate(theta, gains) == pytest.approx(expected, abs=ALGEBRA_TOL)

    def test_graph_variant_uses_graph_gradient(self):
        """On a ring the rate is the graph potential's derivative along the
        law's velocity (central differences), and negative."""
        lap = laplacian(ring_graph(5))
        theta = RNG.uniform(-2, 2, 5)
        gains = -RNG.uniform(0.5, 2.0, 5)
        u, h = gains * laplacian_potential_grad(theta, lap), 1e-6
        slope = (laplacian_potential(theta + h * u, lap)
                 - laplacian_potential(theta - h * u, lap)) / (2.0 * h)
        assert descent_rate(theta, gains, lap) == pytest.approx(slope, abs=FD_TOL)
        assert descent_rate(theta, gains, lap) < 0.0


def exp_bits(theta) -> bytes:
    return np.exp(1j * np.asarray(theta, dtype=float)).tobytes()


class TestUnitVectors:
    """phase._unit_vectors, the one way e^{i theta} is computed, and _expi
    on it: the floats of np.exp(1j * theta) whichever way the size picks."""

    SPECIAL = np.array([0.0, -0.0, np.pi, -np.pi, 0.5 * np.pi, -0.5 * np.pi, 5e-324, -5e-324,
                        2.2250738585072014e-308, -1e-310, 1e-300, 1e300, -1e300,
                        np.finfo(float).max, -np.finfo(float).max])

    @pytest.fixture(params=["cos_sin", "exp"])
    def way(self, request, monkeypatch):
        """Forces the way for every size: the switch at 0 (np.cos/np.sin) or
        beyond any size (one complex np.exp)."""
        monkeypatch.setattr(phase, "UNIT_COS_SIN_MIN", 0 if request.param == "cos_sin" else np.inf)
        return request.param

    @pytest.mark.parametrize("scale", [4.0, 100.0, 1e5, 1e12])
    def test_seeded_angles_bitwise(self, way, scale):
        """2**20 seeded angles a scale, in +-scale, through _expi."""
        theta = np.random.default_rng(int(scale) % 2**32).uniform(-scale, scale, 2**20)
        assert _expi(theta).tobytes() == exp_bits(theta)

    def test_special_angles_bitwise(self, way):
        """+-0.0, +-pi, +-pi/2, subnormals, the smallest normal, 1e300 and the
        float limit; also in a 2-D array and a strided view."""
        assert _expi(self.SPECIAL).tobytes() == exp_bits(self.SPECIAL)
        grid = np.tile(self.SPECIAL, (3, 1))
        assert _expi(grid).tobytes() == exp_bits(grid)
        assert _expi(grid[:, ::2]).tobytes() == exp_bits(grid[:, ::2])

    def test_negative_zero_is_the_one_exception(self, way):
        """1j * -0.0 has the imaginary part +0.0; both ways keep the sign of
        -0.0 in sin."""
        angle, bind = _unit_vectors(self.SPECIAL.shape)
        angle[:] = self.SPECIAL
        z = np.empty(self.SPECIAL.shape, dtype=complex)
        bind(z)()
        differs = z.view(np.uint64) != np.exp(1j * self.SPECIAL).view(np.uint64)
        assert differs.ravel().tolist() == [False] * 3 + [True] + [False] * 26

    def test_size_picks_the_way(self):
        """Below UNIT_COS_SIN_MIN angles the angle buffer is the imaginary
        part of np.exp's complex input; from it on, a plain float array."""
        below, _ = _unit_vectors((phase.UNIT_COS_SIN_MIN - 1,))
        at, _ = _unit_vectors((phase.UNIT_COS_SIN_MIN,))
        assert below.base is not None and below.base.dtype == complex
        assert at.base is None and at.dtype == float

    def test_public_functions_use_it(self, monkeypatch):
        """Every public function of headings gives the same floats whichever
        way is taken, at a size where the switch picks np.cos/np.sin."""
        theta = RNG.uniform(-3.0, 3.0, 150)
        lap = laplacian(ring_graph(150))
        results = []
        for at in (0, np.inf):
            monkeypatch.setattr(phase, "UNIT_COS_SIN_MIN", at)
            op = order_parameter(theta)
            results.append([op.magnitude, op.mean_phase, alignment_potential(theta),
                            laplacian_potential(theta, lap),
                            *alignment_potential_grad(theta), *laplacian_potential_grad(theta, lap)])
        assert np.array(results[0]).tobytes() == np.array(results[1]).tobytes()
