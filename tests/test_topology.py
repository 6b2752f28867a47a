"""Graph construction, Laplacian structure, connectivity, and spectra."""

import numpy as np
import pytest

from swarmsync import (
    InteractionGraph,
    complete_graph,
    is_connected,
    laplacian,
    laplacian_spectrum,
    ring_graph,
)
from swarmsync.topology import edge_arrays

RNG = np.random.default_rng(202)


def random_graph(n, p=0.4):
    edges = [(j, k) for j in range(n) for k in range(j + 1, n) if RNG.random() < p]
    return InteractionGraph(n, tuple(edges))


class TestConstruction:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 3), (6, 15)])
    def test_complete_edge_count(self, n, expected):
        assert complete_graph(n).edge_count == expected

    def test_complete_rejects_small_n(self):
        with pytest.raises(ValueError):
            complete_graph(1)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_ring_degrees(self, n):
        g = ring_graph(n)
        assert g.edge_count == n
        assert all(len(g.neighbors(k)) == 2 for k in range(n))

    def test_edge_arrays_cached_and_read_only(self):
        """The arrays are built once per graph and shared, so a caller that
        wrote to them would corrupt every later run on the graph: writes raise."""
        g = ring_graph(5)
        src, dst = edge_arrays(g)
        assert all(a is b for a, b in zip(edge_arrays(g), (src, dst)))
        for arr in (src, dst):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 3
        assert list(zip(src.tolist(), dst.tolist()))[:3] == [(0, 1), (0, 4), (1, 0)]

    def test_ring3_equals_complete3(self):
        assert ring_graph(3).edges == complete_graph(3).edges

    def test_ring_rejects_small_n(self):
        with pytest.raises(ValueError):
            ring_graph(2)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            InteractionGraph(3, ((0, 0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            InteractionGraph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            InteractionGraph(3, ((0, 3),))

    def test_edges_canonicalized(self):
        g = InteractionGraph(4, ((2, 1), (3, 0)))
        assert g.edges == ((0, 3), (1, 2))


class TestLaplacian:
    def test_single_edge(self):
        g = InteractionGraph(2, ((0, 1),))
        np.testing.assert_array_equal(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_ring3(self):
        lap = laplacian(ring_graph(3))
        np.testing.assert_array_equal(np.diag(lap), [2.0, 2.0, 2.0])
        assert lap[0, 1] == lap[1, 2] == lap[0, 2] == -1.0

    def test_complete_equals_nI_minus_ones(self):
        for n in range(2, 9):
            expected = n * np.eye(n) - np.ones((n, n))
            np.testing.assert_array_equal(laplacian(complete_graph(n)), expected)

    def test_structure_properties_random_graphs(self):
        """Symmetric, PSD, zero row sums, and the all-ones kernel vector."""
        for _ in range(50):
            n = int(RNG.integers(2, 12))
            lap = laplacian(random_graph(n))
            np.testing.assert_array_equal(lap, lap.T)
            assert np.max(np.abs(lap.sum(axis=1))) < 1e-12
            w = np.linalg.eigvalsh(lap)
            assert w.min() > -1e-10
            np.testing.assert_allclose(lap @ np.ones(n), 0.0, atol=1e-12)


class TestConnectivity:
    def test_ring_connected(self):
        assert is_connected(ring_graph(6))

    def test_complete_connected(self):
        assert is_connected(complete_graph(4))

    def test_edgeless_disconnected(self):
        assert not is_connected(InteractionGraph(2, ()))

    def test_matches_algebraic_connectivity(self):
        """Connectivity by traversal agrees with lambda_2 > 0."""
        for _ in range(60):
            n = int(RNG.integers(2, 13))
            g = random_graph(n, p=float(RNG.uniform(0.1, 0.7)))
            w, _ = laplacian_spectrum(laplacian(g))
            assert is_connected(g) == (w[1] > 1e-10)


class TestSpectrum:
    def test_complete3(self):
        """Characteristic polynomial of the 3-node complete Laplacian: {0, 3, 3}."""
        w, _ = laplacian_spectrum(laplacian(complete_graph(3)))
        np.testing.assert_allclose(w, [0.0, 3.0, 3.0], atol=1e-12)

    def test_ring4(self):
        """Circulant eigenvalues 2 - 2 cos(2 pi m / 4): {0, 2, 2, 4}."""
        w, _ = laplacian_spectrum(laplacian(ring_graph(4)))
        np.testing.assert_allclose(w, [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_kernel_is_ones_for_connected(self):
        w, v = laplacian_spectrum(laplacian(ring_graph(5)))
        assert w[0] == 0.0 and w[1] > 1e-10
        kernel = v[:, 0]
        np.testing.assert_allclose(np.abs(kernel), 1.0 / np.sqrt(5), atol=1e-12)

    def test_eigenvectors_orthonormal(self):
        lap = laplacian(random_graph(8))
        w, v = laplacian_spectrum(lap)
        np.testing.assert_allclose(v.T @ v, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(v @ np.diag(w) @ v.T, lap, atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            laplacian_spectrum(np.zeros((2, 3)))
