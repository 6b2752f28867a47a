"""Graph construction, Laplacian structure, connectivity, and spectra."""

import re

import numpy as np
import pytest

from swarmsync import (
    InteractionGraph,
    complete_graph,
    is_connected,
    laplacian,
    ring_graph,
)
from swarmsync import laplacian_potential_grad, phase, topology
from swarmsync.topology import _laplacian_edges, edge_arrays

RNG = np.random.default_rng(202)


def random_graph(n, p=0.4):
    edges = [(j, k) for j in range(n) for k in range(j + 1, n) if RNG.random() < p]
    return InteractionGraph(n, tuple(edges))


def loop_laplacian(g):
    """Reference: the degree-minus-adjacency matrix built edge by edge."""
    lap = np.zeros((g.n, g.n))
    for j, k in g.edges:
        lap[j, j] += 1.0
        lap[k, k] += 1.0
        lap[j, k] -= 1.0
        lap[k, j] -= 1.0
    return lap


def loop_neighbors(g, k):
    """Reference: the neighbours of k collected edge by edge, sorted."""
    out = []
    for a, b in g.edges:
        if a == k:
            out.append(b)
        elif b == k:
            out.append(a)
    return sorted(out)


def reference_graphs():
    """Seeded random graphs on 1..40 nodes, from edgeless to complete."""
    rng = np.random.default_rng(1517)
    graphs = [InteractionGraph(1, ()), InteractionGraph(5, ()), complete_graph(7)]
    for _ in range(60):
        n, p = int(rng.integers(2, 41)), rng.uniform(0.0, 1.0)
        edges = [(k, j) for j in range(n) for k in range(j + 1, n) if rng.random() < p]
        graphs.append(InteractionGraph(n, tuple(rng.permutation(edges).tolist())))
    return graphs


class TestConstruction:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 3), (6, 15)])
    def test_complete_edge_count(self, n, expected):
        assert complete_graph(n).edge_count == expected

    def test_complete_rejects_small_n(self):
        with pytest.raises(ValueError):
            complete_graph(1)

    @pytest.mark.parametrize("build", [complete_graph, ring_graph])
    @pytest.mark.parametrize("n", [3.5, 4.0, True, np.float64(5.0)])
    def test_n_must_be_an_integer(self, build, n):
        """InteractionGraph's rule for n, applied before range() would raise
        TypeError; a numpy integer is an integer."""
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            build(n)
        assert build(np.int64(4)).n == 4

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

    @pytest.mark.parametrize("n,edges,bad", [
        (3, ((0, 1.5), (1, 2)), "node of edge (0, 1.5) must be an integer, got 1.5"),
        (3, ((0, True), (True, 2)), "node of edge (0, True) must be an integer, got True"),
        (3.0, ((0, 1), (1, 2), (2, 0)), "n must be an integer, got 3.0"),
        (True, (), "n must be an integer, got True"),
    ], ids=["float-node", "bool-node", "float-n", "bool-n"])
    def test_rejects_non_integer_input(self, n, edges, bad):
        """A float or bool node count or node is an error that names it, not
        a node rounded down or a graph that fails later."""
        with pytest.raises(ValueError, match=re.escape(bad)):
            InteractionGraph(n, edges)

    def test_accepts_numpy_integers(self):
        g = InteractionGraph(np.int64(3), ((np.intp(2), np.int32(0)), (np.uint8(1), 2)))
        assert g.edges == ((0, 2), (1, 2)) and all(type(v) is int for e in g.edges for v in e)
        assert is_connected(g)

    def test_edges_canonicalized(self):
        g = InteractionGraph(4, ((2, 1), (3, 0)))
        assert g.edges == ((0, 3), (1, 2))

    def test_neighbors_match_the_edge_loop(self):
        for g in reference_graphs():
            for k in range(g.n):
                got = g.neighbors(k)
                assert got == loop_neighbors(g, k)
                assert all(type(j) is int for j in got)
        # an integral value of another type names its node
        assert ring_graph(4).neighbors(2.0) == ring_graph(4).neighbors(np.intp(2)) == [1, 3]

    @pytest.mark.parametrize("k", [-1, 4, 1.5])
    def test_neighbors_reject_a_node_out_of_range(self, k):
        """A node that does not exist is an error, not an isolated node."""
        with pytest.raises(ValueError, match=f"node {k} out of range for n=4"):
            ring_graph(4).neighbors(k)


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

    def test_matches_the_edge_loop_bit_for_bit(self):
        for g in reference_graphs():
            lap, ref = laplacian(g), loop_laplacian(g)
            assert lap.dtype == ref.dtype and lap.shape == ref.shape
            assert lap.tobytes() == ref.tobytes()

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


class TestDenseReader:
    """topology._laplacian_edges, the one reader of a dense Laplacian: it
    returns the graph's own edge arrays, so the dense-Laplacian functions sum
    each node's edges in the order the integrator does."""

    def test_returns_the_edge_arrays_bit_for_bit(self):
        """300 seeded graphs, n from 2 to 40, the empty and complete ones
        included; the gradient of the dense form equals the kernel's."""
        rng = np.random.default_rng(25)
        graphs = [InteractionGraph(n, ()) for n in (2, 40)] + [complete_graph(n) for n in (2, 40)]
        while len(graphs) < 300:
            n, p = int(rng.integers(2, 41)), rng.uniform()
            graphs.append(InteractionGraph(n, tuple(
                (j, k) for j in range(n) for k in range(j + 1, n) if rng.random() < p)))
        for g in graphs:
            lap, (src, dst) = laplacian(g), edge_arrays(g)
            got = _laplacian_edges(lap, g.n)
            assert got[0].dtype == got[1].dtype == np.intp
            assert np.array_equal(got[0], src) and np.array_equal(got[1], dst)
            theta = rng.uniform(-4.0, 4.0, g.n)
            assert laplacian_potential_grad(theta, lap).tobytes() == phase._grad(
                phase._expi(theta), (src, dst)).tobytes()

    def test_one_function_orders_both(self, monkeypatch):
        """InteractionGraph and the reader both list pairs both ways through
        topology._both_ways."""
        calls, both_ways = [], topology._both_ways
        monkeypatch.setattr(topology, "_both_ways",
                            lambda j, k: calls.append(j.size) or both_ways(j, k))
        g = ring_graph(5)
        edge_arrays(g)
        _laplacian_edges(laplacian(g), g.n)
        assert calls == [5, 5]


class TestConnectivity:
    def test_ring_connected(self):
        assert is_connected(ring_graph(6))

    def test_complete_connected(self):
        assert is_connected(complete_graph(4))

    def test_edgeless_disconnected(self):
        assert not is_connected(InteractionGraph(2, ()))

    def test_searched_once_and_cached_on_the_graph(self):
        """Connected and disconnected graphs and a single node, each answered
        from the graph's cache after the first call."""
        cases = [(ring_graph(7), True), (InteractionGraph(4, ((0, 1), (2, 3))), False),
                 (InteractionGraph(5, ((0, 1), (1, 2), (3, 4))), False),
                 (InteractionGraph(1, ()), True), (InteractionGraph(3, ((2, 0), (1, 2))), True)]
        for g, connected in cases:
            assert "_connected" not in vars(g)
            assert is_connected(g) is connected
            assert vars(g)["_connected"] is connected
            vars(g)["_connected"] = "cached"  # a second call reads the cache, not the edges
            assert is_connected(g) == "cached"

    def test_matches_algebraic_connectivity(self):
        """Connectivity by traversal agrees with lambda_2 > 0."""
        for _ in range(60):
            n = int(RNG.integers(2, 13))
            g = random_graph(n, p=float(RNG.uniform(0.1, 0.7)))
            w = np.linalg.eigvalsh(laplacian(g))
            assert is_connected(g) == (w[1] > 1e-10)


class TestSpectrum:
    def test_complete3(self):
        """Characteristic polynomial of the 3-node complete Laplacian: {0, 3, 3}."""
        w = np.linalg.eigvalsh(laplacian(complete_graph(3)))
        np.testing.assert_allclose(w, [0.0, 3.0, 3.0], atol=1e-12)

    def test_ring4(self):
        """Circulant eigenvalues 2 - 2 cos(2 pi m / 4): {0, 2, 2, 4}."""
        w = np.linalg.eigvalsh(laplacian(ring_graph(4)))
        np.testing.assert_allclose(w, [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_kernel_is_ones_for_connected(self):
        """A connected ring's kernel is exactly the constant vectors: the
        ones vector maps to 0 and the second eigenvalue is positive."""
        lap = laplacian(ring_graph(5))
        np.testing.assert_array_equal(lap @ np.ones(5), 0.0)
        w = np.linalg.eigvalsh(lap)
        assert abs(w[0]) < 1e-12 and w[1] > 1e-10

    def test_eigenvectors_orthonormal(self):
        """The symmetric eigensolver, which reads one triangle only,
        rebuilds the whole Laplacian from orthonormal eigenvectors."""
        lap = laplacian(random_graph(8))
        w, v = np.linalg.eigh(lap)
        np.testing.assert_allclose(v.T @ v, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(v @ np.diag(w) @ v.T, lap, atol=1e-10)
