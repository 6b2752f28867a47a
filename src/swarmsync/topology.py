"""Undirected interaction graphs and their Laplacians.

Graphs are undirected, unweighted, time-invariant, with no self-loops. The
Laplacian carries node degrees on the diagonal and -1 for each neighbor pair;
it is symmetric positive semi-definite with the all-ones vector in its kernel
(the kernel is exactly span(1) iff the graph is connected).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected graph on nodes 0..n-1 with a canonical sorted edge tuple."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        canon, seen = [], set()
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            for v in e:  # SimulationConfig's rule, as for n; an int passes on its type alone
                if type(v) is not int and (type(v) is bool or not isinstance(v, numbers.Integral)):
                    raise ValueError(f"node of edge {e!r} must be an integer, got {v!r}")
            j, k = int(e[0]), int(e[1])
            if j == k:
                raise ValueError(f"self-loop on node {j} not allowed")
            if not (0 <= j < self.n and 0 <= k < self.n):
                raise ValueError(f"edge ({j}, {k}) out of range for n={self.n}")
            key = (min(j, k), max(j, k))
            if key in seen:
                raise ValueError(f"duplicate edge ({j}, {k})")
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        e = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        src = np.concatenate((e[:, 0], e[:, 1]))
        dst = np.concatenate((e[:, 1], e[:, 0]))
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        src.setflags(write=False)
        dst.setflags(write=False)
        return src, dst

    @cached_property
    def _connected(self) -> bool:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for j, k in self.edges:
            adj[j].append(k)
            adj[k].append(j)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def neighbors(self, k: int) -> list[int]:
        """Sorted neighbours of node k in 0..n-1 (else ValueError), from the edge arrays."""
        if not (0 <= k < self.n and k == int(k)):
            raise ValueError(f"node {k} out of range for n={self.n}")
        src, dst = self._edge_arrays
        return dst[src == k].tolist()


def complete_graph(n: int) -> InteractionGraph:
    """All-pairs graph on n >= 2 nodes; n*(n-1)/2 edges."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return InteractionGraph(n, tuple((j, k) for j in range(n) for k in range(j + 1, n)))


def ring_graph(n: int) -> InteractionGraph:
    """Cycle graph on n >= 3 nodes; every node has exactly two neighbors."""
    if n < 3:
        raise ValueError("ring graph needs n >= 3")
    return InteractionGraph(n, tuple((k, (k + 1) % n) for k in range(n)))


def laplacian(g: InteractionGraph) -> np.ndarray:
    """Degree-minus-adjacency matrix of g, read from its edge arrays: -1 at
    each directed edge and each node's edge count on the diagonal."""
    src, dst = edge_arrays(g)
    lap = np.zeros((g.n, g.n))
    lap[src, dst] = -1.0
    np.fill_diagonal(lap, np.bincount(src, minlength=g.n))
    return lap


def edge_arrays(g: InteractionGraph) -> tuple[np.ndarray, np.ndarray]:
    """Directed edge arrays (src, dst) of g: each undirected edge listed both
    ways, as intp arrays sorted by (src, dst), the row-major order of the
    Laplacian's off-diagonal entries. The coupling kernel reads these. They
    are built once per graph, cached on it and read-only, so every run and
    step on one graph shares them."""
    return g._edge_arrays


def is_connected(g: InteractionGraph) -> bool:
    """Whether every node is reachable from node 0, searched once per graph
    and cached on it."""
    return g._connected
