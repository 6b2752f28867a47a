"""Undirected interaction graphs and their Laplacians.

Graphs are undirected, unweighted, time-invariant, with no self-loops. The
Laplacian carries node degrees on the diagonal and -1 for each neighbor pair;
it is symmetric positive semi-definite with the all-ones vector in its kernel
(the kernel is exactly span(1) iff the graph is connected).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ZERO_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected graph on nodes 0..n-1 with a canonical sorted edge tuple."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        canon = []
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
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

    def neighbors(self, k: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == k:
                out.append(b)
            elif b == k:
                out.append(a)
        return sorted(out)


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
    """Degree-minus-adjacency matrix of g."""
    lap = np.zeros((g.n, g.n))
    for j, k in g.edges:
        lap[j, j] += 1.0
        lap[k, k] += 1.0
        lap[j, k] -= 1.0
        lap[k, j] -= 1.0
    return lap


def edge_arrays(g: InteractionGraph) -> tuple[np.ndarray, np.ndarray]:
    """Directed edge arrays (src, dst) of g: each undirected edge listed both
    ways, as intp arrays sorted by (src, dst), the row-major order of the
    Laplacian's off-diagonal entries. The coupling kernel reads these. They
    are built once per graph, cached on it and read-only, so every run and
    step on one graph shares them."""
    return g._edge_arrays


def is_connected(g: InteractionGraph) -> bool:
    """Breadth-first reachability of every node from node 0."""
    if g.n == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for j, k in g.edges:
        adj[j].append(k)
        adj[k].append(j)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def laplacian_spectrum(lap) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Laplacian.

    Uses the symmetric eigensolver; eigenvalues near zero within
    ZERO_EIGENVALUE_TOL are snapped to exactly 0 so the kernel test is stable.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError("Laplacian must be a square matrix")
    w, v = np.linalg.eigh(lap)
    w = np.where(np.abs(w) < ZERO_EIGENVALUE_TOL, 0.0, w)
    return w, v
