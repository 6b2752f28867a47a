"""Order parameter and alignment potentials over heading ensembles.

For N headings theta_k the complex mean of the unit heading vectors,

    p = (1/N) sum_k exp(i*theta_k) = |p| exp(i*Psi),

measures alignment: |p| = 1 iff all headings coincide mod 2*pi, |p| = 0 in a
balanced arrangement. Two scalar potentials drive the controllers:

  * mean-field alignment potential   (N/2) * (1 - |p|^2), minimized at sync;
  * graph coupling potential         (1/2) <e^{i theta}, L e^{i theta}> for a
    graph Laplacian L, which reduces to N times the mean-field potential on
    the complete graph and is minimized at sync for any connected graph. It
    is evaluated over the graph's edge list, never as a dense matrix product.

All public functions here are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .topology import _laplacian_edges

# |p| below this is treated as zero and the mean phase reported as undefined.
ZERO_MAGNITUDE_TOL = 1e-12
# From this many angles on, _unit_vectors writes np.cos and np.sin into the
# two halves of e^{i theta}; below it one complex np.exp is cheaper. The
# measured crossover of the two is near 100 angles (BENCH_unit_vectors.json).
UNIT_COS_SIN_MIN = 100


def as_heading_vector(theta) -> np.ndarray:
    """Validate and return a heading vector as a float64 array.

    Headings are unwrapped radians (not reduced mod 2*pi). Requires at least
    two agents and finite entries.
    """
    th = np.asarray(theta, dtype=float)
    if th.ndim != 1 or th.size < 2:
        raise ValueError("heading vector must be 1-D with at least 2 entries")
    if not np.all(np.isfinite(th)):
        raise ValueError("heading vector contains non-finite entries")
    return th


def _unit_vectors(shape, zero: bool):
    """(angle, bind): a float array of ``shape`` that holds angles theta, and
    bind(z), a function of no arguments that writes e^{i theta} into the
    complex array z of that shape. The one way e^{i theta} is computed.

    The size of ``shape`` picks the way once: from UNIT_COS_SIN_MIN angles
    on, np.cos and np.sin write into z.real and z.imag; below it, one
    np.exp of a complex buffer whose real part is +0.0 and whose imaginary
    part is ``angle``. Both give the floats of np.exp(1j * theta) for every
    theta but -0.0, where 1j * theta has the imaginary part +0.0 and the
    two ways keep -0.0. With ``zero`` set, the function first adds +0.0 to
    the angles, which turns -0.0 into +0.0 and leaves every other float
    alone; a caller whose angles cannot be -0.0 skips that pass.
    """
    if math.prod(shape) < UNIT_COS_SIN_MIN:
        w = np.zeros(shape, dtype=complex)
        angle = w.imag

        def writes(z):
            return (partial(np.exp, w, z),)
    else:
        angle = np.empty(shape)

        def writes(z):
            return partial(np.cos, angle, z.real), partial(np.sin, angle, z.imag)

    plus_zero = (partial(np.add, angle, 0.0, angle),) if zero else ()

    def bind(z):
        calls = plus_zero + writes(z)
        if len(calls) == 1:  # np.exp alone: no wrapper call in the small-n RK4 loop
            return calls[0]

        def unit():
            for call in calls:
                call()
        return unit

    return angle, bind


def _expi(theta) -> np.ndarray:
    """np.exp(1j * theta) for real theta of any shape, bit for bit (see
    _unit_vectors)."""
    angle, bind = _unit_vectors(np.shape(theta), False)
    np.add(theta, 0.0, angle)  # as 1j * theta does, turns -0.0 into +0.0
    z = np.empty(angle.shape, dtype=complex)
    bind(z)()
    return z


@dataclass(frozen=True)
class OrderParameter:
    """Complex mean of unit heading vectors.

    ``mean_phase`` is None when the magnitude vanishes (the phase of a zero
    vector is genuinely undefined).
    """

    magnitude: float
    mean_phase: float | None
    as_complex: complex

    @property
    def phase_defined(self) -> bool:
        return self.mean_phase is not None


def order_parameter(theta) -> OrderParameter:
    """p = (1/N) sum_k exp(i*theta_k), with magnitude in [0, 1]."""
    return _order_parameter(_expi(as_heading_vector(theta)))


def _order_parameter(z: np.ndarray) -> OrderParameter:
    """order_parameter from the unit heading vectors z = e^{i theta}."""
    p = complex(z.mean())
    mag = abs(p)
    phase = float(np.angle(p)) if mag > ZERO_MAGNITUDE_TOL else None
    return OrderParameter(magnitude=mag, mean_phase=phase, as_complex=p)


def _edge_products(z: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """z[..., src] * conj(z[..., dst]) for a batch z, the same floats as the
    kernel's plain gather in _coupling with one (..., edges) temporary fewer."""
    prod = z[..., src]
    other = z[..., dst]
    prod *= np.conjugate(other, out=other)
    return prod


def _coupling(edges: list, n: int, rows: int = 1, products: np.ndarray | None = None):
    """bind for the one coupling kernel, dPhi/dtheta over R rows of n agents,
    ``rows`` consecutive rows under each law in edges: None for the
    mean-field potential (these first), else the graph's (src, dst) of
    topology.edge_arrays. bind(z) gives grad() at the flat z = e^{i theta};
    a caller with the graph rows' _edge_products of that z passes them as
    ``products`` (no dst is built). Component k is Im(conj(p) z_k) in a
    mean-field row, p its mean, and sum_{j in N_k} Im(z_k conj(z_j)) in a
    graph row, gathered by plain z[src] and summed in the row's own order by
    one bincount over the rows' edge union, built here. The RHS, recorded
    controls, control API and public gradients all evaluate it, bit for bit."""
    runs, mf = len(edges) * rows, edges.count(None) * rows
    k, size, n_c = mf * n, runs * n, np.array(n, dtype=complex)
    off = np.arange(0, size, n).reshape(-1, rows, 1) if mf < runs else None  # r*n for row r
    src, dst = (np.concatenate([(e[j] + o).ravel() for e, o in zip(edges, off) if e is not None])
                if mf < runs and (j == 0 or products is None) else None for j in (0, 1))
    im = None if products is None else products.imag.ravel()  # Im(products), the union's order

    def bind(z: np.ndarray):
        w, p = np.empty(k, dtype=complex), np.empty((mf, 1), dtype=complex)
        zm, zr, w_imag, wr = z[:k], z[:k].reshape(mf, n), w.imag, w.reshape(mf, n)

        def one_mean():  # a scalar mean: faster than the buffer for one row
            np.multiply(np.conj(np.add.reduce(zm, -1, None, None, False) / n), zm, w)
            return w_imag

        def means():  # a mean per row
            np.add.reduce(zr, -1, None, p, True)
            np.multiply(np.conjugate(np.divide(p, n_c, p), p), zr, wr)
            return w_imag

        def graph():
            g = np.bincount(src, (z[src] * z[dst].conj()).imag if im is None else im, size)
            if k:  # the union has no edge in the mean-field rows, which come first
                g[:k] = mean()
            return g

        mean = one_mean if mf == 1 else means
        return mean if mf == runs else graph

    return bind


def _grad(z: np.ndarray, edges: tuple[np.ndarray, np.ndarray] | None,
          products: np.ndarray | None = None) -> np.ndarray:
    """dPhi/dtheta over the last axis of z = e^{i theta}, each row under the law
    ``edges``: _coupling's one-shot form, ``products`` shaped as _edge_products'."""
    n = z.shape[-1]
    return _coupling([edges], n, z.size // n, products)(z.reshape(-1))().reshape(z.shape)


def _potential(z: np.ndarray, edges: tuple[np.ndarray, np.ndarray] | None,
               products: np.ndarray | None = None) -> np.ndarray:
    """Phi over the last axis of z, the potential whose gradient is _grad
    (``products`` as there)."""
    if edges is None:
        n = z.shape[-1]
        return 0.5 * n * (1.0 - np.abs(z.sum(axis=-1) / n) ** 2)
    if products is None:
        products = _edge_products(z, *edges)
    return 0.5 * np.sum(1.0 - products.real, axis=-1)


def alignment_potential(theta) -> float:
    """Mean-field alignment potential (N/2) * (1 - |p|^2), in [0, N/2]."""
    return float(_potential(_expi(as_heading_vector(theta)), None))


def alignment_potential_grad(theta) -> np.ndarray:
    """Gradient of the mean-field alignment potential.

    Component k is -|p| sin(Psi - theta_k) = -(1/N) sum_{j != k} sin(theta_j
    - theta_k). The components always sum to zero (pairwise antisymmetry).
    """
    return _grad(_expi(as_heading_vector(theta)), None)


def laplacian_potential(theta, lap) -> float:
    """Graph coupling potential (1/2) <e^{i theta}, L e^{i theta}>.

    Equals (1/2) sum_k sum_{j in N_k} (1 - cos(theta_j - theta_k)) >= 0 for
    the Laplacian of an undirected graph.
    """
    th = as_heading_vector(theta)
    return float(_potential(_expi(th), _laplacian_edges(lap, th.size)))


def laplacian_potential_grad(theta, lap) -> np.ndarray:
    """Gradient of the graph coupling potential.

    Component k is -sum_{j in N_k} sin(theta_j - theta_k); the components sum
    to zero for undirected graphs.
    """
    th = as_heading_vector(theta)
    return _grad(_expi(th), _laplacian_edges(lap, th.size))
