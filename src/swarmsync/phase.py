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
    th = as_heading_vector(theta)
    p = complex(_expi(th).mean())
    mag = abs(p)
    phase = float(np.angle(p)) if mag > ZERO_MAGNITUDE_TOL else None
    return OrderParameter(magnitude=mag, mean_phase=phase, as_complex=p)


def _edge_products(z: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """z[..., src] * conj(z[..., dst]) for a batch z, the same floats as the
    1-D expression in _grad with one (..., edges) temporary fewer."""
    prod = z[..., src]
    other = z[..., dst]
    prod *= np.conjugate(other, out=other)
    return prod


def _grad(z: np.ndarray, edges: tuple[np.ndarray, np.ndarray] | None,
          products: np.ndarray | None = None) -> np.ndarray:
    """dPhi/dtheta_k for unit heading vectors z = e^{i theta} of shape (..., n).

    ``edges`` None selects the mean-field potential, otherwise the graph
    potential of the directed edge arrays (src, dst) from
    ``topology.edge_arrays``: component k is -sum_{j in N_k} sin(theta_j -
    theta_k) = sum_{j in N_k} Im(z_k conj(z_j)), summed per node by one
    bincount (leading axes get row offsets, so each row sums in the order a
    1-D call does). The one coupling kernel: the integrator's right-hand
    side, the recorded controls, the control API and the public gradients
    all evaluate it, so they agree bit for bit. ``products`` is
    _edge_products(z, src, dst) when the caller already has it, as a record
    does for both _grad and _potential.
    """
    if edges is None:  # Im(conj(p) z_k) with p the mean; a 1-D z keeps p a scalar
        p = np.add.reduce(z, axis=-1, keepdims=z.ndim > 1) / z.shape[-1]
        return (np.conj(p) * z).imag
    src, dst = edges
    if products is None:
        if z.ndim == 1:  # the RHS path: plain indexing, no reshape
            return np.bincount(src, (z[src] * z[dst].conj()).imag, z.size)
        products = _edge_products(z, src, dst)
    rows = np.arange(0, z.size, z.shape[-1])[:, None]
    return np.bincount((src + rows).ravel(), products.imag.ravel(), z.size).reshape(z.shape)


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


def _laplacian_edges(th: np.ndarray, lap) -> tuple[np.ndarray, np.ndarray]:
    """Directed edge arrays of a dense Laplacian over the headings th.

    Only the Laplacian of an unweighted undirected graph (symmetric,
    off-diagonal entries 0 or -1, diagonal equal to the degree) is accepted:
    the edge form of the potential equals the quadratic form only for those.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.shape != (th.size, th.size):
        raise ValueError(
            f"Laplacian shape {lap.shape} does not match {th.size} headings"
        )
    src, dst = np.divmod(np.flatnonzero(lap != 0.0), th.size)  # row-major (k, j)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    back = np.lexsort((src, dst))  # the transposed entries in row-major order
    if not (np.all(lap[src, dst] == -1.0)
            and np.array_equal(src, dst[back]) and np.array_equal(dst, src[back])
            and np.array_equal(np.diagonal(lap), np.bincount(src, minlength=th.size))):
        raise ValueError("lap is not the Laplacian of an unweighted undirected graph")
    return src, dst


def laplacian_potential(theta, lap) -> float:
    """Graph coupling potential (1/2) <e^{i theta}, L e^{i theta}>.

    Equals (1/2) sum_k sum_{j in N_k} (1 - cos(theta_j - theta_k)) >= 0 for
    the Laplacian of an undirected graph.
    """
    th = as_heading_vector(theta)
    return float(_potential(_expi(th), _laplacian_edges(th, lap)))


def laplacian_potential_grad(theta, lap) -> np.ndarray:
    """Gradient of the graph coupling potential.

    Component k is -sum_{j in N_k} sin(theta_j - theta_k); the components sum
    to zero for undirected graphs.
    """
    th = as_heading_vector(theta)
    return _grad(_expi(th), _laplacian_edges(th, lap))


def lyapunov_rate(theta, gains, lap=None) -> float:
    """Time derivative of the active potential under the gradient control law.

    Returns sum_k K_k * (dPhi/dtheta_k)^2 where Phi is the mean-field
    potential when ``lap`` is None and the graph potential otherwise. Strictly
    negative away from critical points whenever every gain is negative.
    """
    from .control import as_gains  # local import to avoid a cycle

    th = as_heading_vector(theta)
    k = as_gains(gains)
    if k.size != th.size:
        raise ValueError("gains length does not match headings")
    edges = None if lap is None else _laplacian_edges(th, lap)
    g = _grad(_expi(th), edges)
    return float(np.sum(k * g * g))
