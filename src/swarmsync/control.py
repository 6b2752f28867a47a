"""Per-agent turn-rate commands.

Two coupling variants share one shape, u_k = omega0 + K_k * dPhi/dtheta_k:

  * mean-field (all-to-all):  u_k = omega0 - (K_k/N) sum_{j != k} sin(theta_j - theta_k)
  * neighbor (graph) coupling: u_k = omega0 - K_k sum_{j in N_k} sin(theta_j - theta_k)

Note the mean-field law carries a 1/N factor the neighbor law does not: on a
complete graph the neighbor law equals the mean-field law with gains scaled
by N. Gains are implemented from the potential-gradient form; the sine forms
above are derived identities, tested against each other.

Bounded actuation comes in two flavors: capping |K_k| at (N/(N-1))*u_max,
which bounds |u_k| by u_max analytically, or clipping the command itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .phase import _expi, _grad, as_heading_vector
from .topology import InteractionGraph, _check_integer, edge_arrays, is_connected


@dataclass(frozen=True, eq=False)
class GainVector:
    """Per-agent controller gains K_k. A gain that is not finite, or whose
    reciprocal 1/K_k is not (zero, or |K_k| below about 5.6e-309), is
    rejected at construction, the first one named: the closed-form
    direction and the conserved sum weight each heading by 1/K_k."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gains, dtype=float))
        if g.ndim != 1 or g.size == 0:
            raise ValueError("gains must be a non-empty 1-D sequence")
        with np.errstate(over="ignore", divide="ignore"):
            bad = np.flatnonzero(~(np.isfinite(g) & np.isfinite(1.0 / g)))
        if bad.size:
            idx = int(bad[0])
            k = float(g[idx])
            if k == 0.0:
                raise ValueError(f"gain K_{idx} is exactly 0; zero gains are not allowed")
            raise ValueError(f"gain K_{idx} = {k!r} " + (
                f"is too close to 0: its reciprocal 1/K_{idx} is not a finite float"
                if np.isfinite(k) else "is not finite"))
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gains", g)

    def __len__(self) -> int:
        return self.gains.size

    @property
    def all_negative(self) -> bool:
        return bool(np.all(self.gains < 0.0))

    @cached_property
    def weights(self) -> np.ndarray:
        """The 1/K_k weights, cached: s/K_k = s fl(1/K_k) in [-1, 1], s the power of 2 at min|K|."""
        w = np.ldexp(1.0, np.frexp(np.abs(self.gains).min())[1] - 1) / self.gains
        w.setflags(write=False)
        return w

    @property
    def sync_stable(self) -> bool:
        """Sync is linearly stable (mean-field, or any connected graph) iff all gains are
        negative, or exactly one is positive and sum_k 1/K_k > 0: the sign of the weights'
        sum, decided in exact rational arithmetic where that sum is within its rounding
        bound of 0."""
        k = self.gains
        positive = np.count_nonzero(k > 0.0)
        if positive != 1:
            return bool(positive == 0)
        total = self.weights.sum()  # off s sum 1/K by about n 2**-53 sum|w| at most
        if abs(total) > (k.size + 1) * 2.0**-52 * np.abs(self.weights).sum():
            return bool(total > 0.0)
        from fractions import Fraction  # here: importing it loads decimal, about 0.3 MB
        return sum(1 / Fraction(x) for x in k.tolist()) > 0


def as_gains(gains) -> GainVector:
    """A GainVector as given, or validated from array-like gains."""
    return gains if isinstance(gains, GainVector) else GainVector(np.asarray(gains, dtype=float))


def _command(theta, gains, omega0: float, g: InteractionGraph | None) -> np.ndarray:
    """u_k = omega0 + K_k * dPhi/dtheta_k: g's neighbor law, the mean-field law for g None.
    A non-finite omega0 raises SimulationConfig's ValueError."""
    if not math.isfinite(omega0):
        raise ValueError(f"omega0 must be finite, got {omega0!r}")
    th, k = as_heading_vector(theta), as_gains(gains).gains
    if k.size != th.size:
        raise ValueError("gains length does not match headings")
    if g is not None and g.n != th.size:
        raise ValueError("graph size does not match headings")
    if g is not None and not is_connected(g):
        warnings.warn("interaction graph is not connected; synchronization is not guaranteed")
    return omega0 + k * _grad(_expi(th), None if g is None else edge_arrays(g))


def control_all_to_all(theta, gains, omega0: float = 0.0) -> np.ndarray:
    """Mean-field command u_k = omega0 - (K_k/N) sum_{j != k} sin(theta_j - theta_k)."""
    return _command(theta, gains, omega0, None)


def control_limited(theta, gains, g: InteractionGraph, omega0: float = 0.0) -> np.ndarray:
    """Neighbor command u_k = omega0 - K_k sum_{j in N_k} sin(theta_j - theta_k)."""
    return _command(theta, gains, omega0, g)


def gain_cap(n: int, u_max: float) -> float:
    """Largest |K_k| keeping the mean-field command within u_max.

    |u_k| <= ((N-1)/N)|K_k| for the mean-field law, so any |K_k| <=
    (N/(N-1))*u_max guarantees |u_k| <= u_max without clipping.
    """
    _check_integer("n", n)
    if n < 2:
        raise ValueError("gain cap needs n >= 2")
    if not math.isfinite(u_max):
        raise ValueError(f"u_max must be finite, got {u_max!r}")
    if not u_max > 0.0:
        raise ValueError("u_max must be positive")
    return (n / (n - 1)) * u_max


def named_gain_set(name: str, n: int) -> np.ndarray:
    """Built-in gain families, indexed by agent number k = 1..n.

    set1: K_k = -k        set2: K_k = -1/k
    set3: K_1 = 0.5, K_k = -k for k >= 2 (mixed signs, negative sum)
    set4: K_k = -0.1/k    (all within gain_cap(n, 0.1))
    """
    _check_integer("n", n)
    ks = np.arange(1, n + 1, dtype=float)
    sets = dict(set1=-ks, set2=-1.0 / ks, set3=np.where(ks == 1.0, 0.5, -ks), set4=-0.1 / ks)
    if name not in sets:
        raise ValueError(f"unknown gain set {name!r}; expected set1..set4")
    return sets[name]
