"""Small angle utilities shared across the package.

All internal angles are radians. Headings are kept unwrapped (real line)
during integration; wrapping happens only when an angle is reported.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(x):
    """Wrap angle(s) to the half-open interval (-pi, pi].

    Accepts scalars or arrays. -pi maps to +pi.
    """
    y = np.mod(np.asarray(x, dtype=float), TWO_PI)
    y = np.where(y > np.pi, y - TWO_PI, y)
    return float(y) if y.ndim == 0 else y


def heading_spread(theta) -> float:
    """Largest pairwise wrapped heading difference, max_{j,k} |wrap(theta_j - theta_k)|.

    This is the circular diameter of the heading set; 0 means all agents
    share one direction mod 2*pi. The farthest heading from theta_k lies next
    to its antipode once the distinct headings are sorted mod 2*pi, and a
    farthest pair is next to each other's antipodes, so it is met both ways
    round. Copies of one direction 2*pi apart tie there up to rounding, so
    for headings that span w turns the w + 2 sorted headings on each side of
    every antipode are taken, and the expression above is evaluated on those
    pairs only: the same float as over all pairs, in O(n log n) for headings
    within a few turns. An empty theta raises ValueError.
    """
    th = np.sort(np.asarray(theta, dtype=float))
    if th.size == 0:
        raise ValueError("heading_spread needs at least one heading, got an empty theta")
    th = th[np.append(True, th[1:] != th[:-1])]  # distinct, ascending
    if not np.isfinite(span := float(th[-1]) - float(th[0])):  # non-finite heading, or overflow
        return float("nan")  # as some difference in the expression above is then nan or inf
    phi = np.mod(th, TWO_PI)
    order = np.argsort(phi, kind="stable")  # ties in phi keep theta order
    m = order.size
    reach = min(m, 2 + int(span // TWO_PI))
    side = np.searchsorted(phi[order], np.mod(phi + np.pi, TWO_PI))
    cand = order[(side[:, None] + np.arange(-reach, reach)) % m]
    return float(np.max(np.abs(wrap_angle(th[cand] - th[:, None]))))
