"""Closed-form direction prediction, reachability, gain synthesis, and
critical-point classification.

The geometric backbone: when the initial unit heading vectors span an acute
convex cone (an arc shorter than pi), the order parameter never leaves that
cone, so for all-negative gains the swarm synchronizes at

    theta_c = (sum_k theta_hat_k0 / K_k) / (sum_k 1 / K_k) + theta_R,

a 1/K-weighted average of the initial headings expressed in a frame rotated
by theta_R so that all of them are non-negative. The weighting is a convex
combination, so exactly the open interior of the initial arc is reachable
with negative gains; the extreme rays are not. For two agents the admissible
gain set relaxes to K_1 + K_2 < 0 and every direction but the two initial
headings (which need a zero gain) becomes reachable, outside the arc too.

All angles here are radians; results are wrapped to (-pi, pi].
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

import numpy as np

from .angles import TWO_PI, wrap_angle
from .control import GainVector, as_gains
from .phase import _expi, _grad, _order_parameter, as_heading_vector


class NonAcuteConeError(ValueError):
    """Initial headings span half the circle or more; the cone theory does not apply."""


@dataclass(frozen=True)
class RotatedFrame:
    """Reference rotation that makes every initial heading non-negative.

    ``theta_hat0`` are the rotated headings, all in [0, span] with the
    minimum exactly 0. The cone is acute iff span < pi.
    """

    theta_R: float
    theta_hat0: np.ndarray
    span: float
    acute: bool


def rotated_frame(theta0) -> RotatedFrame:
    """Pick the extreme-ray reference angle and rotate the headings onto it.

    The heading minimizing the maximum relative angle (taken in [0, 2*pi))
    wins, ties going to the smallest index. Only a heading that ends a
    largest circular gap between the sorted headings (within 1e-12 rad, far
    above rounding) can win, so only those are tried, in O(1) each. Equal
    headings leave gaps of 0, never near the largest (at least 2*pi/n), so
    each candidate starts a run of equal headings; the sort is stable where
    headings repeat, so that the run starts at the first index holding its
    value. Initial headings must lie in the open interval (-pi, pi).
    """
    th = as_heading_vector(theta0)
    if np.any(th <= -np.pi) or np.any(th >= np.pi):
        raise ValueError("initial headings must lie in the open interval (-pi, pi)")
    order = np.argsort(th)  # unstable, and several times faster than a stable one
    values = th[order]
    if np.any(values[1:] == values[:-1]):
        order = np.argsort(th, kind="stable")
        values = th[order]
    gaps = np.diff(values, append=values[0] + TWO_PI)  # gaps[i] ends at values[i+1]
    ends = (np.flatnonzero(gaps >= gaps.max() - 1e-12) + 1) % values.size
    if ends.size > 1:
        # np.mod(x - end) grows with x below end and from end on, so a tied
        # end's largest relative angle is to its predecessor or to the largest
        v = values[ends]
        spans = np.maximum(np.mod(values[ends - 1] - v, TWO_PI), np.mod(values[-1] - v, TWO_PI))
        ends = ends[spans == spans.min()]
    ref = order[ends].min()
    rel = np.mod(th - th[ref], TWO_PI)
    span = float(rel.max())
    return RotatedFrame(theta_R=float(th[ref]), theta_hat0=rel, span=span, acute=bool(span < np.pi))


def _require_acute(frame: RotatedFrame) -> RotatedFrame:
    if not frame.acute:
        raise NonAcuteConeError(
            f"initial headings span {np.degrees(frame.span):.3f} deg >= 180 deg"
        )
    return frame


def predict_direction(theta0, gains) -> float:
    """Synchronized direction for all-negative gains, wrapped to (-pi, pi]."""
    return _prediction(_require_acute(rotated_frame(theta0)), gains)


def _prediction(frame: RotatedFrame, gains) -> float:
    """predict_direction on a frame already computed and checked acute."""
    k = as_gains(gains)
    if np.any(k > 0.0):
        raise ValueError("all gains must be negative for this operation")
    if k.size != frame.theta_hat0.size:
        raise ValueError("gains length does not match headings")
    # s/K, s the power of two at min|K|: exact, and |s/K| <= 1 so the sum cannot overflow
    inv = np.ldexp(1.0, np.frexp(np.abs(k).min())[1] - 1) / k
    return float(wrap_angle(float((frame.theta_hat0 @ inv) / inv.sum()) + frame.theta_R))


@dataclass(frozen=True)
class ReachabilityReport:
    """Which synchronized directions are attainable from given initial headings."""

    target: float
    interval_rotated: tuple[float, float]
    interval_standard: tuple[float, float]
    reachable_negative_gains: bool
    reachable_two_agent_extended: bool | None
    theta_R: float
    span: float

    def to_dict(self) -> dict:
        return {**asdict(self), "target_deg": float(np.degrees(self.target))}


# rad; the largest |target| taken. Doubles there are 1.2e-10 rad apart, so a
# wrapped target still means something; at 1e308 deg the spacing is 2e290 rad.
TARGET_BOUND = 1e6


def _finite_target(target) -> None:
    if not np.isfinite(target):
        raise ValueError(f"target must be a finite angle, got {float(target)!r}")
    if abs(target) > TARGET_BOUND:
        raise ValueError(f"|target| must be at most {TARGET_BOUND:g} rad "
                         f"({np.degrees(TARGET_BOUND):.4g} deg), got {float(target)!r} rad")


def is_reachable(theta0, target: float) -> ReachabilityReport:
    """Strict-interior reachability test for all-negative gains.

    The open interval between the extreme rays is reachable; the rays
    themselves are not. For two agents the report also notes the extended
    regime (mixed-sign gains with negative sum), true exactly where
    two_agent_gains returns gains: not at either end of a nonzero arc. A
    non-finite target, or one beyond TARGET_BOUND rad, raises ValueError.
    """
    _finite_target(target)
    return _reachability(_require_acute(rotated_frame(theta0)), target)


def _reachability(frame: RotatedFrame, target: float) -> ReachabilityReport:
    """is_reachable on a frame already computed and checked acute."""
    t_hat = float(np.mod(target - frame.theta_R, TWO_PI))
    reachable = bool(0.0 < t_hat < frame.span)
    extended: bool | None = None
    if frame.theta_hat0.size == 2:
        try:
            _two_agent_gains(frame, target)
        except ValueError:
            extended = False
        else:
            extended = True
    return ReachabilityReport(
        target=float(wrap_angle(target)),
        interval_rotated=(0.0, frame.span),
        interval_standard=(
            float(wrap_angle(frame.theta_R)),
            float(wrap_angle(frame.theta_R + frame.span)),
        ),
        reachable_negative_gains=reachable,
        reachable_two_agent_extended=extended,
        theta_R=frame.theta_R,
        span=frame.span,
    )


def synthesize_gains(theta0, target: float, c: float = -1.0) -> GainVector:
    """All-negative gains K_k = c / alpha_k steering sync to ``target``.

    The convex weights alpha are a deterministic blend of uniform weights
    with a two-point bracket around the target: the bracket pair is pushed
    just far enough past the target that mixing with the uniform mean lands
    the weighted average exactly on it. Every alpha_k stays strictly
    positive, so any c < 0 yields strictly negative gains with
    sum_k 1/K_k = 1/c. The gains are not unique; rescaling c moves them all.
    A non-finite target, or one beyond TARGET_BOUND rad, raises ValueError.
    """
    return _synthesis(theta0, target, c)[0]


def _synthesis(theta0, target: float, c: float) -> tuple[GainVector, RotatedFrame]:
    """synthesize_gains and the acute frame it computed, which _prediction
    takes to predict the direction of the new gains."""
    if not c < 0.0:
        raise ValueError("c must be negative")
    _finite_target(target)
    frame = _require_acute(rotated_frame(theta0))
    if not _reachability(frame, target).reachable_negative_gains:
        raise ValueError(
            f"target {np.degrees(wrap_angle(target)):.4f} deg is not reachable "
            "with all-negative gains (must be strictly inside the initial arc)"
        )
    hat = frame.theta_hat0
    n = hat.size
    t_hat = float(np.mod(target - frame.theta_R, TWO_PI))
    mean = float(hat.mean())

    alpha = np.full(n, 1.0 / n)
    if abs(t_hat - mean) > 1e-15 * max(1.0, frame.span):
        # the headings bracketing the target; the side beyond it (away from
        # the mean) is strict, so the far end is never the target itself
        up = t_hat > mean
        above = np.flatnonzero(hat > t_hat if up else hat >= t_hat)
        below = np.flatnonzero(hat <= t_hat if up else hat < t_hat)
        hi = int(above[np.argmin(hat[above])])
        lo = int(below[np.argmax(hat[below])])
        s_min = (t_hat - mean) / (hat[hi if up else lo] - mean)
        s = 0.5 * (1.0 + s_min)
        t_adj = mean + (t_hat - mean) / s
        w_hi = (t_adj - hat[lo]) / (hat[hi] - hat[lo])
        alpha *= 1.0 - s
        alpha[lo] += s * (1.0 - w_hi)
        alpha[hi] += s * w_hi
    if np.any(alpha <= 0.0):
        raise RuntimeError("internal error: synthesized weights not strictly positive")
    with np.errstate(over="ignore"):  # a c near the float limit: GainVector names the gain
        return GainVector(c / alpha), frame


@dataclass(frozen=True)
class PerturbationBounds:
    """Admissible final directions when homogeneous gains carry up to a
    fractional error eta.

    All angles are in the rotated frame. ``mean_direction`` is the
    unperturbed homogeneous-gain direction (the arithmetic mean of the
    rotated initial headings); deviations satisfy
    delta_lower = (2*eta/(1+eta)) * mean and delta_upper = (2*eta/(1-eta)) *
    mean. ``admissible_lo/hi`` intersect that band with the open reachable
    interval (0, span).
    """

    eta: float
    mean_direction: float
    delta_lower: float
    delta_upper: float
    admissible_lo: float
    admissible_hi: float
    theta_R: float
    span: float

    def contains(self, rotated_direction: float, tol: float = 1e-12) -> bool:
        x = rotated_direction
        return bool(
            0.0 < x < self.span
            and self.admissible_lo - tol <= x <= self.admissible_hi + tol
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "mean_direction_deg": float(np.degrees(self.mean_direction))}


def perturbation_bounds(theta0, eta: float) -> PerturbationBounds:
    """Deviation band of the final direction under gain errors |eps_k| <= eta*|K|."""
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    frame = _require_acute(rotated_frame(theta0))
    mean = float(frame.theta_hat0.mean())
    delta_lower = (2.0 * eta / (1.0 + eta)) * mean
    delta_upper = (2.0 * eta / (1.0 - eta)) * mean
    return PerturbationBounds(
        eta=eta,
        mean_direction=mean,
        delta_lower=delta_lower,
        delta_upper=delta_upper,
        admissible_lo=max(0.0, mean - delta_lower),
        admissible_hi=min(frame.span, mean + delta_upper),
        theta_R=frame.theta_R,
        span=frame.span,
    )


def two_agent_direction(theta0, gains) -> float:
    """Synchronized direction of a pair under the relaxed condition K_1 + K_2 < 0.

    theta_hat_c = (K_2*theta_hat_10 + K_1*theta_hat_20) / (K_1 + K_2); with a
    positive gain in the mix the result can leave the initial arc. Wrapped to
    (-pi, pi].
    """
    th = as_heading_vector(theta0)
    if th.size != 2:
        raise ValueError("two_agent_direction needs exactly 2 headings")
    k = as_gains(gains)
    if k.size != 2:
        raise ValueError("two_agent_direction needs exactly 2 gains")
    k = k / np.ldexp(1.0, np.frexp(np.abs(k).max())[1] - 1)  # exact: K_1 + K_2 cannot overflow
    if not k.sum() < 0.0:
        raise ValueError("requires K_1 + K_2 < 0")
    frame = _require_acute(rotated_frame(th))
    hat_c = (k[1] * frame.theta_hat0[0] + k[0] * frame.theta_hat0[1]) / k.sum()
    return float(wrap_angle(hat_c + frame.theta_R))


def two_agent_gains(theta0, target: float) -> GainVector:
    """Gains with K_1 + K_2 < 0 steering a pair to any direction but its headings.

    Interior targets use two negative gains; targets at or beyond the arc
    ends use one positive and one negative gain. The two rotated-frame
    boundary directions themselves would require a zero gain, which is
    excluded, so they raise, and so does a non-finite target or one beyond
    TARGET_BOUND rad.
    """
    th = as_heading_vector(theta0)
    if th.size != 2:
        raise ValueError("two_agent_gains needs exactly 2 headings")
    _finite_target(target)
    return _two_agent_gains(_require_acute(rotated_frame(th)), target)


def _two_agent_gains(frame: RotatedFrame, target: float) -> GainVector:
    """two_agent_gains on a frame already computed and checked acute."""
    span = frame.span
    t_hat = float(wrap_angle(target - frame.theta_R))
    lo_i = int(np.argmin(frame.theta_hat0))
    hi_i = 1 - lo_i
    if span == 0.0:
        if abs(t_hat) < 1e-12:
            return GainVector(np.array([-1.0, -1.0]))
        raise ValueError("agents share one heading; only that direction is reachable")
    k = np.empty(2)
    if 0.0 < t_hat < span:
        lam_hi = t_hat / span
        k[lo_i] = -1.0 / (1.0 - lam_hi)
        k[hi_i] = -1.0 / lam_hi
    else:  # the end the target lies beyond gets the positive gain
        end, other, beyond = (lo_i, hi_i, -t_hat) if t_hat <= 0.0 else (hi_i, lo_i, t_hat - span)
        positive = beyond / span
        if positive == 0.0:
            raise ValueError("boundary direction requires a zero gain, which is excluded")
        if not positive < 2.0 ** 53:  # from 2**53 on, 1 + positive rounds the 1 away
            raise ValueError(f"target {beyond:.3g} rad past an arc of {span:.3g} rad needs a gain "
                             "ratio beyond/span of 2**53 or more, past double precision")
        k[end], k[other] = positive, -(1.0 + positive)
    return GainVector(k)


def _hessian_entries(z: np.ndarray, p: complex, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries H[rows, cols] of critical_point_hessian for the unit heading
    vectors z and their mean p; rows and cols are index arrays that
    broadcast together, and only the broadcast shape is allocated."""
    n = z.size
    off = np.real(z[rows] * np.conj(z[cols])) / n
    return np.where(rows == cols, 1.0 / n - np.real(np.conj(p) * z[rows]), off)


def critical_point_hessian(theta) -> np.ndarray:
    """Second-derivative matrix used to classify alignment critical points.

    Entries: 1/N - |p| cos(Psi - theta_k) on the diagonal and
    (1/N) cos(theta_j - theta_k) off it. This is the negative of the true
    Hessian of the alignment potential; the global sign flip does not affect
    indefiniteness-based classification. At a configuration with M agents
    opposite the mean phase it equals (1/N) w w^T + |p| diag(w) for the
    block sign vector w.

    This builds the full N x N matrix, O(N^2) in time and memory;
    classify_critical_point needs only a 2 x 2 block of it and stays O(N).
    """
    th = as_heading_vector(theta)
    z = _expi(th)
    idx = np.arange(th.size)
    return _hessian_entries(z, z.mean(), idx[:, None], idx)


def _saddle_witness(z: np.ndarray, p: complex, pair: np.ndarray) -> float:
    """q^T H q for the q with -1 at pair[0] and +1 at pair[1], that is
    H[a,a] + H[b,b] - 2 H[a,b], from the 2 x 2 block of H alone."""
    q = np.array([-1.0, 1.0])
    return float(q @ _hessian_entries(z, p, pair[:, None], pair) @ q)


class CriticalKind(str, enum.Enum):
    SYNC_MINIMUM = "sync_minimum"
    SADDLE = "saddle"
    BALANCED_MAXIMUM = "balanced_maximum"


@dataclass(frozen=True)
class CriticalPointConfig:
    """Classification of a zero-gradient heading configuration.

    ``antipodal_count`` is the number of agents at the phase opposite the
    mean phase (None for balanced configurations, where the mean phase is
    undefined).
    """

    antipodal_count: int | None
    p_mag: float
    kind: CriticalKind

    def to_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind.value}


def classify_critical_point(theta, grad_tol: float = 1e-8) -> CriticalPointConfig:
    """Sort a critical configuration into minimum, saddle, or balanced maximum.

    Away from balance every agent sits at the mean phase Psi or at Psi + pi;
    zero agents opposite means the synchronized minimum, otherwise a saddle
    whose indefiniteness is confirmed by a two-agent witness vector q with
    q^T H q = -2|p| < 0.

    q is supported on two aligned agents a and b, so only the 2 x 2 block of
    critical_point_hessian at rows and columns a, b is evaluated: the
    witness is H[a,a] + H[b,b] - 2 H[a,b]. The classification is O(N) in
    time and memory; no N x N matrix is built.
    """
    th = as_heading_vector(theta)
    z = _expi(th)  # the gradient, the order parameter and the witness all start from it
    g = _grad(z, None)
    if np.max(np.abs(g)) > grad_tol:
        raise ValueError(
            f"configuration is not critical: max |gradient| = {np.max(np.abs(g)):.3e}"
        )
    op = _order_parameter(z)
    if op.magnitude < 1e-8:
        return CriticalPointConfig(None, op.magnitude, CriticalKind.BALANCED_MAXIMUM)
    rel = wrap_angle(th - op.mean_phase)
    opposed = np.abs(rel) > 0.5 * np.pi
    m = int(np.count_nonzero(opposed))
    if m == 0:
        return CriticalPointConfig(0, op.magnitude, CriticalKind.SYNC_MINIMUM)
    aligned = np.flatnonzero(~opposed)
    if aligned.size < 2:
        raise ValueError("inconsistent critical configuration: majority block too small")
    witness = _saddle_witness(z, op.as_complex, aligned[:2])
    if witness >= 0.0:
        raise ValueError("saddle witness failed; configuration is not a clean saddle")
    return CriticalPointConfig(m, op.magnitude, CriticalKind.SADDLE)

