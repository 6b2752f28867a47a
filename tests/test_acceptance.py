"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not calibrated.

Criterion 11 asserts that ring coupling synchronizes more slowly than the
1/N-normalized mean-field law for the six-agent reference gain sets. Under
the implemented laws the ring couples more strongly (its slowest linearized
decay rate exceeds the mean-field one for every cyclic labeling), so the
assertion fails; it is kept as stated rather than weakened.
"""

import dataclasses

import numpy as np

from swarmsync import (
    GainVector,
    SimulationConfig,
    alignment_potential,
    alignment_potential_grad,
    critical_point_hessian,
    is_reachable,
    laplacian,
    laplacian_potential,
    laplacian_potential_grad,
    named_gain_set,
    perturbation_bounds,
    predict_direction,
    ring_graph,
    rotated_frame,
    rotating_frame,
    simulate,
    simulate_batch,
    wrap_angle,
)

RNG = np.random.default_rng(20240601)

SIX_THETA0 = np.deg2rad([-60.0, -45.0, -30.0, 30.0, 45.0, 60.0])
SIX_POSITIONS = np.array(
    [[-1.0, -2.0], [4.0, -2.0], [-1.0, 1.0], [2.0, 3.0], [0.0, 1.0], [2.0, -6.0]]
)

# frozen hand evaluations of the gain-weighted average of the rotated
# headings [0, 15, 30, 90, 105, 120] deg:
#   set1: (-81) / (-49/20) - 60 = -1320/49 deg
#   set2: (-1725) / (-21)  - 60 =   155/7  deg
SET1_DIRECTION_RAD = np.deg2rad(-1320.0 / 49.0)
SET2_DIRECTION_RAD = np.deg2rad(155.0 / 7.0)


def _verdict(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def six_agent_config(gain_set: str, **kw) -> SimulationConfig:
    base = dict(
        n=6,
        theta0=SIX_THETA0,
        gains=GainVector(named_gain_set(gain_set, 6)),
        positions0=SIX_POSITIONS,
    )
    base.update(kw)
    return SimulationConfig(**base)


def random_acute_config(rng, n_max=10, **kw) -> SimulationConfig:
    n = int(rng.integers(2, n_max + 1))
    span = rng.uniform(0.3, 2.6)
    hat = np.concatenate([[0.0, span], rng.uniform(0.0, span, n - 2)])
    theta0 = hat + rng.uniform(-np.pi, np.pi - span)
    gains = GainVector(-(10.0 ** rng.uniform(-0.3, 0.4, n)))
    return SimulationConfig(n=n, theta0=theta0, gains=gains, **kw)


def fit_circle_radius(points: np.ndarray) -> float:
    """Algebraic circle fit: [2x 2y 1] [a b c]^T = x^2 + y^2."""
    a_mat = np.column_stack([2.0 * points[:, 0], 2.0 * points[:, 1], np.ones(len(points))])
    rhs = (points**2).sum(axis=1)
    (a, b, c), *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    return float(np.sqrt(c + a * a + b * b))


def test_criterion_01_conservation():
    """sum_k theta_k(t)/K_k drifts less than 1e-6 over full runs, straight
    and (after the rotating transform) orbiting."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        cfg = random_acute_config(rng, t_max=10.0, record_stride=2)
        if cfg.n >= 3 and rng.random() < 0.5:
            cfg = dataclasses.replace(cfg, topology=ring_graph(cfg.n))
        traj, _ = simulate(cfg)
        worst = max(worst, float(np.max(np.abs(traj.conserved - traj.conserved[0]))))
        cfg_w = dataclasses.replace(cfg, omega0=0.5)
        traj_w, _ = simulate(cfg_w)
        rot = rotating_frame(traj_w, 0.5)
        worst = max(worst, float(np.max(np.abs(rot.conserved - rot.conserved[0]))))
    _verdict(1, worst < 1e-6, f"conserved-sum drift {worst:.3e} < 1e-6 over 50 configs")


def test_criterion_02_closed_form_prediction():
    """Simulated common heading matches the closed form within 1e-3 rad on
    200 random acute instances and hits the two frozen reference values."""
    rng = np.random.default_rng(22)
    cfgs = [random_acute_config(rng, n_max=8, t_max=45.0, record_stride=10) for _ in range(200)]
    worst = 0.0
    for cfg, (traj, report) in zip(cfgs, simulate_batch(cfgs)):
        assert report.synchronized
        predicted = predict_direction(cfg.theta0, cfg.gains)
        worst = max(worst, abs(wrap_angle(report.final_heading_common - predicted)))
    ok_random = worst < 1e-3

    errs = []
    for gain_set, expected in (("set1", SET1_DIRECTION_RAD), ("set2", SET2_DIRECTION_RAD)):
        cfg = six_agent_config(gain_set, t_max=60.0, record_stride=5)
        _, report = simulate(cfg)
        assert report.synchronized
        errs.append(abs(wrap_angle(report.final_heading_common - expected)))
        assert abs(wrap_angle(predict_direction(cfg.theta0, cfg.gains) - expected)) < 1e-9
    ok_ref = max(errs) < 1e-3
    _verdict(
        2,
        ok_random and ok_ref,
        f"prediction error {worst:.2e} over 200 instances; reference errors "
        f"{errs[0]:.2e}/{errs[1]:.2e}",
    )


def test_criterion_03_two_agent_reference_directions():
    """A [-60, 60] deg pair reaches +-120 deg under mixed-sign gains."""
    errs = []
    for gains, target_deg in (([-3.0, 1.0], 120.0), ([1.0, -3.0], -120.0)):
        cfg = SimulationConfig(
            n=2,
            theta0=np.deg2rad([-60.0, 60.0]),
            gains=GainVector(gains),
            t_max=40.0,
            record_stride=5,
        )
        _, report = simulate(cfg)
        assert report.synchronized
        errs.append(abs(wrap_angle(report.final_heading_common - np.deg2rad(target_deg))))
    _verdict(3, max(errs) < 1e-3, f"mixed-sign pair errors {errs[0]:.2e}/{errs[1]:.2e} rad")


def test_criterion_04_homogeneous_gain_average():
    """Equal negative gains land on the arithmetic mean of the initial
    headings (0 deg for the symmetric reference set)."""
    cfg = six_agent_config("set1", t_max=40.0, record_stride=5)
    cfg = dataclasses.replace(cfg, gains=GainVector(np.full(6, -1.0)))
    _, report = simulate(cfg)
    err = abs(wrap_angle(report.final_heading_common - 0.0))
    _verdict(4, report.synchronized and err < 1e-3, f"homogeneous-gain error {err:.2e} rad")


def test_criterion_05_extreme_ray_exclusion():
    """The arc endpoints are unreachable; every all-negative prediction is
    strictly interior."""
    endpoints_rejected = not any(
        is_reachable(SIX_THETA0, np.deg2rad(t)).reachable_negative_gains for t in (60.0, -60.0)
    )
    frame = rotated_frame(SIX_THETA0)
    rng = np.random.default_rng(55)
    strict = True
    for _ in range(1000):
        inv = 1.0 / -(10.0 ** rng.uniform(-1.5, 1.5, 6))
        hat_c = (frame.theta_hat0 @ inv) / inv.sum()
        strict &= 0.0 < hat_c < frame.span
    _verdict(5, endpoints_rejected and strict, "endpoints rejected; 1000 predictions interior")


def test_criterion_06_perturbation_containment():
    """1000 sampled gain perturbations per eta stay inside the deviation
    band intersected with the reachable arc; zero violations."""
    rng = np.random.default_rng(66)
    frame = rotated_frame(SIX_THETA0)
    violations = 0
    for eta in (0.1, 0.3, 0.5):
        bounds = perturbation_bounds(SIX_THETA0, eta)
        for _ in range(1000):
            etas = rng.uniform(0.0, eta, 6) * rng.choice([-1.0, 1.0], 6)
            inv = 1.0 / (-1.0 * (1.0 + etas))
            hat_c = (frame.theta_hat0 @ inv) / inv.sum()
            violations += not bounds.contains(hat_c)
    _verdict(6, violations == 0, f"{violations} violations over 3 x 1000 samples")


def test_criterion_07_bounded_control():
    """Capped gains keep |u| within u_max analytically; saturation keeps it
    within u_max by clipping and converges faster."""
    caps_cfg = six_agent_config("set4", t_max=700.0, u_max=0.1)
    caps_traj, caps_report = simulate(caps_cfg)
    caps_max_u = float(np.max(np.abs(caps_traj.controls)))

    sat_cfg = six_agent_config("set2", t_max=100.0, u_max=0.1, saturate=True)
    sat_traj, sat_report = simulate(sat_cfg)
    sat_max_u = float(np.max(np.abs(sat_traj.controls)))

    ok = (
        caps_report.synchronized
        and caps_max_u <= 0.1
        and sat_report.synchronized
        and sat_max_u <= 0.1
        and sat_report.t_sync < caps_report.t_sync
    )
    _verdict(
        7,
        ok,
        f"caps max|u|={caps_max_u:.4f}, t_sync={caps_report.t_sync:.1f}s; "
        f"saturated max|u|={sat_max_u:.4f}, t_sync={sat_report.t_sync:.1f}s",
    )


def test_criterion_08_orbit_radius():
    """After synchronizing with omega0 = 0.5 every agent rides a circle of
    radius 2.0 +- 0.02 m."""
    cfg = six_agent_config("set1", omega0=0.5, t_max=60.0)
    traj, report = simulate(cfg)
    assert report.synchronized
    start = report.t_sync + 5.0
    window = (traj.times >= start) & (traj.times <= start + 4.0 * np.pi)
    radii = [fit_circle_radius(traj.positions[window, k, :]) for k in range(6)]
    worst = max(abs(r - 2.0) for r in radii)
    _verdict(8, worst < 0.02, f"orbit radii within {worst:.4f} of 2.0 m")


def test_criterion_09_lyapunov_monotonicity():
    """The active potential never increases (1e-9 slack) for negative gains,
    raw or saturated, mean-field or ring."""
    worst = -np.inf
    runs = [
        six_agent_config("set1", t_max=60.0),
        six_agent_config("set1", t_max=60.0, topology=ring_graph(6)),
        six_agent_config("set2", t_max=60.0, u_max=0.1, saturate=True),
        six_agent_config("set2", t_max=60.0, topology=ring_graph(6), u_max=0.1, saturate=True),
    ]
    for cfg in runs:
        traj, _ = simulate(cfg)
        values = traj.potential if cfg.topology is None else traj.graph_potential
        worst = max(worst, float(np.max(np.diff(values))))
    _verdict(9, worst <= 1e-9, f"largest potential increase {worst:.3e} <= 1e-9")


def test_criterion_10_gradient_and_hessian_numerics():
    """Analytic gradients match finite differences to 1e-6; the
    classification matrix equals the finite-difference Hessian up to global
    sign (1e-5); the saddle witness value is -2|p| to 1e-10."""
    rng = np.random.default_rng(1010)

    def fd_grad(f, theta, h=1e-6):
        g = np.zeros_like(theta)
        for k in range(theta.size):
            e = np.zeros_like(theta)
            e[k] = h
            g[k] = (f(theta + e) - f(theta - e)) / (2.0 * h)
        return g

    def fd_hess(theta, h=1e-4):
        n = theta.size
        out = np.zeros((n, n))
        for j in range(n):
            ej = np.zeros(n)
            ej[j] = h
            out[j, j] = (
                alignment_potential(theta + ej)
                - 2.0 * alignment_potential(theta)
                + alignment_potential(theta - ej)
            ) / h**2
            for k in range(j + 1, n):
                ek = np.zeros(n)
                ek[k] = h
                v = (
                    alignment_potential(theta + ej + ek)
                    - alignment_potential(theta + ej - ek)
                    - alignment_potential(theta - ej + ek)
                    + alignment_potential(theta - ej - ek)
                ) / (4.0 * h**2)
                out[j, k] = out[k, j] = v
        return out

    grad_err = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        theta = rng.uniform(-np.pi, np.pi, n)
        grad_err = max(
            grad_err,
            float(np.max(np.abs(alignment_potential_grad(theta) - fd_grad(alignment_potential, theta)))),
        )
        if n >= 3:
            lap = laplacian(ring_graph(n))
            grad_err = max(
                grad_err,
                float(
                    np.max(
                        np.abs(
                            laplacian_potential_grad(theta, lap)
                            - fd_grad(lambda t: laplacian_potential(t, lap), theta)
                        )
                    )
                ),
            )

    hess_err = 0.0
    for _ in range(15):
        n = int(rng.integers(2, 9))
        theta = rng.uniform(-np.pi, np.pi, n)
        hess_err = max(
            hess_err, float(np.max(np.abs(critical_point_hessian(theta) + fd_hess(theta))))
        )

    witness_err = 0.0
    for n in range(3, 9):
        for m in range(1, (n - 1) // 2 + 1):
            theta = np.array([0.7 + np.pi] * m + [0.7] * (n - m))
            q = np.zeros(n)
            q[-2], q[-1] = -1.0, 1.0
            witness = float(q @ critical_point_hessian(theta) @ q)
            witness_err = max(witness_err, abs(witness - (-2.0 * (n - 2 * m) / n)))

    ok = grad_err < 1e-6 and hess_err < 1e-5 and witness_err < 1e-10
    _verdict(
        10,
        ok,
        f"grad FD err {grad_err:.2e}; hessian sign-flip err {hess_err:.2e}; "
        f"witness err {witness_err:.2e}",
    )


def test_criterion_11_topology_contrast():
    """Strict ordering t_sync(ring) > t_sync(mean-field) for the six-agent
    gain sets. Structurally false under the implemented laws (the neighbor
    law carries no 1/N), so this criterion is expected to fail; see the
    module docstring."""
    results = {}
    for topo_name, topo in (("complete", None), ("ring", ring_graph(6))):
        cfg = six_agent_config("set1", t_max=60.0, topology=topo, record_stride=5)
        _, report = simulate(cfg)
        assert report.synchronized
        results[topo_name] = report.t_sync
    ok = results["ring"] > results["complete"]
    _verdict(
        11,
        ok,
        f"t_sync ring {results['ring']:.2f}s vs mean-field {results['complete']:.2f}s "
        "(strict ordering ring > mean-field)",
    )


def test_criterion_12_positive_gain_exploration():
    """The mixed-sign six-agent gain set synchronizes outside the initial
    (-60, 60) deg arc."""
    cfg = six_agent_config("set3", t_max=200.0, record_stride=5)
    _, report = simulate(cfg)
    outside = report.synchronized and not (
        -np.pi / 3 < report.final_heading_common < np.pi / 3
    )
    final_deg = np.degrees(report.final_heading_common) if report.synchronized else float("nan")
    _verdict(12, outside, f"synchronized at {final_deg:.2f} deg, outside (-60, 60)")
