"""Release gate: nine numbered end-to-end checks with pinned tolerances.

Each test prints one PASS/FAIL line in the terminal summary (see conftest).
Tolerances and budgets here are contractual; do not loosen them to make a
failing build green.
"""

import math
import time

import numpy as np

from contractive import (
    MomentSummary,
    PhiSpec,
    PhysicalScales,
    SqueezeParams,
    audit_extremal,
    check_overcompleteness,
    contraction_window,
    displace,
    evolve_free_mass,
    evolve_oscillator,
    lattice_phi,
    lattice_phi_for_nbar,
    make_scs,
    make_sgcs,
    random_state,
    schrodinger_oracle,
    scs_predicted_moments,
    sgcs_predicted_moments,
    solve_phi,
    summarize,
)
from contractive.errors import DegenerateSpecError
from contractive.fock import index_sums

from conftest import minimal_band_amps

HBAR1 = PhysicalScales()


def _draw_alpha(rng, scale=1.4):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def _draw_seed(rng, n_bar_max):
    """Random generic seed: lattice family or a solved band."""
    if rng.random() < 0.5:
        shells = int(rng.integers(1, 3))
        target = float(rng.uniform(0.0, min(n_bar_max, 3.0 * shells)))
        return lattice_phi_for_nbar(target, shells)
    while True:
        n = int(rng.integers(0, 4))
        N = int(rng.integers(n + 3, 10))
        free = tuple(complex(rng.normal(), rng.normal()) for _ in range(N - 1 - n))
        try:
            phi = solve_phi(PhiSpec(n=n, N=N, free=free))
        except DegenerateSpecError:
            continue
        if phi.n_bar <= n_bar_max:
            return phi


def test_criterion_1_scs_moment_agreement():
    """200 random squeezed coherent states at cutoff 256: measured moments
    match the closed forms to 1e-8, in under 30 s."""
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        alpha = _draw_alpha(rng)
        params = SqueezeParams(
            r=float(rng.uniform(0.0, 1.0)),
            theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        got = summarize(make_scs(alpha, params, dim=256))
        want = scs_predicted_moments(params)
        worst = max(
            worst,
            abs(got.var_x - want.var_x),
            abs(got.var_p - want.var_p),
            abs(got.cov - want.cov),
        )
    elapsed = time.perf_counter() - start
    assert worst < 1e-8, f"worst moment deviation {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_gcs_variance_time_independent():
    """50 displaced generic seeds with n_bar <= 10: position variance under
    oscillator evolution stays constant to 1e-8 over two periods (checked
    against direct wavefunction evolution), in under 10 s."""
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    times = np.linspace(0.0, 4.0 * math.pi, 9)
    worst = 0.0
    for _ in range(50):
        phi = _draw_seed(rng, n_bar_max=10.0)
        state = displace(phi.state.padded(128), _draw_alpha(rng))
        base = summarize(state)
        assert abs(base.var_x - (phi.n_bar + 0.5)) < 1e-8
        trace = evolve_oscillator(base, 1.0, times)
        worst = max(worst, float(np.ptp(trace.var_x)))
        for t in times[1::3]:
            got = schrodinger_oracle(state, "oscillator", HBAR1, float(t))
            worst = max(worst, abs(got.var_x - base.var_x))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8, f"worst variance drift {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_band_solver_residuals():
    """100 random band specs (n <= 4, N <= 12): both ladder moments of the
    solved seed vanish to 1e-10, and the general solver agrees with the
    minimal-band closed form to 1e-12."""
    rng = np.random.default_rng(3)
    solved = 0
    minimal_checked = 0
    while solved < 100:
        n = int(rng.integers(0, 5))
        force_minimal = solved % 3 == 0
        N = n + 3 if force_minimal else int(rng.integers(n + 3, 13))
        free = tuple(
            complex(rng.normal(), rng.normal()) for _ in range(N - 1 - n)
        )
        try:
            phi = solve_phi(PhiSpec(n=n, N=N, free=free))
        except DegenerateSpecError:
            continue
        solved += 1
        first, second = index_sums(phi.state.amps)[:2]
        assert abs(first) < 1e-10
        assert abs(second) < 1e-10
        if N == n + 3:
            twin = minimal_band_amps(n, free[0], free[1], dim=N + 1)
            assert np.max(np.abs(phi.state.amps - twin)) < 1e-12
            minimal_checked += 1
    assert minimal_checked >= 30


def test_criterion_4_sgcs_moment_agreement():
    """100 squeezed generic states (seed n_bar <= 6) at cutoff 256: moments
    match the n_bar-lifted closed forms to 1e-8, including the covariance
    identity cov = -sgn(sin theta) sqrt(4 vx vp - (2 n_bar + 1)^2)."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for case in range(100):
        phi = _draw_seed(rng, n_bar_max=6.0)
        if case % 5 == 0:
            theta = 0.0
        else:
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            while abs(math.sin(theta)) < 0.01:
                theta = float(rng.uniform(0.0, 2.0 * math.pi))
        params = SqueezeParams(r=float(rng.uniform(0.0, 1.0)), theta=theta)
        state = make_sgcs(_draw_alpha(rng), params, phi.state, dim=256)
        got = summarize(state)
        want = sgcs_predicted_moments(phi.n_bar, params)
        worst = max(
            worst,
            abs(got.var_x - want.var_x),
            abs(got.var_p - want.var_p),
            abs(got.cov - want.cov),
        )
        root = math.sqrt(
            max(4.0 * got.var_x * got.var_p - (2.0 * phi.n_bar + 1.0) ** 2, 0.0)
        )
        sin_t = math.sin(theta)
        expected_cov = -math.copysign(root, sin_t) if sin_t != 0 else 0.0
        worst = max(worst, abs(got.cov - expected_cov))
    assert worst < 1e-8, f"worst deviation {worst:.3e}"


def test_criterion_5_rql_containment_and_saturation():
    """500 random states, 20 times, both systems: the variance never leaves
    its rigorous band (slack 1e-9). Squeezed coherent states touch the band
    edge to 1e-7 and pass the eigen-defect audit to 1e-7."""
    rng = np.random.default_rng(5)
    osc_times = np.linspace(0.0, 2.0 * math.pi, 20)
    fm_times = np.linspace(0.0, 3.0, 20)
    worst_violation = -math.inf
    for _ in range(500):
        summary = summarize(random_state(64, rng))
        for trace in (
            evolve_oscillator(summary, 1.0, osc_times),
            evolve_free_mass(summary, HBAR1, fm_times),
        ):
            viol = np.maximum(
                trace.rql_lower - trace.var_x, trace.var_x - trace.rql_upper
            )
            worst_violation = max(worst_violation, float(np.max(viol)))
    assert worst_violation <= 1e-9, f"band violation {worst_violation:.3e}"

    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(40):
        params = SqueezeParams(
            r=float(rng.uniform(0.05, 1.0)),
            theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        state = make_scs(_draw_alpha(rng), params, dim=192)
        summary = summarize(state)
        half = 0.5 * math.sqrt(max(4 * summary.var_x * summary.var_p - 1.0, 0.0))
        worst_gap = max(worst_gap, abs(half - 0.5 * abs(summary.cov)))
        worst_residual = max(worst_residual, audit_extremal(state).residual)
    assert worst_gap < 1e-7, f"band-edge gap {worst_gap:.3e}"
    assert worst_residual < 1e-7, f"eigen defect {worst_residual:.3e}"


def test_criterion_6_contraction_window_benchmark():
    """Unit-variance maximally contractive packet: return time sqrt(3),
    minimum 1/4 at sqrt(3)/2, variance back to 1 at the return time, to
    1e-10 analytically and 1e-4 through the wavefunction oracle."""
    summary = MomentSummary(
        var_x=1.0, var_p=1.0, cov=-math.sqrt(3.0), n_bar=0.5
    )
    window = contraction_window(summary, HBAR1)
    assert abs(window.t_m - math.sqrt(3.0)) < 1e-10
    assert abs(window.t_min - math.sqrt(3.0) / 2.0) < 1e-10
    assert abs(window.var_at_min - 0.25) < 1e-10
    back = evolve_free_mass(summary, HBAR1, [window.t_m]).var_x[0]
    assert abs(back - 1.0) < 1e-10

    # same moments realized as a squeezed coherent state: cosh(2r) = 2,
    # theta = pi/2 gives var_x = var_p = 1, cov = -sqrt(3)
    r = 0.5 * math.acosh(2.0)
    state = make_scs(0.0, SqueezeParams(r=r, theta=math.pi / 2.0), dim=128)
    got_min = schrodinger_oracle(state, "free-mass", HBAR1, window.t_min)
    got_back = schrodinger_oracle(state, "free-mass", HBAR1, window.t_m)
    assert abs(got_min.var_x - 0.25) < 1e-4
    assert abs(got_back.var_x - 1.0) < 1e-4


def test_criterion_7_sub_sql_scaling():
    """Extremal contractive packets with var_x = var_p = k beat the standard
    ballistic floor by ~4k: the normalized minimum 4 m k var_X(t) / (t hbar^2)
    lands in [1, 1 + 10/k^2] at the optimal time t = m k / var_P."""
    for k in (5.0, 10.0, 50.0):
        summary = MomentSummary(
            var_x=k, var_p=k, cov=-math.sqrt(4.0 * k * k - 1.0), n_bar=k - 0.5
        )
        t = HBAR1.mass * k / summary.var_p
        var_t = evolve_free_mass(summary, HBAR1, [t]).var_x[0]
        ratio = 4.0 * HBAR1.mass * k * var_t / (t * HBAR1.hbar**2)
        assert 1.0 <= ratio <= 1.0 + 10.0 / k**2, f"k={k}: ratio {ratio}"
        # explicit sub-ballistic statement
        assert var_t < HBAR1.hbar * t / HBAR1.mass


def test_criterion_8_overcompleteness_monte_carlo():
    """Monte Carlo resolution of the identity for the squeezed two-shell
    seed family (probe block 6): deviation below 5e-3 at a million samples
    and shrinking consistently with the 1/sqrt(budget) rate, under 2 min."""
    phi = lattice_phi([1.0, 1.0]).state
    params = SqueezeParams(r=0.3, theta=0.0)
    start = time.perf_counter()
    deviations = []
    for budget in (62_500, 250_000, 1_000_000):
        report = check_overcompleteness(
            phi, params, probe_dim=6, budget=budget,
            method="monte-carlo", seed=0,
        )
        deviations.append(report.max_abs_deviation)
    elapsed = time.perf_counter() - start
    # measured with this seed: 1.74e-2, 5.50e-3, 2.78e-3
    assert deviations[2] < 5e-3, f"deviation {deviations[2]:.4e} at 1e6"
    assert deviations[1] < 0.75 * deviations[0], f"no decay: {deviations}"
    assert deviations[2] < 0.75 * deviations[1], f"no decay: {deviations}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_9_schrodinger_oracle_agreement():
    """Direct wavefunction evolution agrees with the analytic variance law:
    32 states x 32 times to 1e-6 for the oscillator, 8 Gaussian-family
    states to 1e-4 for the free mass."""
    rng = np.random.default_rng(9)
    times = np.linspace(0.0, 2.0 * math.pi, 32)

    states = [random_state(64, rng) for _ in range(12)]
    for _ in range(10):
        params = SqueezeParams(
            r=float(rng.uniform(0.0, 0.8)),
            theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        states.append(make_scs(_draw_alpha(rng, 1.0), params, dim=128))
    for _ in range(10):
        phi = _draw_seed(rng, n_bar_max=6.0)
        states.append(displace(phi.state.padded(128), _draw_alpha(rng, 1.0)))
    assert len(states) == 32

    worst = 0.0
    for state in states:
        base = summarize(state)
        trace = evolve_oscillator(base, 1.0, times)
        for i, t in enumerate(times):
            got = schrodinger_oracle(state, "oscillator", HBAR1, float(t))
            worst = max(worst, abs(got.var_x - trace.var_x[i]))
    assert worst < 1e-6, f"oscillator oracle mismatch {worst:.3e}"

    gaussians = [
        make_scs(0.0, SqueezeParams(r=0.0), dim=96),
        make_scs(0.9, SqueezeParams(r=0.0), dim=96),
        make_scs(-0.4 + 0.6j, SqueezeParams(r=0.0), dim=96),
        make_scs(0.5, SqueezeParams(r=0.5, theta=0.0), dim=96),
        make_scs(0.2 - 0.3j, SqueezeParams(r=0.6, theta=math.pi / 2), dim=96),
        make_scs(0.0, SqueezeParams(r=0.8, theta=1.0), dim=96),
        make_scs(0.7, SqueezeParams(r=0.4, theta=4.0), dim=96),
        make_scs(-0.5j, SqueezeParams(r=0.3, theta=2.2), dim=96),
    ]
    worst = 0.0
    for state in gaussians:
        base = summarize(state)
        for t in (0.3, 0.9, 1.7):
            got = schrodinger_oracle(state, "free-mass", HBAR1, t)
            want = evolve_free_mass(base, HBAR1, [t]).var_x[0]
            worst = max(worst, abs(got.var_x - want))
    assert worst < 1e-4, f"free-mass oracle mismatch {worst:.3e}"
