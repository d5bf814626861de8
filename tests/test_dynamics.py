import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contractive import (
    FockVector,
    InvalidParameterError,
    MomentSummary,
    NotContractiveError,
    PhysicalScales,
    SqueezeParams,
    TruncationError,
    contraction_window,
    evolve_free_mass,
    evolve_oscillator,
    lattice_phi,
    make_scs,
    number_state,
    random_state,
    rql_band,
    schrodinger_oracle,
    scs_predicted_moments,
    summarize,
)

from conftest import dense_ladder, free_mass_oracle_reference

HBAR1 = PhysicalScales()


def test_scales_validation():
    with pytest.raises(InvalidParameterError):
        PhysicalScales(hbar=0.0)
    with pytest.raises(InvalidParameterError):
        PhysicalScales(mass=-1.0)
    s = PhysicalScales(hbar=2.0, mass=3.0, omega=0.5)
    assert abs(s.var_x_scale() - 2.0 / 1.5) < 1e-15
    assert abs(s.var_p_scale() - 3.0) < 1e-15
    assert s.cov_scale() == 2.0


@pytest.mark.parametrize("name", ["hbar", "mass", "omega"])
@pytest.mark.parametrize("value", [True, "1", 1j, None])
def test_scales_reject_non_real(name, value):
    with pytest.raises(InvalidParameterError, match=name):
        PhysicalScales(**{name: value})


def test_scales_store_numpy_and_int_values_as_float():
    s = PhysicalScales(hbar=np.float64(2.0), mass=3, omega=np.float32(0.5))
    assert (s.hbar, s.mass, s.omega) == (2.0, 3.0, 0.5)
    assert all(type(v) is float for v in (s.hbar, s.mass, s.omega))


def test_vacuum_oscillator_constant():
    summary = summarize(number_state(0, 16))
    times = np.linspace(0.0, 2 * math.pi, 40)
    trace = evolve_oscillator(summary, 1.0, times)
    assert np.max(np.abs(trace.var_x - 0.5)) < 1e-12
    # degenerate band: saturated product with zero covariance
    assert np.max(trace.rql_upper - trace.rql_lower) < 1e-12
    assert trace.sql is None
    assert trace.system == "oscillator"


@pytest.mark.parametrize("omega", [math.inf, math.nan, 0.0, -1.0, True, "1"])
def test_oscillator_rejects_bad_omega(omega):
    # omega = inf used to come back as a var_x of [nan]
    with pytest.raises(InvalidParameterError):
        evolve_oscillator(summarize(number_state(0, 16)), omega, [0.5])


def test_oscillator_accepts_numpy_omega():
    summary = summarize(number_state(1, 16))
    got = evolve_oscillator(summary, np.float32(2.0), [0.3])
    want = evolve_oscillator(summary, 2.0, [0.3])
    assert np.array_equal(got.var_x, want.var_x)


def test_gcs_oscillator_time_independent():
    phi = lattice_phi((1.0, 1.0))
    summary = summarize(phi.state.padded(16))
    times = np.linspace(0.0, 4 * math.pi, 81)
    trace = evolve_oscillator(summary, 1.0, times)
    assert np.max(np.abs(trace.var_x - (phi.n_bar + 0.5))) < 1e-12


def test_oscillator_quarter_period():
    # x and p swap roles after a quarter period
    summary = scs_predicted_moments(SqueezeParams(r=0.5, theta=0.0))
    trace = evolve_oscillator(summary, 1.0, [0.0, math.pi / 2])
    assert abs(trace.var_x[0] - 0.5 * math.exp(-1.0)) < 1e-12
    assert abs(trace.var_x[1] - 0.5 * math.exp(1.0)) < 1e-12


def test_oscillator_periodicity():
    summary = scs_predicted_moments(SqueezeParams(r=0.4, theta=1.2))
    omega = 2.0
    t0 = np.array([0.1, 0.7, 1.3])
    a = evolve_oscillator(summary, omega, t0)
    b = evolve_oscillator(summary, omega, t0 + math.pi / omega)
    assert np.max(np.abs(a.var_x - b.var_x)) < 1e-12


def test_scs_rides_oscillator_band_edge():
    # extremal states with cov < 0 touch the lower bound where sin(2wt) > 0
    summary = scs_predicted_moments(SqueezeParams(r=0.5, theta=math.pi / 2))
    times = np.linspace(0.01, math.pi / 2 - 0.01, 25)
    trace = evolve_oscillator(summary, 1.0, times)
    assert np.max(np.abs(trace.var_x - trace.rql_lower)) < 1e-12
    assert np.all(trace.var_x <= trace.rql_upper + 1e-12)


def test_free_mass_vacuum_spread():
    summary = summarize(number_state(0, 16))
    times = np.linspace(0.0, 3.0, 13)
    trace = evolve_free_mass(summary, HBAR1, times)
    want = 0.5 * (1.0 + times**2)
    assert np.max(np.abs(trace.var_x - want)) < 1e-12
    # vacuum saturates: band collapses onto the trajectory
    assert np.max(trace.rql_upper - trace.rql_lower) < 1e-12
    # standard limit: max(center, hbar t / m)
    assert np.allclose(trace.sql, np.maximum(want, times))


def test_free_mass_scaled_units():
    scales = PhysicalScales(hbar=2.0, mass=3.0, omega=0.5)
    summary = summarize(number_state(0, 16))
    t = 1.2
    trace = evolve_free_mass(summary, scales, [0.0, t])
    vx0 = 0.5 * scales.var_x_scale()
    vp0 = 0.5 * scales.var_p_scale()
    assert abs(trace.var_x[0] - vx0) < 1e-12
    assert abs(trace.var_x[1] - (vx0 + (t / 3.0) ** 2 * vp0)) < 1e-12


def test_free_mass_expanding_mirror():
    # cov > 0 runs the contractive history backwards
    con = MomentSummary(var_x=1.0, var_p=1.0, cov=-math.sqrt(3.0), n_bar=0.5)
    exp_ = MomentSummary(var_x=1.0, var_p=1.0, cov=+math.sqrt(3.0), n_bar=0.5)
    times = np.linspace(0.0, 2.0, 9)
    a = evolve_free_mass(con, HBAR1, times)
    b = evolve_free_mass(exp_, HBAR1, -times)
    assert np.max(np.abs(a.var_x - b.var_x)) < 1e-12


def test_extremal_contraction_window():
    summary = MomentSummary(var_x=1.0, var_p=1.0, cov=-math.sqrt(3.0), n_bar=0.5)
    window = contraction_window(summary, HBAR1)
    assert abs(window.t_m - math.sqrt(3.0)) < 1e-12
    assert abs(window.t_min - math.sqrt(3.0) / 2) < 1e-12
    assert abs(window.var_at_min - 0.25) < 1e-12
    ret = evolve_free_mass(summary, HBAR1, [window.t_m]).var_x[0]
    assert abs(ret - summary.var_x) < 1e-12


def test_contraction_window_scs():
    # 2 tanh(r0) for a contractive SCS with theta = pi/2
    summary = scs_predicted_moments(SqueezeParams(r=0.5, theta=math.pi / 2))
    window = contraction_window(summary, HBAR1)
    assert abs(window.t_m - 2.0 * math.tanh(1.0)) < 1e-12


def test_contraction_window_requires_negative_cov():
    with pytest.raises(NotContractiveError):
        contraction_window(summarize(number_state(0, 16)), HBAR1)
    with pytest.raises(NotContractiveError):
        contraction_window(
            MomentSummary(var_x=1.0, var_p=1.0, cov=0.5, n_bar=0.5), HBAR1
        )


def test_rql_band_consistency():
    summary = scs_predicted_moments(SqueezeParams(r=0.3, theta=2.0))
    for system in ("oscillator", "free-mass"):
        lo, hi = rql_band(summary, system, HBAR1, 0.8)
        assert lo <= hi
        if system == "oscillator":
            trace = evolve_oscillator(summary, 1.0, [0.8])
        else:
            trace = evolve_free_mass(summary, HBAR1, [0.8])
        assert abs(lo - trace.rql_lower[0]) < 1e-15
        assert abs(hi - trace.rql_upper[0]) < 1e-15
        assert lo - 1e-12 <= trace.var_x[0] <= hi + 1e-12
    with pytest.raises(InvalidParameterError):
        rql_band(summary, "pendulum", HBAR1, 0.1)


def test_rql_band_oscillator_values():
    # half-width is |sin 2wt| sqrt(4 vx vp - 1) / 2 around the rotated center
    summary = scs_predicted_moments(SqueezeParams(r=0.5, theta=math.pi / 2))
    t = 0.37
    lo, hi = rql_band(summary, "oscillator", HBAR1, t)
    center = (
        math.cos(t) ** 2 * summary.var_x + math.sin(t) ** 2 * summary.var_p
    )
    half = 0.5 * abs(math.sin(2 * t)) * math.sqrt(
        4 * summary.var_x * summary.var_p - 1.0
    )
    assert abs(lo - (center - half)) < 1e-12
    assert abs(hi - (center + half)) < 1e-12


def test_trace_csv_format():
    summary = summarize(number_state(0, 16))
    times = np.linspace(0.0, 1.0, 3)

    buf = io.StringIO()
    evolve_oscillator(summary, 1.0, times).to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,var_x,rql_lower,rql_upper,sql"
    assert len(lines) == 4
    # oscillator traces leave the sql column empty
    assert all(line.endswith(",") for line in lines[1:])
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    assert abs(float(row[1]) - 0.5) < 1e-12

    buf = io.StringIO()
    evolve_free_mass(summary, HBAR1, times).to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert all(line.split(",")[4] != "" for line in lines[1:])


def test_trace_csv_file_round_trip(tmp_path):
    summary = scs_predicted_moments(SqueezeParams(r=0.2, theta=1.0))
    trace = evolve_free_mass(summary, HBAR1, np.linspace(0, 2, 5))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (5, 5)
    assert np.max(np.abs(rows[:, 1] - trace.var_x)) < 1e-15
    # deterministic output, plain LF endings on every platform
    assert b"\r" not in path.read_bytes()
    path2 = tmp_path / "trace2.csv"
    trace.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_oracle_matches_analytic_oscillator():
    state = make_scs(0.6 + 0.3j, SqueezeParams(r=0.5, theta=1.7), dim=128)
    summary = summarize(state)
    for t in (0.0, 0.4, 1.1, 2.9):
        got = schrodinger_oracle(state, "oscillator", HBAR1, t)
        want = evolve_oscillator(summary, 1.0, [t]).var_x[0]
        assert abs(got.var_x - want) < 1e-9


def test_oracle_matches_analytic_free_mass():
    state = make_scs(0.3 - 0.4j, SqueezeParams(r=0.4, theta=2.4), dim=96)
    summary = summarize(state)
    for t in (0.0, 0.5, 1.3):
        got = schrodinger_oracle(state, "free-mass", HBAR1, t)
        want = evolve_free_mass(summary, HBAR1, [t]).var_x[0]
        assert abs(got.var_x - want) < 1e-6


def test_oracle_free_mass_preserves_momentum_moments():
    state = make_scs(0.2, SqueezeParams(r=0.3, theta=0.8), dim=96)
    before = summarize(state)
    after = schrodinger_oracle(state, "free-mass", HBAR1, 1.7)
    assert abs(after.var_p - before.var_p) < 1e-7


@given(
    dim=st.integers(16, 128),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.0, 1.42),
)
@settings(max_examples=40, deadline=None)
@example(dim=112, seed=73294, t=1.25)  # var_x ~ 22 differs by 1.25e-12
def test_free_mass_oracle_matches_retired_complex_product(dim, seed, t):
    state = random_state(dim, np.random.default_rng(seed))
    got = schrodinger_oracle(state, "free-mass", HBAR1, t)
    want = summarize(FockVector(free_mass_oracle_reference(state.amps, t)))
    for name in ("var_x", "var_p", "cov", "n_bar"):
        value = getattr(want, name)
        assert abs(getattr(got, name) - value) < 1e-12 * max(1.0, abs(value)), name


def test_free_mass_oracle_rejects_outgrown_embedding():
    state = random_state(64, np.random.default_rng(3))
    with pytest.raises(TruncationError):
        schrodinger_oracle(state, "free-mass", HBAR1, 3.0)


def test_oracle_unknown_system():
    with pytest.raises(InvalidParameterError):
        schrodinger_oracle(number_state(0, 16), "pendulum", HBAR1, 0.1)


@pytest.mark.parametrize("system", ["oscillator", "free-mass"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, True, "0.1", 1j])
def test_oracle_rejects_bad_time(system, t, recwarn):
    with pytest.raises(InvalidParameterError, match="t must"):
        schrodinger_oracle(number_state(0, 16), system, HBAR1, t)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_p_squared_matches_dense_product():
    # the banded p^2 against the product of dense truncated quadratures,
    # top corner included
    from contractive.dynamics import _p_squared_eig
    for dim in (64, 256):
        a = dense_ladder(dim)
        p = (a - a.conj().T) / (1j * np.sqrt(2))
        evals, evecs = _p_squared_eig(dim)
        rebuilt = (evecs * evals) @ evecs.T
        assert np.max(np.abs(rebuilt - (p @ p).real)) < 1e-10
