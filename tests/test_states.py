import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contractive import (
    FockVector,
    InvalidDimensionError,
    InvalidParameterError,
    OutOfRangeError,
    SeedConditionError,
    SqueezeParams,
    TruncationError,
    classify,
    displace,
    extremal_fock,
    lattice_phi,
    make_scs,
    make_sgcs,
    number_state,
    random_state,
    squeeze,
    summarize,
)
from contractive.errors import CutoffReachedError, require_complex, require_real
from contractive.fock import TAIL_MASS_TOL
from contractive.states import AUTO_DIM_MAX, _expm_band

from conftest import (
    coherent_amps,
    dense_ladder,
    dense_quadratures,
    expect,
    grid_extremal_amps,
    hermite_basis,
    ladder_moments_direct,
    position_grid,
    squeezed_vacuum_amps,
    trapezoid,
    wavefunction,
)


def test_squeeze_params_validation():
    with pytest.raises(OutOfRangeError):
        SqueezeParams(r=-0.1)
    with pytest.raises(InvalidParameterError):
        SqueezeParams(r=float("nan"))


@pytest.mark.parametrize("kwargs", [
    {"r": True}, {"r": "0.1"}, {"r": None}, {"r": 0.1, "theta": 1j},
    {"r": 0.1, "theta": False}, {"r": 0.1, "theta": "0"},
])
def test_squeeze_params_reject_non_real(kwargs):
    with pytest.raises(InvalidParameterError):
        SqueezeParams(**kwargs)


def test_squeeze_params_store_floats():
    params = SqueezeParams(r=np.float64(0.25), theta=1)
    assert (params.r, params.theta) == (0.25, 1.0)
    assert type(params.r) is float and type(params.theta) is float


@given(r=st.floats(0.0, 2.0), theta=st.floats(-7.0, 7.0))
@settings(max_examples=60, deadline=None)
def test_bogoliubov_normalization(r, theta):
    # mu^2 - |nu|^2 = 1 for any squeeze parameters.
    params = SqueezeParams(r=r, theta=theta)
    assert abs(params.mu**2 - abs(params.nu) ** 2 - 1.0) < 1e-10


def test_displacement_zero_is_identity():
    op = _expm_band(np.eye(24), 1, 0.0)
    assert np.allclose(op, np.eye(24), atol=1e-14)


def test_displaced_vacuum_matches_recursion():
    alpha = 1.1 - 0.4j
    got = displace(number_state(0, 64), alpha)
    want = coherent_amps(alpha, 64)
    assert np.max(np.abs(got.amps - want)) < 1e-12


def test_displacement_unitary_on_states():
    state = number_state(2, 96)
    moved = displace(state, 0.7 + 0.2j)
    assert abs(moved.norm() - 1.0) < 1e-12
    back = displace(moved, -(0.7 + 0.2j))
    assert np.max(np.abs(back.amps - state.amps)) < 1e-10


def test_displaced_number_state_mean():
    alpha = 0.9 + 0.5j
    state = displace(number_state(2, 128), alpha)
    assert abs(expect(state.amps, dense_ladder(128)) - alpha) < 1e-10


def test_squeezed_vacuum_matches_recursion():
    for theta in (0.0, 1.3):
        params = SqueezeParams(r=0.6, theta=theta)
        got = squeeze(number_state(0, 64), params)
        want = squeezed_vacuum_amps(0.6, theta, 64)
        assert np.max(np.abs(got.amps - want)) < 1e-8
        # odd rungs stay empty
        assert np.max(np.abs(got.amps[1::2])) < 1e-12


def test_squeeze_zero_r_is_identity():
    state = random_state(32, np.random.default_rng(1))
    out = squeeze(state, SqueezeParams(r=0.0, theta=2.0))
    assert np.max(np.abs(out.amps - state.amps)) < 1e-14


def test_squeezed_vacuum_variance():
    r = 0.45
    state = squeeze(number_state(0, 64), SqueezeParams(r=r, theta=0.0))
    x, _ = dense_quadratures(64)
    var_x = expect(state.amps, x @ x)
    assert abs(var_x - 0.5 * math.exp(-2 * r)) < 1e-12


def test_displace_raises_on_unresolved_output():
    with pytest.raises(TruncationError):
        displace(number_state(0, 16), 3.0)


@pytest.mark.parametrize("dim", [64, 128, 256])
def test_displacement_never_wraps_around_the_cutoff(dim):
    # D(alpha)|0> has n_bar = |alpha|^2 exactly; past alpha ~ 1.4 sqrt(dim)
    # the truncated exponential wraps weight back below the top decile and
    # the tail check alone would pass a wrong state
    rejected = []
    for rho in np.arange(0.5, 60.01, 0.5):
        for phase in (0.0, 2.1):
            alpha = rho * complex(math.cos(phase), math.sin(phase))
            try:
                state = displace(number_state(0, dim), alpha)
            except TruncationError:
                rejected.append(rho)
                continue
            assert abs(summarize(state).n_bar - rho**2) < 1e-6, alpha
    # both outcomes occur: the scan is not vacuous either way
    assert math.sqrt(dim) / 4.0 < min(rejected) < 60.0


def test_displacement_reaching_cutoff_is_rejected_up_front():
    dim = 64
    with pytest.raises(CutoffReachedError) as excinfo:
        displace(number_state(0, dim), 1e5)
    assert excinfo.value.n_bar == pytest.approx(1e10)
    # the exact mean n_bar + 2 Re(alpha* <a>) + |alpha|^2 counts the input's
    # own displacement: from alpha = 4 (n_bar 16), a step of -4 returns to
    # the vacuum while a step of +4 reaches n_bar 64 >= 0.9 * 64, though
    # |alpha|^2 = 16 alone would not
    start = displace(number_state(0, dim), 4.0)
    assert summarize(displace(start, -4.0)).n_bar < 1e-9
    with pytest.raises(CutoffReachedError) as excinfo:
        displace(start, 4.0)
    assert excinfo.value.n_bar == pytest.approx(64.0)


def test_squeeze_reaching_cutoff_is_rejected_up_front():
    dim = 64
    # vacuum: the exact mean is sinh^2 r. r = 2 (13.2) passes the up-front
    # check and fails only the tail check; r = 3 (100.3) is refused first
    with pytest.raises(TruncationError) as excinfo:
        squeeze(number_state(0, dim), SqueezeParams(r=2.0))
    assert not isinstance(excinfo.value, CutoffReachedError)
    with pytest.raises(CutoffReachedError) as excinfo:
        squeeze(number_state(0, dim), SqueezeParams(r=3.0))
    assert excinfo.value.n_bar == pytest.approx(math.sinh(3.0) ** 2)
    # the exact mean n_bar cosh 2r + sinh^2 r - sinh 2r Re(e^{-i theta} <a^2>)
    # counts the input's own <a^2>: from alpha = 6 (n_bar 36) at dim 96,
    # r = 0.5 along theta = 0 lowers it to 13.5, along theta = pi raises it
    # to 98.1, past 0.9 dim = 86.4
    start = displace(number_state(0, 96), 6.0)
    ch, sh = math.cosh(1.0), math.sinh(1.0)
    lowered = summarize(squeeze(start, SqueezeParams(r=0.5))).n_bar
    assert lowered == pytest.approx(36.0 * ch + math.sinh(0.5) ** 2 - 36.0 * sh)
    with pytest.raises(CutoffReachedError) as excinfo:
        squeeze(start, SqueezeParams(r=0.5, theta=math.pi))
    assert excinfo.value.n_bar == pytest.approx(36.0 * ch + math.sinh(0.5) ** 2 + 36.0 * sh)
    # an r whose cosh 2r overflows is past any cutoff, and refused at once
    with pytest.raises(CutoffReachedError) as excinfo:
        squeeze(number_state(0, dim), SqueezeParams(r=1e10))
    assert excinfo.value.n_bar == math.inf


def test_make_scs_auto_dim_resolved():
    state = make_scs(1.5 + 0.5j, SqueezeParams(r=0.8, theta=2.0))
    assert state.tail_mass() < 1e-8
    assert abs(state.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("seeded", [False, True], ids=["vacuum", "lattice"])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("r", [0.25 * k for k in range(11)])
def test_auto_dim_holds_squeezed_tail(r, alpha, seeded):
    # the squeezed vacuum's tail falls only by tanh^2 r per two levels
    params = SqueezeParams(r=r)
    if seeded:
        state = make_sgcs(alpha, params, lattice_phi([1.0, 1.0]).state)
    else:
        state = make_scs(alpha, params)
    assert state.tail_mass() < TAIL_MASS_TOL


@pytest.mark.parametrize("alpha", [6.0, 8.0, 10.0, 20.0])
@pytest.mark.parametrize("r", [0.0, 0.001, 0.1])
def test_auto_dim_holds_displaced_tail(r, alpha):
    # a coherent state's weight spreads about |alpha| levels past its mean
    assert make_scs(alpha, SqueezeParams(r=r)).tail_mass() < TAIL_MASS_TOL


def test_auto_dim_refuses_past_its_ceiling():
    # mean 130^2 is past the top decile of every cutoff up to AUTO_DIM_MAX
    assert 130.0**2 > 0.9 * AUTO_DIM_MAX
    with pytest.raises(OutOfRangeError, match="pass dim"):
        make_scs(130.0, SqueezeParams(r=0.0))


def test_extremal_fock_dim_none_chooses_the_cutoff():
    assert extremal_fock(0.5, dim=None).dim == 64
    # r = inf: no cutoff holds it, so the automatic one is refused
    with pytest.raises(OutOfRangeError, match="pass dim"):
        extremal_fock(complex(1e-300, 1e10), dim=None)
    with pytest.raises(CutoffReachedError):
        extremal_fock(complex(1e-300, 1e10), dim=64)


def test_scs_is_bogoliubov_eigenvector():
    # b = mu a + nu a^dag annihilates the displaced-squeezed vacuum up to
    # beta = mu alpha + nu conj(alpha).
    alpha = 0.8 - 0.6j
    params = SqueezeParams(r=0.7, theta=1.1)
    state = make_scs(alpha, params, dim=128)
    a = dense_ladder(128)
    b = params.mu * a + params.nu * a.conj().T
    beta = params.mu * alpha + params.nu * np.conj(alpha)
    resid = (b - beta * np.eye(128)) @ state.amps
    # the top squeeze-spread rows are truncation noise; check the body
    body = int(128 / (2 * math.exp(2 * params.r)))
    assert np.linalg.norm(resid[:body]) < 1e-8


def test_make_sgcs_vacuum_seed_equals_scs():
    alpha = 0.4 + 0.3j
    params = SqueezeParams(r=0.5, theta=0.9)
    a = make_scs(alpha, params, dim=128)
    b = make_sgcs(alpha, params, number_state(0, 128), dim=128)
    assert np.max(np.abs(a.amps - b.amps)) < 1e-12


def test_make_sgcs_rejects_coherent_seed():
    seed = FockVector(coherent_amps(0.5, 64))
    with pytest.raises(SeedConditionError):
        make_sgcs(0.0, SqueezeParams(r=0.2), seed, dim=128)


@pytest.mark.parametrize("dim", [2, 3, 63])
def test_make_sgcs_dim_below_seed_builds_at_seed_dim(dim):
    seed = lattice_phi([1, 1]).state.padded(64)
    params = SqueezeParams(r=0.2)
    state = make_sgcs(0.1, params, seed, dim=dim)
    assert state.dim == 64
    assert np.array_equal(state.amps, make_sgcs(0.1, params, seed, dim=64).amps)


@pytest.mark.parametrize("builder", ["make_scs", "make_sgcs"])
@pytest.mark.parametrize("dim", [-5, 0])
def test_builders_reject_dim_below_two(builder, dim):
    params = SqueezeParams(r=0.2)
    seed = lattice_phi([1, 1]).state.padded(64)
    with pytest.raises(InvalidDimensionError) as info:
        if builder == "make_scs":
            make_scs(0.1, params, dim=dim)
        else:
            make_sgcs(0.1, params, seed, dim=dim)
    assert str(info.value) == f"dim must be >= 2, got {dim}"


def test_sgcs_centered_bogoliubov_moments():
    # For a seed with <a> = <a^2> = 0 the transformed mode keeps
    # <b - beta> = 0 and <(b - beta)^2> = 0.
    phi = number_state(3, 128)
    alpha = 0.6 + 0.2j
    params = SqueezeParams(r=0.4, theta=2.5)
    state = make_sgcs(alpha, params, phi, dim=192)
    a = dense_ladder(192)
    b = params.mu * a + params.nu * a.conj().T
    beta = params.mu * alpha + params.nu * np.conj(alpha)
    shifted = b - beta * np.eye(192)
    assert abs(expect(state.amps, shifted)) < 1e-8
    assert abs(expect(state.amps, shifted @ shifted)) < 1e-8


def test_vacuum_wavefunction_gaussian():
    grid = position_grid()
    psi = wavefunction(number_state(0, 32).amps, grid)
    want = np.pi ** (-0.25) * np.exp(-0.5 * grid**2)
    assert np.max(np.abs(psi - want)) < 1e-12
    norm = trapezoid(np.abs(psi) ** 2, grid)
    assert abs(norm - 1.0) < 1e-9


def test_hermite_basis_orthonormal():
    grid = position_grid()
    basis = hermite_basis(32, grid)
    gram = trapezoid(basis[:, None, :] * basis[None, :, :], grid, axis=-1)
    assert np.max(np.abs(gram - np.eye(32))) < 1e-9


def test_squeezed_number_wavefunction_closed_form():
    # theta = 0: <x|S(r)|n> = H_n(x/s) exp(-lam x^2 / 2) / sqrt(s h_n),
    # s = mu - nu, lam = (mu + nu)/(mu - nu), h_n = sqrt(pi) 2^n n!.
    r, n = 0.3, 2
    params = SqueezeParams(r=r, theta=0.0)
    state = squeeze(number_state(n, 64), params)
    grid = position_grid()
    psi = wavefunction(state.amps, grid)

    s = math.exp(-r)  # mu - nu at theta = 0
    lam = (params.mu + params.nu.real) / s
    h_n = math.sqrt(math.pi) * 2**n * math.factorial(n)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    herm = np.polynomial.hermite.hermval(grid / s, coeffs)
    want = herm * np.exp(-0.5 * lam * grid**2) / math.sqrt(s * h_n)
    assert np.max(np.abs(psi - want)) < 1e-8


def test_displaced_wavefunction_phase_identity():
    # <x|D(a)psi> = psi(x - sqrt(2) a1) exp(i sqrt(2) a2 (x - a1/sqrt(2)))
    # with a = a1 + i a2.
    a1, a2 = 0.7, -0.4
    alpha = complex(a1, a2)
    base = number_state(1, 96)
    moved = displace(base, alpha)
    grid = position_grid()
    psi_moved = wavefunction(moved.amps, grid)
    psi_base = wavefunction(base.amps, grid - math.sqrt(2.0) * a1)
    phase = np.exp(1j * math.sqrt(2.0) * a2 * (grid - a1 / math.sqrt(2.0)))
    assert np.max(np.abs(psi_moved - psi_base * phase)) < 1e-8


def test_extremal_state_requires_contracting_real_part():
    with pytest.raises(InvalidParameterError):
        extremal_fock(-1.0 + 0.5j)
    with pytest.raises(InvalidParameterError):
        extremal_fock(0.0 + 1.0j)


def test_extremal_lambda_one_is_vacuum():
    state = extremal_fock(1.0 + 0.0j, dim=48)
    want = number_state(0, 48)
    overlap = abs(np.vdot(state.amps, want.amps))
    assert abs(overlap - 1.0) < 1e-10


def test_extremal_moments_and_means():
    lam = 1.0 + 1.0j
    state = extremal_fock(lam, mean_x=0.5, mean_p=-0.3, dim=64)
    x, p = dense_quadratures(64)
    mx = expect(state.amps, x)
    mp = expect(state.amps, p)
    assert abs(mx - 0.5) < 1e-9
    assert abs(mp - (-0.3)) < 1e-9
    var_x = expect(state.amps, x @ x) - mx**2
    var_p = expect(state.amps, p @ p) - mp**2
    cov = expect(state.amps, x @ p + p @ x) - 2 * mx * mp
    # lam = 1 + i gives var_x = 1/2, var_p = |lam|^2/2 = 1, cov = -1
    assert abs(var_x - 0.5) < 1e-9
    assert abs(var_p - 1.0) < 1e-9
    assert abs(cov - (-1.0)) < 1e-9


def test_extremal_eigen_condition():
    # (p - i lam x) annihilates the centered extremal state.
    lam = 1.3 + 0.8j
    state = extremal_fock(lam, dim=64)
    x, p = dense_quadratures(64)
    resid = (p - 1j * lam * x) @ state.amps
    assert np.linalg.norm(resid[:48]) / abs(lam) < 1e-8


@pytest.mark.parametrize("alpha", [complex(math.inf, 0.0), complex(0.0, -math.inf),
                                   complex(math.nan, 0.0)])
def test_displace_rejects_non_finite_alpha(alpha):
    with pytest.raises(InvalidParameterError):
        displace(number_state(0, 32), alpha)


_NOT_NUMBERS = ["1", None, [1], True, np.bool_(True), np.array(1.0)]


@pytest.mark.parametrize("alpha", _NOT_NUMBERS)
def test_displace_rejects_non_number_alpha(alpha):
    with pytest.raises(InvalidParameterError, match="must be a number"):
        displace(number_state(0, 32), alpha)


@pytest.mark.parametrize("alpha", _NOT_NUMBERS)
def test_make_scs_rejects_non_number_alpha(alpha):
    with pytest.raises(InvalidParameterError, match="must be a number"):
        make_scs(alpha, SqueezeParams(r=0.1))


@pytest.mark.parametrize("alpha", _NOT_NUMBERS)
def test_make_sgcs_rejects_non_number_alpha(alpha):
    with pytest.raises(InvalidParameterError, match="must be a number"):
        make_sgcs(alpha, SqueezeParams(r=0.1), number_state(0, 16))


def test_builders_take_numpy_scalar_alpha_bit_for_bit():
    params = SqueezeParams(r=0.3, theta=0.4)
    seed = lattice_phi([1.0, 1.0]).state
    for alpha, same in ((np.complex128(0.6 - 0.2j), 0.6 - 0.2j),
                        (np.float64(0.6), 0.6), (np.int64(1), 1)):
        assert np.array_equal(make_scs(alpha, params).amps, make_scs(same, params).amps)
        assert np.array_equal(make_sgcs(alpha, params, seed).amps,
                              make_sgcs(same, params, seed).amps)
        assert np.array_equal(displace(number_state(1, 64), alpha).amps,
                              displace(number_state(1, 64), same).amps)


def test_require_complex():
    assert require_complex(np.complex64(0.5 + 0.25j), "z", InvalidParameterError) == 0.5 + 0.25j
    assert type(require_complex(np.float64(2.0), "z", InvalidParameterError)) is complex
    assert require_complex(3, "z", InvalidParameterError) == 3 + 0j
    for value in _NOT_NUMBERS:
        with pytest.raises(InvalidParameterError, match="z must be a number"):
            require_complex(value, "z", InvalidParameterError)


@pytest.mark.parametrize("value", [math.nan, -math.inf, np.float64(math.inf), 10**400])
def test_require_real_rejects_non_finite(value):
    with pytest.raises(InvalidParameterError, match="x must be finite"):
        require_real(value, "x", InvalidParameterError)


@pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(1.0, -math.inf),
                                   np.complex128(complex(0.0, math.inf)), math.inf,
                                   10**400])
def test_require_complex_rejects_non_finite(value):
    with pytest.raises(InvalidParameterError, match="z must be finite"):
        require_complex(value, "z", InvalidParameterError)


@pytest.mark.parametrize("alpha", [complex(math.inf, 0.0), complex(math.nan, 0.0)])
def test_builders_reject_non_finite_alpha_before_sizing(alpha):
    # with dim=None the cutoff is sized from |alpha|, which must be finite
    params = SqueezeParams(r=0.1)
    with pytest.raises(InvalidParameterError):
        make_scs(alpha, params)
    with pytest.raises(InvalidParameterError):
        make_sgcs(alpha, params, number_state(0, 16))


@pytest.mark.parametrize("lam,mean_x,mean_p", [
    (complex(math.inf, 0.0), 0.0, 0.0),
    (complex(1.0, math.nan), 0.0, 0.0),
    (1.0, math.inf, 0.0),
    (1.0, 0.0, math.nan),
])
def test_extremal_rejects_non_finite_input(lam, mean_x, mean_p):
    with pytest.raises(InvalidParameterError):
        extremal_fock(lam, mean_x, mean_p)


@pytest.mark.parametrize("lam", ["1+1j", "1", True, None, [1, 2]])
def test_extremal_rejects_non_number_lambda(lam):
    with pytest.raises(InvalidParameterError, match="lambda must be a number"):
        extremal_fock(lam)


@pytest.mark.parametrize("mean_x,mean_p", [("1", 0.0), (0.0, "1"), (True, 0.0),
                                           (0.0, 1j)])
def test_extremal_rejects_non_real_means(mean_x, mean_p):
    with pytest.raises(InvalidParameterError):
        extremal_fock(1.0, mean_x, mean_p)


def test_extremal_wide_packet_is_exact():
    # lam = 0.1: var_x = 5, past what a grid on [-12, 12] resolves to 1e-10
    summary = summarize(extremal_fock(0.1, dim=512))
    assert abs(summary.var_x - 5.0) < 1e-10
    assert classify(summary).is_extremal


@pytest.mark.parametrize("lam,mean_x,dim", [(0.05, 0.0, 1024), (1.0, 11.0, 256)])
def test_extremal_builds_beyond_grid(lam, mean_x, dim):
    state = extremal_fock(lam, mean_x=mean_x, dim=dim)
    assert abs(state.norm() - 1.0) < 1e-12
    assert abs(math.sqrt(2.0) * ladder_moments_direct(state.amps)[0].real - mean_x) < 1e-9


@given(
    lam_re=st.floats(0.5, 2.0),
    lam_im=st.floats(-1.5, 1.5),
    mean_x=st.floats(-1.5, 1.5),
    mean_p=st.floats(-1.5, 1.5),
)
@example(lam_re=0.5, lam_im=1.5, mean_x=1.5, mean_p=-1.5)
@example(lam_re=2.0, lam_im=-1.5, mean_x=-1.5, mean_p=1.5)
@settings(max_examples=40, deadline=None)
def test_extremal_matches_grid_oracle(lam_re, lam_im, mean_x, mean_p):
    lam = complex(lam_re, lam_im)
    got = extremal_fock(lam, mean_x, mean_p, dim=128)
    want = grid_extremal_amps(lam, mean_x, mean_p, 128)
    assert abs(1.0 - abs(np.vdot(want, got.amps))) < 1e-12
    a, b = summarize(got), summarize(FockVector(want))
    for name in ("var_x", "var_p", "cov", "n_bar"):
        assert abs(getattr(a, name) - getattr(b, name)) < 1e-9, name
    for x, y in zip(ladder_moments_direct(got.amps), ladder_moments_direct(want)):
        assert abs(x - y) < 1e-9
