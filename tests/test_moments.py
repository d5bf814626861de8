import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractive import (
    FockVector,
    InvalidParameterError,
    MomentSummary,
    SqueezeParams,
    TrivialStateError,
    TruncationError,
    classify,
    displace,
    lambda_from_moments,
    lattice_phi,
    make_scs,
    make_sgcs,
    number_state,
    random_state,
    scs_predicted_moments,
    sgcs_predicted_moments,
    summarize,
)

from conftest import coherent_amps, dense_moments_oracle, summarize_reference


def test_vacuum_summary():
    got = summarize(number_state(0, 32))
    assert abs(got.var_x - 0.5) < 1e-13
    assert abs(got.var_p - 0.5) < 1e-13
    assert abs(got.cov) < 1e-13
    assert abs(got.n_bar) < 1e-13
    assert abs(got.uncertainty_product - 0.25) < 1e-13


def test_summary_validation():
    with pytest.raises(InvalidParameterError):
        MomentSummary(var_x=-0.5, var_p=0.5, cov=0.0, n_bar=0.0)
    with pytest.raises(InvalidParameterError):
        # violates var_x var_p >= (1 + cov^2)/4
        MomentSummary(var_x=0.3, var_p=0.3, cov=0.0, n_bar=0.0)
    with pytest.raises(InvalidParameterError):
        MomentSummary(var_x=1.0, var_p=1.0, cov=0.0, n_bar=-0.5)


def test_summarize_subtracts_means():
    # displacement moves means but not central moments
    base = summarize(number_state(2, 64))
    moved = summarize(displace(number_state(2, 128), 1.0 + 1.0j))
    assert abs(moved.var_x - base.var_x) < 1e-9
    assert abs(moved.var_p - base.var_p) < 1e-9
    assert abs(moved.cov - base.cov) < 1e-9
    assert abs(base.var_x - 2.5) < 1e-12


def test_summarize_rejects_unresolved():
    with pytest.raises(TruncationError):
        summarize(FockVector(coherent_amps(2.0, 8)))


@given(
    dim=st.integers(2, 512),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.1, 10.0),
)
@settings(max_examples=80, deadline=None)
def test_summarize_bit_identical_to_retired_path(dim, seed, scale):
    rng = np.random.default_rng(seed)
    amps = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    amps[int(np.floor(0.9 * dim)):] = 0.0  # resolved, and not normalized
    got = summarize(FockVector(amps))
    assert (got.var_x, got.var_p, got.cov, got.n_bar) == summarize_reference(amps)


def test_summarize_check_order():
    # the zero vector passes the truncation check (its tail is empty) and is
    # then refused as trivial; weight in the top decile fails truncation
    with pytest.raises(TrivialStateError):
        summarize(FockVector(np.zeros(16)))
    amps = np.zeros(16, dtype=complex)
    amps[-1] = 1.0
    with pytest.raises(TruncationError):
        summarize(FockVector(amps))


def test_scs_closed_forms():
    got = scs_predicted_moments(SqueezeParams(r=0.5, theta=math.pi / 2))
    assert abs(got.var_x - 0.5 * math.cosh(1.0)) < 1e-14
    assert abs(got.var_p - 0.5 * math.cosh(1.0)) < 1e-14
    assert abs(got.cov - (-math.sinh(1.0))) < 1e-14

    got = scs_predicted_moments(SqueezeParams(r=0.5, theta=0.0))
    assert abs(got.var_x - 0.5 * math.exp(-1.0)) < 1e-14
    assert abs(got.var_p - 0.5 * math.exp(1.0)) < 1e-14
    assert got.cov == 0.0


def test_sgcs_closed_forms():
    got = sgcs_predicted_moments(1.5, SqueezeParams(r=0.5, theta=math.pi / 2))
    assert abs(got.var_x - 2.0 * math.cosh(1.0)) < 1e-13
    assert abs(got.var_p - 2.0 * math.cosh(1.0)) < 1e-13
    assert abs(got.cov - (-4.0 * math.sinh(1.0))) < 1e-13

    got = sgcs_predicted_moments(1.5, SqueezeParams(r=0.5, theta=0.0))
    assert abs(got.var_x - 2.0 * math.exp(-1.0)) < 1e-13
    assert abs(got.var_p - 2.0 * math.exp(1.0)) < 1e-13

    with pytest.raises(InvalidParameterError):
        sgcs_predicted_moments(-0.1, SqueezeParams(r=0.5))


@pytest.mark.parametrize("n_bar", [0.0, 1.5])
@pytest.mark.parametrize("theta", [3.141590707120425, math.pi, 0.0, -1e-9, 2.0 * math.pi])
def test_closed_forms_near_sin_theta_zero(n_bar, theta):
    # a perfbench sweep draw: the self-check once took the root of
    # 4 var_x var_p - (2 n_bar + 1)^2, which cancels here, and raised
    params = SqueezeParams(r=0.2678433940074071, theta=theta)
    got = sgcs_predicted_moments(n_bar, params)
    sinh = math.sinh(2.0 * params.r)
    assert got.cov == -(2.0 * n_bar + 1.0) * math.sin(theta) * sinh
    assert got.cov * math.sin(theta) <= 0.0
    if n_bar == 0.0:
        assert scs_predicted_moments(params) == got


def test_summarize_matches_predictions():
    rng = np.random.default_rng(11)
    seeds = [
        (0.0, number_state(0, 64)),
        (1.5, lattice_phi((1.0, 1.0)).state.padded(64)),
        (3.0, lattice_phi((1.0, 0.0, 1.0)).state.padded(64)),
    ]
    for _ in range(4):
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        params = SqueezeParams(
            r=rng.uniform(0.05, 0.8), theta=rng.uniform(0, 2 * math.pi)
        )
        for n_bar, phi in seeds:
            state = make_sgcs(alpha, params, phi, dim=192)
            got = summarize(state)
            want = sgcs_predicted_moments(n_bar, params)
            assert abs(got.var_x - want.var_x) < 1e-8
            assert abs(got.var_p - want.var_p) < 1e-8
            assert abs(got.cov - want.cov) < 1e-8
            assert abs(got.n_bar - want_n_bar(alpha, params, n_bar)) < 1e-7


def want_n_bar(alpha: complex, params: SqueezeParams, seed_n_bar: float) -> float:
    # <a^dag a> of D(alpha) S(xi) |phi> for a seed with vanishing ladder
    # moments: |alpha|^2 + sinh^2(r) (2 seed_n_bar + 1) + seed_n_bar
    sh2 = math.sinh(params.r) ** 2
    return abs(alpha) ** 2 + sh2 * (2 * seed_n_bar + 1) + seed_n_bar


def test_classify_families():
    scs = classify(scs_predicted_moments(SqueezeParams(r=0.5, theta=math.pi / 4)))
    assert scs.is_squeezed
    assert scs.is_contractive
    assert scs.is_extremal
    assert not scs.is_gcs

    gcs = classify(summarize(lattice_phi((1.0, 1.0)).state.padded(32)))
    assert gcs.is_gcs
    assert not gcs.is_squeezed
    assert not gcs.is_contractive
    assert not gcs.is_extremal  # n_bar > 0 lifts the product off 1/4

    vac = classify(summarize(number_state(0, 16)))
    assert vac.is_gcs
    assert vac.is_extremal


def test_classify_flag_shapes():
    flags = classify(scs_predicted_moments(SqueezeParams(r=0.3, theta=1.0)))
    data = flags.to_json_dict()
    assert set(data) == {
        "is_squeezed", "is_contractive", "is_gcs", "is_extremal"
    }
    assert all(isinstance(v, bool) for v in data.values())


def test_lambda_from_moments_round_trip():
    vac = lambda_from_moments(summarize(number_state(0, 16)))
    assert abs(vac - 1.0) < 1e-12

    # contractive SCS: cov < 0 forces Im(lambda) > 0
    summary = scs_predicted_moments(SqueezeParams(r=0.5, theta=math.pi / 2))
    lam = lambda_from_moments(summary)
    assert lam.imag > 0
    assert abs(lam.real - 1.0 / (2 * summary.var_x)) < 1e-14
    assert abs(abs(lam) ** 2 / (2 * lam.real) - summary.var_p) < 1e-10
    assert abs(-lam.imag / (2 * lam.real) - summary.cov / 2) < 1e-10


def test_robertson_bound_on_random_states(rng):
    for _ in range(100):
        got = summarize(random_state(48, rng))
        margin = 4 * got.var_x * got.var_p - got.cov**2 - 1.0
        assert margin >= -1e-9


def test_scs_summary_matches_scs_prediction():
    params = SqueezeParams(r=0.6, theta=2.2)
    got = summarize(make_scs(0.7 - 0.2j, params, dim=160))
    want = scs_predicted_moments(params)
    assert abs(got.var_x - want.var_x) < 1e-8
    assert abs(got.var_p - want.var_p) < 1e-8
    assert abs(got.cov - want.cov) < 1e-8


def _assert_matches_dense_oracle(state):
    got = summarize(state)
    want = dense_moments_oracle(state.amps)
    for g, w in zip((got.var_x, got.var_p, got.cov, got.n_bar), want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (g, w)


@pytest.mark.parametrize("dim", [16, 64, 256, 1024])
def test_summarize_matches_dense_oracle_random(dim):
    rng = np.random.default_rng(dim)
    for _ in range(8):
        _assert_matches_dense_oracle(random_state(dim, rng))


def test_summarize_matches_dense_oracle_scs():
    rng = np.random.default_rng(17)
    for _ in range(8):
        params = SqueezeParams(
            r=rng.uniform(0.0, 1.0), theta=rng.uniform(0, 2 * math.pi)
        )
        alpha = complex(rng.normal(), rng.normal())
        _assert_matches_dense_oracle(make_scs(alpha, params, dim=192))
