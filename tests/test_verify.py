import ast
import json
import math
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from contractive import (
    FockVector,
    InvalidDimensionError,
    InvalidParameterError,
    SeedConditionError,
    SqueezeParams,
    TruncationError,
    audit_extremal,
    check_conjugation_identities,
    check_overcompleteness,
    extremal_fock,
    lattice_phi,
    make_scs,
    make_sgcs,
    number_state,
    run_suite,
    safe_block,
    squeeze,
)
from contractive import verify
from contractive.verify import (
    _SUBCHUNK,
    _FactorFeed,
    _radial_marginal,
    _seed_to_chi,
    choose_radius,
    displaced_block,
    radius_cap,
)

from conftest import (
    coherent_amps,
    conjugation_residuals_dense,
    dense_displace,
    displaced_block_reference,
    radial_marginal_reference,
)


def test_conjugation_trivial_case():
    report = check_conjugation_identities(0.0, SqueezeParams(r=0.0), dim=32)
    assert report.max_residual() < 1e-12


def test_conjugation_reference_case():
    report = check_conjugation_identities(
        1.0 + 0.5j, SqueezeParams(r=0.7, theta=1.1), dim=128
    )
    assert report.block == safe_block(128, 0.7)
    assert report.max_residual() < 1e-8


def test_conjugation_residual_shrinks_with_dim():
    params = SqueezeParams(r=0.7, theta=1.1)
    worst = []
    for dim in (64, 128):
        report = check_conjugation_identities(1.0 + 0.5j, params, dim=dim)
        worst.append(report.max_residual())
    # doubling the cutoff must shrink the defect at least tenfold
    assert worst[1] < worst[0] / 10.0
    assert worst[0] < 1e-4


def test_conjugation_block_override():
    report = check_conjugation_identities(
        0.5, SqueezeParams(r=0.3), dim=64, block=8
    )
    assert report.block == 8


def test_conjugation_requires_safe_block():
    with pytest.raises(InvalidDimensionError):
        check_conjugation_identities(0.5, SqueezeParams(r=2.5), dim=32)


# the identities suite's three cases, then seeded random draws
_IDENTITY_CASES = [
    (1.0 + 0.5j, 0.7, 1.1, 128),
    (-0.8 + 1.2j, 0.4, 4.0, 96),
    (0.3 - 0.2j, 0.0, 0.0, 64),
]
_draws = np.random.default_rng(12)
for _ in range(6):
    _IDENTITY_CASES.append((
        complex(_draws.uniform(-1.5, 1.5), _draws.uniform(-1.5, 1.5)),
        float(_draws.uniform(0.0, 0.7)), float(_draws.uniform(0.0, 2.0 * math.pi)),
        int(_draws.choice([64, 96, 128])),
    ))


@pytest.mark.parametrize("alpha, r, theta, dim", _IDENTITY_CASES,
                         ids=[f"case{i}" for i in range(len(_IDENTITY_CASES))])
def test_conjugation_matches_dense_oracle(alpha, r, theta, dim):
    report = check_conjugation_identities(alpha, SqueezeParams(r=r, theta=theta),
                                          dim=dim)
    want = conjugation_residuals_dense(alpha, r, theta, dim, report.block)
    got = (report.displacement, report.bogoliubov_displacement,
           report.squeeze_conjugation, report.displacement_equality)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12


def test_conjugation_reads_truncated_columns_without_raising():
    # at dim 128, r = 0.7 the top block column a S^dag|14> reaches the
    # cutoff; that truncation is the residual the check reports, so the
    # check must not refuse it the way the state builders do
    params = SqueezeParams(r=0.7, theta=1.1)
    inverse = SqueezeParams(r=0.7, theta=1.1 + math.pi)  # S(-xi)
    col = squeeze(number_state(14, 128), inverse).amps
    a_col = np.concatenate([np.sqrt(np.arange(1, 128)) * col[1:], [0.0]])
    with pytest.raises(TruncationError):
        squeeze(FockVector(a_col), params)
    report = check_conjugation_identities(1.0 + 0.5j, params, dim=128)
    assert report.block == 15
    assert 1e-12 < report.squeeze_conjugation < 1e-8


def test_safe_block_bounds():
    assert safe_block(128, 0.0) == 64
    assert safe_block(128, 0.7) == int(128 / (2 * math.exp(1.4)))
    assert safe_block(32, 3.0) == 0


def test_audit_extremal_families():
    vac = audit_extremal(number_state(0, 32))
    assert vac.residual < 1e-10
    assert abs(vac.lambda_fit - 1.0) < 1e-10
    assert vac.cov_sign_consistent

    scs = audit_extremal(make_scs(0.4 - 0.2j, SqueezeParams(r=0.6, theta=2.0),
                                  dim=128))
    assert scs.residual < 1e-7
    assert scs.cov_sign_consistent

    ext = audit_extremal(extremal_fock(1.0 + 1.0j, dim=64))
    assert ext.residual < 1e-7
    assert abs(ext.lambda_fit - (1.0 + 1.0j)) < 1e-6


def test_audit_extremal_rejects_generic_states():
    phi = lattice_phi((1.0, 1.0), dim=64).state
    sgcs = make_sgcs(0.3, SqueezeParams(r=0.4, theta=1.0), phi, dim=128)
    audit = audit_extremal(sgcs)
    # n_bar > 0 seeds sit strictly above the saturating family
    assert audit.residual > 0.1


def test_displaced_block_matches_operator_exponential():
    rng = np.random.default_rng(5)
    dim, probe = 64, 6
    chi = coherent_amps(0.4 + 0.1j, dim)
    alphas = rng.normal(size=8) + 1j * rng.normal(size=8)
    block = displaced_block(chi, alphas, probe)
    for k, alpha in enumerate(alphas):
        want = dense_displace(chi, alpha)[:probe]
        assert np.max(np.abs(block[:, k] - want)) < 1e-10


def test_displaced_block_zero_alpha():
    chi = np.zeros(32, dtype=complex)
    chi[3] = 1.0
    block = displaced_block(chi, np.array([0.0 + 0.0j]), 6)
    want = np.zeros(6, dtype=complex)
    want[3] = 1.0
    assert np.max(np.abs(block[:, 0] - want)) < 1e-14


def test_displaced_block_stable_at_radius_cap():
    # probe_dim = dim/4 at the largest radii radius_cap allows, against a
    # sparse Krylov exponential at a cutoff far beyond the displaced support
    dim, probe, big = 128, 32, 1024
    rng = np.random.default_rng(3)
    chi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    chi /= np.linalg.norm(chi)
    n_bar = float(np.sum(np.arange(dim) * np.abs(chi) ** 2))
    cap = radius_cap(probe, n_bar, 0.0)
    a = sp.diags(np.sqrt(np.arange(1, big)), 1, format="csr", dtype=complex)
    padded = np.zeros(big, dtype=complex)
    padded[:dim] = chi
    for frac in (0.5, 0.8, 1.0):
        alpha = frac * cap * np.exp(0.7j)
        want = expm_multiply(alpha * a.conj().T - np.conj(alpha) * a, padded)
        got = displaced_block(chi, np.array([alpha]), probe)[:, 0]
        assert np.max(np.abs(got - want[:probe])) < 1e-13


def _kernel_chis(rng):
    """A random chi with gaps in its support, and a one-level chi."""
    chi = rng.normal(size=20) + 1j * rng.normal(size=20)
    chi[[1, 4, 5, 9, 10, 11, 15]] = 0.0
    single = np.zeros(20, dtype=complex)
    single[3] = np.exp(0.4j)
    return chi / np.linalg.norm(chi), single


def _kernel_alphas(rng, count):
    rho = 4.0 * np.sqrt(rng.random(count))
    rho[3::7] = 0.0
    return rho * np.exp(2j * np.pi * rng.random(count))


@pytest.mark.parametrize("probe", range(1, 9))
def test_displaced_block_bit_identical_to_retired_kernel(probe):
    rng = np.random.default_rng(100 + probe)
    chis = _kernel_chis(rng)
    for count in (0, 1, _SUBCHUNK, _SUBCHUNK + 1, 62_500):
        alphas = _kernel_alphas(rng, count)
        for chi in chis:
            got = displaced_block(chi, alphas, probe)
            assert np.array_equal(got, displaced_block_reference(chi, alphas, probe))
    # every sample at the origin
    alphas = np.zeros(5, dtype=complex)
    for chi in chis:
        got = displaced_block(chi, alphas, probe)
        assert np.array_equal(got, displaced_block_reference(chi, alphas, probe))


@pytest.mark.parametrize("probe", range(1, 9))
def test_radial_marginal_bit_identical_to_retired_kernel(probe, monkeypatch):
    rng = np.random.default_rng(200 + probe)
    for chi in _kernel_chis(rng):
        cap = radius_cap(probe, float(np.sum(np.arange(20) * np.abs(chi) ** 2)), 0.0)
        rho = np.linspace(0.0, cap, 2001)
        assert np.array_equal(_radial_marginal(chi, rho, probe),
                              radial_marginal_reference(chi, rho, probe))
        got = choose_radius(chi, probe, 5e-4, cap)
        monkeypatch.setattr("contractive.verify._radial_marginal",
                            radial_marginal_reference)
        want = choose_radius(chi, probe, 5e-4, cap)
        monkeypatch.undo()
        assert got == want


def _criterion_8_chi():
    # squeezed two-shell lattice seed: support 0-57 with gaps at 48, 50, ..., 56
    return _seed_to_chi(lattice_phi([1.0, 1.0]).state, SqueezeParams(r=0.3), 64).amps


def test_displaced_block_bit_identical_on_criterion_8_chi():
    chi = _criterion_8_chi()
    support = np.nonzero(np.abs(chi) > 1e-13)[0]
    assert support.size == 53 and support[-1] == 57
    rng = np.random.default_rng(8)
    rho = 3.5 * np.sqrt(rng.random(100_000))
    rho[::997] = 0.0
    alphas = rho * np.exp(2j * np.pi * rng.random(100_000))
    got = displaced_block(chi, alphas, 6)
    assert np.array_equal(got, displaced_block_reference(chi, alphas, 6))


def test_displaced_block_leaves_no_thread():
    before = threading.active_count()
    rng = np.random.default_rng(4)
    displaced_block(_criterion_8_chi(), _kernel_alphas(rng, _SUBCHUNK + 7), 6)
    assert threading.active_count() == before


def _raised_within(seconds, call):
    """The exception call() raises, run on a watched thread so that a hang
    fails the test instead of stalling the run."""
    outcome = {}

    def target():
        try:
            call()
        except BaseException as exc:
            outcome["error"] = exc

    caller = threading.Thread(target=target, daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive(), "hung instead of raising"
    return outcome.get("error")


def test_displaced_block_error_mid_pass_joins_helper(monkeypatch):
    real = verify._radial_elements

    def failing(*args):
        for count, item in enumerate(real(*args)):
            if count == 40:
                # let the helper fill every free buffer and block on the next
                time.sleep(0.3)
                raise RuntimeError("radial failure")
            yield item

    monkeypatch.setattr(verify, "_radial_elements", failing)
    before = threading.active_count()
    alphas = _kernel_alphas(np.random.default_rng(6), 2 * _SUBCHUNK)
    error = _raised_within(5.0, lambda: displaced_block(_criterion_8_chi(), alphas, 6))
    assert isinstance(error, RuntimeError) and str(error) == "radial failure"
    assert threading.active_count() == before


def test_factor_feed_reraises_helper_error():
    # mismatched bases make the helper's multiply fail on its own thread
    def call():
        with _FactorFeed([(True, 1)], np.zeros(3), np.zeros(5), 2) as feed:
            feed.get((True, 1))

    before = threading.active_count()
    assert isinstance(_raised_within(5.0, call), ValueError)
    assert threading.active_count() == before


def test_conftest_oracles_do_not_import_the_package():
    # the oracles are independent cross-checks only while they share no code
    # with the package; a retired kernel imported back from src/ would not be
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert not [m for m in imported if m.split(".")[0] == "contractive"], imported


def test_radial_marginal_at_zero_radius():
    # D(0) = I, so the probe-row masses at rho = 0 are |chi_j|^2
    chi = np.zeros(16, dtype=complex)
    chi[[0, 3, 6]] = np.sqrt([0.5, 0.3, 0.2]) * np.exp(1j * np.array([0.0, 1.0, 2.0]))
    got = _radial_marginal(chi, np.array([0.0]), 6)[:, 0]
    assert np.max(np.abs(got - np.abs(chi[:6]) ** 2)) < 1e-15


def test_choose_radius_tighter_than_cap():
    phi = lattice_phi([1.0, 1.0]).state
    params = SqueezeParams(r=0.3, theta=0.0)
    from contractive.verify import _seed_to_chi

    chi = _seed_to_chi(phi, params, 64)
    n_bar = float(np.sum(np.arange(64) * np.abs(chi.amps) ** 2))
    cap = radius_cap(6, n_bar, 0.3)
    radius = choose_radius(chi.amps, 6, 5e-4, cap)
    assert 0.0 < radius < cap
    # the excluded-mass budget is monotone in the radius
    looser = choose_radius(chi.amps, 6, 5e-2, cap)
    assert looser <= radius


def test_overcompleteness_grid_near_exact():
    # generous explicit radius: the grid rule is then exact to rounding and
    # only the excluded tail mass (here ~e^{-R^2}) limits the deviation
    report = check_overcompleteness(
        number_state(0, 8), SqueezeParams(r=0.0), probe_dim=8,
        budget=40_000, method="grid", radius=8.0,
    )
    assert report.max_abs_deviation < 1e-9
    assert report.method == "grid"
    assert report.grid_spec is not None
    assert report.seed is None


def test_overcompleteness_default_radius_bounds_excluded_mass():
    # with the adaptive radius the grid answer lands within the mass budget
    # (a tenth of the deviation target) rather than at rounding level
    report = check_overcompleteness(
        number_state(0, 8), SqueezeParams(r=0.0), probe_dim=8,
        budget=40_000, method="grid",
    )
    assert report.max_abs_deviation < 5e-4


def test_overcompleteness_monte_carlo_smoke():
    report = check_overcompleteness(
        lattice_phi([1.0, 1.0]).state, SqueezeParams(r=0.3), probe_dim=6,
        budget=20_000, method="monte-carlo", seed=0,
    )
    assert report.max_abs_deviation < 0.06
    assert report.budget == 20_000
    data = report.to_json_dict()
    assert data["probe_dim"] == 6
    assert data["radius"] > 0


def test_overcompleteness_monte_carlo_deterministic():
    phi = number_state(0, 16)
    kwargs = dict(probe_dim=4, budget=5_000, method="monte-carlo", seed=9)
    a = check_overcompleteness(phi, SqueezeParams(r=0.1), **kwargs)
    b = check_overcompleteness(phi, SqueezeParams(r=0.1), **kwargs)
    assert a.max_abs_deviation == b.max_abs_deviation


def test_overcompleteness_argument_validation():
    phi = number_state(0, 16)
    with pytest.raises(InvalidParameterError):
        check_overcompleteness(phi, SqueezeParams(r=0.0), method="quadrature")
    with pytest.raises(InvalidParameterError):
        check_overcompleteness(phi, SqueezeParams(r=0.0), budget=0)
    with pytest.raises(InvalidDimensionError):
        check_overcompleteness(phi, SqueezeParams(r=0.0), probe_dim=40, dim=64)


@pytest.mark.parametrize("method", ["monte-carlo", "grid"])
def test_overcompleteness_rejects_non_integer_budget(method):
    phi = number_state(0, 16)
    for budget in (100.5, 1e3, True, "1000"):
        with pytest.raises(InvalidParameterError):
            check_overcompleteness(phi, SqueezeParams(r=0.0), probe_dim=2,
                                   budget=budget, method=method)
    report = check_overcompleteness(phi, SqueezeParams(r=0.0), probe_dim=2,
                                    budget=np.int64(100), method=method)
    assert type(report.budget) is int


def test_run_suite_rejects_non_integer_budget():
    for budget in (2.5, 1e3, True):
        with pytest.raises(InvalidParameterError):
            run_suite("identities", budget=budget, seed=0)
    assert run_suite("identities", budget=np.int32(1), seed=0)["budget"] == 1


def test_overcompleteness_rejects_malformed_arguments():
    phi, params = number_state(0, 16), SqueezeParams(r=0.0)
    for probe_dim in (2.5, True, "2"):
        with pytest.raises(InvalidDimensionError):
            check_overcompleteness(phi, params, probe_dim=probe_dim, budget=100)
    for dim in (100.5, True):
        with pytest.raises(InvalidDimensionError):
            check_overcompleteness(phi, params, probe_dim=2, budget=100, dim=dim)
    for seed in (-1, 1.5, True):
        with pytest.raises(InvalidParameterError):
            check_overcompleteness(phi, params, probe_dim=2, budget=100, seed=seed)
    # the grid draws no random numbers and ignores the seed
    grid = check_overcompleteness(phi, params, probe_dim=2, budget=100,
                                  method="grid", seed=-1)
    assert grid.seed is None


def test_overcompleteness_accepts_numpy_integers():
    phi, params = number_state(0, 16), SqueezeParams(r=0.0)
    report = check_overcompleteness(phi, params, probe_dim=np.int64(3), budget=200,
                                    seed=np.int64(4), dim=np.int32(64))
    want = check_overcompleteness(phi, params, probe_dim=3, budget=200, seed=4, dim=64)
    assert report == want
    assert type(report.probe_dim) is int and type(report.seed) is int
    json.dumps(report.to_json_dict())


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -3.0])
def test_overcompleteness_rejects_bad_radius(radius):
    with pytest.raises(InvalidParameterError):
        check_overcompleteness(number_state(0, 16), SqueezeParams(r=0.0),
                               probe_dim=4, budget=100, radius=radius)


def test_overcompleteness_rejects_non_seed():
    # a coherent state has <a> != 0, so it is not an admissible seed
    shifted = make_scs(0.8, SqueezeParams(r=0.0), dim=32)
    with pytest.raises(SeedConditionError):
        check_overcompleteness(shifted, SqueezeParams(r=0.0), probe_dim=4)


def test_overcompleteness_rejects_unknown_method_on_empty_probe():
    with pytest.raises(InvalidParameterError):
        check_overcompleteness(number_state(0, 16), SqueezeParams(r=0.0),
                               probe_dim=0, method="bogus")


def test_overcompleteness_empty_probe():
    report = check_overcompleteness(
        number_state(0, 16), SqueezeParams(r=0.0), probe_dim=0
    )
    assert report.max_abs_deviation == 0.0
    assert report.budget == 0


def test_conjugation_dim_floor():
    with pytest.raises(InvalidDimensionError):
        check_conjugation_identities(0.0, SqueezeParams(r=0.0), dim=16)


def test_run_suite_identities():
    result = run_suite("identities", budget=1, seed=0)
    assert result["passed"]
    assert result["checks"][0]["worst_residual"] < 1e-8


def test_run_suite_uncertainty_and_rql():
    result = run_suite("uncertainty", budget=25, seed=1)
    assert result["passed"]
    result = run_suite("rql", budget=10, seed=2)
    assert result["passed"]
    assert result["checks"][0]["worst_violation"] <= 1e-9


def test_run_suite_saturation():
    result = run_suite("saturation", budget=8, seed=3)
    check = result["checks"][0]
    assert result["passed"]
    assert check["worst_scs_gap"] < 1e-7
    assert check["worst_scs_residual"] < 1e-7
    assert check["min_generic_gap"] > 1e-4


def test_run_suite_unknown():
    with pytest.raises(InvalidParameterError):
        run_suite("everything", budget=1, seed=0)
