import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

from contractive import (
    InvalidDimensionError,
    InvalidParameterError,
    OutOfRangeError,
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
from contractive.fock import index_sums
from contractive.verify import (
    _SUBCHUNK,
    _Workspace,
    _column_planes,
    _displace_columns,
    _grid_gram,
    _legendre,
    _monte_carlo_gram,
    _probe_family,
    _radial_marginal,
    _schedule,
    _seed_to_chi,
    choose_radius,
    radius_cap,
)

from conftest import (
    coherent_amps,
    conjugation_residuals_dense,
    dense_displace,
    displaced_block_factored,
    displaced_block_normalized,
    displaced_block_powers,
    displaced_block_reference,
    grid_gram_points,
    radial_marginal_factored,
    radial_marginal_normalized,
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


def test_conjugation_requires_safe_block():
    with pytest.raises(InvalidDimensionError):
        check_conjugation_identities(0.5, SqueezeParams(r=2.5), dim=32)


@pytest.mark.parametrize("r", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("dim", [32, 64, 128])
def test_conjugation_block_is_safe_block(dim, r):
    report = check_conjugation_identities(0.5, SqueezeParams(r=r), dim=dim)
    assert (report.dim, report.block) == (dim, safe_block(dim, r))


# (dim, r) where safe_block is 1 (refused) or 2 (the smallest block checked)
@pytest.mark.parametrize("dim, r, block", [(64, 1.5, 1), (128, 2.0, 1),
                                           (64, 1.3, 2), (128, 1.7, 2)])
def test_conjugation_block_floor_is_2(dim, r, block):
    assert safe_block(dim, r) == block
    if block < 2:
        with pytest.raises(InvalidDimensionError) as info:
            check_conjugation_identities(0.5, SqueezeParams(r=r), dim=dim)
        assert str(info.value) == (f"no truncation-safe block at dim {dim} "
                                   f"for r = {r}; increase dim")
    else:
        assert check_conjugation_identities(0.5, SqueezeParams(r=r), dim=dim).block == 2


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
    # at dim 128, r = 0.7 the safe block ends at level 14, one short of
    # S(-xi)|15>, which the state builders refuse as under-resolved; the
    # check reads the block's columns that near the cutoff, and their
    # truncation is the residual it reports, so it must not refuse them
    params = SqueezeParams(r=0.7, theta=1.1)
    inverse = SqueezeParams(r=0.7, theta=1.1 + math.pi)  # S(-xi)
    with pytest.raises(TruncationError):
        squeeze(number_state(15, 128), inverse)
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
    phi = lattice_phi((1.0, 1.0)).state.padded(64)
    sgcs = make_sgcs(0.3, SqueezeParams(r=0.4, theta=1.0), phi, dim=128)
    audit = audit_extremal(sgcs)
    # n_bar > 0 seeds sit strictly above the saturating family
    assert audit.residual > 0.1


def displaced_block(chi, alphas, probe_dim):
    """<j|D(alpha)|chi> for j < probe_dim over a batch of alphas, shape
    (probe_dim, len(alphas)): `_displace_columns` over _SUBCHUNK column
    passes from one workspace, the passes the Monte Carlo gram runs."""
    chi = np.asarray(chi, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    out = np.zeros((probe_dim, alphas.size), dtype=complex)
    schedule = _schedule(chi, probe_dim)
    space = _Workspace(min(_SUBCHUNK, alphas.size),
                       _column_planes(probe_dim, schedule), 5)
    for start in range(0, alphas.size, _SUBCHUNK):
        cols = slice(start, start + _SUBCHUNK)
        space.start(alphas[cols].size)
        _displace_columns(chi, alphas[cols], out[:, cols], schedule, space)
    return out


def _family(phi, params, probe_dim):
    """(chi, radius) from the probe-family memo, keyed as
    check_overcompleteness keys it."""
    return _probe_family(phi.amps.tobytes(),
                         np.array([params.r, params.theta]).tobytes(), probe_dim)


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


RETIRED = (displaced_block_factored, displaced_block_powers, displaced_block_reference)
LONG_RETIRED = (displaced_block_factored, displaced_block_reference)


def _assert_matches_oracles(got, chi, alphas, probe, retired=RETIRED):
    """Bit-equal to the per-pair oracle of the real-split arithmetic, and
    within 1e-13 of the retired kernels (the factored scale * (L * column)
    per pair, and per-pair powers or complex exponentials with the radial
    prefactor in one exponential). The two oldest agree to 5e-15, so long
    batches skip the powers one, which keeps the tests short."""
    assert np.array_equal(got, displaced_block_normalized(chi, alphas, probe))
    for oracle in retired:
        want = oracle(chi, alphas, probe)
        assert got.size == 0 or np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("probe", range(1, 9))
def test_displaced_block_bit_identical_to_retired_kernel(probe):
    rng = np.random.default_rng(100 + probe)
    chis = _kernel_chis(rng)
    for count in (0, 1, _SUBCHUNK, _SUBCHUNK + 1, 62_500):
        alphas = _kernel_alphas(rng, count)
        retired = LONG_RETIRED if count >= _SUBCHUNK else RETIRED
        for chi in chis:
            _assert_matches_oracles(displaced_block(chi, alphas, probe), chi, alphas,
                                    probe, retired)
    # every sample at the origin
    alphas = np.zeros(5, dtype=complex)
    for chi in chis:
        _assert_matches_oracles(displaced_block(chi, alphas, probe), chi, alphas, probe)


@pytest.mark.parametrize("probe", range(1, 9))
def test_radial_marginal_bit_identical_to_retired_kernel(probe, monkeypatch):
    rng = np.random.default_rng(200 + probe)
    for chi in _kernel_chis(rng):
        cap = radius_cap(probe, float(np.sum(np.arange(20) * np.abs(chi) ** 2)), 0.0)
        rho = np.linspace(0.0, cap, 2001)
        marginal = _radial_marginal(chi, rho, probe)
        assert np.array_equal(marginal, radial_marginal_normalized(chi, rho, probe))
        for retired in (radial_marginal_factored, radial_marginal_reference):
            assert np.max(np.abs(marginal - retired(chi, rho, probe))) < 1e-13
        got = choose_radius(chi, probe, 5e-4, cap)
        for oracle in (radial_marginal_normalized, radial_marginal_factored,
                       radial_marginal_reference):
            monkeypatch.setattr("contractive.verify._radial_marginal", oracle)
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
    _assert_matches_oracles(displaced_block(chi, alphas, 6), chi, alphas, 6,
                            retired=LONG_RETIRED)


def test_displaced_block_factored_at_extreme_radii():
    # four-shell lattice seed squeezed at r = 0.8: support up to level 217;
    # at |alpha| = 40, e^{-|alpha|^2/2} alone underflows, while each chain's
    # start sqrt(e^-y y^d / d!) stays in range through the log domain
    chi = _seed_to_chi(lattice_phi([1.0, 1.0, 1.0, 1.0]).state,
                       SqueezeParams(r=0.8), 256).amps
    assert np.nonzero(np.abs(chi) > 1e-13)[0][-1] == 217
    assert math.exp(-0.5 * 40.0**2) == 0.0
    rng = np.random.default_rng(40)
    rho = np.concatenate([np.linspace(0.0, 40.0, 201),
                          40.0 * np.sqrt(rng.random(200))])
    alphas = rho * np.exp(2j * np.pi * rng.random(rho.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = displaced_block(chi, alphas, 8)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, displaced_block_normalized(chi, alphas, 8))
    for retired in (displaced_block_factored, displaced_block_reference):
        assert np.max(np.abs(got - retired(chi, alphas, 8))) < 1e-13


@given(
    dim=st.integers(1, 64),
    probe=st.integers(1, 8),
    keep=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=64, probe=8, keep=1.0, seed=0)
@example(dim=64, probe=1, keep=0.1, seed=1)
@settings(max_examples=100, deadline=None)
def test_kernels_within_1e13_of_factored_oracles(dim, probe, keep, seed):
    # random chi with gaps in its support, alpha from 0 out to radius_cap
    rng = np.random.default_rng(seed)
    chi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    chi[rng.random(dim) > keep] = 0.0
    chi[rng.integers(dim)] = 1.0
    chi /= np.linalg.norm(chi)
    cap = radius_cap(probe, float(np.sum(np.arange(dim) * np.abs(chi) ** 2)), 0.0)
    rho = cap * np.sqrt(rng.random(64))
    rho[:2] = 0.0, cap
    alphas = rho * np.exp(2j * np.pi * rng.random(rho.size))
    got = displaced_block(chi, alphas, probe)
    assert np.max(np.abs(got - displaced_block_factored(chi, alphas, probe))) < 1e-13
    radii = np.linspace(0.0, cap, 201)
    marginal = _radial_marginal(chi, radii, probe)
    assert np.max(np.abs(marginal - radial_marginal_factored(chi, radii, probe))) < 1e-13


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


def test_grid_gram_near_exact_at_a_generous_radius():
    # the grid rule is exact to rounding, so at radius 8 only the excluded
    # tail mass (here ~e^{-R^2}) limits the deviation
    chi = _seed_to_chi(number_state(0, 8), SqueezeParams(r=0.0), 64).amps
    gram, _, _ = _grid_gram(chi, 8.0, 8, 40_000)
    assert np.max(np.abs(gram - np.eye(8))) < 1e-9


@pytest.mark.parametrize("r", [0.0, 0.3])
@pytest.mark.parametrize("probe_dim", [16, 17, 40])
def test_overcompleteness_probe_wider_than_the_seed(probe_dim, r):
    # chi is squeezed at max(64, 4 probe_dim, 2 phi.dim), so a probe block
    # wider than a quarter of 64 needs no cutoff from the caller
    report = check_overcompleteness(number_state(0, 16), SqueezeParams(r=r),
                                    probe_dim=probe_dim, budget=20_000, method="grid")
    assert report.probe_dim == probe_dim
    assert report.max_abs_deviation < 5e-4


@pytest.mark.parametrize("phi, r", [
    (number_state(0, 16), 0.975),
    (number_state(0, 16), 1.5),
    (lattice_phi([1.0] * 2).state, 0.9),
    (lattice_phi([1.0] * 4).state, 0.8),
    (lattice_phi([1.0] * 8).state, 0.6),
], ids=["vacuum-0.975", "vacuum-1.5", "2-shell-0.9", "4-shell-0.8", "8-shell-0.6"])
def test_overcompleteness_family_builds_wherever_the_builders_do(phi, r):
    # chi does not resolve at the start cutoff past vacuum r 0.975 (2-shell
    # 0.751, 4-shell 0.523, 8-shell 0.276 at theta 1.1), so it doubles the
    # cutoff as the builders do instead of raising TruncationError
    report = check_overcompleteness(phi, SqueezeParams(r=r, theta=1.1),
                                    budget=20_000, method="grid")
    assert report.probe_dim == 6
    assert report.max_abs_deviation < 1e-3


def test_overcompleteness_family_past_the_auto_range_is_out_of_range():
    # as for make_scs, a squeeze no automatic cutoff holds is refused by its
    # mean before any exponential runs
    with pytest.raises(OutOfRangeError, match=r"at r = 20\.0, probe_dim = 6; lower r$"):
        check_overcompleteness(number_state(0, 16), SqueezeParams(r=20.0),
                               budget=20_000, method="grid")


def test_overcompleteness_default_radius_bounds_excluded_mass():
    # with the adaptive radius the grid answer lands within the mass budget
    # (a tenth of the deviation target) rather than at rounding level
    report = check_overcompleteness(
        number_state(0, 8), SqueezeParams(r=0.0), probe_dim=8,
        budget=40_000, method="grid",
    )
    assert report.max_abs_deviation < 5e-4
    assert report.method == "grid"
    assert report.grid_spec is not None
    assert report.seed is None


def _assert_grid_gram_matches_points(phi, params, probe_dim, budget, radius=None):
    """The gram against the point grid at radius, or at the searched radius
    when radius is None; only a searched radius is a report's."""
    chi, searched = _family(phi, params, probe_dim)
    at = searched if radius is None else radius
    gram, n_rad, n_ang = _grid_gram(chi.amps, at, probe_dim, budget)
    points = grid_gram_points(chi.amps, at, probe_dim, budget)
    assert gram.shape == points.shape == (probe_dim, probe_dim)
    assert np.max(np.abs(gram - points)) <= 1e-13
    if radius is not None:
        return
    report = check_overcompleteness(phi, params, probe_dim=probe_dim, budget=budget,
                                    method="grid")
    assert report.radius == searched
    assert report.grid_spec == f"{n_rad}x{n_ang}" and report.budget == n_rad * n_ang
    assert report.max_abs_deviation == float(np.max(np.abs(gram - np.eye(probe_dim))))


@pytest.mark.parametrize("phi, params, probe_dim, budget, radius", [
    # criterion 8's family, with the workload's grid budget
    (lattice_phi([1.0, 1.0]).state, SqueezeParams(r=0.3), 6, 10_000, None),
    (number_state(0, 8), SqueezeParams(r=0.0), 8, 40_000, 8.0),
    # a 4-shell lattice squeezed at dim 256: support up to level 217
    (lattice_phi([1.0] * 4).state.padded(128), SqueezeParams(r=0.8, theta=1.1),
     6, 10_000, None),
    (lattice_phi([1.0, 1.0]).state, SqueezeParams(r=0.3), 1, 10_000, None),
] + [
    (number_state(0, 16), SqueezeParams(r=r), probe_dim, 20_000, None)
    for probe_dim in (16, 17, 40) for r in (0.0, 0.3)
], ids=["criterion-8", "vacuum-radius-8", "4-shell-r0.8", "probe-1"]
   + [f"probe-{p}-r{r}" for p in (16, 17, 40) for r in (0.0, 0.3)])
def test_grid_gram_matches_retired_point_grid(phi, params, probe_dim, budget, radius):
    # the angular sum in closed form is the point grid's rule, evaluated exactly
    _assert_grid_gram_matches_points(phi, params, probe_dim, budget, radius)


@given(
    r=st.floats(0.0, 0.5),
    theta=st.floats(-math.pi, math.pi),
    weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
    probe_dim=st.integers(1, 4),
)
@settings(max_examples=15, deadline=None)
def test_grid_gram_matches_retired_point_grid_on_lattices(r, theta, weights, probe_dim):
    phi = lattice_phi(weights).state.padded(32)
    _assert_grid_gram_matches_points(phi, SqueezeParams(r=r, theta=theta), probe_dim, 2_000)


@pytest.mark.parametrize("method", ["monte-carlo", "grid"])
def test_overcompleteness_same_bits_from_cold_and_warm_memo(method, monkeypatch):
    args = (lattice_phi([1.0, 1.0]).state, SqueezeParams(r=0.3))
    kwargs = dict(probe_dim=6, budget=5_000, method=method, seed=4)
    grid = method == "grid"   # only the grid reads Gauss-Legendre nodes
    searches = []

    def counting_search(*search_args):
        searches.append(search_args)
        return choose_radius(*search_args)

    monkeypatch.setattr("contractive.verify.choose_radius", counting_search)
    _probe_family.cache_clear()
    _legendre.cache_clear()
    cold = check_overcompleteness(*args, **kwargs)
    assert _probe_family.cache_info().misses == 1 and len(searches) == 1
    assert _legendre.cache_info().misses == grid
    warm = check_overcompleteness(*args, **kwargs)
    assert _probe_family.cache_info().hits == 1 and len(searches) == 1
    assert _legendre.cache_info().hits == grid
    assert warm == cold
    monkeypatch.undo()
    _probe_family.cache_clear()
    _legendre.cache_clear()
    assert check_overcompleteness(*args, **kwargs) == cold


@pytest.mark.parametrize("n_rad", [64, 74])
def test_legendre_memo_is_leggauss_read_only(n_rad):
    _legendre.cache_clear()
    nodes, weights = _legendre(n_rad)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n_rad)
    assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
    assert _legendre(n_rad)[0] is nodes and _legendre.cache_info().hits == 1
    for array in (nodes, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("first, second", [
    # two seeds of one dim
    ((lattice_phi([1.0, 1.0]).state, SqueezeParams(r=0.3)),
     (lattice_phi([1.0, 2.0]).state, SqueezeParams(r=0.3))),
    # theta = 0.0 and -0.0 compare equal but are different inputs
    ((number_state(0, 16), SqueezeParams(r=0.3, theta=0.0)),
     (number_state(0, 16), SqueezeParams(r=0.3, theta=-0.0))),
], ids=["seeds", "signed-zero-theta"])
def test_probe_family_memo_keeps_families_apart(first, second):
    _probe_family.cache_clear()
    a = _family(*first, 6)
    b = _family(*second, 6)
    assert a is not b
    assert _probe_family.cache_info().currsize == 2
    assert _family(*first, 6) is a and _family(*second, 6) is b
    assert np.array_equal(a[0].amps, _seed_to_chi(*first, 64).amps)
    assert np.array_equal(b[0].amps, _seed_to_chi(*second, 64).amps)


def test_probe_family_chi_is_read_only():
    chi, _ = _family(number_state(0, 16), SqueezeParams(r=0.3), 6)
    assert not chi.amps.flags.writeable
    with pytest.raises(ValueError):
        chi.amps[0] = 0.0


def _monte_carlo_gram_as_documented(chi, probe_dim, budget, seed):
    """The Monte Carlo gram as its docstring states it, redrawn pass by
    pass: n uniforms U, then n uniforms V, alpha = sqrt(-s log1p(-U))
    e^{2 pi i V} with s = 1 + n_bar + probe_dim, each column of the
    displaced_block harness times 1 / sqrt(1 - U), and (s / budget) times
    the pass's einsum."""
    rng = np.random.default_rng(seed)
    scale = 1.0 + index_sums(chi)[2] + probe_dim
    gram = np.zeros((probe_dim, probe_dim), dtype=complex)
    for start in range(0, budget, _SUBCHUNK):
        n = min(_SUBCHUNK, budget - start)
        u, v = rng.random(n), rng.random(n)
        alphas = np.sqrt(-scale * np.log1p(-u)) * np.exp(1j * (2.0 * np.pi * v))
        block = displaced_block(chi, alphas, probe_dim) * (1.0 / np.sqrt(1.0 - u))
        gram += (scale / budget) * np.einsum("jn,kn->jk", block, block.conj())
    return gram


@pytest.mark.parametrize("budget", [1, _SUBCHUNK, _SUBCHUNK + 1, 200_001])
def test_monte_carlo_gram_bit_identical_to_its_documented_draws(budget):
    # each pass draws its own samples, so 20,001 and 200,001 end in a pass
    # of one sample
    phi, params = lattice_phi([1.0, 1.0]).state, SqueezeParams(r=0.3)
    chi = _family(phi, params, 6)[0].amps
    gram = _monte_carlo_gram(chi, 6, budget, 7)
    assert np.array_equal(gram, _monte_carlo_gram_as_documented(chi, 6, budget, 7))
    report = check_overcompleteness(phi, params, probe_dim=6, budget=budget, seed=7)
    assert report.max_abs_deviation == float(np.max(np.abs(gram - np.eye(6))))


@pytest.mark.parametrize("budget", [1, _SUBCHUNK, _SUBCHUNK + 1])
def test_monte_carlo_gram_of_the_vacuum_in_closed_form(budget):
    # the vacuum at probe_dim 1 has s = 2 and <0|D(alpha)|0> = e^(-y/2) =
    # 1 - U, so each sample adds (2 / budget) (1 - U)^2 / (1 - U); the
    # uniforms are redrawn here, U then the angles' V in each pass
    chi = _family(number_state(0, 16), SqueezeParams(r=0.0), 1)[0].amps
    rng = np.random.default_rng(11)
    total = 0.0
    for start in range(0, budget, _SUBCHUNK):
        n = min(_SUBCHUNK, budget - start)
        total += np.sum(1.0 - rng.random(n))
        rng.random(n)
    gram = _monte_carlo_gram(chi, 1, budget, 11)
    assert abs(gram[0, 0] - 2.0 * total / budget) < 1e-14


def test_monte_carlo_memory_does_not_grow_with_the_budget():
    # the gram is streamed pass by pass from one workspace, and each pass
    # draws its own samples into it, so ten times the samples add nothing; a
    # (probe_dim, chunk) block and its conjugate took 34 MB more
    phi, params = lattice_phi([1.0, 1.0]).state, SqueezeParams(r=0.3)
    check_overcompleteness(phi, params, probe_dim=6, budget=1)  # build the family
    peaks = []
    for budget in (20_000, 200_000):
        tracemalloc.start()
        try:
            check_overcompleteness(phi, params, probe_dim=6, budget=budget, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4e6, peaks
    # the pass's conjugate block reuses the workspace's first real planes:
    # the 20k call traces 9.14 MiB, where a (probe_dim, 20k) conjugate
    # block of its own took 1.83 MiB more
    assert peaks[0] < 9.6 * 2**20, peaks


def _same_output_across_blas_thread_counts(script, lines):
    """Run script at OPENBLAS_NUM_THREADS=1 and at the default; both must
    print the same `lines` lines."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("one CPU: every BLAS call runs on one thread")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for run_env in (env, dict(env, OPENBLAS_NUM_THREADS="1")):
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60, env=run_env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") == lines and outputs[0] == outputs[1]


# Grid reports on criterion 8's family and on a probe block wider than chi's
# support, printed with every bit of each float.
_GRID_REPORTS = """
from contractive import SqueezeParams, check_overcompleteness, lattice_phi, number_state
for phi, r, probe_dim, budget in ((lattice_phi([1.0, 1.0]).state, 0.3, 6, 10_000),
                                  (number_state(0, 16), 0.3, 40, 20_000)):
    report = check_overcompleteness(phi, SqueezeParams(r=r), probe_dim=probe_dim,
                                    budget=budget, method="grid")
    print(report.max_abs_deviation.hex(), report.radius.hex(), report.grid_spec)
"""


def test_grid_report_identical_across_blas_thread_counts():
    # the grid gram is an einsum without BLAS, so its bits must not depend
    # on how many threads OpenBLAS would split a product over
    _same_output_across_blas_thread_counts(_GRID_REPORTS, 2)


# A Monte Carlo report on criterion 8's family over three 20k passes, printed
# with every bit of each float.
_MONTE_CARLO_REPORT = """
from contractive import SqueezeParams, check_overcompleteness, lattice_phi
report = check_overcompleteness(lattice_phi([1.0, 1.0]).state, SqueezeParams(r=0.3),
                                probe_dim=6, budget=60_000, seed=5)
print(report.max_abs_deviation.hex(), report.radius)
"""


def test_monte_carlo_report_identical_across_blas_thread_counts():
    # the streamed Monte Carlo gram is an einsum without BLAS too
    _same_output_across_blas_thread_counts(_MONTE_CARLO_REPORT, 1)


def test_overcompleteness_monte_carlo_smoke():
    report = check_overcompleteness(
        lattice_phi([1.0, 1.0]).state, SqueezeParams(r=0.3), probe_dim=6,
        budget=20_000, method="monte-carlo", seed=0,
    )
    assert report.max_abs_deviation < 0.06
    assert report.budget == 20_000
    data = report.to_json_dict()
    assert data["probe_dim"] == 6
    # the samples cover the whole plane: no disk, so no radius
    assert data["radius"] is None


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
        check_overcompleteness(phi, SqueezeParams(r=0.0), probe_dim=-1)


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


def test_run_suite_rejects_bad_seed():
    # -1 and 1.5 used to reach numpy and raise a raw ValueError / TypeError
    for seed in (-1, 1.5, True, "0"):
        with pytest.raises(InvalidParameterError):
            run_suite("uncertainty", budget=2, seed=seed)
    report = run_suite("uncertainty", budget=2, seed=np.int64(3))
    assert type(report["seed"]) is int
    assert report == run_suite("uncertainty", budget=2, seed=3)


def test_overcompleteness_rejects_malformed_arguments():
    phi, params = number_state(0, 16), SqueezeParams(r=0.0)
    for probe_dim in (2.5, True, "2"):
        with pytest.raises(InvalidDimensionError):
            check_overcompleteness(phi, params, probe_dim=probe_dim, budget=100)
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
                                    seed=np.int64(4))
    want = check_overcompleteness(phi, params, probe_dim=3, budget=200, seed=4)
    assert report == want
    assert type(report.probe_dim) is int and type(report.seed) is int
    assert report.radius is None
    json.dumps(report.to_json_dict())


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


@pytest.mark.parametrize("dim", [128.5, True, "128"])
def test_conjugation_rejects_non_integer_dim(dim):
    with pytest.raises(InvalidDimensionError):
        check_conjugation_identities(0.1, SqueezeParams(r=0.1), dim=dim)


@pytest.mark.parametrize("alpha", [math.nan, complex(0.0, math.inf), complex(math.nan, 1.0)])
def test_conjugation_rejects_non_finite_alpha(alpha):
    with pytest.raises(InvalidParameterError, match="alpha"):
        check_conjugation_identities(alpha, SqueezeParams(r=0.1), dim=64)


@pytest.mark.parametrize("alpha", ["1", None, [1], True, np.bool_(True), np.array(1.0)])
def test_conjugation_rejects_non_number_alpha(alpha):
    with pytest.raises(InvalidParameterError, match="alpha must be a number"):
        check_conjugation_identities(alpha, SqueezeParams(r=0.1), dim=64)


def test_conjugation_takes_numpy_scalar_alpha_bit_for_bit():
    params = SqueezeParams(r=0.2, theta=0.5)
    for alpha, same in ((np.complex128(0.4 + 0.3j), 0.4 + 0.3j), (np.float64(0.5), 0.5)):
        assert (check_conjugation_identities(alpha, params, dim=64)
                == check_conjugation_identities(same, params, dim=64))


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
