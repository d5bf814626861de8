import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractive import (
    DegenerateSpecError,
    FockVector,
    InvalidSpecError,
    OutOfRangeError,
    PhiSpec,
    TrivialStateError,
    check_phi,
    displace,
    lattice_phi,
    lattice_phi_for_nbar,
    number_state,
    solve_phi,
    solve_phi_n3,
    summarize,
)
from contractive.gcs import index_weights, ladder_moments, mean_photon_number

from conftest import coherent_amps, index_sums_reference, ladder_moments_direct


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        PhiSpec(n=-1, N=3, free=(1.0,))
    with pytest.raises(InvalidSpecError):
        PhiSpec(n=0, N=2, free=(1.0,))
    with pytest.raises(InvalidSpecError):
        PhiSpec(n=0, N=4, free=(1.0,))  # needs 3 interior coefficients
    with pytest.raises(InvalidSpecError):
        PhiSpec(n=0, N=3, free=(float("inf"), 1.0))


def test_spec_json_round_trip():
    spec = PhiSpec(n=1, N=5, free=(1.0, 0.5 - 0.5j, 0.25j))
    again = PhiSpec.from_json_dict(spec.to_json_dict())
    assert again == spec


def test_ladder_moments_match_direct_sums(rng):
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    state = FockVector(amps).normalized()
    got = ladder_moments(state)
    want = ladder_moments_direct(state.amps)
    assert abs(got[0] - want[0]) < 1e-12
    assert abs(got[1] - want[1]) < 1e-12


@given(dim=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_index_sums_bit_identical_to_retired_path(dim, seed):
    rng = np.random.default_rng(seed)
    state = FockVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    first, second, n_bar = index_sums_reference(state.amps)
    assert ladder_moments(state) == (first, second)
    assert mean_photon_number(state) == n_bar


def test_index_weights_cached_and_read_only():
    tables = index_weights(64)
    assert index_weights(64) is tables
    assert [t.size for t in tables] == [64, 63, 62]
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_check_phi_flags_coherent():
    state = FockVector(coherent_amps(0.5, 48))
    result = check_phi(state)
    assert not result.ok
    assert abs(result.residual_a - 0.5) < 1e-10
    assert abs(result.residual_a2 - 0.25) < 1e-10


def test_number_states_are_seeds():
    for n in (0, 1, 4):
        assert check_phi(number_state(n, 32)).ok


def test_solve_minimal_band_example():
    # n = 0, N = 3, interior (1, 0.5): both residuals vanish by construction.
    phi = solve_phi(PhiSpec(n=0, N=3, free=(1.0, 0.5)))
    first, second = ladder_moments(phi.state)
    assert abs(first) < 1e-12
    assert abs(second) < 1e-12
    assert abs(phi.state.norm() - 1.0) < 1e-14
    # solver fills c_0 and c_3 around the fixed interior
    assert phi.state.dim == 4
    assert all(phi.state.amps[m] != 0 for m in range(4))
    assert abs(phi.n_bar - 0.77821) < 1e-4


def test_solve_phase_convention():
    phi = solve_phi(PhiSpec(n=0, N=3, free=(1.0, 0.5)))
    k = int(np.argmax(np.abs(phi.state.amps)))
    pivot = phi.state.amps[k]
    assert abs(pivot.imag) < 1e-15
    assert pivot.real > 0


def test_solve_matches_closed_form_minimal_band():
    for n in (0, 2, 5):
        c1, c2 = 0.8 - 0.3j, 0.4 + 0.6j
        a = solve_phi(PhiSpec(n=n, N=n + 3, free=(c1, c2)), dim=32)
        b = solve_phi_n3(n, c1, c2, dim=32)
        assert np.max(np.abs(a.state.amps - b.state.amps)) < 1e-12
        assert abs(a.n_bar - b.n_bar) < 1e-12


def test_solve_n3_zero_cross_term_gives_number_state():
    phi = solve_phi_n3(2, 1.0, 0.0, dim=16)
    # c_{n+2} = 0 kills the coupling; the solved band collapses to |n+1>
    assert abs(abs(phi.state.amps[3]) - 1.0) < 1e-12
    assert abs(phi.n_bar - 3.0) < 1e-12


def test_solve_degenerate_raises():
    # equal magnitudes |c_{n+1}| = |c_{n+2}| make the minimal band singular
    with pytest.raises(DegenerateSpecError):
        solve_phi(PhiSpec(n=0, N=3, free=(1.0, 1.0)))
    with pytest.raises(DegenerateSpecError):
        solve_phi_n3(1, 0.5 + 0.5j, 0.5 - 0.5j)


def test_solve_random_bands(rng):
    for _ in range(30):
        n = int(rng.integers(0, 5))
        N = int(rng.integers(n + 3, 13))
        free = tuple(
            complex(rng.normal(), rng.normal()) for _ in range(N - 1 - n)
        )
        try:
            phi = solve_phi(PhiSpec(n=n, N=N, free=free))
        except DegenerateSpecError:
            continue
        first, second = ladder_moments(phi.state)
        assert abs(first) < 1e-10
        assert abs(second) < 1e-10
        assert n <= phi.n_bar <= N


def test_solve_dim_too_small():
    with pytest.raises(InvalidSpecError):
        solve_phi(PhiSpec(n=0, N=6, free=(1.0, 0.5, 0.25, 0.125, 0.1)), dim=4)


def test_lattice_two_shells():
    phi = lattice_phi((1.0, 1.0))
    amps = phi.state.amps
    assert abs(amps[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(amps[3] - 1 / math.sqrt(2)) < 1e-15
    assert np.all(amps[1:3] == 0)
    assert abs(phi.n_bar - 1.5) < 1e-14
    first, second = ladder_moments(phi.state)
    assert first == 0
    assert second == 0


def test_lattice_single_shell_is_vacuum():
    phi = lattice_phi((1.0,))
    assert abs(abs(phi.state.amps[0]) - 1.0) < 1e-15
    assert phi.n_bar == 0.0


def test_lattice_rejects_bad_weights():
    with pytest.raises(InvalidSpecError):
        lattice_phi((1.0, -0.5))
    with pytest.raises(TrivialStateError):
        lattice_phi((0.0, 0.0))


@given(
    weights=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5).filter(
        lambda w: sum(w) > 1e-6
    )
)
@settings(max_examples=60, deadline=None)
def test_lattice_seed_condition_always_holds(weights):
    phi = lattice_phi(tuple(weights))
    first, second = ladder_moments(phi.state)
    # support on every third rung makes both sums empty, identically zero
    assert first == 0
    assert second == 0
    assert 0.0 <= phi.n_bar <= 3.0 * (len(weights) - 1)


def test_lattice_nbar_targeting():
    phi = lattice_phi_for_nbar(2.4, shells=1)
    assert abs(phi.n_bar - 2.4) < 1e-9
    phi = lattice_phi_for_nbar(7.0, shells=3)
    assert abs(phi.n_bar - 7.0) < 1e-9
    with pytest.raises(OutOfRangeError):
        lattice_phi_for_nbar(3.5, shells=1)
    with pytest.raises(OutOfRangeError):
        lattice_phi_for_nbar(-0.1, shells=1)


def test_lattice_nbar_rejects_non_integer_shells():
    for shells in (1.5, 2.0, True, "2"):
        with pytest.raises(InvalidSpecError):
            lattice_phi_for_nbar(1.0, shells)
    assert lattice_phi_for_nbar(1.0, np.int64(2)).n_bar == lattice_phi_for_nbar(1.0, 2).n_bar


def test_lattice_nbar_closed_form():
    # n_bar = 3 * shells * q holds exactly, so one build hits the target
    rng = np.random.default_rng(33)
    for _ in range(1000):
        shells = int(rng.integers(1, 4))
        target = float(rng.uniform(0.0, 3.0 * shells))
        assert abs(lattice_phi_for_nbar(target, shells).n_bar - target) < 1e-12
    for shells in (1, 2, 3):
        for target in (0.0, 3.0 * shells):
            assert abs(lattice_phi_for_nbar(target, shells).n_bar - target) < 1e-12
    with pytest.raises(InvalidSpecError):
        lattice_phi_for_nbar(0.0, shells=0)


def test_displaced_seed_variance_theorem(rng):
    # Displacing any seed leaves var_x = var_p = n_bar + 1/2 and cov = 0
    # at every alpha; this is the defining property the solver targets.
    seeds = [
        lattice_phi((1.0, 1.0), dim=128),
        solve_phi(PhiSpec(n=1, N=6, free=(0.9, -0.4 + 0.2j, 0.3, 0.7j)), dim=128),
    ]
    for phi in seeds:
        for _ in range(6):
            alpha = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            moved = displace(phi.state, alpha)
            got = summarize(moved)
            assert abs(got.var_x - (phi.n_bar + 0.5)) < 1e-9
            assert abs(got.var_p - (phi.n_bar + 0.5)) < 1e-9
            assert abs(got.cov) < 1e-9
