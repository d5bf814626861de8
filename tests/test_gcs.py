import math
import warnings

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
    summarize,
)
from contractive.fock import index_sums, index_weights

from conftest import (
    coherent_amps,
    index_sums_reference,
    ladder_moments_direct,
    minimal_band_amps,
)


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
    got = index_sums(state.amps)[:2]
    want = ladder_moments_direct(state.amps)
    assert abs(got[0] - want[0]) < 1e-12
    assert abs(got[1] - want[1]) < 1e-12


@given(dim=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_index_sums_bit_identical_to_retired_path(dim, seed):
    rng = np.random.default_rng(seed)
    state = FockVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    first, second, n_bar = index_sums_reference(state.amps)
    assert index_sums(state.amps) == (first, second, n_bar)


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
    first, second = index_sums(phi.state.amps)[:2]
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
        b = minimal_band_amps(n, c1, c2, dim=32)
        assert np.max(np.abs(a.state.amps - b)) < 1e-12
        assert abs(a.n_bar - np.arange(32) @ np.abs(b) ** 2) < 1e-12


def test_solve_n3_zero_cross_term_gives_number_state():
    phi = solve_phi(PhiSpec(n=2, N=5, free=(1.0, 0.0)), dim=16)
    # c_{n+2} = 0 kills the coupling; the solved band collapses to |n+1>
    assert abs(abs(phi.state.amps[3]) - 1.0) < 1e-12
    assert abs(phi.n_bar - 3.0) < 1e-12


def test_solve_degenerate_raises():
    # equal magnitudes |c_{n+1}| = |c_{n+2}| make the minimal band singular
    with pytest.raises(DegenerateSpecError):
        solve_phi(PhiSpec(n=0, N=3, free=(1.0, 1.0)))
    with pytest.raises(DegenerateSpecError):
        solve_phi(PhiSpec(n=1, N=4, free=(0.5 + 0.5j, 0.5 - 0.5j)))


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
        first, second = index_sums(phi.state.amps)[:2]
        assert abs(first) < 1e-10
        assert abs(second) < 1e-10
        assert n <= phi.n_bar <= N


def test_solve_dim_too_small():
    with pytest.raises(InvalidSpecError):
        solve_phi(PhiSpec(n=0, N=6, free=(1.0, 0.5, 0.25, 0.125, 0.1)), dim=4)


@pytest.mark.parametrize("spec", [
    PhiSpec(n=0, N=3, free=(1.0, 0.5)),
    PhiSpec(n=1, N=6, free=(0.9, -0.4 + 0.2j, 0.3, 0.7j)),
], ids=["minimal", "wide"])
@pytest.mark.parametrize("extra", [0, 1, 9, 60])
def test_solve_at_dim_is_own_size_seed_padded(spec, extra):
    # a seed solved at a larger cutoff is the band-sized seed, zero-padded
    dim = spec.N + 1 + extra
    got = solve_phi(spec, dim=dim)
    want = solve_phi(spec)
    assert np.array_equal(got.state.amps, want.state.padded(dim).amps)
    assert got.n_bar == want.n_bar


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_solve_dim_one_short_of_minimal_band_names_its_top_level(n):
    spec = PhiSpec(n=n, N=n + 3, free=(1.0, 0.5))
    with pytest.raises(InvalidSpecError) as info:
        solve_phi(spec, dim=n + 3)
    assert str(info.value) == f"dim {n + 3} cannot hold a band reaching level {n + 3}"
    assert solve_phi(spec, dim=n + 4).state.dim == n + 4


def test_lattice_two_shells():
    phi = lattice_phi((1.0, 1.0))
    amps = phi.state.amps
    assert abs(amps[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(amps[3] - 1 / math.sqrt(2)) < 1e-15
    assert np.all(amps[1:3] == 0)
    assert abs(phi.n_bar - 1.5) < 1e-14
    first, second = index_sums(phi.state.amps)[:2]
    assert first == 0
    assert second == 0


@pytest.mark.parametrize("s", range(1, 9))
def test_lattice_seed_comes_at_its_own_size(s):
    # s weights reach level 3(s - 1); one weight still gives dim 2
    assert lattice_phi(np.ones(s)).state.dim == max(3 * (s - 1) + 1, 2)


@pytest.mark.parametrize("shells", [1, 2, 3, 4, 6])
def test_lattice_for_nbar_seed_comes_at_its_own_size(shells):
    phi = lattice_phi_for_nbar(1.0, shells)
    assert phi.state.dim == 3 * shells + 1
    assert abs(phi.state.amps[-1]) > 0.0


@pytest.mark.parametrize("weights, dim", [
    ((1.0,), 2), ((1.0,), 16),
    ((1.0, 1.0), 4), ((1.0, 1.0), 5), ((1.0, 1.0), 16), ((1.0, 1.0), 128),
    ((0.2, 0.3, 0.5), 7), ((0.2, 0.3, 0.5), 64),
])
def test_padded_lattice_seed_keeps_its_amplitudes(weights, dim):
    # padding is the one route to a larger cutoff: the seed's amplitudes
    # keep their bits, the new levels are empty and both moments still vanish
    phi = lattice_phi(weights)
    padded = phi.state.padded(dim)
    assert padded.dim == dim
    assert np.array_equal(padded.amps[:phi.state.dim], phi.state.amps)
    assert not padded.amps[phi.state.dim:].any()
    assert index_sums(padded.amps) == index_sums(phi.state.amps)
    assert check_phi(padded).ok


def test_lattice_single_shell_is_vacuum():
    phi = lattice_phi((1.0,))
    assert abs(abs(phi.state.amps[0]) - 1.0) < 1e-15
    assert phi.n_bar == 0.0


def test_lattice_rejects_bad_weights():
    with pytest.raises(InvalidSpecError):
        lattice_phi((1.0, -0.5))
    with pytest.raises(TrivialStateError):
        lattice_phi((0.0, 0.0))


def test_lattice_weights_past_the_float_range():
    # 1e308 + 1e308 overflows; such weights are scaled by a power of two
    # and summed again, so the two-shell seed comes out with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = lattice_phi((1e308, 1e308))
        wide = lattice_phi((1.7e308, 1.7e308, 1e-300))
    plain = lattice_phi((1.0, 1.0))
    assert np.array_equal(phi.state.amps, plain.state.amps)
    assert phi.n_bar == plain.n_bar and abs(phi.n_bar - 1.5) < 1e-14
    assert np.array_equal(wide.state.amps[:4], plain.state.amps)


@pytest.mark.parametrize("weights", [(1.0, 5e-324), (3.0, 1e-200, 1e300),
                                     (0.25, 0.5, 0.125, 2.0)])
def test_lattice_weights_in_range_keep_their_bits(weights):
    # weights whose sum stays finite give sqrt(w / sum(w)) unscaled, down
    # to a subnormal weight that scaling down would flush to zero
    w = np.array(weights)
    phi = lattice_phi(weights)
    assert np.array_equal(phi.state.amps[::3], np.sqrt(w / w.sum()))


@given(
    weights=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5).filter(
        lambda w: sum(w) > 1e-6
    )
)
@settings(max_examples=60, deadline=None)
def test_lattice_seed_condition_always_holds(weights):
    phi = lattice_phi(tuple(weights))
    first, second = index_sums(phi.state.amps)[:2]
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


def test_lattice_nbar_rejects_non_real_target():
    for target in ("1", True, 1j, None):
        with pytest.raises(InvalidSpecError):
            lattice_phi_for_nbar(target, 2)
    assert lattice_phi_for_nbar(np.float64(1.5), 2).n_bar == lattice_phi_for_nbar(1.5, 2).n_bar


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
        lattice_phi((1.0, 1.0)),
        solve_phi(PhiSpec(n=1, N=6, free=(0.9, -0.4 + 0.2j, 0.3, 0.7j))),
    ]
    for phi in seeds:
        for _ in range(6):
            alpha = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            moved = displace(phi.state.padded(128), alpha)
            got = summarize(moved)
            assert abs(got.var_x - (phi.n_bar + 0.5)) < 1e-9
            assert abs(got.var_p - (phi.n_bar + 0.5)) < 1e-9
            assert abs(got.cov) < 1e-9
