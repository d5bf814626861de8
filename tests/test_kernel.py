"""The matrix-free displacement/squeeze kernel against the dense oracle.

`displace` and `squeeze` apply exp(generator) to the vector with a
Chebyshev-Bessel expansion; the dense truncated unitaries in conftest are
the reference they must reproduce. The kernels the package ran before are
kept in conftest as further references: the term-by-term Chebyshev loop and
its numpy Bessel recurrence, which the kernel must match bit for bit, the
scaled Taylor loop it retired for the expansion, and the sparse
`expm_multiply` it used before that. The Bessel coefficients are also
checked against scipy.
"""

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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

import contractive
from contractive import (
    FockVector,
    InvalidDimensionError,
    SqueezeParams,
    TruncationError,
    displace,
    lattice_phi,
    make_scs,
    make_sgcs,
    number_state,
    squeeze,
)
from contractive.states import RING_BYTES, _band, _bessel_j, _block_terms, _expm_band

from conftest import (
    bessel_j_reference,
    dense_displace,
    dense_squeeze,
    expm_band_chebyshev_reference,
    expm_band_taylor_reference,
    expm_multiply_apply,
    squeezed_vacuum_amps,
)

KERNEL_TOL = 1e-12


def _narrow_random_state(dim: int, seed: int) -> FockVector:
    """Random amplitudes under a Gaussian envelope of a few levels, so the
    state and its images under |alpha| <= 1.5, r <= 1 fit dims >= 64."""
    rng = np.random.default_rng(seed)
    m = np.arange(dim)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FockVector(amps * np.exp(-((m / 3.0) ** 2))).normalized()


def _check_against_oracle(kernel, oracle, state: FockVector) -> None:
    want = oracle(state.amps)
    try:
        got = kernel(state)
    except TruncationError:
        # the kernel may only refuse what the exact image leaves unresolved
        assert FockVector(want).tail_mass() > 0.5e-8
        return
    assert np.max(np.abs(got.amps - want)) <= KERNEL_TOL


@given(
    dim=st.sampled_from([64, 128, 256, 512]),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.0, 1.5),
    phase=st.floats(0.0, 2.0 * math.pi),
)
@settings(max_examples=25, deadline=None)
def test_displace_matches_dense_oracle(dim, seed, rho, phase):
    alpha = rho * complex(math.cos(phase), math.sin(phase))
    _check_against_oracle(lambda s: displace(s, alpha),
                          lambda amps: dense_displace(amps, alpha),
                          _narrow_random_state(dim, seed))


@given(
    dim=st.sampled_from([64, 128, 256, 512]),
    seed=st.integers(0, 2**32 - 1),
    r=st.floats(0.0, 1.0),
    theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
)
@settings(max_examples=25, deadline=None)
def test_squeeze_matches_dense_oracle(dim, seed, r, theta):
    params = SqueezeParams(r=r, theta=theta)
    _check_against_oracle(lambda s: squeeze(s, params),
                          lambda amps: dense_squeeze(amps, r, theta),
                          _narrow_random_state(dim, seed))


def test_kernel_at_parameter_extremes():
    # the corners of the property tests' parameter range
    state = _narrow_random_state(256, 7)
    for alpha in (1.5, -1.5j, 1.5 * np.exp(2.5j)):
        got = displace(state, alpha)
        assert np.max(np.abs(got.amps - dense_displace(state.amps, alpha))) <= KERNEL_TOL
    for theta in (0.0, 1.0, math.pi, 5.0):
        got = squeeze(state, SqueezeParams(r=1.0, theta=theta))
        want = dense_squeeze(state.amps, 1.0, theta)
        assert np.max(np.abs(got.amps - want)) <= KERNEL_TOL


@given(
    dim=st.sampled_from([64, 128, 256, 512, 1024]),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.0, 1.5),
    phase=st.floats(0.0, 2.0 * math.pi),
)
@example(dim=1024, seed=11, rho=1.5, phase=2.5)
@example(dim=64, seed=12, rho=1.5, phase=0.0)
@settings(max_examples=25, deadline=None)
def test_displace_matches_retired_kernel(dim, seed, rho, phase):
    alpha = rho * complex(math.cos(phase), math.sin(phase))
    _check_against_oracle(lambda s: displace(s, alpha),
                          lambda amps: expm_multiply_apply(amps, 1, alpha),
                          _narrow_random_state(dim, seed))


@given(
    dim=st.sampled_from([64, 128, 256, 512, 1024]),
    seed=st.integers(0, 2**32 - 1),
    r=st.floats(0.0, 1.0),
    theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
)
@example(dim=1024, seed=13, r=1.0, theta=5.0)
@example(dim=64, seed=14, r=1.0, theta=0.0)
@settings(max_examples=25, deadline=None)
def test_squeeze_matches_retired_kernel(dim, seed, r, theta):
    params = SqueezeParams(r=r, theta=theta)
    _check_against_oracle(lambda s: squeeze(s, params),
                          lambda amps: expm_multiply_apply(amps, 2, -0.5 * params.xi),
                          _narrow_random_state(dim, seed))


def test_squeeze_corner_at_dim_1024_matches_dense_oracle():
    # the largest generator norm the property tests reach; one dense
    # exponential at this size takes seconds, so only this corner is checked
    state = _narrow_random_state(1024, 5)
    got = squeeze(state, SqueezeParams(r=1.0, theta=5.0))
    want = dense_squeeze(state.amps, 1.0, 5.0)
    assert np.max(np.abs(got.amps - want)) <= KERNEL_TOL


_SCIPY_GUARD = """
import io, json, sys
from contextlib import redirect_stdout

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import contractive
from contractive.cli import main
report = {"import": scipy_loaded()}
with redirect_stdout(io.StringIO()):
    report["build_code"] = main(["state", "build", "scs", "--alpha", "1+0.5i",
                                 "--r", "0.6", "--theta", "1.1", "--dim", "256"])
report["build"] = scipy_loaded()
out = io.StringIO()
with redirect_stdout(out):
    report["identities_code"] = main(["verify", "identities"])
report["identities_passed"] = json.loads(out.getvalue())["passed"]
report["identities"] = scipy_loaded()
print(json.dumps(report))
"""


def test_state_construction_loads_no_scipy():
    # neither building states nor checking the operator identities loads scipy
    root = str(Path(contractive.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_GUARD],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert report["build_code"] == 0 and report["build"] == []
    assert report["identities_code"] == 0 and report["identities_passed"]
    assert report["identities"] == []


_POOL_GUARD = """
import io, json, sys
from contextlib import redirect_stdout

def pools_loaded():
    return sorted(m for m in ("concurrent.futures", "queue") if m in sys.modules)

from contractive.cli import main
report = {"import": pools_loaded()}
with redirect_stdout(io.StringIO()):
    report["code"] = main(["verify", "overcompleteness", "--budget", "1000"])
report["overcompleteness"] = pools_loaded()
print(json.dumps(report))
"""


def test_cli_loads_no_pool_modules():
    # the overcompleteness kernel runs on the calling thread; an executor or
    # a queue would add import time to every CLI process
    root = str(Path(contractive.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _POOL_GUARD],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"import": [], "code": 0, "overcompleteness": []}


def test_package_imports_no_scipy():
    package = Path(contractive.__file__).resolve().parent
    imported = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module or ""))
    assert ("states.py", "numpy") in imported  # the walk does see imports
    assert [m for m in imported if m[1].split(".")[0] == "scipy"] == []


def test_builders_never_call_the_dense_exponential():
    # a dense unitary at dim 1024 is 16 MiB; the vector kernel holds a few
    # vectors and one band, so its peak allocation stays far below that
    params = SqueezeParams(r=0.8, theta=1.3)
    dim = 1024
    tracemalloc.start()
    try:
        scs = make_scs(1.2 - 0.4j, params, dim=dim)
        sgcs = make_sgcs(0.5j, params, lattice_phi([1.0, 1.0]).state, dim=dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dim * dim  # bytes: a sixteenth of one dense complex matrix
    assert scs.dim == sgcs.dim == dim
    vac = squeeze(number_state(0, 256), params)
    want = squeezed_vacuum_amps(params.r, params.theta, 256)
    assert np.max(np.abs(vac.amps - want)) < 1e-12


def test_kernel_ignores_global_random_state():
    # the Chebyshev kernel draws no random numbers (its number of terms
    # comes from the exact 1-norm); the amplitudes must not depend on np.random
    state = _narrow_random_state(1024, 3)
    params = SqueezeParams(r=1.0, theta=0.4)
    outputs = []
    saved = np.random.get_state()
    try:
        for seed in range(4):
            np.random.seed(seed)
            outputs.append(displace(squeeze(state, params), 1.5 - 0.5j).amps)
    finally:
        np.random.set_state(saved)
    for other in outputs[1:]:
        assert np.array_equal(other, outputs[0])


def test_sgcs_seed_with_tiny_amplitudes():
    # every amplitude below 1e-14 is still a valid, normalizable seed
    amps = np.zeros(16, dtype=complex)
    amps[[0, 3]] = 1e-15
    tiny = FockVector(amps)
    params = SqueezeParams(r=0.3, theta=0.7)
    for dim in (None, 128):
        got = make_sgcs(0.4 - 0.2j, params, tiny, dim=dim)
        want = make_sgcs(0.4 - 0.2j, params, tiny.normalized(), dim=dim)
        assert got.dim == want.dim
        assert np.max(np.abs(got.amps - want.amps)) < 1e-14


def test_kernel_rejects_dim_below_two():
    for dim in (0, 1):
        for k, c in ((1, 0.5), (2, -0.15)):
            with pytest.raises(InvalidDimensionError):
                _band(k, c, dim)
            with pytest.raises(InvalidDimensionError):
                _expm_band(np.ones(dim, dtype=complex), k, c)
            with pytest.raises(InvalidDimensionError):
                _expm_band(np.ones((dim, 3), dtype=complex), k, c)


def test_block_kernel_matches_column_by_column():
    # the block path broadcasts the band over columns; each column must
    # agree with the vector path, whose arithmetic builds every state
    rng = np.random.default_rng(21)
    for dim, k, c in ((64, 1, 1.1 - 0.7j), (128, 2, -0.35 * np.exp(1.1j)),
                      (96, 2, 0.2 * np.exp(4.0j)), (32, 1, 0.0)):
        cols = rng.standard_normal((dim, 7)) + 1j * rng.standard_normal((dim, 7))
        cols[dim // 2:] = 0.0
        got = _expm_band(cols, k, c)
        assert got.shape == cols.shape
        for n in range(cols.shape[1]):
            assert np.max(np.abs(got[:, n] - _expm_band(cols[:, n], k, c))) <= 1e-13


def _one_norm(k: int, c: complex, dim: int) -> float:
    """The 1-norm of c a^dag^k - c* a^k at dim, its largest column sum."""
    col_sums = np.zeros(dim)
    band = np.abs(_band(k, c, dim))
    col_sums[:dim - k] += band
    col_sums[k:] += band
    return float(col_sums.max())


def _generator_of_norm(k: int, dim: int, rho: float, phase: float) -> complex:
    """c whose generator c a^dag^k - c* a^k has 1-norm rho at dim; where
    rho / norm(band of c = 1) underflows, |c| = rho stands in, the smallest
    nonzero generator."""
    factor = _one_norm(k, 1.0, dim) or 1.0
    size = rho / factor if rho / factor > 0.0 else rho
    return size * complex(math.cos(phase), math.sin(phase))


def _random_amps(dim: int, columns, seed: int) -> np.ndarray:
    """A (dim,) vector (columns None) or a (dim, columns) block on a random
    scale, with every other column zero."""
    rng = np.random.default_rng(seed)
    shape = (dim,) if columns is None else (dim, columns)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps *= 10.0 ** rng.uniform(-3.0, 3.0)
    if columns is not None:
        amps[:, ::2] = 0.0  # zero columns
    return amps


def _ring_switch_dims() -> list[int]:
    """The vector dims on each side of the first and the last change of the
    kernel's block length (the last is where it turns to the in-place
    recurrence)."""
    blocks = {dim: _block_terms(16 * dim) for dim in range(2, 4097)}
    switches = [dim for dim in range(3, 4097) if blocks[dim] != blocks[dim - 1]]
    return sorted({switches[0] - 1, switches[0], switches[-1] - 1, switches[-1]})


RING_SWITCH_DIMS = _ring_switch_dims()


@given(
    k=st.sampled_from([1, 2]),
    dim=st.sampled_from([2, 3, 5, 32, 64, 256, 1024] + RING_SWITCH_DIMS),
    rho=st.sampled_from([0.0, 5e-324, 7.3e-101, 1e-8, 0.5, 4.0, 130.0, 1000.0]),
    phase=st.floats(0.0, 2.0 * math.pi),
    columns=st.sampled_from([None, 1, 4, 15, 32]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=2, dim=256, rho=1000.0, phase=1.0, columns=None, seed=0)
@example(k=1, dim=64, rho=130.0, phase=4.0, columns=15, seed=1)
@example(k=2, dim=1024, rho=130.0, phase=2.0, columns=32, seed=2)
@settings(max_examples=60, deadline=None)
def test_kernel_bit_identical_to_retired_chebyshev_loop(k, dim, rho, phase, columns, seed):
    # summing the terms block by block keeps every operation and its order
    c = _generator_of_norm(k, dim, rho, phase)
    amps = _random_amps(dim, columns, seed)
    got = _expm_band(amps, k, c)
    want = expm_band_chebyshev_reference(amps, k, c)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


def test_kernel_bit_identical_in_the_sweep_regime(monkeypatch):
    # the dim-256 squeezes the sweep benchmark runs reach 1-norms from 130
    # to 256, between the values sampled above; record both kernel calls of
    # make_scs, the squeeze (k = 2) and the displacement of the squeezed
    # vector (k = 1), over draws in the sweep's ranges
    calls = []

    def recording_kernel(amps, k, c):
        calls.append((amps.copy(), k, c, _expm_band(amps, k, c)))
        return calls[-1][3]

    monkeypatch.setattr("contractive.states._expm_band", recording_kernel)
    rng = np.random.default_rng(31)
    for _ in range(30):
        alpha = complex(*rng.uniform(-1.4, 1.4, 2))
        params = SqueezeParams(r=rng.uniform(0.0, 1.0),
                               theta=rng.uniform(0.0, 2.0 * math.pi))
        calls.clear()
        make_scs(alpha, params, dim=256)
        assert [call[1] for call in calls] == [2, 1]
        for amps, k, c, got in calls:
            want = expm_band_chebyshev_reference(amps, k, c)
            assert got.tobytes() == want.tobytes(), (alpha, params, k)


def _rho_for_terms(terms: int) -> float:
    """A 1-norm inside the range where the series runs `terms` terms past
    u_1; that count grows with rho one term at a time."""

    def first_rho(count: int) -> float:  # where the count reaches count
        lo, hi = 1e-300, 2.0 * count + 10.0
        for _ in range(200):
            mid = math.sqrt(lo) * math.sqrt(hi)
            if bessel_j_reference(mid).size - 2 >= count:
                hi = mid
            else:
                lo = mid
        return hi

    return 0.5 * (first_rho(terms) + first_rho(terms + 1))


@pytest.mark.parametrize("shape", [(dim,) for dim in [64] + RING_SWITCH_DIMS]
                         + [(64, 1), (64, 4), (32, 15), (16, 32), (24, 32)])
def test_kernel_bit_identical_at_block_boundaries(shape):
    # term counts on each side of one and two full blocks, where the kernel
    # carries u_{j-1}, u_j into the next block or flushes a partial one
    block = _block_terms(16 * math.prod(shape))
    columns = shape[1] if len(shape) == 2 else None
    amps = _random_amps(shape[0], columns, seed=math.prod(shape))
    for k in (1, 2):
        for terms in sorted({1, 2, block - 1, block, block + 1, 2 * block} - {0}):
            c = _generator_of_norm(k, shape[0], _rho_for_terms(terms), 0.7)
            assert bessel_j_reference(_one_norm(k, c, shape[0])).size - 2 == terms
            got = _expm_band(amps, k, c)
            want = expm_band_chebyshev_reference(amps, k, c)
            assert got.tobytes() == want.tobytes(), (k, terms)


def test_kernel_keeps_negative_zero_sums():
    # vectors of signed zeros, half with three small top entries: some
    # entries sum to -0.0 exactly, which a block sum started from +0.0 turns
    # into +0.0 (cases 19, 73 and 508 did) where the term-by-term loop keeps it
    rng = np.random.default_rng(0)
    for case in range(600):
        dim = int(rng.integers(64, 301))
        k = int(rng.integers(1, 3))
        parts = np.where(rng.integers(0, 2, (dim, 2)) == 1, -0.0, 0.0)
        amps = parts.view(complex).reshape(dim)
        if case % 2 == 0:
            amps[-3:] = rng.uniform(0.004, 0.02, 3) * np.exp(2j * np.pi * rng.random(3))
        c = complex(rng.standard_normal(), rng.standard_normal())
        c *= rng.uniform(0.1, 1.0)
        got = _expm_band(amps, k, c)
        want = expm_band_chebyshev_reference(amps, k, c)
        assert got.tobytes() == want.tobytes(), (case, dim, k)


@given(x=st.floats(1e-300, 5000.0))
@example(x=5e-324)
@example(x=1.0)
@example(x=2.0)
@example(x=128.0)
@example(x=254.0)
@settings(max_examples=200, deadline=None)
def test_bessel_bit_identical_to_retired_recurrence(x):
    got = _bessel_j(x)
    want = bessel_j_reference(x)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_kernel_memory_stays_within_the_ring_bound():
    # The term-by-term loop held about ten arrays the size of its input
    # (10.2 at dim 4096, measured). The ring adds at most RING_BYTES
    # (128 KiB) and, when it sums a block, numpy's broadcast buffer of at
    # most 8192 complex values (another 128 KiB). So the bounds are
    # 128 KiB + 11 inputs where the rows are too large for a ring (832 KiB
    # at dim 4096, 1.5 MiB for a 128 x 64 block; a 32-row ring of them
    # would take 2 and 4 MiB alone), and 256 KiB + 16 inputs at dim 256
    # (320 KiB), where 96 row views add about 3 inputs.
    vacuum = np.zeros(4096, dtype=complex)
    vacuum[0] = 1.0
    cases = ((vacuum, 2, -0.5, RING_BYTES + 11 * vacuum.nbytes),
             (np.eye(128, 64, dtype=complex), 1, 1.0 + 0.5j, RING_BYTES + 11 * 128 * 64 * 16),
             (vacuum[:256].copy(), 2, -0.5, 2 * RING_BYTES + 16 * 256 * 16))
    for amps, k, c, bound in cases:
        tracemalloc.start()
        try:
            _expm_band(amps, k, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, (amps.shape, peak)


@given(
    k=st.sampled_from([1, 2]),
    dim=st.sampled_from([2, 3, 32, 64, 256, 1024]),
    rho=st.sampled_from([0.0, 5e-324, 7.3e-101, 1e-8, 0.5, 4.0, 130.0, 1000.0]),
    phase=st.floats(0.0, 2.0 * math.pi),
    columns=st.sampled_from([None, 1, 4]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=1, dim=64, rho=7.3e-101, phase=0.0, columns=None, seed=0)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_retired_taylor_kernel(k, dim, rho, phase, columns, seed):
    c = _generator_of_norm(k, dim, rho, phase)
    amps = _random_amps(dim, columns, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow at subnormal rho
        got = _expm_band(amps, k, c)
    want = expm_band_taylor_reference(amps, k, c)
    assert got.shape == amps.shape
    # both kernels rescale G (by rho or by the step count), and rounding the
    # rescaled band moves exp(G)'s phases by about rho u; on two or three
    # levels the two kernels differ by up to about 3e-13 at rho = 1000, so
    # past rho = 130 the bound grows in proportion to rho
    bound = 1e-13 * max(1.0, rho / 130.0)
    assert np.all(np.max(np.abs(got - want), axis=0)
                  <= bound * np.maximum(1.0, np.linalg.norm(amps, axis=0)))


@pytest.mark.parametrize("rho", [0.5, 130.0, 1000.0, 5000.0])
def test_kernel_rotates_two_levels(rho):
    # at dim 2, G = [[0, -c*], [c, 0]] and exp(G) is a rotation by |c|; the
    # band rescaled by rho carries a rounding of u, so the angle is good to
    # about rho u, and the result stays within a few rho u of the rotation
    rng = np.random.default_rng(int(rho))
    for phase in (0.0, 1.0, 4.0):
        c = rho * complex(math.cos(phase), math.sin(phase))
        angle, unit = abs(c), c / abs(c)  # the rotation the rounded c makes
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        want = np.array([math.cos(angle) * amps[0] - unit.conjugate() * math.sin(angle) * amps[1],
                         unit * math.sin(angle) * amps[0] + math.cos(angle) * amps[1]])
        got = _expm_band(amps, 1, c)
        bound = 4.0 * max(1.0, rho) * np.finfo(float).eps / 2.0
        assert np.max(np.abs(got - want)) <= bound * np.linalg.norm(amps)


@pytest.mark.parametrize("x", [1e-300, 1e-100, 1e-8, 0.5, 4.0, 128.0, 1000.0, 5000.0])
def test_bessel_helper_matches_scipy(x):
    # scipy's jv is itself off by up to about 6e-14 at x = 5000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _bessel_j(x)
    assert values.size > x + 1
    assert np.max(np.abs(values - jv(np.arange(values.size), x))) <= 1e-13
    # cut at the first order above x whose tail falls to a quarter epsilon
    eps = np.finfo(float).eps
    beyond = jv(np.arange(values.size, values.size + 200), x)
    assert 2.0 * np.sum(np.abs(beyond)) <= eps / 4
    if values.size - 2 > x:
        assert 2.0 * np.sum(np.abs(beyond)) + 2.0 * abs(values[-1]) > eps / 4
    assert abs(values[0] + 2.0 * values[2::2].sum() - 1.0) <= 1e-14
    assert abs(values[0] ** 2 + 2.0 * np.sum(values[1:] ** 2) - 1.0) <= 1e-14
