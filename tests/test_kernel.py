"""The matrix-free displacement/squeeze kernel against the dense oracle.

`displace` and `squeeze` apply exp(generator) to the vector; the dense
truncated unitaries in conftest are the reference they must reproduce, and
the sparse `expm_multiply` kernel the package used before its own Taylor
loop is a second reference.
"""

import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from contractive.states import _band, _expm_band

from conftest import (
    dense_displace,
    dense_squeeze,
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
    # the overcompleteness kernel's helper thread uses threading alone, which
    # the CLI already loads; an executor or a queue would add import time to
    # every CLI process
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
    # the Taylor kernel draws no random numbers (its step count comes from
    # the exact 1-norm); the amplitudes must not depend on np.random
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
