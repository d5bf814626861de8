"""CLI output against the golden corpus in tests/golden/corpus.json.

The corpus pins what every `state build` kind, `gcs solve`, each `verify`
suite, `sweep` and the README examples print. On the machine the corpus
records (numpy version, SIMD dispatch features, CPU count) every byte must
match. Elsewhere strings, bools, ints, exit codes and non-numeric CSV fields
must match exactly; floats within FLOAT_RTOL relative plus FLOAT_ATOL
absolute, so the corpus holds across machines and numpy builds. Regenerate it only with
`python tests/golden/regenerate.py`, never by hand, and never widen the
tolerance to make a run pass.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import contractive
from contractive import FockVector
from contractive.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_RTOL = 1e-12
FLOAT_ATOL = 1e-13

# Argv the SIMD test reruns: the squeeze and displacement kernels, the
# Laguerre overcompleteness kernel, and a sweep of seeded builds.
SIMD_ARGVS = [
    "state build scs --alpha 1+0.5i --r 0.4 --theta 0.8 --dim 128 --out scs.json",
    "verify overcompleteness --budget 2000 --seed 3",
    "sweep --kind sgcs --alpha 0.5+0i --r 0.1,0.4 --theta 0,1.2 --nbar 0.5,2 --dim 128",
]

# Exit code of the SIMD subprocess when numpy refuses to import.
NUMPY_IMPORT_FAILED = 77


def _load_regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate",
                                                  GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGENERATE = _load_regenerate()
CORPUS = json.loads(REGENERATE.CORPUS.read_text())
CASES = CORPUS["cases"]


def _close(got: float, want: float) -> bool:
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= FLOAT_RTOL * abs(want) + FLOAT_ATOL


def _same_value(got, want) -> bool:
    """JSON values: floats within tolerance, everything else exactly."""
    if isinstance(want, float) and type(got) is float:
        return _close(got, want)
    if type(got) is not type(want):
        return False
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same_value, got, want))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _same_value(got[k], want[k]) for k in want)
    return got == want


def _number(field: str):
    try:
        return float(field)
    except ValueError:
        return None


def _same_line(got: str, want: str) -> bool:
    """One output line: a JSON object compared as values, else CSV fields,
    numeric ones within tolerance."""
    if want.startswith("{"):
        try:
            return _same_value(json.loads(got), json.loads(want))
        except ValueError:
            return False
    got_fields, want_fields = got.split(","), want.split(",")
    if len(got_fields) != len(want_fields):
        return False
    for g, w in zip(got_fields, want_fields):
        g_num, w_num = _number(g), _number(w)
        if w_num is None or g_num is None:
            if g != w:
                return False
        elif not _close(g_num, w_num):
            return False
    return True


def _text_mismatches(got: str, want: str) -> list[str]:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if got.endswith("\n") != want.endswith("\n") or len(got_lines) != len(want_lines):
        return [f"{len(got_lines)} lines != {len(want_lines)} lines"]
    return [f"line {i}: {g!r} != {w!r}"
            for i, (g, w) in enumerate(zip(got_lines, want_lines))
            if not _same_line(g, w)]


def _case_mismatches(got: dict, want: dict) -> list[str]:
    problems = []
    if got["exit"] != want["exit"]:
        problems.append(f"exit {got['exit']} != {want['exit']}")
    problems += [f"stdout {p}" for p in _text_mismatches(got["stdout"], want["stdout"])]
    if got["files"].keys() != want["files"].keys():
        problems.append(f"files {sorted(got['files'])} != {sorted(want['files'])}")
    else:
        for name in want["files"]:
            problems += [f"{name} {p}"
                         for p in _text_mismatches(got["files"][name], want["files"][name])]
    return problems


def _corpus_mismatches(got_cases, want_cases) -> list[str]:
    problems = []
    for got, want in zip(got_cases, want_cases, strict=True):
        problems += [" ".join(want["argv"]) + ": " + p
                     for p in _case_mismatches(got, want)]
    return problems


def test_corpus_covers_every_build_kind_and_suite():
    argvs = [case["argv"] for case in CASES]
    kinds = {argv[2] for argv in argvs if argv[:2] == ["state", "build"]}
    assert kinds == {"number", "coherent", "displaced-number", "scs", "gcs-lattice",
                     "gcs-solve", "sgcs", "extremal"}
    suites = {argv[1] for argv in argvs if argv[0] == "verify"}
    assert suites == {"uncertainty", "rql", "saturation", "overcompleteness",
                      "identities", "all"}
    assert {argv[2] for argv in argvs if argv[0] == "sweep"} == {"scs", "sgcs"}
    assert ["gcs", "solve"] in [argv[:2] for argv in argvs]


def test_comparison_tolerates_rounding_only():
    want = '{"cov": -1.0, "dim": 64, "flag": true, "name": "rql"}\n0.5,scs,1\n'
    assert _text_mismatches(
        '{"cov": -1.0000000000001, "dim": 64, "flag": true, "name": "rql"}\n'
        '0.50000000000004,scs,1\n', want) == []
    for bad in ('{"cov": -1.00000001, "dim": 64, "flag": true, "name": "rql"}\n0.5,scs,1\n',
                '{"cov": -1.0, "dim": 64.0, "flag": true, "name": "rql"}\n0.5,scs,1\n',
                '{"cov": -1.0, "dim": 64, "flag": 1, "name": "rql"}\n0.5,scs,1\n',
                '{"cov": -1.0, "dim": 64, "flag": true, "name": "rql"}\n0.5,sgcs,1\n',
                '{"cov": -1.0, "dim": 64, "flag": true, "name": "rql"}\n0.5,scs,0\n',
                '{"cov": -1.0, "dim": 64, "flag": true, "name": "rql"}\n0.5,scs,1'):
        assert _text_mismatches(bad, want), bad


def test_cli_output_matches_golden_corpus():
    got = REGENERATE.run_corpus(main, [case["argv"] for case in CASES])
    if CORPUS["machine"] == REGENERATE.machine():
        assert [" ".join(g["argv"]) for g, w in zip(got, CASES, strict=True)
                if g != w] == []
    else:
        assert _corpus_mismatches(got, CASES) == []


def _lower_simd_levels() -> list[str]:
    """NPY_DISABLE_CPU_FEATURES values, one per dispatch level below the
    highest this machine and numpy build support, highest first."""
    supported = REGENERATE.cpu_dispatch_features()
    return [" ".join(supported[i:]) for i in range(len(supported) - 1, -1, -1)]


_SIMD_SCRIPT = f"""
import json, sys
try:
    import numpy
except Exception:
    sys.exit({NUMPY_IMPORT_FAILED})
sys.path.insert(0, sys.argv[1])
from regenerate import run_corpus
from contractive.cli import main
print(json.dumps(run_corpus(main, json.loads(sys.argv[2]))))
"""


def test_cli_output_matches_golden_corpus_at_lower_simd_levels():
    levels = _lower_simd_levels()
    if not levels:
        pytest.skip("numpy dispatches no SIMD level above its baseline here")
    want = [case for case in CASES if " ".join(case["argv"]) in SIMD_ARGVS]
    assert len(want) == len(SIMD_ARGVS)
    root = str(Path(contractive.__file__).resolve().parent.parent)
    ran = 0
    for disabled in levels:
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _SIMD_SCRIPT, str(GOLDEN),
             json.dumps([case["argv"] for case in want])],
            capture_output=True, text=True, timeout=60, env=env,
        )
        if proc.returncode == NUMPY_IMPORT_FAILED:
            continue
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert _corpus_mismatches(got, want) == [], f"disabled: {disabled}"
        ran += 1
    if ran == 0:
        pytest.skip("numpy imports at no lower SIMD level here")


# Argv the BLAS test reruns: every verify suite, and the corpus's sgcs sweep.
BLAS_ARGVS = [
    "verify all --budget 200 --seed 1",
    "sweep --kind sgcs --alpha 0.5+0i --r 0.1,0.4 --theta 0,1.2 --nbar 0.5,2 --dim 128",
]


def test_cli_output_identical_across_blas_thread_counts(tmp_path):
    # stdout must not depend on how many threads OpenBLAS splits its work
    # over; on a one-CPU machine both runs use one thread and agree trivially.
    # A dim-16384 state (Gaussian envelope of width 3000, resolved) is long
    # enough for OpenBLAS to thread a reduction over its amplitudes.
    wide = tmp_path / "wide.json"
    rng = np.random.default_rng(0)
    envelope = np.exp(-0.5 * (np.arange(16384) / 3000.0) ** 2)
    FockVector(envelope * np.exp(2j * np.pi * rng.random(16384))).dump(wide)
    root = str(Path(contractive.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    for argv in [text.split() for text in BLAS_ARGVS] + [["state", "moments", str(wide)]]:
        outputs = []
        for threads in (None, "1"):
            run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "contractive.cli", *argv],
                                  capture_output=True, timeout=60, env=run_env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1], argv
