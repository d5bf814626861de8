"""The library boundary in one table: every scalar argument of the public
callables rejects malformed and non-finite values with a one-line
ContractiveError, never a raw Python error or a numpy warning.

Each row is (callable, argument, valid keyword arguments, bad values). The
argument is a keyword, or a keyword plus the indices and keys that lead to
the value when it sits inside sequences or JSON dicts. Every bad value is substituted into the
valid call in turn. Object-typed arguments (state, params, rng, summary)
stay out: a wrong object type raising AttributeError is ordinary Python.

Finite values whose squares or exponentials leave the float range end the
same way, or in the outcome their call documents.
"""

import math
import warnings

import numpy as np
import pytest

from contractive import (
    ContractiveError,
    DegenerateSpecError,
    FockVector,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidSpecError,
    OutOfRangeError,
    PhiSpec,
    PhysicalScales,
    SqueezeParams,
    check_conjugation_identities,
    check_overcompleteness,
    displace,
    evolve_free_mass,
    evolve_oscillator,
    extremal_fock,
    lattice_phi,
    lattice_phi_for_nbar,
    make_scs,
    make_sgcs,
    number_state,
    random_state,
    rql_band,
    run_suite,
    safe_block,
    schrodinger_oracle,
    sgcs_predicted_moments,
    solve_phi,
    summarize,
)
from contractive.cli import main

# Invalid for every numeric scalar; each kind adds what its type rules out.
_ANY = (True, "1", math.nan, math.inf, None, [1, 2])
COMPLEX = _ANY
REAL = _ANY + (1j,)
INT = REAL + (2.5,)
NONNEG_REAL = REAL + (-1,)
NONNEG_INT = INT + (-1,)
NAME = INT + (-1,)  # none of the values is a known system, method or suite
# A whole sequence argument replaced by a scalar or a non-number.
SEQUENCE = (True, "1", math.nan, math.inf, None, 1j)


def optional(kind):
    """The bad values of an argument whose default is None."""
    return tuple(value for value in kind if value is not None)


STATE = number_state(0, 16)
PARAMS = SqueezeParams(r=0.1)
SEED = lattice_phi([1.0, 1.0]).state
SUMMARY = summarize(STATE)
SCALES = PhysicalScales()
SPEC = PhiSpec(n=0, N=3, free=(1.0, 0.5))

_SPEC_JSON = {"n": 0, "N": 3, "free": [[1.0, 0.0], [0.5, 0.0]]}
_STATE_JSON = {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}
_OVERCOMPLETE = dict(phi=STATE, params=PARAMS, probe_dim=2, budget=100)
_CONJUGATION = dict(alpha=0.1, params=PARAMS, dim=32)
_TIMES = [0.0, 0.5]

ROWS = [
    (number_state, ("n",), dict(n=0, dim=16), NONNEG_INT),
    (number_state, ("dim",), dict(n=0, dim=16), NONNEG_INT),
    (random_state, ("dim",), dict(dim=16, rng=np.random.default_rng(0)), NONNEG_INT),
    (FockVector.from_json_dict, ("data", "dim"), dict(data=_STATE_JSON), NONNEG_INT),
    (FockVector.from_json_dict, ("data", "re", 0), dict(data=_STATE_JSON), REAL),
    (FockVector.from_json_dict, ("data", "im", 0), dict(data=_STATE_JSON), REAL),
    (STATE.padded, ("dim",), dict(dim=32), NONNEG_INT),
    (PhiSpec, ("n",), dict(n=0, N=3, free=(1.0, 0.5)), NONNEG_INT),
    (PhiSpec, ("N",), dict(n=0, N=3, free=(1.0, 0.5)), NONNEG_INT),
    (PhiSpec, ("free",), dict(n=0, N=3, free=(1.0, 0.5)), SEQUENCE + (-1, 2.5)),
    (PhiSpec, ("free", 0), dict(n=0, N=3, free=(1.0, 0.5)), COMPLEX),
    (PhiSpec, ("free", 1), dict(n=0, N=3, free=(1.0, 0.5)), COMPLEX),
    (PhiSpec.from_json_dict, ("data", "n"), dict(data=_SPEC_JSON), NONNEG_INT),
    (PhiSpec.from_json_dict, ("data", "N"), dict(data=_SPEC_JSON), NONNEG_INT),
    (PhiSpec.from_json_dict, ("data", "free", 0, 0), dict(data=_SPEC_JSON), REAL),
    (PhiSpec.from_json_dict, ("data", "free", 0, 1), dict(data=_SPEC_JSON), REAL),
    (solve_phi, ("dim",), dict(spec=SPEC, dim=8), optional(NONNEG_INT)),
    (lattice_phi, ("weights",), dict(weights=[1.0, 0.5]), SEQUENCE + (-1, 2.5)),
    (lattice_phi, ("weights", 0), dict(weights=[1.0, 0.5]), NONNEG_REAL),
    (lattice_phi_for_nbar, ("target",), dict(target=1.0, shells=1), NONNEG_REAL),
    (lattice_phi_for_nbar, ("shells",), dict(target=1.0, shells=1), NONNEG_INT),
    (sgcs_predicted_moments, ("n_bar",), dict(n_bar=1.0, params=PARAMS), NONNEG_REAL),
    (SqueezeParams, ("r",), dict(r=0.1, theta=0.2), NONNEG_REAL),
    (SqueezeParams, ("theta",), dict(r=0.1, theta=0.2), REAL),
    (displace, ("alpha",), dict(state=STATE, alpha=0.1), COMPLEX),
    (make_scs, ("alpha",), dict(alpha=0.1, params=PARAMS), COMPLEX),
    (make_scs, ("dim",), dict(alpha=0.1, params=PARAMS, dim=32), optional(NONNEG_INT)),
    (make_sgcs, ("alpha",), dict(alpha=0.1, params=PARAMS, phi=SEED), COMPLEX),
    (make_sgcs, ("dim",), dict(alpha=0.1, params=PARAMS, phi=SEED, dim=32),
     optional(NONNEG_INT)),
    (extremal_fock, ("lam",), dict(lam=1.0), COMPLEX + (1j, -1)),
    (extremal_fock, ("mean_x",), dict(lam=1.0, mean_x=0.5), REAL),
    (extremal_fock, ("mean_p",), dict(lam=1.0, mean_p=0.5), REAL),
    (extremal_fock, ("dim",), dict(lam=1.0, dim=32), optional(NONNEG_INT)),
    (PhysicalScales, ("hbar",), dict(hbar=1.0), NONNEG_REAL),
    (PhysicalScales, ("mass",), dict(mass=1.0), NONNEG_REAL),
    (PhysicalScales, ("omega",), dict(omega=1.0), NONNEG_REAL),
    (evolve_oscillator, ("omega",), dict(summary=SUMMARY, omega=1.0, times=_TIMES),
     NONNEG_REAL),
    (evolve_oscillator, ("times",), dict(summary=SUMMARY, omega=1.0, times=_TIMES),
     SEQUENCE),
    (evolve_oscillator, ("times", 0), dict(summary=SUMMARY, omega=1.0, times=_TIMES),
     REAL),
    (evolve_free_mass, ("times",), dict(summary=SUMMARY, scales=SCALES, times=_TIMES),
     SEQUENCE),
    (evolve_free_mass, ("times", 0), dict(summary=SUMMARY, scales=SCALES, times=_TIMES),
     REAL),
    (rql_band, ("t",), dict(summary=SUMMARY, system="free-mass", scales=SCALES, t=0.5),
     REAL),
    (rql_band, ("system",),
     dict(summary=SUMMARY, system="free-mass", scales=SCALES, t=0.5), NAME),
    (schrodinger_oracle, ("t",),
     dict(state=STATE, system="free-mass", scales=SCALES, t=0.5), REAL),
    (schrodinger_oracle, ("system",),
     dict(state=STATE, system="free-mass", scales=SCALES, t=0.5), NAME),
    (safe_block, ("dim",), dict(dim=64, r=0.1), INT),
    (safe_block, ("r",), dict(dim=64, r=0.1), REAL),
    (check_conjugation_identities, ("alpha",), _CONJUGATION, COMPLEX),
    (check_conjugation_identities, ("dim",), _CONJUGATION, NONNEG_INT),
    (check_overcompleteness, ("probe_dim",), _OVERCOMPLETE, NONNEG_INT),
    (check_overcompleteness, ("budget",), _OVERCOMPLETE, NONNEG_INT),
    (check_overcompleteness, ("seed",), _OVERCOMPLETE, NONNEG_INT),
    (check_overcompleteness, ("method",), _OVERCOMPLETE, NAME),
    (run_suite, ("name",), dict(name="uncertainty", budget=5, seed=0), NAME),
    (run_suite, ("budget",), dict(name="uncertainty", budget=5, seed=0), NONNEG_INT),
    (run_suite, ("seed",), dict(name="uncertainty", budget=5, seed=0), NONNEG_INT),
]


def _row_id(fn, path) -> str:
    return getattr(fn, "__qualname__", repr(fn)) + "-" + ".".join(map(str, path))


def _substituted(container, path: tuple, value):
    """container (the kwargs, or a sequence or dict inside them) with the
    entry at path replaced by value; containers on the path are copied, never
    mutated."""
    container = dict(container) if isinstance(container, dict) else list(container)
    head, *inner = path
    container[head] = _substituted(container[head], inner, value) if inner else value
    return container


@pytest.mark.parametrize(
    "fn, path, kwargs, value",
    [pytest.param(fn, path, kwargs, value, id=f"{_row_id(fn, path)}={value!r}")
     for fn, path, kwargs, bad in ROWS for value in bad],
)
def test_bad_value_raises_one_line_contractive_error(fn, path, kwargs, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractiveError) as info:
            fn(**_substituted(kwargs, path, value))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "fn, kwargs",
    [pytest.param(fn, kwargs, id=_row_id(fn, path)) for fn, path, kwargs, _ in ROWS],
)
def test_valid_call_succeeds(fn, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn(**kwargs)


# Integer arguments one below their lower bound: require_int's `minimum`
# raises the class each call raised before with one message form.
BELOW_MINIMUM = [
    (PhiSpec, dict(n=-1, N=3, free=(1.0, 0.5)), InvalidSpecError,
     "band spec n must be >= 0, got -1"),
    (PhiSpec, dict(n=1, N=3, free=(1.0,)), InvalidSpecError,
     "band spec N must be >= 4, got 3"),
    (lattice_phi_for_nbar, dict(target=1.0, shells=0), InvalidSpecError,
     "shells must be >= 1, got 0"),
    (solve_phi, dict(spec=SPEC, dim=3), InvalidSpecError,
     "dim 3 cannot hold a band reaching level 3"),
    (SEED.padded, dict(dim=3), InvalidDimensionError, "cannot pad dim 4 down to 3"),
    (random_state, dict(dim=7, rng=np.random.default_rng(0)), InvalidDimensionError,
     "dim must be >= 8, got 7"),
    (make_scs, dict(alpha=0.1, params=PARAMS, dim=1), InvalidDimensionError,
     "dim must be >= 2, got 1"),
    (make_sgcs, dict(alpha=0.1, params=PARAMS, phi=SEED, dim=1), InvalidDimensionError,
     "dim must be >= 2, got 1"),
    (check_conjugation_identities, dict(_CONJUGATION, dim=31), InvalidDimensionError,
     "dim must be >= 32, got 31"),
    (check_overcompleteness, dict(_OVERCOMPLETE, probe_dim=-1), InvalidDimensionError,
     "probe_dim must be >= 0, got -1"),
    (check_overcompleteness, dict(_OVERCOMPLETE, budget=0), InvalidParameterError,
     "budget must be >= 1, got 0"),
    (check_overcompleteness, dict(_OVERCOMPLETE, seed=-1), InvalidParameterError,
     "seed must be >= 0, got -1"),
    (run_suite, dict(name="uncertainty", budget=0, seed=0), InvalidParameterError,
     "budget must be >= 1, got 0"),
    (run_suite, dict(name="uncertainty", budget=5, seed=-1), InvalidParameterError,
     "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "fn, kwargs, error, message",
    [pytest.param(*row, id=f"{row[0].__qualname__}-{row[3].split()[0]}")
     for row in BELOW_MINIMUM],
)
def test_value_below_minimum_names_its_bound(fn, kwargs, error, message):
    with pytest.raises(error) as info:
        fn(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("argv, message", [
    (["state", "build", "number", "--dim", "15"], "dim must be >= 16, got 15"),
    (["verify", "identities", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["evolve", "missing.json", "--system", "free-mass", "--t-max", "1",
      "--samples", "0"], "--samples must be >= 1, got 0"),
])
def test_cli_value_below_minimum_exits_2(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Finite inputs past the float range once squared or exponentiated, and the
# outcome each one documents: a return value, a ContractiveError subclass,
# or a CLI exit code with one "state under-resolved" line on stderr.
OVERFLOWING = [
    pytest.param(lambda: safe_block(64, 400.0), 0, id="safe_block-r=400"),
    pytest.param(lambda: make_scs(0, SqueezeParams(r=400.0)), OutOfRangeError,
                 id="make_scs-auto-dim-r=400"),
    pytest.param(lambda: make_scs(0, SqueezeParams(r=20.0)), OutOfRangeError,
                 id="make_scs-auto-dim-r=20"),
    pytest.param(lambda: solve_phi(PhiSpec(n=0, N=3, free=(1e200, 1.0))).n_bar, 1.0,
                 id="solve_phi-free=1e200,1"),
    pytest.param(lambda: solve_phi(PhiSpec(n=0, N=4, free=(1e200, 1.0, 1.0))),
                 DegenerateSpecError, id="solve_phi-free=1e200,1,1"),
    pytest.param(["state", "build", "extremal", "--lam", "1e200"], 1,
                 id="cli-extremal-lam=1e200"),
    pytest.param(["state", "build", "extremal", "--mean-x", "1e200"], 1,
                 id="cli-extremal-mean-x=1e200"),
    pytest.param(["state", "build", "coherent", "--alpha", "1e200"], 1,
                 id="cli-coherent-alpha=1e200"),
    pytest.param(["state", "build", "extremal", "--lam", "1e-300+1e10i"], 1,
                 id="cli-extremal-lam=1e-300+1e10i"),
]


@pytest.mark.parametrize("call, outcome", OVERFLOWING)
def test_overflowing_input_ends_in_its_documented_outcome(call, outcome, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(call, list):
            assert main(call) == outcome
            captured = capsys.readouterr()
            lines = captured.err.strip().splitlines()
            assert captured.out == "" and len(lines) == 1
            assert lines[0].startswith("error: state under-resolved")
        elif isinstance(outcome, type):
            with pytest.raises(outcome) as info:
                call()
            assert "\n" not in str(info.value)
        else:
            assert call() == outcome
