"""The library boundary in one table: every scalar argument of the public
callables rejects malformed and non-finite values with a one-line
ContractiveError, never a raw Python error or a numpy warning.

Each row is (callable, argument, valid keyword arguments, bad values). The
argument is a keyword, or a keyword plus an index or key when the value sits
inside a sequence or a JSON dict. Every bad value is substituted into the
valid call in turn. Object-typed arguments (state, params, rng, summary)
stay out: a wrong object type raising AttributeError is ordinary Python.
"""

import math
import warnings

import numpy as np
import pytest

from contractive import (
    ContractiveError,
    FockVector,
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
    solve_phi_n3,
    summarize,
)

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
    (STATE.padded, ("dim",), dict(dim=32), NONNEG_INT),
    (PhiSpec, ("n",), dict(n=0, N=3, free=(1.0, 0.5)), NONNEG_INT),
    (PhiSpec, ("N",), dict(n=0, N=3, free=(1.0, 0.5)), NONNEG_INT),
    (PhiSpec, ("free",), dict(n=0, N=3, free=(1.0, 0.5)), SEQUENCE + (-1, 2.5)),
    (PhiSpec, ("free", 0), dict(n=0, N=3, free=(1.0, 0.5)), COMPLEX),
    (PhiSpec.from_json_dict, ("data", "n"), dict(data=_SPEC_JSON), NONNEG_INT),
    (PhiSpec.from_json_dict, ("data", "N"), dict(data=_SPEC_JSON), NONNEG_INT),
    (solve_phi, ("dim",), dict(spec=SPEC, dim=8), optional(NONNEG_INT)),
    (solve_phi_n3, ("n",), dict(n=0, c1=1.0, c2=0.5), NONNEG_INT),
    (solve_phi_n3, ("c1",), dict(n=0, c1=1.0, c2=0.5), COMPLEX),
    (solve_phi_n3, ("c2",), dict(n=0, c1=1.0, c2=0.5), COMPLEX),
    (solve_phi_n3, ("dim",), dict(n=0, c1=1.0, c2=0.5, dim=8), optional(NONNEG_INT)),
    (lattice_phi, ("weights",), dict(weights=[1.0, 0.5]), SEQUENCE + (-1, 2.5)),
    (lattice_phi, ("weights", 0), dict(weights=[1.0, 0.5]), NONNEG_REAL),
    (lattice_phi, ("dim",), dict(weights=[1.0, 0.5], dim=8), optional(NONNEG_INT)),
    (lattice_phi_for_nbar, ("target",), dict(target=1.0, shells=1), NONNEG_REAL),
    (lattice_phi_for_nbar, ("shells",), dict(target=1.0, shells=1), NONNEG_INT),
    (lattice_phi_for_nbar, ("dim",), dict(target=1.0, shells=1, dim=8),
     optional(NONNEG_INT)),
    (sgcs_predicted_moments, ("n_bar",), dict(n_bar=1.0, params=PARAMS), NONNEG_REAL),
    (SqueezeParams, ("r",), dict(r=0.1, theta=0.2), NONNEG_REAL),
    (SqueezeParams, ("theta",), dict(r=0.1, theta=0.2), REAL),
    (displace, ("alpha",), dict(state=STATE, alpha=0.1), COMPLEX),
    (make_scs, ("alpha",), dict(alpha=0.1, params=PARAMS), COMPLEX),
    (make_scs, ("dim",), dict(alpha=0.1, params=PARAMS, dim=32), optional(NONNEG_INT)),
    (make_sgcs, ("alpha",), dict(alpha=0.1, params=PARAMS, phi=SEED), COMPLEX),
    (make_sgcs, ("dim",), dict(alpha=0.1, params=PARAMS, phi=SEED, dim=32),
     optional(INT)),
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
    (check_conjugation_identities, ("block",), dict(_CONJUGATION, block=8),
     optional(NONNEG_INT)),
    (check_overcompleteness, ("probe_dim",), _OVERCOMPLETE, NONNEG_INT),
    (check_overcompleteness, ("budget",), _OVERCOMPLETE, NONNEG_INT),
    (check_overcompleteness, ("seed",), _OVERCOMPLETE, NONNEG_INT),
    (check_overcompleteness, ("dim",), dict(_OVERCOMPLETE, dim=64),
     optional(NONNEG_INT)),
    (check_overcompleteness, ("radius",), dict(_OVERCOMPLETE, radius=3.0),
     optional(NONNEG_REAL)),
    (check_overcompleteness, ("method",), _OVERCOMPLETE, NAME),
    (run_suite, ("name",), dict(name="uncertainty", budget=5, seed=0), NAME),
    (run_suite, ("budget",), dict(name="uncertainty", budget=5, seed=0), NONNEG_INT),
    (run_suite, ("seed",), dict(name="uncertainty", budget=5, seed=0), NONNEG_INT),
]


def _row_id(fn, path) -> str:
    return getattr(fn, "__qualname__", repr(fn)) + "-" + ".".join(map(str, path))


def _substituted(kwargs: dict, path: tuple, value) -> dict:
    """kwargs with the argument at path replaced by value; containers on the
    path are copied, never mutated."""
    kwargs = dict(kwargs)
    name, *inner = path
    if inner:
        container = kwargs[name]
        container = dict(container) if isinstance(container, dict) else list(container)
        container[inner[0]] = value
        value = container
    kwargs[name] = value
    return kwargs


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
