"""Command-line interface.

Exit codes: 0 on success, 1 when a physics check or state construction
fails, 2 on usage errors (a UsageError or an argparse error). All
randomized commands take a seed, and identical configuration plus seed
produces byte-identical output.

Every command needs errors, fock and moments, imported here. The layers
only some commands run (states, gcs, dynamics, verify) are imported by the
functions that call them, so a process loads no more than its command uses.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import moments
from .errors import (
    ContractiveError,
    InvalidParameterError,
    InvalidSpecError,
    NotContractiveError,
    OutOfRangeError,
    UsageError,
    require_int,
    require_real,
)
from .fock import FockVector, number_state, read_json, write_csv, write_json

if TYPE_CHECKING:
    from . import dynamics, gcs, states

DEFAULT_DIM = 128
ENV_DIM = "CONTRACTIVE_DIM"

_COMPLEX_CHARS = re.compile(r"[\d.eE+-]*i?")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style complex literals ('1', '-2i', '0.5-0.25i', ...)."""
    s = text.strip().replace(" ", "")
    try:
        # the character check keeps out what complex() alone would take:
        # 'j', parentheses, underscores, 'inf' and 'nan'
        if not _COMPLEX_CHARS.fullmatch(s):
            raise ValueError
        return complex(s[:-1] + "j" if s.endswith("i") else s)
    except ValueError:
        raise ValueError(f"invalid complex literal {text!r}") from None


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid number list {text!r}") from None


def _complex_list(text: str) -> list[complex]:
    try:
        return [parse_complex(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid complex list {text!r}") from None


_FORMATS = ("json", "csv")
# The `verify` suites, (*verify.SUITES, "all"), spelled out so that parsing
# argv does not import verify.
_VERIFY_CHOICES = ("uncertainty", "rql", "saturation", "overcompleteness",
                   "identities", "all")

# Each RunConfig field: the JSON types a config file may give it, and the
# spec of its flag. A command registers the flags of the settings it reads.
_SETTINGS = {
    "dim": (int, dict(type=int, help="Fock cutoff (>= 16)")),
    "seed": (int, dict(type=int, help="seed for randomized commands")),
    "hbar": ((int, float), dict(type=float)),
    "mass": ((int, float), dict(type=float)),
    "omega": ((int, float), dict(type=float)),
    "format": (str, dict(choices=_FORMATS)),
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved runtime settings shared by the subcommands."""

    dim: int = DEFAULT_DIM
    seed: int = 0
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    format: str = "json"

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        data = read_json(path, "a JSON config file", InvalidParameterError)
        if not isinstance(data, dict):
            raise InvalidParameterError(f"config {path} is not a JSON object")
        known = {k: data[k] for k in _SETTINGS if k in data}
        for name, value in known.items():
            if (isinstance(value, bool) or not isinstance(value, _SETTINGS[name][0])
                    or name == "format" and value not in _FORMATS):
                raise InvalidParameterError(f"config {path}: invalid {name} {value!r}")
        return cls(**known)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    env_dim = os.environ.get(ENV_DIM) if "dim" in args else None
    if env_dim is not None:
        try:
            config = replace(config, dim=int(env_dim))
        except ValueError:
            raise InvalidParameterError(f"{ENV_DIM} must be an integer, got {env_dim!r}") from None
    for name in _SETTINGS:
        value = getattr(args, name, None)
        if value is not None:
            config = replace(config, **{name: value})
    require_int(config.dim, "dim", OutOfRangeError, minimum=16)
    require_int(config.seed, "seed", OutOfRangeError, minimum=0)
    return config


def _scales(config: RunConfig) -> dynamics.PhysicalScales:
    from .dynamics import PhysicalScales
    return PhysicalScales(hbar=config.hbar, mass=config.mass, omega=config.omega)


def _emit(obj: dict) -> None:
    write_json(sys.stdout, obj)


def _moments_payload(summary: moments.MomentSummary) -> dict:
    payload = summary.to_json_dict()
    payload["flags"] = moments.classify(summary).to_json_dict()
    return payload


def _seed_from_args(args: argparse.Namespace) -> FockVector:
    """Resolve a seed state for sgcs builds from whichever source is set."""
    given = [name for name in ("phi", "weights", "target_nbar", "band_spec", "free")
             if getattr(args, name) is not None]
    if len(given) != 1:
        raise InvalidParameterError(
            "exactly one seed source required: --phi, --weights, "
            "--target-nbar, or a band spec"
        )
    if args.phi is not None:
        if not args.phi:
            raise InvalidParameterError("--phi needs a seed file path")
        return FockVector.load(args.phi)
    if args.weights is not None or args.target_nbar is not None:
        return _lattice_from_args(args).state
    from . import gcs
    return gcs.solve_phi(_band_spec_from_args(args)).state


def _band_spec_from_args(args: argparse.Namespace) -> gcs.PhiSpec:
    from . import gcs
    if args.band_spec:
        return gcs.PhiSpec.load(args.band_spec)
    if args.free is None or args.low is None or args.high is None:
        raise InvalidParameterError(
            "band spec needs --band-spec FILE or all of --low, --high, --free"
        )
    return gcs.PhiSpec(n=args.low, N=args.high, free=tuple(args.free))


def _solve_from_args(args: argparse.Namespace, dim: int) -> gcs.PhiState:
    from . import gcs
    return gcs.solve_phi(_band_spec_from_args(args), dim=dim)


def _build_sgcs(args: argparse.Namespace, dim: int) -> FockVector:
    # the seed resolves first, so its errors come before the squeeze's
    seed = _seed_from_args(args)
    from . import states
    return states.make_sgcs(args.alpha, _squeeze_params(args), seed, dim=dim)


def _squeeze_params(args: argparse.Namespace) -> states.SqueezeParams:
    from .states import SqueezeParams
    return SqueezeParams(r=args.r, theta=args.theta)


def _lattice_from_args(args: argparse.Namespace) -> gcs.PhiState:
    from . import gcs
    if args.weights is not None and args.target_nbar is not None:
        raise InvalidParameterError(
            "give either --weights or --target-nbar, not both"
        )
    if args.weights is not None:
        return gcs.lattice_phi(args.weights)
    if args.target_nbar is not None:
        return gcs.lattice_phi_for_nbar(args.target_nbar, args.shells)
    raise InvalidParameterError("gcs-lattice needs --weights or --target-nbar")


def cmd_state_build(args: argparse.Namespace, config: RunConfig) -> int:
    state = args.build(args, config.dim)
    if args.out:
        state.dump(args.out)
    _emit(_moments_payload(moments.summarize(state)))
    return 0


def cmd_state_moments(args: argparse.Namespace, config: RunConfig) -> int:
    state = FockVector.load(args.state)
    payload = _moments_payload(moments.summarize(state))
    if config.format == "csv":
        keys = ["var_x", "var_p", "cov", "n_bar", "uncertainty_product"]
        write_csv(sys.stdout, keys, [[payload[k] for k in keys]])
    else:
        _emit(payload)
    return 0


def cmd_evolve(args: argparse.Namespace, config: RunConfig) -> int:
    from . import dynamics
    require_int(args.samples, "--samples", OutOfRangeError, minimum=1)
    state = FockVector.load(args.state)
    summary = moments.summarize(state)
    scales = _scales(config)
    t_max = require_real(args.t_max, "--t-max", InvalidParameterError)
    times = np.linspace(0.0, t_max, args.samples)
    if args.expect_contractive and not summary.cov < 0:
        raise NotContractiveError(
            f"state is not contractive (cov = {summary.cov:.6g} >= 0)"
        )
    if args.system == "oscillator":
        trace = dynamics.evolve_oscillator(summary, scales.omega, times)
    else:
        trace = dynamics.evolve_free_mass(summary, scales, times)
    trace.to_csv(args.out or sys.stdout)
    if summary.cov < 0:
        window = dynamics.contraction_window(summary, scales)
        _emit({
            "t_m": window.t_m,
            "t_min": window.t_min,
            "var_at_min": window.var_at_min,
        })
    return 0


def cmd_rql_band(args: argparse.Namespace, config: RunConfig) -> int:
    from . import dynamics
    state = FockVector.load(args.state)
    summary = moments.summarize(state)
    lower, upper = dynamics.rql_band(summary, args.system, _scales(config), args.time)
    _emit({"system": args.system, "t": args.time, "lower": lower, "upper": upper})
    return 0


def cmd_gcs_solve(args: argparse.Namespace, config: RunConfig) -> int:
    from . import gcs
    solved = _solve_from_args(args, config.dim)
    if args.out:
        solved.state.dump(args.out)
    check = gcs.check_phi(solved.state)
    _emit({
        "n_bar": solved.n_bar,
        "residual_a": check.residual_a,
        "residual_a2": check.residual_a2,
    })
    return 0


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    from . import verify
    report = verify.run_suite(args.suite, args.budget, config.seed)
    _emit(report)
    return 0 if report["passed"] else 1


def cmd_sweep(args: argparse.Namespace, config: RunConfig) -> int:
    from . import gcs, states
    nbars = args.nbar if args.nbar is not None else [0.0]
    if args.kind == "scs" and args.nbar is not None:
        raise InvalidParameterError("--nbar only applies to sgcs sweeps")
    rows = []
    for alpha, r, theta, nbar in itertools.product(
            args.alpha, args.r, args.theta, nbars):
        params = states.SqueezeParams(r=r, theta=theta)
        if args.kind == "scs":
            state = states.make_scs(alpha, params, dim=config.dim)
        else:
            nbar = require_real(nbar, "--nbar", InvalidParameterError)
            shells = max(1, int(np.ceil(nbar / 3.0)))
            seed = gcs.lattice_phi_for_nbar(nbar, shells).state
            state = states.make_sgcs(alpha, params, seed, dim=config.dim)
        summary = moments.summarize(state)
        flags = moments.classify(summary)
        rows.append([
            args.kind, alpha.real, alpha.imag, r, theta, nbar,
            summary.var_x, summary.var_p, summary.cov,
            summary.uncertainty_product,
            int(flags.is_squeezed), int(flags.is_contractive),
            int(flags.is_gcs), int(flags.is_extremal),
        ])
    header = ["kind", "alpha_re", "alpha_im", "r", "theta", "seed_nbar",
              "var_x", "var_p", "cov", "uncertainty_product",
              "is_squeezed", "is_contractive", "is_gcs", "is_extremal"]
    write_csv(args.out or sys.stdout, header, rows)
    return 0


def _add_settings(parser: argparse.ArgumentParser, *names: str) -> None:
    parser.add_argument("--config", help="JSON file mirroring RunConfig")
    for name in names:
        parser.add_argument(f"--{name}", **_SETTINGS[name][1])


def _add_flags(parser: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), **_KIND_FLAGS[name])


# The flags of the `state build` kinds (and of `gcs solve`), by destination.
_KIND_FLAGS = {
    "n": dict(type=int, default=0, help="number-state level"),
    "alpha": dict(type=_complex_arg, default=0j, help="displacement, 'a+bi' literal"),
    "r": dict(type=float, default=0.0, help="squeeze strength"),
    "theta": dict(type=float, default=0.0, help="squeeze phase"),
    "weights": dict(type=_float_list, help="lattice weights w0,w1,.. on levels 0,3,6,.."),
    "target_nbar": dict(type=float, help="tune lattice weights to this mean photon number"),
    "shells": dict(type=int, default=4, help="lattice shells used with --target-nbar"),
    "phi": dict(help="FockVector JSON file with the seed"),
    "band_spec": dict(help="PhiSpec JSON file"),
    "low": dict(type=int, help="band start n"),
    "high": dict(type=int, help="band end N (>= n + 3)"),
    "free": dict(type=_complex_list, help="interior coefficients c_{n+1},..,c_{N-1}"),
    "lam": dict(type=_complex_arg, default=1 + 0j, help="extremal parameter, Re > 0"),
    "mean_x": dict(type=float, default=0.0),
    "mean_p": dict(type=float, default=0.0),
}
_SQUEEZE = ("alpha", "r", "theta")
_LATTICE = ("weights", "target_nbar", "shells")
_BAND_SPEC = ("band_spec", "low", "high", "free")


def _build_coherent(args: argparse.Namespace, dim: int) -> FockVector:
    from .states import displace
    return displace(number_state(0, dim), args.alpha)


def _build_displaced_number(args: argparse.Namespace, dim: int) -> FockVector:
    from .states import displace
    return displace(number_state(args.n, dim), args.alpha)


def _build_scs(args: argparse.Namespace, dim: int) -> FockVector:
    from .states import make_scs
    return make_scs(args.alpha, _squeeze_params(args), dim=dim)


def _build_lattice(args: argparse.Namespace, dim: int) -> FockVector:
    seed = _lattice_from_args(args).state
    if dim < seed.dim:
        # named like the band seeds' refusal, by the top level, not the size
        raise InvalidSpecError(
            f"dim {dim} cannot hold a lattice reaching level {seed.dim - 1}")
    return seed.padded(dim)


def _build_extremal(args: argparse.Namespace, dim: int) -> FockVector:
    from .states import extremal_fock
    return extremal_fock(args.lam, args.mean_x, args.mean_p, dim=dim)


# Each `state build` kind: how it builds a state from (args, dim), and the
# flags it reads.
_KINDS = {
    "number": (lambda args, dim: number_state(args.n, dim), ("n",)),
    "coherent": (_build_coherent, ("alpha",)),
    "displaced-number": (_build_displaced_number, ("n", "alpha")),
    "scs": (_build_scs, _SQUEEZE),
    "gcs-lattice": (_build_lattice, _LATTICE),
    "gcs-solve": (lambda args, dim: _solve_from_args(args, dim).state, _BAND_SPEC),
    "sgcs": (_build_sgcs, _SQUEEZE + _LATTICE + ("phi",) + _BAND_SPEC),
    "extremal": (_build_extremal, ("lam", "mean_x", "mean_p")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractive",
        description="Single-mode bosonic states, contractive dynamics, and "
                    "rigorous variance bounds in truncated Fock space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="build states and inspect moments")
    state_sub = p_state.add_subparsers(dest="state_command", required=True)

    p_build = state_sub.add_parser("build", help="construct a state")
    kind_sub = p_build.add_subparsers(dest="kind", required=True)
    for kind, (build, flags) in _KINDS.items():
        p_kind = kind_sub.add_parser(kind)
        _add_flags(p_kind, flags)
        p_kind.add_argument("--out", help="write FockVector JSON here")
        _add_settings(p_kind, "dim")
        p_kind.set_defaults(func=cmd_state_build, build=build)

    p_moments = state_sub.add_parser("moments", help="moment summary of a state file")
    p_moments.add_argument("state", help="FockVector JSON file")
    _add_settings(p_moments, "format")
    p_moments.set_defaults(func=cmd_state_moments)

    p_evolve = sub.add_parser("evolve", help="variance trajectory with bounds")
    p_evolve.add_argument("state", help="FockVector JSON file")
    p_evolve.add_argument("--system", choices=("oscillator", "free-mass"),
                          required=True)
    p_evolve.add_argument("--t-max", type=float, required=True)
    p_evolve.add_argument("--samples", type=int, default=200)
    p_evolve.add_argument("--out", help="CSV path (default stdout)")
    p_evolve.add_argument("--expect-contractive", action="store_true",
                          help="fail (exit 1) unless the state is contractive")
    _add_settings(p_evolve, "hbar", "mass", "omega")
    p_evolve.set_defaults(func=cmd_evolve)

    p_band = sub.add_parser("rql-band", help="rigorous variance bounds at one time")
    p_band.add_argument("state", help="FockVector JSON file")
    p_band.add_argument("--system", choices=("oscillator", "free-mass"),
                        required=True)
    p_band.add_argument("--time", type=float, required=True)
    _add_settings(p_band, "hbar", "mass", "omega")
    p_band.set_defaults(func=cmd_rql_band)

    p_gcs = sub.add_parser("gcs", help="seed-state solver")
    gcs_sub = p_gcs.add_subparsers(dest="gcs_command", required=True)
    p_solve = gcs_sub.add_parser("solve", help="complete a band into a valid seed")
    _add_flags(p_solve, _BAND_SPEC)
    p_solve.add_argument("--out", help="write the solved FockVector JSON here")
    _add_settings(p_solve, "dim")
    p_solve.set_defaults(func=cmd_gcs_solve)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=_VERIFY_CHOICES)
    p_verify.add_argument("--budget", type=int, default=200)
    _add_settings(p_verify, "seed")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="moment table over a parameter grid")
    p_sweep.add_argument("--kind", choices=("scs", "sgcs"), default="scs")
    p_sweep.add_argument("--alpha", type=_complex_list, default=[0j])
    p_sweep.add_argument("--r", type=_float_list, default=[0.0])
    p_sweep.add_argument("--theta", type=_float_list, default=[0.0])
    p_sweep.add_argument("--nbar", type=_float_list,
                         help="seed photon numbers (sgcs only)")
    p_sweep.add_argument("--out", help="CSV path (default stdout)")
    _add_settings(p_sweep, "dim")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _resolve_config(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractiveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
