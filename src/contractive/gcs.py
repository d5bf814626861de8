"""Seed states with vanishing first and second ladder moments.

A normalized |phi> with <phi|a|phi> = 0 and <phi|a^2|phi> = 0 stays a
minimum-structure wave packet under displacement: D(alpha)|phi> has equal
quadrature variances n_bar + 1/2 and zero covariance for every alpha. This
module solves for such seeds on a band of number states and provides the
exact three-spaced lattice family. The ladder moments it solves for and
checks are the index sums of `fock.index_sums`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpecError,
    InvalidSpecError,
    OutOfRangeError,
    SeedConditionError,
    TrivialStateError,
    require_complex,
    require_int,
    require_real,
    require_real_array,
)
from .fock import FockVector, index_sums, read_json

# A candidate seed qualifies when both ladder-moment residuals are below this.
SEED_RESIDUAL_TOL = 1e-8

# Relative determinant floor below which the 2x2 band system is treated as
# singular.
DEGENERATE_DET_TOL = 1e-12

# Residuals after a successful solve must come out at least this clean.
SOLVE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class PhiSpec:
    """Band specification: support on |n> .. |N> with interior row fixed.

    `free` holds the chosen coefficients c_{n+1} .. c_{N-1}; the solver fills
    in the endpoints c_n and c_N.
    """

    n: int
    N: int
    free: tuple[complex, ...]

    def __post_init__(self):
        n = require_int(self.n, "band spec n", InvalidSpecError, minimum=0)
        N = require_int(self.N, "band spec N", InvalidSpecError, minimum=n + 3)
        try:
            free = tuple(require_complex(c, "interior coefficient", InvalidSpecError)
                         for c in self.free)
        except TypeError:  # not iterable
            raise InvalidSpecError(
                f"interior coefficients must be a sequence, got {self.free!r}") from None
        if len(free) != N - 1 - n:
            raise InvalidSpecError(
                f"need {N - 1 - n} interior coefficients "
                f"c_{n + 1}..c_{N - 1}, got {len(free)}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "free", free)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "free": [[c.real, c.imag] for c in self.free],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PhiSpec":
        try:
            free = tuple(complex(require_real(re, "band spec free entry", InvalidSpecError),
                                 require_real(im, "band spec free entry", InvalidSpecError))
                         for re, im in data["free"])
            n, N = data["n"], data["N"]
        except KeyError as exc:
            raise InvalidSpecError(f"band spec lacks key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InvalidSpecError(f"malformed band spec: {exc}") from None
        return cls(n=n, N=N, free=free)

    @classmethod
    def load(cls, path) -> "PhiSpec":
        return cls.from_json_dict(read_json(path, "a JSON band spec", InvalidSpecError))


@dataclass(frozen=True)
class PhiState:
    """Solved seed: normalized state plus its mean photon number."""

    state: FockVector
    n_bar: float


@dataclass(frozen=True)
class SeedCheck:
    ok: bool
    residual_a: float
    residual_a2: float


def check_phi(state: FockVector) -> SeedCheck:
    """Test the vanishing ladder-moment conditions on a normalized state."""
    first, second = index_sums(state.normalized().amps)[:2]
    ra, ra2 = abs(first), abs(second)
    return SeedCheck(ok=max(ra, ra2) < SEED_RESIDUAL_TOL, residual_a=ra, residual_a2=ra2)


def require_seed(state: FockVector) -> None:
    result = check_phi(state)
    if not result.ok:
        raise SeedConditionError(result.residual_a, result.residual_a2, SEED_RESIDUAL_TOL)


def _fix_phase(amps: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real positive."""
    k = int(np.argmax(np.abs(amps)))
    pivot = amps[k]
    return amps * (np.conjugate(pivot) / abs(pivot))


def _finish(amps: np.ndarray, dim: int) -> PhiState:
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise TrivialStateError("solved coefficients are identically zero")
    state = FockVector(_fix_phase(amps / norm)).padded(dim)
    first, second, n_bar = index_sums(state.amps)
    if abs(first) >= SOLVE_RESIDUAL_TOL or abs(second) >= SOLVE_RESIDUAL_TOL:
        raise DegenerateSpecError(
            complex(abs(first) + abs(second)),
            "solution residuals too large; system is numerically degenerate",
        )
    return PhiState(state=state, n_bar=n_bar)


def solve_phi(spec: PhiSpec, dim: int | None = None) -> PhiState:
    """Complete a band of coefficients into a valid seed state.

    With the interior coefficients fixed, the two vanishing-moment conditions
    are linear in (conj(c_n), c_N); this solves that 2x2 system, normalizes,
    and fixes the global phase (largest entry real positive). The seed comes
    at cutoff dim, by default the band's own N + 1.
    """
    n, N = spec.n, spec.N
    dim = N + 1 if dim is None else require_int(dim, "dim", InvalidSpecError)
    if dim <= N:
        raise InvalidSpecError(f"dim {dim} cannot hold a band reaching level {N}")
    c = np.zeros(N + 1, dtype=complex)
    c[n + 1:N] = spec.free
    # The conditions are homogeneous in c and _finish normalizes, so scaling
    # by a power of two changes no bits; taken from the largest part, it
    # keeps the products below in the float range however large c is.
    interior = c[n + 1:N].view(float)
    np.ldexp(interior, -math.frexp(np.max(np.abs(interior)))[1], out=interior)

    mat = np.array([
        [c[n + 1] * np.sqrt(n + 1.0), np.conjugate(c[N - 1]) * np.sqrt(float(N))],
        [c[n + 2] * np.sqrt((n + 1.0) * (n + 2.0)),
         np.conjugate(c[N - 2]) * np.sqrt((N - 1.0) * float(N))],
    ])
    # Interior-only contributions to <a> and <a^2>: c_n and c_N are still zero.
    rhs = -np.array(index_sums(c)[:2], dtype=complex)

    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    scale = np.max(np.abs(mat))
    if scale == 0.0 or abs(det) < DEGENERATE_DET_TOL * scale**2:
        raise DegenerateSpecError(det, "band system is singular for these coefficients")

    c[n] = np.conjugate((rhs[0] * mat[1, 1] - mat[0, 1] * rhs[1]) / det)
    c[N] = (mat[0, 0] * rhs[1] - rhs[0] * mat[1, 0]) / det
    # Zero amplitudes below the band are kept so level indices stay literal.
    return _finish(c, dim)


def lattice_phi(weights) -> PhiState:
    """Seed supported on every third level: sum_r sqrt(w_r) |3r>.

    Spacing three makes both ladder moments vanish identically, so any
    nonnegative weight vector works. n_bar ranges over [0, 3(s-1)] for s
    weights. The seed comes at its own size, max(3(s-1) + 1, 2);
    `state.padded(dim)` embeds it at a larger cutoff.
    """
    w = require_real_array(weights, "weights", InvalidSpecError)
    if w.ndim != 1 or w.size == 0:
        raise InvalidSpecError("weights must be a non-empty 1-D sequence")
    if np.any(w < 0):
        raise InvalidSpecError("weights must be nonnegative")
    with np.errstate(over="ignore"):
        total = w.sum()
    if math.isinf(total):
        # scaled by a power of two taken from the largest weight, the sum
        # stays in range and w / total keeps its ratios; only a sum past the
        # range is scaled, as scaling down can flush subnormal weights
        w = np.ldexp(w, -math.frexp(np.max(w))[1])
        total = w.sum()
    if total <= 0:
        raise TrivialStateError("lattice weights sum to zero")
    amps = np.zeros(max(3 * (w.size - 1) + 1, 2), dtype=complex)
    amps[::3] = np.sqrt(w / total)
    state = FockVector(amps)
    return PhiState(state=state, n_bar=index_sums(state.amps)[2])


def lattice_phi_for_nbar(target: float, shells: int) -> PhiState:
    """Lattice seed with mean photon number equal to a target.

    Mixes levels 0 and 3 * shells with weights (1-q, 0, .., 0, q), for which
    n_bar = 3 * shells * q exactly, so q = target / (3 * shells). Target must
    lie in [0, 3*shells].
    """
    target = require_real(target, "target", InvalidSpecError)
    shells = require_int(shells, "shells", InvalidSpecError, minimum=1)
    top_nbar = 3.0 * shells
    if not 0.0 <= target <= top_nbar:
        raise OutOfRangeError(
            f"target n_bar {target} outside attainable [0, {top_nbar}]"
        )
    q = target / top_nbar
    w = np.zeros(shells + 1)
    w[0] = 1.0 - q
    w[-1] = q
    return lattice_phi(w)
