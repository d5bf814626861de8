"""Seed states with vanishing first and second ladder moments.

A normalized |phi> with <phi|a|phi> = 0 and <phi|a^2|phi> = 0 stays a
minimum-structure wave packet under displacement: D(alpha)|phi> has equal
quadrature variances n_bar + 1/2 and zero covariance for every alpha. This
module solves for such seeds on a band of number states and provides the
exact three-spaced lattice family.
"""

from __future__ import annotations

import functools
import json
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
from .fock import FockVector

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
        n = require_int(self.n, "band spec n", InvalidSpecError)
        N = require_int(self.N, "band spec N", InvalidSpecError)
        if n < 0:
            raise InvalidSpecError(f"band start n must be >= 0, got {n}")
        if N < n + 3:
            raise InvalidSpecError(f"band end N must be >= n + 3, got n={n}, N={N}")
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
            free = tuple(complex(re, im) for re, im in data["free"])
            n, N = data["n"], data["N"]
        except KeyError as exc:
            raise InvalidSpecError(f"band spec lacks key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InvalidSpecError(f"malformed band spec: {exc}") from None
        return cls(n=n, N=N, free=free)

    @classmethod
    def load(cls, path) -> "PhiSpec":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise InvalidSpecError(f"{path} is not a JSON band spec: {exc}") from None
        return cls.from_json_dict(data)


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


@functools.lru_cache(maxsize=16)
def index_weights(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only weights of the ladder index sums at cutoff dim.

    (m, sqrt(m + 1), sqrt((m + 1)(m + 2))) over the levels each sum runs
    across: m < dim for n_bar, m < dim - 1 for <a>, m < dim - 2 for <a^2>.
    """
    m = np.arange(dim, dtype=float)
    tables = (m, np.sqrt(m[:-1] + 1.0), np.sqrt((m[:-2] + 1.0) * (m[:-2] + 2.0)))
    for table in tables:
        table.setflags(write=False)
    return tables


def ladder_sums(amps: np.ndarray) -> tuple[complex, complex]:
    """(<a>, <a^2>) of an amplitude array taken as normalized; exact at any
    cutoff."""
    _, w1, w2 = index_weights(amps.size)
    first = (amps[:-1].conj() * amps[1:] * w1).sum()
    second = (amps[:-2].conj() * amps[2:] * w2).sum()
    return complex(first), complex(second)


def photon_sum(amps: np.ndarray) -> float:
    """sum_m m |c_m|^2 of an amplitude array taken as normalized."""
    return float((index_weights(amps.size)[0] * np.abs(amps) ** 2).sum())


def ladder_moments(state: FockVector) -> tuple[complex, complex]:
    """(<a>, <a^2>) by direct index sums; exact at any cutoff."""
    return ladder_sums(state.amps)


def mean_photon_number(state: FockVector) -> float:
    """<a^dag a> = sum_m m |c_m|^2 of a normalized state."""
    return photon_sum(state.amps)


def check_phi(state: FockVector) -> SeedCheck:
    """Test the vanishing ladder-moment conditions on a normalized state."""
    first, second = ladder_moments(state.normalized())
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
    if pivot == 0:
        return amps
    return amps * (np.conjugate(pivot) / abs(pivot))


def _finish(amps: np.ndarray, dim: int | None) -> PhiState:
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise TrivialStateError("solved coefficients are identically zero")
    amps = _fix_phase(amps / norm)
    dim = amps.size if dim is None else require_int(dim, "dim", InvalidSpecError)
    if dim < amps.size:
        raise InvalidSpecError(
            f"dim {dim} cannot hold a band reaching level {amps.size - 1}"
        )
    padded = np.zeros(dim, dtype=complex)
    padded[: amps.size] = amps
    state = FockVector(padded)
    first, second = ladder_moments(state)
    if abs(first) >= SOLVE_RESIDUAL_TOL or abs(second) >= SOLVE_RESIDUAL_TOL:
        raise DegenerateSpecError(
            complex(abs(first) + abs(second)),
            "solution residuals too large; system is numerically degenerate",
        )
    return PhiState(state=state, n_bar=mean_photon_number(state))


def solve_phi(spec: PhiSpec, dim: int | None = None) -> PhiState:
    """Complete a band of coefficients into a valid seed state.

    With the interior coefficients fixed, the two vanishing-moment conditions
    are linear in (conj(c_n), c_N); this solves that 2x2 system, normalizes,
    and fixes the global phase (largest entry real positive).
    """
    n, N = spec.n, spec.N
    c = np.zeros(N + 1, dtype=complex)
    c[n + 1:N] = spec.free

    mat = np.array([
        [c[n + 1] * np.sqrt(n + 1.0), np.conjugate(c[N - 1]) * np.sqrt(float(N))],
        [c[n + 2] * np.sqrt((n + 1.0) * (n + 2.0)),
         np.conjugate(c[N - 2]) * np.sqrt((N - 1.0) * float(N))],
    ])
    # Interior-only contributions to <a> and <a^2>: c_n and c_N are still zero.
    rhs = -np.array(ladder_moments(FockVector(c)), dtype=complex)

    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    scale = np.max(np.abs(mat))
    if scale == 0.0 or abs(det) < DEGENERATE_DET_TOL * scale**2:
        raise DegenerateSpecError(det, "band system is singular for these coefficients")

    c[n] = np.conjugate((rhs[0] * mat[1, 1] - mat[0, 1] * rhs[1]) / det)
    c[N] = (mat[0, 0] * rhs[1] - rhs[0] * mat[1, 0]) / det
    # Zero amplitudes below the band are kept so level indices stay literal.
    return _finish(c, dim)


def solve_phi_n3(n: int, c1: complex, c2: complex, dim: int | None = None) -> PhiState:
    """Closed-form seed on the minimal band |n> .. |n+3>.

    c1 and c2 are the interior coefficients c_{n+1}, c_{n+2}. Degenerate when
    |c1| = |c2| (unless one of them is zero jointly with the cross term).
    """
    n = require_int(n, "band start n", InvalidSpecError)
    if n < 0:
        raise InvalidSpecError(f"band start n must be >= 0, got {n}")
    c1 = require_complex(c1, "c1", InvalidSpecError)
    c2 = require_complex(c2, "c2", InvalidSpecError)
    delta = abs(c1) ** 2 - abs(c2) ** 2
    cross = np.conjugate(c1) * c2
    scale = max(abs(c1), abs(c2)) ** 2
    if scale == 0.0 or abs(delta) < DEGENERATE_DET_TOL * scale:
        raise DegenerateSpecError(
            complex(delta), "minimal band is degenerate (|c_{n+1}| = |c_{n+2}|)"
        )
    c = np.zeros(n + 4, dtype=complex)
    c[n] = np.conjugate(-cross * np.conjugate(c1) * np.sqrt(n + 2.0)
                        / (delta * np.sqrt(n + 1.0)))
    c[n + 1] = c1
    c[n + 2] = c2
    c[n + 3] = cross * c2 * np.sqrt(n + 2.0) / (delta * np.sqrt(n + 3.0))
    return _finish(c, dim)


def lattice_phi(weights, dim: int | None = None) -> PhiState:
    """Seed supported on every third level: sum_r sqrt(w_r) |3r>.

    Spacing three makes both ladder moments vanish identically, so any
    nonnegative weight vector works. n_bar ranges over [0, 3(s-1)] for s
    weights.
    """
    w = require_real_array(weights, "weights", InvalidSpecError)
    if w.ndim != 1 or w.size == 0:
        raise InvalidSpecError("weights must be a non-empty 1-D sequence")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise InvalidSpecError("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0:
        raise TrivialStateError("lattice weights sum to zero")
    top = 3 * (w.size - 1)
    size = max(top + 1, 2)
    dim = size if dim is None else require_int(dim, "dim", InvalidSpecError)
    if dim < size:
        raise InvalidSpecError(f"dim {dim} cannot hold lattice level {top}")
    amps = np.zeros(dim, dtype=complex)
    amps[0:top + 1:3] = np.sqrt(w / total)
    state = FockVector(amps)
    return PhiState(state=state, n_bar=mean_photon_number(state))


def lattice_phi_for_nbar(target: float, shells: int,
                         dim: int | None = None) -> PhiState:
    """Lattice seed with mean photon number equal to a target.

    Mixes levels 0 and 3 * shells with weights (1-q, 0, .., 0, q), for which
    n_bar = 3 * shells * q exactly, so q = target / (3 * shells). Target must
    lie in [0, 3*shells].
    """
    target = require_real(target, "target", InvalidSpecError)
    shells = require_int(shells, "shells", InvalidSpecError)
    if shells < 1:
        raise InvalidSpecError(f"shells must be >= 1, got {shells}")
    top_nbar = 3.0 * shells
    if not 0.0 <= target <= top_nbar:
        raise OutOfRangeError(
            f"target n_bar {target} outside attainable [0, {top_nbar}]"
        )
    q = target / top_nbar
    w = np.zeros(shells + 1)
    w[0] = 1.0 - q
    w[-1] = q
    return lattice_phi(w, dim)
