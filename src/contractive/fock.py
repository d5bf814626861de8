"""Truncated Fock space: states, the ladder, truncation health, serialization.

Everything here is dimensionless (hbar = 1). Quadratures follow
x = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)). This module owns the
truncated ladder: the weight table `index_weights`, the index sums
`index_sums` (<a>, <a^2>, n_bar) every moment comes from, and the occupied
support cut `support`. No dense operator matrix is built here.

It also owns the text formats every file and stream goes through: one-line
JSON with sorted keys (`read_json`, `write_json`) and CSV with `.17g` floats
(`write_csv`), each line ending in a plain newline on every platform.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutoffReachedError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidSpecError,
    OutOfRangeError,
    TrivialStateError,
    TruncationError,
    UsageError,
    require_int,
    require_real_array,
)

# Default threshold on the probability weight sitting in the top decile of
# the ladder; states above it are rejected as under-resolved.
TAIL_MASS_TOL = 1e-8

# The top decile of the ladder starts at this fraction of the cutoff.
TOP_DECILE = 0.9

# Smallest cutoff at which random_state's envelope keeps the top decile empty.
RANDOM_STATE_MIN_DIM = 8

# Amplitudes above this magnitude make up a state's occupied support.
SUPPORT_TOL = 1e-13


@dataclass(frozen=True)
class FockVector:
    """Normalized state vector over number states |0> .. |dim-1>."""

    amps: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=complex)
        if arr.ndim != 1:
            raise InvalidDimensionError(f"amplitudes must be 1-D, got shape {arr.shape}")
        if arr.size < 2:
            raise InvalidDimensionError(f"dim must be >= 2, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise InvalidSpecError("amplitudes must be finite (no NaN or inf)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        # numpy's pairwise sum, on one thread: np.linalg.norm is BLAS ddot,
        # whose bits change with the thread count above about 10^4 levels
        return float(np.sqrt(np.add.reduce(np.square(self.amps.view(float)))))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise TrivialStateError("cannot normalize the zero vector")
        return FockVector(self.amps / n)

    def tail_mass(self) -> float:
        """Share of the state's weight on the top decile of the ladder, at
        any norm (0 for the zero vector)."""
        total = np.vdot(self.amps, self.amps).real
        tail = self.amps[int(np.floor(TOP_DECILE * self.dim)):]
        return float(np.vdot(tail, tail).real / total) if total > 0.0 else 0.0

    def padded(self, dim: int) -> "FockVector":
        """Embed into a larger space by appending zero amplitudes."""
        dim = require_int(dim, "dim", InvalidDimensionError)
        if dim < self.dim:
            raise InvalidDimensionError(
                f"cannot pad dim {self.dim} down to {dim}"
            )
        if dim == self.dim:
            return self
        out = np.zeros(dim, dtype=complex)
        out[: self.dim] = self.amps
        return FockVector(out)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "re": [float(v) for v in self.amps.real],
            "im": [float(v) for v in self.amps.imag],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FockVector":
        try:
            dim, re, im = data["dim"], data["re"], data["im"]
        except KeyError as exc:
            raise InvalidSpecError(f"state file lacks key {exc}") from None
        except TypeError as exc:
            raise InvalidSpecError(f"malformed state file: {exc}") from None
        dim = require_int(dim, "state file dim", InvalidSpecError)
        re = np.atleast_1d(require_real_array(re, "state file re", InvalidSpecError))
        im = np.atleast_1d(require_real_array(im, "state file im", InvalidSpecError))
        if re.size != dim or im.size != dim:
            raise DimensionMismatchError(
                f"array lengths {re.size}/{im.size} do not match dim {dim}"
            )
        return cls(re + 1j * im)

    def dump(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "FockVector":
        return cls.from_json_dict(read_json(path, "a JSON state file", InvalidSpecError))


def read_json(path, what: str, error: type[UsageError]):
    """The JSON value in the file at path; error, naming the path and what it
    should be, if the file does not parse. OSError passes through."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path} is not {what}: {exc}") from None


def _text_out(target):
    """A context giving a text stream: target itself if it is one, else the
    file at path target, opened so that lines end in a plain newline."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        return open(target, "w", newline="")
    return contextlib.nullcontext(target)


def write_json(target, obj) -> None:
    """Write obj to a path or text stream as one line of JSON, keys sorted."""
    with _text_out(target) as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _csv_field(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def write_csv(target, header, rows) -> None:
    """Write a header and rows to a path or text stream as CSV: floats as
    `.17g`, None as an empty field, anything else as str. No field needs
    quoting, as every one is a number or a fixed word."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_csv_field, row)) for row in rows)
    with _text_out(target) as fh:
        fh.write("\n".join(lines) + "\n")


def number_state(n: int, dim: int) -> FockVector:
    """Number state |n> at the given cutoff."""
    n = require_int(n, "level n", OutOfRangeError)
    dim = require_int(dim, "dim", InvalidDimensionError)
    if not 0 <= n < dim:
        raise OutOfRangeError(f"level n={n} outside [0, {dim})")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps)


def random_state(dim: int, rng: np.random.Generator) -> FockVector:
    """Random normalized state with a Gaussian amplitude envelope.

    The populated band has scale max(2, dim // 5), which keeps the top decile
    of the ladder essentially empty (envelope weight at most e^-24.5 there)
    from dim 8 up. Smaller cutoffs cannot hold a random state below
    TAIL_MASS_TOL and raise InvalidDimensionError.
    """
    dim = require_int(dim, "dim", InvalidDimensionError, minimum=RANDOM_STATE_MIN_DIM)
    envelope = np.exp(-((np.arange(dim) / max(2, dim // 5)) ** 2))
    amps = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * envelope
    return FockVector(amps).normalized()


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


def index_sums(amps: np.ndarray) -> tuple[complex, complex, float]:
    """(<a>, <a^2>, n_bar) of an amplitude array taken as normalized; exact
    at any cutoff."""
    m, w1, w2 = index_weights(amps.size)
    first = (amps[:-1].conj() * amps[1:] * w1).sum()
    second = (amps[:-2].conj() * amps[2:] * w2).sum()
    return complex(first), complex(second), float((m * np.abs(amps) ** 2).sum())


def support(amps: np.ndarray) -> np.ndarray:
    """Levels whose amplitude magnitude exceeds SUPPORT_TOL, ascending."""
    return np.flatnonzero(np.abs(amps) > SUPPORT_TOL)


def ensure_resolved(state: FockVector) -> None:
    """Raise TruncationError if the state's tail mass reaches TAIL_MASS_TOL."""
    tail = state.tail_mass()
    if not tail < TAIL_MASS_TOL:
        raise TruncationError(tail, TAIL_MASS_TOL, state.dim)


def ensure_mean_resolved(n_bar: float, dim: int) -> None:
    """Raise CutoffReachedError unless n_bar, the exact mean photon number
    of a builder's output without a cutoff, stays below the top decile.

    A resolved output keeps all but TAIL_MASS_TOL of its weight below the
    top decile, so its mean cannot reach it; nan and inf count as past it.
    """
    limit = TOP_DECILE * dim
    if not n_bar < limit:
        raise CutoffReachedError(n_bar, dim, limit)
