"""Truncated Fock space: state vectors, truncation health, serialization.

Everything here is dimensionless (hbar = 1). Quadratures follow
x = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)). Moments come from
ladder index sums (`gcs.ladder_moments`); no dense operator matrix is built
here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidSpecError,
    OutOfRangeError,
    TrivialStateError,
    TruncationError,
    require_int,
)

# Default threshold on the probability weight sitting in the top decile of
# the ladder; states above it are rejected as under-resolved.
TAIL_MASS_TOL = 1e-8

# Smallest cutoff at which random_state's envelope keeps the top decile empty.
RANDOM_STATE_MIN_DIM = 8


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
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise TrivialStateError("cannot normalize the zero vector")
        return FockVector(self.amps / n)

    def tail_mass(self) -> float:
        """Probability weight on the top decile of the ladder."""
        start = int(np.floor(0.9 * self.dim))
        return float(np.sum(np.abs(self.amps[start:]) ** 2))

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
            dim = data["dim"]
            re = np.asarray(data["re"], dtype=float)
            im = np.asarray(data["im"], dtype=float)
        except KeyError as exc:
            raise InvalidSpecError(f"state file lacks key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InvalidSpecError(f"malformed state file: {exc}") from None
        dim = require_int(dim, "state file dim", InvalidSpecError)
        if re.size != dim or im.size != dim:
            raise DimensionMismatchError(
                f"array lengths {re.size}/{im.size} do not match dim {dim}"
            )
        return cls(re + 1j * im)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FockVector":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise InvalidSpecError(f"{path} is not a JSON state file: {exc}") from None
        return cls.from_json_dict(data)


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
    dim = require_int(dim, "dim", InvalidDimensionError)
    if dim < RANDOM_STATE_MIN_DIM:
        raise InvalidDimensionError(
            f"random states need dim >= {RANDOM_STATE_MIN_DIM}, got {dim}"
        )
    envelope = np.exp(-((np.arange(dim) / max(2, dim // 5)) ** 2))
    amps = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * envelope
    return FockVector(amps).normalized()


def ensure_resolved(state: FockVector) -> None:
    """Raise TruncationError if the state's tail mass reaches TAIL_MASS_TOL."""
    tail = state.tail_mass()
    if not tail < TAIL_MASS_TOL:
        raise TruncationError(tail, TAIL_MASS_TOL, state.dim)
