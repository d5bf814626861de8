"""Exception types shared across the toolkit, and the input validators
that raise them."""

import cmath
import math
import numbers

import numpy as np


class ContractiveError(Exception):
    """Base class for all toolkit errors."""


class UsageError(ContractiveError):
    """Base class of the errors that blame the input rather than the physics:
    a malformed, out-of-range or inconsistent argument or file. The CLI exits
    2 on these and 1 on every other ContractiveError."""


class InvalidDimensionError(UsageError):
    """Requested Fock-space dimension is too small or inconsistent."""


class DimensionMismatchError(UsageError):
    """Operands live in Fock spaces of different dimension."""


class TruncationError(ContractiveError):
    """State carries too much weight near the cutoff to be trusted."""

    def __init__(self, tail_mass: float, threshold: float, dim: int):
        self.tail_mass = tail_mass
        self.threshold = threshold
        self.dim = dim
        super().__init__(
            f"state under-resolved at dim={dim}: tail mass {tail_mass:.3e} "
            f"exceeds threshold {threshold:.3e}"
        )


class CutoffReachedError(TruncationError):
    """A displacement or squeeze would carry the mean photon number into the
    top decile of the ladder, where a resolved state keeps almost none of its
    weight.

    Raised before the exponential is applied; `n_bar` is the exact mean
    photon number the output would have without a cutoff (inf where that
    formula overflows), and `limit` the level where the top decile starts.
    """

    def __init__(self, n_bar: float, dim: int, limit: float):
        self.n_bar = n_bar
        self.dim = dim
        self.limit = limit
        ContractiveError.__init__(
            self,
            f"state under-resolved at dim={dim}: the output's mean photon number "
            f"{n_bar:.3e} reaches the top decile of the ladder at {limit:.3e}",
        )


class OutOfRangeError(UsageError):
    """A level index or parameter falls outside its admissible range."""


class InvalidSpecError(UsageError):
    """A state specification is structurally invalid."""


class DegenerateSpecError(ContractiveError):
    """The seed-construction system is singular for these coefficients."""

    def __init__(self, determinant: complex, message: str = ""):
        self.determinant = determinant
        text = message or "seed system is singular"
        super().__init__(f"{text} (|det| = {abs(determinant):.3e})")


class TrivialStateError(ContractiveError):
    """A construction produced the zero vector."""


class SeedConditionError(ContractiveError):
    """Seed state fails the vanishing first/second ladder-moment conditions."""

    def __init__(self, residual_a: float, residual_a2: float, tol: float):
        self.residual_a = residual_a
        self.residual_a2 = residual_a2
        self.tol = tol
        super().__init__(
            f"seed fails ladder-moment conditions: |<a>| = {residual_a:.3e}, "
            f"|<a^2>| = {residual_a2:.3e} (tol {tol:.1e})"
        )


class NotContractiveError(ContractiveError):
    """Requested a contraction window for a state with non-negative covariance."""


class InvalidParameterError(UsageError):
    """A physical parameter violates its constraint (e.g. non-positive mass)."""


def require_int(value, name: str, error: type[ContractiveError],
                minimum: int | None = None) -> int:
    """value as a Python int; error unless it is an integer (bool excluded,
    numpy integers accepted) of at least minimum, when one is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return value


def require_real(value, name: str, error: type[ContractiveError]) -> float:
    """value as a finite Python float; error unless it is a real number (bool
    excluded, numpy reals accepted) other than nan and +-inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {number!r}")
    return number


def require_complex(value, name: str, error: type[ContractiveError]) -> complex:
    """value as a finite Python complex; error unless it is a number (bool
    excluded, numpy scalars accepted) whose parts are not nan or +-inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        number = complex(value)
    except OverflowError:  # an int beyond the float range
        number = complex(math.inf)
    if not cmath.isfinite(number):
        raise error(f"{name} must be finite, got {number!r}")
    return number


def require_real_array(values, name: str,
                       error: type[ContractiveError]) -> np.ndarray:
    """values as a float array; error unless numpy reads them as integers or
    reals, no entry of a list or tuple is a bool (strings, complex numbers,
    None and ragged nesting excluded) and no entry is nan or +-inf."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        raise error(f"{name} must be real numbers, got a ragged sequence") from None
    if arr.dtype.kind not in "iuf":
        raise error(f"{name} must be real numbers, got {arr.dtype} entries")
    if isinstance(values, (list, tuple)) and any(isinstance(v, bool) for v in values):
        raise error(f"{name} must be real numbers, got a bool entry")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise error(f"{name} must be finite")
    return arr
