"""State construction: displacement, squeezing, seeded families, extremal packets.

Builders act in the truncated space and re-check truncation health of their
output, so a state returned from here is safe to feed into the moment and
dynamics layers.

Displacement and squeezing are exponentials of the banded generator
G = c a^dag^k - c* a^k. Builders apply exp(G) to the vector with a truncated
Taylor series with scaling (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
(2011), sec. 3) whose matrix-vector product is an index shift, so nothing
here forms a dim x dim array. The unchecked core `_expm_band` also takes a
block of columns; the operator-identity check in `verify` runs on it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import gcs
from .errors import (
    CutoffReachedError,
    InvalidDimensionError,
    InvalidParameterError,
    OutOfRangeError,
    require_real,
)
from .fock import FockVector, ensure_resolved, number_state


@dataclass(frozen=True)
class SqueezeParams:
    """Squeezing strength r >= 0 and phase theta (xi = r e^{i theta})."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        for name in ("r", "theta"):
            object.__setattr__(self, name, require_real(
                getattr(self, name), name, InvalidParameterError))
        if not math.isfinite(self.r) or not math.isfinite(self.theta):
            raise InvalidParameterError("squeeze parameters must be finite")
        if self.r < 0:
            raise OutOfRangeError(f"squeeze strength r must be >= 0, got {self.r}")

    @property
    def mu(self) -> float:
        return math.cosh(self.r)

    @property
    def nu(self) -> complex:
        return complex(math.cos(self.theta), math.sin(self.theta)) * math.sinh(self.r)

    @property
    def xi(self) -> complex:
        return complex(math.cos(self.theta), math.sin(self.theta)) * self.r


# Bound on the 1-norm of G/steps in one Taylor step. The partial sums of a
# step can exceed the result by about e^4, so rounding stays near e^4 u.
_STEP_NORM = 4.0


def _band(k: int, c: complex, dim: int) -> np.ndarray:
    """Band of G = c a^dag^k - c* a^k on the truncated space.

    G[m + k, m] = band[m] and G[m, m + k] = -conj(band[m]). k = 1, c = alpha
    generates D(alpha); k = 2, c = -xi/2 generates S(xi).
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    m = np.arange(dim - k, dtype=float)
    return complex(c) * np.prod([np.sqrt(m + i) for i in range(1, k + 1)], axis=0)


def _expm_band(amps: np.ndarray, k: int, c: complex) -> np.ndarray:
    """exp(G) applied to amps, G = c a^dag^k - c* a^k; no truncation check.

    amps is a (dim,) vector or a (dim, n) block of columns. The step count
    comes from the exact 1-norm of G (its largest absolute column sum). Each
    step sums the Taylor series of exp(G/steps) until two consecutive terms
    fall below u times the partial sum (Al-Mohy & Higham's stopping test),
    with maxima taken over the whole block.
    """
    dim = amps.shape[0]
    band = _band(k, c, dim)
    col_sums = np.zeros(dim)
    col_sums[:-k] += np.abs(band)
    col_sums[k:] += np.abs(band)
    steps = max(1, math.ceil(float(col_sums.max()) / _STEP_NORM))
    band = band / steps
    if amps.ndim == 2:
        band = band[:, None]
    band_conj = band.conj()
    out = amps.astype(complex)
    term = np.empty_like(out)
    shifted = np.empty_like(out)
    tol = np.finfo(float).eps / 2.0
    for _ in range(steps):
        term[:] = out
        prev = abs(term).max()
        bound = prev  # >= max|out| by the triangle inequality; spares the norm
        degree = 1
        while True:  # ||G/steps|| <= 4: terms shrink like 4^j/j!, ~40 at most
            shifted[:k] = 0.0
            np.multiply(band, term[:-k], out=shifted[k:])
            shifted[:-k] -= band_conj * term[k:]
            np.multiply(shifted, 1.0 / degree, out=term)
            out += term
            size = abs(term).max()
            bound += size
            if prev + size <= tol * bound and prev + size <= tol * abs(out).max():
                break
            prev = size
            degree += 1
    return out


def _apply(state: FockVector, k: int, c: complex) -> FockVector:
    """exp(G) applied to a resolved state; raises TruncationError if the
    result is under-resolved."""
    ensure_resolved(state)
    result = FockVector(_expm_band(state.amps, k, c))
    ensure_resolved(result)
    return result


def _require_finite_alpha(alpha: complex) -> None:
    if not cmath.isfinite(alpha):
        raise InvalidParameterError(f"displacement alpha must be finite, got {alpha}")


def displace(state: FockVector, alpha: complex) -> FockVector:
    """Apply D(alpha); raises TruncationError if the result is under-resolved.

    Before the exponential, the exact mean photon number of D(alpha)|psi>,
    n_bar + 2 Re(alpha* <a>) + |alpha|^2 from the input's index sums, is
    held against the top decile of the ladder. A resolved output keeps all
    but TAIL_MASS_TOL of its weight below 0.9 dim, so its mean cannot reach
    that level; a displacement that does would wrap around the cutoff, and
    is rejected up front (CutoffReachedError) however large alpha is.
    """
    _require_finite_alpha(alpha)
    ensure_resolved(state)
    norm = state.norm()
    if norm > 0.0:
        alpha = complex(alpha)
        amps = state.amps / norm
        first, _ = gcs.ladder_sums(amps)
        n_bar = (gcs.photon_sum(amps) + 2.0 * (alpha.conjugate() * first).real
                 + abs(alpha) ** 2)
        if n_bar >= 0.9 * state.dim:
            raise CutoffReachedError(n_bar, state.dim)
    return _apply(state, 1, alpha)


def squeeze(state: FockVector, params: SqueezeParams) -> FockVector:
    """Apply S(xi); raises TruncationError if the result is under-resolved."""
    return _apply(state, 2, -0.5 * params.xi)


def _auto_dim(top_level: int, alpha: complex, r: float) -> int:
    # Generous occupancy estimate: squeezing scales the band by e^{2r},
    # displacement adds ~|alpha|^2 photons.
    est = (top_level + 1) * math.exp(2 * r) + 2.0 * (abs(alpha) + 1.0) ** 2
    dim = max(64, int(math.ceil(4 * est)))
    return ((dim + 31) // 32) * 32


def make_scs(alpha: complex, params: SqueezeParams,
             dim: int | None = None) -> FockVector:
    """Squeezed coherent state D(alpha) S(xi) |0>."""
    _require_finite_alpha(alpha)
    if dim is None:
        dim = _auto_dim(0, alpha, params.r)
    return displace(squeeze(number_state(0, dim), params), alpha)


def make_sgcs(alpha: complex, params: SqueezeParams, phi: FockVector,
              dim: int | None = None) -> FockVector:
    """Squeezed generic coherent state D(alpha) S(xi) |phi>.

    The seed phi must satisfy the vanishing ladder-moment conditions
    <phi|a|phi> = 0 and <phi|a^2|phi> = 0; otherwise SeedConditionError.
    """
    _require_finite_alpha(alpha)
    gcs.require_seed(phi)
    seed = phi.normalized()
    top = int(np.nonzero(np.abs(seed.amps) > 1e-14)[0][-1])
    if dim is None:
        dim = _auto_dim(top, alpha, params.r)
    return displace(squeeze(seed.padded(max(dim, phi.dim)), params), alpha)


def extremal_fock(lam: complex, mean_x: float = 0.0, mean_p: float = 0.0,
                  dim: int = 64) -> FockVector:
    """Extremal packet annihilated by (Delta p - i lambda Delta x).

    It saturates 4 var_x var_p - cov^2 = 1 with var_x = 1/(2 Re lambda),
    var_p = |lambda|^2 / (2 Re lambda) and cov = -Im lambda / Re lambda,
    and is the squeezed coherent state D(alpha) S(xi)|0> with
    alpha = (mean_x + i mean_p)/sqrt(2), cosh 2r = var_x + var_p,
    cos theta sinh 2r = var_p - var_x and sin theta sinh 2r = -cov.
    Defined up to a global phase. Re lambda must be positive for
    normalizability.
    """
    lam = complex(lam)
    mean_x = require_real(mean_x, "mean_x", InvalidParameterError)
    mean_p = require_real(mean_p, "mean_p", InvalidParameterError)
    if not (cmath.isfinite(lam) and lam.real > 0
            and math.isfinite(mean_x) and math.isfinite(mean_p)):
        raise InvalidParameterError(
            f"need finite lambda with Re lambda > 0 and finite means, "
            f"got lambda={lam}, mean_x={mean_x}, mean_p={mean_p}"
        )
    var_gap = (lam.real**2 + lam.imag**2 - 1.0) / (2.0 * lam.real)  # var_p - var_x
    minus_cov = lam.imag / lam.real
    # r from sinh 2r rather than arccosh(var_x + var_p): near r = 0 the latter
    # turns rounding in var_x + var_p into an error of order sqrt(eps) in r.
    params = SqueezeParams(r=0.5 * math.asinh(math.hypot(var_gap, minus_cov)),
                           theta=math.atan2(minus_cov, var_gap))
    return make_scs(complex(mean_x, mean_p) / math.sqrt(2.0), params, dim=dim)
