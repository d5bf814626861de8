"""State construction: displacement, squeezing, seeded families, extremal packets.

Builders act in the truncated space and re-check truncation health of their
output, so a state returned from here is safe to feed into the moment and
dynamics layers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from . import gcs
from .errors import InvalidDimensionError, InvalidParameterError, OutOfRangeError
from .fock import FockVector, ensure_resolved, number_state


@dataclass(frozen=True)
class SqueezeParams:
    """Squeezing strength r >= 0 and phase theta (xi = r e^{i theta})."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
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


def _generator(k: int, c: complex, dim: int) -> sp.csr_matrix:
    """c a^dag^k - c* a^k as a banded sparse matrix on the truncated space.

    k = 1, c = alpha generates D(alpha); k = 2, c = -xi/2 generates S(xi).
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    m = np.arange(dim - k, dtype=float)
    band = complex(c) * np.prod([np.sqrt(m + i) for i in range(1, k + 1)], axis=0)
    return sp.diags([band, -band.conj()], [-k, k], format="csr")


def displacement_operator(alpha: complex, dim: int) -> np.ndarray:
    """Dense D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space."""
    return expm(_generator(1, alpha, dim).toarray())


def squeeze_operator(params: SqueezeParams, dim: int) -> np.ndarray:
    """Dense S(xi) = exp((xi* a^2 - xi a^dag^2)/2) on the truncated space."""
    return expm(_generator(2, -0.5 * params.xi, dim).toarray())


def _apply(state: FockVector, k: int, c: complex) -> FockVector:
    # expm_multiply (Al-Mohy & Higham 2011) acts on the vector. Its 1-norm
    # estimator draws from np.random: pinned, so runs repeat bit for bit.
    ensure_resolved(state)
    saved = np.random.get_state()
    np.random.seed(0)
    try:
        out = FockVector(expm_multiply(_generator(k, c, state.dim), state.amps))
    finally:
        np.random.set_state(saved)
    ensure_resolved(out)
    return out


def displace(state: FockVector, alpha: complex) -> FockVector:
    """Apply D(alpha); raises TruncationError if the result is under-resolved."""
    if not cmath.isfinite(alpha):
        raise InvalidParameterError(f"displacement alpha must be finite, got {alpha}")
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
    if dim is None:
        dim = _auto_dim(0, alpha, params.r)
    return displace(squeeze(number_state(0, dim), params), alpha)


def make_sgcs(alpha: complex, params: SqueezeParams, phi: FockVector,
              dim: int | None = None) -> FockVector:
    """Squeezed generic coherent state D(alpha) S(xi) |phi>.

    The seed phi must satisfy the vanishing ladder-moment conditions
    <phi|a|phi> = 0 and <phi|a^2|phi> = 0; otherwise SeedConditionError.
    """
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
