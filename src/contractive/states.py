"""State construction: displacement, squeezing, seeded families, extremal packets.

Builders act in the truncated space and re-check truncation health of their
output, so a state returned from here is safe to feed into the moment and
dynamics layers.

Displacement and squeezing are exponentials of the banded generator
G = c a^dag^k - c* a^k. Builders apply exp(G) to the vector with a Chebyshev
expansion whose coefficients are Bessel values (Tal-Ezer & Kosloff, J. Chem.
Phys. 81, 3967 (1984)) and whose matrix-vector product is an index shift, so
nothing here forms a dim x dim array. The unchecked core `_expm_band` also
takes a block of columns; the operator-identity check in `verify` runs on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gcs
from .errors import (
    CutoffReachedError,
    InvalidDimensionError,
    InvalidParameterError,
    OutOfRangeError,
    require_complex,
    require_int,
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


def _band(k: int, c: complex, dim: int) -> np.ndarray:
    """Band of G = c a^dag^k - c* a^k on the truncated space.

    G[m + k, m] = band[m] and G[m, m + k] = -conj(band[m]). k = 1, c = alpha
    generates D(alpha); k = 2, c = -xi/2 generates S(xi).
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    m = np.arange(dim - k, dtype=float)
    return complex(c) * np.prod([np.sqrt(m + i) for i in range(1, k + 1)], axis=0)


def _bessel_j(x: float) -> np.ndarray:
    """J_0(x), J_1(x), ..., J_K(x) for x > 0, where K is the first order
    above x whose tail 2 sum_{i>K} |J_i(x)| is at most a quarter of the
    machine epsilon (half the unit roundoff).

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started
    from zero beyond n and normalized by J_0 + 2 sum_k J_{2k} = 1. Above x it
    carries the ratios J_k/J_{k-1} = x/(2k - x J_{k+1}/J_k), which stay in
    (0, 1) there, so no step divides by x or overflows however small x is;
    at and below x it carries the values, where 2k/x <= 2.
    """
    top = math.floor(x) + 1  # lowest order above x
    n = top + 30 + math.ceil(20.0 * x ** (1.0 / 3.0))
    ratios = np.empty(n - top + 1)
    ratio = 0.0
    for order in range(n, top - 1, -1):
        ratio = x / (2.0 * order - x * ratio)
        ratios[order - top] = ratio
    values = np.empty(n + 1)
    values[top - 1] = 1.0
    values[top:] = np.cumprod(ratios)
    for order in range(top - 1, 0, -1):
        values[order - 1] = (2.0 * order / x) * values[order] - values[order + 1]
    values /= values[0] + 2.0 * values[2::2].sum()
    tail = 2.0 * np.cumsum(np.abs(values[:0:-1]))[::-1]  # tail[j]: orders > j
    small = np.flatnonzero(tail[top:] <= np.finfo(float).eps / 4)
    if small.size == 0:  # the margin above puts the tail near 1e-30
        raise ArithmeticError(f"Bessel tail at x = {x} does not fall below rounding")
    return values[:top + small[0] + 1]


def _expm_band(amps: np.ndarray, k: int, c: complex) -> np.ndarray:
    """exp(G) applied to amps, G = c a^dag^k - c* a^k; no truncation check.

    amps is a (dim,) vector or a (dim, n) block of columns. rho, the exact
    1-norm of G (its largest column sum), bounds the spectrum of the Hermitian
    iG, and exp(G) v = J_0(rho) u_0 + 2 sum_j J_j(rho) u_j with u_j =
    (-i)^j T_j(iG/rho) v: u_0 = v, u_1 = (G/rho) v, u_{j+1} = 2 (G/rho) u_j +
    u_{j-1}. As ||u_j|| <= ||v||, the sum stops at the first order beyond rho
    whose Bessel tail 2 sum_{i>j} |J_i(rho)| is below half the unit roundoff,
    so the number of terms depends on rho alone.
    """
    dim = amps.shape[0]
    band = _band(k, c, dim)
    col_sums = np.zeros(dim)
    col_sums[:-k] += np.abs(band)
    col_sums[k:] += np.abs(band)
    rho = float(col_sums.max())
    prev = amps.astype(complex)
    if rho == 0.0:
        return prev
    bessel = _bessel_j(rho)
    # 2 G / rho part by part: a complex division takes 1/rho, inf if subnormal
    band = ((2.0 * band).view(float) / rho).view(complex)
    if amps.ndim == 2:
        band = band[:, None]
    band_conj = band.conj()
    out = bessel[0] * prev
    cur = np.zeros_like(prev)  # u_1 = (G / rho) u_0
    cur[k:] = 0.5 * band * prev[:-k]
    cur[:-k] -= 0.5 * band_conj * prev[k:]
    out += 2.0 * bessel[1] * cur
    scratch = np.empty_like(prev[k:])
    term = np.empty_like(prev)
    for coeff in 2.0 * bessel[2:]:
        # u_{j+1} = (2 G / rho) u_j + u_{j-1}, written over u_{j-1}
        np.multiply(band, cur[:-k], out=scratch)
        prev[k:] += scratch
        np.multiply(band_conj, cur[k:], out=scratch)
        prev[:-k] -= scratch
        prev, cur = cur, prev
        np.multiply(cur, coeff, out=term)
        out += term
    return out


def _apply(state: FockVector, k: int, c: complex) -> FockVector:
    """exp(G) applied to a resolved state; raises TruncationError if the
    result is under-resolved."""
    ensure_resolved(state)
    result = FockVector(_expm_band(state.amps, k, c))
    ensure_resolved(result)
    return result


def displace(state: FockVector, alpha: complex) -> FockVector:
    """Apply D(alpha); raises TruncationError if the result is under-resolved.

    Before the exponential, the exact mean photon number of D(alpha)|psi>,
    n_bar + 2 Re(alpha* <a>) + |alpha|^2 from the input's index sums, is
    held against the top decile of the ladder. A resolved output keeps all
    but TAIL_MASS_TOL of its weight below 0.9 dim, so its mean cannot reach
    that level; a displacement that does would wrap around the cutoff, and
    is rejected up front (CutoffReachedError) however large alpha is.
    """
    alpha = require_complex(alpha, "displacement alpha", InvalidParameterError)
    ensure_resolved(state)
    norm = state.norm()
    if norm > 0.0:
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
    alpha = require_complex(alpha, "displacement alpha", InvalidParameterError)
    if dim is None:
        dim = _auto_dim(0, alpha, params.r)
    return displace(squeeze(number_state(0, dim), params), alpha)


def make_sgcs(alpha: complex, params: SqueezeParams, phi: FockVector,
              dim: int | None = None) -> FockVector:
    """Squeezed generic coherent state D(alpha) S(xi) |phi>.

    The seed phi must satisfy the vanishing ladder-moment conditions
    <phi|a|phi> = 0 and <phi|a^2|phi> = 0; otherwise SeedConditionError.
    """
    alpha = require_complex(alpha, "displacement alpha", InvalidParameterError)
    if dim is not None:
        dim = require_int(dim, "dim", InvalidDimensionError)
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
    lam = require_complex(lam, "lambda", InvalidParameterError)
    mean_x = require_real(mean_x, "mean_x", InvalidParameterError)
    mean_p = require_real(mean_p, "mean_p", InvalidParameterError)
    if lam.real <= 0:
        raise InvalidParameterError(f"need Re lambda > 0, got lambda={lam}")
    var_gap = (lam.real**2 + lam.imag**2 - 1.0) / (2.0 * lam.real)  # var_p - var_x
    minus_cov = lam.imag / lam.real
    # r from sinh 2r rather than arccosh(var_x + var_p): near r = 0 the latter
    # turns rounding in var_x + var_p into an error of order sqrt(eps) in r.
    params = SqueezeParams(r=0.5 * math.asinh(math.hypot(var_gap, minus_cov)),
                           theta=math.atan2(minus_cov, var_gap))
    return make_scs(complex(mean_x, mean_p) / math.sqrt(2.0), params, dim=dim)
