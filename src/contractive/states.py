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

At the dims most states are built at (a few hundred), a term of the
expansion costs more in numpy's per-call overhead than in arithmetic. So
`_expm_band` writes each Chebyshev vector into the next row of a small ring
and adds a full block of rows onto the sum in two numpy calls, with the
operations and the order of a term-by-term sum: its output is bit-identical
to that loop, which tests/conftest.py keeps as
`expm_band_chebyshev_reference`. Rows too large for a useful ring run that
loop itself. The two are separate loops, so a term makes its numpy calls and
tests no mode. A ring row is written by one add that carries the first k
entries of u_{j-1} through a -0.0 pad rather than by an add and a copy, and
the block weights are made complex once per call, the type numpy would cast
them to at every flush.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    OutOfRangeError,
    TruncationError,
    require_complex,
    require_int,
    require_real,
)
from .fock import (
    FockVector,
    ensure_mean_resolved,
    ensure_resolved,
    index_sums,
    index_weights,
    number_state,
)

# Largest cutoff make_scs and make_sgcs choose on their own; a state that
# needs more must be given its dim.
AUTO_DIM_MAX = 2**14


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
    w1 = index_weights(dim)[1]  # sqrt(m + 1)
    return complex(c) * (w1 if k == 1 else w1[:-1] * w1[1:])


def _bessel_j(x: float) -> np.ndarray:
    """J_0(x), J_1(x), ..., J_K(x) for x > 0, where K is the first order
    above x whose tail 2 sum_{i>K} |J_i(x)| is at most a quarter of the
    machine epsilon (half the unit roundoff).

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started
    from zero beyond n and normalized by J_0 + 2 sum_k J_{2k} = 1. Above x it
    carries the ratios J_k/J_{k-1} = x/(2k - x J_{k+1}/J_k), which stay in
    (0, 1) there, so no step divides by x or overflows however small x is;
    at and below x it carries the values, where 2k/x <= 2. Both recurrences
    run on Python floats, whose arithmetic is numpy's float64 arithmetic.
    """
    top = math.floor(x) + 1  # lowest order above x
    n = top + 30 + math.ceil(20.0 * x ** (1.0 / 3.0))
    ratios = []  # orders n, n - 1, ..., top
    ratio = 0.0
    for order in range(n, top - 1, -1):
        ratio = x / (2.0 * order - x * ratio)
        ratios.append(ratio)
    values = np.empty(n + 1)
    values[top - 1] = 1.0
    values[top:] = np.cumprod(ratios[::-1])
    below = []  # orders top - 2, top - 3, ..., 0
    value, upper = 1.0, ratios[-1]  # J_{top-1}, J_top up to a common factor
    for order in range(top - 1, 0, -1):
        value, upper = (2.0 * order / x) * value - upper, value
        below.append(value)
    values[:top - 1] = below[::-1]
    values /= values[0] + 2.0 * values[2::2].sum()
    tail = 2.0 * np.cumsum(np.abs(values[:0:-1]))[::-1]  # tail[j]: orders > j
    small = np.flatnonzero(tail[top:] <= np.finfo(float).eps / 4)
    if small.size == 0:  # the margin above puts the tail near 1e-30
        raise ArithmeticError(f"Bessel tail at x = {x} does not fall below rounding")
    return values[:top + small[0] + 1]


# _expm_band keeps the u_j of a block of terms in one ring array of at most
# RING_ROWS rows and RING_BYTES: the out row, the block's rows and the two
# u_j that carry into the next block. It sums each block in two numpy calls.
# Where a block would hold fewer than RING_MIN_BLOCK terms, the calls no
# longer dominate a term's cost, and it runs the in-place two-vector
# recurrence instead.
RING_BYTES = 128 * 1024
RING_ROWS = 32
RING_MIN_BLOCK = 8


def _block_terms(row_bytes: int) -> int:
    """Terms _expm_band sums per block for u_j of row_bytes bytes; 1 means
    the in-place two-vector recurrence, summed term by term."""
    block = min(RING_ROWS, RING_BYTES // row_bytes) - 3
    return block if block >= RING_MIN_BLOCK else 1


def _expm_band(amps: np.ndarray, k: int, c: complex) -> np.ndarray:
    """exp(G) applied to amps, G = c a^dag^k - c* a^k; no truncation check.

    amps is a (dim,) vector or a (dim, n) block of columns. rho, the exact
    1-norm of G (its largest column sum), bounds the spectrum of the Hermitian
    iG, and exp(G) v = J_0(rho) u_0 + 2 sum_j J_j(rho) u_j with u_j =
    (-i)^j T_j(iG/rho) v: u_0 = v, u_1 = (G/rho) v, u_{j+1} = 2 (G/rho) u_j +
    u_{j-1}. As ||u_j|| <= ||v||, the sum stops at the first order beyond rho
    whose Bessel tail 2 sum_{i>j} |J_i(rho)| is below half the unit roundoff,
    so the number of terms depends on rho alone.

    From u_2 on, each u_{j+1} is written into the next row of a ring: u_{j-1}
    plus the product (2 G / rho) u_j, whose first k entries are -0.0 (x +
    -0.0 is x bit for bit), then minus the other product. When a block of
    rows is full, the rows are weighted by their 2 J_j in one multiply, and
    one add.reduce over the out row and the block adds them to the sum in
    the order ((out + t_a) + t_{a+1}) + ..., the order of a sum term by
    term, starting from -0.0 as the pad does (a +0.0 start turns a -0.0 sum
    into +0.0). The weights are a complex column made once per call: a complex
    row times a float weight runs numpy's complex multiply on the weight cast
    to complex, so the products keep their bits. Every value is the one the
    term-by-term loop makes, so the result is bit-identical to it
    (tests/conftest.py keeps that loop as expm_band_chebyshev_reference).
    Rows too large for a useful ring (see _block_terms) run that loop
    itself, in a loop of its own that returns before the ring's.
    """
    dim = amps.shape[0]
    band = _band(k, c, dim)
    col_sums = np.zeros(dim)
    col_sums[:-k] += np.abs(band)
    col_sums[k:] += np.abs(band)
    rho = float(col_sums.max())
    if rho == 0.0:
        return amps.astype(complex)
    bessel = _bessel_j(rho)
    # 2 G / rho part by part: a complex division takes 1/rho, inf if subnormal
    band = ((2.0 * band).view(float) / rho).view(complex)
    if amps.ndim == 2:
        band = band[:, None]
    band_conj = band.conj()
    block = _block_terms(16 * amps.size)
    in_place = block == 1
    # ring mode: row 0 takes out at a flush, rows 1..block the block's u_j,
    # and the last two rows the u_{j-1}, u_j that start the next block
    ring = np.empty((2 if in_place else block + 3,) + amps.shape, dtype=complex)
    p, q = (0, 1) if in_place else (block + 1, block + 2)
    prev, cur = ring[p], ring[q]
    prev[...] = amps
    out = bessel[0] * prev
    cur[:k] = 0.0  # u_1 = (G / rho) u_0
    cur[k:] = 0.5 * band * prev[:-k]
    cur[:-k] -= 0.5 * band_conj * prev[k:]
    out += 2.0 * bessel[1] * cur
    lo = [row[:-k] for row in ring]
    hi = [row[k:] for row in ring]
    full = list(ring)
    multiply, add, subtract = np.multiply, np.add, np.subtract
    if in_place:
        scratch = np.empty_like(hi[0])
        term = np.empty_like(out)
        for coeff in 2.0 * bessel[2:]:
            # u_{j+1} = (2 G / rho) u_j + u_{j-1}, written over u_{j-1}
            multiply(band, lo[q], scratch)
            add(hi[p], scratch, hi[p])
            multiply(band_conj, hi[q], scratch)
            subtract(lo[p], scratch, lo[p])
            p, q = q, p
            multiply(full[q], coeff, term)
            add(out, term, out)
        return out
    # products (2 G / rho) u_j go to pad[k:]; pad[:k] holds -0.0 - 0.0j,
    # which added to any value returns it bit for bit (a +0.0 part would
    # turn -0.0 into +0.0), so a ring row plus pad is u_{j-1} + the product
    # with u_{j-1}'s first k entries carried unchanged
    pad = np.empty_like(out)
    pad[:k] = complex(-0.0, -0.0)
    scratch = pad[k:]
    # the weights 2 J_j as a complex column: complex by complex is the loop
    # numpy runs for a float column, without casting it at every flush
    weights = (2.0 * bessel[2:]).astype(complex).reshape((-1,) + (1,) * amps.ndim)
    for start in range(0, weights.shape[0], block):
        n = min(block, weights.shape[0] - start)
        for w in range(1, n + 1):
            # u_{j+1} = (2 G / rho) u_j + u_{j-1} into row w
            multiply(band, lo[q], scratch)
            add(full[p], pad, full[w])
            multiply(band_conj, hi[q], scratch)
            subtract(lo[w], scratch, lo[w])
            p, q = q, w
        # carry u_{j-1}, u_j, then sum the block
        ring[block + 1] = ring[p]
        ring[block + 2] = ring[q]
        p, q = block + 1, block + 2
        ring[0] = out
        rows = ring[1:n + 1]
        multiply(rows, weights[start:start + n], rows)
        add.reduce(ring[:n + 1], axis=0, out=out, initial=complex(-0.0, -0.0))
    return out


def _apply(state: FockVector, k: int, c: complex, mean_after) -> FockVector:
    """exp(G) applied to a resolved state; raises TruncationError if the
    result is under-resolved.

    mean_after maps the input's index sums (<a>, <a^2>, n_bar) to the exact
    mean photon number of the output without a cutoff. An operation whose
    output mean reaches the top decile would wrap around the cutoff, so it
    is refused (CutoffReachedError) before the exponential, whose work grows
    with the generator's norm, however large its argument.
    """
    ensure_resolved(state)
    norm = state.norm()
    if norm > 0.0:
        try:
            n_bar = mean_after(*index_sums(state.amps / norm))
        except OverflowError:  # past the float range, so past the cutoff
            n_bar = math.inf
        ensure_mean_resolved(n_bar, state.dim)
    result = FockVector(_expm_band(state.amps, k, c))
    ensure_resolved(result)
    return result


def displace(state: FockVector, alpha: complex) -> FockVector:
    """Apply D(alpha); raises TruncationError if the result is under-resolved.

    The output's exact mean is n_bar + 2 Re(alpha* <a>) + |alpha|^2.
    """
    alpha = require_complex(alpha, "displacement alpha", InvalidParameterError)
    return _apply(state, 1, alpha, lambda first, second, n_bar: (
        n_bar + 2.0 * (alpha.conjugate() * first).real + abs(alpha) ** 2))


def squeeze(state: FockVector, params: SqueezeParams) -> FockVector:
    """Apply S(xi); raises TruncationError if the result is under-resolved.

    The output's exact mean is
    n_bar cosh 2r + sinh^2 r - sinh 2r Re(e^{-i theta} <a^2>).
    """
    r, unrotate = params.r, complex(math.cos(params.theta), -math.sin(params.theta))
    return _apply(state, 2, -0.5 * params.xi, lambda first, second, n_bar: (
        n_bar * math.cosh(2.0 * r) + math.sinh(r) ** 2
        - math.sinh(2.0 * r) * (unrotate * second).real))


def _no_auto_dim(r: float, alpha: complex) -> OutOfRangeError:
    return OutOfRangeError(
        f"no automatic cutoff up to {AUTO_DIM_MAX} holds r = {r}, alpha = {alpha}; pass dim"
    )


def _auto_build(build, start: int, r: float, alpha: complex) -> FockVector:
    """build(dim) at dim = start, 2 start, 4 start, ... up to AUTO_DIM_MAX;
    the first output that resolves.

    A dim too small for the output's mean fails the builders' O(dim) mean
    check before any exponential runs; one that holds the mean but not the
    tail fails the tail check after the build. An exponential's work grows
    faster than dim, so such attempts together cost less than the last one.
    """
    dim = start
    while True:
        try:
            return build(dim)
        except TruncationError:
            if 2 * dim > max(AUTO_DIM_MAX, start):
                raise _no_auto_dim(r, alpha) from None
            dim *= 2


def make_scs(alpha: complex, params: SqueezeParams,
             dim: int | None = None) -> FockVector:
    """Squeezed coherent state D(alpha) S(xi) |0>.

    With dim None the cutoff is the first of 64, 128, ..., AUTO_DIM_MAX = 2**14
    at which the state resolves; a state that needs more (r above about 3.73
    at alpha = 0, or |alpha| above about 118 at r = 0) raises OutOfRangeError
    unless dim is given. A given dim must be an integer of at least 2.
    """
    alpha = require_complex(alpha, "displacement alpha", InvalidParameterError)

    def build(dim):
        return displace(squeeze(number_state(0, dim), params), alpha)

    if dim is not None:
        return build(require_int(dim, "dim", InvalidDimensionError, minimum=2))
    return _auto_build(build, 64, params.r, alpha)


def make_sgcs(alpha: complex, params: SqueezeParams, phi: FockVector,
              dim: int | None = None) -> FockVector:
    """Squeezed generic coherent state D(alpha) S(xi) |phi>.

    The seed phi must satisfy the vanishing ladder-moment conditions
    <phi|a|phi> = 0 and <phi|a^2|phi> = 0; otherwise SeedConditionError.
    With dim None the cutoff is chosen as in make_scs, starting from the
    larger of 64 and phi's dim, and one above AUTO_DIM_MAX = 2**14 (or above
    phi's dim if that is larger) raises OutOfRangeError. A given dim must be
    an integer of at least 2; one below phi's dim builds at phi's dim.
    """
    alpha = require_complex(alpha, "displacement alpha", InvalidParameterError)
    if dim is not None:
        dim = require_int(dim, "dim", InvalidDimensionError, minimum=2)
    from .gcs import require_seed
    require_seed(phi)
    seed = phi.normalized()

    def build(dim):
        return displace(squeeze(seed.padded(max(dim, phi.dim)), params), alpha)

    if dim is not None:
        return build(dim)
    return _auto_build(build, max(64, phi.dim), params.r, alpha)


def extremal_fock(lam: complex, mean_x: float = 0.0, mean_p: float = 0.0,
                  dim: int | None = 64) -> FockVector:
    """Extremal packet annihilated by (Delta p - i lambda Delta x).

    It saturates 4 var_x var_p - cov^2 = 1 with var_x = 1/(2 Re lambda),
    var_p = |lambda|^2 / (2 Re lambda) and cov = -Im lambda / Re lambda,
    and is the squeezed coherent state D(alpha) S(xi)|0> with
    alpha = (mean_x + i mean_p)/sqrt(2), cosh 2r = var_x + var_p,
    cos theta sinh 2r = var_p - var_x and sin theta sinh 2r = -cov.
    Defined up to a global phase. Re lambda must be positive for
    normalizability. dim None chooses the cutoff as make_scs does.
    """
    lam = require_complex(lam, "lambda", InvalidParameterError)
    mean_x = require_real(mean_x, "mean_x", InvalidParameterError)
    mean_p = require_real(mean_p, "mean_p", InvalidParameterError)
    if lam.real <= 0:
        raise InvalidParameterError(f"need Re lambda > 0, got lambda={lam}")
    try:
        var_gap = (lam.real**2 + lam.imag**2 - 1.0) / (2.0 * lam.real)  # var_p - var_x
    except OverflowError:  # |lambda|^2 past the float range
        var_gap = 0.5 * abs(lam) * (abs(lam) / lam.real) - 0.5 / lam.real
    minus_cov = lam.imag / lam.real
    # r from sinh 2r rather than arccosh(var_x + var_p): near r = 0 the latter
    # turns rounding in var_x + var_p into an error of order sqrt(eps) in r.
    r = 0.5 * math.asinh(math.hypot(var_gap, minus_cov))
    alpha = complex(mean_x, mean_p) / math.sqrt(2.0)
    if not math.isfinite(r):  # a packet that wide is past every cutoff
        if dim is None:
            raise _no_auto_dim(r, alpha)
        ensure_mean_resolved(math.inf, require_int(dim, "dim", InvalidDimensionError))
    params = SqueezeParams(r=r, theta=math.atan2(minus_cov, var_gap))
    return make_scs(alpha, params, dim=dim)
