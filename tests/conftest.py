"""Shared fixtures and independent oracle constructions.

The oracle helpers here build reference amplitudes from recursions and
closed forms that never touch the package's operator-exponential code
paths, so agreement between the two is a real cross-check. This module
never imports the package (test_verify guards it), so a retired kernel kept
here stays the code it was.
"""

import math
import re

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def coherent_amps(alpha: complex, dim: int) -> np.ndarray:
    """c_0 = e^{-|alpha|^2/2}, c_m = c_{m-1} alpha / sqrt(m)."""
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for m in range(1, dim):
        amps[m] = amps[m - 1] * alpha / math.sqrt(m)
    return amps


def squeezed_vacuum_amps(r: float, theta: float, dim: int) -> np.ndarray:
    """Even-rung recursion for S(xi)|0>.

    c_0 = 1/sqrt(cosh r),
    c_{2m+2} = -e^{i theta} tanh(r) sqrt((2m+1)/(2m+2)) c_{2m}.
    """
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0 / math.sqrt(math.cosh(r))
    factor = -np.exp(1j * theta) * math.tanh(r)
    for m in range(0, dim - 2, 2):
        amps[m + 2] = factor * math.sqrt((m + 1) / (m + 2)) * amps[m]
    return amps


def ladder_moments_direct(amps: np.ndarray):
    """<a> and <a^2> by explicit index sums, no operator matrices."""
    dim = amps.size
    norm2 = float(np.sum(np.abs(amps) ** 2))
    a1 = sum(
        np.conj(amps[m - 1]) * amps[m] * math.sqrt(m) for m in range(1, dim)
    )
    a2 = sum(
        np.conj(amps[m - 2]) * amps[m] * math.sqrt(m * (m - 1))
        for m in range(2, dim)
    )
    return complex(a1) / norm2, complex(a2) / norm2


def minimal_band_amps(n: int, c1: complex, c2: complex, dim: int) -> np.ndarray:
    """Closed-form seed on the band |n> .. |n+3> with interior c_{n+1} = c1
    and c_{n+2} = c2, zero-padded to dim.

    With delta = |c1|^2 - |c2|^2 (nonzero), both ladder moments vanish for
    c_n = -c1^2 conj(c2) sqrt((n+2)/(n+1)) / delta and
    c_{n+3} = conj(c1) c2^2 sqrt((n+2)/(n+3)) / delta. The result is
    normalized with its largest-magnitude entry real positive, the phase
    convention of the package's band solver.
    """
    delta = abs(c1) ** 2 - abs(c2) ** 2
    amps = np.zeros(dim, dtype=complex)
    amps[n] = -c1 * c1 * np.conjugate(c2) * math.sqrt((n + 2) / (n + 1)) / delta
    amps[n + 1] = c1
    amps[n + 2] = c2
    amps[n + 3] = np.conjugate(c1) * c2 * c2 * math.sqrt((n + 2) / (n + 3)) / delta
    amps /= np.linalg.norm(amps)
    pivot = amps[np.argmax(np.abs(amps))]
    return amps * (np.conjugate(pivot) / abs(pivot))


def dense_ladder(dim: int) -> np.ndarray:
    """Truncated annihilation matrix, a[m-1, m] = sqrt(m)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def dense_quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense x = (a + a^dag)/sqrt(2) and p = (a - a^dag)/(i sqrt(2))."""
    a = dense_ladder(dim)
    adag = a.conj().T
    return (a + adag) / math.sqrt(2.0), (a - adag) / (1j * math.sqrt(2.0))


def expect(amps: np.ndarray, op: np.ndarray) -> complex:
    """<psi| op |psi> for the amplitude vector psi."""
    return complex(np.vdot(amps, op @ amps))


def dense_moments_oracle(amps: np.ndarray):
    """(var_x, var_p, cov, n_bar) from dense ladder matrices.

    The state is padded by one level so that a^dag of the top level is kept
    and the dense products give the untruncated moments.
    """
    psi = np.zeros(amps.size + 1, dtype=complex)
    psi[:-1] = amps / np.linalg.norm(amps)
    a = dense_ladder(psi.size)
    x, p = dense_quadratures(psi.size)
    x_psi, p_psi = x @ psi, p @ psi
    mean_x = np.vdot(psi, x_psi).real
    mean_p = np.vdot(psi, p_psi).real
    var_x = np.vdot(x_psi, x_psi).real - mean_x**2
    var_p = np.vdot(p_psi, p_psi).real - mean_p**2
    cov = 2.0 * np.vdot(x_psi, p_psi).real - 2.0 * mean_x * mean_p
    a_psi = a @ psi
    n_bar = np.vdot(a_psi, a_psi).real
    return var_x, var_p, cov, n_bar


def dense_displace(amps: np.ndarray, alpha: complex) -> np.ndarray:
    """expm(alpha a^dag - alpha* a) @ amps with dense truncated ladder matrices."""
    a = dense_ladder(amps.size)
    return expm(alpha * a.conj().T - np.conjugate(alpha) * a) @ amps


def dense_squeeze(amps: np.ndarray, r: float, theta: float) -> np.ndarray:
    """expm((xi* a^2 - xi a^dag^2)/2) @ amps, xi = r e^{i theta}, dense."""
    a = dense_ladder(amps.size)
    a2 = a @ a
    xi = r * np.exp(1j * theta)
    return expm(0.5 * (np.conjugate(xi) * a2 - xi * a2.conj().T)) @ amps


def conjugation_residuals_dense(alpha: complex, r: float, theta: float,
                                dim: int, block: int) -> tuple[float, ...]:
    """The four residuals of the operator-identity check from dense truncated
    matrices and scipy's expm, the way the package computed them before the
    check ran on its own kernel: (displacement, bogoliubov_displacement,
    squeeze_conjugation, displacement_equality), each the 2-norm of the
    top-left block x block corner."""
    a = dense_ladder(dim)
    adag = a.conj().T
    xi = r * np.exp(1j * theta)
    mu, nu = math.cosh(r), np.exp(1j * theta) * math.sinh(r)
    b = mu * a + nu * adag
    beta = mu * alpha + nu * np.conjugate(alpha)
    d_a = expm(alpha * adag - np.conjugate(alpha) * a)
    d_b = expm(beta * b.conj().T - np.conjugate(beta) * b)
    s = expm(0.5 * (np.conjugate(xi) * (a @ a) - xi * (adag @ adag)))
    eye = np.eye(dim)

    def norm(matrix):
        return float(np.linalg.norm(matrix[:block, :block], 2))

    return (norm(d_a.conj().T @ a @ d_a - (a + alpha * eye)),
            norm(d_b.conj().T @ b @ d_b - (b + beta * eye)),
            norm(s @ a @ s.conj().T - b),
            norm(d_b - d_a))


def _generator_band(k: int, c: complex, dim: int) -> np.ndarray:
    """Band of G = c a^dag^k - c* a^k: G[m + k, m] = band[m] and
    G[m, m + k] = -conj(band[m])."""
    m = np.arange(dim - k, dtype=float)
    return complex(c) * np.prod([np.sqrt(m + i) for i in range(1, k + 1)], axis=0)


def expm_multiply_apply(amps: np.ndarray, k: int, c: complex) -> np.ndarray:
    """exp(c a^dag^k - c* a^k) @ amps by scipy's expm_multiply on a sparse band.

    The kernel the package used before it owned its Taylor loop. Its 1-norm
    estimator draws from np.random, which moves only the last digits.
    """
    band = _generator_band(k, c, amps.size)
    generator = diags([band, -band.conj()], [-k, k], format="csr")
    return expm_multiply(generator, amps)


def expm_band_taylor_reference(amps: np.ndarray, k: int, c: complex) -> np.ndarray:
    """exp(c a^dag^k - c* a^k) applied to a (dim,) vector or a (dim, n) block
    by the scaled Taylor loop the package ran before its Chebyshev kernel
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), sec. 3).

    The step count makes the 1-norm of G/steps at most 4. Each step sums the
    Taylor series of exp(G/steps) until two consecutive terms fall below u
    times the partial sum, with maxima taken over the whole block.
    """
    dim = amps.shape[0]
    band = _generator_band(k, c, dim)
    col_sums = np.zeros(dim)
    col_sums[:-k] += np.abs(band)
    col_sums[k:] += np.abs(band)
    steps = max(1, math.ceil(float(col_sums.max()) / 4.0))
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
        while True:
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


def bessel_j_reference(x: float) -> np.ndarray:
    """J_0(x), ..., J_K(x) by Miller's backward recurrence, as the package
    computed them with numpy scalars and arrays before its recurrences ran
    on Python floats; K is the first order above x whose tail
    2 sum_{i>K} |J_i(x)| is at most a quarter of the machine epsilon."""
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


def expm_band_chebyshev_reference(amps: np.ndarray, k: int, c: complex) -> np.ndarray:
    """exp(c a^dag^k - c* a^k) applied to a (dim,) vector or a (dim, n) block
    by the Chebyshev-Bessel loop the package ran before it summed its terms
    block by block: two vectors updated in place, each term weighted and
    added onto the sum as soon as it is made. The package's kernel must
    match it bit for bit."""
    dim = amps.shape[0]
    band = _generator_band(k, c, dim)
    col_sums = np.zeros(dim)
    col_sums[:-k] += np.abs(band)
    col_sums[k:] += np.abs(band)
    rho = float(col_sums.max())
    prev = amps.astype(complex)
    if rho == 0.0:
        return prev
    bessel = bessel_j_reference(rho)
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


def index_sums_reference(c: np.ndarray):
    """(<a>, <a^2>, n_bar) of an amplitude array by the index sums the package
    ran before it cached its weight tables: weights rebuilt from arange on
    every call."""
    m = np.arange(c.size - 1)
    first = complex(np.sum(np.conjugate(c[:-1]) * c[1:] * np.sqrt(m + 1.0)))
    m2 = np.arange(c.size - 2)
    second = complex(np.sum(
        np.conjugate(c[:-2]) * c[2:] * np.sqrt((m2 + 1.0) * (m2 + 2.0))))
    n_bar = float(np.sum(np.arange(c.size) * np.abs(c) ** 2))
    return first, second, n_bar


def summarize_reference(amps: np.ndarray):
    """(var_x, var_p, cov, n_bar) by the path `summarize` took before it
    stopped building a normalized copy of the state: normalize, then
    `index_sums_reference`. The norm is the root of numpy's pairwise sum
    of the squared real and imaginary parts, in memory order (BLAS would
    change its bits with the thread count)."""
    amps = np.asarray(amps, dtype=complex)
    parts = np.stack([amps.real, amps.imag], axis=-1).ravel()
    c = amps / float(np.sqrt(np.sum(parts * parts)))
    first, second, n_bar = index_sums_reference(c)
    mean_x = math.sqrt(2.0) * first.real
    mean_p = math.sqrt(2.0) * first.imag
    return (n_bar + 0.5 + second.real - mean_x**2,
            n_bar + 0.5 - second.real - mean_p**2,
            2.0 * second.imag - 2.0 * mean_x * mean_p,
            n_bar)


def free_mass_oracle_reference(amps: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i (tau / 2) p^2) applied to amps by the complex product the
    free-mass oracle ran before it split real and imaginary parts.

    The state is padded with zeros to max(4 * occupied band, dim, 64) levels,
    p^2 is built from dense ladder matrices and diagonalized by eigh, and the
    real eigenvector matrix multiplies the complex vector as a complex matrix.
    Returns the evolved amplitudes at the padded cutoff.
    """
    amps = np.asarray(amps, dtype=complex)
    occupied = np.nonzero(np.abs(amps) > 1e-13)[0]
    band = int(occupied[-1]) + 1 if occupied.size else 1
    big = max(4 * band, amps.size, 64)
    work = np.zeros(big, dtype=complex)
    work[:amps.size] = amps
    a = dense_ladder(big)
    p = (a - a.conj().T) / (1j * np.sqrt(2))
    evals, evecs = np.linalg.eigh((p @ p).real)
    phases = np.exp(-0.5j * tau * evals)
    return evecs @ (phases * (evecs.T @ work))


def _laguerre_reference(order: int, offset: float, y: np.ndarray) -> np.ndarray:
    """Generalized Laguerre L_order^(offset) by the three-term recurrence."""
    prev = np.ones_like(y)
    if order == 0:
        return prev
    curr = 1.0 + offset - y
    for i in range(1, order):
        prev, curr = curr, ((2 * i + 1 + offset - y) * curr - (i + offset) * prev) / (i + 1)
    return curr


def _radial_elements_reference(chi: np.ndarray, rho: np.ndarray, probe_dim: int):
    """Yield (j, m, R_jm(rho)), chi's support levels m outer and probe rows j
    inner, so a caller can drop a table keyed on m - j after its last level.
    Each row still meets its levels in ascending m, the per-row order of the
    overcompleteness kernel before it cached its angular factors."""
    support = np.nonzero(np.abs(chi) > 1e-13)[0]
    y = rho**2
    zero = rho == 0.0
    any_zero = bool(np.any(zero))
    log_rho = np.log(np.where(zero, 1.0, rho))
    top = max(int(support[-1]) if support.size else 0, probe_dim - 1)
    lgam = [math.lgamma(k + 1.0) for k in range(top + 1)]
    for m in support:
        for j in range(probe_dim):
            d = abs(int(m) - j)
            lo = min(int(m), j)
            mag = np.exp(0.5 * (lgam[lo] - lgam[lo + d]) + d * log_rho - 0.5 * y)
            elem = mag * _laguerre_reference(lo, float(d), y)
            if any_zero:
                elem = np.where(zero, 1.0 if d == 0 else 0.0, elem)
            yield j, int(m), elem


def _still_used(side: bool, d: int, m: int, probe_dim: int) -> bool:
    """Whether a level above m pairs with a probe row j < probe_dim at
    distance d on this side (m >= j when side is True)."""
    return d > m - probe_dim + 1 if side else d < probe_dim - 1 - m


def displaced_block_reference(chi: np.ndarray, alphas: np.ndarray,
                              probe_dim: int) -> np.ndarray:
    """<j|D(alpha)|chi> for j < probe_dim, with the angular factor
    e^{i d (pi - phi)} (m >= j) or e^{i d phi} (m < j), d = |m - j|, over the
    whole batch at once: one complex exponential per (m >= j, d) key, made
    when a pair first needs it and dropped after the last level that uses it."""
    chi = np.asarray(chi, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    phi = np.angle(alphas)
    angle_factors = {}
    out = np.zeros((probe_dim, alphas.size), dtype=complex)
    for j, m, elem in _radial_elements_reference(chi, np.abs(alphas), probe_dim):
        key = (m >= j, abs(m - j))
        if key not in angle_factors:
            angle_factors[key] = np.exp(1j * abs(m - j) * (np.pi - phi if m >= j else phi))
        out[j] += chi[m] * (elem * angle_factors[key])
        if j == probe_dim - 1:  # level m is done
            angle_factors = {key: factor for key, factor in angle_factors.items()
                             if _still_used(*key, m, probe_dim)}
    return out


def displaced_block_powers(chi: np.ndarray, alphas: np.ndarray,
                           probe_dim: int) -> np.ndarray:
    """<j|D(alpha)|chi> for j < probe_dim, with the angular factor
    (-conj u)^d (m >= j) or u^d (m < j), u = e^{i phi}, rebuilt for every
    (j, m) pair from ones by d multiplications."""
    chi = np.asarray(chi, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    unit = np.exp(1j * np.angle(alphas))
    ratios = {True: -unit.conj(), False: unit}
    ones = np.ones(alphas.size, dtype=complex)
    out = np.zeros((probe_dim, alphas.size), dtype=complex)
    for j, m, elem in _radial_elements_reference(chi, np.abs(alphas), probe_dim):
        factor = ones
        for _ in range(abs(m - j)):
            factor = factor * ratios[m >= j]
        out[j] += chi[m] * (elem * factor)
    return out


def radial_marginal_reference(chi: np.ndarray, rho: np.ndarray,
                              probe_dim: int) -> np.ndarray:
    """(1/2pi) d/d rho^2 of the probe-row masses, pair by pair."""
    out = np.zeros((probe_dim, rho.size))
    for j, m, elem in _radial_elements_reference(chi, rho, probe_dim):
        out[j] += np.abs(chi[m]) ** 2 * elem**2
    return out


def _factored_elements(chi: np.ndarray, alphas: np.ndarray, probe_dim: int,
                       ratios=None):
    """Yield (j, m, scale, L, column) per pair, chi's support levels m outer,
    with <j|D(alpha)|m> = scale * (L * column): d = |m - j|, lo = min(m, j),
    scale = sqrt(lo! d! / (lo + d)!), L = L_lo^(d)(|alpha|^2) restarted at
    order 0, and column = sqrt(e^-y y^d / d!) (y = |alpha|^2), times the
    angular factor ratios[m >= j]^d when ratios are given. The powers of each
    ratio are sequential products from ones, 1, r, r*r, ..., each formed once
    per call when a pair first needs it and dropped after the last level that
    uses it; everything else is rebuilt from scratch for every pair."""
    support = np.nonzero(np.abs(chi) > 1e-13)[0]
    rho = np.abs(alphas)
    y = rho**2
    half_y = 0.5 * y
    zero = rho == 0.0
    log_rho = np.log(np.where(zero, 1.0, rho))
    top = max(int(support[-1]) if support.size else 0, probe_dim - 1)
    lgam = [math.lgamma(k + 1.0) for k in range(top + 1)]
    # per side: the highest power formed so far and the powers still in use
    powers = {side: (0, {0: np.ones(alphas.size, dtype=complex)})
              for side in (ratios or {})}
    for m in map(int, support):
        for j in range(probe_dim):
            d = abs(m - j)
            lo = min(m, j)
            column = np.exp(d * log_rho - half_y - 0.5 * lgam[d])
            if ratios is not None:
                high, table = powers[m >= j]
                while high < d:
                    table[high + 1] = table[high] * ratios[m >= j]
                    high += 1
                powers[m >= j] = (high, table)
                column = column * table[d]
            if d:
                column[zero] = 0.0
            scale = math.exp(0.5 * (lgam[lo] + lgam[d] - lgam[lo + d]))
            yield j, m, scale, _laguerre_reference(lo, float(d), y), column
        for side, (high, table) in powers.items():  # level m is done
            powers[side] = (high, {d: power for d, power in table.items()
                                   if d == high or _still_used(side, d, m, probe_dim)})


def displaced_block_factored(chi: np.ndarray, alphas: np.ndarray,
                             probe_dim: int) -> np.ndarray:
    """<j|D(alpha)|chi> for j < probe_dim as (chi[m] scale) * (L * column)
    per pair, the angular factor (-conj u)^d (m >= j) or u^d (m < j),
    u = e^{i phi}, inside the column."""
    chi = np.asarray(chi, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    unit = np.exp(1j * np.angle(alphas))
    ratios = {True: -unit.conj(), False: unit}
    out = np.zeros((probe_dim, alphas.size), dtype=complex)
    for j, m, scale, lag, column in _factored_elements(chi, alphas, probe_dim, ratios):
        out[j] += (chi[m] * scale) * (lag * column)
    return out


def radial_marginal_factored(chi: np.ndarray, rho: np.ndarray,
                             probe_dim: int) -> np.ndarray:
    """(1/2pi) d/d rho^2 of the probe-row masses from the factored elements."""
    out = np.zeros((probe_dim, rho.size))
    for j, m, scale, lag, column in _factored_elements(chi, rho, probe_dim):
        out[j] += np.abs(chi[m] * scale) ** 2 * (lag * column) ** 2
    return out


def _normalized_radial(chi: np.ndarray, rho: np.ndarray, probe_dim: int):
    """chi's support levels and, for a pair (j, m), R_lo^(d)(rho^2) rebuilt
    from scratch: with d = |m - j| and lo = min(m, j), the normalized radial
    function sqrt(lo! d! / (lo + d)!) L_lo^(d)(y) sqrt(e^-y y^d / d!),
    y = rho^2, by the normalized three-term recurrence restarted at order 0
    from the log-domain R_0 = sqrt(e^-y y^d / d!)."""
    support = [int(m) for m in np.nonzero(np.abs(chi) > 1e-13)[0]]
    y = rho**2
    half_y = 0.5 * y
    zero = rho == 0.0
    log_rho = np.log(np.where(zero, 1.0, rho))
    top = max(support[-1] if support else 0, probe_dim - 1)
    lgam = [math.lgamma(k + 1.0) for k in range(top + 1)]

    def radial(j: int, m: int) -> np.ndarray:
        d = abs(m - j)
        prev, curr = None, np.exp(d * log_rho - half_y - 0.5 * lgam[d])
        if d:
            curr[zero] = 0.0
        for k in range(min(m, j)):
            if k == 0:
                nxt = (1 + d - y) * curr / math.sqrt(1 + d)
            else:
                nxt = (((2 * k + 1 + d - y) * curr - math.sqrt(k * (k + d)) * prev)
                       / math.sqrt((k + 1) * (k + 1 + d)))
            prev, curr = curr, nxt
        return curr

    return support, radial


def displaced_block_normalized(chi: np.ndarray, alphas: np.ndarray,
                               probe_dim: int) -> np.ndarray:
    """<j|D(alpha)|chi> for j < probe_dim as u^j sum_m s R chi_m conj(u)^m,
    u = e^{i phi}, s = (-1)^(m - j) for m >= j and 1 for m < j, per pair in
    real arithmetic: each row sums s R Re(chi_m conj(u)^m) and
    s R Im(chi_m conj(u)^m) in ascending m on real planes, then multiplies
    the complex sum by u^j once. The powers of conj(u) and of u are
    sequential products from ones, conj(u)'s restarted for every row."""
    chi = np.asarray(chi, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    support, radial = _normalized_radial(chi, np.abs(alphas), probe_dim)
    unit = np.exp(1j * np.angle(alphas))
    unit_conj = unit.conj()
    out = np.zeros((probe_dim, alphas.size), dtype=complex)
    row_phase = np.ones_like(unit)
    for j in range(probe_dim):
        acc_re = np.zeros(alphas.size)
        acc_im = np.zeros(alphas.size)
        power, level = np.ones_like(unit), 0
        for m in support:
            while level < m:
                power = power * unit_conj
                level += 1
            weight = chi[m] * power
            r = radial(j, m)
            if m >= j and (m - j) % 2:
                acc_re = acc_re - r * weight.real
                acc_im = acc_im - r * weight.imag
            else:
                acc_re = acc_re + r * weight.real
                acc_im = acc_im + r * weight.imag
        out[j] += (acc_re + 1j * acc_im) * row_phase
        row_phase = row_phase * unit
    return out


def grid_gram_points(chi: np.ndarray, radius: float, probe_dim: int,
                     budget: int) -> np.ndarray:
    """The retired point grid of the overcompleteness grid method: n_rad
    Gauss-Legendre radii on [0, radius] times n_ang = 2 (top + probe_dim) + 9
    uniform angles, each point weighted (1/pi) (2 pi / n_ang) rho d rho, and
    the gram summed over the amplitudes of all n_rad n_ang points."""
    chi = np.asarray(chi, dtype=complex)
    top = int(np.nonzero(np.abs(chi) > 1e-13)[0][-1])
    n_ang = 2 * (top + probe_dim) + 9
    n_rad = max(64, min(512, budget // n_ang))
    nodes, weights = np.polynomial.legendre.leggauss(n_rad)
    rho = 0.5 * radius * (nodes + 1.0)
    w_rad = 0.5 * radius * weights * rho
    ang = 2.0 * np.pi * np.arange(n_ang) / n_ang
    alphas = (rho[:, None] * np.exp(1j * ang)[None, :]).ravel()
    w = np.repeat(w_rad * (2.0 / n_ang), n_ang)
    block = displaced_block_normalized(chi, alphas, probe_dim)
    return (block * w) @ block.conj().T


def radial_marginal_normalized(chi: np.ndarray, rho: np.ndarray,
                               probe_dim: int) -> np.ndarray:
    """(1/2pi) d/d rho^2 of the probe-row masses as sum_m |chi_m|^2 R^2,
    R rebuilt for every pair."""
    support, radial = _normalized_radial(chi, rho, probe_dim)
    out = np.zeros((probe_dim, rho.size))
    for j in range(probe_dim):
        for m in support:
            out[j] += np.abs(chi[m]) ** 2 * radial(j, m) ** 2
    return out


# np.trapz was renamed np.trapezoid in numpy 2.0.
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def position_grid() -> np.ndarray:
    """2,048 uniform points on [-12, 12] for the Hermite-function oracles.

    Wide enough for the moderate displacements and squeezings the tests use.
    """
    return np.linspace(-12.0, 12.0, 2048)


def hermite_basis(dim: int, grid: np.ndarray) -> np.ndarray:
    """Normalized Hermite-Gaussian functions <x|m>, shape (dim, len(grid)).

    Uses the stable three-term recurrence on the normalized functions
    phi_m = sqrt(2/m) x phi_{m-1} - sqrt((m-1)/m) phi_{m-2}, which avoids
    factorial overflow entirely.
    """
    grid = np.asarray(grid, dtype=float)
    basis = np.zeros((dim, grid.size))
    basis[0] = np.pi ** -0.25 * np.exp(-0.5 * grid**2)
    if dim > 1:
        basis[1] = np.sqrt(2.0) * grid * basis[0]
    for m in range(2, dim):
        basis[m] = (np.sqrt(2.0 / m) * grid * basis[m - 1]
                    - np.sqrt((m - 1) / m) * basis[m - 2])
    return basis


def wavefunction(amps: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Position wavefunction <x|psi> of the amplitude vector on the grid."""
    return np.asarray(amps) @ hermite_basis(len(amps), grid)


def grid_extremal_amps(lam: complex, mean_x: float, mean_p: float,
                       dim: int) -> np.ndarray:
    """Extremal Gaussian sampled on position_grid(), projected by quadrature.

    The Gaussian (Re lam / pi)^{1/4} exp(i mean_p x - lam (x - mean_x)^2 / 2)
    is annihilated by (Delta p - i lam Delta x); its overlaps with the
    Hermite functions come from the trapezoid rule, and the result is
    normalized.
    """
    lam = complex(lam)
    grid = position_grid()
    values = (lam.real / np.pi) ** 0.25 * np.exp(
        1j * mean_p * grid - 0.5 * lam * (grid - mean_x) ** 2)
    amps = trapezoid(hermite_basis(dim, grid) * values[None, :], grid, axis=1)
    return amps / np.linalg.norm(amps)


_COMPLEX_RE = re.compile(
    r"""^\s*
    (?P<real>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?
    (?P<imag>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)?
    (?P<unit>i)?
    \s*$""",
    re.VERBOSE,
)


def parse_complex_reference(text: str) -> complex:
    """The CLI's retired 'a+bi' parser: a grammar of optional real and signed
    imaginary parts, each converted with float()."""
    s = text.strip().replace(" ", "")
    match = _COMPLEX_RE.match(s)
    if not match or not s:
        raise ValueError(f"invalid complex literal {text!r}")
    real, imag, unit = match.group("real"), match.group("imag"), match.group("unit")
    if unit is None:
        if imag is not None or real is None:
            raise ValueError(f"invalid complex literal {text!r}")
        return complex(float(real), 0.0)
    if imag is None:
        # forms like '2i', 'i', '-1.5i': the sole number is the imaginary part
        if real is None:
            return complex(0.0, 1.0)
        if real in ("+", "-"):
            return complex(0.0, float(real + "1"))
        return complex(0.0, float(real))
    if imag in ("+", "-"):
        imag += "1"
    return complex(float(real) if real is not None else 0.0, float(imag))


# ---------------------------------------------------------------------------
# Acceptance reporting: one PASS/FAIL line per criterion in the terminal
# summary, keyed off test names in test_acceptance.py.

_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    path, *_, name = report.nodeid.split("::")
    if path.endswith("test_acceptance.py") and report.when == "call":
        _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name].upper()
        terminalreporter.write_line(f"{outcome:6s} {name}")
