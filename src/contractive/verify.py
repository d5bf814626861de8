"""Structural verification: operator identities, extremality audits, and the
resolution-of-identity check for displaced seed families.

The overcompleteness integrator never builds displacement matrices. It uses
the exact closed-form matrix elements (Cahill & Glauber, Phys. Rev. 177,
1857 (1969))

    <j|D(alpha)|m> = sqrt(j!/m!) (-conj(alpha))^(m-j) e^(-|alpha|^2/2)
                     L_j^(m-j)(|alpha|^2)          (m >= j)

(and the mirrored expression for m < j), evaluated with the three-term
Laguerre recurrence, so probe amplitudes carry no truncation error and a
million samples stay cheap. The ladder recurrence
sqrt(j+1)<j+1|D|m> = alpha<j|D|m> + sqrt(m)<j|D|m-1> is not used: it is
unstable upward (errors above 1e5 at probe 32, dim 128, |alpha| = radius_cap/2).

Writing u = e^{i phi} for alpha = |alpha| u, the phase of <j|D|m> is
(-conj u)^(m-j) for m >= j and u^(j-m) for m < j, both s u^j conj(u)^m with
s = (-1)^(m-j) for m >= j and s = 1 for m < j. So

    <j|D(alpha)|chi> = u^j sum_m s R chi_m conj(u)^m,

with R = R_lo^(d)(y), d = |m - j|, lo = min(m, j), y = |alpha|^2, the
normalized radial function sqrt(lo! d! / (lo + d)!) L_lo^(d)(y)
sqrt(e^-y y^d / d!). The key (m >= j, d) names a chain of these, started
from R_0 = sqrt(e^-y y^d / d!) (the root of a Poisson weight, made in the
log domain, so it stays finite where e^(-y/2) underflows) and advanced by
R_{k+1} = ((2k + 1 + d - y) R_k - sqrt(k (k + d)) R_{k-1})
/ sqrt((k + 1) (k + 1 + d)), order by order as the levels rise, with the
same steps as one restarted at order 0.

The element loop runs chi's support levels m outer and probe rows j inner,
so each row still sums its terms in ascending m. `_displace_columns` works
on one column pass of at most _SUBCHUNK samples. It takes the unit phasor u
of its samples once (phase 1 at alpha = 0); each level forms
chi_m conj(u)^m once, as contiguous real and imaginary planes, with the
powers made by one multiplication per level; each element adds s R times
each plane into its row's real and imaginary accumulators, so an element
costs a recurrence step and four real array operations and touches no
complex data. Each row is finished once, as its complex sum times u^j.
`_radial_marginal` reads the same chains: its rows are sum_m |chi_m|^2 R^2.

The Monte Carlo gram is streamed. `_monte_carlo_gram` draws rho and the
angle _DRAW_CHUNK samples at a time, then works one _SUBCHUNK pass at a
time: alpha, the pass's (probe_dim, n) block, and its contribution
(R^2 / budget) block conj(block)^T, summed by an einsum that calls no
BLAS. No block of a whole draw chunk exists, and the gram's bits do not
depend on the BLAS thread count. Every real and complex plane of a pass,
the block and its conjugate included, comes from one `_Workspace`
allocated once per call and carved at 64-byte offsets, so no plane's
alignment depends on where the heap starts. A radial chain holds two planes
from its key's first element until `_schedule`'s `last` map retires the
key, then hands them back. So the real planes number five, two per chain at
the schedule's high-water mark, four, and two per probe row: 33 for
criterion 8's family at probe_dim 6. The conjugate block reuses the first
2 probe_dim of them, which are all free once `_displace_columns` returns.
With 20k-sample passes at probe_dim 6 the workspace takes 9.1 MB, and a
200k draw chunk adds 3.2 MB at any budget.

The kernel must stay bit-identical to the per-pair oracle of this
arithmetic in tests/conftest.py (`displaced_block_normalized`, which
restarts every chain at order 0 and rebuilds every power from ones), and
`_radial_marginal` to `radial_marginal_normalized`; the tests compare them
with np.array_equal, so any change of operand order, of a recurrence or of
the summation order shows. The retired kernels there bound the new
arithmetic's rounding at 1e-13: the complex scale * (L * column) element
with a column per offset (`displaced_block_factored`,
`radial_marginal_factored`), and the ones with the whole radial prefactor
in one exponential per element (`displaced_block_powers`,
`displaced_block_reference`, `radial_marginal_reference`).

The grid method never forms a point. Its rule is n_rad Gauss-Legendre radii
times n_ang > 2 (top + probe_dim) uniform angles, and over those angles the
mean of u^((j - m) - (k - m')) is 1 when m - j = m' - k and 0 otherwise,
so every cross term between offsets cancels and the angular sum is done in
closed form: `_grid_gram` evaluates the radial elements once per radius
into A[j, l, r] = s R chi_m (l = m - j) and sums
gram[j, k] = 2 sum_r w_r sum_l A[j, l, r] conj(A[k, l, r]) with an einsum,
which calls no BLAS. It is the point grid's rule evaluated exactly; the
retired point grid stays in tests/conftest.py (`grid_gram_points`) and
bounds it at 1e-13.

chi = S(xi)|phi> and its disk radius depend only on the seed, (r, theta)
and probe_dim, so `_probe_family` keeps the last eight families, keyed on
the bytes of the seed's amplitudes and of (r, theta) (0.0 and -0.0 compare
equal but are different inputs).

`check_conjugation_identities` checks the operator identities on the kernel
that builds every state, `states._expm_band`, applied to the basis columns of
the truncation-safe block at once: a and the truncated a^dag are index
shifts, and D^dag = D(-alpha), S^dag = S(-xi) hold exactly at any cutoff.
The kernel is the unchecked core, because the cutoff's effect on those
columns is the residual the check reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    OutOfRangeError,
    require_complex,
    require_int,
    require_real,
)
from .fock import (
    FockVector,
    index_sums,
    index_weights,
    random_state,
    support,
)
from .gcs import lattice_phi, require_seed
from .moments import lambda_from_moments, summarize
from .states import SqueezeParams, _auto_build, _expm_band, make_scs, squeeze
from .dynamics import PhysicalScales, evolve_free_mass, evolve_oscillator

# Identity-resolution deviation target for the default Monte Carlo budget of
# one million samples.
OVERCOMPLETENESS_TARGET = 5e-3
OVERCOMPLETENESS_BUDGET = 1_000_000

# Residual ceiling for the operator conjugation identities at dim >= 128.
IDENTITY_TOL = 1e-8

# Band-violation slack for rigorous-bound sweeps.
BAND_SLACK = 1e-9

# Samples per pass of the Monte Carlo gram. Columns are independent, so the
# split changes no amplitude bits, and it sizes the workspace (wider passes
# raised peak memory and ran no faster). The gram is summed pass by pass, so
# the pass width also sets its summation order: another width moves the
# deviation's trailing digits.
_SUBCHUNK = 20_000

# Monte Carlo samples drawn at once, all radii and then all angles; the
# draws, and so every sample, depend on it.
_DRAW_CHUNK = 200_000

# Byte alignment of every workspace plane.
_ALIGN = 64


@dataclass(frozen=True)
class ConjugationReport:
    """Matrix-norm residuals of the displacement/squeeze algebra, measured on
    the truncation-safe block."""

    displacement: float
    bogoliubov_displacement: float
    squeeze_conjugation: float
    displacement_equality: float
    dim: int
    block: int

    def max_residual(self) -> float:
        return max(self.displacement, self.bogoliubov_displacement,
                   self.squeeze_conjugation, self.displacement_equality)


@dataclass(frozen=True)
class ExtremalAudit:
    """Fit of the saturating-family parameter and its defect on a state."""

    lambda_fit: complex
    residual: float
    cov_sign_consistent: bool


@dataclass(frozen=True)
class OvercompletenessReport:
    probe_dim: int
    max_abs_deviation: float
    method: str
    budget: int
    seed: int | None
    radius: float
    grid_spec: str | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _block_norm(matrix: np.ndarray, block: int) -> float:
    return float(np.linalg.norm(matrix[:block, :block], 2))


def _ladder(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a v, a^dag v) by index shift, for a (dim,) vector or (dim, n) columns.

    a^dag drops the top level exactly as the truncated dense matrix does.
    """
    sqrt_m = index_weights(v.shape[0])[1].reshape((-1,) + (1,) * (v.ndim - 1))
    lowered = np.zeros_like(v)
    raised = np.zeros_like(v)
    lowered[:-1] = sqrt_m * v[1:]
    raised[1:] = sqrt_m * v[:-1]
    return lowered, raised


def safe_block(dim: int, r: float) -> int:
    """Largest top-left block unaffected by the cutoff under conjugations.

    Squeezing spreads number-state support multiplicatively by e^{2r}, so
    products like S a S^dag are only trustworthy on a block whose image
    stays well inside the cutoff.
    """
    dim = require_int(dim, "dim", InvalidDimensionError)
    r = require_real(r, "r", InvalidParameterError)
    try:
        return min(dim // 2, int(dim / (2.0 * math.exp(2.0 * r))))
    except OverflowError:  # so wide a spread leaves no block
        return 0


def check_conjugation_identities(alpha: complex, params: SqueezeParams,
                                 dim: int = 128) -> ConjugationReport:
    """Residuals of the basic operator identities at a finite cutoff.

    Checks, on the truncation-safe top-left block of `safe_block(dim, r)`:
      D(alpha)^dag a D(alpha) = a + alpha
      D(beta,b)^dag b D(beta,b) = b + beta   with b = mu a + nu a^dag,
                                             beta = mu alpha + nu conj(alpha)
      S(xi) a S(xi)^dag = b
      D(beta, b) = D(alpha, a)
    All residuals shrink rapidly as dim grows for fixed arguments.
    """
    alpha = require_complex(alpha, "displacement alpha", InvalidParameterError)
    dim = require_int(dim, "dim", InvalidDimensionError, minimum=32)
    block = safe_block(dim, params.r)
    if block < 2:
        raise InvalidDimensionError(
            f"no truncation-safe block at dim {dim} for r = {params.r}; "
            "increase dim"
        )

    mu, nu = params.mu, params.nu
    beta = mu * alpha + nu * np.conjugate(alpha)

    def b_of(v):
        lowered, raised = _ladder(v)
        return mu * lowered + nu * raised

    # beta b^dag - beta* b = c a^dag - c* a with c = beta mu - beta* nu, the
    # same truncated matrix, so D(beta, b) is the plain displacement band.
    c = beta * mu - np.conjugate(beta) * nu
    cols = np.eye(dim, block, dtype=complex)
    a_cols, _ = _ladder(cols)
    b_cols = b_of(cols)
    d_a = _expm_band(cols, 1, alpha)
    d_b = _expm_band(cols, 1, c)
    s_dag = _expm_band(cols, 2, 0.5 * params.xi)
    conj_a = _expm_band(_ladder(d_a)[0], 1, -alpha)             # D^dag a D
    conj_b = _expm_band(b_of(d_b), 1, -c)                       # D_b^dag b D_b
    sq_a = _expm_band(_ladder(s_dag)[0], 2, -0.5 * params.xi)  # S a S^dag

    r_disp = _block_norm(conj_a - (a_cols + alpha * cols), block)
    r_bog = _block_norm(conj_b - (b_cols + beta * cols), block)
    r_sq = _block_norm(sq_a - b_cols, block)
    r_eq = _block_norm(d_b - d_a, block)
    return ConjugationReport(
        displacement=r_disp,
        bogoliubov_displacement=r_bog,
        squeeze_conjugation=r_sq,
        displacement_equality=r_eq,
        dim=dim,
        block=block,
    )


def audit_extremal(state: FockVector) -> ExtremalAudit:
    """Fit lambda from the state's moments and measure the eigen-defect.

    residual = ||(Delta p - i lambda Delta x)|psi>|| / |lambda|. States that
    saturate the uncertainty relation have residual at rounding level; any
    non-Gaussian state scores order one. cov_sign_consistent checks
    cov = -sgn(Im lambda) sqrt(4 var_x var_p - 1) within 1e-7.
    """
    summary = summarize(state)
    lam = lambda_from_moments(summary)
    psi = state.normalized().amps
    mean_a, _, _ = index_sums(psi)
    a_psi, adag_psi = _ladder(psi)
    # p - i lam x = -i ((1 + lam) a + (lam - 1) a^dag) / sqrt(2), and
    # <p> - i lam <x> = sqrt(2) (Im<a> - i lam Re<a>).
    shifted = -1j * ((1.0 + lam) * a_psi + (lam - 1.0) * adag_psi) / math.sqrt(2.0)
    mean = math.sqrt(2.0) * (mean_a.imag - 1j * lam * mean_a.real)
    residual = float(np.linalg.norm(shifted - mean * psi)) / abs(lam)
    root = math.sqrt(max(4.0 * summary.var_x * summary.var_p - 1.0, 0.0))
    expected = -math.copysign(root, lam.imag) if lam.imag != 0 else 0.0
    consistent = abs(summary.cov - expected) < 1e-7 * max(1.0, abs(summary.cov))
    return ExtremalAudit(
        lambda_fit=lam, residual=residual, cov_sign_consistent=consistent
    )


def _schedule(chi: np.ndarray, probe_dim: int):
    """chi's support levels m, ascending; for each element key
    (m >= j, |m - j|) the last level that reads it; and the most keys live
    at once, the high-water mark of the radial chains.

    A key names a radial chain: for m >= j the element is order j of offset
    m - j, for m < j order m of offset j - m, so each level reads a key at
    most once and at a higher order. A chain lives from its key's first
    element to its last, in the order `_radial_elements` visits them.
    """
    levels = [int(m) for m in support(chi)]
    last: dict[tuple[bool, int], int] = {}
    for m in levels:
        for j in range(probe_dim):
            last[(m >= j, abs(m - j))] = m
    live: set[tuple[bool, int]] = set()
    peak = 0
    for m in levels:
        for j in range(probe_dim):
            key = (m >= j, abs(m - j))
            live.add(key)
            peak = max(peak, len(live))
            if last[key] == m:
                live.remove(key)
    return levels, last, peak


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


class _Workspace:
    """Real and complex planes for passes of up to `width` samples, carved at
    64-byte offsets from one buffer allocated once, and `rows`, a
    (count, width) complex block beside them.

    `start(n)` begins a pass of n samples: `real()` and `complex()` then
    hand out n-entry planes, and `give` takes one back for reuse, so a pass
    allocates no plane of its own. Every plane of the previous pass is free
    again after `start`.
    """

    def __init__(self, width: int, reals: int, complexes: int, rows: int = 0):
        real_stride = _aligned(8 * width)
        complex_stride = _aligned(16 * width)
        sizes = (reals * real_stride, (complexes + rows) * complex_stride)
        raw = np.empty(sum(sizes) + _ALIGN, dtype=np.uint8)
        raw = raw[-raw.ctypes.data % _ALIGN:][:sum(sizes)]
        self._reals = raw[:sizes[0]].view(float).reshape(reals, real_stride // 8)
        planes = raw[sizes[0]:].view(complex).reshape(complexes + rows,
                                                      complex_stride // 16)
        self._complexes = planes[:complexes]
        self.rows = planes[complexes:, :width]
        self._free_reals: list[np.ndarray] = []
        self._free_complexes: list[np.ndarray] = []

    def start(self, n: int) -> None:
        self._free_reals = list(self._reals[::-1, :n])
        self._free_complexes = list(self._complexes[::-1, :n])

    def real(self) -> np.ndarray:
        return self._free_reals.pop()

    def complex(self) -> np.ndarray:
        return self._free_complexes.pop()

    def give(self, plane: np.ndarray) -> None:
        free = self._free_complexes if plane.dtype == complex else self._free_reals
        free.append(plane)


def _radial_planes(schedule) -> int:
    """Real planes `_radial_elements` holds at once: y, y / 2, the rho = 0
    mask, log rho and the step scratch, and two for each live chain."""
    return 5 + 2 * schedule[2]


def _column_planes(probe_dim: int, schedule) -> int:
    """Real planes `_displace_columns` holds at once: rho, the term, the
    weight's two planes and two accumulators per probe row, beside the
    radial planes."""
    return _radial_planes(schedule) + 4 + 2 * probe_dim


class _RadialChain:
    """Normalized radial function of offset d, advanced order by order:
    R_k = sqrt(k! d! / (k + d)!) L_k^(d)(y) sqrt(e^-y y^d / d!).

    Each value equals, bit for bit, what the recurrence restarted at order 0
    gives: the steps and their operand order are the same. It works in two
    planes, the start value and a spare, and writes each step over the
    older one.
    """

    __slots__ = ("offset", "y", "order", "prev", "curr")

    def __init__(self, offset: int, y: np.ndarray, start: np.ndarray,
                 spare: np.ndarray):
        self.offset = offset
        self.y = y
        self.order = 0
        self.prev = spare
        self.curr = start

    def at(self, order: int, scratch: np.ndarray) -> np.ndarray:
        """The value at order (no lower than the last one read)."""
        d, y = self.offset, self.y
        while self.order < order:
            k = self.order
            if k == 0:
                # (1 + d - y) R_0 / sqrt(1 + d)
                nxt = np.subtract(1 + d, y, out=self.prev)
                np.multiply(nxt, self.curr, out=nxt)
                np.divide(nxt, math.sqrt(1 + d), out=nxt)
                self.prev, self.curr = self.curr, nxt
            else:
                # ((2k + 1 + d - y) R_k - sqrt(k (k + d)) R_{k-1})
                #   / sqrt((k + 1) (k + 1 + d)), written over R_{k-1}
                prev = self.prev
                np.subtract(2 * k + 1 + d, y, out=scratch)
                np.multiply(scratch, self.curr, out=scratch)
                np.multiply(math.sqrt(k * (k + d)), prev, out=prev)
                np.subtract(scratch, prev, out=prev)
                np.divide(prev, math.sqrt((k + 1) * (k + 1 + d)), out=prev)
                self.prev, self.curr = self.curr, prev
            self.order += 1
        return self.curr


def _radial_elements(rho: np.ndarray, probe_dim: int, schedule,
                     space: _Workspace):
    """Yield (j, m, radial) for chi's support levels m, ascending, and within
    each level the probe rows j < probe_dim.

    radial is R_lo^(d)(rho^2), d = |m - j|, lo = min(m, j), the real factor
    of <j|D(alpha)|m> in the module docstring. Every row j still receives
    its terms in ascending m. Each plane comes from space, started for
    rho.size samples with `_radial_planes(schedule)` real planes free; a
    chain's two go back to it after its key's last level, so the array is
    overwritten by a later element.
    """
    support, last, _ = schedule
    y = np.square(rho, out=space.real())
    half_y = np.multiply(0.5, y, out=space.real())
    zero = np.equal(rho, 0.0, out=space.real().view(bool)[:rho.size])
    any_zero = bool(np.any(zero))
    # log rho is only consumed where rho > 0: at rho = 0 the chains of
    # offset 0 start at 1 and the others are set to 0, so D(0) = I.
    log_rho = space.real()
    np.copyto(log_rho, rho)
    np.copyto(log_rho, 1.0, where=zero)
    np.log(log_rho, out=log_rho)
    top = max(support[-1] if support else 0, probe_dim - 1)
    lgam = [math.lgamma(k + 1.0) for k in range(top + 1)]
    chains: dict[tuple[bool, int], _RadialChain] = {}
    scratch = space.real()
    for m in support:
        for j in range(probe_dim):
            d = abs(m - j)
            key = (m >= j, d)
            chain = chains.get(key)
            if chain is None:
                # R_0 = exp((d log rho - y / 2) - lgam[d] / 2), the root of
                # a Poisson weight made in the log domain
                start = np.multiply(d, log_rho, out=space.real())
                np.subtract(start, half_y, out=start)
                np.subtract(start, 0.5 * lgam[d], out=start)
                np.exp(start, out=start)
                if d and any_zero:
                    np.copyto(start, 0.0, where=zero)
                chain = chains[key] = _RadialChain(d, y, start, space.real())
            yield j, m, chain.at(min(m, j), scratch)
            if last[key] == m:
                del chains[key]
                space.give(chain.prev)
                space.give(chain.curr)


def _displace_columns(chi: np.ndarray, alphas: np.ndarray, out: np.ndarray,
                      schedule, space: _Workspace) -> None:
    """Add <j|D(alpha)|chi> into out, shape (probe_dim, len(alphas)).

    Every plane comes from space, started for len(alphas) samples with
    `_column_planes` real and five complex planes free. No complex product
    is written over one of its operands: numpy rounds an in-place complex
    multiply of one element differently from the same multiply into a fresh
    array, which the oracle tests would see.
    """
    probe_dim = out.shape[0]
    weight = space.complex()
    # u = e^{i phi}, with phase 1 at alpha = 0; np.angle is this arctan2
    phase = np.arctan2(alphas.imag, alphas.real, out=space.real())
    unit = np.exp(np.multiply(1j, phase, out=weight), out=space.complex())
    space.give(phase)
    unit_conj = np.conjugate(unit, out=space.complex())
    rho = np.abs(alphas, out=space.real())
    # real and imaginary planes of each row's sum of s R chi_m conj(u)^m
    acc_re = [space.real() for _ in range(probe_dim)]
    acc_im = [space.real() for _ in range(probe_dim)]
    for plane in acc_re + acc_im:
        plane.fill(0.0)
    term = space.real()
    weight_re = space.real()
    weight_im = space.real()
    power, spare = space.complex(), space.complex()
    power.fill(1.0)
    level = 0
    for j, m, radial in _radial_elements(rho, probe_dim, schedule, space):
        if j == 0:
            # a new level: chi_m conj(u)^m, the powers sequential products
            # from ones
            while level < m:
                power, spare = np.multiply(power, unit_conj, out=spare), power
                level += 1
            np.multiply(chi[m], power, out=weight)
            np.copyto(weight_re, weight.real)
            np.copyto(weight_im, weight.imag)
        add = np.subtract if m >= j and (m - j) % 2 else np.add
        np.multiply(radial, weight_re, out=term)
        add(acc_re[j], term, out=acc_re[j])
        np.multiply(radial, weight_im, out=term)
        add(acc_im[j], term, out=acc_im[j])
    # each row's complex sum times u^j, made in the planes of the weight
    # and of conj(u)
    power.fill(1.0)
    row, product = weight, unit_conj
    for j in range(probe_dim):
        np.multiply(1j, acc_im[j], out=row)
        np.add(acc_re[j], row, out=row)
        np.add(out[j], np.multiply(row, power, out=product), out=out[j])
        power, spare = np.multiply(power, unit, out=spare), power


def _seed_to_chi(phi: FockVector, params: SqueezeParams, dim: int) -> FockVector:
    return squeeze(phi.normalized().padded(dim), params)


def radius_cap(probe_dim: int, n_bar: float, r: float) -> float:
    """Conservative disk cutoff; excluded probe mass beyond it is negligible
    for any seed this toolkit handles."""
    return math.sqrt(2.0 * (probe_dim + n_bar)) + 4.0 * max(math.exp(r), 1.0)


def _radial_marginal(chi: np.ndarray, rho: np.ndarray, probe_dim: int) -> np.ndarray:
    """(1/2pi) d/d rho^2 of the probe-row masses: T[j, i] such that
    integral 2 rho T_j(rho) d rho over [0, inf) equals 1 for each j."""
    out = np.zeros((probe_dim, rho.size))
    schedule = _schedule(chi, probe_dim)
    for j, m, radial in _radial_elements(rho, probe_dim, schedule,
                                         _radial_space(rho.size, schedule)):
        out[j] += np.abs(chi[m]) ** 2 * radial**2
    return out


def _radial_space(n: int, schedule) -> _Workspace:
    """A workspace started for one `_radial_elements` pass over n radii."""
    space = _Workspace(n, _radial_planes(schedule), 0)
    space.start(n)
    return space


def choose_radius(chi: np.ndarray, probe_dim: int,
                  mass_budget: float, cap: float) -> float:
    """Smallest disk radius whose excluded probe-block mass is below budget.

    Keeping the disk tight matters: the Monte Carlo variance scales with the
    disk area, so the cap radius (always mass-safe) would waste most of the
    sample budget on regions where the integrand vanishes.
    """
    rho = np.linspace(0.0, cap, 2001)
    integrand = 2.0 * rho * _radial_marginal(chi, rho, probe_dim)
    steps = 0.5 * (integrand[:, 1:] + integrand[:, :-1]) * np.diff(rho)
    captured = np.concatenate(
        [np.zeros((probe_dim, 1)), np.cumsum(steps, axis=1)], axis=1
    )
    excluded = 1.0 - np.min(captured, axis=0)
    good = np.nonzero(excluded < mass_budget)[0]
    if good.size == 0:
        return cap
    return float(rho[good[0]])


@functools.lru_cache(maxsize=8)
def _probe_family(seed: bytes, squeeze_params: bytes,
                  probe_dim: int) -> tuple[FockVector, float]:
    """(chi, radius) for a seed's complex amplitudes and (r, theta), each
    given as its float64 bytes: 0.0 and -0.0 compare equal but are different
    inputs, and so are different keys.

    chi = S(xi)|phi> at the first cutoff from max(64, 4 probe_dim,
    2 phi.dim) on, doubling as the builders do, at which it resolves. The
    radius is the tightest disk whose excluded probe-block mass stays below
    a tenth of the deviation target; the closed formula is the safety cap.
    """
    r, theta = np.frombuffer(squeeze_params).tolist()
    phi = FockVector(np.frombuffer(seed, dtype=complex))
    params = SqueezeParams(r=r, theta=theta)
    try:
        chi = _auto_build(lambda dim: _seed_to_chi(phi, params, dim),
                          max(64, 4 * probe_dim, 2 * phi.dim), r, 0j)
    except OutOfRangeError:
        raise OutOfRangeError(f"no automatic cutoff holds the probe family at "
                              f"r = {r}, probe_dim = {probe_dim}; lower r") from None
    cap = radius_cap(probe_dim, index_sums(chi.amps)[2], r)
    return chi, choose_radius(chi.amps, probe_dim, 0.1 * OVERCOMPLETENESS_TARGET, cap)


@functools.lru_cache(maxsize=8)
def _legendre(n_rad: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n_rad)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _monte_carlo_gram(chi: np.ndarray, radius: float, probe_dim: int,
                      budget: int, seed: int) -> np.ndarray:
    """The probe block of (1/pi) integral d^2alpha |psi_alpha><psi_alpha| as
    (R^2 / budget) sum_n block[:, n] conj(block[:, n])^T over alpha_n uniform
    on the disk of radius R, summed one _SUBCHUNK pass at a time (see the
    module docstring)."""
    rng = np.random.default_rng(seed)
    schedule = _schedule(chi, probe_dim)
    # alpha and the five complex planes of _displace_columns, then the
    # pass's block as probe_dim rows; its conjugate takes the first
    # 2 probe_dim real planes, all free once _displace_columns returns
    space = _Workspace(min(_SUBCHUNK, budget), _column_planes(probe_dim, schedule),
                       6, probe_dim)
    block = space.rows
    block_conj = space._reals[:2 * probe_dim].reshape(probe_dim, -1).view(complex)
    gram = np.zeros((probe_dim, probe_dim), dtype=complex)
    remaining = budget
    while remaining > 0:
        size = min(_DRAW_CHUNK, remaining)
        remaining -= size
        # rho = R sqrt(U) and angle = 2 pi U', made in place
        rho = rng.random(size)
        np.multiply(radius, np.sqrt(rho, out=rho), out=rho)
        ang = rng.random(size)
        np.multiply(2.0 * np.pi, ang, out=ang)
        for start in range(0, size, _SUBCHUNK):
            cols = slice(start, start + _SUBCHUNK)
            n = rho[cols].size
            space.start(n)
            # alpha = rho e^{i angle}
            alphas, phasor = space.complex(), space.complex()
            np.exp(np.multiply(1j, ang[cols], out=alphas), out=phasor)
            np.multiply(rho[cols], phasor, out=alphas)
            space.give(phasor)
            out = block[:, :n]
            out.fill(0.0)
            _displace_columns(chi, alphas, out, schedule, space)
            # einsum without optimize calls no BLAS, so the sum's bits do not
            # depend on the thread count
            out_conj = np.conjugate(out, out=block_conj[:, :n])
            gram += (radius**2 / budget) * np.einsum("jn,kn->jk", out, out_conj)
    return gram


def _grid_gram(chi: np.ndarray, radius: float, probe_dim: int, budget: int):
    """(gram, n_rad, n_ang) of the disk grid, n_rad Gauss-Legendre radii
    times n_ang uniform angles, with the angular sum in closed form (see the
    module docstring): each point's weight (1/pi) (2 pi / n_ang) rho d rho
    summed over the angles leaves 2 w_r, w_r = rho d rho."""
    schedule = _schedule(chi, probe_dim)
    top = schedule[0][-1]
    n_ang = 2 * (top + probe_dim) + 9
    n_rad = max(64, min(512, budget // n_ang))
    nodes, weights = _legendre(n_rad)
    rho = 0.5 * radius * (nodes + 1.0)
    w_rad = 0.5 * radius * weights * rho          # rho d rho
    amps = np.zeros((probe_dim, top + probe_dim, n_rad), dtype=complex)
    for j, m, radial in _radial_elements(rho, probe_dim, schedule,
                                         _radial_space(n_rad, schedule)):
        s = -1.0 if m >= j and (m - j) % 2 else 1.0
        amps[j, m - j + probe_dim - 1] = (s * chi[m]) * radial
    # einsum without optimize calls no BLAS, so the sum's bits do not depend
    # on the thread count
    gram = 2.0 * np.einsum("jlr,klr,r->jk", amps, amps.conj(), w_rad)
    return gram, n_rad, n_ang


def check_overcompleteness(phi: FockVector, params: SqueezeParams,
                           probe_dim: int = 6,
                           budget: int = OVERCOMPLETENESS_BUDGET,
                           method: str = "monte-carlo",
                           seed: int = 0) -> OvercompletenessReport:
    """Estimate || (1/pi) integral d^2alpha |psi_alpha><psi_alpha| - 1 || on
    the probe block, for psi_alpha = D(alpha) S(xi) |phi>.

    Monte Carlo samples alpha uniformly on a disk (importance weight
    R^2 per sample for the 1/pi measure); the grid method combines
    Gauss-Legendre radial nodes with a uniform angular rule that is exact
    for the finite trigonometric content of the integrand, and sums that
    angular rule in closed form, so it evaluates the matrix elements at the
    n_rad radii only (`budget` still reports the n_rad n_ang points of the
    rule). A budget too small for a target accuracy is not an error; the
    achieved deviation is simply reported. psi_0 = S(xi)|phi> is built at
    the first of max(64, 4 probe_dim, 2 phi.dim) and its doublings at which
    it resolves, as the builders choose their cutoff (OutOfRangeError past
    AUTO_DIM_MAX); it and the disk radius are kept for the last eight
    families.
    """
    if method not in ("monte-carlo", "grid"):
        raise InvalidParameterError(f"unknown method {method!r}")
    probe_dim = require_int(probe_dim, "probe_dim", InvalidDimensionError, minimum=0)
    budget = require_int(budget, "budget", InvalidParameterError, minimum=1)
    if method == "monte-carlo":
        seed = require_int(seed, "seed", InvalidParameterError, minimum=0)
    require_seed(phi)
    if probe_dim == 0:
        # empty probe block: nothing to integrate, identically satisfied
        return OvercompletenessReport(
            probe_dim=0, max_abs_deviation=0.0, method=method,
            budget=0, seed=seed if method == "monte-carlo" else None,
            radius=0.0, grid_spec=None,
        )
    chi, radius = _probe_family(phi.amps.tobytes(),
                                np.array([params.r, params.theta]).tobytes(), probe_dim)

    if method == "monte-carlo":
        gram = _monte_carlo_gram(chi.amps, radius, probe_dim, budget, seed)
        grid_spec = None
    else:
        gram, n_rad, n_ang = _grid_gram(chi.amps, radius, probe_dim, budget)
        grid_spec = f"{n_rad}x{n_ang}"
        budget = n_rad * n_ang
        seed = None

    deviation = float(np.max(np.abs(gram - np.eye(probe_dim))))
    return OvercompletenessReport(
        probe_dim=probe_dim,
        max_abs_deviation=deviation,
        method=method,
        budget=budget,
        seed=seed,
        radius=radius,
        grid_spec=grid_spec,
    )


# ---------------------------------------------------------------------------
# Named suites used by the command-line verifier.

def _sample_summaries(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield summarize(random_state(64, rng))


def suite_uncertainty(budget: int, seed: int) -> dict:
    """Robertson-Schrodinger margin on random tail-safe states."""
    worst = math.inf
    for summary in _sample_summaries(budget, seed):
        margin = 4.0 * summary.var_x * summary.var_p - summary.cov**2 - 1.0
        worst = min(worst, margin)
    return {
        "name": "uncertainty",
        "passed": bool(worst >= -BAND_SLACK),
        "worst_margin": worst,
        "states": budget,
    }


def suite_rql(budget: int, seed: int) -> dict:
    """Band containment for both systems on random states."""
    scales = PhysicalScales()
    osc_times = np.linspace(0.0, 2.0 * np.pi, 20)
    fm_times = np.linspace(0.0, 3.0, 20)
    worst = -math.inf
    for summary in _sample_summaries(budget, seed):
        osc = evolve_oscillator(summary, scales.omega, osc_times)
        fm = evolve_free_mass(summary, scales, fm_times)
        for trace in (osc, fm):
            viol = np.maximum(trace.rql_lower - trace.var_x,
                              trace.var_x - trace.rql_upper)
            worst = max(worst, float(np.max(viol)))
    return {
        "name": "rql",
        "passed": bool(worst <= BAND_SLACK),
        "worst_violation": worst,
        "states": budget,
    }


def suite_saturation(budget: int, seed: int) -> dict:
    """Squeezed coherent states must ride the band edge; random states must
    stay strictly inside."""
    rng = np.random.default_rng(seed)
    worst_gap = -math.inf
    worst_residual = -math.inf
    for _ in range(budget):
        params = SqueezeParams(r=float(rng.uniform(0.05, 1.0)),
                               theta=float(rng.uniform(0.0, 2.0 * np.pi)))
        alpha = complex(rng.normal(), rng.normal())
        # dim 128 leaves ~1e-6 truncation noise in the eigen-residual at the
        # largest draws; 192 puts it far below the 1e-7 gate
        state = make_scs(alpha, params, dim=192)
        summary = summarize(state)
        half = 0.5 * math.sqrt(max(4 * summary.var_x * summary.var_p - 1.0, 0.0))
        gap = half - 0.5 * abs(summary.cov)   # band-edge distance at sin(2wt) = 1
        worst_gap = max(worst_gap, abs(gap))
        worst_residual = max(worst_residual, audit_extremal(state).residual)
    inside = -math.inf
    min_inside = math.inf
    for summary in _sample_summaries(max(budget, 8), seed + 1):
        half = 0.5 * math.sqrt(max(4 * summary.var_x * summary.var_p - 1.0, 0.0))
        min_inside = min(min_inside, half - 0.5 * abs(summary.cov))
    return {
        "name": "saturation",
        "passed": bool(worst_gap < 1e-7 and worst_residual < 1e-7
                       and min_inside > 1e-4),
        "worst_scs_gap": worst_gap,
        "worst_scs_residual": worst_residual,
        "min_generic_gap": min_inside,
        "states": budget,
    }


def suite_overcompleteness(budget: int, seed: int) -> dict:
    """Identity resolution for the reference seed family."""
    phi = lattice_phi([1.0, 1.0]).state
    report = check_overcompleteness(
        phi, SqueezeParams(r=0.3, theta=0.0), probe_dim=6,
        budget=budget, seed=seed,
    )
    # Threshold follows the 1/sqrt(budget) Monte Carlo rate anchored at the
    # default budget, with 2x slack; small budgets report rather than fail.
    anchor = OVERCOMPLETENESS_TARGET
    threshold = anchor * max(1.0, math.sqrt(OVERCOMPLETENESS_BUDGET / budget)) * 2.0
    return {
        "name": "overcompleteness",
        "passed": bool(report.max_abs_deviation < threshold),
        "deviation": report.max_abs_deviation,
        "threshold": threshold,
        "budget": budget,
        "seed": seed,
        "radius": report.radius,
    }


def suite_identities(budget: int, seed: int) -> dict:
    """Operator conjugation identities at two cutoffs."""
    del budget, seed  # deterministic suite
    cases = [
        (1.0 + 0.5j, SqueezeParams(r=0.7, theta=1.1), 128),
        (-0.8 + 1.2j, SqueezeParams(r=0.4, theta=4.0), 96),
        (0.3 - 0.2j, SqueezeParams(r=0.0, theta=0.0), 64),
    ]
    worst = -math.inf
    for alpha, params, dim in cases:
        report = check_conjugation_identities(alpha, params, dim=dim)
        worst = max(worst, report.max_residual())
    return {
        "name": "identities",
        "passed": bool(worst < IDENTITY_TOL),
        "worst_residual": worst,
        "cases": len(cases),
    }


SUITES = {
    "uncertainty": suite_uncertainty,
    "rql": suite_rql,
    "saturation": suite_saturation,
    "overcompleteness": suite_overcompleteness,
    "identities": suite_identities,
}


def run_suite(name: str, budget: int, seed: int) -> dict:
    """Run one named suite, or all of them, returning a JSON-ready report."""
    budget = require_int(budget, "budget", InvalidParameterError, minimum=1)
    seed = require_int(seed, "seed", InvalidParameterError, minimum=0)
    if name == "all":
        # Saturation builds and audits a squeezed coherent state per draw
        # and rql runs two propagations per state; keep their state counts
        # moderate when sharing one budget figure.
        checks = [
            suite_uncertainty(min(budget, 500), seed),
            suite_rql(min(budget, 200), seed),
            suite_saturation(min(budget, 50), seed),
            suite_overcompleteness(max(budget, 10_000), seed),
            suite_identities(budget, seed),
        ]
    elif isinstance(name, str) and name in SUITES:
        checks = [SUITES[name](budget, seed)]
    else:
        raise InvalidParameterError(f"unknown suite {name!r}")
    return {
        "suite": name,
        "seed": seed,
        "budget": budget,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
