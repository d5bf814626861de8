"""Time development of the position variance and its rigorous bounds.

Two systems are covered. For an oscillator of frequency omega (dimensionless
quadratures, hbar = 1):

    var_x(t) = cos^2(wt) var_x + sin^2(wt) var_p + (1/2) sin(2wt) cov

with the rigorous band half-width (1/2)|sin 2wt| sqrt(4 var_x var_p - 1).
For a free mass the physical quadratures X = x sqrt(hbar/(m omega)),
P = p sqrt(m hbar omega) evolve as

    var_X(t) = var_X + (t/m)^2 var_P + (t/m) cov_XP

with band half-width (t/m) sqrt(4 var_X var_P - hbar^2). The standard-limit
reference curve reported alongside is max(var_X + (t/m)^2 var_P, hbar t / m).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    NotContractiveError,
    require_real,
    require_real_array,
)
from .fock import FockVector, ensure_resolved, index_weights, support, write_csv
from .moments import MomentSummary, summarize

# Free-mass direct evolution embeds the state at >= this multiple of its
# occupied band before exponentiating, then re-checks the tail.
ORACLE_BAND_FACTOR = 4


@dataclass(frozen=True)
class PhysicalScales:
    """Unit conversions between dimensionless quadratures and lab units."""

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "omega"):
            value = require_real(getattr(self, name), name, InvalidParameterError)
            if value <= 0:
                raise InvalidParameterError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)

    def var_x_scale(self) -> float:
        return self.hbar / (self.mass * self.omega)

    def var_p_scale(self) -> float:
        return self.mass * self.hbar * self.omega

    def cov_scale(self) -> float:
        return self.hbar


@dataclass(frozen=True)
class EvolutionTrace:
    """Sampled variance trajectory with its rigorous band (and optional
    standard-limit curve for the free mass)."""

    times: np.ndarray
    var_x: np.ndarray
    rql_lower: np.ndarray
    rql_upper: np.ndarray
    sql: np.ndarray | None
    system: str

    def to_csv(self, target) -> None:
        """Write rows t, var_x, rql_lower, rql_upper, sql (header mandatory).

        The sql column is left empty for oscillator traces. `target` is a
        path or a text file object.
        """
        sql = self.sql if self.sql is not None else [None] * self.times.size
        write_csv(target, ["t", "var_x", "rql_lower", "rql_upper", "sql"],
                  zip(self.times, self.var_x, self.rql_lower, self.rql_upper, sql))


@dataclass(frozen=True)
class ContractionWindow:
    """Interval [0, t_m] over which a contractive packet stays narrowed."""

    t_m: float
    t_min: float
    var_at_min: float


def _as_times(times) -> np.ndarray:
    arr = np.atleast_1d(require_real_array(times, "times", InvalidParameterError))
    if arr.ndim != 1:
        raise InvalidParameterError("times must be a scalar or 1-D sequence")
    return arr


def evolve_oscillator(summary: MomentSummary, omega: float, times) -> EvolutionTrace:
    """Analytic variance trajectory for H = hbar omega a^dag a."""
    omega = require_real(omega, "omega", InvalidParameterError)
    if omega <= 0:
        raise InvalidParameterError(f"omega must be positive, got {omega}")
    t = _as_times(times)
    wt = omega * t
    c2, s2 = np.cos(wt) ** 2, np.sin(wt) ** 2
    center = c2 * summary.var_x + s2 * summary.var_p
    var = center + 0.5 * np.sin(2 * wt) * summary.cov
    half = 0.5 * np.abs(np.sin(2 * wt)) * math.sqrt(
        max(4.0 * summary.var_x * summary.var_p - 1.0, 0.0)
    )
    return EvolutionTrace(
        times=t, var_x=var,
        rql_lower=center - half, rql_upper=center + half,
        sql=None, system="oscillator",
    )


def evolve_free_mass(summary: MomentSummary, scales: PhysicalScales,
                     times) -> EvolutionTrace:
    """Analytic variance trajectory of a free mass, in physical units."""
    t = _as_times(times)
    vx = summary.var_x * scales.var_x_scale()
    vp = summary.var_p * scales.var_p_scale()
    cov = summary.cov * scales.cov_scale()
    tau = t / scales.mass
    center = vx + tau**2 * vp
    var = center + tau * cov
    half = np.abs(tau) * math.sqrt(max(4.0 * vx * vp - scales.hbar**2, 0.0))
    sql = np.maximum(center, scales.hbar * np.abs(tau))
    return EvolutionTrace(
        times=t, var_x=var,
        rql_lower=center - half, rql_upper=center + half,
        sql=sql, system="free-mass",
    )


def rql_band(summary: MomentSummary, system: str, scales: PhysicalScales,
             t: float) -> tuple[float, float]:
    """Rigorous (lower, upper) variance bounds at a single time."""
    t = require_real(t, "t", InvalidParameterError)
    if system == "oscillator":
        trace = evolve_oscillator(summary, scales.omega, [t])
    elif system == "free-mass":
        trace = evolve_free_mass(summary, scales, [t])
    else:
        raise InvalidParameterError(f"unknown system {system!r}")
    return float(trace.rql_lower[0]), float(trace.rql_upper[0])


def contraction_window(summary: MomentSummary,
                       scales: PhysicalScales) -> ContractionWindow:
    """Free-mass window during which var_X(t) sits below var_X(0).

    Requires cov < 0. t_m is the return time -m cov_XP / var_P; for states
    that saturate the uncertainty relation this equals
    (m / var_P) sqrt(4 var_X var_P - hbar^2). The minimum sits at t_m / 2.
    """
    if not summary.cov < 0:
        raise NotContractiveError(
            f"state is not contractive (cov = {summary.cov:.3e} >= 0)"
        )
    vp = summary.var_p * scales.var_p_scale()
    cov = summary.cov * scales.cov_scale()
    t_m = -scales.mass * cov / vp
    trace = evolve_free_mass(summary, scales, [0.5 * t_m])
    return ContractionWindow(
        t_m=t_m, t_min=0.5 * t_m, var_at_min=float(trace.var_x[0])
    )


@functools.lru_cache(maxsize=8)
def _p_squared_eig(dim: int):
    # p^2 = (a a^dag + a^dag a - a^2 - a^dag^2) / 2 on the truncated space:
    # m + 1/2 on the diagonal except (dim - 1)/2 in the top corner, where the
    # truncated a a^dag is 0, and -sqrt((m + 1)(m + 2))/2 on the +-2 bands
    m, _, w2 = index_weights(dim)
    p2 = np.diag(m + 0.5) - 0.5 * (np.diag(w2, 2) + np.diag(w2, -2))
    p2[-1, -1] = 0.5 * (dim - 1)
    evals, evecs = np.linalg.eigh(p2)
    evecs.setflags(write=False)
    evals.setflags(write=False)
    return evals, evecs


def schrodinger_oracle(state: FockVector, system: str, scales: PhysicalScales,
                       t: float) -> MomentSummary:
    """Moments after direct wavefunction evolution (dimensionless quadratures).

    Oscillator: exact phase rotation exp(-i omega t m) per level. Free mass:
    the kinetic propagator from the cached eigendecomposition of p^2 at an
    enlarged cutoff (at least ORACLE_BAND_FACTOR times the occupied band),
    tail-checked afterwards, so a state that outgrows the embedding raises
    TruncationError. The eigenvectors are real, so both products run in real
    arithmetic on the real and imaginary parts, and the first one reads only
    the rows under the state's own dim (the embedding pads with zeros).
    Serves as the independent cross-check of the analytic propagation.
    """
    t = require_real(t, "t", InvalidParameterError)
    ensure_resolved(state)
    if system == "oscillator":
        phases = np.exp(-1j * scales.omega * t * np.arange(state.dim))
        return summarize(FockVector(phases * state.amps))
    if system != "free-mass":
        raise InvalidParameterError(f"unknown system {system!r}")

    band = int(support(state.amps).max(initial=0)) + 1
    big = max(ORACLE_BAND_FACTOR * band, state.dim, 64)
    evals, evecs = _p_squared_eig(big)
    # Kinetic phase in dimensionless variables: P^2/(2m) t / hbar
    # = (omega t / 2) p^2.
    tau = scales.omega * t
    phases = np.exp(-0.5j * tau * evals)
    # A complex vector viewed as (n, 2) real columns (real, imaginary part)
    # goes through one real matrix product; the (n, 2) result views back.
    parts = state.amps.view(float).reshape(-1, 2)
    coef = (evecs[:state.dim].T @ parts).view(complex).ravel() * phases
    evolved = (evecs @ coef.view(float).reshape(-1, 2)).view(complex).ravel()
    return summarize(FockVector(evolved))
