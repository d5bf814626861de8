"""Quadrature statistics of truncated states and their classification.

Covariance is always the symmetrized second moment
cov = <x p + p x> - 2 <x><p>, the quantity that controls how the position
variance of a freely evolving packet initially grows or shrinks.

All moments come from the ladder index sums <a>, <a^2> and n_bar = <a^dag a>:
<x> = sqrt(2) Re<a>, <p> = sqrt(2) Im<a>, <x^2> = n_bar + 1/2 + Re<a^2>,
<p^2> = n_bar + 1/2 - Re<a^2> and <x p + p x> = 2 Im<a^2>.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .errors import InvalidParameterError, TrivialStateError, require_real
from .fock import FockVector, ensure_resolved
from .gcs import ladder_sums, photon_sum
from .states import SqueezeParams

# Flags in classify() use this tolerance on variance/covariance comparisons.
CLASSIFY_TOL = 1e-7

# Allowed numerical slack on the uncertainty-relation invariant
# 4 var_x var_p - cov^2 >= 1.
ROBERTSON_SLACK = 1e-9


@dataclass(frozen=True)
class MomentSummary:
    """Second-moment data of a single-mode state (dimensionless, hbar = 1)."""

    var_x: float
    var_p: float
    cov: float
    n_bar: float
    uncertainty_product: float = field(init=False)

    def __post_init__(self):
        if not (self.var_x > 0 and self.var_p > 0):
            raise InvalidParameterError(
                f"variances must be positive, got ({self.var_x}, {self.var_p})"
            )
        if self.n_bar < -1e-12:
            raise InvalidParameterError(f"n_bar must be >= 0, got {self.n_bar}")
        margin = 4.0 * self.var_x * self.var_p - self.cov**2 - 1.0
        if margin < -ROBERTSON_SLACK:
            raise InvalidParameterError(
                "moments violate the uncertainty relation: "
                f"4 var_x var_p - cov^2 - 1 = {margin:.3e}"
            )
        object.__setattr__(
            self, "uncertainty_product", self.var_x * self.var_p
        )

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StateClass:
    """Qualitative flags derived from a MomentSummary."""

    is_squeezed: bool
    is_contractive: bool
    is_gcs: bool
    is_extremal: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def summarize(state: FockVector) -> MomentSummary:
    """Means-subtracted quadrature moments of a tail-safe state."""
    ensure_resolved(state)
    norm = state.norm()
    if norm == 0.0:
        raise TrivialStateError("cannot normalize the zero vector")
    amps = state.amps / norm
    first, second = ladder_sums(amps)
    n_bar = photon_sum(amps)

    mean_x = math.sqrt(2.0) * first.real
    mean_p = math.sqrt(2.0) * first.imag
    return MomentSummary(
        var_x=n_bar + 0.5 + second.real - mean_x**2,
        var_p=n_bar + 0.5 - second.real - mean_p**2,
        cov=2.0 * second.imag - 2.0 * mean_x * mean_p,
        n_bar=n_bar,
    )


def classify(summary: MomentSummary) -> StateClass:
    """Flag squeezing, contractivity, balanced-moment (GCS) form, extremality."""
    tol = CLASSIFY_TOL
    saturation = 4.0 * summary.var_x * summary.var_p - 1.0
    return StateClass(
        is_squeezed=summary.var_x < summary.var_p - tol,
        is_contractive=summary.cov < -tol,
        is_gcs=(abs(summary.var_x - summary.var_p) < tol and abs(summary.cov) < tol),
        is_extremal=abs(summary.cov**2 - saturation) < tol,
    )


def scs_predicted_moments(params: SqueezeParams) -> MomentSummary:
    """Closed-form moments of D(alpha) S(xi) |0>; alpha drops out."""
    return sgcs_predicted_moments(0.0, params)


def sgcs_predicted_moments(n_bar: float, params: SqueezeParams) -> MomentSummary:
    """Closed-form moments of D(alpha) S(xi) |phi> for a seed with mean
    photon number n_bar.

    var_x = (n_bar + 1/2)(cosh 2r - cos theta sinh 2r)
    var_p = (n_bar + 1/2)(cosh 2r + cos theta sinh 2r)
    cov   = -(2 n_bar + 1) sin theta sinh 2r

    Note n_bar here is the seed's photon number, which the displacement and
    squeezing do not alter as a parameter of these formulas; the full state's
    own <a^dag a> is larger.
    """
    n_bar = require_real(n_bar, "n_bar", InvalidParameterError)
    if n_bar < 0:
        raise InvalidParameterError(f"n_bar must be >= 0, got {n_bar}")
    r, theta = params.r, params.theta
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    weight = n_bar + 0.5
    var_x = weight * (ch - math.cos(theta) * sh)
    var_p = weight * (ch + math.cos(theta) * sh)
    cov = -(2 * n_bar + 1.0) * math.sin(theta) * sh

    # Internal consistency: cov^2 + (2 n_bar + 1)^2 = 4 var_x var_p, with
    # cov of sign -sgn(sin theta). Compared squared, since the root of the
    # difference cancels near sin theta = 0, and relative to (var_x + var_p)^2
    # = (2 n_bar + 1)^2 cosh^2 2r, the size of the terms var_x and var_p
    # lose to cancellation at large r.
    product = 4.0 * var_x * var_p
    scale = (var_x + var_p) ** 2
    if (abs(cov**2 + (2 * n_bar + 1.0) ** 2 - product) > 1e-12 * scale
            or cov * math.sin(theta) > 0.0):
        raise AssertionError(
            f"covariance identity violated: cov^2 = {cov**2}, "
            f"4 var_x var_p - (2 n_bar + 1)^2 = {product - (2 * n_bar + 1.0) ** 2}"
        )
    return MomentSummary(var_x=var_x, var_p=var_p, cov=cov, n_bar=n_bar)


def lambda_from_moments(summary: MomentSummary) -> complex:
    """Extremal-family parameter fitted from second moments.

    Re lambda = 1/(2 var_x); |Im lambda| = sqrt(4 var_x var_p - 1)/(2 var_x);
    the sign of Im lambda is -sign(cov). For states that actually saturate
    the uncertainty relation, (Delta p - i lambda Delta x) annihilates the
    state.
    """
    re = 1.0 / (2.0 * summary.var_x)
    sat = max(4.0 * summary.var_x * summary.var_p - 1.0, 0.0)
    im = -math.copysign(math.sqrt(sat) / (2.0 * summary.var_x), summary.cov)
    if summary.cov == 0.0:
        im = 0.0
    return complex(re, im)
