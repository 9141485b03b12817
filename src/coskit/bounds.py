"""Certified bounds: derivative bounds and the smoothness cap on their
order, the series-truncation bound, and range-truncation (B-term) bounds.

This is the one home of every bound formula: `tuning` solves for N and L
the same functions that the acceptance suite evaluates.  The oracles that
check them (the scanned density-derivative sup, the tail integrals and the
brute-force B(L) partial sum) live in `reference`.
"""

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from scipy.special import gammaln

from .errors import IntegralDiverged, NoClosedForm, NoSmoothness, QuadratureFailure
from .models import (BS, NIG, VG, CentralizedCF, MarketContext, ModelSpec,
                     bilateral_gamma, stable_law)

__all__ = [
    "HjSource", "DerivativeBound", "hj_closed_form", "series_order_cap",
    "hj_numeric", "series_log_coefficient", "sqrt_rule_coefficient",
    "series_truncation_bound", "bl_semiheavy_factor", "bl_bound_semiheavy",
    "bl_bound_heavy",
]


class HjSource(enum.Enum):
    CLOSED_FORM_STABLE = "closed-form-stable"
    CLOSED_FORM_GAUSS = "closed-form-gauss"
    CLOSED_FORM_NIG = "closed-form-nig"
    NUMERIC_INTEGRAL = "numeric-integral"
    DENSITY_SUP = "density-sup"


@dataclass(frozen=True)
class DerivativeBound:
    """Uniform bound on the j-th derivative of the density.

    log_value is the natural log of the bound; value may overflow to inf for
    extreme orders but the log stays finite, and the selection rules work in
    the log domain throughout.
    """
    order: int
    value: float
    log_value: float
    source: HjSource


def hj_closed_form(model: ModelSpec, ctx: MarketContext, order: int) -> DerivativeBound:
    """Closed-form uniform bound on the order-th derivative of the density of
    the centralized log-return.

    Stable family (BS, FMLS, Stable and Cauchy, each through its
    `stable_law`): Gamma((j+1)/alpha)/(pi alpha c^(j+1)), the integral
    (1/pi) Int_0^inf u^j |phi(u)| du in closed form, labelled
    closed-form-gauss for BS.  Symmetric NIG:
    exp(T delta alpha) j! / (pi (T delta)^(j+1)).  VG has no closed form.
    """
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if isinstance(model, NIG):
        dT = model.delta * ctx.T
        lv = (dT * model.alpha + gammaln(order + 1)
              - math.log(math.pi) - (order + 1) * math.log(dT))
        src = HjSource.CLOSED_FORM_NIG
    else:
        law = stable_law(model, ctx.T)
        if law is None:
            raise NoClosedForm(
                f"no closed-form derivative bound for {type(model).__name__}")
        lv = (gammaln((order + 1) / law.alpha) - math.log(math.pi * law.alpha)
              - (order + 1) * math.log(law.scale))
        src = (HjSource.CLOSED_FORM_GAUSS if isinstance(model, BS)
               else HjSource.CLOSED_FORM_STABLE)

    value = math.exp(lv) if lv < 709.0 else math.inf
    return DerivativeBound(order=order, value=value, log_value=lv, source=src)


def series_order_cap(model: ModelSpec, ctx: MarketContext, order: int) -> int:
    """The series order clamped to the density's smoothness (0 selects the
    square-root rule).  VG at horizon T, with k the shape of its
    `bilateral_gamma` laws, has bounded derivatives up to order J + 1 for
    J + 2 < 2k, and raises NoSmoothness without even one; the other models'
    densities are smooth."""
    if not isinstance(model, VG):
        return order
    k, _, _ = bilateral_gamma(model, ctx.T)
    limit = 2.0 * k - 2.0
    if limit <= 0.0:
        raise NoSmoothness(
            f"VG density at T={ctx.T} (nu={model.nu}) lacks a bounded "
            "derivative; no series rule applies")
    return min(order, math.ceil(limit) - 1)


# relative tolerance of hj_numeric's octave quadratures and of its stop rule
_HJ_RTOL = 1e-8


def hj_numeric(cf: CentralizedCF, order: int) -> DerivativeBound:
    """Numeric derivative bound (1/pi) Int_0^inf u^j |phi(u)| du.

    Integrates octave by octave with adaptive quadrature, doubling the upper
    limit until the integrand has decayed below 1e-16 of its peak and the last
    octave is negligible; raises IntegralDiverged when that never happens
    (density not smooth enough, e.g. VG at short maturity), including when
    u^j overflows before the integrand has decayed.
    """
    # scipy.integrate imports scipy.optimize; importing it here keeps both
    # out of a process that imports the pricing modules and never calls this
    from scipy.integrate import quad

    j, phi = order, cf.phi

    def g(u):
        try:
            return u ** j * abs(phi(u))
        except OverflowError:
            raise IntegralDiverged(
                f"u^{j} overflows at u = {u:.4g} before u^{j}|phi(u)| "
                "decays") from None

    # locate the integrand's peak scale to anchor the first octave
    u_peak = 1.0
    for _ in range(60):
        if g(2.0 * u_peak) < g(u_peak):
            break
        u_peak *= 2.0
    else:
        raise IntegralDiverged(f"integrand u^{j}|phi(u)| keeps growing")
    peak_val = max(g(u_peak), g(u_peak / 2.0), g(2.0 * u_peak))

    total, err_acc = 0.0, 0.0
    lo, hi = 0.0, 4.0 * u_peak
    for _ in range(72):
        val, err = quad(g, lo, hi, epsrel=_HJ_RTOL, epsabs=1e-300, limit=200)
        total += val
        err_acc += abs(err)
        # slowly decaying octaves shrink geometrically, so the dropped tail is
        # a small multiple of the last octave; require both the integrand and
        # the octave contribution to be negligible
        done_decay = g(hi) < 1e-16 * peak_val
        done_tail = abs(val) < 0.25 * _HJ_RTOL * abs(total)
        if done_decay and done_tail:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise IntegralDiverged(
            f"u^{j}|phi(u)| did not decay within the doubling budget")
    if total <= 0.0 or not math.isfinite(total):
        raise QuadratureFailure("derivative-bound integral returned garbage")
    value = total / math.pi
    return DerivativeBound(order=j, value=value, log_value=math.log(value),
                           source=HjSource.NUMERIC_INTEGRAL)


# ---------------------------------------------------------------------------
# series-truncation bound
# ---------------------------------------------------------------------------

def series_log_coefficient(J: int, log_h: float, L: float) -> float:
    """log C_J of the series bound's leading term C_J / N^J at order J >= 1,
    C_J = 2^(J+2) H_(J+1) L^(J+1) / (J pi^(J+1)), from log H_(J+1)."""
    return ((J + 2) * math.log(2.0) + log_h + (J + 1) * math.log(L)
            - math.log(J) - (J + 1) * math.log(math.pi))


def sqrt_rule_coefficient(h1: float, L: float) -> float:
    """C_0 = 4 H_1 L / pi of the square-root rule's bound C_0 / sqrt(N)."""
    return 4.0 * h1 * L / math.pi


def series_truncation_bound(h_top: float, boundary_sums: Sequence[float],
                            L: float, N: int, J: int) -> float:
    """Integration-by-parts bound on the cosine-series tail ||f_L - S_N||_2.

    For J >= 1:
        sum_{j=1..J} 2^(j+1)/(j pi^(j+1)) (L/N)^j * boundary_sums[j-1]
        + C_J / N^J  (C_J from `series_log_coefficient`)
    where boundary_sums[j-1] >= |f^(j)(-L)| + |f^(j)(L)| and h_top >= H_{J+1}.
    For J == 0: C_0 / sqrt(N) (`sqrt_rule_coefficient`) with h_top >= H_1.
    Monotone decreasing in N.
    """
    if L <= 0 or N < 1:
        raise ValueError("need L > 0 and N >= 1")
    if J == 0:
        return sqrt_rule_coefficient(h_top, L) / math.sqrt(N)
    if len(boundary_sums) < J:
        raise ValueError(f"need {J} boundary derivative sums, got {len(boundary_sums)}")
    total = 0.0
    ratio = L / N
    for j in range(1, J + 1):
        total += (2.0 ** (j + 1) / (j * math.pi ** (j + 1))
                  * ratio ** j * boundary_sums[j - 1])
    total += math.exp(series_log_coefficient(J, math.log(h_top), L)
                      - J * math.log(N))
    return total


# ---------------------------------------------------------------------------
# B(L) bounds  (coefficient-substitution term)
# ---------------------------------------------------------------------------

def bl_semiheavy_factor(amplitude: float, rate: float, x: float) -> float:
    """(2 pi a / sqrt(6 r)) sqrt(1 + 1/(x r) + 1/(2 x^2 r^2)), the factor of
    e^(-rL) in the semi-heavy bound on sqrt(B(L)) at x = L."""
    a, r = amplitude, rate
    return (2.0 * math.pi * a / math.sqrt(6.0 * r)
            * math.sqrt(1.0 + 1.0 / (x * r) + 0.5 / (x * r) ** 2))


def bl_bound_semiheavy(amplitude: float, rate: float, L: float,
                       M: float) -> float:
    """Closed-form upper bound on sqrt(B(L)) under exponential tail
    domination: `bl_semiheavy_factor` at L times e^(-rL).  Requires
    L >= M > 0."""
    if not (L >= M > 0):
        raise ValueError("need L >= M > 0")
    return bl_semiheavy_factor(amplitude, rate, L) * math.exp(-rate * L)


def bl_bound_heavy(amplitude: float, index: float, L: float) -> float:
    """Closed-form upper bound on sqrt(B(L)) under Pareto tail domination:
    2 a sqrt(1/alpha^2 + 2/3) L^(-(1+2 alpha)/2)."""
    if L <= 0:
        raise ValueError("need L > 0")
    a, al = amplitude, index
    return 2.0 * a * math.sqrt(1.0 / (al * al) + 2.0 / 3.0) \
        * L ** (-(1.0 + 2.0 * al) / 2.0)
