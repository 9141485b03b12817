"""Derivative bounds, the series-truncation bound, and range-truncation
(B-term) bounds.

These feed the parameter-selection rules in `tuning` and the validation
suite: closed-form and numeric uniform bounds on density derivatives, the
integration-by-parts bound on the cosine-series tail, and closed-form upper
bounds for the coefficient-substitution term B(L) together with a brute-force
partial-sum evaluation used as a test oracle.
"""

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, roots_legendre

from .errors import IntegralDiverged, NoClosedForm, QuadratureFailure
from .models import (BS, FMLS, NIG, VG, Cauchy, CentralizedCF, MarketContext,
                     ModelSpec, Stable, fmls_as_stable)

__all__ = [
    "HjSource", "DerivativeBound", "hj_closed_form", "hj_numeric",
    "hj_density_sup", "series_truncation_bound", "bl_bound_semiheavy",
    "bl_bound_heavy", "BLPartialSum", "bl_bruteforce", "tail_cos_integrals",
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


def _stable_log_bound(order: int, alpha: float, scale: float) -> float:
    """log of Gamma((j+1)/alpha) / (pi * alpha * scale^(j+1))."""
    j = order
    return (gammaln((j + 1) / alpha) - math.log(math.pi * alpha)
            - (j + 1) * math.log(scale))


def _gauss_log_bound(order: int, sdev: float) -> float:
    """Gaussian specialization of the stable bound (exact same value)."""
    j = order
    if j % 2 == 0:
        return (gammaln(j + 1)
                - ((j + 1) * math.log(sdev) + 0.5 * math.log(2.0 * math.pi)
                   + (j / 2) * math.log(2.0) + gammaln(j / 2 + 1)))
    return (((j - 1) / 2) * math.log(2.0) + gammaln((j - 1) / 2 + 1)
            - ((j + 1) * math.log(sdev) + math.log(math.pi)))


def hj_closed_form(model: ModelSpec, ctx: MarketContext, order: int) -> DerivativeBound:
    """Closed-form uniform bound on the order-th derivative of the density of
    the centralized log-return.

    Stable family (incl. FMLS and Cauchy): Gamma((j+1)/alpha)/(pi alpha c^(j+1)).
    Gaussian: the even/odd factorial form (equal to the stable bound at
    alpha=2).  Symmetric NIG: exp(T delta alpha) j! / (pi (T delta)^(j+1)).
    VG has no closed form.
    """
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    T = ctx.T

    if isinstance(model, BS):
        lv = _gauss_log_bound(order, model.sigma * math.sqrt(T))
        src = HjSource.CLOSED_FORM_GAUSS
    elif isinstance(model, NIG):
        dT = model.delta * T
        lv = (dT * model.alpha + gammaln(order + 1)
              - math.log(math.pi) - (order + 1) * math.log(dT))
        src = HjSource.CLOSED_FORM_NIG
    elif isinstance(model, FMLS):
        st = fmls_as_stable(model, T)
        lv = _stable_log_bound(order, st.alpha, st.scale)
        src = HjSource.CLOSED_FORM_STABLE
    elif isinstance(model, Stable):
        lv = _stable_log_bound(order, model.alpha, model.scale)
        src = HjSource.CLOSED_FORM_STABLE
    elif isinstance(model, Cauchy):
        lv = _stable_log_bound(order, 1.0, 1.0)
        src = HjSource.CLOSED_FORM_STABLE
    elif isinstance(model, VG):
        raise NoClosedForm("no closed-form derivative bound for VG")
    else:
        raise NoClosedForm(f"no closed-form derivative bound for {model!r}")

    value = math.exp(lv) if lv < 709.0 else math.inf
    return DerivativeBound(order=order, value=value, log_value=lv, source=src)


def hj_numeric(cf: CentralizedCF, order: int, rtol: float = 1e-8) -> DerivativeBound:
    """Numeric derivative bound (1/pi) Int_0^inf u^j |phi(u)| du.

    Integrates octave by octave with adaptive quadrature, doubling the upper
    limit until the integrand has decayed below 1e-16 of its peak and the last
    octave is negligible; raises IntegralDiverged when that never happens
    (density not smooth enough, e.g. VG at short maturity), including when
    u^j overflows before the integrand has decayed.
    """
    j = order

    def g(u):
        try:
            return u ** j * abs(complex(cf.phi(u)))
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
        val, err = quad(g, lo, hi, epsrel=rtol, epsabs=1e-300, limit=200)
        total += val
        err_acc += abs(err)
        # slowly decaying octaves shrink geometrically, so the dropped tail is
        # a small multiple of the last octave; require both the integrand and
        # the octave contribution to be negligible
        done_decay = g(hi) < 1e-16 * peak_val
        done_tail = abs(val) < 0.25 * rtol * abs(total)
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


# hj_density_sup's screen: the looser QUADPACK tolerance, and the multiple of
# QUADPACK's error estimate that widens each screened value into a band
_SCREEN_EPSABS = 1e-8
_SCREEN_BAND = 10.0


def hj_density_sup(cf: CentralizedCF, order: int, span: float = 8.0,
                   n_scan: int = 121) -> DerivativeBound:
    """sup_x |f^(j)(x)| located by scanning a Fourier-inverted derivative grid
    and refining around the best point (oracle-grade; used where the integral
    bound is too loose, e.g. the first derivative of a barely-C^1 density).

    The scan takes the argmax of |f^(j)| over a log-spaced grid symmetric
    about 0, and the refine searches between the argmax's two grid
    neighbours.  Few grid points are inverted at full accuracy:
    - screen: each point is inverted by the same QUADPACK rule at a looser
      tolerance, and its value widened into a band by a multiple of
      QUADPACK's error estimate.  When phi is real, QUADPACK's value at -x
      is exactly -+ its value at x, so only x > 0 is screened, standing for
      its mirror at -x;
    - confirm: the points whose band reaches the highest lower end of a band
      are inverted at full accuracy; the largest, the first in grid order on
      ties as in a full scan, is the argmax;
    - while a neighbour of the argmax is larger at full accuracy, it becomes
      the argmax, so the bracket holds a local maximum, as in a full scan.
    Every point is inverted on its own, so the value is the full scan's, bit
    for bit, wherever the exact mirror and QUADPACK's error estimates hold.
    At low frequency QUADPACK can miss the integrand and still report a tiny
    error, at either tolerance (the innermost points of narrow densities);
    the neighbour step has restored the full scan's argmax in every such
    case tried, but there the equality rests on it, not on the estimates.
    """
    from scipy.optimize import minimize_scalar

    from .reference import (_inversion_point, _nonzero_parts,
                            derivative_by_inversion)

    # scan scale from the CF's decay: far past it the derivative is tiny
    scale = 1.0
    while abs(cf.phi(1.0 / scale)) > 0.5 and scale > 1e-12:
        scale /= 2.0
    half = np.geomspace(1e-3 * scale, span * scale, n_scan // 2)
    xs = np.concatenate([-half[::-1], half])

    mirror = not _nonzero_parts(cf.phi)[1]
    screened = np.arange(half.size if mirror else 0, xs.size)
    est = np.array([_inversion_point(cf.phi, float(xs[k]), order,
                                     _SCREEN_EPSABS) for k in screened])
    mid, band = np.abs(est[:, 0]), _SCREEN_BAND * est[:, 1]
    picked = screened[mid + band >= np.max(mid - band)]
    if mirror:
        picked = xs.size - 1 - picked[::-1]

    vals = {}

    def confirm(idx):
        new = [k for k in idx if k not in vals]
        if new:
            vals.update(zip(new, np.abs(
                derivative_by_inversion(cf, order, xs[new]))))

    def first_max(idx):
        return max(idx, key=lambda k: (vals[k], -k))

    confirm(picked)
    i = first_max(picked)
    while True:
        near = [k for k in (i - 1, i + 1) if 0 <= k < xs.size]
        confirm(near)
        best = first_max([i] + near)
        if best == i:
            break
        i = best
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]

    def neg(x):
        return -abs(derivative_by_inversion(cf, order, [x])[0])

    res = minimize_scalar(neg, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10 * scale})
    value = max(float(-res.fun), float(vals[i]))
    return DerivativeBound(order=order, value=value, log_value=math.log(value),
                           source=HjSource.DENSITY_SUP)


# ---------------------------------------------------------------------------
# series-truncation bound
# ---------------------------------------------------------------------------

def series_truncation_bound(h_top: float, boundary_sums: Sequence[float],
                            L: float, N: int, J: int) -> float:
    """Integration-by-parts bound on the cosine-series tail ||f_L - S_N||_2.

    For J >= 1:
        sum_{j=1..J} 2^(j+1)/(j pi^(j+1)) (L/N)^j * boundary_sums[j-1]
        + 2^(J+2) h_top L^(J+1) / (J pi^(J+1) N^J)
    where boundary_sums[j-1] >= |f^(j)(-L)| + |f^(j)(L)| and h_top >= H_{J+1}.
    For J == 0: 4 h_top L / (pi sqrt(N)) with h_top >= H_1.
    Monotone decreasing in N.
    """
    if L <= 0 or N < 1:
        raise ValueError("need L > 0 and N >= 1")
    if J == 0:
        return 4.0 * h_top * L / (math.pi * math.sqrt(N))
    if len(boundary_sums) < J:
        raise ValueError(f"need {J} boundary derivative sums, got {len(boundary_sums)}")
    total = 0.0
    ratio = L / N
    for j in range(1, J + 1):
        total += (2.0 ** (j + 1) / (j * math.pi ** (j + 1))
                  * ratio ** j * boundary_sums[j - 1])
    total += (2.0 ** (J + 2) * h_top / (J * math.pi ** (J + 1))
              * L ** (J + 1) / N ** J)
    return total


# ---------------------------------------------------------------------------
# B(L) bounds  (coefficient-substitution term)
# ---------------------------------------------------------------------------

def bl_bound_semiheavy(amplitude: float, rate: float, L: float,
                       M: float) -> float:
    """Closed-form upper bound on sqrt(B(L)) under exponential tail
    domination: (2 pi a / sqrt(6 r)) e^(-rL) sqrt(1 + 1/(Lr) + 1/(2 L^2 r^2)).
    Requires L >= M > 0."""
    if not (L >= M > 0):
        raise ValueError("need L >= M > 0")
    a, r = amplitude, rate
    return (2.0 * math.pi * a / math.sqrt(6.0 * r) * math.exp(-r * L)
            * math.sqrt(1.0 + 1.0 / (L * r) + 0.5 / (L * r) ** 2))


def bl_bound_heavy(amplitude: float, index: float, L: float) -> float:
    """Closed-form upper bound on sqrt(B(L)) under Pareto tail domination:
    2 a sqrt(1/alpha^2 + 2/3) L^(-(1+2 alpha)/2)."""
    if L <= 0:
        raise ValueError("need L > 0")
    a, al = amplitude, index
    return 2.0 * a * math.sqrt(1.0 / (al * al) + 2.0 / 3.0) \
        * L ** (-(1.0 + 2.0 * al) / 2.0)


@dataclass(frozen=True)
class BLPartialSum:
    """Brute-force partial sum of the B(L) series plus a reported (not
    certified) estimate of the dropped tail."""
    partial: float
    k_max: int
    tail_estimate: float

    @property
    def sqrt_partial(self) -> float:
        return math.sqrt(self.partial)


def tail_cos_integrals(cf: CentralizedCF, density: Callable, L: float,
                       k_max: int, nodes_per_panel: int = 12) -> np.ndarray:
    """I_k = Int_{|x|>L} f(x) cos(k pi (x+L)/(2L)) dx for k = 0..k_max,
    evaluated through the identity I_k = L (c_k - a_k): c_k comes from the CF
    and a_k from composite Gauss-Legendre quadrature of the density on [-L, L].

    The identity is exact; accuracy is set by the quadrature of a_k, so tail
    masses far below ~1e-13 drown in cancellation noise (fine for oracle use
    at moderate L).
    """
    n_panels = max(32, k_max // 2)
    xg, wg = roots_legendre(nodes_per_panel)
    edges = np.linspace(-L, L, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    ws = (half[:, None] * wg[None, :]).ravel()
    fx = density(xs) * ws

    k = np.arange(k_max + 1)
    from .cos_engine import cos_coefficients
    c = cos_coefficients(cf, L, k_max)
    # a_k in manageable blocks: cos matrix is (k, nodes)
    a = np.empty(k_max + 1)
    blk = max(1, 4_000_000 // xs.size)
    for i in range(0, k_max + 1, blk):
        kb = k[i:i + blk, None]
        a[i:i + blk] = (np.cos(kb * (math.pi / (2.0 * L)) * (xs[None, :] + L))
                        @ fx) / L
    return L * (c - a)


def bl_bruteforce(tail_integrals, L: float, k_max: int = 10_000,
                  boundary_density: tuple[float, float] | None = None) -> BLPartialSum:
    """Partial sum of B(L) = sum_k (1/L) I_k^2 from precomputed tail
    integrals (a callable k_max -> I_k array, or the array itself).

    The result is a lower bound on B(L); the reported tail estimate uses the
    per-term majorant (2L/(k pi))^2 (f(L)^2 + f(-L)^2)/L for monotone tails
    when boundary densities are supplied.
    """
    if callable(tail_integrals):
        ik = np.asarray(tail_integrals(k_max), dtype=float)
    else:
        ik = np.asarray(tail_integrals, dtype=float)
    if ik.size < k_max + 1:
        raise ValueError("need tail integrals for k = 0..k_max")
    partial = float(np.sum(ik[:k_max + 1] ** 2) / L)
    tail = 0.0
    if boundary_density is not None:
        f_r, f_l = boundary_density
        tail = 8.0 * L / (math.pi ** 2 * k_max) * (f_r ** 2 + f_l ** 2)
    return BLPartialSum(partial=partial, k_max=k_max, tail_estimate=tail)
