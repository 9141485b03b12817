"""Certified selection of the COS parameters (M, L, N).

Given a model, a bound on the payoff, and a price tolerance, `tune` returns
ranges and a series length that provably keep the COS price within the
tolerance.  One range rule is picked by the model's tail profile -- the
moment rule for semi-heavy (exponential) tails, the Pareto rule for heavy
tails -- and one series-length rule, the integration-by-parts bound on the
series tail at a chosen derivative order, serves both.  The bound formulas
live in `bounds`; this module holds the rules that solve them: tolerance
shares, ranges and the rounding of N.
"""

import math
from dataclasses import dataclass

from .bounds import (DerivativeBound, bl_semiheavy_factor, hj_closed_form,
                     hj_numeric, series_log_coefficient, series_order_cap,
                     sqrt_rule_coefficient)
from .cos_engine import CosParameters
from .errors import (NoClosedForm, NoSmoothness, NotReachedWithinCap,
                     ToleranceTooLoose)
from .models import (HeavyTail, MarketContext, ModelSpec, SemiHeavyTail,
                     TailProfile, central_moment, centralized_cf, tail_profile)

__all__ = ["TuningRequest", "tune", "minimize_series_order"]

# the largest derivative order an order scan tries
_MAX_ORDER = 120


@dataclass(frozen=True)
class TuningRequest:
    """What to tune for: model and market, a uniform bound on the (bounded)
    payoff -- the strike for puts, 1 for digitals -- the price tolerance, the
    moment order used for the range rule, and the derivative order used for
    the series rule."""
    model: ModelSpec
    ctx: MarketContext
    payoff_bound: float
    tol: float
    moment_order: int = 8
    series_order: int = 40
    minimize_order: bool = False

    def __post_init__(self):
        if not (self.payoff_bound > 0 and math.isfinite(self.payoff_bound)):
            raise ValueError("payoff bound must be positive and finite")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tolerance must be positive and finite")
        if self.moment_order < 2 or self.moment_order % 2:
            raise ValueError("moment order must be even and >= 2")
        if self.series_order < 1:
            raise ValueError("series order must be >= 1")


def _h_next(model: ModelSpec, ctx: MarketContext, order: int,
            override: DerivativeBound | None) -> DerivativeBound:
    """Derivative bound H_(order+1): explicit override, else closed form,
    else the numeric integral."""
    if override is not None:
        if override.order != order + 1:
            raise ValueError(
                f"override bounds derivative {override.order}, need {order + 1}")
        return override
    try:
        return hj_closed_form(model, ctx, order + 1)
    except NoClosedForm:
        return hj_numeric(centralized_cf(model, ctx), order + 1)


def _ranges(req: TuningRequest,
            profile: TailProfile) -> tuple[float, float, float, dict]:
    """(M, L, xi) and the M/L provenance, with xi = sqrt(2M) * payoff bound.

    Semi-heavy tails: L = M from the even-moment tail rule
    (2 K mu_n / tol)^(1/n).  Heavy tails: M from the Pareto tail-mass rule,
    L from the substitution-term rule, never below M.
    """
    K, tol = req.payoff_bound, req.tol
    if isinstance(profile, SemiHeavyTail):
        n = req.moment_order
        mu_n = central_moment(req.model, req.ctx, n)
        M = L = (2.0 * K * mu_n / tol) ** (1.0 / n)
        if M == 0.0:
            raise ToleranceTooLoose(
                f"tolerance too loose: the even-moment range (2 K mu_{n} / "
                f"tol)^(1/{n}) underflows to 0")
        return M, L, math.sqrt(2.0 * M) * K, {
            "M": f"even-moment tail rule, order {n}",
            "L": "equal to M (semi-heavy tails)"}
    a, al = profile.amplitude, profile.index
    M = (4.0 * a * K / (tol * al)) ** (1.0 / al)
    xi = math.sqrt(2.0 * M) * K
    # xi * bl_bound_heavy(a, al, L) = tol/6 solved for L, kept in closed form:
    # a product through bl_bound_heavy's coefficient moves L by one ulp
    L = max(M, (12.0 * a * math.sqrt(1.0 / (al * al) + 2.0 / 3.0)
                * xi / tol) ** (2.0 / (1.0 + 2.0 * al)))
    return M, L, xi, {"M": f"Pareto tail-mass rule (index {al:.4g})",
                      "L": "max of M and the substitution-term rule"}


def _series_length(j: int, bound: DerivativeBound, L: float, xi: float,
                   tol: float) -> float:
    """Real-valued series length, never below 4L/pi.

    The smallest N at which xi times the leading term of
    `series_truncation_bound` meets its share of the tolerance: tol/6 for
    the square-root rule C_0 / sqrt(N) at j = 0, tol/12 for C_j / N^j at
    j >= 1 (solved in the log domain).  Raises NotReachedWithinCap when no
    finite length meets the tolerance.
    """
    try:
        if j == 0:
            n_bound = (sqrt_rule_coefficient(bound.value, L)
                       * 6.0 * xi / tol) ** 2
        else:
            n_bound = math.exp(
                (series_log_coefficient(j, bound.log_value, L)
                 + math.log(12.0 * xi / tol)) / j)
    except OverflowError:
        n_bound = math.inf
    n_real = max(4.0 * L / math.pi, n_bound)
    if not math.isfinite(n_real):
        raise NotReachedWithinCap(
            f"no finite series length meets tolerance {tol:g} at derivative "
            f"order {j}")
    return n_real


def _ceil_n(x: float) -> int:
    return max(1, int(math.ceil(x - 1e-12)))


def _check_semiheavy_range(profile: SemiHeavyTail, L: float, M: float,
                           xi: float, tol: float, with_series_cond: bool):
    """The selection rule is asymptotic in the tolerance; verify the three
    range conditions it silently needs, instead of trusting asymptotics."""
    a, r = profile.amplitude, profile.rate
    if L < profile.onset:
        raise ToleranceTooLoose(
            f"range {L:.4g} below the tail-domination onset {profile.onset:.4g}")
    l_density = -math.log(math.sqrt(r) / a * tol / (6.0 * xi)) / r
    l_subst = -math.log(tol / (6.0 * xi) / bl_semiheavy_factor(a, r, M)) / r
    checks = [("density-tail", l_density), ("substitution-term", l_subst)]
    if with_series_cond:
        l_series = -math.log(math.pi / (4.0 * a) * tol / (12.0 * xi)) / r
        checks.append(("series-boundary", l_series))
    for name, needed in checks:
        if L < needed:
            raise ToleranceTooLoose(
                f"tolerance too loose: range {L:.4g} fails the {name} "
                f"condition (needs >= {needed:.4g})")


def _best_order(req: TuningRequest, L: float, xi: float) -> tuple[int, int]:
    """(order, N) minimizing the series length over orders 1.._MAX_ORDER
    (clamped to the model's smoothness) for the given ranges; ties break
    toward the smaller order.  Needs closed-form derivative bounds."""
    cap = series_order_cap(req.model, req.ctx, _MAX_ORDER)
    if cap < 1:
        raise NoSmoothness("no derivative order >= 1 is admissible")
    n_star, j_star = min(
        (_ceil_n(_series_length(j, hj_closed_form(req.model, req.ctx, j + 1),
                                L, xi, req.tol)), j)
        for j in range(1, cap + 1))
    return j_star, n_star


def tune(req: TuningRequest, h_next: DerivativeBound | None = None) -> CosParameters:
    """Certified (M, L, N): the range rule picked by the model's tail profile
    and the series bound at the requested derivative order (clamped to the
    model's smoothness, minimized over orders when requested, or the
    square-root rule when only one bounded derivative exists).  h_next
    overrides the derivative bound H_(j+1).  The certified guarantee is
    |COS price - true price| <= tol.
    """
    profile = tail_profile(req.model, req.ctx)
    M, L, xi, provenance = _ranges(req, profile)
    if isinstance(profile, HeavyTail) and M < profile.onset:
        raise ToleranceTooLoose(
            f"payoff range {M:.4g} below the tail-domination onset "
            f"{profile.onset:.4g}")

    j = series_order_cap(req.model, req.ctx, req.series_order)
    if req.minimize_order and j >= 1:
        j, _ = _best_order(req, L, xi)

    bound = _h_next(req.model, req.ctx, j, h_next)
    N = _ceil_n(_series_length(j, bound, L, xi, req.tol))
    rule = ("square-root rule (one bounded derivative)" if j == 0
            else f"series bound at derivative order {j}")

    if isinstance(profile, SemiHeavyTail):
        _check_semiheavy_range(profile, L, M, xi, req.tol,
                               with_series_cond=j >= 1)

    return CosParameters(
        M=M, L=L, N=N, tol=req.tol,
        provenance={**provenance,
                    "N": f"{rule}, H_{j + 1} from {bound.source.value}"})


def minimize_series_order(req: TuningRequest) -> tuple[int, int]:
    """Scan derivative orders 1.._MAX_ORDER and return (order, N) minimizing
    the series-length bound; ties break toward the smaller order.

    Needs closed-form derivative bounds for a cheap sweep.
    """
    _, L, xi, _ = _ranges(req, tail_profile(req.model, req.ctx))
    return _best_order(req, L, xi)
