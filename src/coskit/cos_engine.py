"""COS pricing core: cosine coefficients from a characteristic function,
closed-form payoff coefficients, and the truncated pricing sum.

The density of the centralized log-return is expanded in cosines on [-L, L];
the payoff is integrated on [-M, M] with M <= L.  Prices are the half-weighted
dot product of the two coefficient vectors.
"""

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DegeneratePayoffWarning
from .models import CentralizedCF, MarketContext

__all__ = [
    "CosParameters", "Put", "Call", "DigitalBelow", "Payoff", "PricingResult",
    "cos_coefficients", "payoff_coefficients", "cos_price",
]


@dataclass(frozen=True)
class CosParameters:
    """Truncation ranges and series length: payoff half-range M, density
    half-range L >= M, and the number of series terms N.

    provenance records which rule produced each value; tol is the certified
    price tolerance when the parameters came from a selection rule.
    """
    M: float
    L: float
    N: int
    tol: float | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.M <= self.L):
            raise ValueError(f"need 0 < M <= L, got M={self.M}, L={self.L}")
        if self.N < 1:
            raise ValueError(f"need N >= 1, got N={self.N}")


@dataclass(frozen=True)
class Put:
    strike: float

    def __post_init__(self):
        if not (self.strike > 0 and math.isfinite(self.strike)):
            raise ValueError("strike must be positive and finite")


@dataclass(frozen=True)
class Call:
    """Priced through the put of the same strike plus put-call parity."""
    strike: float

    def __post_init__(self):
        if not (self.strike > 0 and math.isfinite(self.strike)):
            raise ValueError("strike must be positive and finite")


@dataclass(frozen=True)
class DigitalBelow:
    """Pays 1 at maturity when the centralized log-return is <= threshold."""
    threshold: float

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise ValueError("digital threshold must be finite")


Payoff = Union[Put, Call, DigitalBelow]


@dataclass(frozen=True)
class PricingResult:
    price: float
    params: CosParameters
    tol: float | None
    elapsed_s: float
    degenerate: bool = False


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

# exact values of cos(k pi / 2) and sin(k pi / 2) by k mod 4
_COS_QUARTER = np.array([1.0, 0.0, -1.0, 0.0])
_SIN_QUARTER = np.array([0.0, 1.0, 0.0, -1.0])


def cos_coefficients(cf: CentralizedCF, L: float, N: int) -> np.ndarray:
    """Density cosine coefficients c_k = (1/L) Re{phi(k pi/(2L)) e^{ik pi/2}}
    for k = 0..N.  c_0 is exactly 1/L because phi(0) = 1."""
    k = np.arange(N + 1)
    vals = cf.phi(k * (math.pi / (2.0 * L)))
    quarter = k & 3
    return (vals.real * _COS_QUARTER[quarter]
            - vals.imag * _SIN_QUARTER[quarter]) / L


def _psi(a: float, b: float, L: float, N: int) -> np.ndarray:
    """Integrals of the basis cosines: Int_a^b cos(k pi (x+L)/(2L)) dx."""
    k = np.arange(N + 1)
    out = np.empty(N + 1)
    out[0] = b - a
    kk = k[1:]
    w = kk * (math.pi / (2.0 * L))
    out[1:] = (np.sin(w * (b + L)) - np.sin(w * (a + L))) / w
    return out


def _chi(a: float, b: float, L: float, N: int) -> np.ndarray:
    """Exponential-weighted basis integrals:
    Int_a^b e^x cos(k pi (x+L)/(2L)) dx."""
    k = np.arange(N + 1)
    w = k * (math.pi / (2.0 * L))
    tb, ta = w * (b + L), w * (a + L)
    return (math.exp(b) * (np.cos(tb) + w * np.sin(tb))
            - math.exp(a) * (np.cos(ta) + w * np.sin(ta))) / (1.0 + w * w)


def _upper_limit(payoff: Payoff, mu: float) -> float:
    """Upper end of the payoff's support on the centralized scale: the
    threshold of a digital, log(K) - mu for a put (and a call, which is
    priced through its put)."""
    if isinstance(payoff, DigitalBelow):
        return payoff.threshold
    if isinstance(payoff, (Put, Call)):
        return math.log(payoff.strike) - mu
    raise TypeError(f"unsupported payoff {payoff!r}")


def payoff_coefficients(payoff: Payoff, ctx: MarketContext, mu: float,
                        M: float, L: float, N: int) -> np.ndarray:
    """Closed-form payoff coefficients v_k = Int_{-M}^{M} v(x) e_k(x) dx for
    k = 0..N, with v the discounted payoff of the centralized log-return.

    When the payoff has no mass on [-M, M] (its upper limit is <= -M) the
    vector is zero and a DegeneratePayoffWarning is emitted.
    """
    if not (0.0 < M <= L):
        raise ValueError(f"need 0 < M <= L, got M={M}, L={L}")
    disc = math.exp(-ctx.r * ctx.T)
    d = _upper_limit(payoff, mu)
    if d <= -M:
        warnings.warn("payoff has no mass on the integration range",
                      DegeneratePayoffWarning)
        return np.zeros(N + 1)
    d = min(d, M)
    if isinstance(payoff, DigitalBelow):
        return disc * _psi(-M, d, L, N)
    K = payoff.strike
    return disc * (K * _psi(-M, d, L, N) - math.exp(mu) * _chi(-M, d, L, N))


def cos_prices(cf: CentralizedCF, payoff: Payoff, ctx: MarketContext,
               M: float, L: float, ns) -> list[float]:
    """One price per series length in ns, all with ranges (M, L).

    c_k and v_k depend on (L, k) alone, so one term vector of length
    max(ns) + 1 serves every N: the price at N is the sum of its first N + 1
    terms, bit for bit what a series built at N would give.  Each sum is
    math.fsum's, correctly rounded whatever the order of its input, over one
    list made from the term vector (a numpy array would make fsum unbox one
    scalar per term); the longest N sums the whole list.  Calls add the
    parity term S0 - K exp(-rT) on top of the put price; a payoff with no
    mass on [-M, M] prices at 0 (plus parity for a call).
    """
    if _upper_limit(payoff, cf.mu) <= -M:
        prices = [0.0] * len(ns)
    else:
        inner = Put(payoff.strike) if isinstance(payoff, Call) else payoff
        n_max = max(ns)
        terms = (cos_coefficients(cf, L, n_max)
                 * payoff_coefficients(inner, ctx, cf.mu, M, L, n_max))
        terms[0] *= 0.5
        terms = terms.tolist()
        prices = [math.fsum(terms if n == n_max else terms[:n + 1])
                  for n in ns]

    if isinstance(payoff, Call):
        parity = ctx.S0 - payoff.strike * math.exp(-ctx.r * ctx.T)
        prices = [p + parity for p in prices]
    return prices


def cos_price(cf: CentralizedCF, payoff: Payoff, ctx: MarketContext,
              params: CosParameters) -> PricingResult:
    """Price = half-weighted series sum_k' c_k v_k at the parameters' N (see
    cos_prices).  A payoff with no mass on [-M, M] prices at 0 (plus parity
    for a call) with degenerate=True."""
    t0 = time.perf_counter()
    price, = cos_prices(cf, payoff, ctx, params.M, params.L, [params.N])
    return PricingResult(price=price, params=params, tol=params.tol,
                         elapsed_s=time.perf_counter() - t0,
                         degenerate=_upper_limit(payoff, cf.mu) <= -params.M)
