"""COS pricing core: cosine coefficients from a characteristic function,
closed-form payoff coefficients, and the truncated pricing sum.

The density of the centralized log-return is expanded in cosines on [-L, L];
the payoff is integrated on [-M, M] with M <= L.  Prices are the half-weighted
dot product of the two coefficient vectors, taken only over the terms that
can be nonzero: every second k when phi is real, and no k whose frequency
k pi/(2L) lies where fl(phi) is exactly 0 (CentralizedCF.real, .zero_from).
The terms left out are exactly +-0, and every price is the correctly rounded
sum of its terms, so it is the full series' price bit for bit.

A long term vector is summed by one error-free split into a part that sums
exactly in any grouping and a remainder whose rounded sum has an error bound
known a priori; a prefix that bound cannot decide goes to math.fsum
(_prefix_sums).  The term vector itself is built in place, by the same IEEE
operations in the same order as the textbook expressions.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import NonFinitePrice, NotReachedWithinCap
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


def _indices(N: int | range) -> np.ndarray:
    """The k of a coefficient vector: 0..N for an int N, or the k of a
    range from 0 with a positive step."""
    if isinstance(N, range):
        if N.start != 0 or N.step < 1 or not N:
            raise ValueError(f"need a nonempty range from 0 with a positive "
                             f"step, got {N!r}")
        return np.arange(0, N.stop, N.step)
    return np.arange(N + 1)


def cos_coefficients(cf: CentralizedCF, L: float, N: int | range) -> np.ndarray:
    """Density cosine coefficients c_k = (1/L) Re{phi(k pi/(2L)) e^{ik pi/2}}
    for k = 0..N, or for the k of N when it is a range from 0.  c_0 is
    exactly 1/L because phi(0) = 1."""
    k = _indices(N)
    vals = cf.phi(k * (math.pi / (2.0 * L)))
    quarter = k & 3
    return (vals.real * _COS_QUARTER[quarter]
            - vals.imag * _SIN_QUARTER[quarter]) / L


def _basis_integrals(a: float, b: float, L: float, k: np.ndarray,
                     exp_weighted: bool) -> tuple:
    """Integrals of the basis cosines over [a, b] for the indices k (k[0] is
    0): psi_k = Int_a^b cos(k pi (x+L)/(2L)) dx and, when exp_weighted,
    chi_k = Int_a^b e^x cos(k pi (x+L)/(2L)) dx (else None).

    Both read one sine (and cosine) of the upper angle w (b+L).  The lower
    angle w (a+L) is exactly 0 when a = -L, where its sine is 0 and its
    cosine 1, so it is only evaluated when a + L != 0.  Each value is built
    in its own buffer by the operations of the textbook expressions, in
    their order, so only the allocations differ from them.
    """
    w = k * (math.pi / (2.0 * L))
    tb = w * (b + L)
    sb = np.sin(tb)
    lower = a + L != 0.0
    if lower:
        ta = w * (a + L)
        sa = np.sin(ta)
    psi = np.empty(k.size)
    psi[0] = b - a
    if lower:
        np.subtract(sb[1:], sa[1:], out=psi[1:])
        psi[1:] /= w[1:]
    else:
        np.divide(sb[1:], w[1:], out=psi[1:])
    if not exp_weighted:
        return psi, None
    # chi = (e^b (cos tb + w sb) - e^a (cos ta + w sa)) / (1 + w^2)
    chi = np.cos(tb, out=tb)
    chi += np.multiply(w, sb, out=sb)
    chi *= math.exp(b)
    if lower:
        lo = np.cos(ta, out=ta)
        lo += np.multiply(w, sa, out=sa)
        lo *= math.exp(a)
        chi -= lo
    else:
        chi -= math.exp(a)
    w *= w
    w += 1.0
    chi /= w
    return psi, chi


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
                        M: float, L: float, N: int | range) -> np.ndarray:
    """Closed-form payoff coefficients v_k = Int_{-M}^{M} v(x) e_k(x) dx for
    k = 0..N (or the k of N when it is a range from 0), with v the
    discounted payoff of the centralized log-return.  A call gets the
    coefficients of the put of its strike, through which it is priced.

    When the payoff has no mass on [-M, M] (its upper limit is <= -M) the
    vector is zero; cos_price reports such a price as degenerate.
    """
    if not (0.0 < M <= L):
        raise ValueError(f"need 0 < M <= L, got M={M}, L={L}")
    k = _indices(N)
    disc = math.exp(-ctx.r * ctx.T)
    d = _upper_limit(payoff, mu)
    if d <= -M:
        return np.zeros(k.size)
    d = min(d, M)
    digital = isinstance(payoff, DigitalBelow)
    psi, chi = _basis_integrals(-M, d, L, k, exp_weighted=not digital)
    if not digital:
        # disc (K psi - e^mu chi), the products taken in place
        psi *= payoff.strike
        chi *= math.exp(mu)
        psi -= chi
    psi *= disc
    return psi


# Term vectors shorter than this are summed by math.fsum over a list, longer
# ones in vector passes (the two cost the same at 1-2 k terms).
_VECTOR_SUM_MIN = 1024
# Longest series cos_prices prices, counted on the requested N whatever its
# support.  A vector of every term peaks at 80-88 B per term, so the cap is
# about 3 GB.
_MAX_TERMS = 2 ** 25


def _prefix_sums(terms: np.ndarray, ns) -> list[float]:
    """The sum of terms[:n + 1] for each n in ns (any order, repeats
    allowed), correctly rounded: bit for bit math.fsum's value, since a
    correctly rounded sum is unique.

    Below _VECTOR_SUM_MIN terms, math.fsum reads one list made from the
    vector (a numpy array would make it unbox one scalar per term).  Longer
    vectors are split once by error-free extraction (Rump, Ogita & Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput. 31(1),
    2008).  With sigma a power of two at least (m + 2) max|t| over the m
    terms read, q = (t + sigma) - sigma lies on the grid of 2^-53 sigma and
    r = t - q is exact with |r| <= 2^-53 sigma.  Every partial sum of q then
    stays on that grid below sigma, so any grouping of q sums exactly:
    np.add.reduceat sums q between the sorted distinct requested prefixes,
    and a running sum of those pieces gives the exact prefix sums P1.  The
    same pieces of r give rounded prefix sums P2, each term passing through
    at most n additions, so |P2 - sum r| <= gamma_n (n + 1) 2^-53 sigma
    < (n + 1)^2 2^-106 sigma for n (n + 1) < 2^53, a bound known before any
    pass over r (taken at 2^-1074 or more, which keeps it an exact product
    of an integer and a power of two).  s = fl(P1 + P2) is the correctly
    rounded sum wherever the exact error P1 + P2 - s, moved by +-bound,
    stays strictly inside half the gap to each neighbour of s and s is
    nonzero.  Any other prefix (a tie, a zero sum), and every prefix of a
    vector with a non-finite term or a sigma above 2^1023, goes to
    math.fsum, which keeps its exceptions.
    """
    n_terms = terms.size
    if n_terms >= _VECTOR_SUM_MIN:
        ends = sorted(set(ns))
        m = ends[-1] + 1
        head, q, r = terms[:m], np.empty(m), np.empty(m)
        top = float(np.max(np.abs(head, out=q)))
        e = math.frexp(top)[1] + (m + 1).bit_length()  # 2^e >= (m + 2) top
    if n_terms < _VECTOR_SUM_MIN or not (math.isfinite(top) and e <= 1023):
        full = terms.tolist()
        return [math.fsum(full if n == n_terms - 1 else full[:n + 1])
                for n in ns]

    # from here every partial sum is below 2^1023 in magnitude, so s and
    # both its neighbours are finite
    sigma = math.ldexp(1.0, e)
    np.add(head, sigma, out=q)
    q -= sigma
    np.subtract(head, q, out=r)
    starts = [0] + [n + 1 for n in ends[:-1]]
    p1 = np.cumsum(np.add.reduceat(q, starts))
    p2 = np.cumsum(np.add.reduceat(r, starts))
    bound = (np.array(ends) + 1.0) ** 2 * math.ldexp(1.0, max(e - 106, -1074))
    s = p1 + p2
    z = s - p1
    err = (p1 - (s - z)) + (p2 - z)              # TwoSum: p1 + p2 == s + err
    half_up = 0.5 * (np.nextafter(s, math.inf) - s)
    half_down = 0.5 * (s - np.nextafter(s, -math.inf))
    decided = ((s != 0.0) & (err + bound < half_up)
               & (err - bound > -half_down)).tolist()
    by_end = {n: s_n if ok else math.fsum(terms[:n + 1].tolist())
              for s_n, ok, n in zip(s.tolist(), decided, ends)}
    return [by_end[n] for n in ns]


def _support(cf: CentralizedCF, L: float, n_max: int) -> range:
    """The k <= n_max whose term c_k v_k can be nonzero.

    When phi is real, c_k at odd k is -Im(phi) sin(k pi/2) / L = +-0, so
    only even k count.  From k pi/(2L) >= cf.zero_from on, fl(phi) is 0 and
    so is c_k; the last k kept is one past the last grid frequency below
    it, which absorbs the rounding of k pi/(2L).  Far out (|u| of 1e100 and
    more) the products inside phi can overflow into nan instead: a series
    whose phi at its last frequency is not finite keeps every term.
    """
    w = math.pi / (2.0 * L)
    if not np.isfinite(cf.phi(n_max * w)):
        return range(n_max + 1)
    last = n_max if n_max * w < cf.zero_from else int(cf.zero_from / w) + 1
    return range(0, min(last, n_max) + 1, 2 if cf.real else 1)


def cos_prices(cf: CentralizedCF, payoff: Payoff, ctx: MarketContext,
               M: float, L: float, ns) -> list[float]:
    """One price per series length in ns, all with ranges (M, L).

    c_k and v_k depend on (L, k) alone, so one term vector serves every N.
    It holds only the terms that can be nonzero (_support): every other
    term is exactly +-0 (c_k = +-0 times a finite v_k).  The price at N is
    the correctly rounded sum of the kept terms with k <= N (_prefix_sums),
    so it is bit for bit what a full series built at N would give.  Calls
    add the parity term S0 - K exp(-rT) on top of the put price; a payoff
    with no mass on [-M, M] prices at 0 (plus parity for a call).  A
    requested N above _MAX_TERMS raises NotReachedWithinCap before anything
    is allocated.
    """
    n_max = max(ns)
    if n_max > _MAX_TERMS:
        raise NotReachedWithinCap(
            f"N = {n_max} exceeds the cap of {_MAX_TERMS} series terms")
    if _upper_limit(payoff, cf.mu) <= -M:
        prices = [0.0] * len(ns)
    else:
        ks = _support(cf, L, n_max)
        terms = cos_coefficients(cf, L, ks)
        terms *= payoff_coefficients(payoff, ctx, cf.mu, M, L, ks)
        terms[0] *= 0.5
        prices = _prefix_sums(terms, [min(n, ks[-1]) // ks.step for n in ns])

    if isinstance(payoff, Call):
        parity = ctx.S0 - payoff.strike * math.exp(-ctx.r * ctx.T)
        prices = [p + parity for p in prices]
    return prices


def cos_price(cf: CentralizedCF, payoff: Payoff, ctx: MarketContext,
              params: CosParameters) -> PricingResult:
    """Price = half-weighted series sum_k' c_k v_k at the parameters' N (see
    cos_prices).  A payoff with no mass on [-M, M] prices at 0 (plus parity
    for a call) with degenerate=True.  A nan or infinite sum raises
    NonFinitePrice."""
    t0 = time.perf_counter()
    price, = cos_prices(cf, payoff, ctx, params.M, params.L, [params.N])
    if not math.isfinite(price):
        raise NonFinitePrice(f"COS price of {cf.model!r} at T = {cf.T:g}, "
                             f"N = {params.N} is {price}")
    return PricingResult(price=price, params=params, tol=params.tol,
                         elapsed_s=time.perf_counter() - t0,
                         degenerate=_upper_limit(payoff, cf.mu) <= -params.M)
