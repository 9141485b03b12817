"""Stock-price models: parameters, characteristic functions, tail profiles
and moments.

Every model is reduced to the centralized log-return X = log(S_T) - E[log(S_T)],
whose characteristic function phi satisfies phi(0) = 1, |phi| <= 1 and Hermitian
symmetry.  Pricing code only ever sees (phi, mu) with mu = E[log(S_T)].
"""

import cmath
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np
from scipy.special import gamma as _gamma_fn

from .errors import ModelParameterError, MomentDoesNotExist

__all__ = [
    "BS", "NIG", "VG", "FMLS", "Stable", "Cauchy", "ModelSpec",
    "MarketContext", "CentralizedCF", "SemiHeavyTail", "HeavyTail",
    "TailProfile", "centralized_cf", "tail_profile", "central_moment",
    "cumulants", "stable_law", "bilateral_gamma",
]


# ---------------------------------------------------------------------------
# model parameter sets
# ---------------------------------------------------------------------------

def _require_finite(params) -> None:
    """Reject NaN and infinite fields of a parameter dataclass."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise ModelParameterError(
                f"{type(params).__name__} {f.name} must be finite, got {value}")


def _finite_power(value: float, exponent: float, what: str) -> float:
    """value ** exponent, or a ModelParameterError naming what overflows:
    float ** raises OverflowError for a finite value, and inf ** exponent
    is inf."""
    try:
        power = float(value) ** exponent
    except OverflowError:
        power = math.inf
    if not math.isfinite(power):
        raise ModelParameterError(f"{what} = {value}^{exponent:g} overflows")
    return power


@dataclass(frozen=True)
class BS:
    """Black-Scholes: lognormal stock with volatility sigma (per sqrt-year)."""
    sigma: float

    def __post_init__(self):
        _require_finite(self)
        if not self.sigma > 0:
            raise ModelParameterError(f"BS sigma must be > 0, got {self.sigma}")
        _finite_power(self.sigma, 2, "BS sigma^2")


@dataclass(frozen=True)
class NIG:
    """Symmetric normal inverse Gaussian (skew parameter fixed to zero)."""
    alpha: float
    delta: float

    def __post_init__(self):
        _require_finite(self)
        if not self.alpha > 0:
            raise ModelParameterError(f"NIG alpha must be > 0, got {self.alpha}")
        if not self.delta > 0:
            raise ModelParameterError(f"NIG delta must be > 0, got {self.delta}")


@dataclass(frozen=True)
class VG:
    """Variance gamma with volatility sigma, variance rate nu and drift theta."""
    sigma: float
    nu: float
    theta: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if not self.sigma > 0:
            raise ModelParameterError(f"VG sigma must be > 0, got {self.sigma}")
        if not self.nu > 0:
            raise ModelParameterError(f"VG nu must be > 0, got {self.nu}")


@dataclass(frozen=True)
class FMLS:
    """Finite moment log stable: maximally left-skewed stable log-returns.

    alpha in (1, 2) is the stability index, sigma > 0 the scale.  The heavy
    left tail has Pareto index alpha while the right tail decays exponentially,
    so every positive moment of S_T is finite.
    """
    alpha: float
    sigma: float

    def __post_init__(self):
        _require_finite(self)
        if not 1.0 < self.alpha < 2.0:
            raise ModelParameterError(f"FMLS alpha must be in (1, 2), got {self.alpha}")
        if not self.sigma > 0:
            raise ModelParameterError(f"FMLS sigma must be > 0, got {self.sigma}")
        _finite_power(self.sigma, self.alpha, "FMLS sigma^alpha")


@dataclass(frozen=True)
class Stable:
    """Raw stable law (not an exponential stock model): used for direct
    integrals against the density of X itself."""
    alpha: float
    beta: float
    scale: float
    loc: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if not 0.0 < self.alpha <= 2.0:
            raise ModelParameterError(f"Stable alpha must be in (0, 2], got {self.alpha}")
        if not -1.0 <= self.beta <= 1.0:
            raise ModelParameterError(f"Stable beta must be in [-1, 1], got {self.beta}")
        if not self.scale > 0:
            raise ModelParameterError(f"Stable scale must be > 0, got {self.scale}")


@dataclass(frozen=True)
class Cauchy:
    """Standard Cauchy density (scale 1, location 0), used as a raw density."""


ModelSpec = Union[BS, NIG, VG, FMLS, Stable, Cauchy]


@dataclass(frozen=True)
class MarketContext:
    """Spot, continuously compounded rate and maturity in years."""
    S0: float
    r: float
    T: float

    def __post_init__(self):
        _require_finite(self)
        if not self.S0 > 0:
            raise ModelParameterError(f"S0 must be > 0, got {self.S0}")
        if not self.T > 0:
            raise ModelParameterError(f"T must be > 0, got {self.T}")


def stable_law(model: ModelSpec, T: float) -> Stable | None:
    """The stable law of the centralized log-return at horizon T, with
    |phi(u)| = exp(-(scale |u|)^alpha): BS (alpha = 2, scale sigma sqrt(T/2)),
    FMLS (beta = -1, scale sigma T^(1/alpha)), Stable itself and Cauchy
    (alpha = scale = 1).  None for NIG and VG, which are not stable."""
    if isinstance(model, Stable):
        return model
    if isinstance(model, BS):
        return Stable(2.0, 0.0, model.sigma * math.sqrt(T / 2.0))
    if isinstance(model, FMLS):
        return Stable(model.alpha, -1.0, model.sigma * T ** (1.0 / model.alpha))
    return Stable(1.0, 0.0, 1.0) if isinstance(model, Cauchy) else None


def bilateral_gamma(model: VG, T: float) -> tuple[float, float, float]:
    """(k, eta+, eta-): the centralized VG log-return at horizon T plus
    theta T is G+ - G-, independent gamma laws of shape k = T/nu and scales
    eta+-, so phi's base 1 - i theta nu u + sigma^2 nu u^2/2 is
    (1 - i eta+ u)(1 + i eta- u), with eta+ - eta- = theta nu and
    eta+ eta- = sigma^2 nu/2.  The larger scale is a sum and the smaller
    the product over it, so neither cancels."""
    s, nu, th = model.sigma, model.nu, model.theta
    product = s * s * nu / 2.0
    if product == 0.0:
        raise ModelParameterError(f"VG sigma^2 nu / 2 = {product} underflows")
    big = math.sqrt(th * th * nu * nu / 4.0 + product) + abs(th) * nu / 2.0
    small = product / big
    return (T / nu, big, small) if th >= 0.0 else (T / nu, small, big)


# ---------------------------------------------------------------------------
# characteristic functions of the centralized log-return
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralizedCF:
    """Characteristic function phi of X = log(S_T) - E[log(S_T)] together with
    the centering shift mu = E[log(S_T)].

    phi is vectorized over numpy arrays.  For BS/NIG/VG/FMLS it also accepts
    complex arguments in the strip needed by damped-transform pricing.

    Two facts about phi as numpy evaluates it on real arrays, which the COS
    engine reads to skip terms that are exactly zero: `real` says its
    imaginary part is exactly 0 (a symmetric density), and `zero_from` is a
    frequency u0 with fl(phi(u)) exactly 0 for every |u| >= u0: read off
    the envelope of the model's `stable_law`, inf for NIG and VG.
    """
    phi: Callable[[np.ndarray], np.ndarray]
    mu: float
    model: ModelSpec
    T: float
    real: bool
    zero_from: float


# x + (-0 + 0i) is x + 0i for every real x, -0 included, in Python complex
# arithmetic as in NumPy
_PY_COMPLEX_ZERO = complex(-0.0, 0.0)
# z + (-0 - 0i) is z for every complex z, signed zeros included: it turns a
# Python complex into an np.complex128 with the same bits
_NUMPY_IDENTITY = np.complex128(complex(-0.0, -0.0))
# x * 1j takes x as x + 0i, so it is 1j * (x + 0i) bit for bit: the same
# products, summed in the other order
_NUMPY_I = np.complex128(1j)

# phi takes two routes.  A Python float u (what QUADPACK passes, one point
# at a time) runs the BS, NIG, VG and FMLS phi in Python scalars, by the
# operations NumPy applies to u + 0i, and so to the same bits at a fraction
# of the cost.  Python and NumPy multiply complex numbers by the same
# formula; on a zero imaginary part NumPy's complex exp and sqrt are libm's
# real ones, which `math` calls; and `cmath.exp` agrees with NumPy's complex
# exp on every finite argument of real part at most about 0, all that phi
# passes it.  Each operation keeps both operands complex where NumPy's were,
# so no mixed-mode rule can move a signed zero, and the complex power stays
# one NumPy scalar operation, whose algorithm Python's `**` does not share.
# Every other argument (an np.float64 too, whose arithmetic would warn where
# it overflows), and a float where an intermediate is not finite (a signed
# zero or a nan could come out otherwise), takes the array route
# np.asarray(u, dtype=complex), on which a scalar is a 0-d array.


# exp(x) rounds to exactly 0 for x below -745.14.  A stable law's zero_from
# is where the exact exponent (scale |u|)^alpha of its |phi| envelope
# reaches _CUT_EXPONENT.  If phi computes that exponent to within a relative
# error rel, there and at every larger |u|, it stays below -745.14 as long
# as _CUT_EXPONENT (1 - rel) exceeds _UNDERFLOW_MARGIN.  _REL_ROUNDING
# covers a few roundings and libm's exp, log and pow.
_CUT_EXPONENT = 750.0
_UNDERFLOW_MARGIN = 745.2
_REL_ROUNDING = 2.0 ** -40
_TINY = 2.0 ** -1022  # the least normal float


def _zero_from(alpha: float, scale: float, rel: float) -> float:
    """The frequency _CUT_EXPONENT^(1/alpha) / scale where a stable law's
    |phi| envelope reaches exp(-_CUT_EXPONENT), or inf where the rounding of
    phi's exponent is not bounded inside the underflow margin or the
    frequency overflows."""
    if _CUT_EXPONENT * (1.0 - rel) <= _UNDERFLOW_MARGIN:
        return math.inf
    try:
        return _CUT_EXPONENT ** (1.0 / alpha) / scale
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _strip_phi_underflows(law: Stable, gamma: float, u: float) -> bool:
    """Whether fl(phi(u - i gamma)) is exactly 0 for the BS or FMLS phi of
    `centralized_cf` with this `stable_law`, gamma > 0 and u >= 0.

    With gamma + iu = rho e^(i theta) and c the law's scale,
        Re log phi(u - i gamma) = -c^a sec(pi a/2) rho^a cos(a theta),
    which is -c^2 (u^2 - gamma^2) for BS and decreases in u for every a in
    (1, 2].  phi computes it to within a relative error
    _REL_ROUNDING + 2^-48 / |cos(a theta)|: the real-axis margin, where
    |cos(a theta)| = |cos(pi a/2)|, which at a = 2 also covers the
    cancellation in u^2 - gamma^2.  Past its sign change the exponent and
    |cos(a theta)| both grow with u, so where this holds it holds at every
    larger u.  Valid only where the real-axis cut is (zero_from finite);
    `reference._damped_support` applies it only there.
    """
    a = law.alpha
    cos = math.cos(a * math.atan2(u, gamma))
    if cos >= 0.0:
        return False
    if _CUT_EXPONENT * (1.0 - _REL_ROUNDING - 2.0 ** -48 / -cos) \
            <= _UNDERFLOW_MARGIN:
        return False
    # -exponent = (c rho)^a cos(a theta) / cos(pi a/2), compared in logs,
    # where rho^a may overflow
    return (a * math.log(law.scale * math.hypot(gamma, u))
            + math.log(cos / math.cos(math.pi * a / 2.0))
            >= math.log(_CUT_EXPONENT))


def _real_grid_power(u: np.ndarray, a: float, turn_cos: float,
                     turn_sin: float) -> np.ndarray:
    """(1j * u) ** a bit for bit, for a float array of 0 <= u with u^a
    at most max/4, without a complex power per node.

    For a non-integer a numpy takes that power by libm's cpow, which glibc
    computes as cexp(a clog(i u)).  At i u = +0 + iu, clog's real part is
    that of clog(u + 0i), and its imaginary part is atan2(u, +0) = pi/2 at
    every u > 0.  cexp then scales the cosine and sine of the phase
    a atan2(1, 0), which turn_cos and turn_sin hold, by exp(a Re clog):
    numpy's complex exp of a zero imaginary part is libm's real exp, and
    below exp's overflow cexp rescales nothing.  So the atan2 and the
    sincos of a constant at every node, and one complex exp, drop out.
    At u = 0 numpy's power is an exact 0, which the log would make -0.
    """
    z = u.astype(complex)
    with np.errstate(divide="ignore"):
        np.log(z, out=z)
    z.real *= a
    np.exp(z, out=z)
    np.multiply(z.real, turn_sin, out=z.imag)
    z.real *= turn_cos
    z[u == 0.0] = 0.0
    return z


def _vg_vanishes(model: VG, T: float, x):
    """Whether |phi(u)| of the VG `centralized_cf` rounds to 0 at a real u
    with |u| = x (an array).  -log|phi| = (T/nu) log|base|, and |base| is
    at least sigma^2 nu u^2/2 (its real part) and |theta nu u| (its
    imaginary part), whose logs cannot overflow; past _UNDERFLOW_MARGIN exp
    rounds to 0 with room for their rounding."""
    s, nu, th = model.sigma, model.nu, model.theta
    with np.errstate(divide="ignore"):
        log_u = np.log(x)
    log_base = 2.0 * (math.log(s) + log_u) + math.log(nu) - math.log(2.0)
    if th != 0.0:
        log_base = np.maximum(log_base,
                              math.log(abs(th)) + math.log(nu) + log_u)
    return T / nu * log_base >= _UNDERFLOW_MARGIN


def _zero_where_vanishing(value, u, vanishes):
    """value with 0 for each entry that is not finite at a real u where
    vanishes(|u|) says |phi| rounds to 0: the far-out mend of the VG and
    FMLS phi, where a power or a phase overflows into nan.  A 0-d result
    comes back as a scalar."""
    return np.where((u.imag == 0.0) & ~np.isfinite(value)
                    & vanishes(abs(u.real)), 0j, value)[()]


def _stable_cf(alpha: float, beta: float, scale: float):
    """CF of a centred stable law in the standard parameterization (real
    arguments).

    |u scale|^alpha and log|u| are the real parts of numpy's complex power
    and log of x + 0i, which are libm's cpow and clog (glibc's cpow is
    cexp(alpha clog(x))), as is its complex exp: numpy's real power and log
    round apart from libm's under AVX-512, so these values do not depend on
    the CPU features numpy dispatches to."""
    tan_term = math.tan(math.pi * alpha / 2.0) if alpha != 1.0 else 0.0

    def phi(u):
        u = np.asarray(u, dtype=float)
        au_a = ((np.abs(u * scale) + 0j) ** alpha).real
        if alpha == 1.0 and beta != 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                log_u = np.log(np.abs(u) + 0j).real
                skew = beta * np.sign(u) * (-2.0 / math.pi) * log_u
                expo = -au_a * (1.0 - 1j * skew)
            return np.where(u == 0.0, 1.0 + 0.0j, np.exp(expo))
        skew = beta * np.sign(u) * tan_term
        return np.exp(-au_a * (1.0 - 1j * skew))

    return phi


def _fmls_log_moment_shift(model: FMLS, T: float) -> float:
    """Convexity correction w with E[S_T] = S0*exp(rT) when
    log S_T = log S0 + (r + w) T + X_T;  w = sigma^alpha / cos(pi alpha / 2)."""
    return model.sigma ** model.alpha / math.cos(math.pi * model.alpha / 2.0)


def centralized_cf(model: ModelSpec, ctx: MarketContext) -> CentralizedCF:
    """Characteristic function of the centralized log-return and the shift
    mu = E[log(S_T)].

    The exponential stock models (BS, NIG, VG, FMLS) carry the martingale
    drift correction so that E[S_T] = S0*exp(rT).  Stable and Cauchy are raw
    densities: the market context only provides the horizon, mu is the
    location parameter (0 for Cauchy).
    """
    T = ctx.T

    # each phi computes its constant factors once, as the left operands they
    # were in -0.5 var u u and the like, so every value keeps its bits
    if isinstance(model, BS):
        var = model.sigma ** 2 * T
        half_var = -0.5 * var

        def phi(u):
            if type(u) is float:
                # -0.5 var u u on x + 0i is (half_var x) x + 0i while
                # half_var x is finite
                e = half_var * u
                if e - e == 0.0:
                    return math.exp(e * u) + 0j
            u = np.asarray(u, dtype=complex)
            # far out u u overflows, and exp rounds the -inf to the right 0
            with np.errstate(over="ignore", invalid="ignore"):
                return np.exp(half_var * u * u)

        mu = math.log(ctx.S0) + (ctx.r - 0.5 * model.sigma ** 2) * T
        # the stable scale sigma sqrt(T/2) matches the var that phi uses to
        # a few ulps only while sigma^2, T/2 and var are finite normal floats
        zero = math.inf
        if _TINY <= min(model.sigma ** 2, T / 2.0, var) and var < math.inf:
            law = stable_law(model, T)
            zero = _zero_from(law.alpha, law.scale, _REL_ROUNDING)
        return CentralizedCF(phi, mu, model, T, real=True, zero_from=zero)

    if isinstance(model, NIG):
        a, d = model.alpha, model.delta
        if a < 1.0:
            raise ModelParameterError(
                "NIG stock model needs alpha >= 1 for the martingale correction")

        dT, a2 = d * T, a * a

        def phi(u):
            if type(u) is float:
                # every imaginary part on x + 0i is +0 while u u is finite,
                # and then the exponent is at most 0 up to rounding
                e = dT * (a - math.sqrt(a2 + u * u))
                if -math.inf < e <= 0.0:
                    return math.exp(e) + 0j
            u = np.asarray(u, dtype=complex)
            # far out u u overflows, and exp rounds what follows to the
            # right 0
            with np.errstate(over="ignore", invalid="ignore"):
                return np.exp(dT * (a - np.sqrt(a2 + u * u)))

        w = -d * (a - math.sqrt(a * a - 1.0))
        mu = math.log(ctx.S0) + (ctx.r + w) * T
        return CentralizedCF(phi, mu, model, T, real=True, zero_from=math.inf)

    if isinstance(model, VG):
        s, nu, th = model.sigma, model.nu, model.theta
        mgf_arg = 1.0 - th * nu - 0.5 * s * s * nu
        if mgf_arg <= 0:
            raise ModelParameterError(
                "VG parameters admit no martingale correction "
                f"(1 - theta*nu - sigma^2*nu/2 = {mgf_arg} <= 0)")
        w = math.log(mgf_arg) / nu

        drift, curv, power = 1j * th * nu, 0.5 * s * s * nu, -T / nu
        # the Python complex factors of the scalar path
        one, curv_c, th_c, T_c = (complex(c) for c in (1.0, curv, th, T))
        # numpy takes an integer power from -99 to -1 by binary powering;
        # while |base| is at most no_overflow no product overflows, and
        # any other power reads a finite base
        by_products = power.is_integer() and -100.0 < power <= -1.0
        no_overflow = ((sys.float_info.max / 4.0) ** (1.0 / -power)
                       if by_products else sys.float_info.max)

        def phi(u):
            if type(u) is float:
                z = u + _PY_COMPLEX_ZERO
                turn = -1j * z * th_c * T_c
                if cmath.isfinite(turn):
                    base = one - drift * z + curv_c * z * z
                    rot = cmath.exp(turn)
                    # products that may overflow, and a base that did,
                    # take the array route
                    if abs(base) <= no_overflow:
                        return (base + _NUMPY_IDENTITY) ** power * rot
            u = np.asarray(u, dtype=complex)
            # a power by products may overflow into nan, and far out
            # u theta T overflows and the phase exp(-i u theta T) is nan;
            # neither warns, and both are mended below
            with np.errstate(over="ignore", invalid="ignore"):
                base = 1.0 - drift * u + curv * u * u
                rot = np.exp(-1j * u * th * T)
                value = base ** power * rot
                # a real u makes |phi| <= 1, so the sum of the real parts
                # is finite unless some value is not
                if not math.isfinite(value.real.sum()):
                    if by_products:
                        # |phi| is below 1e-308 where the products overflow
                        value = np.where(np.isfinite(value), value,
                                         np.exp(power * np.log(base)) * rot)
                    value = _zero_where_vanishing(
                        value, u, lambda x: _vg_vanishes(model, T, x))
            return value

        mu = math.log(ctx.S0) + (ctx.r + w) * T + th * T
        return CentralizedCF(phi, mu, model, T, real=(th == 0.0),
                             zero_from=math.inf)

    if isinstance(model, FMLS):
        a = model.alpha
        c = model.sigma * T ** (1.0 / a)
        sec = 1.0 / math.cos(math.pi * a / 2.0)
        c_a = _finite_power(c, a, "FMLS scale^alpha")
        coef = -c_a * sec
        # |phi| = exp(-(c u)^a) exactly, but the computed exponent is sec
        # times a cos(pi a / 2) that (i u)^a rounds apart: a few ulps of
        # pi/2 over |cos(pi a / 2)|, which no margin covers as a nears 1.
        # c is the scale of its stable_law.  Past the cut |(i u)^a| is at
        # least 750 / c^a; where it overflows phi computes nan, and phi
        # returns the 0 it rounds to
        zero = math.inf
        if c_a * sys.float_info.max > _CUT_EXPONENT:
            zero = _zero_from(a, c, rel=_REL_ROUNDING + 2.0 ** -48 * abs(sec))
        # up to |u| = quiet neither |(i u)^a| nor its product with coef
        # passes max/4, a few roundings short of overflow
        quiet = (sys.float_info.max / 4.0 / max(1.0, abs(coef))) ** (1.0 / a)
        # the phase of (i u)^a at every u > 0: a times clog's atan2(u, +0)
        turn = a * math.atan2(1.0, 0.0)
        turn_cos, turn_sin = math.cos(turn), math.sin(turn)

        def phi(u):
            # exp(-c^alpha * sec(pi a/2) * (i u)^alpha), principal branch;
            # equals the stable CF with beta = -1 on the real axis and extends
            # analytically to Im(u) <= 0.
            if type(u) is float and abs(u) <= quiet:
                return cmath.exp(coef * (u * _NUMPY_I) ** a)
            if (isinstance(u, np.ndarray) and u.dtype == np.float64
                    and u.ndim == 1 and u.size
                    and 0.0 <= u.min() and u.max() <= quiet):
                z = _real_grid_power(u, a, turn_cos, turn_sin)
                return np.exp(np.multiply(z, coef, out=z), out=z)
            u = np.asarray(u, dtype=complex)
            # past quiet (i u)^a or its product with coef may overflow into
            # nan, which warns of nothing and is mended below where |phi|
            # = exp(-(c |u|)^a) rounds to 0 (at every |u| >= zero_from)
            with np.errstate(over="ignore", invalid="ignore"):
                value = np.exp(coef * (1j * u) ** a)
                # a real u makes |phi| <= 1, so the sum of the real parts is
                # finite unless some value is not
                if not math.isfinite(value.real.sum()):
                    value = _zero_where_vanishing(
                        value, u, lambda x: np.exp(-(c * x) ** a) == 0.0)
            return value

        mu = math.log(ctx.S0) + ctx.r * T + _fmls_log_moment_shift(model, T) * T
        return CentralizedCF(phi, mu, model, T, real=False, zero_from=zero)

    if isinstance(model, Stable):
        phi = _stable_cf(model.alpha, model.beta, model.scale)
        # the real part of the exponent is -(c |u|)^a, computed directly
        # whatever beta is
        return CentralizedCF(phi, model.loc, model, T, real=(model.beta == 0.0),
                             zero_from=_zero_from(model.alpha, model.scale,
                                                  _REL_ROUNDING))

    if isinstance(model, Cauchy):
        def phi(u):
            u = np.asarray(u, dtype=float)
            # the complex exp of a zero imaginary part is libm's real exp,
            # whatever CPU features numpy's real exp dispatches to
            return np.exp(-np.abs(u) + 0.0j)

        law = stable_law(model, T)
        return CentralizedCF(phi, 0.0, model, T, real=True,
                             zero_from=_zero_from(law.alpha, law.scale,
                                                  _REL_ROUNDING))

    raise ModelParameterError(f"unsupported model {model!r}")


# ---------------------------------------------------------------------------
# tail profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiHeavyTail:
    """Exponential tail domination |f(x)| <= exp(log_amplitude - rate*|x|)
    for |x| >= onset.  The amplitude is carried as its log, which stays a
    float where the amplitude itself passes the float range."""
    log_amplitude: float
    rate: float
    onset: float

    def __post_init__(self):
        if not (math.isfinite(self.log_amplitude) and self.rate > 0):
            raise ModelParameterError(
                "semi-heavy tail constants must have a finite log amplitude "
                f"and a positive rate, got {self.log_amplitude:g} and "
                f"{self.rate:g}")


@dataclass(frozen=True)
class HeavyTail:
    """Pareto tail domination |f(x)| <= amplitude * |x|^(-1-index) for
    |x| >= onset."""
    amplitude: float
    index: float
    onset: float

    def __post_init__(self):
        if not (self.amplitude > 0 and self.index > 0):
            raise ModelParameterError("heavy tail constants must be positive")


TailProfile = Union[SemiHeavyTail, HeavyTail]


def pareto_amplitude(alpha: float, beta: float, scale: float) -> float:
    """Density-tail amplitude of a stable law: the density obeys
    f(x) ~ amplitude * |x|^(-1-alpha) on its heavier side, with
    amplitude = alpha * C_alpha * (1+|beta|)/2 * scale^alpha."""
    if alpha == 1.0:
        c_alpha = 2.0 / math.pi
    else:
        c_alpha = (1.0 - alpha) / (_gamma_fn(2.0 - alpha) * math.cos(math.pi * alpha / 2.0))
    return (alpha * c_alpha * 0.5 * (1.0 + abs(beta))
            * _finite_power(scale, alpha, "stable scale^alpha"))


def _log_tail(model: NIG | VG, T: float) -> tuple[float, float, float]:
    """(log s, rate, onset): s bounds sup f(x) e^(rate |x|) over |x| >= onset
    in closed form, for the centralized NIG or VG density f.

    NIG, rate alpha, dT = delta T, rho = sqrt(dT^2 + x^2): f(x) e^(alpha x)
    = (alpha dT/pi) e^(alpha dT) K_1(alpha rho) e^(alpha rho) rho^-1
    e^(-alpha dT^2/(x + rho)), and K_1(z) e^z <= sqrt(pi/(2z)) (1 + 3/(8z))
    (DLMF 10.40(ii)) and x + rho <= 2 rho leave rho^-1.5
    e^(-alpha dT^2/(2 rho)), which peaks at rho = alpha dT^2/3.

    VG, rate 0.9 lambda: X + theta T = G+ - G-, the gamma laws of shape k
    and scales eta+- of its `bilateral_gamma`, lambda = 1/max(eta+-).  For
    y >= y0, f(y) e^(rate y) <= sup_{w >= y0} g+(w) e^(rate w) times
    E[e^(-rate G-)] = (1 + rate eta-)^-k, where g+(w) e^(rate w) is
    w^(k-1) e^(-(1/eta+ - rate) w) / (Gamma(k) eta+^k); y0 > 0 for k <= 1.
    The left tail swaps the laws."""
    if isinstance(model, NIG):
        a, dT = model.alpha, model.delta * T
        var = dT / a
        if var == 0.0:
            raise ModelParameterError(f"NIG variance delta T / alpha = {var} "
                                      "underflows")
        onset = 6.0 * math.sqrt(var)
        rho0 = math.hypot(dT, onset)
        rho = max(rho0, a * dT * dT / 3.0)
        return (math.log(a * dT / math.pi) + a * dT
                + 0.5 * math.log(math.pi / (2.0 * a)) - 1.5 * math.log(rho)
                - a * dT * dT / (2.0 * rho)
                + math.log1p(3.0 / (8.0 * a * rho0))), a, onset

    s, nu, th = model.sigma, model.nu, model.theta
    k, eta_up, eta_down = bilateral_gamma(model, T)
    # the slower decay rate, which sqrt(theta^2/sigma^4 + 2/(sigma^2 nu))
    # - |theta|/sigma^2 equals but loses to cancellation; at theta = 0 the
    # two scales may differ by an ulp, and eta+ stands for both
    lam = 1.0 / (eta_up if th >= 0.0 else eta_down)
    if not lam > 0.0:
        raise ModelParameterError(f"VG tail decay rate rounds to {lam}")
    rate = 0.9 * lam  # strict slack absorbs the polynomial tail factor
    var = (s * s + nu * th * th) * T
    if var == 0.0:
        raise ModelParameterError(
            f"VG variance (sigma^2 + nu theta^2) T = {var} underflows")
    onset = 6.0 * math.sqrt(var)

    def side(eta, eta_other, y0):
        c = 1.0 / eta - rate
        if not c > 0.0:
            raise ModelParameterError(f"VG tail rate {rate:.6g} is not below "
                                      f"the decay rate {1.0 / eta:.6g}")
        w = max((k - 1.0) / c, y0) if k > 1.0 else y0
        if not w > 0.0:  # 1/eta overflows, and the peak of g+ rounds to 0
            raise ModelParameterError(f"VG gamma scale {eta:.6g} is too "
                                      "small for a tail bound")
        return ((k - 1.0) * math.log(w) - c * w - math.lgamma(k)
                - k * math.log(eta) - k * math.log1p(rate * eta_other))

    return max(side(eta_up, eta_down, onset + th * T) - rate * th * T,
               side(eta_down, eta_up, onset - th * T) + rate * th * T), \
        rate, onset


def tail_profile(model: ModelSpec, ctx: MarketContext) -> TailProfile:
    """Tail-domination constants for the centralized log-return density.

    BS/NIG/VG yield semi-heavy profiles a e^(-r|x|), |x| >= onset, with a in
    closed form and a 10% margin: the Gaussian's tangent at the onset, and
    proven bounds on sup f(x) e^(r|x|) for NIG and VG.  log a is carried, as
    a itself may pass the float range; it gates only the range conditions
    `tune` checks, and sets none of M, L or N.
    FMLS/Stable/Cauchy yield heavy profiles with the exact asymptotic Pareto
    amplitude of the stable family.
    """
    T = ctx.T

    if isinstance(model, BS):
        s2 = model.sigma ** 2 * T
        if s2 == 0.0:
            raise ModelParameterError(f"BS variance sigma^2 T = {s2} underflows")
        onset = 6.0 * math.sqrt(s2)
        rate = onset / s2  # log-slope of the Gaussian at the onset
        dens = math.exp(-0.5 * onset * onset / s2) / math.sqrt(2.0 * math.pi * s2)
        # log-concavity makes the tangent bound exact beyond the onset; an
        # amplitude that rounds to 0 far out is refused as a log of -inf
        a = 1.1 * dens * math.exp(rate * onset)
        return SemiHeavyTail(math.log(a) if a > 0.0 else -math.inf, rate, onset)

    if isinstance(model, (NIG, VG)):
        log_sup, rate, onset = _log_tail(model, T)
        return SemiHeavyTail(math.log(1.1) + log_sup, rate, onset)

    if isinstance(model, FMLS):
        model = stable_law(model, T)

    if isinstance(model, Stable):
        # the exact asymptotic constant, not a bound: a few scales out the
        # density approaches it from above at alpha >= 1.5 (by up to 24% at
        # the onset) and from below at alpha = 1.2
        amp = pareto_amplitude(model.alpha, model.beta, model.scale)
        return HeavyTail(amplitude=amp, index=model.alpha,
                         onset=max(1.0, 8.0 * model.scale))

    if isinstance(model, Cauchy):
        # f(x) = 1/(pi(1+x^2)) <= (1/pi) x^-2 everywhere
        return HeavyTail(amplitude=1.0 / math.pi, index=1.0, onset=1.0)

    raise ModelParameterError(f"unsupported model {model!r}")


# ---------------------------------------------------------------------------
# moments and cumulants
# ---------------------------------------------------------------------------

_MAX_MOMENT_ORDER = 8


def cumulants(model: ModelSpec, ctx: MarketContext) -> dict:
    """Cumulants (orders 2..8) of the centralized NIG and VG log-returns, in
    closed form.

    Symmetric NIG: kappa_2m = (2m-3)!! (2m-1)!! delta T / alpha^(2m-1).  VG,
    with the shape k and scales eta+- of its `bilateral_gamma`:
    kappa_n = k (n-1)! (eta+^n + (-eta-)^n), the sum of two gamma laws'
    cumulants.  BS moments come in closed form from `central_moment`.
    """
    T = ctx.T
    if isinstance(model, NIG):
        a, d = model.alpha, model.delta
        return {2: d * T / a, 3: 0.0, 4: 3.0 * d * T / a ** 3, 5: 0.0,
                6: 45.0 * d * T / a ** 5, 7: 0.0, 8: 1575.0 * d * T / a ** 7}
    if isinstance(model, VG):
        k, up, down = bilateral_gamma(model, T)
        return {n: k * math.factorial(n - 1) * (up ** n + (-down) ** n)
                for n in range(2, _MAX_MOMENT_ORDER + 1)}
    raise MomentDoesNotExist(f"no cumulant table for {model!r}")


def _central_moments_from_cumulants(k: dict) -> dict:
    """Central moments (orders 2..8) from cumulants with k1 = 0."""
    k2, k3, k4 = k[2], k[3], k[4]
    k5, k6, k7, k8 = k[5], k[6], k[7], k[8]
    return {
        2: k2,
        4: k4 + 3.0 * k2 ** 2,
        6: k6 + 15.0 * k4 * k2 + 10.0 * k3 ** 2 + 15.0 * k2 ** 3,
        8: (k8 + 28.0 * k6 * k2 + 56.0 * k5 * k3 + 35.0 * k4 ** 2
            + 210.0 * k4 * k2 ** 2 + 280.0 * k3 ** 2 * k2 + 105.0 * k2 ** 4),
    }


def central_moment(model: ModelSpec, ctx: MarketContext, n: int) -> float:
    """n-th central moment of the log-return density (n even, 2 <= n <= 8).

    Gaussian admits any even order via the double factorial; heavy-tailed
    models raise MomentDoesNotExist.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"moment order must be a positive even integer, got {n}")
    if isinstance(model, (FMLS, Stable, Cauchy)):
        raise MomentDoesNotExist(
            f"{type(model).__name__} has no finite moment of order {n}")
    if isinstance(model, BS):
        var = model.sigma ** 2 * ctx.T
        moment = float(math.prod(range(1, n, 2)) * var ** (n // 2))
    elif n > _MAX_MOMENT_ORDER:
        raise ValueError(f"moment order capped at {_MAX_MOMENT_ORDER} for "
                         f"{type(model).__name__}")
    else:
        moment = _central_moments_from_cumulants(cumulants(model, ctx))[n]
    if moment == 0.0:
        raise ModelParameterError(f"{type(model).__name__} central moment of "
                                  f"order {n} underflows to 0")
    return moment
