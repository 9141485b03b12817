"""Stock-price models: parameters, characteristic functions, tail profiles
and moments.

Every model is reduced to the centralized log-return X = log(S_T) - E[log(S_T)],
whose characteristic function phi satisfies phi(0) = 1, |phi| <= 1 and Hermitian
symmetry.  Pricing code only ever sees (phi, mu) with mu = E[log(S_T)].
"""

import math
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np
from scipy.special import gamma as _gamma_fn, k1e, kve

from .errors import ModelParameterError, MomentDoesNotExist

__all__ = [
    "BS", "NIG", "VG", "FMLS", "Stable", "Cauchy", "ModelSpec",
    "MarketContext", "CentralizedCF", "SemiHeavyTail", "HeavyTail",
    "TailProfile", "centralized_cf", "log_price_cf", "tail_profile",
    "central_moment", "cumulants", "closed_form_density", "stable_law",
    "pareto_amplitude",
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


@dataclass(frozen=True)
class BS:
    """Black-Scholes: lognormal stock with volatility sigma (per sqrt-year)."""
    sigma: float

    def __post_init__(self):
        _require_finite(self)
        if not self.sigma > 0:
            raise ModelParameterError(f"BS sigma must be > 0, got {self.sigma}")


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


_REAL_SCALARS = (float, int, np.floating, np.integer)


def _complex_arg(u):
    """phi's argument as complex: a real scalar (what QUADPACK passes, one
    point at a time) becomes an np.complex128, so phi runs as NumPy scalar
    math instead of paying ufunc dispatch on a 0-d array; every product
    with x + 0i is exact, so the value is the same bit for bit.  Arrays
    and complex scalars (a general complex product may round differently
    in scalar math) take the array path."""
    if isinstance(u, _REAL_SCALARS):
        return np.complex128(u)
    return np.asarray(u, dtype=complex)


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


def _stable_cf(alpha: float, beta: float, scale: float):
    """CF of a centred stable law in the standard parameterization (real
    arguments)."""
    tan_term = math.tan(math.pi * alpha / 2.0) if alpha != 1.0 else 0.0

    def phi(u):
        u = np.asarray(u, dtype=float)
        au = np.abs(u * scale)
        if alpha == 1.0 and beta != 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                skew = beta * np.sign(u) * (-2.0 / math.pi) * np.log(np.abs(u))
                expo = -au ** alpha * (1.0 - 1j * skew)
            return np.where(u == 0.0, 1.0 + 0.0j, np.exp(expo))
        skew = beta * np.sign(u) * tan_term
        return np.exp(-au ** alpha * (1.0 - 1j * skew))

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

    if isinstance(model, BS):
        var = model.sigma ** 2 * T

        def phi(u):
            u = _complex_arg(u)
            return np.exp(-0.5 * var * u * u)

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

        def phi(u):
            u = _complex_arg(u)
            return np.exp(d * T * (a - np.sqrt(a * a + u * u)))

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

        def phi(u):
            u = _complex_arg(u)
            base = 1.0 - 1j * th * nu * u + 0.5 * s * s * nu * u * u
            return base ** (-T / nu) * np.exp(-1j * u * th * T)

        mu = math.log(ctx.S0) + (ctx.r + w) * T + th * T
        return CentralizedCF(phi, mu, model, T, real=(th == 0.0),
                             zero_from=math.inf)

    if isinstance(model, FMLS):
        a = model.alpha
        c = model.sigma * T ** (1.0 / a)
        sec = 1.0 / math.cos(math.pi * a / 2.0)

        def phi(u):
            # exp(-c^alpha * sec(pi a/2) * (i u)^alpha), principal branch;
            # equals the stable CF with beta = -1 on the real axis and extends
            # analytically to Im(u) <= 0.
            u = _complex_arg(u)
            return np.exp(-(c ** a) * sec * (1j * u) ** a)

        mu = math.log(ctx.S0) + ctx.r * T + _fmls_log_moment_shift(model, T) * T
        # |phi| = exp(-(c u)^a) exactly, but the computed exponent is sec
        # times a cos(pi a / 2) that (i u)^a rounds apart: a few ulps of
        # pi/2 over |cos(pi a / 2)|, which no margin covers as a nears 1.
        # c is the scale of its stable_law
        zero = _zero_from(a, c, rel=_REL_ROUNDING + 2.0 ** -48 * abs(sec))
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
            return np.exp(-np.abs(u)) + 0.0j

        law = stable_law(model, T)
        return CentralizedCF(phi, 0.0, model, T, real=True,
                             zero_from=_zero_from(law.alpha, law.scale,
                                                  _REL_ROUNDING))

    raise ModelParameterError(f"unsupported model {model!r}")


def log_price_cf(cf: CentralizedCF) -> Callable[[np.ndarray], np.ndarray]:
    """CF of log(S_T) itself: u -> exp(i*u*mu) * phi(u)."""
    def phi_log(u):
        u = np.asarray(u, dtype=complex)
        return np.exp(1j * u * cf.mu) * cf.phi(u)
    return phi_log


# ---------------------------------------------------------------------------
# tail profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiHeavyTail:
    """Exponential tail domination |f(x)| <= amplitude * exp(-rate*|x|) for
    |x| >= onset."""
    amplitude: float
    rate: float
    onset: float

    def __post_init__(self):
        if not (self.amplitude > 0 and self.rate > 0):
            raise ModelParameterError("semi-heavy tail constants must be positive")


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
    return alpha * c_alpha * 0.5 * (1.0 + abs(beta)) * scale ** alpha


def _semiheavy_from_grid(density, rate: float, onset: float, x_hi: float,
                         two_sided: bool) -> SemiHeavyTail:
    """Calibrate the amplitude so amplitude*exp(-rate*|x|) dominates the
    density on a generous grid beyond the onset (10% safety margin).

    Works in log space: far out, density underflow times exp(rate*x) would
    otherwise produce 0 * inf.
    """
    xs = np.geomspace(onset, x_hi, 400)
    with np.errstate(divide="ignore"):
        log_s = np.log(density(xs)) + rate * xs
        if two_sided:
            log_s = np.maximum(log_s, np.log(density(-xs)) + rate * xs)
    sup = math.exp(float(np.max(log_s)))
    return SemiHeavyTail(amplitude=1.1 * sup, rate=rate, onset=onset)


def tail_profile(model: ModelSpec, ctx: MarketContext) -> TailProfile:
    """Tail-domination constants for the centralized log-return density.

    BS/NIG/VG yield semi-heavy profiles whose validity is grid-calibrated
    (the selection rules only need *valid* constants, not sharp ones).
    FMLS/Stable/Cauchy yield heavy profiles with the exact asymptotic
    Pareto amplitude of the stable family.
    """
    T = ctx.T

    if isinstance(model, BS):
        s2 = model.sigma ** 2 * T
        if s2 == 0.0:
            raise ModelParameterError(f"BS variance sigma^2 T = {s2} underflows")
        onset = 6.0 * math.sqrt(s2)
        rate = onset / s2  # log-slope of the Gaussian at the onset
        dens = closed_form_density(model, ctx)
        amp = 1.1 * dens(np.array([onset]))[0] * math.exp(rate * onset)
        # log-concavity makes the tangent bound exact beyond the onset
        return SemiHeavyTail(amplitude=float(amp), rate=rate, onset=onset)

    if isinstance(model, NIG):
        onset = 6.0 * math.sqrt(model.delta * T / model.alpha)
        dens = closed_form_density(model, ctx)
        # asymptotic decay rate is exactly alpha; the x^(-3/2) factor decays,
        # so the supremum of f(x)exp(alpha x) is attained on a compact set
        return _semiheavy_from_grid(dens, model.alpha, onset, 40.0 * onset,
                                    two_sided=False)

    if isinstance(model, VG):
        s, nu, th = model.sigma, model.nu, model.theta
        if s ** 4 == 0.0 or s * s * nu == 0.0:
            raise ModelParameterError("VG sigma^4 or sigma^2 nu underflows")
        lam = math.sqrt(th * th / s ** 4 + 2.0 / (s * s * nu)) - abs(th) / (s * s)
        if not lam > 0.0:
            raise ModelParameterError(f"VG tail decay rate rounds to {lam}")
        rate = 0.9 * lam  # strict slack absorbs the polynomial tail factor
        var = (s * s + nu * th * th) * T
        onset = 6.0 * math.sqrt(var)
        dens = closed_form_density(model, ctx)
        x_hi = max(40.0 * onset, 3.0 * max(T / nu - 1.0, 0.0) / (lam - rate))
        return _semiheavy_from_grid(dens, rate, onset, x_hi, two_sided=(th != 0.0))

    if isinstance(model, FMLS):
        model = stable_law(model, T)

    if isinstance(model, Stable):
        # FMLS's left tail approaches its asymptote from below once |x| is a
        # few scales out; grid-validated in the test suite
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
# samples of log(phi) on log_cf_cumulants' circle
_CUMULANT_POINTS = 64


def cumulants(model: ModelSpec, ctx: MarketContext) -> dict:
    """Cumulants (orders 2..8) of the centralized NIG and VG log-returns.

    NIG and drift-free VG use exact closed forms; VG with drift falls back
    to polynomial-fit differentiation of log(phi) near zero.  BS moments
    come in closed form from `central_moment`.
    """
    T = ctx.T
    if isinstance(model, NIG):
        a, d = model.alpha, model.delta
        return {2: d * T / a, 3: 0.0, 4: 3.0 * d * T / a ** 3, 5: 0.0,
                6: 45.0 * d * T / a ** 5, 7: 0.0, 8: 1575.0 * d * T / a ** 7}
    if isinstance(model, VG):
        s, nu, th = model.sigma, model.nu, model.theta
        if th == 0.0:
            return {2: s * s * T, 3: 0.0, 4: 3.0 * s ** 4 * nu * T, 5: 0.0,
                    6: 30.0 * s ** 6 * nu ** 2 * T, 7: 0.0,
                    8: 630.0 * s ** 8 * nu ** 3 * T}

        def log_phi(u):
            return -(T / nu) * np.log(1.0 - 1j * th * nu * u + 0.5 * s * s * nu * u * u)

        # nearest singularity of log(phi): smaller root of the quadratic base
        d_min = (math.sqrt(th * th * nu * nu + 2.0 * s * s * nu) - abs(th) * nu) \
            / (s * s * nu)
        return log_cf_cumulants(log_phi, 0.5 * d_min)
    raise MomentDoesNotExist(f"no cumulant table for {model!r}")


def log_cf_cumulants(log_phi, radius: float) -> dict:
    """Cumulants up to order 8 from samples of log(phi) on a complex circle.

    Trapezoidal Fourier extraction of the Taylor coefficients around zero;
    exponentially accurate when log(phi) is analytic on the closed disc of
    the given radius (choose it safely inside the nearest singularity).
    """
    angles = 2.0 * math.pi * np.arange(_CUMULANT_POINTS) / _CUMULANT_POINTS
    z = radius * np.exp(1j * angles)
    vals = np.asarray(log_phi(z), dtype=complex)
    coef = np.fft.fft(vals) / _CUMULANT_POINTS  # coef[m] = c_m * radius^m
    out = {}
    for m in range(2, _MAX_MOMENT_ORDER + 1):
        km = coef[m] / radius ** m * math.factorial(m) / (1j ** m)
        out[m] = float(km.real)
    return out


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
        return float(math.prod(range(1, n, 2)) * var ** (n // 2))
    if n > _MAX_MOMENT_ORDER:
        raise ValueError(f"moment order capped at {_MAX_MOMENT_ORDER} for "
                         f"{type(model).__name__}")
    return _central_moments_from_cumulants(cumulants(model, ctx))[n]


# ---------------------------------------------------------------------------
# closed-form densities (test oracles and tail calibration)
# ---------------------------------------------------------------------------

def closed_form_density(model: ModelSpec, ctx: MarketContext):
    """Closed-form density of the centralized log-return, vectorized over x,
    or None when no closed form exists (FMLS, general Stable)."""
    T = ctx.T

    if isinstance(model, BS):
        s2 = model.sigma ** 2 * T

        def dens(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-0.5 * x * x / s2) / math.sqrt(2.0 * math.pi * s2)

        return dens

    if isinstance(model, NIG):
        a, dT = model.alpha, model.delta * T

        def dens(x):
            x = np.asarray(x, dtype=float)
            rho = np.sqrt(dT * dT + x * x)
            # k1e(z) = exp(z) K_1(z) keeps the product finite for large x
            return (a * dT / math.pi) * k1e(a * rho) * np.exp(a * (dT - rho)) / rho

        return dens

    if isinstance(model, VG):
        s, nu, th = model.sigma, model.nu, model.theta
        p = T / nu - 0.5
        q = 2.0 * s * s / nu + th * th
        log_pref = (math.log(2.0) - (T / nu) * math.log(nu)
                    - 0.5 * math.log(2.0 * math.pi) - math.log(s)
                    - math.lgamma(T / nu))

        def dens(x):
            # density of the centered increment, evaluated in log space with
            # the scaled Bessel kve so exp(theta x / sigma^2) cannot overflow
            x = np.asarray(x, dtype=float) + th * T
            w = np.abs(x) * math.sqrt(q) / (s * s)
            log_f = (log_pref + th * x / (s * s)
                     + (T / (2.0 * nu) - 0.25) * np.log(x * x / q)
                     + np.log(kve(p, w)) - w)
            return np.exp(log_f)

        return dens

    if isinstance(model, Cauchy):
        def dens(x):
            x = np.asarray(x, dtype=float)
            return 1.0 / (math.pi * (1.0 + x * x))

        return dens

    return None
