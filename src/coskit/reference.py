"""Independent reference pricers and quadrature oracles.

Everything here is deliberately separate from the COS engine so the two
routes can certify each other: Carr-Madan damped-transform pricing by
Simpson's rule, the Black-Scholes closed forms, the Cauchy CDF, and
Fourier-inversion evaluation of densities and their derivatives.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from .errors import DampingInadmissible, QuadratureFailure
from .models import (BS, FMLS, NIG, VG, CentralizedCF, MarketContext,
                     ModelSpec, Stable, log_price_cf)

__all__ = [
    "CarrMadanConfig", "carr_madan_call", "black_scholes_put",
    "black_scholes_call", "cauchy_cdf", "density_by_inversion",
    "derivative_by_inversion", "density_on_grid",
]


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def black_scholes_put(ctx: MarketContext, sigma: float, K: float) -> float:
    """Black-Scholes European put."""
    sT = sigma * math.sqrt(ctx.T)
    d1 = (math.log(ctx.S0 / K) + (ctx.r + 0.5 * sigma * sigma) * ctx.T) / sT
    d2 = d1 - sT
    return K * math.exp(-ctx.r * ctx.T) * ndtr(-d2) - ctx.S0 * ndtr(-d1)


def black_scholes_call(ctx: MarketContext, sigma: float, K: float) -> float:
    """Black-Scholes European call via parity with the put."""
    return black_scholes_put(ctx, sigma, K) + ctx.S0 - K * math.exp(-ctx.r * ctx.T)


def cauchy_cdf(x: float) -> float:
    """CDF of the standard Cauchy law."""
    return 0.5 + math.atan(x) / math.pi


# ---------------------------------------------------------------------------
# Fourier inversion oracles
# ---------------------------------------------------------------------------

def _oscillatory_quad(func, weight: str, wvar: float,
                      epsabs: float) -> tuple[float, float]:
    """QUADPACK Fourier integral on [0, inf) and its error estimate, with a
    retry ladder; the rule can emit garbage when pushed below roundoff on
    near-zero integrands.  With full_output QUADPACK reports trouble on a
    cycle in its return value instead of an IntegrationWarning; the
    finite/magnitude check is what decides a retry."""
    tol = epsabs
    for _ in range(3):
        with np.errstate(all="ignore"):
            val, err = quad(func, 0.0, np.inf, weight=weight, wvar=wvar,
                            epsabs=tol, limit=400, full_output=1)[:2]
        if np.isfinite(val) and abs(val) < 1e100:
            return val, err
        tol *= 1e3
    raise QuadratureFailure(f"oscillatory quadrature failed (weight={weight})")


def _inversion_integrand(phi, j: int):
    """u -> (-iu)^j phi(u), whose real and imaginary parts are the cos and
    sin parts of the inversion integral of f^(j)."""
    def g(u):
        return (-1j * u) ** j * phi(u) if j else phi(u)
    return g


def _nonzero_parts(phi, j: int = 0) -> tuple[bool, bool]:
    """Whether the real and the imaginary part of (-iu)^j phi(u) are nonzero
    somewhere on a fixed probe of u.  A symmetric model has a real phi, so
    one part vanishes identically and f^(j) is even (j even) or odd (j odd)."""
    probe = _inversion_integrand(phi, j)(np.geomspace(1e-3, 80.0, 32))
    return (bool(np.max(np.abs(np.real(probe))) > 0.0),
            bool(np.max(np.abs(np.imag(probe))) > 0.0))


def _inversion_point(phi, x: float, j: int = 0,
                     epsabs: float = 1e-12) -> tuple[float, float]:
    """f^(j)(x) = (1/pi) * Int_0^inf Re[(-iu)^j phi(u) exp(-iux)] du via the
    oscillatory QUADPACK rules (split into cos and sin parts), and the sum of
    QUADPACK's error estimates for the parts."""
    g = _inversion_integrand(phi, j)
    if abs(x) < 1e-12:
        # the Fourier kernel is flat at this scale and the oscillatory rules
        # misbehave at near-zero frequency
        val, err = quad(lambda u: float(np.real(g(u))), 0.0, np.inf,
                        epsabs=epsabs, limit=400, full_output=1)[:2]
        return val / math.pi, err / math.pi
    # symmetric models make one component vanish identically; skip it rather
    # than hand QUADPACK an all-zero function at tight tolerance
    has_real, has_imag = _nonzero_parts(phi, j)
    total, err = 0.0, 0.0
    if has_real:
        val, e = _oscillatory_quad(lambda u: float(np.real(g(u))),
                                   "cos", x, epsabs)
        total += val
        err += e
    if has_imag:
        val, e = _oscillatory_quad(lambda u: float(np.imag(g(u))),
                                   "sin", x, epsabs)
        total += val
        err += e
    return total / math.pi, err / math.pi


def density_by_inversion(cf: CentralizedCF, xs, epsabs: float = 1e-12):
    """Density of the centralized log-return on a grid, by adaptive Fourier
    inversion of its characteristic function (oracle-grade accuracy)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    try:
        return np.array([_inversion_point(cf.phi, float(x), 0, epsabs)[0]
                         for x in xs])
    except Exception as exc:  # pragma: no cover - quadpack failure path
        raise QuadratureFailure(f"density inversion failed: {exc}") from exc


def derivative_by_inversion(cf: CentralizedCF, j: int, xs,
                            epsabs: float = 1e-12):
    """j-th derivative of the density on a grid, by Fourier inversion."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    try:
        return np.array([_inversion_point(cf.phi, float(x), j, epsabs)[0]
                         for x in xs])
    except Exception as exc:  # pragma: no cover
        raise QuadratureFailure(f"derivative inversion failed: {exc}") from exc


def density_on_grid(cf: CentralizedCF, xs, u_max: float | None = None,
                    n_u: int | None = None):
    """Vectorized fixed-rule inversion: one Simpson panel over u for every x.

    Cheaper than the adaptive oracle when thousands of density values are
    needed (e.g. quadrature nodes); accuracy ~1e-10 for CFs that decay within
    the automatically chosen window.
    """
    xs = np.asarray(xs, dtype=float)
    if u_max is None:
        u_max = 1.0
        while abs(cf.phi(u_max)) > 1e-18 and u_max < 1e7:
            u_max *= 2.0
    if n_u is None:
        x_span = float(np.max(np.abs(xs))) if xs.size else 1.0
        # resolve both the oscillation exp(-iux) and the CF itself
        n_u = int(max(4096, 16 * u_max * x_span / (2 * math.pi)))
        n_u = min(n_u, 2_000_000)
    if n_u % 2 == 1:
        n_u += 1
    u = np.linspace(0.0, u_max, n_u + 1)
    w = np.ones(n_u + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (u_max / n_u) / 3.0
    pv = cf.phi(u) * w
    out = np.empty_like(xs, dtype=float)
    chunk = max(1, 8_000_000 // (n_u + 1))
    for i in range(0, xs.size, chunk):
        xb = xs[i:i + chunk, None]
        out[i:i + chunk] = (np.exp(-1j * xb * u[None, :]) @ pv).real / math.pi
    return out


# ---------------------------------------------------------------------------
# Carr-Madan pricer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CarrMadanConfig:
    """Simpson-rule configuration: number of intervals (even), damping factor
    and the upper limit of the Fourier integral."""
    n_terms: int = 2 ** 17
    damping: float = 0.1
    upper: float = 1200.0

    def __post_init__(self):
        if self.n_terms < 16 or self.n_terms % 2 != 0:
            raise ValueError("n_terms must be an even integer >= 16")
        if not (self.damping > 0 and self.upper > 0):
            raise ValueError("damping and upper limit must be positive")


def _damping_admissible(model: ModelSpec, damping: float) -> bool:
    """Is E[S_T^(1+damping)] finite?"""
    if isinstance(model, (BS, FMLS)):
        return True
    if isinstance(model, NIG):
        return model.alpha >= 1.0 + damping
    if isinstance(model, VG):
        z = 1.0 + damping
        return 1.0 - model.theta * model.nu * z \
            - 0.5 * model.sigma ** 2 * model.nu * z * z > 0
    if isinstance(model, Stable):
        return model.beta == -1.0 and model.alpha > 1.0
    return False  # Cauchy and anything else with no exponential moments


def carr_madan_call(cf: CentralizedCF, ctx: MarketContext, K: float,
                    cfg: CarrMadanConfig = CarrMadanConfig()) -> float:
    """European call by the damped Fourier transform of Carr-Madan, integrated
    with Simpson's rule on a uniform grid (no FFT).

    The damped transform is
        psi(u) = exp(-rT) phi_logS(u - i(damping+1))
                 / (damping^2 + damping - u^2 + i(2*damping+1)u)
    and the price is exp(-damping*k)/pi * Int_0^upper Re[exp(-iuk) psi(u)] du
    with k = log K.
    """
    g = cfg.damping
    if not _damping_admissible(cf.model, g):
        raise DampingInadmissible(
            f"E[S_T^{1 + g}] is infinite for {type(cf.model).__name__}")
    phi_log = log_price_cf(cf)
    k = math.log(K)
    n = cfg.n_terms
    # the damped integrand is regular at u = 0 for every supported model, so
    # the grid starts exactly there; any positive offset u0 biases the price
    # by ~integrand(0)*u0, which is documented by a sensitivity test
    u = np.linspace(0.0, cfg.upper, n + 1)
    numer = math.exp(-ctx.r * ctx.T) * phi_log(u - 1j * (g + 1.0))
    denom = g * g + g - u * u + 1j * (2.0 * g + 1.0) * u
    integrand = np.real(np.exp(-1j * u * k) * numer / denom)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    integral = cfg.upper / n / 3.0 * float(w @ integrand)
    return math.exp(-g * k) / math.pi * integral
