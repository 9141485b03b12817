"""Independent reference pricers and quadrature oracles: the one home of
the code that checks coskit rather than prices with it.

Everything here is deliberately separate from the COS engine so the two
routes can certify each other: Carr-Madan damped-transform pricing by
Simpson's rule, the Black-Scholes closed forms, the Cauchy CDF, the
closed-form densities of BS, NIG, VG and Cauchy, the Gaussian tail
integrals, Fourier-inversion evaluation of densities and their
derivatives, the scanned sup of a density derivative, and the
Gauss-Legendre cosine coefficients of a density with the brute-force B(L)
partial sum built on them.  Only the tail integrals read the engine: they
are L (c_k - a_k), with c_k from the characteristic function.
"""

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import k1e, kve, ndtr, roots_legendre, wofz

from .bounds import DerivativeBound, HjSource
from .cos_engine import cos_coefficients
from .errors import DampingInadmissible, QuadratureFailure
from .models import (BS, FMLS, NIG, VG, Cauchy, CentralizedCF, MarketContext,
                     ModelSpec, _strip_phi_underflows, stable_law)

__all__ = [
    "CarrMadanConfig", "carr_madan_call", "black_scholes_put",
    "black_scholes_call", "cauchy_cdf", "closed_form_density",
    "gauss_tail_cos_integrals", "derivative_by_inversion", "density_on_grid",
    "hj_density_sup",
    "density_cos_coefficients", "tail_cos_integrals", "BLPartialSum",
    "bl_bruteforce",
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


def gauss_tail_cos_integrals(L: float, sdev: float, k_max: int) -> np.ndarray:
    """I_k = Int_{|x|>L} f(x) cos(k pi (x+L)/(2L)) dx for k = 0..k_max and a
    centered Gaussian f of standard deviation sdev, through the Faddeeva
    function (exact and overflow-safe arbitrarily deep into the tail):
        exp(-w^2 s^2/2) erfc((L - i w s^2)/(s sqrt2))
          = exp(-L^2/(2 s^2)) exp(i L w) wofz((w s^2 + i L)/(s sqrt2)),
    w = k pi/(2L).  By symmetry I_k is 0 for odd k and carries the sign
    cos(k pi/2) for even k."""
    k = np.arange(k_max + 1)
    w = k * math.pi / (2.0 * L)
    z = (w * sdev * sdev + 1j * L) / (sdev * math.sqrt(2.0))
    half = (0.5 * math.exp(-L * L / (2.0 * sdev * sdev))
            * np.exp(1j * L * w) * wofz(z))
    out = 2.0 * half.real
    out[k % 4 == 2] *= -1.0
    out[k % 2 == 1] = 0.0
    return out


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
        val, err = quad(lambda u: g(u).real, 0.0, np.inf,
                        epsabs=epsabs, limit=400, full_output=1)[:2]
        return val / math.pi, err / math.pi
    # symmetric models make one component vanish identically; skip it rather
    # than hand QUADPACK an all-zero function at tight tolerance
    has_real, has_imag = _nonzero_parts(phi, j)
    total, err = 0.0, 0.0
    if has_real:
        val, e = _oscillatory_quad(lambda u: g(u).real, "cos", x, epsabs)
        total += val
        err += e
    if has_imag:
        val, e = _oscillatory_quad(lambda u: g(u).imag, "sin", x, epsabs)
        total += val
        err += e
    return total / math.pi, err / math.pi


def derivative_by_inversion(cf: CentralizedCF, j: int, xs):
    """j-th derivative of the density on a grid, by Fourier inversion."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    try:
        return np.array([_inversion_point(cf.phi, float(x), j)[0]
                         for x in xs])
    except Exception as exc:  # pragma: no cover
        raise QuadratureFailure(f"derivative inversion failed: {exc}") from exc


def _simpson_rule(cf: CentralizedCF, x_span: float) -> tuple:
    """The nodes u of density_on_grid's Simpson rule on [0, u_max] and phi
    times the weights there: u_max is where |phi| falls below 1e-18, and
    the step resolves both phi and exp(-iux) for |x| <= x_span."""
    u_max = 1.0
    while abs(cf.phi(u_max)) > 1e-18 and u_max < 1e7:
        u_max *= 2.0
    n_u = int(max(4096, 16 * u_max * x_span / (2 * math.pi)))
    n_u = min(n_u, 2_000_000)
    n_u += n_u % 2
    u = np.linspace(0.0, u_max, n_u + 1)
    w = np.ones(n_u + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (u_max / n_u) / 3.0
    return u, cf.phi(u) * w


# 4 pi to 65 digits
_FOUR_PI = Fraction("12.566370614359172953850573533118011536788677597500423283899778369")


def _chirp(t: Fraction, m: np.ndarray) -> np.ndarray:
    """exp(-i t m^2 / 2) for integers 0 <= m < 2^26, with the phase reduced
    mod 2 pi exactly up to the last few roundings.

    In turns the phase is m^2 s with s = t / (4 pi).  s is split into two
    26-bit floats and a rest, m^2 into two 26-bit halves, so each product
    of halves is exact and so is its distance to the nearest integer; only
    the rest's product, below s, is rounded.  Taken in float64, t m^2 / 2
    would lose the digits of its large integer part of turns.
    """
    s, parts = t / _FOUR_PI, []
    for _ in range(2):
        mant, e = math.frexp(float(s))
        parts.append(math.ldexp(math.floor(math.ldexp(mant, 26)), e - 26))
        s -= Fraction(parts[-1])
    m2 = m.astype(np.int64) ** 2
    halves = ((m2 >> 26).astype(float) * 2.0 ** 26,
              (m2 & (2 ** 26 - 1)).astype(float))
    products = [h * p for h in halves for p in parts]
    products.append(m2.astype(float) * float(s))
    turns = sum(x - np.rint(x) for x in products)
    return np.exp(-2j * math.pi * (turns - np.rint(turns)))


def _chirp_z(x: np.ndarray, m: int, t: Fraction) -> np.ndarray:
    """X_p = sum_j x_j exp(-i t j p) for p = 0..m-1 along the last axis of
    x: a chirp z-transform by Bluestein's FFT convolution, from
    j p = (j^2 + p^2 - (p - j)^2) / 2."""
    n = x.shape[-1]
    c = _chirp(t, np.arange(max(n, m)))
    size = 1 << (n + m - 2).bit_length()          # >= n + m - 1
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = c[:m].conj()
    kernel[size - n + 1:] = c[1:n][::-1].conj()
    conv = np.fft.ifft(np.fft.fft(x * c[:n], size) * np.fft.fft(kernel))
    return conv[..., :m] * c[:m]


def density_on_grid(cf: CentralizedCF, xs):
    """Fixed-rule inversion: one Simpson rule over u for every x.

    Cheaper than the adaptive oracle when thousands of density values are
    needed (e.g. quadrature nodes); accuracy ~1e-10 for CFs that decay within
    the automatically chosen window.  xs must be uniformly spaced along its
    first axis (a 1-D grid, or a 2-D array of uniform columns): on such a
    grid the rule is a chirp z-transform (Rabiner, Schafer & Rader 1969),
    one per column, whose value is the direct sum's to about 1e-14.
    """
    xs = np.asarray(xs, dtype=float)
    u, pv = _simpson_rule(cf, float(np.max(np.abs(xs))))
    cols = xs.reshape(xs.shape[0], -1).T
    n_x = cols.shape[1]
    step = float(cols[0, -1] - cols[0, 0]) / max(n_x - 1, 1)
    if not np.allclose(np.diff(cols, axis=1), step, rtol=1e-9, atol=0.0):
        raise ValueError("density_on_grid needs xs uniform along axis 0")
    # sum_j pv_j e^{-i (x_0 + p h) u_j}: the e^{-i x_0 u_j} factor goes into
    # each column's input, the e^{-i p h u_j} one is the transform at the
    # exact product of h and the node spacing u_1
    out = _chirp_z(pv * np.exp(-1j * cols[:, :1] * u), n_x,
                   Fraction(step) * Fraction(u[1])).real / math.pi
    return out.T.reshape(xs.shape)


# ---------------------------------------------------------------------------
# sup of a density derivative
# ---------------------------------------------------------------------------

# hj_density_sup's scan: the grid's reach in units of the CF's decay scale
# and its number of points on each side of 0; the screen's looser QUADPACK
# tolerance, and the multiple of QUADPACK's error estimate that widens each
# screened value into a band
_SCAN_SPAN = 8.0
_SCAN_HALF_POINTS = 60
_SCREEN_EPSABS = 1e-8
_SCREEN_BAND = 10.0


def hj_density_sup(cf: CentralizedCF, order: int) -> DerivativeBound:
    """sup_x |f^(j)(x)| located by scanning a Fourier-inverted derivative grid
    and refining around the best point (oracle-grade; used where the integral
    bound is too loose, e.g. the first derivative of a barely-C^1 density).

    This is a scan plus a local refine, not a certified upper bound: a peak
    narrower than the grid, or a second local maximum outside the refined
    bracket, is missed.  So `tune(req, h_next=hj_density_sup(cf, j + 1))`
    certifies only as far as the returned value really bounds
    sup |f^(j+1)|.

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
    # scan scale from the CF's decay: far past it the derivative is tiny
    scale = 1.0
    while abs(cf.phi(1.0 / scale)) > 0.5 and scale > 1e-12:
        scale /= 2.0
    half = np.geomspace(1e-3 * scale, _SCAN_SPAN * scale, _SCAN_HALF_POINTS)
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
# cosine coefficients of a density, tail integrals and the B(L) partial sum
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes per panel of the cosine-coefficient quadrature
_GL_NODES = 12


def density_cos_coefficients(density: Callable, L: float,
                             k_max: int) -> np.ndarray:
    """a_k = (1/L) Int_{-L}^{L} f(x) cos(k pi (x+L)/(2L)) dx for k = 0..k_max
    by composite Gauss-Legendre quadrature: 12 nodes on each of
    P = max(64, k_max // 2) equal panels.

    Node i of panel p sits at x = -L + h (p + s_i), h = 2L/P, s_i in (0, 1),
    so its angle is pi k (p + s_i)/P and its cosine the real part of
    e^{-i pi k p/P} e^{-i pi k s_i/P}.  The sum over panels of one node column
    is then a DFT of length 2P read at k mod 2P, times the exact phase
    e^{-i pi k s_i/P}.  `density` is called once, on the (P, 12) array of
    nodes, whose columns are uniform grids (as `density_on_grid` needs).
    """
    n_panels = max(64, k_max // 2)
    xg, wg = roots_legendre(_GL_NODES)
    s = 0.5 * (1.0 + xg)
    h = 2.0 * L / n_panels
    xs = -L + h * (np.arange(n_panels)[:, None] + s[None, :])
    fw = density(xs) * (0.5 * h * wg)
    spec = np.fft.fft(fw, n=2 * n_panels, axis=0)
    k = np.arange(k_max + 1)
    phase = np.exp(-1j * (math.pi / n_panels) * np.outer(k, s))
    return np.sum((spec[k % (2 * n_panels)] * phase).real, axis=1) / L


def tail_cos_integrals(cf: CentralizedCF, density: Callable, L: float,
                       k_max: int) -> np.ndarray:
    """I_k = Int_{|x|>L} f(x) cos(k pi (x+L)/(2L)) dx for k = 0..k_max,
    evaluated through the identity I_k = L (c_k - a_k): c_k comes from the CF
    and a_k from `density_cos_coefficients`.

    The identity is exact; accuracy is set by the quadrature of a_k, so tail
    masses far below ~1e-13 drown in cancellation noise (fine for oracle use
    at moderate L).
    """
    return L * (cos_coefficients(cf, L, k_max)
                - density_cos_coefficients(density, L, k_max))


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


def bl_bruteforce(tail_integrals, L: float, k_max: int = 10_000,
                  boundary_density: tuple[float, float] | None = None) -> BLPartialSum:
    """Partial sum of B(L) = sum_k (1/L) I_k^2 from the tail integrals
    I_0..I_k_max (an array, e.g. from `tail_cos_integrals`).

    The result is a lower bound on B(L); the reported tail estimate uses the
    per-term majorant (2L/(k pi))^2 (f(L)^2 + f(-L)^2)/L for monotone tails
    when boundary densities are supplied.
    """
    ik = np.asarray(tail_integrals, dtype=float)
    if ik.size < k_max + 1:
        raise ValueError("need tail integrals for k = 0..k_max")
    partial = float(np.sum(ik[:k_max + 1] ** 2) / L)
    tail = 0.0
    if boundary_density is not None:
        f_r, f_l = boundary_density
        tail = 8.0 * L / (math.pi ** 2 * k_max) * (f_r ** 2 + f_l ** 2)
    return BLPartialSum(partial=partial, k_max=k_max, tail_estimate=tail)


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
    """Is E[S_T^(1+damping)] finite, with phi given on the damped line?

    A raw Stable's phi takes real arguments only; its damped-strip form
    with beta = -1 is FMLS."""
    if isinstance(model, (BS, FMLS)):
        return True
    if isinstance(model, NIG):
        return model.alpha >= 1.0 + damping
    if isinstance(model, VG):
        z = 1.0 + damping
        return 1.0 - model.theta * model.nu * z \
            - 0.5 * model.sigma ** 2 * model.nu * z * z > 0
    return False  # Stable, Cauchy and anything else


def log_price_cf(cf: CentralizedCF) -> Callable[[np.ndarray], np.ndarray]:
    """CF of log(S_T) itself: u -> exp(i*u*mu) * phi(u)."""
    def phi_log(u):
        u = np.asarray(u, dtype=complex)
        return np.exp(1j * u * cf.mu) * cf.phi(u)
    return phi_log


def _damped_support(cf: CentralizedCF, gamma: float, u: np.ndarray) -> int:
    """The number of leading nodes of the ascending u >= 0 where the
    damped `log_price_cf(cf)(u - i gamma)` can be nonzero.

    For BS and FMLS these are the nodes before the first one where
    `_strip_phi_underflows` holds, which it then does at every later one.
    It is every node for any other model, for BS or FMLS without a
    certified real-axis cut (cf.zero_from inf; a finite one also makes the
    scale of their `stable_law` a positive finite float), and where
    e^(gamma mu), by which `log_price_cf` scales phi, overflows: a zero
    phi then makes a NaN node, not a zero one."""
    if not isinstance(cf.model, (BS, FMLS)) or math.isinf(cf.zero_from):
        return u.size
    with np.errstate(over="ignore"):
        if not np.isfinite(np.exp(gamma * cf.mu)):
            return u.size
    law = stable_law(cf.model, cf.T)
    return bisect.bisect_left(
        range(u.size), True,
        key=lambda i: _strip_phi_underflows(law, gamma, float(u[i])))


def carr_madan_call(cf: CentralizedCF, ctx: MarketContext, K: float,
                    cfg: CarrMadanConfig = CarrMadanConfig()) -> float:
    """European call by the damped Fourier transform of Carr-Madan, integrated
    with Simpson's rule on a uniform grid (no FFT).

    The damped transform is
        psi(u) = exp(-rT) phi_logS(u - i(damping+1))
                 / (damping^2 + damping - u^2 + i(2*damping+1)u)
    and the price is exp(-damping*k)/pi * Int_0^upper Re[exp(-iuk) psi(u)] du
    with k = log K.

    psi is evaluated only on the nodes where phi can be nonzero
    (`_damped_support`); the Simpson vector keeps its full length with
    exact zeros past them, so the sum is the full grid's bit for bit.
    """
    g = cfg.damping
    if not _damping_admissible(cf.model, g):
        raise DampingInadmissible(
            f"no damped transform with damping {g} for "
            f"{type(cf.model).__name__}")
    phi_log = log_price_cf(cf)
    k = math.log(K)
    n = cfg.n_terms
    gamma = g + 1.0
    # the damped integrand is regular at u = 0 for every supported model, so
    # the grid starts exactly there; any positive offset u0 biases the price
    # by ~integrand(0)*u0, which is documented by a sensitivity test
    u = np.linspace(0.0, cfg.upper, n + 1)
    m = _damped_support(cf, gamma, u)
    v = u[:m]
    numer = math.exp(-ctx.r * ctx.T) * phi_log(v - 1j * gamma)
    denom = g * g + g - v * v + 1j * (2.0 * g + 1.0) * v
    # the node at u = 0 is positive, or +0 where it underflows, so a zero
    # sum is +0 whatever the signs of the zeros past the cut would be
    integrand = np.zeros(n + 1)
    integrand[:m] = np.real(np.exp(-1j * v * k) * numer / denom)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    # numpy's pairwise sum, not a BLAS dot product, whose value depends on
    # the BLAS thread count
    integral = cfg.upper / n / 3.0 * float(np.sum(w * integrand))
    return math.exp(-g * k) / math.pi * integral
