"""Reference prices and derivations the benchmark checks coskit against.

Nothing here calls coskit.  European prices come from the Black-Scholes
formula or from a Lewis (2001) Fourier quadrature over characteristic
functions written out below, so they share no code with the COS engine.
The study checks use the closed forms behind each study: the variance-gamma
moments, the Cauchy image sum and the alias/series-tail balance.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import roots_legendre

# ---------------------------------------------------------------------------
# Black-Scholes
# ---------------------------------------------------------------------------


def _ncdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_put(S0, r, T, sigma, K):
    """Black-Scholes European put."""
    sT = sigma * math.sqrt(T)
    d1 = (math.log(S0 / K) + (r + 0.5 * sigma * sigma) * T) / sT
    d2 = d1 - sT
    return K * math.exp(-r * T) * _ncdf(-d2) - S0 * _ncdf(-d1)


def bs_call(S0, r, T, sigma, K):
    return bs_put(S0, r, T, sigma, K) + S0 - K * math.exp(-r * T)


# ---------------------------------------------------------------------------
# characteristic functions of X = log(S_T / S0) - rT, so that E[e^X] = 1
# ---------------------------------------------------------------------------

def log_return_cf(kind, params, T):
    """CF of the martingale log-return for 'bs' (sigma), 'nig' (alpha, delta;
    symmetric), 'vg' (sigma, nu, theta) or 'fmls' (alpha, sigma).  Each
    accepts complex u with -1 <= Im(u) <= 0, the strip the quadrature uses."""
    if kind == "bs":
        (sigma,) = params
        return lambda u: np.exp(-0.5 * sigma * sigma * T * (u * u + 1j * u))
    if kind == "nig":
        a, d = params
        w = -d * (a - math.sqrt(a * a - 1.0))
        return lambda u: np.exp(1j * u * w * T + d * T * (a - np.sqrt(a * a + u * u)))
    if kind == "vg":
        s, nu, th = params
        w = math.log(1.0 - th * nu - 0.5 * s * s * nu) / nu
        return lambda u: (np.exp(1j * u * w * T)
                          * (1.0 - 1j * th * nu * u + 0.5 * s * s * nu * u * u)
                          ** (-T / nu))
    if kind == "fmls":
        a, s = params
        c = s ** a * T / math.cos(math.pi * a / 2.0)
        # (iu)^alpha on the principal branch; E[e^X] = 1 fixes the drift c
        return lambda u: np.exp(1j * u * c - c * (1j * u) ** a)
    raise ValueError(f"no characteristic function for {kind!r}")


# ---------------------------------------------------------------------------
# Lewis quadrature
# ---------------------------------------------------------------------------

_GL_X, _GL_W = roots_legendre(20)


def _lewis_nodes(phi, eps):
    """Gauss-Legendre nodes and weights on [0, U] for the Lewis integrand
    phi(u - i/2)/(u^2 + 1/4), with U doubled until the integrand times U is
    below eps (the tail beyond U is then smaller than eps for every
    characteristic function above, whose moduli decay at least like u^-2)."""
    def size(u):
        return abs(complex(phi(u - 0.5j))) / (u * u + 0.25) * u

    U = 8.0
    while size(U) > eps and U < 1e5:
        U *= 2.0
    # quarter-width panels near 0, where the FMLS branch point sits at
    # distance 1/2 from the path; unit panels beyond
    edges = np.concatenate([np.arange(0.0, 2.0, 0.25), np.arange(2.0, U + 1.0, 1.0)])
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return u, w


def lewis_puts(kind, params, S0, r, T, strikes, eps=1e-15):
    """European puts by the Lewis formula
        C = S0 - sqrt(S0 K e^-rT)/pi * Int_0^inf Re[e^(-iuk) phi(u - i/2)]
                                                  / (u^2 + 1/4) du,
    k = log(K e^-rT / S0), and parity P = C - S0 + K e^-rT.  Vectorised over
    strikes; the quadrature error is of the order of eps per unit strike."""
    phi = log_return_cf(kind, params, T)
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    kd = strikes * math.exp(-r * T)
    k = np.log(kd / S0)
    u, w = _lewis_nodes(phi, eps)
    g = w * phi(u - 0.5j) / (u * u + 0.25)
    integral = np.empty(strikes.size)
    step = max(1, 2_000_000 // u.size)
    for i in range(0, strikes.size, step):
        integral[i:i + step] = (np.exp(-1j * np.outer(k[i:i + step], u)) @ g).real
    calls = S0 - np.sqrt(S0 * kd) / math.pi * integral
    return calls - S0 + kd


# ---------------------------------------------------------------------------
# derivations behind the studies
# ---------------------------------------------------------------------------

def vg_fourth_moment(sigma, nu, T):
    """mu_4 of the drift-free VG log-return: kappa_4 + 3 kappa_2^2 with
    kappa_2 = sigma^2 T and kappa_4 = 3 sigma^4 nu T."""
    return 3.0 * sigma ** 4 * T * (T + nu)


def sqrt_rule_n(h1, L, K, tol):
    """Square-root series rule (4 H_1 L / pi * 6 xi / tol)^2, xi = sqrt(2L) K."""
    xi = math.sqrt(2.0 * L) * K
    return (4.0 * h1 * L / math.pi * 6.0 * xi / tol) ** 2


def cauchy_alias_error(L, d, n_max=100_000):
    """Signed N -> infinity error of the COS price of P(X <= d) for the
    standard Cauchy with M = L: the series converges to the even 4L-periodic
    image sum of the density, sum_n [F(4nL + d) - F(4nL - 2L - d)], with
    F(y) = 1/2 + atan(y)/pi.  Each n != 0 pair is one arctan of a difference;
    the n = 0 pair minus F(d) is -atan(1/(2L + d))/pi; beyond |n| = n_max
    the terms sum to (L + d)/(4 L^2 (n_max + 1/2)) in closed form."""
    n = np.arange(1, n_max + 1, dtype=float)
    n = np.concatenate([-n, n])
    a = 4.0 * n * L + d
    b = 4.0 * n * L - 2.0 * L - d
    images = float(np.sum(np.arctan((2.0 * L + 2.0 * d) / (1.0 + a * b))))
    tail = (L + d) / (4.0 * L * L * (n_max + 0.5))
    return (images + tail) / math.pi - math.atan(1.0 / (2.0 * L + d)) / math.pi


def cauchy_balance_range(N, d):
    """Half-range where the Cauchy digital's alias error pi d / (12 L^2)
    meets the series-tail envelope 2L/(pi^2 N sqrt(1 + d^2)) e^(-N pi/(2L))."""
    def log_gap(L):
        log_alias = math.log(math.pi * d / (12.0 * L * L))
        log_tail = (math.log(2.0 * L / (math.pi ** 2 * N * math.sqrt(1 + d * d)))
                    - N * math.pi / (2.0 * L))
        return log_alias - log_tail
    return brentq(log_gap, 1.0, float(N), xtol=1e-12)


def loglog_slope(xs, ys):
    return float(np.polyfit(np.log2(np.asarray(xs, dtype=float)),
                            np.log2(np.asarray(ys, dtype=float)), 1)[0])
