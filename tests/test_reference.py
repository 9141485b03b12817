import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from coskit.cos_engine import Put, cos_price
from coskit.errors import DampingInadmissible
from coskit.harness import VG_SETUP, run_vg_counterexample
from coskit.models import (BS, FMLS, NIG, VG, Cauchy, MarketContext, Stable,
                           centralized_cf, closed_form_density)
from coskit.reference import (CarrMadanConfig, black_scholes_call,
                              black_scholes_put, carr_madan_call, cauchy_cdf,
                              density_by_inversion, density_on_grid,
                              derivative_by_inversion)
from coskit.tuning import TuningRequest, tune

CTX = MarketContext(S0=100.0, r=0.0, T=1.0)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_put_call_parity_of_closed_forms():
    ctx = MarketContext(100.0, 0.03, 0.7)
    for K in (80.0, 100.0, 120.0):
        lhs = black_scholes_call(ctx, 0.25, K) - black_scholes_put(ctx, 0.25, K)
        assert lhs == pytest.approx(ctx.S0 - K * math.exp(-ctx.r * ctx.T),
                                    rel=1e-14)


def test_cauchy_cdf_values():
    assert cauchy_cdf(0.0) == 0.5
    assert cauchy_cdf(1.23) == pytest.approx(0.5 + math.atan(1.23) / math.pi,
                                             rel=1e-15)
    assert cauchy_cdf(-1.23) == pytest.approx(1.0 - cauchy_cdf(1.23), rel=1e-14)


# ---------------------------------------------------------------------------
# Carr-Madan
# ---------------------------------------------------------------------------

def test_carr_madan_reproduces_lognormal_call():
    cf = centralized_cf(BS(0.2), CTX)
    price = carr_madan_call(cf, CTX, 100.0)
    assert abs(price - black_scholes_call(CTX, 0.2, 100.0)) <= 1e-8


def test_simpson_grid_halving_stability():
    cf = centralized_cf(BS(0.2), CTX)
    base = carr_madan_call(cf, CTX, 100.0)
    fine = carr_madan_call(cf, CTX, 100.0, CarrMadanConfig(2 ** 18, 0.1, 1200.0))
    assert abs(base - fine) < 1e-10


def test_carr_madan_vg_reference_price():
    ctx = MarketContext(100.0, 0.0, 0.25)
    cf = centralized_cf(VG(0.1, 0.2, 0.0), ctx)
    assert carr_madan_call(cf, ctx, 100.0) == pytest.approx(1.809833, abs=5e-6)


def test_carr_madan_fmls_reference_price():
    cf = centralized_cf(FMLS(1.5597, 0.1486), CTX)
    price = carr_madan_call(cf, CTX, 100.0)
    assert price == pytest.approx(9.7433708, abs=5e-7)
    # thirteen-digit cross-check constant recorded from the same study
    assert price == pytest.approx(9.743370825229, abs=1e-9)


def test_carr_madan_default_parameter_variant():
    cf = centralized_cf(FMLS(1.5597, 0.1486), CTX)
    price = carr_madan_call(cf, CTX, 100.0, CarrMadanConfig(4096, 1.5, 1024.0))
    assert price == pytest.approx(9.7433708, abs=1e-2)


def test_fmls_deep_itm_call_recovers_forward():
    # validates the martingale drift correction end to end: a strike far in
    # the money prices to the discounted forward
    ctx = MarketContext(100.0, 0.02, 1.0)
    cf = centralized_cf(FMLS(1.5597, 0.1486), ctx)
    K = 1e-3
    price = carr_madan_call(cf, ctx, K, CarrMadanConfig(2 ** 17, 0.75, 1200.0))
    forward = ctx.S0 - K * math.exp(-ctx.r * ctx.T)
    assert price == pytest.approx(forward, abs=5e-4)


def test_offset_sensitivity_documented():
    # starting the grid at u0 > 0 biases the price by ~integrand(0) * u0 / pi
    # (damped); the implementation therefore starts at exactly zero
    cf = centralized_cf(BS(0.2), CTX)
    exact = black_scholes_call(CTX, 0.2, 100.0)
    base = carr_madan_call(cf, CTX, 100.0)
    assert abs(base - exact) < 1e-10


def test_damping_admissibility():
    with pytest.raises(DampingInadmissible):
        carr_madan_call(centralized_cf(Cauchy(), CTX), CTX, 100.0)
    with pytest.raises(DampingInadmissible):
        carr_madan_call(centralized_cf(Stable(1.5, 0.0, 1.0), CTX), CTX, 100.0)
    # NIG needs alpha >= 1 + damping
    with pytest.raises(DampingInadmissible):
        carr_madan_call(centralized_cf(NIG(1.05, 0.8), CTX), CTX, 100.0,
                        CarrMadanConfig(2 ** 14, 0.5, 600.0))
    # every positive damping works for the maximally skewed stable model
    cf = centralized_cf(FMLS(1.5597, 0.1486), CTX)
    price = carr_madan_call(cf, CTX, 100.0, CarrMadanConfig(2 ** 16, 5.0, 1200.0))
    assert math.isfinite(price)


def test_config_validation():
    with pytest.raises(ValueError):
        CarrMadanConfig(15, 0.1, 1200.0)
    with pytest.raises(ValueError):
        CarrMadanConfig(2 ** 10 + 1, 0.1, 1200.0)
    with pytest.raises(ValueError):
        CarrMadanConfig(2 ** 10, -0.1, 1200.0)


# ---------------------------------------------------------------------------
# inversion oracles
# ---------------------------------------------------------------------------

def test_gaussian_density_inversion_accuracy():
    cf = centralized_cf(BS(0.2), CTX)
    xs = np.linspace(-1.0, 1.0, 21)
    dens = closed_form_density(BS(0.2), CTX)
    assert np.max(np.abs(density_by_inversion(cf, xs) - dens(xs))) <= 1e-10


def test_derivative_inversion_against_hermite_forms():
    cf = centralized_cf(BS(0.2), CTX)
    s2 = 0.04
    xs = np.linspace(-0.9, 0.9, 13)
    f = closed_form_density(BS(0.2), CTX)(xs)
    d1 = derivative_by_inversion(cf, 1, xs)
    np.testing.assert_allclose(d1, -xs / s2 * f, atol=1e-10)
    d2 = derivative_by_inversion(cf, 2, xs)
    np.testing.assert_allclose(d2, (xs * xs / s2 - 1.0) / s2 * f, atol=1e-10)


def test_vg_counterexample_emits_no_integration_warning():
    # QUADPACK flags roundoff on some cycles of every VG T = 0.25 scan point;
    # it reports that through its return value, never as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        run_vg_counterexample()


def test_flagged_vg_derivative_matches_mpmath():
    # three points of hj_density_sup's scan for the VG counterexample (scale
    # 1/32) where QUADPACK flags cycles: the peak region, the shoulder and
    # the tail of f'(x) = -(1/pi) Int_0^inf u phi(u) sin(ux) du
    s = VG_SETUP
    ctx = MarketContext(S0=s["S0"], r=s["r"], T=s["T"])
    cf = centralized_cf(VG(s["sigma"], s["nu"], s["theta"]), ctx)
    xs = np.geomspace(1e-3 / 32, 8.0 / 32, 60)[[38, 49, 55]]
    got = derivative_by_inversion(cf, 1, xs)
    with mpmath.workdps(20):
        sig, nu, T = (mpmath.mpf(s[k]) for k in ("sigma", "nu", "T"))

        def weight(u):
            return u * (1 + sig ** 2 * nu * u ** 2 / 2) ** (-T / nu)

        for x, val in zip(xs, got):
            ref = -mpmath.quadosc(lambda u: weight(u) * mpmath.sin(u * x),
                                  [0, mpmath.inf], omega=x) / mpmath.pi
            assert abs(val - float(ref)) <= 1e-12 * abs(float(ref))


def test_grid_inversion_matches_adaptive():
    cf = centralized_cf(FMLS(1.5597, 0.1486), CTX)
    xs = np.linspace(-4.0, 1.5, 23)
    np.testing.assert_allclose(density_on_grid(cf, xs),
                               density_by_inversion(cf, xs),
                               rtol=0, atol=1e-7)


def test_grid_inversion_takes_uniform_columns_only():
    # each column of a 2-D grid is one chirp z-transform; the columns share
    # their step, and a grid that is not uniform along axis 0 is refused
    cf = centralized_cf(FMLS(1.5597, 0.1486), CTX)
    cols = np.linspace(-4.0, 1.5, 23)[:, None] + np.array([0.0, 0.05, 0.11])
    got = density_on_grid(cf, cols)
    assert got.shape == cols.shape
    for c in range(cols.shape[1]):
        np.testing.assert_allclose(got[:, c], density_on_grid(cf, cols[:, c]),
                                   rtol=0, atol=1e-13)
    with pytest.raises(ValueError):
        density_on_grid(cf, np.geomspace(0.1, 2.0, 9))


# ---------------------------------------------------------------------------
# cross-pricer agreement
# ---------------------------------------------------------------------------

def test_three_pricers_agree_for_lognormal():
    tol = 1e-6
    cf = centralized_cf(BS(0.2), CTX)
    for K in (80.0, 90.0, 100.0, 110.0, 120.0):
        params = tune(TuningRequest(BS(0.2), CTX, payoff_bound=K, tol=tol))
        cos_put = cos_price(cf, Put(K), CTX, params).price
        cm_put = carr_madan_call(cf, CTX, K) - CTX.S0 + K * math.exp(-CTX.r * CTX.T)
        an_put = black_scholes_put(CTX, 0.2, K)
        assert abs(cos_put - an_put) <= 2 * tol
        assert abs(cm_put - an_put) <= 2 * tol
        assert abs(cos_put - cm_put) <= 2 * tol


def test_two_pricers_agree_for_nig():
    tol = 1e-6
    model = NIG(2.0, 0.6)
    cf = centralized_cf(model, CTX)
    for K in (80.0, 100.0, 120.0):
        params = tune(TuningRequest(model, CTX, payoff_bound=K, tol=tol))
        cos_put = cos_price(cf, Put(K), CTX, params).price
        cm_put = carr_madan_call(cf, CTX, K) - CTX.S0 + K * math.exp(-CTX.r * CTX.T)
        assert abs(cos_put - cm_put) <= 2 * tol


def test_two_pricers_agree_for_smooth_vg():
    # long maturity keeps the density smooth enough for the series rule
    tol = 1e-6
    ctx = MarketContext(100.0, 0.0, 2.0)
    model = VG(0.12, 0.2, 0.0)
    cf = centralized_cf(model, ctx)
    for K in (80.0, 100.0, 120.0):
        params = tune(TuningRequest(model, ctx, payoff_bound=K, tol=tol,
                                    moment_order=4))
        cos_put = cos_price(cf, Put(K), ctx, params).price
        cm_put = carr_madan_call(cf, ctx, K) - ctx.S0 + K * math.exp(-ctx.r * ctx.T)
        assert abs(cos_put - cm_put) <= 2 * tol


# ---------------------------------------------------------------------------
# the oracle home
# ---------------------------------------------------------------------------

def test_pricing_modules_import_no_oracles():
    # tuning, pricing and the certified bounds load neither the oracles nor
    # scipy.optimize (which scipy.integrate pulls in); the harness, which
    # imports the oracles, still leaves out scipy.signal, which only
    # density_on_grid needs
    import coskit
    code = ("import sys\n"
            "import coskit.tuning, coskit.cos_engine, coskit.bounds\n"
            "print(sorted(m for m in ('coskit.reference', 'scipy.optimize')\n"
            "             if m in sys.modules))\n"
            "import coskit.harness\n"
            "print('scipy.signal' in sys.modules)\n")
    src = str(Path(coskit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["[]", "False"]
