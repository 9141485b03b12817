import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning
from scipy.special import roots_legendre

from coskit import reference
from coskit.cos_engine import Put, cos_price
from coskit.errors import DampingInadmissible, ModelParameterError
from coskit.harness import VG_SETUP, run_vg_counterexample
from coskit.models import (BS, FMLS, NIG, VG, Cauchy, MarketContext, Stable,
                           _strip_phi_underflows, centralized_cf, stable_law)
from coskit.reference import (CarrMadanConfig, _damped_support,
                              black_scholes_call, black_scholes_put,
                              carr_madan_call, cauchy_cdf, closed_form_density,
                              density_on_grid, derivative_by_inversion,
                              log_price_cf)
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


def test_carr_madan_bits_do_not_depend_on_blas_threads():
    # the Simpson sum takes no BLAS call, so the vg_counterexample reference
    # has the same bits with one BLAS thread and with two
    import coskit
    code = ("from coskit.harness import VG_SETUP as s\n"
            "from coskit.models import VG, MarketContext, centralized_cf\n"
            "from coskit.reference import carr_madan_call\n"
            "ctx = MarketContext(s['S0'], s['r'], s['T'])\n"
            "cf = centralized_cf(VG(s['sigma'], s['nu'], s['theta']), ctx)\n"
            "print(carr_madan_call(cf, ctx, s['K']).hex())\n")
    src = str(Path(coskit.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1] != ""


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


def test_carr_madan_refuses_a_raw_stable_law():
    # Stable's phi takes real arguments only: evaluated at the damped
    # argument's real part it priced FMLS(1.5597, 0.1486)'s own law at 6.99
    # instead of 9.743; FMLS is the damped-strip form of that law
    fmls = FMLS(1.5597, 0.1486)
    law = stable_law(fmls, CTX.T)
    mu = centralized_cf(fmls, CTX).mu
    cf = centralized_cf(Stable(law.alpha, -1.0, law.scale, mu), CTX)
    with pytest.raises(DampingInadmissible):
        carr_madan_call(cf, CTX, 100.0)


def _full_grid_call(cf, ctx, K, cfg):
    """The Carr-Madan Simpson rule with the integrand evaluated on every
    node: the reference for carr_madan_call, which leaves out the nodes
    where phi is exactly 0."""
    g = cfg.damping
    phi_log = log_price_cf(cf)
    k = math.log(K)
    n = cfg.n_terms
    u = np.linspace(0.0, cfg.upper, n + 1)
    numer = math.exp(-ctx.r * ctx.T) * phi_log(u - 1j * (g + 1.0))
    denom = g * g + g - u * u + 1j * (2.0 * g + 1.0) * u
    integrand = np.real(np.exp(-1j * u * k) * numer / denom)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    integral = cfg.upper / n / 3.0 * float(np.sum(w * integrand))
    return math.exp(-g * k) / math.pi * integral


_CM_MODELS = st.one_of(
    st.builds(BS, st.floats(1e-3, 3.0)),
    st.builds(FMLS, st.floats(1.01, 1.99), st.floats(1e-3, 1.0)),
    st.builds(NIG, st.floats(1.0, 60.0), st.floats(0.01, 5.0)),
    st.builds(VG, st.floats(0.05, 0.6), st.floats(0.002, 1.0),
              st.one_of(st.just(0.0), st.floats(-0.3, 0.3))))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_CM_MODELS, st.floats(0.01, 5.0), st.floats(-0.05, 0.1),
       st.floats(20.0, 500.0), st.floats(20.0, 500.0), st.floats(0.01, 5.0),
       st.integers(4, 13).map(lambda e: 2 ** e), st.floats(1.0, 3000.0))
@example(FMLS(1.5597, 0.1486), 1.0, 0.0, 100.0, 100.0, 1.5, 4096, 1024.0)
@example(FMLS(1.5597, 0.1486), 1.0, 0.0, 100.0, 100.0, 0.1, 2 ** 17, 1200.0)
@example(BS(0.2), 1.0, 0.0, 100.0, 100.0, 0.1, 2 ** 17, 1200.0)
@example(BS(0.05), 0.1, 0.0, 100.0, 100.0, 0.1, 2 ** 10, 1200.0)  # cut past upper
@example(BS(0.2), 1.0, 0.0, 1e-300, 100.0, 0.1, 2 ** 10, 1200.0)  # e^(gamma mu) = 0
# the stable scale of the law rounds to 0, and no cut is claimed
@example(BS(0.2), 5e-324, 0.0, 100.0, 100.0, 0.1, 2 ** 10, 1200.0)
@example(FMLS(1.5, 5e-324), 0.1, 0.0, 100.0, 100.0, 0.1, 2 ** 10, 1200.0)
def test_carr_madan_equals_the_full_grid_rule_bit_for_bit(model, T, r, S0, K,
                                                          damping, n, upper):
    ctx = MarketContext(S0, r, T)
    try:
        cf = centralized_cf(model, ctx)
    except ModelParameterError:
        return
    cfg = CarrMadanConfig(n, damping, upper)
    assume(reference._damping_admissible(model, damping))
    with np.errstate(all="ignore"):
        expected = _full_grid_call(cf, ctx, K, cfg)
        got = carr_madan_call(cf, ctx, K, cfg)
    if math.isfinite(expected):
        assert got.hex() == expected.hex()


@pytest.mark.parametrize("model", [
    BS(0.2), NIG(2.0, 0.6), VG(0.1, 0.2), VG(0.12, 0.2, -0.14),
    FMLS(1.5597, 0.1486)])
def test_carr_madan_blocks_equal_the_full_length_rule(model):
    # 2^17 + 2 intervals are no whole number of blocks, and BS and FMLS cut
    # their support inside a block past the first
    cfg = CarrMadanConfig(2 ** 17 + 2)
    cf = centralized_cf(model, CTX)
    m = _damped_support(cf, cfg.damping + 1.0,
                        np.linspace(0.0, cfg.upper, cfg.n_terms + 1))
    block = reference._CM_BLOCK
    assert cfg.n_terms % block != 0
    if isinstance(model, (BS, FMLS)):
        assert block < m < cfg.n_terms and m % block != 0
    else:
        assert m == cfg.n_terms + 1
    for K in (80.0, 100.0, 125.0):
        assert carr_madan_call(cf, CTX, K, cfg).hex() == \
            _full_grid_call(cf, CTX, K, cfg).hex(), K


def test_carr_madan_holds_no_full_length_temporaries():
    # the VG study's reference: the grid and the Simpson vector (1 MB each)
    # plus one block of temporaries, where a full-length evaluation peaks
    # at 11 MB
    s = VG_SETUP
    ctx = MarketContext(s["S0"], s["r"], s["T"])
    cf = centralized_cf(VG(s["sigma"], s["nu"], s["theta"]), ctx)
    price = carr_madan_call(cf, ctx, s["K"])
    tracemalloc.start()
    try:
        assert carr_madan_call(cf, ctx, s["K"]) == price
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20, peak


@pytest.mark.parametrize("model,cut", [
    (FMLS(1.5597, 0.1486), 470.0),
    (BS(0.2), math.sqrt(750.0 / 0.02 + 1.1 ** 2)),  # c^2 (u^2 - gamma^2) = 750
    (NIG(2.0, 0.6), None), (VG(0.1, 0.2), None)])
def test_carr_madan_reference_grid_evaluates_only_where_phi_can_be_nonzero(
        model, cut):
    # the default grid, 2^17 intervals to u = 1200 at damping 0.1: the FMLS
    # study's phi(u - 1.1i) is exactly 0 from about u = 470 on, 61% of the
    # nodes, the BS one from where the strip exponent reaches -750; NIG and
    # VG carry no cut
    cf = centralized_cf(model, CTX)
    u = np.linspace(0.0, 1200.0, 2 ** 17 + 1)
    m = _damped_support(cf, 1.1, u)
    if cut is None:
        assert m == u.size
        return
    assert u[m] == pytest.approx(cut, rel=1e-3)
    with np.errstate(all="ignore"):
        assert np.all(cf.phi(u[m:] - 1.1j) == 0.0)


_STRIP_LAWS = st.one_of(
    st.builds(BS, st.floats(1e-3, 5.0)),
    st.builds(FMLS, st.floats(1.001, 1.999), st.floats(1e-3, 5.0)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_STRIP_LAWS, st.floats(0.01, 20.0), st.floats(1.0, 50.0),
       st.lists(st.floats(1.0, 1e6), max_size=32))
def test_damped_phi_is_exactly_zero_from_the_strip_cut_on(model, T, gamma,
                                                          beyond):
    # the first node of a fine grid where the strip bound holds, and sampled
    # frequencies past it: phi(u - i gamma) is exactly 0 at every one
    cf = centralized_cf(model, MarketContext(100.0, 0.0, T))
    if math.isinf(cf.zero_from):
        return
    u = np.linspace(0.0, 4.0 * cf.zero_from + 4.0 * gamma, 4097)
    m = _damped_support(cf, gamma, u)
    if m == u.size:
        return
    law = stable_law(model, T)
    assert m >= 1 and not _strip_phi_underflows(law, gamma, float(u[m - 1]))
    past = u[m] * np.concatenate([[1.0], beyond])
    assert all(_strip_phi_underflows(law, gamma, float(v)) for v in past)
    assert np.all(cf.phi(past - 1j * gamma) == 0.0), (model, T, gamma)


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
    assert np.max(np.abs(derivative_by_inversion(cf, 0, xs)
                         - dens(xs))) <= 1e-10


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
                               derivative_by_inversion(cf, 0, xs),
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


@pytest.mark.parametrize("model,L,panels", [
    (FMLS(1.5597, 0.1486), 5.0, 1408), (Stable(1.2, 0.5, 0.7), 20.0, 1024)],
    ids=["fmls", "stable"])
def test_grid_inversion_equals_long_double_direct_sum(model, L, panels):
    # on a grid the size of criterion 7's (12 Gauss-Legendre columns of up
    # to 1408 panels), the chirp z-transform gives the Simpson sum itself:
    # sampled rows match the direct sum with phases and sum in long double
    cf = centralized_cf(model, CTX)
    nodes, _ = roots_legendre(12)
    h = 2.0 * L / panels
    xs = -L + h * (np.arange(panels)[:, None] + 0.5 * (1.0 + nodes))
    got = density_on_grid(cf, xs)
    u, pv = reference._simpson_rule(cf, float(np.max(np.abs(xs))))
    ul = u.astype(np.longdouble)
    re, im = pv.real.astype(np.longdouble), pv.imag.astype(np.longdouble)
    errs = []
    for row in np.linspace(0, panels - 1, 12).astype(int):
        for x, value in zip(xs[row], got[row]):
            phase = np.longdouble(x) * ul
            direct = np.sum(re * np.cos(phase) + im * np.sin(phase)) / np.pi
            errs.append(abs(float(direct - np.longdouble(value))))
    assert max(errs) <= 1e-13


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
    # imports the oracles, leaves out scipy.signal (0.7 s and 24 MB)
    import coskit
    code = ("import sys\n"
            "import coskit.tuning, coskit.cos_engine, coskit.bounds\n"
            "print(sorted(m for m in ('coskit.reference', 'scipy.optimize')\n"
            "             if m in sys.modules))\n"
            "import coskit.harness\n"
            "print('scipy.signal' in sys.modules)\n")
    src = str(Path(coskit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["[]", "False"]
    # `coskit tune` and `coskit price` load neither the studies nor the
    # oracles.  A model whose H_{j+1} comes from quadrature (VG, through
    # bounds.hj_numeric) still loads scipy.integrate, so the commands run
    # BS and FMLS, whose bounds are closed forms.
    code = ("import contextlib, io, sys\n"
            "from coskit.cli import cli_main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli_main(['tune', '--model', 'bs', '--sigma', '0.2',\n"
            "                     '--eps', '1e-8']) == 0\n"
            "    assert cli_main(['price', '--model', 'fmls', '--alpha',\n"
            "                     '1.5597', '--sigma', '0.1486', '--payoff',\n"
            "                     'call', '--eps', '1e-2']) == 0\n"
            "print(sorted(m for m in ('coskit.harness', 'coskit.reference',\n"
            "                         'scipy.integrate', 'scipy.optimize')\n"
            "             if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["[]"]
