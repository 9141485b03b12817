import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from coskit.cos_engine import (Call, CosParameters, DigitalBelow, Put,
                               cos_coefficients, cos_price, cos_prices,
                               payoff_coefficients)
from coskit.errors import DegeneratePayoffWarning
from coskit.models import (BS, FMLS, VG, Cauchy, MarketContext,
                           centralized_cf, closed_form_density)
from coskit.reference import black_scholes_put, cauchy_cdf

CTX = MarketContext(S0=100.0, r=0.0, T=1.0)
CF_BS = centralized_cf(BS(0.2), CTX)


# ---------------------------------------------------------------------------
# coefficient parameters
# ---------------------------------------------------------------------------

def test_parameter_validation():
    with pytest.raises(ValueError):
        CosParameters(M=2.0, L=1.0, N=16)  # M > L
    with pytest.raises(ValueError):
        CosParameters(M=0.0, L=1.0, N=16)
    with pytest.raises(ValueError):
        CosParameters(M=1.0, L=1.0, N=0)
    with pytest.raises(ValueError):
        Put(0.0)
    with pytest.raises(ValueError):
        Call(-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Put(bad)
        with pytest.raises(ValueError):
            Call(bad)
        with pytest.raises(ValueError):
            DigitalBelow(bad)


def test_c0_is_exactly_inverse_range():
    c = cos_coefficients(CF_BS, 2.0, 8)
    assert c[0] == 0.5
    c = cos_coefficients(CF_BS, 8.0, 8)
    assert c[0] == 0.125


def test_quarter_cycle_identity():
    # for k = 0 mod 4 the coefficient is Re(phi)/L outright
    L = 3.0
    c = cos_coefficients(CF_BS, L, 64)
    k = np.arange(0, 65, 4)
    vals = CF_BS.phi(k * math.pi / (2 * L))
    np.testing.assert_allclose(c[k], vals.real / L, rtol=0, atol=5e-17)


def test_cos_coefficients_match_quadrature():
    L = 5.0
    dens = closed_form_density(BS(0.2), CTX)
    c = cos_coefficients(CF_BS, L, 64)
    for k in range(1, 65):
        w = k * math.pi / (2.0 * L)
        c_part = quad(lambda x: float(dens(x)), -12 * 0.2, 12 * 0.2,
                      weight="cos", wvar=w, limit=400, epsabs=1e-15)[0]
        s_part = quad(lambda x: float(dens(x)), -12 * 0.2, 12 * 0.2,
                      weight="sin", wvar=w, limit=400, epsabs=1e-15)[0]
        oracle = (math.cos(w * L) * c_part - math.sin(w * L) * s_part) / L
        assert abs(c[k] - oracle) < 1e-10, k


# ---------------------------------------------------------------------------
# payoff coefficients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("M,L", [(5.0, 5.0), (3.0, 5.0), (2.0, 8.0)])
def test_put_coefficients_match_quadrature(M, L):
    K = 100.0
    mu = CF_BS.mu
    v = payoff_coefficients(Put(K), CTX, mu, M, L, 64)
    d = min(math.log(K) - mu, M)
    for k in range(0, 65):
        oracle = quad(lambda x: (K - math.exp(x + mu))
                      * math.cos(k * math.pi * (x + L) / (2 * L)),
                      -M, d, limit=500, epsabs=1e-13)[0]
        assert abs(v[k] - oracle) < 1e-10, k


# on some k of these two ranges roundoff keeps the oracle's own quad calls
# from reaching epsabs=1e-14, and they say so with an IntegrationWarning;
# the check itself is 1e-10
_QUAD_OVERASKED = pytest.mark.filterwarnings(
    "ignore::scipy.integrate.IntegrationWarning")


@pytest.mark.parametrize("M,L,d", [
    (5.0, 5.0, 1.23),
    pytest.param(3.0, 6.0, -0.4, marks=_QUAD_OVERASKED),
    pytest.param(2.0, 2.0, 0.1, marks=_QUAD_OVERASKED)])
def test_digital_coefficients_match_quadrature(M, L, d):
    v = payoff_coefficients(DigitalBelow(d), CTX, 0.0, M, L, 64)
    hi = min(d, M)
    for k in range(0, 65):
        oracle = quad(lambda x: math.cos(k * math.pi * (x + L) / (2 * L)),
                      -M, hi, limit=200, epsabs=1e-14)[0]
        assert abs(v[k] - oracle) < 1e-10, k


def test_digital_saturated_is_full_range():
    v = payoff_coefficients(DigitalBelow(10.0), CTX, 0.0, 3.0, 3.0, 8)
    assert v[0] == pytest.approx(6.0, rel=1e-14)  # 2M at r = 0


def test_put_first_coefficient_closed_form():
    K, M, L = 100.0, 5.0, 5.0
    mu = CF_BS.mu
    v = payoff_coefficients(Put(K), CTX, mu, M, L, 4)
    d = math.log(K) - mu
    expect = K * (d + M) - math.exp(mu) * (math.exp(d) - math.exp(-M))
    assert v[0] == pytest.approx(expect, rel=1e-14)


def test_degenerate_payoffs_warn_and_zero():
    with pytest.warns(DegeneratePayoffWarning):
        v = payoff_coefficients(Put(math.exp(CF_BS.mu - 1.0)), CTX, CF_BS.mu,
                                0.5, 0.5, 16)
    assert np.all(v == 0.0)
    with pytest.warns(DegeneratePayoffWarning):
        v = payoff_coefficients(DigitalBelow(-5.0), CTX, 0.0, 0.5, 0.5, 16)
    assert np.all(v == 0.0)


@pytest.mark.parametrize("payoff,price", [
    (Put(math.exp(CF_BS.mu - 1.0)), 0.0),
    (Call(math.exp(CF_BS.mu - 1.0)),
     CTX.S0 - math.exp(CF_BS.mu - 1.0) * math.exp(-CTX.r * CTX.T)),
    (DigitalBelow(-5.0), 0.0),
], ids=["put", "call", "digital"])
def test_degenerate_flag_propagates_to_price(payoff, price):
    # detected without the warnings machinery: nothing is emitted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cos_price(CF_BS, payoff, CTX, CosParameters(0.5, 0.5, 16))
    assert res.degenerate
    assert res.price == price


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [BS(0.2), FMLS(1.5597, 0.1486), Cauchy()],
                         ids=["bs", "fmls", "cauchy"])
@pytest.mark.parametrize("payoff", [
    Put(100.0), Call(90.0), DigitalBelow(0.3), Put(1e-3), Call(1e-3),
], ids=["put", "call", "digital", "degenerate-put", "degenerate-call"])
def test_prefix_prices_equal_single_prices_bitwise(model, payoff):
    # every N of one (M, L) is a prefix of the longest term vector, and
    # math.fsum is correctly rounded, so sharing the vector moves no bit
    cf = centralized_cf(model, CTX)
    ns = [16, 179, 1024, 16384]
    M, L = 6.0, 8.0
    prices = cos_prices(cf, payoff, CTX, M, L, ns)
    for n, price in zip(ns, prices):
        assert price == cos_price(cf, payoff, CTX,
                                  CosParameters(M, L, n)).price


def test_bs_put_matches_analytic():
    params = CosParameters(M=1.6, L=1.6, N=256)
    res = cos_price(CF_BS, Put(100.0), CTX, params)
    assert res.price == pytest.approx(black_scholes_put(CTX, 0.2, 100.0),
                                      abs=1e-12)


def test_parity_exact_by_construction():
    params = CosParameters(M=1.6, L=1.6, N=128)
    for K in (80.0, 100.0, 125.0):
        put = cos_price(CF_BS, Put(K), CTX, params).price
        call = cos_price(CF_BS, Call(K), CTX, params).price
        assert call - put == pytest.approx(CTX.S0 - K * math.exp(-CTX.r * CTX.T),
                                           abs=1e-12)


def test_weight_convention_half_first_term():
    # doubling v_0 while halving c_0 leaves the half-weighted sum unchanged
    params = CosParameters(M=1.6, L=1.6, N=64)
    c = cos_coefficients(CF_BS, params.L, params.N)
    v = payoff_coefficients(Put(100.0), CTX, CF_BS.mu, params.M, params.L,
                            params.N)
    t1 = c * v
    t1[0] *= 0.5
    c2, v2 = c.copy(), v.copy()
    c2[0] *= 0.5
    v2[0] *= 2.0
    t2 = c2 * v2
    t2[0] *= 0.5
    assert math.fsum(t1[::-1]) == math.fsum(t2[::-1])


def test_single_term_price_is_half_product():
    params = CosParameters(M=1.6, L=1.6, N=1)
    c = cos_coefficients(CF_BS, params.L, 1)
    v = payoff_coefficients(Put(100.0), CTX, CF_BS.mu, params.M, params.L, 1)
    res = cos_price(CF_BS, Put(100.0), CTX, params)
    assert res.price == pytest.approx(0.5 * c[0] * v[0] + c[1] * v[1], abs=1e-15)


def test_vg_small_n_hits_reference():
    ctx = MarketContext(100.0, 0.0, 0.25)
    cf = centralized_cf(VG(0.1, 0.2, 0.0), ctx)
    res = cos_price(cf, Call(100.0), ctx, CosParameters(0.91, 0.91, 50))
    assert abs(res.price - 1.809833) < 0.01


def test_fmls_study_parameters_hit_reference():
    cf = centralized_cf(FMLS(1.5597, 0.1486), CTX)
    res = cos_price(cf, Call(100.0), CTX, CosParameters(69.037, 175.962, 5451))
    assert abs(res.price - 9.7433708) < 1e-2


@pytest.mark.slow
def test_fmls_wide_range_confirms_reference():
    # very wide range and ten million terms independently confirm the damped
    # transform reference value
    cf = centralized_cf(FMLS(1.5597, 0.1486), CTX)
    res = cos_price(cf, Call(100.0), CTX, CosParameters(1e5, 1e5, 10 ** 7))
    assert res.price == pytest.approx(9.743370825229, abs=5e-8)


def test_cauchy_digital_against_cdf():
    cf = centralized_cf(Cauchy(), CTX)
    res = cos_price(cf, DigitalBelow(1.23), CTX,
                    CosParameters(3000.0, 3000.0, 2 ** 16))
    assert res.price == pytest.approx(cauchy_cdf(1.23), abs=5e-7)


def test_range_plateau_phenomenon():
    # at fixed large N the error flattens at a range-dependent level; the
    # narrow range plateaus at least a thousand times higher than the wide one
    n = 2 ** 14
    ref = black_scholes_put(CTX, 0.2, 100.0)
    errs = {}
    for mult in (4, 6, 20):
        L = mult * 0.2
        res = cos_price(CF_BS, Put(100.0), CTX, CosParameters(L, L, n))
        errs[mult] = abs(res.price - ref)
    assert errs[4] >= 1e3 * errs[20]
    assert errs[4] > errs[6] > errs[20]


def test_result_records_parameters_and_timing():
    params = CosParameters(M=1.6, L=1.6, N=64, tol=1e-6)
    res = cos_price(CF_BS, Put(100.0), CTX, params)
    assert res.params is params
    assert res.tol == 1e-6
    assert res.elapsed_s > 0.0
