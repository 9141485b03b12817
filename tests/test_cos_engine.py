import dataclasses
import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coskit import cos_engine
from coskit.cos_engine import (Call, CosParameters, DigitalBelow, Put,
                               cos_coefficients, cos_price, cos_prices,
                               payoff_coefficients)
from coskit.errors import NonFinitePrice, NotReachedWithinCap
from coskit.harness import run_l_optimal
from coskit.models import (BS, FMLS, NIG, VG, Cauchy, MarketContext, Stable,
                           centralized_cf)
from coskit.reference import (black_scholes_put, cauchy_cdf,
                              closed_form_density)
from coskit.tuning import TuningRequest, tune

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


@pytest.mark.parametrize("K", [60.0, 100.0, 140.0, math.exp(CF_BS.mu - 1.0)])
def test_call_coefficients_are_its_puts_bitwise(K):
    # a call is priced through the put of its strike: one set of
    # coefficients serves both, degenerate strikes included
    for ks in (300, range(0, 301, 2)):
        call = payoff_coefficients(Call(K), CTX, CF_BS.mu, 1.2, 1.7, ks)
        put = payoff_coefficients(Put(K), CTX, CF_BS.mu, 1.2, 1.7, ks)
        assert [x.hex() for x in call] == [x.hex() for x in put]


def test_degenerate_payoffs_are_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = payoff_coefficients(Put(math.exp(CF_BS.mu - 1.0)), CTX, CF_BS.mu,
                                0.5, 0.5, 16)
        assert np.all(v == 0.0)
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

def _fsum_price(cf, payoff, ctx, M, L, n):
    """The half-weighted series at N = n from its own coefficient vectors,
    summed by math.fsum: the reference for every pricing path."""
    inner = Put(payoff.strike) if isinstance(payoff, Call) else payoff
    terms = (cos_coefficients(cf, L, n)
             * payoff_coefficients(inner, ctx, cf.mu, M, L, n))
    terms[0] *= 0.5
    price = math.fsum(terms.tolist())
    if isinstance(payoff, Call):
        price += ctx.S0 - payoff.strike * math.exp(-ctx.r * ctx.T)
    return price


@pytest.mark.parametrize("model", [
    BS(0.2), FMLS(1.5597, 0.1486), Cauchy(), NIG(2.0, 0.2),
    VG(0.12, 0.2, -0.14)], ids=["bs", "fmls", "cauchy", "nig", "vg-drift"])
@pytest.mark.parametrize("payoff", [
    Put(100.0), Call(90.0), DigitalBelow(0.3), Put(1e-3), Call(1e-3),
], ids=["put", "call", "digital", "degenerate-put", "degenerate-call"])
def test_prefix_prices_equal_single_prices_bitwise(model, payoff):
    # every N of one (M, L) is a prefix of the longest term vector; its sum,
    # by fsum below _VECTOR_SUM_MIN terms and by vector passes above, must be
    # the fsum of the series built at that N alone
    assert cos_engine._VECTOR_SUM_MIN == 1024
    cf = centralized_cf(model, CTX)
    ns = [16, 179, 1022, 1023, 1024, 16384]
    M, L = 6.0, 8.0
    prices = cos_prices(cf, payoff, CTX, M, L, ns)
    for n, price in zip(ns, prices):
        want = _fsum_price(cf, payoff, CTX, M, L, n)
        assert price == want
        assert cos_price(cf, payoff, CTX, CosParameters(M, L, n)).price == want


# L puts each model's cut at about half of N_CUT_TEST, and models with no
# cut (NIG, VG, and scales that underflow) take L = _NO_CUT_L; a real phi
# also drops every odd k
N_CUT_TEST = 600
_NO_CUT_L = 8.0
_CUT_CASES = [(BS(0.2), 1.0), (NIG(2.0, 0.2), 1.0), (VG(0.3, 0.0047), 1.3),
              (VG(0.3, 0.0047, -0.1), 1.3), (FMLS(1.5597, 0.1486), 1.0),
              (Stable(1.5, 0.0, 0.8), 1.0), (Stable(1.3, 0.5, 0.6), 1.0),
              (Cauchy(), 1.0), (BS(5e-324), 1.0), (BS(1e-170), 1e-160),
              (BS(0.2), 5e-324), (FMLS(1.5, 5e-324), 1.0)]


@pytest.mark.parametrize("model,T", _CUT_CASES, ids=[
    "bs", "nig", "vg", "vg-drift", "fmls", "stable", "stable-skew", "cauchy",
    "bs-sigma-0", "bs-var-0", "bs-T-half-0", "fmls-scale-subnormal"])
@pytest.mark.parametrize("payoff", [Put(100.0), Call(97.0), DigitalBelow(0.02)],
                         ids=["put", "call", "digital"])
def test_support_prices_equal_full_vector_fsums(model, T, payoff):
    # every prefix price of the support vector carries the bits (value and
    # sign) of math.fsum over the full term vector of that prefix
    ctx = MarketContext(100.0, 0.01, T)
    cf = centralized_cf(model, ctx)
    cut = math.isfinite(cf.zero_from)
    L = math.pi * (N_CUT_TEST / 2) / (2.0 * cf.zero_from) if cut else _NO_CUT_L
    M = 0.8 * L
    ks = cos_engine._support(cf, L, N_CUT_TEST)
    assert (ks[-1] < 0.6 * N_CUT_TEST) == cut
    assert ks.step == (2 if cf.real else 1)

    inner = Put(payoff.strike) if isinstance(payoff, Call) else payoff
    c = cos_coefficients(cf, L, N_CUT_TEST)
    assert np.all(np.delete(c, ks) == 0.0)
    terms = (c * payoff_coefficients(inner, ctx, cf.mu, M, L,
                                     N_CUT_TEST)).tolist()
    terms[0] *= 0.5
    parity = (ctx.S0 - payoff.strike * math.exp(-ctx.r * ctx.T)
              if isinstance(payoff, Call) else 0.0)
    want = [(math.fsum(terms[:n + 1]) + parity).hex()
            for n in range(N_CUT_TEST + 1)]
    got = cos_prices(cf, payoff, ctx, M, L, list(range(N_CUT_TEST + 1)))
    assert [p.hex() for p in got] == want


def _nan_from(cf, u0):
    """cf with phi nan at every |u| >= u0, as a power that overflows into
    nan makes it"""
    def phi(u):
        return np.where(np.abs(u) >= u0, complex(math.nan, math.nan),
                        cf.phi(u))[()]
    return dataclasses.replace(cf, phi=phi)


# VG with an integer T/nu, whose power numpy takes by products: they used
# to overflow into nan from k = 4611 on at L = 10.002, where |phi| < 1e-308
_VG_INT_CTX = MarketContext(100.0, 0.0, 64.0)
_VG_INT = centralized_cf(VG(0.5, 1.0), _VG_INT_CTX)
_VG_INT_NAN = _nan_from(_VG_INT, 4611 * (math.pi / (2.0 * 10.002)))


def test_series_with_overflowing_phi_keeps_every_term():
    # phi is nan from k = 4611 on at L = 10.002.  At N = 4611 only the odd
    # last term is nan, so a support of even k would hide it; phi at the
    # last frequency is nan, and the series stays whole
    cf, ctx = _VG_INT_NAN, _VG_INT_CTX
    assert cos_engine._support(cf, 10.002, 4610) == range(0, 4611, 2)
    assert cos_engine._support(cf, 10.002, 4611) == range(4612)
    prices = cos_prices(cf, Put(100.0), ctx, 10.002, 10.002, [4610, 4611])
    assert math.isfinite(prices[0]) and math.isnan(prices[1])


def test_cos_price_refuses_a_non_finite_sum():
    # the same phi at N = 5000 sums to nan: cos_prices returns it as it is,
    # and cos_price raises a typed error naming the model and N
    cf, ctx = _VG_INT_NAN, _VG_INT_CTX
    assert math.isnan(cos_prices(cf, Put(100.0), ctx, 10.0, 10.0, [5000])[0])
    with pytest.raises(NonFinitePrice, match=r"VG\(sigma=0\.5.*N = 5000"):
        cos_price(cf, Put(100.0), ctx, CosParameters(10.0, 10.0, 5000))


def test_integer_power_vg_prices_past_its_overflow():
    # VG's own phi stays finite past k = 4611, so the support keeps only
    # the even k of its real phi, and the prices up to there keep their
    # bits.  The certified put (tune at derivative order 4, N = 310 541)
    # is within its tolerance of 96.55148268345850362, a 30-digit mpmath
    # Lewis quadrature
    cf, ctx = _VG_INT, _VG_INT_CTX
    assert cos_engine._support(cf, 10.002, 4611) == range(0, 4612, 2)
    prices = cos_prices(cf, Put(100.0), ctx, 10.002, 10.002, [4610, 4611])
    nan_phi = cos_prices(_VG_INT_NAN, Put(100.0), ctx, 10.002, 10.002, [4610])
    assert prices[0].hex() == nan_phi[0].hex() == prices[1].hex()
    params = tune(TuningRequest(cf.model, ctx, payoff_bound=100.0, tol=1e-10,
                                series_order=4))
    assert params.N == 310541
    price = cos_price(cf, Put(100.0), ctx, params).price
    assert abs(price - 96.55148268345850362) <= 1e-10


def test_coefficients_on_a_range_are_the_full_vector_entries():
    ks = range(0, 301, 3)
    c = cos_coefficients(CF_BS, 1.7, ks)
    v = payoff_coefficients(Put(90.0), CTX, CF_BS.mu, 1.2, 1.7, ks)
    assert c.tolist() == cos_coefficients(CF_BS, 1.7, 300)[::3].tolist()
    assert v.tolist() == payoff_coefficients(Put(90.0), CTX, CF_BS.mu, 1.2,
                                             1.7, 300)[::3].tolist()
    # a range may start past 0, as the blocks of cos_prices do
    assert cos_coefficients(CF_BS, 1.7, range(1, 9)).tolist() == \
        cos_coefficients(CF_BS, 1.7, 8)[1:].tolist()
    assert payoff_coefficients(Put(90.0), CTX, CF_BS.mu, 1.2, 1.7,
                               range(1, 9)).tolist() == \
        payoff_coefficients(Put(90.0), CTX, CF_BS.mu, 1.2, 1.7, 8)[1:].tolist()
    for bad in (range(0, 0), range(0, -4, -1), range(-2, 5)):
        with pytest.raises(ValueError):
            cos_coefficients(CF_BS, 1.7, bad)


@pytest.mark.parametrize("model,L", [(BS(0.2), 2e4),
                                     (FMLS(1.5597, 0.1486), 5e3)])
@pytest.mark.parametrize("n", [2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 2 ** 16 + 3])
def test_blocked_term_vector_prices_the_full_range_sum(model, L, n):
    # the term vector is built in blocks of k; at every N around a block
    # edge the price is math.fsum of the products of one full-range pass,
    # c_0 halved.  L is so wide that |phi| at the block edges is 0.1-0.9,
    # so no term there is lost in the sum's rounding
    cf = centralized_cf(model, CTX)
    ks = cos_engine._support(cf, L, n)
    assert ks[-1] >= n - 1 and ks.step == (2 if cf.real else 1)
    terms = cos_coefficients(cf, L, n)
    terms *= payoff_coefficients(Put(90.0), CTX, cf.mu, L, L, n)
    terms[0] *= 0.5
    want = math.fsum(terms.tolist())
    got, = cos_prices(cf, Put(90.0), CTX, L, L, [n])
    assert got.hex() == want.hex()


def _assert_prefix_sums_are_fsums(values, ns=None):
    """Every prefix sum carries math.fsum's bits, the sign of zero included
    (float.hex tells -0.0 from 0.0 and reads every nan alike), or the helper
    raises what fsum raises at the first prefix it fails on.  ns defaults to
    every prefix in order."""
    if ns is None:
        ns = list(range(len(values)))
    try:
        want = [math.fsum(values[:n + 1]).hex() for n in ns]
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            cos_engine._prefix_sums(np.array(values), ns)
        return
    got = cos_engine._prefix_sums(np.array(values), ns)
    assert [g.hex() for g in got] == want


_HARD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                2.0 ** -1000, -(2.0 ** -1000), 2.0 ** 1000, -(2.0 ** 1000),
                1.0, -1.0, 2.0 ** -53, -(2.0 ** -53), 2.0 ** -54,
                3 * 2.0 ** -54, 2.0 ** -106, 1.0 + 2.0 ** -52]
_ADVERSARIAL = st.lists(
    st.one_of(st.sampled_from(_HARD_FLOATS),
              st.floats(allow_nan=False, allow_infinity=False),
              st.floats(-1e3, 1e3)),
    min_size=1, max_size=40)


@st.composite
def _term_vectors(draw, finite=True):
    """Adversarial term vectors: hard floats (subnormals, signed zeros,
    half-ulp ties, 2^+-1000), any finite float, cancelling pairs, shuffled;
    with finite=False, also an inf or a nan."""
    xs = draw(_ADVERSARIAL)
    xs += [-x for x in draw(st.lists(st.sampled_from(xs), max_size=20))]
    if not finite:
        xs += draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan]),
                            min_size=1, max_size=2))
    return draw(st.permutations(xs))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(_term_vectors(), _term_vectors(finite=False)))
def test_prefix_sums_equal_fsum_of_every_prefix(values):
    # the vector passes run on every length here
    with mock.patch.object(cos_engine, "_VECTOR_SUM_MIN", 1):
        _assert_prefix_sums_are_fsums(values)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_term_vectors(), st.integers(1023, 1500))
def test_prefix_sums_equal_fsum_on_long_vectors(values, size):
    # the same at the real size threshold: the vector is tiled to 1023-1500
    # terms, so both the fsum and the vector path are taken
    _assert_prefix_sums_are_fsums(np.resize(np.array(values), size).tolist())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(_term_vectors(), _term_vectors(finite=False)),
       st.sampled_from([1, 40, 1023, 1024, 1500]), st.data())
def test_prefix_sums_take_prefixes_in_any_order(values, size, data):
    # ns shuffled, with repeats: each answer is the fsum of its own prefix,
    # on both sides of _VECTOR_SUM_MIN (and past it at every size)
    values = np.resize(np.array(values), size).tolist()
    ns = data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                            max_size=12))
    ns += data.draw(st.lists(st.sampled_from(ns), min_size=1, max_size=4))
    ns = data.draw(st.permutations(ns))
    _assert_prefix_sums_are_fsums(values, ns)
    with mock.patch.object(cos_engine, "_VECTOR_SUM_MIN", 1):
        _assert_prefix_sums_are_fsums(values, ns)


def test_l_optimal_prefixes_rarely_fall_back(monkeypatch):
    # a prefix the vector passes cannot decide is summed again by math.fsum;
    # over the l_optimal sweep that must stay rare.  Term vectors shorter
    # than _VECTOR_SUM_MIN (the sweep's support past the underflow of phi
    # can be) are summed by fsum by design and are not counted as fallbacks
    counts = {"prefixes": 0, "vector": 0, "fsum": 0}
    real_prefix_sums, real_fsum = cos_engine._prefix_sums, math.fsum
    on_vector_path = False

    def prefix_sums(terms, ns):
        nonlocal on_vector_path
        counts["prefixes"] += len(ns)
        on_vector_path = terms.size >= cos_engine._VECTOR_SUM_MIN
        counts["vector"] += len(ns) if on_vector_path else 0
        try:
            return real_prefix_sums(terms, ns)
        finally:
            on_vector_path = False

    def fsum(values):
        counts["fsum"] += on_vector_path
        return real_fsum(values)

    monkeypatch.setattr(cos_engine, "_prefix_sums", prefix_sums)
    monkeypatch.setattr(cos_engine.math, "fsum", fsum)
    run_l_optimal()
    assert counts["prefixes"] == 2 * 201 * 11
    assert counts["vector"] > 0.5 * counts["prefixes"]
    assert counts["fsum"] <= 0.01 * counts["vector"]


def test_series_longer_than_cap_raises_before_allocating():
    cap = cos_engine._MAX_TERMS
    assert cap == 2 ** 25
    with mock.patch.object(cos_engine, "cos_coefficients",
                           side_effect=AssertionError("allocated")):
        with pytest.raises(NotReachedWithinCap):
            cos_prices(CF_BS, Put(100.0), CTX, 1.6, 1.6, [16, cap + 1])
        with pytest.raises(NotReachedWithinCap):
            cos_price(CF_BS, Call(100.0), CTX, CosParameters(1.6, 1.6, cap + 1))


# tests/data/m_below_l_golden.json was recorded when every prefix was summed
# by math.fsum and psi/chi had one function each: FMLS tune outputs have
# M < L, so the lower angle of the payoff integrals is nonzero
M_BELOW_L_CASES = {
    f"{kind} tol={tol:g}": (kind, tol)
    for kind, tols in (("put", (0.2, 0.01)), ("call", (0.2, 0.01)),
                       ("digital", (0.01, 0.001)))
    for tol in tols}


def _m_below_l_outcome(kind, tol):
    ctx = MarketContext(100.0, 0.0, 1.0)
    model = FMLS(1.5597, 0.1486)
    payoff, bound = {"put": (Put(90.0), 90.0), "call": (Call(110.0), 110.0),
                     "digital": (DigitalBelow(-0.3), 1.0)}[kind]
    params = tune(TuningRequest(model, ctx, bound, tol))
    price = cos_price(centralized_cf(model, ctx), payoff, ctx, params).price
    return {"M": params.M, "L": params.L, "N": params.N, "price": price}


def test_m_below_l_prices_match_recorded():
    with open(Path(__file__).parent / "data" / "m_below_l_golden.json") as fh:
        golden = json.load(fh)
    got = {key: _m_below_l_outcome(*case)
           for key, case in M_BELOW_L_CASES.items()}
    assert got == golden
    assert all(g["M"] < g["L"] for g in golden.values())
    assert {g["N"] < 1023 for g in golden.values()} == {True, False}


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
