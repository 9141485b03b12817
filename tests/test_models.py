import dataclasses
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from coskit import models
from coskit.errors import ModelParameterError, MomentDoesNotExist
from coskit.models import (BS, FMLS, NIG, VG, Cauchy, HeavyTail,
                           MarketContext, SemiHeavyTail, central_moment,
                           centralized_cf, stable_law, tail_profile)
from coskit.models import Stable
from coskit.reference import closed_form_density, derivative_by_inversion

CTX = MarketContext(S0=100.0, r=0.0, T=1.0)
CTX_VG = MarketContext(S0=100.0, r=0.0, T=0.25)

ALL_MODELS = [
    (BS(0.2), CTX),
    (NIG(1.2, 0.8), CTX),
    (VG(0.1, 0.2, 0.0), CTX_VG),
    (VG(0.12, 0.3, -0.1), CTX),
    (FMLS(1.5597, 0.1486), CTX),
    (Stable(1.5, 0.4, 0.8), CTX),
    (Cauchy(), CTX),
]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    lambda: BS(0.0),
    lambda: BS(-0.1),
    lambda: NIG(0.0, 1.0),
    lambda: NIG(1.0, -1.0),
    lambda: VG(0.1, 0.0),
    lambda: FMLS(1.0, 0.1),
    lambda: FMLS(2.0, 0.1),
    lambda: FMLS(1.5, 0.0),
    lambda: Stable(0.0, 0.0, 1.0),
    lambda: Stable(2.5, 0.0, 1.0),
    lambda: Stable(1.5, 1.5, 1.0),
    lambda: Stable(1.5, 0.0, 0.0),
    lambda: MarketContext(0.0, 0.0, 1.0),
    lambda: MarketContext(100.0, 0.0, 0.0),
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ModelParameterError):
        bad()


def test_overflowing_powers_and_underflowing_variances_are_typed():
    # sigma^2 and sigma^alpha, which the formulas take, must be finite; a
    # variance or a central moment that rounds to 0 is named
    with pytest.raises(ModelParameterError, match=r"BS sigma\^2"):
        BS(1e200)
    with pytest.raises(ModelParameterError, match=r"FMLS sigma\^alpha"):
        FMLS(1.5, 1e300)
    with pytest.raises(ModelParameterError, match=r"FMLS scale\^alpha"):
        centralized_cf(FMLS(1.5, 1e100), MarketContext(100.0, 0.0, 1e250))
    # c = sigma T^(1/alpha) itself overflows, and inf ** alpha raises nothing
    with pytest.raises(ModelParameterError, match=r"FMLS scale\^alpha"):
        centralized_cf(FMLS(1.5, 1e200), MarketContext(100.0, 0.0, 1e200))
    with pytest.raises(ModelParameterError, match=r"stable scale\^alpha"):
        tail_profile(Stable(1.5, 0.0, 1e300), CTX)
    with pytest.raises(ModelParameterError, match="NIG variance"):
        tail_profile(NIG(2.0, 5e-324), CTX)
    with pytest.raises(ModelParameterError, match="VG variance"):
        tail_profile(VG(0.2, 0.2), MarketContext(100.0, 0.0, 5e-324))
    with pytest.raises(ModelParameterError, match="moment of order 8"):
        central_moment(BS(1e-150), CTX, 8)
    # no gamma scale of a drift-free VG whose sigma^2 nu / 2 is 0
    with pytest.raises(ModelParameterError, match="VG sigma"):
        central_moment(VG(1e-170, 0.2), CTX, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("model", [BS(0.2), NIG(2.0, 1.0), VG(0.1, 0.2, -0.1),
                                   FMLS(1.5, 0.1), Stable(1.5, 0.0, 1.0, 0.0)],
                         ids=lambda m: type(m).__name__)
def test_model_parameters_must_be_finite(model, bad):
    for f in dataclasses.fields(model):
        with pytest.raises(ModelParameterError):
            dataclasses.replace(model, **{f.name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["S0", "r", "T"])
def test_market_context_must_be_finite(field, bad):
    with pytest.raises(ModelParameterError):
        dataclasses.replace(CTX, **{field: bad})


def test_stable_law_exact_fields():
    assert stable_law(BS(0.2), 0.7) == Stable(2.0, 0.0, 0.2 * math.sqrt(0.35))
    assert stable_law(FMLS(1.5597, 0.1486), 2.0) == Stable(
        1.5597, -1.0, 0.1486 * 2.0 ** (1 / 1.5597))
    skewed = Stable(1.3, 0.5, 0.6, loc=0.1)
    assert stable_law(skewed, 3.0) is skewed
    assert stable_law(Cauchy(), 3.0) == Stable(1.0, 0.0, 1.0)
    assert stable_law(NIG(1.2, 0.8), 1.0) is None
    assert stable_law(VG(0.1, 0.2), 1.0) is None


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def test_bs_cf_is_centered_gaussian():
    cf = centralized_cf(BS(0.2), CTX)
    u = np.linspace(-10, 10, 41)
    np.testing.assert_allclose(cf.phi(u), np.exp(-0.02 * u * u), rtol=1e-14)
    assert cf.mu == pytest.approx(math.log(100.0) - 0.02, rel=1e-14)


def test_nig_cf_closed_form():
    a, d, T = 1.2, 0.8, 1.0
    cf = centralized_cf(NIG(a, d), CTX)
    u = np.linspace(-30, 30, 31)
    np.testing.assert_allclose(cf.phi(u),
                               np.exp(-d * T * np.sqrt(a * a + u * u) + d * T * a),
                               rtol=1e-14)


def test_fmls_cf_modulus():
    m = FMLS(1.5597, 0.1486)
    cf = centralized_cf(m, CTX)
    c = 0.1486
    for u in (1.0, 2.5, -4.0):
        assert abs(cf.phi(u)) == pytest.approx(math.exp(-(c * abs(u)) ** m.alpha),
                                               rel=1e-13)


def test_fmls_equals_stable_representation():
    m = FMLS(1.5597, 0.1486)
    cf_f = centralized_cf(m, CTX)
    cf_s = centralized_cf(stable_law(m, CTX.T), CTX)
    u = np.linspace(-80, 80, 257)
    assert np.max(np.abs(cf_f.phi(u) - cf_s.phi(u))) < 1e-12


@pytest.mark.parametrize("model,ctx", ALL_MODELS)
def test_cf_invariants_on_grid(model, ctx):
    cf = centralized_cf(model, ctx)
    u = np.linspace(-100, 100, 501)
    vals = cf.phi(u)
    assert complex(cf.phi(0.0)) == 1.0 + 0.0j
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    np.testing.assert_allclose(cf.phi(-u), np.conj(vals), atol=1e-14)


@pytest.mark.parametrize("model,ctx", [
    (BS(0.2), CTX), (NIG(1.2, 0.8), CTX),
    (VG(0.1, 0.2, 0.0), CTX_VG), (VG(0.12, 0.3, -0.1), CTX),
])
def test_centering_by_finite_difference_semiheavy(model, ctx):
    # mean of the centralized return vanishes: -i phi'(0) ~ 0
    cf = centralized_cf(model, ctx)
    h = 1e-5
    deriv = (cf.phi(h) - cf.phi(-h)) / (2.0 * h)
    mean = -1j * deriv
    assert abs(mean.imag) <= 1e-6
    assert abs(mean.real) <= 1e-6


def test_centering_fmls_heavy_tail_rate():
    # the finite difference of a stable CF converges like h^(alpha-1), so the
    # semi-heavy tolerance does not apply; the mean is still zero
    cf = centralized_cf(FMLS(1.5597, 0.1486), CTX)
    h = 1e-5
    mean = -1j * (cf.phi(h) - cf.phi(-h)) / (2.0 * h)
    assert abs(mean.imag) <= 1e-6
    assert abs(mean.real) <= 1e-3


# the complex-typed CFs, with VG both symmetric and drifted, at a short and
# a long maturity, and with an integer T/nu whose power numpy takes by
# products, which overflow past |x| = 720
_SCALAR_PATH_CFS = [
    centralized_cf(model, ctx) for model, ctx in (
        (BS(0.2), CTX),
        (NIG(1.2, 0.8), CTX),
        (NIG(15.0, 0.5), CTX_VG),
        (VG(0.1, 0.2, 0.0), CTX_VG),
        (VG(0.12, 0.2, 0.0), MarketContext(100.0, 0.02, 1.5)),
        (VG(0.12, 0.3, -0.1), CTX),
        (VG(0.12, 0.2, -0.14), CTX_VG),
        (VG(0.5, 1.0, 0.0), MarketContext(100.0, 0.0, 64.0)),
        (FMLS(1.5597, 0.1486), CTX),
    )
]

# up to the top of the float range, where BS and NIG products overflow and
# VG's power by products and drifted phase do
_REAL_POINTS = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.one_of(st.just(0.0), st.just(5e-324), st.just(1.7e308),
              st.floats(0.0, 10.0),
              st.floats(-6.0, 308.25).map(lambda e: 10.0 ** e)),
    st.booleans())


def _bits(value):
    return np.array([value], dtype=complex).view(np.int64).tolist()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(_SCALAR_PATH_CFS), _REAL_POINTS)
def test_real_scalar_phi_equals_0d_array_bit_for_bit(cf, x):
    # a float runs phi in Python scalars while every intermediate is finite;
    # it must give the value of the 0-d array route exactly (a 1-element
    # array is not the reference: the vector loop may fuse multiply-adds).
    # An int and an np.float32 take the array route, with the value of the
    # float they convert to.  Far out the array route's overflow may warn
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _bits(cf.phi(np.asarray(x)))
        for arg in (float(x), np.float64(x)):
            value = cf.phi(arg)
            assert isinstance(value, complex)
            assert _bits(value) == expected, (cf.model, cf.T, x)
        others = [int(x)]
        if abs(x) <= np.finfo(np.float32).max:
            others.append(np.float32(x))
        for arg in others:
            value = cf.phi(arg)
            assert isinstance(value, complex)
            assert _bits(value) == _bits(cf.phi(float(arg))), (cf.model, arg)


def _plain_phi(model, T):
    """phi with its constant factors written into the expression: the
    reference for the closures of centralized_cf, which compute them once.
    A real scalar x is passed as np.complex128(x)."""
    if isinstance(model, BS):
        var = model.sigma ** 2 * T
        return lambda u: np.exp(-0.5 * var * u * u)
    if isinstance(model, NIG):
        a, d = model.alpha, model.delta
        return lambda u: np.exp(d * T * (a - np.sqrt(a * a + u * u)))
    if isinstance(model, VG):
        s, nu, th = model.sigma, model.nu, model.theta

        def phi(u):
            base = 1.0 - 1j * th * nu * u + 0.5 * s * s * nu * u * u
            return base ** (-T / nu) * np.exp(-1j * u * th * T)
        return phi
    a = model.alpha
    c = model.sigma * T ** (1.0 / a)
    sec = 1.0 / math.cos(math.pi * a / 2.0)
    return lambda u: np.exp(-(c ** a) * sec * (1j * u) ** a)


_SCALAR_POINTS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.37, -0.37, 3.0, -2.7,
                  41.5, -1e3, 1e5, 1e300, -1e300]


@pytest.mark.parametrize("model,T", [
    (BS(0.2), 1.0), (BS(1e-3), 1e4), (NIG(1.2, 0.8), 1.0), (NIG(15.0, 0.5), 0.25),
    (VG(0.1, 0.2, 0.0), 0.25), (VG(0.12, 0.2, 0.0), 1.5),
    (VG(0.12, 0.3, -0.1), 1.0), (VG(0.12, 0.2, -0.14), 0.25),
    (FMLS(1.5597, 0.1486), 1.0), (FMLS(1.05, 0.3), 2.0),
    (Stable(1.5, 0.4, 0.8), 1.0), (Stable(1.0, 0.5, 0.7), 1.0), (Cauchy(), 1.0)])
def test_phi_keeps_the_bits_of_the_plain_expression(model, T):
    # a real scalar gives the plain expression's value on np.complex128(x),
    # and an array its value on the complex array; the scalar also equals
    # the 1-element array, except for drifted VG, whose two complex factors
    # the vector loop multiplies with fused multiply-adds.  Where the plain
    # value is not finite at |x| >= zero_from, phi gives the 0 it rounds to
    cf = centralized_cf(model, MarketContext(100.0, 0.02, T))
    xs = np.array(_SCALAR_POINTS)
    drifted = isinstance(model, VG) and model.theta != 0.0

    def expected(plain_values, x):
        plain_values = np.asarray(plain_values)
        return np.where(~np.isfinite(plain_values) & (abs(x) >= cf.zero_from),
                        0j, plain_values)

    with np.errstate(all="ignore"):
        if not isinstance(model, (Stable, Cauchy)):
            plain = _plain_phi(model, T)
            assert _bits(cf.phi(xs)) == _bits(
                expected(plain(xs.astype(complex)), xs))
        for x in _SCALAR_POINTS:
            value = cf.phi(x)
            if not isinstance(model, (Stable, Cauchy)):
                assert _bits(value) == _bits(
                    expected(plain(np.complex128(x)), x)), x
            if not drifted:
                assert _bits(value) == _bits(cf.phi(np.array([x]))[0]), x


# models drawn over wide parameter ranges, with FMLS and Stable alpha also
# next to 1 (where sec(pi alpha / 2) loses digits), VG drift-free or not and
# with T/nu sometimes an integer
_NEAR_ONE = st.floats(1e-15, 1e-9)
_FACT_CASES = st.one_of(
    st.tuples(st.builds(BS, st.floats(0.01, 2.0)), st.floats(0.01, 5.0)),
    st.tuples(st.builds(NIG, st.floats(1.0, 60.0), st.floats(0.01, 5.0)),
              st.floats(0.01, 5.0)),
    st.builds(lambda sigma, nu, theta, ratio: (VG(sigma, nu, theta), nu * ratio),
              st.floats(0.05, 0.6), st.floats(0.002, 1.0),
              st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
              st.one_of(st.integers(1, 150).map(float), st.floats(1.0, 600.0))),
    st.tuples(st.builds(FMLS, st.one_of(st.floats(1.01, 1.99),
                                        _NEAR_ONE.map(lambda e: 1.0 + e)),
                        st.floats(0.01, 2.0)),
              st.floats(0.01, 5.0)),
    st.tuples(st.builds(Stable,
                        st.one_of(st.floats(0.05, 2.0),
                                  _NEAR_ONE.map(lambda e: 1.0 + e),
                                  _NEAR_ONE.map(lambda e: 1.0 - e)),
                        st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                        st.floats(0.01, 5.0)),
              st.just(1.0)),
    st.tuples(st.just(Cauchy()), st.just(1.0)),
)


def _grid(L, ks):
    return np.asarray(ks) * (math.pi / (2.0 * L))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_FACT_CASES, st.floats(1e-3, 1e3),
       st.lists(st.integers(0, 2 ** 25), min_size=1, max_size=64))
def test_phi_flagged_real_has_exactly_zero_imaginary_part(case, L, ks):
    model, T = case
    cf = centralized_cf(model, MarketContext(100.0, 0.01, T))
    assert cf.real == (isinstance(model, (BS, NIG, Cauchy))
                       or (isinstance(model, VG) and model.theta == 0.0)
                       or (isinstance(model, Stable) and model.beta == 0.0))
    if cf.real:
        # finite everywhere, VG with an integer T/nu included, whose power
        # numpy takes by products that overflow where |phi| < 1e-308
        values = cf.phi(_grid(L, np.arange(4097).tolist() + ks))
        assert np.all(np.isfinite(values))
        assert np.all(values.imag == 0.0)


def test_integer_power_vg_phi_is_finite_past_its_overflow():
    # VG(0.5, 1) at T = 64: numpy takes base^-64 by products, which overflow
    # into nan for |base| > 64 938, at 196 of the 2 501 even-k nodes of
    # L = 10, N = 5000.  There phi is exp(-64 log(base)), checked against
    # mpmath at 30 digits; the scalar gives the array's value, and every
    # other node keeps the plain expression's bits
    cf = centralized_cf(VG(0.5, 1.0), MarketContext(100.0, 0.0, 64.0))
    u = _grid(10.0, np.arange(0, 5001, 2))
    with np.errstate(all="ignore"):
        plain = _plain_phi(cf.model, cf.T)(u.astype(complex))
    overflowed = ~np.isfinite(plain)
    assert overflowed.sum() == 196
    values = cf.phi(u)
    assert _bits(values[~overflowed]) == _bits(plain[~overflowed])
    mp.mp.dps = 30
    for x, value in zip(u[overflowed], values[overflowed]):
        exact = (1 + mp.mpf(0.125) * mp.mpf(x) ** 2) ** -64
        assert value.imag == 0.0
        assert abs(value.real - exact) <= 1e-12 * exact + 1e-322, x
        assert _bits(cf.phi(float(x))) == _bits(value)


@pytest.mark.parametrize("model,T", [(FMLS(1.5597, 0.1486), 1.0),
                                     (FMLS(1.5, 0.2), 1.0),
                                     (FMLS(1.05, 0.3), 2.0)])
def test_fmls_phi_is_zero_where_its_power_overflows(model, T):
    # |u|^alpha overflows far past zero_from, and phi gives the 0 it rounds
    # to there, not nan, on arrays and on scalars, and warns of nothing
    cf = centralized_cf(model, MarketContext(100.0, 0.02, T))
    far = np.array([1e200, 1e250, 1e300, -1e300])
    assert np.all(abs(far) >= cf.zero_from)
    assert np.all(cf.phi(far) == 0.0)
    assert all(cf.phi(float(x)) == 0.0 for x in far)


_FMLS_ALPHAS = st.one_of(st.just(1.0 + 1e-13), st.just(2.0 - 1e-13),
                        st.floats(1.0, 2.0, exclude_min=True,
                                  exclude_max=True))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_FMLS_ALPHAS, st.floats(0.01, 2.0), st.floats(0.01, 10.0),
       st.floats(0.1, 1e6), st.integers(1, 20_000))
def test_fmls_phi_on_a_cos_grid_keeps_the_complex_power_bits(a, sigma, T,
                                                             L, n):
    # a real array in [0, quiet] skips numpy's complex power per node; phi
    # must still be exp(coef (1j u)^a) word for word, at u = 0, subnormal
    # u, the cut and quiet included.  It rests on libm's cpow being
    # cexp(a clog(i u)), as glibc's is
    model = FMLS(a, sigma)
    cf = centralized_cf(model, MarketContext(100.0, 0.0, T))
    c = sigma * T ** (1.0 / a)
    coef = -(c ** a) * (1.0 / math.cos(math.pi * a / 2.0))
    quiet = (sys.float_info.max / 4.0 / max(1.0, abs(coef))) ** (1.0 / a)
    extra = [0.0, 5e-324, 1e-310, 2.2e-308, quiet]
    if cf.zero_from < math.inf:
        extra.append(cf.zero_from)
    u = np.concatenate([_grid(L, np.arange(n + 1)), extra])
    expected = np.exp(coef * (1j * u.astype(complex)) ** a)
    assert np.array_equal(cf.phi(u).view(np.int64), expected.view(np.int64))


@pytest.mark.filterwarnings("error")
def test_fmls_phi_is_zero_far_out_without_a_cut():
    # alpha within 1e-13 of 1 has no cut, but where (i u)^a overflows
    # exp(-(c |u|)^a) still rounds to 0, and so does phi, silently
    cf = centralized_cf(FMLS(1.0000000000001, 0.2),
                        MarketContext(100.0, 0.0, 1.0))
    assert math.isinf(cf.zero_from)
    assert cf.phi(1e300) == 0.0
    values = cf.phi(np.array([1.0, 1e300, -1e300]))
    assert np.isfinite(values[0]) and np.all(values[1:] == 0.0)


@pytest.mark.filterwarnings("error")
def test_drifted_vg_phi_is_zero_where_its_phase_overflows():
    # u theta T overflows past u = 1.7e308 / 17.7, so the phase is nan; phi
    # gives the 0 that |phi| rounds to there, silently, on both paths, and
    # keeps the bits of every other value
    cf = centralized_cf(VG(0.387, 0.623, 0.293),
                        MarketContext(100.0, 0.0, 60.4))
    far = [1.7e308, -1.7e308, 1e308]
    assert all(cf.phi(x) == 0.0 for x in far)
    values = cf.phi(np.array([1.0, 3.5] + far))
    assert np.all(values[2:] == 0.0)
    assert _bits(values[:2]) == _bits(
        _plain_phi(cf.model, cf.T)(np.array([1.0, 3.5], dtype=complex)))
    # with T/nu = 0.3, |phi(1.7e308)| is about 1e-185: no phase, no value
    cf = centralized_cf(VG(0.2, 10.0, -0.5), MarketContext(100.0, 0.0, 3.0))
    assert np.isnan(cf.phi(1.7e308))
    assert np.isnan(cf.phi(np.array([1.7e308]))).all()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_FACT_CASES, st.integers(1, 2 ** 20),
       st.lists(st.integers(0, 2 ** 25), max_size=64))
def test_phi_is_exactly_zero_from_its_cut_on(case, k_cut, beyond):
    # L puts the cut near grid index k_cut; phi must be exactly 0 at u0
    # itself, at the first grid index at or past it, at the first index the
    # engine leaves out, and at sampled indices beyond
    model, T = case
    cf = centralized_cf(model, MarketContext(100.0, 0.01, T))
    u0 = cf.zero_from
    if math.isinf(u0):
        return
    L = math.pi * k_cut / (2.0 * u0)
    w = math.pi / (2.0 * L)
    first = math.ceil(u0 / w)
    first += first * w < u0
    ks = [first, first + 1, int(u0 / w) + 2] + [first + k for k in beyond]
    values = cf.phi(np.concatenate([[u0], _grid(L, ks)]))
    assert np.all(values == 0.0), (model, T, L)


def test_cut_frequencies_of_the_reference_models():
    # u0 where the stable law's |phi| envelope reaches exp(-750); none where
    # rounding cannot be bounded (alpha next to 1), and none for NIG and VG
    def u0(model, T=1.0):
        return centralized_cf(model, MarketContext(100.0, 0.0, T)).zero_from

    assert u0(BS(0.2)) == pytest.approx(math.sqrt(1500.0) / 0.2)
    assert u0(Cauchy()) == 750.0
    assert u0(Stable(1.5, 0.3, 0.8)) == pytest.approx(750.0 ** (1 / 1.5) / 0.8)
    assert math.isinf(u0(Stable(0.005, 0.0, 1.0)))  # 750^200 overflows
    assert u0(FMLS(1.5, 0.2), 4.0) == pytest.approx(
        750.0 ** (1 / 1.5) / (0.2 * 4.0 ** (1 / 1.5)))
    assert math.isinf(u0(FMLS(1.0 + 1e-14, 0.2)))
    assert math.isinf(u0(NIG(2.0, 0.2)))
    assert math.isinf(u0(VG(0.12, 0.2), 1.1))
    assert math.isinf(u0(VG(0.12, 0.2), 1.0))


@pytest.mark.parametrize("model,T", [
    (BS(5e-324), 1.0), (BS(1e-170), 1e-160), (BS(0.2), 5e-324),
    (BS(2.3e-162), 1e300), (BS(1e150), 1.5e-323),
    (BS(1e100), 1e200), (FMLS(1.5, 5e-324), 1.0), (FMLS(1.5, 5e-324), 0.1),
    (FMLS(1.5, 1e-300), 0.1), (FMLS(1.5, 1e-204), 1.0)],
    ids=["sigma-0", "var-0", "T-half-0", "sigma2-subnormal", "T-half-subnormal",
         "var-inf", "fmls-subnormal", "fmls-scale-0", "fmls-scale-power-0",
         "fmls-power-at-cut-inf"])
def test_out_of_range_scales_claim_no_cut(model, T):
    # sigma^2, T/2 or var outside the finite normal range: the stable scale
    # sigma sqrt(T/2) no longer matches phi's var to a few ulps, or is 0,
    # so there is no cut (and no Stable with scale 0 is built); a subnormal
    # FMLS scale puts its cut past the largest float, a zero one nowhere.
    # An FMLS c^alpha below 750 / max-float leaves |(i u)^alpha| = 750 / c^alpha
    # overflowing at the cut, where phi is then NaN, not 0
    cf = centralized_cf(model, MarketContext(100.0, 0.0, T))
    assert math.isinf(cf.zero_from)


def test_martingale_property_by_quadrature():
    # E[S_T] = S0 e^{rT}: integrate e^{mu + x} f(x) against the density
    ctx = MarketContext(S0=100.0, r=0.03, T=0.75)
    for model in (BS(0.25), NIG(1.6, 0.9), VG(0.12, 0.25, -0.05)):
        cf = centralized_cf(model, ctx)
        dens = closed_form_density(model, ctx)
        val = quad(lambda x: math.exp(x) * float(dens(x)), -40.0, 40.0,
                   limit=600, epsabs=1e-13)[0]
        forward = math.exp(cf.mu) * val
        assert forward == pytest.approx(ctx.S0 * math.exp(ctx.r * ctx.T),
                                        rel=1e-8), model


def test_nig_below_one_rejected_for_pricing():
    with pytest.raises(ModelParameterError):
        centralized_cf(NIG(0.8, 1.0), CTX)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_bs_moments_closed_form():
    assert central_moment(BS(0.2), CTX, 4) == pytest.approx(3 * 0.0016, rel=1e-14)
    assert central_moment(BS(0.2), CTX, 8) == pytest.approx(105 * 0.2 ** 8, rel=1e-14)


def test_vg_fourth_moment_vs_quadrature():
    model = VG(0.1, 0.2, 0.0)
    dens = closed_form_density(model, CTX_VG)
    oracle = quad(lambda x: x ** 4 * float(dens(x)), -np.inf, np.inf,
                  limit=800, epsrel=1e-12)[0]
    assert central_moment(model, CTX_VG, 4) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_vg_skewed_moments_vs_quadrature(n):
    model = VG(0.12, 0.3, -0.15)
    ctx = MarketContext(100.0, 0.0, 0.5)
    dens = closed_form_density(model, ctx)
    oracle = quad(lambda x: x ** n * float(dens(x)), -np.inf, np.inf,
                  limit=800, epsrel=1e-12)[0]
    assert central_moment(model, ctx, n) == pytest.approx(oracle, rel=2e-6)


def _vg_central_moments_mp(sigma, nu, theta, T):
    """mu_2..mu_8 of the centralized VG log-return to 50 digits, from the
    exact cumulants k (n-1)! (eta+^n + (-eta-)^n) of its two gamma laws,
    eta+- = sqrt(theta^2 nu^2/4 + sigma^2 nu/2) +- theta nu/2, k = T/nu."""
    with mp.workdps(50):
        s, v, th, t = (mp.mpf(x) for x in (sigma, nu, theta, T))
        root = mp.sqrt(th ** 2 * v ** 2 / 4 + s ** 2 * v / 2)
        up, down = root + th * v / 2, root - th * v / 2
        k2, k3, k4, k5, k6, _, k8 = (
            t / v * mp.factorial(n - 1) * (up ** n + (-down) ** n)
            for n in range(2, 9))
        return {2: k2, 4: k4 + 3 * k2 ** 2,
                6: k6 + 15 * k4 * k2 + 10 * k3 ** 2 + 15 * k2 ** 3,
                8: (k8 + 28 * k6 * k2 + 56 * k5 * k3 + 35 * k4 ** 2
                    + 210 * k4 * k2 ** 2 + 280 * k3 ** 2 * k2
                    + 105 * k2 ** 4)}


@st.composite
def _vg_moment_cases(draw):
    """(sigma, nu, theta, T): theta = 0, or |theta| from 1e-10 up with
    theta^2 nu / sigma^2 up to 1e16, where drift swamps the diffusion and a
    cumulant route that cancels loses every digit; T/nu from 0.1 to 100."""
    sigma = 10.0 ** draw(st.floats(-9.5, 0.0))
    nu = 10.0 ** draw(st.floats(-3.0, 0.5))
    theta = 0.0
    if draw(st.booleans()):
        ratio = 10.0 ** draw(st.floats(-20.0, 16.0))
        theta = max(1e-10, sigma * math.sqrt(ratio / nu))
        theta *= draw(st.sampled_from([1.0, -1.0]))
    return sigma, nu, theta, nu * 10.0 ** draw(st.floats(-1.0, 2.0))


# theta^2 nu / sigma^2 = 1e16: a tiny sigma under strong drift
_VG_STRONG_DRIFT = (3e-9, 1.0, 0.3, 4.0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(st.just(_VG_STRONG_DRIFT), _vg_moment_cases()))
def test_vg_moments_match_exact_cumulants(case):
    sigma, nu, theta, T = case
    exact = _vg_central_moments_mp(sigma, nu, theta, T)
    ctx = MarketContext(100.0, 0.0, T)
    for n in (2, 4, 6, 8):
        got = central_moment(VG(sigma, nu, theta), ctx, n)
        assert abs(got - exact[n]) <= 4e-15 * exact[n], (case, n)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_nig_moments_vs_quadrature(n):
    model = NIG(1.4, 0.7)
    ctx = MarketContext(100.0, 0.0, 0.5)
    dens = closed_form_density(model, ctx)
    oracle = quad(lambda x: x ** n * float(dens(x)), -np.inf, np.inf,
                  limit=800, epsrel=1e-12)[0]
    assert central_moment(model, ctx, n) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("model", [FMLS(1.5597, 0.1486), Stable(1.5, 0.0, 1.0),
                                   Cauchy()])
def test_heavy_tail_moments_do_not_exist(model):
    with pytest.raises(MomentDoesNotExist):
        central_moment(model, CTX, 4)


def test_moment_order_validation():
    with pytest.raises(ValueError):
        central_moment(BS(0.2), CTX, 3)
    with pytest.raises(ValueError):
        central_moment(BS(0.2), CTX, 0)


# ---------------------------------------------------------------------------
# densities and tail profiles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,ctx", [
    (BS(0.2), CTX), (NIG(1.2, 0.8), CTX), (VG(0.1, 0.2, 0.0), CTX_VG),
    (VG(0.12, 0.3, -0.15), CTX), (Cauchy(), CTX),
])
def test_closed_form_density_matches_inversion(model, ctx):
    cf = centralized_cf(model, ctx)
    dens = closed_form_density(model, ctx)
    xs = np.array([-0.8, -0.3, 0.05, 0.2, 0.6])
    np.testing.assert_allclose(dens(xs), derivative_by_inversion(cf, 0, xs),
                               rtol=1e-9, atol=1e-12)


def test_tail_kinds():
    assert isinstance(tail_profile(BS(0.2), CTX), SemiHeavyTail)
    assert isinstance(tail_profile(NIG(1.2, 0.8), CTX), SemiHeavyTail)
    assert isinstance(tail_profile(VG(0.1, 0.2, 0.0), CTX_VG), SemiHeavyTail)
    assert isinstance(tail_profile(FMLS(1.5597, 0.1486), CTX), HeavyTail)
    assert isinstance(tail_profile(Stable(1.5, 0.4, 0.8), CTX), HeavyTail)
    assert isinstance(tail_profile(Cauchy(), CTX), HeavyTail)


def test_fmls_pareto_amplitude_formula():
    # density-tail amplitude for the maximally skewed stable law
    from scipy.special import gamma
    alpha, sigma, T = 1.5597, 0.1486, 1.0
    prof = tail_profile(FMLS(alpha, sigma), CTX)
    expect = alpha * (1 - alpha) / (gamma(2 - alpha) * math.cos(math.pi * alpha / 2)) \
        * sigma ** alpha * T
    assert prof.amplitude == pytest.approx(expect, rel=1e-14)
    assert prof.index == alpha


def test_cauchy_amplitude_matches_cdf_tail_limit():
    # x * (1 - F(x)) -> amplitude/index as x -> inf for the Pareto profile
    prof = tail_profile(Cauchy(), CTX)
    from coskit.reference import cauchy_cdf
    for x in (1e3, 1e5):
        lim = x * (1.0 - cauchy_cdf(x))
        assert lim == pytest.approx(prof.amplitude / prof.index, rel=1e-2)
    assert prof.amplitude == pytest.approx(1.0 / math.pi, rel=1e-14)


@pytest.mark.parametrize("model,ctx", [
    (BS(0.2), CTX), (NIG(1.2, 0.8), CTX), (VG(0.1, 0.2, 0.0), CTX_VG),
    (VG(0.12, 0.3, -0.1), CTX),
])
def test_semiheavy_bound_dominates_density(model, ctx):
    # zero-tolerance domination check on [onset, 10*onset], both tails; the
    # inversion oracle's absolute noise floor caps how deep it can see
    prof = tail_profile(model, ctx)
    cf = centralized_cf(model, ctx)
    xs = np.geomspace(prof.onset, 10.0 * prof.onset, 25)
    noise = 1e-11
    bound = math.exp(prof.log_amplitude) * np.exp(-prof.rate * xs)
    for sign in (+1.0, -1.0):
        f = derivative_by_inversion(cf, 0, sign * xs)
        assert np.all(f <= bound + noise), (model, sign)


# Independent oracles for log sup f(x) e^(rate |x|) over x >= onset on one
# tail; neither reads coskit.  NIG: the density through mpmath's K_1.  VG:
# the normal variance mixture over gamma time g, by the trapezoid rule in
# t = log g, summed in logs (the sup passes the float range).

def _peak(log_h, lo: float, hi: float, n: int = 120) -> float:
    """max of a smooth log_h on [lo, hi]: a geometric scan, then a bounded
    search between the neighbours of the best point."""
    xs = np.geomspace(lo, hi, n)
    vals = [log_h(x) for x in xs]
    i = int(np.argmax(vals))
    res = minimize_scalar(lambda x: -log_h(x), method="bounded",
                          bounds=(xs[max(i - 1, 0)], xs[min(i + 1, n - 1)]))
    return max(vals[i], -res.fun)


def _nig_log_sup(alpha, delta, T, onset):
    def log_h(x):
        with mp.workdps(30):
            dT = mp.mpf(delta) * T
            rho = mp.sqrt(dT ** 2 + mp.mpf(x) ** 2)
            return float(mp.log(alpha * dT / mp.pi) + alpha * dT - mp.log(rho)
                         + mp.log(mp.besselk(1, alpha * rho)) + alpha * x)

    return _peak(log_h, onset, 1e5 * onset)


def _vg_log_sup(sigma, nu, theta, T, rate, onset, side):
    # the gamma time has mean T; at every x scanned here, and for the shapes
    # T/nu >= 0.75 used, e^-40 T to e^12 T holds all but a negligible share
    # of the mixture
    k, h = T / nu, 0.002
    t = np.arange(math.log(T) - 40.0, math.log(T) + 12.0, h)
    g = np.exp(t)
    log_mix = ((k - 0.5) * t - g / nu - 0.5 * math.log(2.0 * math.pi * sigma ** 2)
               - math.lgamma(k) - k * math.log(nu))

    def log_h(x):
        y = side * x + theta * T  # the uncentred VG law at the centred x
        terms = log_mix - (y - theta * g) ** 2 / (2.0 * sigma ** 2 * g)
        top = terms.max()
        return top + math.log(h * np.sum(np.exp(terms - top))) + rate * x

    return _peak(log_h, onset, 1e4 * onset)


@pytest.mark.parametrize("model,T", [
    (NIG(15.0, 0.5), 20.0), (NIG(100.0, 1.0), 5.0), (NIG(30.0, 1.0), 4.0),
    (NIG(230.146, 0.03846), 4.024), (VG(0.0856, 0.0377), 17.59),
    (VG(0.12, 0.2, -0.14), 1.5), (VG(0.12, 0.2), 0.25),
    (VG(0.12, 0.2), 0.15),  # T/nu < 1: the sup sits at the onset
])
def test_semiheavy_amplitude_bounds_the_true_sup(model, T):
    # on both tails the amplitude is at least sup f(x) e^(rate |x|) beyond
    # the onset, and at most 1.2 times it, compared in logs: an amplitude
    # may pass the float range
    prof = tail_profile(model, MarketContext(100.0, 0.0, T))
    log_a, rate, onset = prof.log_amplitude, prof.rate, prof.onset
    if isinstance(model, NIG):  # symmetric: one tail is both
        truth = _nig_log_sup(model.alpha, model.delta, T, onset)
    else:
        truth = max(_vg_log_sup(model.sigma, model.nu, model.theta, T, rate,
                                onset, side) for side in (1.0, -1.0))
    assert truth <= log_a <= truth + math.log(1.2)


def _vg_slower_decay(sigma, nu, theta):
    """min(1/eta+, 1/eta-) = sqrt(theta^2/sigma^4 + 2/(sigma^2 nu)) -
    |theta|/sigma^2 to 30 digits: the difference cancels about
    log10(theta^2 nu/sigma^2) leading digits, which the working precision
    adds on top."""
    lost = math.ceil(math.log10(1.0 + theta * theta * nu / sigma ** 2))
    with mp.workdps(30 + lost):
        s, v, th = mp.mpf(sigma), mp.mpf(nu), mp.mpf(theta)
        return +(mp.sqrt(th ** 2 / s ** 4 + 2 / (s ** 2 * v)) - abs(th) / s ** 2)


# the rate the cancelling expression got wrong: 3.5 for 3.33 at sigma 1e-8,
# a refusal at 3e-9 (0.9 lambda past 1/eta+) and lambda = 0 at 1e-9
_VG_CANCELLING = [(1e-8, 1.0, 0.3), (3e-9, 1.0, 0.3), (1e-9, 1.0, 0.3)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(_VG_CANCELLING),
                 st.tuples(st.floats(1e-9, 2.0), st.floats(1e-3, 2.0),
                           st.floats(-0.6, 0.6))))
def test_vg_tail_rate_is_the_slower_decay_rate(params):
    # 0.9 lambda with lambda the slower of the two exponential decay rates
    # 1/eta+-, to a few ulps wherever the closed form cancels
    rate = models._log_tail(VG(*params), 1.0)[1]
    want = 0.9 * _vg_slower_decay(*params)
    assert abs(rate - want) <= 1e-15 * want, (params, rate, want)


def test_vg_tail_needs_no_finite_sigma_to_the_fourth():
    # sigma^4 underflows below sigma = 1e-81, but no tail formula reads it:
    # the gamma scales of `bilateral_gamma` are finite and so is the
    # profile.  Where 1/eta- overflows the density peak is past every
    # float, and the refusal names the scale
    prof = tail_profile(VG(1e-90, 0.2, 0.3), MarketContext(100.0, 0.0, 1.5))
    assert isinstance(prof, SemiHeavyTail)
    assert prof.rate == 0.9 / models.bilateral_gamma(VG(1e-90, 0.2, 0.3),
                                                     1.5)[1]
    with pytest.raises(ModelParameterError, match="VG gamma scale 1.66667e-310"):
        tail_profile(VG(1e-155, 0.05, 0.3), MarketContext(100.0, 0.0, 10.0))


def test_cauchy_heavy_bound_dominates_density_exactly():
    prof = tail_profile(Cauchy(), CTX)
    dens = closed_form_density(Cauchy(), CTX)
    xs = np.geomspace(prof.onset, 10.0 * prof.onset, 50)
    bound = prof.amplitude * xs ** (-1.0 - prof.index)
    assert np.all(dens(xs) <= bound)
    assert np.all(dens(-xs) <= bound)


def test_fmls_heavy_tail_is_sharp_asymptote():
    # the Pareto amplitude is the exact asymptotic constant; the density
    # approaches it from above by a few percent at finite range, so the
    # documented envelope is ratio in (0.9, 1.03] on [onset, 10*onset]
    prof = tail_profile(FMLS(1.5597, 0.1486), CTX)
    cf = centralized_cf(FMLS(1.5597, 0.1486), CTX)
    xs = np.geomspace(prof.onset, 10.0 * prof.onset, 12)
    left = derivative_by_inversion(cf, 0, -xs)   # heavy left tail
    ratio = left / (prof.amplitude * xs ** (-1.0 - prof.index))
    assert np.all(ratio <= 1.03)
    assert np.all(ratio >= 0.9)
    # the light right tail is dominated outright
    right = derivative_by_inversion(cf, 0, xs)
    assert np.all(right <= prof.amplitude * xs ** (-1.0 - prof.index) + 1e-11)
