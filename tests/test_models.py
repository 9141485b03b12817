import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coskit.errors import ModelParameterError, MomentDoesNotExist
from coskit.models import (BS, FMLS, NIG, VG, Cauchy, HeavyTail,
                           MarketContext, SemiHeavyTail, central_moment,
                           centralized_cf, closed_form_density,
                           stable_law, tail_profile)
from coskit.models import Stable
from coskit.reference import derivative_by_inversion

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


# the complex-typed CFs, with VG both symmetric and drifted and at a short
# and a long maturity
_SCALAR_PATH_CFS = [
    centralized_cf(model, ctx) for model, ctx in (
        (BS(0.2), CTX),
        (NIG(1.2, 0.8), CTX),
        (NIG(15.0, 0.5), CTX_VG),
        (VG(0.1, 0.2, 0.0), CTX_VG),
        (VG(0.12, 0.2, 0.0), MarketContext(100.0, 0.02, 1.5)),
        (VG(0.12, 0.3, -0.1), CTX),
        (VG(0.12, 0.2, -0.14), CTX_VG),
        (FMLS(1.5597, 0.1486), CTX),
    )
]

_REAL_POINTS = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.one_of(st.just(0.0), st.just(5e-324),
              st.floats(0.0, 10.0),
              st.floats(-6.0, 9.0).map(lambda e: 10.0 ** e)),
    st.booleans())


def _bits(value):
    return np.array([value], dtype=complex).view(np.int64).tolist()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(_SCALAR_PATH_CFS), _REAL_POINTS)
def test_real_scalar_phi_equals_0d_array_bit_for_bit(cf, x):
    # a real scalar runs phi as NumPy scalar math; it must give the value of
    # the 0-d array path exactly (a 1-element array is not the reference:
    # the vector loop may fuse multiply-adds)
    expected = _bits(cf.phi(np.asarray(x)))
    for arg in (float(x), np.float64(x)):
        value = cf.phi(arg)
        assert isinstance(value, np.complex128)
        assert _bits(value) == expected, (cf.model, cf.T, x)


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
        # numpy's integer powers overflow into nan where |phi| < 1e-308 (VG
        # with integer T/nu); the engine keeps such a series whole
        with np.errstate(all="ignore"):
            values = cf.phi(_grid(L, np.arange(4097).tolist() + ks))
        assert np.all(values.imag[np.isfinite(values)] == 0.0)


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
    (BS(1e100), 1e200), (FMLS(1.5, 5e-324), 1.0), (FMLS(1.5, 5e-324), 0.1)],
    ids=["sigma-0", "var-0", "T-half-0", "sigma2-subnormal", "T-half-subnormal",
         "var-inf", "fmls-subnormal", "fmls-scale-0"])
def test_out_of_range_scales_claim_no_cut(model, T):
    # sigma^2, T/2 or var outside the finite normal range: the stable scale
    # sigma sqrt(T/2) no longer matches phi's var to a few ulps, or is 0,
    # so there is no cut (and no Stable with scale 0 is built); a subnormal
    # FMLS scale puts its cut past the largest float, a zero one nowhere
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
    bound = prof.amplitude * np.exp(-prof.rate * xs)
    for sign in (+1.0, -1.0):
        f = derivative_by_inversion(cf, 0, sign * xs)
        assert np.all(f <= bound + noise), (model, sign)


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
