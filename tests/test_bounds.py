import itertools
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from coskit.bounds import (HjSource, bl_bound_heavy, bl_bound_semiheavy,
                           hj_closed_form, hj_numeric, series_truncation_bound)
from coskit.errors import IntegralDiverged, ModelParameterError, NoClosedForm
from coskit.models import (BS, FMLS, NIG, VG, Cauchy, MarketContext, Stable,
                           centralized_cf, closed_form_density, tail_profile)
from coskit.reference import (bl_bruteforce, gauss_tail_cos_integrals,
                              hj_density_sup, tail_cos_integrals)

CTX = MarketContext(S0=100.0, r=0.0, T=1.0)
CTX_VG = MarketContext(S0=100.0, r=0.0, T=0.25)


# ---------------------------------------------------------------------------
# closed-form derivative bounds
# ---------------------------------------------------------------------------

def test_cauchy_peak_is_exact_bound():
    b = hj_closed_form(Cauchy(), CTX, 0)
    assert b.value == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert b.source is HjSource.CLOSED_FORM_STABLE


def _gauss_bound(sigma, T):
    return hj_closed_form(BS(sigma), MarketContext(100.0, 0.0, T), 1)


@pytest.mark.parametrize("sigma,T,match", [(0.2, 5e-324, "scale"),
                                           (1e200, 1e300, r"BS sigma\^2")],
                         ids=["scale-0", "scale-inf"])
def test_gauss_bound_refuses_a_stable_scale_out_of_range(sigma, T, match):
    # sigma sqrt(T/2) rounds to 0: no Stable law has that scale.  It could
    # overflow only where sigma^2 does, and BS itself refuses such a sigma;
    # the largest sigma it takes keeps a finite bound at the largest T
    with pytest.raises(ModelParameterError, match=match):
        _gauss_bound(sigma, T)
    assert math.isfinite(_gauss_bound(1.3e154, sys.float_info.max).log_value)


def test_gauss_bound_matches_density_peak():
    b = hj_closed_form(BS(0.2), CTX, 0)
    peak = 1.0 / (0.2 * math.sqrt(2.0 * math.pi))
    assert b.value == pytest.approx(peak, rel=1e-14)
    assert b.value == pytest.approx(1.9947114020071635, rel=1e-12)


def test_nig_bound_example_value():
    b = hj_closed_form(NIG(1.0, 1.0), CTX, 1)
    assert b.value == pytest.approx(math.e / math.pi, rel=1e-14)
    # the numeric integral must come in below the closed form
    num = hj_numeric(centralized_cf(NIG(1.0, 1.0), CTX), 1)
    assert num.value == pytest.approx(2.0 / math.pi, rel=1e-8)
    assert num.value <= b.value * (1.0 + 1e-6)


def test_fmls_high_order_log_consistency():
    alpha, c = 1.5597, 0.1486
    b = hj_closed_form(FMLS(alpha, c), CTX, 41)
    expect = gammaln(42.0 / alpha) - math.log(math.pi * alpha) - 42.0 * math.log(c)
    assert b.log_value == pytest.approx(expect, rel=1e-14)
    assert b.value == pytest.approx(math.exp(expect), rel=1e-12)


def _gauss_hj(j, s):
    # (1/pi) Int_0^inf u^j exp(-s^2 u^2 / 2) du in its even/odd factorial
    # form, with exact integer factorials
    if j % 2 == 0:
        k = j // 2
        return (math.factorial(j) // math.factorial(k)
                / (s ** (j + 1) * math.sqrt(2.0 * math.pi) * 2.0 ** k))
    k = (j - 1) // 2
    return 2.0 ** k * math.factorial(k) / (s ** (j + 1) * math.pi)


def test_gauss_equals_stable_specialization():
    # BS is the alpha = 2 member of the stable bound
    for sigma, T in ((0.2, 1.0), (0.35, 0.25), (0.1, 4.0)):
        s = sigma * math.sqrt(T)
        ctx = MarketContext(100.0, 0.0, T)
        for j in range(81):
            b = hj_closed_form(BS(sigma), ctx, j)
            assert b.source is HjSource.CLOSED_FORM_GAUSS
            assert b.value == pytest.approx(_gauss_hj(j, s), rel=1e-12), j


@pytest.mark.parametrize("model", [BS(0.2), NIG(1.2, 0.8),
                                   FMLS(1.5597, 0.1486),
                                   Stable(1.3, 0.5, 0.7), Cauchy()])
def test_log_domain_finite_to_order_80(model):
    logs = [hj_closed_form(model, CTX, j).log_value for j in range(81)]
    assert all(map(math.isfinite, logs))


def test_vg_has_no_closed_form():
    with pytest.raises(NoClosedForm):
        hj_closed_form(VG(0.1, 0.2), CTX, 1)


# ---------------------------------------------------------------------------
# numeric derivative bounds
# ---------------------------------------------------------------------------

def test_numeric_matches_gauss_closed_form():
    cf = centralized_cf(BS(0.2), CTX)
    for j in (0, 1, 5):
        num = hj_numeric(cf, j)
        cl = hj_closed_form(BS(0.2), CTX, j)
        assert num.value == pytest.approx(cl.value, rel=1e-6)
        assert num.value <= cl.value * (1.0 + 1e-6)


def test_numeric_equals_stable_closed_form():
    # for stable laws the closed form evaluates the same integral exactly
    cf = centralized_cf(FMLS(1.5597, 0.1486), CTX)
    for j in (0, 3, 10):
        num = hj_numeric(cf, j)
        cl = hj_closed_form(FMLS(1.5597, 0.1486), CTX, j)
        assert num.value == pytest.approx(cl.value, rel=1e-7)
        assert num.value <= cl.value * (1.0 + 1e-6)


def test_numeric_bound_dominates_density_sup():
    cf = centralized_cf(NIG(1.2, 0.8), CTX)
    from coskit.reference import derivative_by_inversion
    xs = np.linspace(-1.5, 1.5, 31)
    assert hj_numeric(cf, 0).value >= float(
        np.max(derivative_by_inversion(cf, 0, xs)))


def test_vg_first_derivative_routes():
    cf = centralized_cf(VG(0.1, 0.2, 0.0), CTX_VG)
    integral = hj_numeric(cf, 1)
    assert integral.value == pytest.approx(4000.0 / (2.0 * math.pi), rel=1e-6)
    sup = hj_density_sup(cf, 1)
    assert sup.value == pytest.approx(217.95, rel=0.02)
    assert sup.value <= integral.value
    assert sup.source is HjSource.DENSITY_SUP


# hj_density_sup cases: model, market and order; the values in
# data/hj_density_sup_golden.json were recorded when every scan point was
# inverted at full accuracy
SUP_CASES = {
    "vg_study_j1": (VG(0.1, 0.2, 0.0), CTX_VG, 1),
    "vg_drift_j1": (VG(0.12, 0.2, -0.14), MarketContext(100.0, 0.02, 1.25), 1),
    "nig_j1": (NIG(1.2, 0.8), CTX, 1),
    "bs_j2": (BS(0.2), CTX, 2),
    "nig_j3": (NIG(1.2, 0.8), CTX, 3),
}
SYMMETRIC_SUP_CASES = ("vg_study_j1", "nig_j1", "bs_j2", "nig_j3")


def _sup_case(name):
    model, ctx, order = SUP_CASES[name]
    return centralized_cf(model, ctx), order


@pytest.mark.parametrize("name", sorted(SUP_CASES))
def test_density_sup_matches_full_scan_bitwise(name):
    with open(Path(__file__).parent / "data" / "hj_density_sup_golden.json") as fh:
        want = json.load(fh)[name]
    cf, order = _sup_case(name)
    assert hj_density_sup(cf, order).value == want


@pytest.mark.parametrize("name", SYMMETRIC_SUP_CASES)
def test_inversion_mirrors_exactly_on_scan_grid(name):
    # the screen inverts x > 0 only when phi is real; that rests on
    # QUADPACK's value at -x being exactly (-1)^j times its value at x
    from coskit.reference import derivative_by_inversion
    cf, order = _sup_case(name)
    scale = 1.0
    while abs(cf.phi(1.0 / scale)) > 0.5:
        scale /= 2.0
    xs = np.geomspace(1e-3 * scale, 8.0 * scale, 60)
    pos = derivative_by_inversion(cf, order, xs)
    neg = derivative_by_inversion(cf, order, -xs)
    assert np.array_equal(neg, (-1) ** order * pos)


def test_density_sup_inverts_few_points_at_full_accuracy(monkeypatch):
    import coskit.reference as reference
    inverted = []
    full = reference.derivative_by_inversion

    def counted(cf, j, xs):
        inverted.extend(np.atleast_1d(xs))
        return full(cf, j, xs)

    monkeypatch.setattr(reference, "derivative_by_inversion", counted)
    cf, order = _sup_case("vg_study_j1")
    hj_density_sup(cf, order)
    # a full scan inverts all 120 grid points plus the refine's 11
    assert len(inverted) <= 20


def test_vg_higher_order_diverges():
    cf = centralized_cf(VG(0.1, 0.2, 0.0), CTX_VG)
    with pytest.raises(IntegralDiverged):
        hj_numeric(cf, 2)


# ---------------------------------------------------------------------------
# series-truncation bound
# ---------------------------------------------------------------------------

def test_truncation_bound_quarter_scaling():
    b1 = series_truncation_bound(5.0, [0.1], 3.0, 64, 1)
    b4 = series_truncation_bound(5.0, [0.1], 3.0, 256, 1)
    assert b4 / b1 == pytest.approx(0.25, rel=1e-14)


@pytest.mark.parametrize("J", [1, 2, 3, 4, 6, 9, 12, 20])
def test_truncation_bound_constant_matches_mpmath(J):
    # with zero boundary sums the bound is its leading term alone,
    # 2^(J+2) H L^(J+1) / (J pi^(J+1) N^J), here at 30 digits
    grid = itertools.product((1e-3, 0.7, 5.0, 3e4), (0.25, 1.0, 3.0, 12.5),
                             (16, 179, 1024, 65536))
    for h, L, n in grid:
        with mpmath.workdps(30):
            exact = (mpmath.mpf(2) ** (J + 2) * mpmath.mpf(h)
                     * mpmath.mpf(L) ** (J + 1)
                     / (J * mpmath.pi ** (J + 1) * mpmath.mpf(n) ** J))
        bound = series_truncation_bound(h, [0.0] * J, L, n, J)
        assert bound == pytest.approx(float(exact), rel=1e-13), (h, L, n)


def test_truncation_bound_monotone_in_n():
    prev = math.inf
    for n in (16, 32, 64, 128, 1024):
        b = series_truncation_bound(2.0, [0.5, 0.2, 0.1], 4.0, n, 3)
        assert b < prev
        prev = b


def test_sqrt_rule_forces_astronomical_n_for_vg():
    # with the short-maturity VG inputs, inverting the square-root rule at the
    # required ratio tol/(6 xi) lands at ~4e14 terms; the bound at that N
    # meets the target and at N/2 it does not
    h1, L, tol, K = 217.94779847212044, 0.9064126192070305, 1e-2, 100.0
    xi = math.sqrt(2.0 * L) * K
    target = tol / (6.0 * xi)
    n_solve = (4.0 * h1 * L / math.pi * 6.0 * xi / tol) ** 2
    assert n_solve == pytest.approx(4.13e14, rel=0.01)
    assert n_solve > 1e12  # unusable in practice, which is the point
    assert series_truncation_bound(h1, [], L, int(n_solve) + 1, 0) \
        <= target * (1.0 + 1e-12)
    assert series_truncation_bound(h1, [], L, int(n_solve / 2), 0) > target


def test_j0_bound_formula():
    val = series_truncation_bound(3.0, [], 2.0, 100, 0)
    assert val == pytest.approx(4.0 * 3.0 * 2.0 / (math.pi * 10.0), rel=1e-14)


def _cosine_coefficients_by_quadrature(dens, L, ks):
    # cos(k pi (x+L)/(2L)) = cos(wL)cos(wx) - sin(wL)sin(wx), w = k pi/(2L);
    # the weighted QUADPACK rules stay accurate at high oscillation
    out = []
    for k in ks:
        w = k * math.pi / (2.0 * L)
        c_part = quad(lambda x: float(dens(x)), -L, L, weight="cos", wvar=w,
                      limit=600, epsabs=1e-15)[0]
        s_part = quad(lambda x: float(dens(x)), -L, L, weight="sin", wvar=w,
                      limit=600, epsabs=1e-15)[0]
        out.append((math.cos(w * L) * c_part - math.sin(w * L) * s_part) / L)
    return np.array(out)


def test_truncation_bound_dominates_quadrature_error_bs():
    # direct Fourier-coefficient oracle: ||f_L - S_N||_2 = sqrt(L sum a_k^2)
    model, L, N, J = BS(0.2), 5.0, 64, 4
    dens = closed_form_density(model, CTX)
    ks = np.arange(N + 1, N + 513)
    a = _cosine_coefficients_by_quadrature(dens, L, ks)
    truth = math.sqrt(L * float(np.sum(a * a)))
    from coskit.reference import derivative_by_inversion
    cf = centralized_cf(model, CTX)
    bsums = []
    for j in range(1, J + 1):
        d = derivative_by_inversion(cf, j, [-L, L])
        bsums.append(abs(d[0]) + abs(d[1]))
    h_top = hj_closed_form(model, CTX, J + 1).value
    bound = series_truncation_bound(h_top, bsums, L, N, J)
    assert bound >= truth


# ---------------------------------------------------------------------------
# B(L) bounds and brute force
# ---------------------------------------------------------------------------

def test_heavy_bound_example_value():
    assert bl_bound_heavy(1.0, 1.0, 10.0) == pytest.approx(
        2.0 * math.sqrt(5.0 / 3.0) / 10.0 ** 1.5, rel=1e-14)


def test_bl_bounds_monotone_decreasing_in_l():
    heavy = [bl_bound_heavy(0.3, 1.5, L) for L in (2.0, 5.0, 10.0, 50.0)]
    assert all(a > b for a, b in zip(heavy, heavy[1:]))
    semi = [bl_bound_semiheavy(2.0, 3.0, L, 1.0) for L in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(semi, semi[1:]))


def test_cauchy_first_term_is_quarter():
    cf = centralized_cf(Cauchy(), CTX)
    dens = closed_form_density(Cauchy(), CTX)
    iks = tail_cos_integrals(cf, dens, 1.0, 32)
    assert iks[0] == pytest.approx(0.5, abs=1e-12)  # P(|X| > 1) = 1/2
    assert iks[0] ** 2 / 1.0 == pytest.approx(0.25, abs=1e-11)


def test_bl_partial_sum_decreasing_in_l_for_bs():
    cf = centralized_cf(BS(0.2), CTX)
    dens = closed_form_density(BS(0.2), CTX)
    partials = []
    for L in (0.5, 0.7, 0.9, 1.1):
        iks = tail_cos_integrals(cf, dens, L, 1024)
        partials.append(bl_bruteforce(iks, L, 1024).partial)
    assert all(a > b for a, b in zip(partials, partials[1:]))


def test_gauss_tail_integrals_match_exact_per_term():
    # k_max = 2049 runs past the DFT period 2P = 2048 of the quadrature's
    # 1024 panels, so k = 2048 and 2049 are read back at k mod 2P = 0 and 1
    s, L = 0.2, 5 * 0.2
    cf = centralized_cf(BS(0.2), CTX)
    dens = closed_form_density(BS(0.2), CTX)
    for k_max in (64, 2049):
        iks = tail_cos_integrals(cf, dens, L, k_max)
        exact = gauss_tail_cos_integrals(L, s, k_max)
        assert np.max(np.abs(iks - exact)) < 1e-10, k_max


def test_gauss_partial_sum_below_semiheavy_bound_deep_tail():
    # at L = 8 sigma the identity oracle drowns in cancellation, so use the
    # exact erfc tail integrals
    s = 0.2
    L = 8 * s
    prof = tail_profile(BS(0.2), CTX)
    exact = gauss_tail_cos_integrals(L, s, 1024)
    ps = bl_bruteforce(exact, L, 1024)
    bound = bl_bound_semiheavy(prof.amplitude, prof.rate, L, L)
    assert ps.sqrt_partial <= bound


def test_heavy_bound_dominates_cauchy_partial_sum():
    cf = centralized_cf(Cauchy(), CTX)
    dens = closed_form_density(Cauchy(), CTX)
    prof = tail_profile(Cauchy(), CTX)
    for L in (2.0, 10.0, 40.0):
        iks = tail_cos_integrals(cf, dens, L, 1024)
        ps = bl_bruteforce(iks, L, 1024,
                           boundary_density=(float(dens(L)), float(dens(-L))))
        assert ps.sqrt_partial <= bl_bound_heavy(prof.amplitude, prof.index, L)
        assert ps.tail_estimate < ps.partial  # dropped tail is subdominant


def test_tail_estimate_reported():
    cf = centralized_cf(Cauchy(), CTX)
    dens = closed_form_density(Cauchy(), CTX)
    iks = tail_cos_integrals(cf, dens, 5.0, 1024)
    ps = bl_bruteforce(iks, 5.0, 1024, boundary_density=(float(dens(5.0)),
                                                         float(dens(-5.0))))
    assert ps.tail_estimate > 0.0
    assert ps.k_max == 1024
