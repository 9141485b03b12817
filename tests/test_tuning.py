import contextlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from coskit import tuning
from coskit.bounds import hj_closed_form, hj_numeric
from coskit.cos_engine import Call, DigitalBelow, Put, cos_price
from coskit.errors import (CosKitError, IntegralDiverged, NoClosedForm,
                           NoSmoothness, NotReachedWithinCap,
                           ToleranceTooLoose)
from coskit.models import (BS, FMLS, NIG, VG, Cauchy, MarketContext,
                           centralized_cf)
from coskit.reference import (black_scholes_put, carr_madan_call, cauchy_cdf,
                              hj_density_sup)
from coskit.tuning import TuningRequest, minimize_series_order, tune

CTX = MarketContext(S0=100.0, r=0.0, T=1.0)

TABLE1_N = {10: 897, 20: 271, 30: 200, 40: 179, 50: 172, 60: 170, 70: 171}


def _bs_request(j, tol=1e-8):
    return TuningRequest(BS(0.2), CTX, payoff_bound=100.0, tol=tol,
                         moment_order=8, series_order=j)


# ---------------------------------------------------------------------------
# semi-heavy rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("j,expected", sorted(TABLE1_N.items()))
def test_series_length_table_for_lognormal_put(j, expected):
    params = tune(_bs_request(j))
    assert abs(params.N - expected) <= 1


def test_range_from_eighth_moment():
    params = tune(_bs_request(40))
    mu8 = 105.0 * 0.2 ** 8
    assert params.M == pytest.approx((2.0 * 100.0 * mu8 / 1e-8) ** 0.125,
                                     rel=1e-14)
    assert params.L == params.M


def test_numeric_bound_gives_same_series_length():
    cf = centralized_cf(BS(0.2), CTX)
    for j in (10, 40, 70):
        req = _bs_request(j)
        numeric = tune(req, h_next=hj_numeric(cf, j + 1))
        assert numeric.N == tune(req).N


def test_series_length_monotone_in_tolerance():
    n_loose = tune(_bs_request(40, tol=1e-6)).N
    n_tight = tune(_bs_request(40, tol=5e-7)).N
    assert n_tight >= n_loose


def test_floor_clamp_applies():
    params = tune(_bs_request(70))
    assert params.N >= 4.0 * params.L / math.pi


def test_conservatism_against_minimal_n():
    # the certified N at order 40 is less than 1.5x the empirical minimum 120
    params = tune(_bs_request(40))
    assert params.N / 120.0 <= 1.5


def test_provenance_recorded():
    params = tune(_bs_request(40))
    assert "moment" in params.provenance["M"]
    assert "order 40" in params.provenance["N"]
    assert params.tol == 1e-8


def test_vg_short_maturity_uses_sqrt_rule():
    ctx = MarketContext(100.0, 0.0, 0.25)
    model = VG(0.1, 0.2, 0.0)
    cf = centralized_cf(model, ctx)
    req = TuningRequest(model, ctx, payoff_bound=100.0, tol=1e-2,
                        moment_order=4, series_order=40)
    h1 = hj_density_sup(cf, 1)
    params = tune(req, h_next=h1)
    assert params.L == pytest.approx(0.9064, abs=5e-4)  # rounds to 0.91
    # the sqrt rule lands at an astronomical, practically useless N
    assert params.N == pytest.approx(4.13e14, rel=0.01)
    assert "square-root" in params.provenance["N"]


def test_vg_rejects_unusable_smoothness():
    model = VG(0.1, 0.2, 0.0)
    for T in (0.05, 0.19, 0.2):  # not even one bounded derivative
        ctx = MarketContext(100.0, 0.0, T)
        with pytest.raises(NoSmoothness):
            tune(TuningRequest(model, ctx, 100.0, 1e-2))


def test_vg_long_maturity_uses_series_rule():
    ctx = MarketContext(100.0, 0.0, 2.0)
    model = VG(0.12, 0.2, 0.0)
    params = tune(TuningRequest(model, ctx, 100.0, 1e-4,
                                moment_order=4, series_order=40))
    # smoothness cap 2T/nu - 2 clamps the requested order
    assert "order 17" in params.provenance["N"]
    assert params.N < 10_000


def test_tolerance_too_loose_raises():
    with pytest.raises(ToleranceTooLoose):
        tune(TuningRequest(BS(0.2), CTX, payoff_bound=100.0,
                           tol=20.0, moment_order=2, series_order=4))


# ---------------------------------------------------------------------------
# heavy rule
# ---------------------------------------------------------------------------

def test_heavy_study_parameters():
    req = TuningRequest(FMLS(1.5597, 0.1486), CTX, payoff_bound=100.0,
                        tol=1e-2, series_order=40)
    params = tune(req)
    assert abs(params.M - 69.0) <= 1.0
    assert abs(params.L - 176.0) <= 2.0
    assert abs(params.N - 5451) <= 0.01 * 5451


def test_heavy_range_continuous_in_index():
    # the payoff-range formula is a composition of continuous functions of
    # the stability index on (1, 2)
    K, tol = 100.0, 1e-2
    ms = []
    for alpha in np.linspace(1.3, 1.9, 25):
        params = tune(TuningRequest(FMLS(alpha, 0.15), CTX, K, tol,
                                    series_order=20))
        ms.append(params.M)
    ms = np.array(ms)
    rel_jump = np.abs(np.diff(ms)) / ms[:-1]
    assert np.max(rel_jump) < 0.25


def test_cauchy_digital_range_and_tail_mass():
    req = TuningRequest(Cauchy(), CTX, payoff_bound=1.0, tol=1e-3,
                        series_order=40)
    params = tune(req)
    assert params.M == pytest.approx(4.0 / math.pi / 1e-3, rel=1e-12)
    # actual tail mass stays below the Pareto bound that sized M
    tail = 2.0 * (1.0 - cauchy_cdf(params.M))
    assert tail <= 1e-3 / (2.0 * 1.0)
    assert params.L >= params.M


def test_dispatch_by_tail_profile():
    assert tune(TuningRequest(BS(0.2), CTX, 100.0, 1e-6)).provenance["L"] \
        == "equal to M (semi-heavy tails)"
    heavy = tune(TuningRequest(FMLS(1.5597, 0.1486), CTX, 100.0, 1e-2))
    assert "Pareto" in heavy.provenance["M"]


# ---------------------------------------------------------------------------
# order minimization
# ---------------------------------------------------------------------------

def test_minimum_over_table_orders():
    by_order = {j: tune(_bs_request(j)).N for j in TABLE1_N}
    j_star = min(by_order, key=lambda j: (by_order[j], j))
    assert j_star == 60
    assert by_order[j_star] == 170


def test_series_lengths_decrease_then_flatten():
    ns = [tune(_bs_request(j)).N for j in sorted(TABLE1_N)]
    assert all(a >= b for a, b in zip(ns[:4], ns[1:5]))  # decreasing early
    assert max(ns[-3:]) - min(ns[-3:]) <= 2              # flat late


def test_full_scan_finds_global_minimum():
    j_star, n_star = minimize_series_order(_bs_request(40))
    assert n_star <= 170
    # no scanned order does better, and ties break to the smallest order
    for j in range(1, 121):
        nj = tune(_bs_request(j)).N
        assert nj >= n_star
        if nj == n_star:
            assert j >= j_star


def test_scan_finite_at_large_orders():
    j_star, n_star = minimize_series_order(_bs_request(40), max_order=120)
    assert math.isfinite(n_star) and n_star >= 1


def test_fmls_scan_close_to_default_order():
    req = TuningRequest(FMLS(1.5597, 0.1486), CTX, 100.0, 1e-2,
                        series_order=40)
    n_default = tune(req).N
    best = min(tune(TuningRequest(FMLS(1.5597, 0.1486), CTX, 100.0,
                                  1e-2, series_order=j)).N
               for j in range(20, 81))
    assert best >= 0.75 * n_default


# ---------------------------------------------------------------------------
# one tuning path
# ---------------------------------------------------------------------------

# (model, market, payoff bound, moment order); short-maturity VG takes the
# square-root rule whatever order is requested
GOLDEN_SETUPS = {
    "bs": (BS(0.2), CTX, 100.0, 8),
    "nig": (NIG(2.0, 1.0), MarketContext(100.0, 0.02, 1.0), 110.0, 8),
    "vg": (VG(0.12, 0.2), MarketContext(100.0, 0.0, 1.5), 100.0, 8),
    "vg_drift": (VG(0.12, 0.2, -0.14), MarketContext(100.0, 0.02, 1.25), 90.0, 8),
    "vg_short": (VG(0.1, 0.2), MarketContext(100.0, 0.0, 0.25), 100.0, 4),
    "fmls": (FMLS(1.5597, 0.1486), CTX, 100.0, 8),
    "cauchy": (Cauchy(), MarketContext(1.0, 0.0, 1.0), 1.0, 8),
}


def _tune_outcome(*request_args):
    try:
        p = tune(TuningRequest(*request_args))
    except (CosKitError, ValueError) as exc:
        return {"raises": type(exc).__name__}
    return {"M": p.M, "L": p.L, "N": p.N, "tol": p.tol,
            "provenance": p.provenance}


def test_tune_matches_recorded_grid():
    # tests/data/tune_golden.json was recorded from the tuner that had one
    # function per tail family; every (M, L, N, tol, provenance) and every
    # exception class must stay exactly as recorded
    with open(Path(__file__).parent / "data" / "tune_golden.json") as fh:
        golden = json.load(fh)
    got = {f"{name} j={j} tol={tol:g} minimize={mini}":
           _tune_outcome(model, ctx, K, tol, n, j, mini)
           for name, (model, ctx, K, n) in GOLDEN_SETUPS.items()
           for j in (0, 10, 40) for tol in (1e-4, 1e-8)
           for mini in (False, True)}
    assert got == golden


@pytest.mark.parametrize("minimize", [False, True])
@pytest.mark.parametrize("name", ["bs", "nig", "vg", "fmls"])
def test_tail_profile_read_once_per_tune(name, minimize, monkeypatch):
    calls = {"tail_profile": 0, "central_moment": 0}
    for fn_name in calls:
        def counted(*args, _fn=getattr(tuning, fn_name), _name=fn_name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(tuning, fn_name, counted)
    model, ctx, K, n = GOLDEN_SETUPS[name]
    req = TuningRequest(model, ctx, K, 1e-6, n, minimize_order=minimize)
    # VG has no closed-form derivative bounds to scan orders with
    no_scan = isinstance(model, VG) and minimize
    with pytest.raises(NoClosedForm) if no_scan else contextlib.nullcontext():
        tune(req)
    assert calls["tail_profile"] == 1
    assert calls["central_moment"] <= 1


_H3 = hj_closed_form(BS(0.2), CTX, 3)
_VG_ROUGH = (VG(0.1, 0.2), MarketContext(100.0, 0.0, 0.1))


@pytest.mark.parametrize("args,h_next,error", [
    ((BS(0.2), CTX, 100.0, 20.0, 2, 4), None, ToleranceTooLoose),
    # the derivative-bound override is checked before the range conditions
    ((BS(0.2), CTX, 100.0, 20.0, 2, 4), _H3, ValueError),
    # smoothness before the override, also when minimizing the order
    ((*_VG_ROUGH, 100.0, 1e-2), _H3, NoSmoothness),
    ((*_VG_ROUGH, 100.0, 1e-2, 8, 40, True), None, NoSmoothness),
    # the heavy-tail onset before the override
    ((FMLS(1.5597, 0.1486), CTX, 100.0, 500.0), _H3, ToleranceTooLoose),
    ((NIG(2.0, 1.0), CTX, 1.0, 0.3, 2, 1), None, ToleranceTooLoose),
    ((VG(0.12, 0.2), MarketContext(100.0, 0.0, 0.92), 100.0, 1e-8), None,
     IntegralDiverged),
    # u^j overflows in the numeric bound before the integrand decays
    ((VG(0.12, 0.2), MarketContext(100.0, 0.0, 1.85), 100.0, 1e-8), None,
     IntegralDiverged),
    # no finite series length meets the tolerance
    ((BS(0.2), CTX, 100.0, 1e-300), None, NotReachedWithinCap),
    ((Cauchy(), CTX, 1.0, 1e-300), None, NotReachedWithinCap),
], ids=["loose-range", "override-before-range", "smoothness-before-override",
        "smoothness-minimized", "heavy-onset-before-override", "series-boundary",
        "bound-diverges", "bound-overflows", "bs-no-finite-n",
        "cauchy-no-finite-n"])
def test_failing_requests_raise_typed_errors_in_check_order(args, h_next,
                                                            error):
    with pytest.raises(error):
        tune(TuningRequest(*args), h_next=h_next)


# ---------------------------------------------------------------------------
# end-to-end certification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
def test_certified_bs_put_prices(tol):
    cf = centralized_cf(BS(0.2), CTX)
    for K in (80.0, 90.0, 100.0, 110.0, 120.0):
        params = tune(TuningRequest(BS(0.2), CTX, payoff_bound=K, tol=tol))
        res = cos_price(cf, Put(K), CTX, params)
        assert abs(res.price - black_scholes_put(CTX, 0.2, K)) <= tol


def test_certified_random_family():
    # randomized lognormal and NIG books: every tuned price lands within its
    # certified tolerance of the independent reference
    rng = np.random.default_rng(42)
    for _ in range(12):
        tol = float(rng.choice([1e-4, 1e-6, 1e-8]))
        K = float(rng.uniform(70.0, 130.0))
        T = float(rng.uniform(0.3, 2.0))
        ctx = MarketContext(100.0, 0.0, T)
        if rng.random() < 0.5:
            model = BS(float(rng.uniform(0.1, 0.4)))
            ref = black_scholes_put(ctx, model.sigma, K)
        else:
            model = NIG(float(rng.uniform(1.5, 4.0)),
                        float(rng.uniform(0.3, 1.2)))
            cf_ref = centralized_cf(model, ctx)
            ref = carr_madan_call(cf_ref, ctx, K) \
                - ctx.S0 + K * math.exp(-ctx.r * ctx.T)
        cf = centralized_cf(model, ctx)
        params = tune(TuningRequest(model, ctx, payoff_bound=K, tol=tol))
        res = cos_price(cf, Put(K), ctx, params)
        assert abs(res.price - ref) <= tol, (model, K, T, tol)


def test_certified_heavy_digital():
    cf = centralized_cf(Cauchy(), CTX)
    params = tune(TuningRequest(Cauchy(), CTX, payoff_bound=1.0, tol=1e-3,
                                series_order=40))
    res = cos_price(cf, DigitalBelow(1.23), CTX, params)
    assert abs(res.price - cauchy_cdf(1.23)) <= 1e-3


def test_certified_fmls_call():
    cf = centralized_cf(FMLS(1.5597, 0.1486), CTX)
    params = tune(TuningRequest(FMLS(1.5597, 0.1486), CTX, payoff_bound=100.0,
                                tol=1e-2, series_order=40))
    res = cos_price(cf, Call(100.0), CTX, params)
    assert abs(res.price - carr_madan_call(cf, CTX, 100.0)) <= 1e-2


def test_request_validation():
    with pytest.raises(ValueError):
        TuningRequest(BS(0.2), CTX, payoff_bound=0.0, tol=1e-6)
    with pytest.raises(ValueError):
        TuningRequest(BS(0.2), CTX, payoff_bound=1.0, tol=0.0)
    with pytest.raises(ValueError):
        TuningRequest(BS(0.2), CTX, 1.0, 1e-6, moment_order=3)
    with pytest.raises(ValueError):
        TuningRequest(BS(0.2), CTX, 1.0, 1e-6, series_order=0)


@pytest.mark.parametrize("field", ["payoff_bound", "tol"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_request_rejects_non_finite_values(field, bad):
    values = {"payoff_bound": 100.0, "tol": 1e-6, field: bad}
    with pytest.raises(ValueError):
        TuningRequest(BS(0.2), CTX, **values)
