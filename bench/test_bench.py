"""Tests of the benchmark itself: the oracle, the operation streams and the
checks.  Run with `python3 -m pytest bench/test_bench.py` from the checkout
root."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workloads as wl  # noqa: E402


def test_lewis_matches_black_scholes_closed_form():
    strikes = np.array([50.0, 80.0, 100.0, 125.0, 200.0])
    for T in (0.25, 1.0, 2.0):
        for sigma in (0.2, 0.35):
            got = oracles.lewis_puts("bs", (sigma,), 100.0, 0.02, T, strikes)
            want = [oracles.bs_put(100.0, 0.02, T, sigma, K) for K in strikes]
            assert np.max(np.abs(got - want)) < 5e-13


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_one_seed_yields_the_same_ops(name):
    block = wl.WORKLOADS[name].block
    assert block(7, 3) == block(7, 3)
    assert [block(7, b) for b in (1, 2)] == [block(7, b) for b in (1, 2)]
    if name != "studies":
        assert block(7, 3) != block(8, 3)
        assert block(7, 3) != block(7, 4)


def test_quote_blocks_have_fixed_make_up():
    for b in (1, 2, 3):
        kinds = [op.kind for op in wl.quote_block(5, b)]
        assert (kinds.count("bs"), kinds.count("nig"), kinds.count("vg")) == (14, 22, 9)


def test_quote_check_trips_at_twice_the_tolerance():
    ops = wl.quote_block(3, 1)
    prices = np.array([wl.run_quote(op) for op in ops])
    tols = np.array([op.tol for op in ops])
    assert all(wl.check_quotes(ops, prices))
    assert not any(wl.check_quotes(ops, prices + 2.0 * tols))
    assert not any(wl.check_quotes(ops, prices - 2.0 * tols))


def test_strip_check_trips_at_twice_the_tolerance():
    op = wl.strip_warmup()[0]
    puts = wl.run_strip(op)
    assert wl.check_strips([op], [puts]) == [True]
    for i in (0, 20, 40):
        for sign in (1.0, -1.0):
            moved = puts.copy()
            moved[i] += sign * 2.0 * op.tol
            assert wl.check_strips([op], [moved]) == [False]


def test_strip_properties_trip_at_twice_the_tolerance():
    # the lower bound max(K e^-rT - S0, 0) is itself increasing and convex and
    # meets every property with no margin: zero out of the money, linear in
    # the money
    op = dataclasses.replace(wl.strip_warmup()[0], T=1.0, tol=1e-3)
    K = np.asarray(op.strikes)
    floor = np.maximum(K * math.exp(-wl.RATE * op.T) - wl.S0, 0.0)
    assert wl.strip_properties(op, floor)
    zero = int(np.argmax(floor == 0.0)) + 5       # inside the zero region
    linear = len(K) - 5                           # inside the linear region
    assert floor[zero] == 0.0 and floor[linear - 1] > 0.0
    for i, step in ((zero, -2.0), (linear, -2.0), (linear, 2.0), (zero, 2.0)):
        moved = floor.copy()
        moved[i] += step * op.tol
        assert not wl.strip_properties(op, moved), (i, step)
    above = floor.copy()
    above[-1] = K[-1] * math.exp(-wl.RATE * op.T) + 2.0 * op.tol
    assert not wl.strip_properties(op, above)


@pytest.fixture(scope="module")
def studies():
    return {name: wl.run_study(name) for name in wl.STUDIES}


def test_every_study_passes_its_check(studies):
    assert wl.check_studies(list(studies), list(studies.values())) == [True] * 7


def _moved_records(res, key, scale):
    records = [dataclasses.replace(r, error=r.error * scale) if r.N == 256 else r
               for r in res["results"][key]["records"]]
    results = {**res["results"], key: {**res["results"][key], "records": records}}
    return {**res, "results": results}


def test_study_checks_trip_at_twice_the_tolerance(studies):
    tol = wl.TABLE1["tol"]
    prices = wl.table1_prices(studies["table1"])
    assert wl.check_table1(prices)
    assert not wl.check_table1(prices[:-1] + [prices[-1] + 2.0 * tol])
    assert not wl.check_table1([prices[0] - 2.0 * tol] + prices[1:])

    vg = studies["vg_counterexample"]
    for sign in (1.0, -1.0):
        moved = {**vg, "price_n50": vg["price_n50"] + sign * 2.0 * wl.VG_STUDY["tol"]}
        assert not wl.check_vg_counterexample(moved)
    assert not wl.check_vg_counterexample({**vg, "n_rule": vg["n_rule"] * (1 + 2e-12)})

    fmls = studies["fmls_study"]
    for sign in (1.0, -1.0):
        moved = {**fmls, "price": fmls["price"] + sign * 2.0 * wl.FMLS_STUDY["tol"]}
        assert not wl.check_fmls_study(moved)

    bs = studies["convergence_bs"]
    assert not wl.check_convergence_bs({**bs, "reference": bs["reference"] + 2e-12})

    cauchy = studies["convergence_cauchy"]
    assert not wl.check_convergence_cauchy(_moved_records(cauchy, "linear(0.1)", 1.02))

    cfmls = studies["convergence_fmls"]
    assert not wl.check_convergence_fmls({**cfmls, "reference": cfmls["reference"] + 2e-9})

    lopt = studies["l_optimal"]
    for key in ("cauchy", "fmls"):
        res = lopt["results"][key]
        moved = {**lopt, "results": {**lopt["results"],
                                     key: {**res, "range_slope": res["range_slope"] + 0.2}}}
        assert not wl.check_l_optimal(moved)
