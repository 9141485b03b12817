"""The three workloads: how each makes its operations from a seed, runs one
operation through coskit's public entry points, and checks the outputs.

Every workload produces its operations in blocks; block b of seed s is drawn
from its own generator (s, b), so one seed always yields the same stream and
a run stops only at a block boundary.  Each block has a fixed make-up (the
same counts per model family, or the same cycle of studies), so runs of any
length and seed attempt the same mix.

Checks run after the timed phase.  `check_*` functions return one boolean
per operation; they compare against `oracles`, which shares no code with
coskit.
"""

import math
from dataclasses import dataclass

import numpy as np

import coskit
from coskit.harness import ExperimentConfig, run_experiment

import oracles

S0, RATE = 100.0, 0.02
# slack for the reference's own error: the Lewis quadrature agrees with the
# Black-Scholes closed form to 1.3e-13 on S0 = 100, and with coskit's
# Carr-Madan pricer to 1e-12 on the light-tailed pools below
REF_SLACK = 1e-11


def _model(kind, params):
    return {"bs": coskit.BS, "nig": coskit.NIG, "vg": coskit.VG}[kind](*params)


# ---------------------------------------------------------------------------
# quotes: single certified quotes on light-tailed models
# ---------------------------------------------------------------------------

BS_POOL = [(0.2,), (0.35,)]
NIG_POOL = [(8.0, 0.3), (15.0, 0.5), (2.0, 1.0)]
# nu = 0.2 throughout; the last two sets have drift, so their cumulants come
# from the FFT route instead of the closed form
VG_POOL = [(0.12, 0.2, 0.0), (0.12, 0.2, -0.14), (0.2, 0.2, -0.1)]
LIGHT_MATURITIES = (0.25, 0.5, 1.0, 2.0)
# at nu = 0.2, T = 1 certifies N up to 3.5e4 at tol 1e-10 and shorter
# maturities run to 1e7 terms or more; 1.25..2 stay below 1e4
VG_MATURITIES = (1.25, 1.5, 2.0)
# per block: 14 BS and 22 NIG quotes drawn from their pools, and one quote on
# each of the 9 VG (model, maturity) pairs.  VG quotes cost 4-15 ms against
# 0.1-1 ms for the rest, so p90 falls mid-way into the VG band (20% of the
# block) and p50 inside the NIG band (BS is 31%, BS + NIG 80%).
QUOTE_BLOCK = {"bs": 14, "nig": 22}


@dataclass(frozen=True)
class Quote:
    kind: str
    params: tuple
    T: float
    strike: float
    tol: float
    call: bool


def quote_block(seed, b):
    rng = np.random.default_rng([seed, b])
    pairs = [("vg", p, T) for p in VG_POOL for T in VG_MATURITIES]
    for kind, pool in (("bs", BS_POOL), ("nig", NIG_POOL)):
        for _ in range(QUOTE_BLOCK[kind]):
            pairs.append((kind, pool[rng.integers(len(pool))],
                          LIGHT_MATURITIES[rng.integers(len(LIGHT_MATURITIES))]))
    ops = []
    for i in rng.permutation(len(pairs)):
        kind, params, T = pairs[i]
        strike = S0 * math.exp(rng.uniform(-0.3, 0.3) * math.sqrt(T))
        ops.append(Quote(kind, params, T, strike, 10.0 ** rng.uniform(-10, -6),
                         bool(rng.integers(2))))
    return ops


def quote_warmup():
    return [Quote(k, p, T, S0, 1e-8, False)
            for k, pool, T in (("bs", BS_POOL, 1.0), ("nig", NIG_POOL, 1.0),
                               ("vg", VG_POOL, 1.25))
            for p in pool]


def run_quote(op):
    model = _model(op.kind, op.params)
    ctx = coskit.MarketContext(S0=S0, r=RATE, T=op.T)
    cf = coskit.centralized_cf(model, ctx)
    params = coskit.tune(coskit.TuningRequest(model, ctx, payoff_bound=op.strike,
                                              tol=op.tol))
    payoff = coskit.Call(op.strike) if op.call else coskit.Put(op.strike)
    return coskit.cos_price(cf, payoff, ctx, params).price


def quote_references(ops):
    """Reference price per quote: Black-Scholes in closed form, the rest by
    the Lewis quadrature, batched over the strikes of each (model, T)."""
    refs = np.empty(len(ops))
    groups = {}
    for i, op in enumerate(ops):
        groups.setdefault((op.kind, op.params, op.T), []).append(i)
    for (kind, params, T), idx in groups.items():
        strikes = np.array([ops[i].strike for i in idx])
        if kind == "bs":
            puts = np.array([oracles.bs_put(S0, RATE, T, params[0], K) for K in strikes])
        else:
            puts = oracles.lewis_puts(kind, params, S0, RATE, T, strikes)
        calls = np.array([ops[i].call for i in idx])
        refs[idx] = np.where(calls, puts + S0 - strikes * math.exp(-RATE * T), puts)
    return refs


def check_quotes(ops, prices):
    refs = quote_references(ops)
    tols = np.array([op.tol for op in ops])
    return list(np.abs(np.asarray(prices) - refs) <= tols + REF_SLACK)


# ---------------------------------------------------------------------------
# strips: FMLS strike strips
# ---------------------------------------------------------------------------

STRIP_STRIKES = 41
# per block: 4 alpha strata over [1.6, 1.72] x 2 tolerance strata over
# [1e-3, 1e-2] (log scale), each with a fresh point inside its stratum.  N
# runs from about 2e3 (alpha 1.72, tol 1e-2) to 2.4e4 (alpha 1.6, tol 1e-3)
# and the stratification keeps the block's total work nearly fixed.
ALPHA_EDGES = np.linspace(1.6, 1.72, 5)
LOG_TOL_EDGES = np.linspace(-3.0, -2.0, 3)


@dataclass(frozen=True)
class Strip:
    alpha: float
    sigma: float
    T: float
    tol: float
    strikes: tuple


def _strip(rng, alpha, tol):
    centre = rng.uniform(-0.05, 0.05)
    width = rng.uniform(0.25, 0.4)
    strikes = S0 * np.exp(centre + width * np.linspace(-1.0, 1.0, STRIP_STRIKES))
    return Strip(alpha, rng.uniform(0.1, 0.2), rng.uniform(0.5, 1.5), tol,
                 tuple(float(K) for K in strikes))


def strip_block(seed, b):
    rng = np.random.default_rng([seed, b])
    ops = []
    for i in range(len(ALPHA_EDGES) - 1):
        for j in range(len(LOG_TOL_EDGES) - 1):
            alpha = rng.uniform(ALPHA_EDGES[i], ALPHA_EDGES[i + 1])
            tol = 10.0 ** rng.uniform(LOG_TOL_EDGES[j], LOG_TOL_EDGES[j + 1])
            ops.append(_strip(rng, alpha, tol))
    return [ops[i] for i in rng.permutation(len(ops))]


def strip_warmup():
    return [Strip(1.7, 0.15, 1.0, 1e-2,
                  tuple(float(K) for K in S0 * np.exp(np.linspace(-0.3, 0.3, STRIP_STRIKES))))]


def run_strip(op):
    model = coskit.FMLS(op.alpha, op.sigma)
    ctx = coskit.MarketContext(S0=S0, r=RATE, T=op.T)
    cf = coskit.centralized_cf(model, ctx)
    params = coskit.tune(coskit.TuningRequest(model, ctx, payoff_bound=max(op.strikes),
                                              tol=op.tol))
    return np.array([coskit.cos_price(cf, coskit.Put(K), ctx, params).price
                     for K in op.strikes])


def strip_properties(op, puts):
    """Put prices increase and are convex in strike and lie within
    [max(K e^-rT - S0, 0), K e^-rT], each up to the tolerance: no price
    moves more than tol below the previous one, none sits more than tol
    above the chord of its neighbours, none leaves the bounds by more than
    tol."""
    K = np.asarray(op.strikes)
    puts = np.asarray(puts)
    tol = op.tol
    kd = K * math.exp(-RATE * op.T)
    increasing = np.all(np.diff(puts) >= -tol)
    w = (K[2:] - K[1:-1]) / (K[2:] - K[:-2])
    chord = w * puts[:-2] + (1.0 - w) * puts[2:]
    convex = np.all(puts[1:-1] - chord <= tol)
    bounded = np.all((puts >= np.maximum(kd - S0, 0.0) - tol) & (puts <= kd + tol))
    return bool(increasing and convex and bounded)


def check_strips(ops, prices):
    ok = []
    for op, puts in zip(ops, prices):
        ref = oracles.lewis_puts("fmls", (op.alpha, op.sigma), S0, RATE, op.T,
                                 op.strikes, eps=1e-12)
        near = bool(np.all(np.abs(puts - ref) <= op.tol + REF_SLACK))
        ok.append(near and strip_properties(op, puts))
    return ok


# ---------------------------------------------------------------------------
# studies: the seven studies of `coskit experiment`
# ---------------------------------------------------------------------------

STUDIES = ("table1", "vg_counterexample", "fmls_study", "convergence_bs",
           "convergence_cauchy", "convergence_fmls", "l_optimal")
# the studies that take well under a second, run once in set-up
STUDY_WARMUP = ("table1", "fmls_study", "convergence_bs", "convergence_cauchy",
                "convergence_fmls")


def study_block(seed, b):
    """One cycle of the seven studies; the seed picks the one it starts at."""
    start = seed % len(STUDIES)
    return list(STUDIES[start:] + STUDIES[:start])


def study_warmup():
    return list(STUDY_WARMUP)


def run_study(name):
    return run_experiment(ExperimentConfig(experiment=name))


# the setups of coskit.harness (TABLE1_SETUP, VG_SETUP, FMLS_SETUP and the
# Cauchy digital threshold), restated so that the checks do not read the
# inputs from the code they check
TABLE1 = dict(sigma=0.2, T=1.0, r=0.0, K=100.0, tol=1e-8)
VG_STUDY = dict(sigma=0.1, nu=0.2, theta=0.0, T=0.25, K=100.0, tol=1e-2)
FMLS_STUDY = dict(alpha=1.5597, sigma=0.1486, T=1.0, K=100.0, tol=1e-2)
CAUCHY_D = 1.23


def table1_prices(result):
    """Re-price the at-the-money put at every certified (M, L, N) of table1."""
    s = TABLE1
    ctx = coskit.MarketContext(S0=S0, r=s["r"], T=s["T"])
    cf = coskit.centralized_cf(coskit.BS(s["sigma"]), ctx)
    return [coskit.cos_price(cf, coskit.Put(s["K"]), ctx, p).price
            for p in result["params"].values()]


def check_table1(prices):
    s = TABLE1
    ref = oracles.bs_put(S0, s["r"], s["T"], s["sigma"], s["K"])
    return len(prices) == 7 and all(abs(p - ref) <= s["tol"] for p in prices)


def check_vg_counterexample(result):
    """N = 50 prices within the study tolerance of the Lewis reference, while
    the square-root rule, recomputed from its inputs, asks for N >= 1e12."""
    s = VG_STUDY
    ref = oracles.lewis_puts("vg", (s["sigma"], s["nu"], s["theta"]), S0, 0.0,
                             s["T"], [s["K"]], eps=1e-9)[0] + S0 - s["K"]
    mu4 = oracles.vg_fourth_moment(s["sigma"], s["nu"], s["T"])
    L = (2.0 * s["K"] * mu4 / s["tol"]) ** 0.25
    n_rule = oracles.sqrt_rule_n(result["h1_sup"], L, s["K"], s["tol"])
    return (abs(result["price_n50"] - ref) <= s["tol"]
            and math.isclose(result["L"], L, rel_tol=1e-12)
            and math.isclose(result["n_rule"], n_rule, rel_tol=1e-12)
            and result["n_rule"] >= 1e12)


def _fmls_call(T=FMLS_STUDY["T"]):
    s = FMLS_STUDY
    return oracles.lewis_puts("fmls", (s["alpha"], s["sigma"]), S0, 0.0, T,
                              [s["K"]], eps=1e-13)[0] + S0 - s["K"]


def check_fmls_study(result):
    return abs(result["price"] - _fmls_call()) <= FMLS_STUDY["tol"]


def check_convergence_bs(result):
    """Reference is the Black-Scholes call; with L = 0.2 sqrt(N) the error
    of a Gaussian density is below 1e-10 by N = 1024."""
    s = TABLE1
    ref = oracles.bs_call(S0, s["r"], s["T"], s["sigma"], s["K"])
    errs = {r.N: r.error for r in result["results"]["sqrt(0.2)"]["records"]}
    return abs(result["reference"] - ref) <= 1e-12 and errs[1024] < 1e-10


def check_convergence_cauchy(result):
    """With L = N/10 the error equals the arctan image sum within 1% for
    64 <= N <= 4096, and falls at order -2 (the O(1/L) terms cancel)."""
    res = result["results"]["linear(0.1)"]
    image = all(abs(r.error / abs(oracles.cauchy_alias_error(r.N / 10.0, CAUCHY_D)) - 1.0)
                <= 0.01 for r in res["records"] if 64 <= r.N <= 4096)
    return image and abs(res["slope"] + 2.0) <= 0.15


def check_convergence_fmls(result):
    """Reference within 1e-9 of the Lewis price; with L = N/100 the error is
    the left-tail mass beyond L, so it falls like L^-alpha: order -alpha
    +-0.15."""
    res = result["results"]["linear(0.01)"]
    return (abs(result["reference"] - _fmls_call()) <= 1e-9
            and abs(res["slope"] + FMLS_STUDY["alpha"]) <= 0.15)


def check_l_optimal(result):
    """Cauchy: the optimal range grows within +-0.1 of the slope of the range
    that balances alias error and series tail; FMLS: 0.86 +-0.1, the value
    the acceptance suite pins (criterion 6)."""
    cauchy = result["results"]["cauchy"]
    rows = [r for r in cauchy["optimal_rows"] if r[0] >= 64]
    ns = [r[0] for r in rows]
    model = oracles.loglog_slope(ns, [oracles.cauchy_balance_range(n, CAUCHY_D)
                                      for n in ns])
    return (abs(cauchy["range_slope"] - model) <= 0.1
            and abs(result["results"]["fmls"]["range_slope"] - 0.86) <= 0.1)


STUDY_CHECKS = {
    "table1": lambda res: check_table1(table1_prices(res)),
    "vg_counterexample": check_vg_counterexample,
    "fmls_study": check_fmls_study,
    "convergence_bs": check_convergence_bs,
    "convergence_cauchy": check_convergence_cauchy,
    "convergence_fmls": check_convergence_fmls,
    "l_optimal": check_l_optimal,
}


def check_studies(ops, results):
    return [STUDY_CHECKS[name](res) for name, res in zip(ops, results)]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    block: object      # (seed, b) -> list of ops
    warmup: object     # () -> list of ops, the same for every seed
    run: object        # op -> output
    check: object      # (ops, outputs) -> list of bool


WORKLOADS = {
    "quotes": Workload(quote_block, quote_warmup, run_quote, check_quotes),
    "strips": Workload(strip_block, strip_warmup, run_strip, check_strips),
    "studies": Workload(study_block, study_warmup, run_study, check_studies),
}
