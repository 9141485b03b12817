"""Experiment runner: the benchmark studies.

Reproduces the benchmark studies at desk scale -- the series-length table for
the lognormal put, the variance-gamma counterexample, the heavy-tail study,
and the convergence-order sweeps -- writing deterministic CSV (every timing
is listed as a nondeterministic field).  `coskit experiment` (`coskit.cli`)
runs them.
"""

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import hj_numeric
from .cos_engine import (Call, CosParameters, DigitalBelow, Payoff, Put,
                         cos_price, cos_prices)
from .errors import NotReachedWithinCap, ReferenceUnavailable
from .models import (BS, FMLS, VG, Cauchy, CentralizedCF, MarketContext,
                     centralized_cf, tail_profile)
from .reference import (CarrMadanConfig, black_scholes_call,
                        black_scholes_put, carr_madan_call, cauchy_cdf,
                        hj_density_sup)
# run_vg_counterexample reports the square-root rule's real-valued N
# (4.13e14), which tune would round up to an integer, so it applies tune's
# own range and series-length rules directly
from .tuning import TuningRequest, _ranges, _series_length, tune

__all__ = [
    "ConvergenceRecord", "ExperimentConfig", "EXPERIMENT_IDS", "find_nmin",
    "median_time_ms", "fit_loglog_slope", "run_table1",
    "run_vg_counterexample", "run_fmls_study", "run_convergence",
    "run_convergence_experiment", "run_l_optimal", "run_experiment",
    "write_csv", "TABLE1_SETUP", "VG_SETUP", "FMLS_SETUP",
    "CAUCHY_DIGITAL_SETUP", "OPTIMAL_RANGE_GRID",
]

# benchmark setups used across experiments and the acceptance suite
TABLE1_SETUP = dict(sigma=0.2, T=1.0, r=0.0, S0=100.0, K=100.0, tol=1e-8,
                    moment_order=8, orders=(10, 20, 30, 40, 50, 60, 70))
VG_SETUP = dict(sigma=0.1, nu=0.2, theta=0.0, T=0.25, S0=100.0, K=100.0,
                r=0.0, tol=1e-2, moment_order=4)
FMLS_SETUP = dict(alpha=1.5597, sigma=0.1486, T=1.0, S0=100.0, K=100.0,
                  r=0.0, tol=1e-2, series_order=40)
CAUCHY_DIGITAL_SETUP = dict(threshold=1.23)
# log-spaced candidate half-ranges for the optimal-range search, by libm's
# exp: numpy's real exp rounds some entries apart on CPUs with AVX-512
OPTIMAL_RANGE_GRID = np.array([math.exp(0.07 * k) for k in range(201)])
# the asymptotic window of the convergence-order fits
_FIT_NOISE_FLOOR = 1e-12
_FIT_N_MIN = 64
# the least n_max_exp whose sweep N = 2^e has two points at N >= _FIT_N_MIN
_MIN_N_MAX_EXP = math.ceil(math.log2(_FIT_N_MIN)) + 1
# untimed rounds before the timed ones, and the longest series find_nmin tries
_TIMING_WARMUP = 4
_NMIN_CAP = 2 ** 24


@dataclass(frozen=True)
class ConvergenceRecord:
    """One sweep point: series length, half-range used, absolute error
    against the reference, and the wall time spent pricing it.  The N values
    that share a candidate range are priced by one call, so elapsed_s is
    this N's even share of every call that priced it."""
    N: int
    L: float
    error: float
    elapsed_s: float


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    out: str | None = None
    n_max_exp: int = 16

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n_max_exp < _MIN_N_MAX_EXP:
            raise ValueError(
                f"need n_max_exp >= {_MIN_N_MAX_EXP} for two sweep points "
                f"at N >= {_FIT_N_MIN}, got {self.n_max_exp}")


# ---------------------------------------------------------------------------
# small utilities
# ---------------------------------------------------------------------------

def median_time_ms(fn, reps: int = 32) -> float:
    """Median wall time of fn() in milliseconds (monotonic clock)."""
    return _median_times_ms([fn], reps)[0]


def _median_times_ms(fns, reps: int = 32) -> list[float]:
    """Median wall time in milliseconds of each callable, sampled in
    alternation (the order reversed on every other round) so that all of
    them see the same phases of host speed and a ratio of the medians
    compares like with like."""
    for _ in range(_TIMING_WARMUP):
        for fn in fns:
            fn()
    samples = [[] for _ in fns]
    for rep in range(reps):
        order = range(len(fns)) if rep % 2 == 0 else reversed(range(len(fns)))
        for i in order:
            t0 = time.perf_counter()
            fns[i]()
            samples[i].append((time.perf_counter() - t0) * 1e3)
    return [statistics.median(s) for s in samples]


def fit_loglog_slope(ns, values, noise_floor: float = _FIT_NOISE_FLOOR,
                     n_min: int = _FIT_N_MIN) -> float:
    """Least-squares slope of log2(values) against log2(ns), restricted to the
    asymptotic window: points below the noise floor or with N < n_min are
    dropped (pre-asymptotic and roundoff-dominated points bias the fit)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (values > noise_floor) & (ns >= n_min) & np.isfinite(values)
    if np.count_nonzero(keep) < 2:
        raise ValueError("fewer than two points in the fit window")
    x = np.log2(ns[keep])
    y = np.log2(values[keep])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def find_nmin(cf: CentralizedCF, payoff: Payoff, ctx: MarketContext,
              L: float, M: float, reference: float, tol: float) -> int:
    """Smallest series length keeping |COS - reference| <= tol, by doubling
    then bisection, up to _NMIN_CAP.  Approximate when the error is not
    monotone in N: the result satisfies the tolerance at N and at every
    larger probed N."""
    if not math.isfinite(reference):
        raise ReferenceUnavailable("reference price is not finite")

    def err(n):
        res = cos_price(cf, payoff, ctx, CosParameters(M=M, L=L, N=n))
        return abs(res.price - reference)

    if err(1) <= tol:
        return 1
    n = 2
    while err(n) > tol:
        n *= 2
        if n > _NMIN_CAP:
            raise NotReachedWithinCap(
                f"no N <= {_NMIN_CAP} meets tolerance {tol}")
    lo, hi = n // 2, n  # err(hi) <= tol < err(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if err(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: str | None, header: list[str], rows: list[tuple],
              metadata: dict, nondet_columns: tuple[str, ...] = ()) -> str:
    """Render (and optionally write) a CSV with '#'-prefixed metadata lines.

    Identical inputs yield byte-identical text; every wall-clock field must
    be listed in nondet_columns so downstream diffing can ignore it.  A
    listed name is a header column, a metadata key, or the first cell of a
    row (the quantity of a key/value CSV).
    """
    lines = [f"# coskit-version: {__version__}"]
    for key in sorted(metadata):
        lines.append(f"# {key}: {_fmt(metadata[key])}")
    if nondet_columns:
        lines.append("# nondeterministic-columns: " + ",".join(nondet_columns))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _study_inputs(key: str):
    """(cf, payoff, ctx, reference) of a study's option: "table1" (the
    lognormal put), "bs" (the call of the same setup), "vg" and "fmls"
    (their calls) and "cauchy" (the digital)."""
    if key == "cauchy":
        ctx = MarketContext(1.0, 0.0, 1.0)
        cf = centralized_cf(Cauchy(), ctx)
        d = CAUCHY_DIGITAL_SETUP["threshold"]
        return cf, DigitalBelow(d), ctx, cauchy_cdf(d)
    if key in ("table1", "bs"):
        s = TABLE1_SETUP
        sigma, K = s["sigma"], s["K"]
        ctx = MarketContext(s["S0"], s["r"], s["T"])
        cf = centralized_cf(BS(sigma), ctx)
        if key == "table1":
            return cf, Put(K), ctx, black_scholes_put(ctx, sigma, K)
        return cf, Call(K), ctx, black_scholes_call(ctx, sigma, K)
    if key == "vg":
        s = VG_SETUP
        model = VG(s["sigma"], s["nu"], s["theta"])
    elif key == "fmls":
        s = FMLS_SETUP
        model = FMLS(s["alpha"], s["sigma"])
    else:
        raise ValueError(f"no study inputs for {key!r}")
    ctx = MarketContext(s["S0"], s["r"], s["T"])
    cf = centralized_cf(model, ctx)
    return cf, Call(s["K"]), ctx, carr_madan_call(cf, ctx, s["K"])


def run_table1(out: str | None = None, time_reps: int = 32) -> dict:
    """Series-length table for the lognormal at-the-money put: the certified N
    per derivative order, pricing and numeric-bound timings, and the
    empirically minimal N."""
    s = TABLE1_SETUP
    cf, payoff, ctx, reference = _study_inputs("table1")

    rows = []
    params_by_order = {}
    for j in s["orders"]:
        req = TuningRequest(cf.model, ctx, payoff_bound=s["K"], tol=s["tol"],
                            moment_order=s["moment_order"], series_order=j)
        params = tune(req)
        params_by_order[j] = params
        cpu_cos = median_time_ms(
            lambda p=params: cos_price(cf, payoff, ctx, p), reps=time_reps)
        cpu_hj = median_time_ms(lambda jj=j: hj_numeric(cf, jj + 1),
                                reps=max(4, time_reps // 4))
        rows.append((j, params.N, cpu_cos, cpu_hj))

    any_params = params_by_order[s["orders"][0]]
    n_min = find_nmin(cf, payoff, ctx, any_params.L, any_params.M,
                      reference, s["tol"])
    cpu_nmin = median_time_ms(
        lambda: cos_price(cf, payoff, ctx,
                          CosParameters(any_params.M, any_params.L, n_min)),
        reps=time_reps)

    meta = {"experiment": "table1", "model": "bs", "sigma": s["sigma"],
            "T": s["T"], "r": s["r"], "S0": s["S0"], "K": s["K"],
            "tol": s["tol"], "moment-order": s["moment_order"],
            "L": any_params.L, "n-min": n_min,
            "cpu-cos-nmin-ms": round(cpu_nmin, 6)}
    text = write_csv(out, ["j", "N", "cpu_cos_ms", "cpu_hj_ms"], rows, meta,
                     nondet_columns=("cpu_cos_ms", "cpu_hj_ms",
                                     "cpu-cos-nmin-ms"))
    return {"rows": rows, "n_min": n_min, "params": params_by_order,
            "reference": reference, "cpu_nmin_ms": cpu_nmin, "csv": text}


def run_vg_counterexample(out: str | None = None) -> dict:
    """Variance-gamma short-maturity study: the selection rule is honest but
    useless here (astronomical N), while a tiny N already prices well."""
    s = VG_SETUP
    cf, payoff, ctx, reference = _study_inputs("vg")
    h1_sup = hj_density_sup(cf, 1)
    h1_integral = hj_numeric(cf, 1)

    # the moment rule and the square-root rule exactly as tune applies them
    req = TuningRequest(cf.model, ctx, payoff_bound=s["K"], tol=s["tol"],
                        moment_order=s["moment_order"])
    _, L, xi, _ = _ranges(req, tail_profile(cf.model, ctx))
    n_rule = _series_length(0, h1_sup, L, xi, s["tol"])

    res_small = cos_price(cf, payoff, ctx, CosParameters(M=L, L=L, N=50))
    rows = [
        ("reference_price", reference),
        ("h1_density_sup", h1_sup.value),
        ("h1_integral_bound", h1_integral.value),
        ("L_moment_rule", L),
        ("N_rule_sqrt", n_rule),
        ("cos_price_N50", res_small.price),
        ("abs_err_N50", abs(res_small.price - reference)),
    ]
    meta = {"experiment": "vg_counterexample", "model": "vg",
            "sigma": s["sigma"], "nu": s["nu"], "theta": s["theta"],
            "T": s["T"], "r": s["r"], "S0": s["S0"], "K": s["K"],
            "tol": s["tol"], "moment-order": s["moment_order"]}
    text = write_csv(out, ["quantity", "value"], rows, meta)
    return {"reference": reference, "h1_sup": h1_sup.value,
            "h1_integral": h1_integral.value, "L": L, "n_rule": n_rule,
            "price_n50": res_small.price,
            "err_n50": abs(res_small.price - reference), "csv": text}


def run_fmls_study(out: str | None = None, time_reps: int = 32) -> dict:
    """Heavy-tail study: certified ranges and series length, price against the
    damped-transform reference, the empirically minimal N, and the timing
    ratio between the certified and minimal series lengths."""
    s = FMLS_SETUP
    cf, payoff, ctx, reference = _study_inputs("fmls")
    req = TuningRequest(cf.model, ctx, payoff_bound=s["K"], tol=s["tol"],
                        series_order=s["series_order"])
    params = tune(req)
    res = cos_price(cf, payoff, ctx, params)
    n_min = find_nmin(cf, payoff, ctx, params.L, params.M, reference,
                      s["tol"])

    cpu_tuned, cpu_nmin = _median_times_ms(
        [lambda: cos_price(cf, payoff, ctx, params),
         lambda: cos_price(cf, payoff, ctx,
                           CosParameters(params.M, params.L, n_min))],
        reps=time_reps)
    cm_default = carr_madan_call(cf, ctx, s["K"],
                                 CarrMadanConfig(4096, 1.5, 1024.0))

    rows = [
        ("reference_price", reference),
        ("M", params.M),
        ("L", params.L),
        ("N", params.N),
        ("cos_price", res.price),
        ("abs_err", abs(res.price - reference)),
        ("n_min", n_min),
        ("cpu_tuned_ms", cpu_tuned),
        ("cpu_nmin_ms", cpu_nmin),
        ("carr_madan_default_params", cm_default),
    ]
    meta = {"experiment": "fmls_study", "model": "fmls", "alpha": s["alpha"],
            "sigma": s["sigma"], "T": s["T"], "r": s["r"], "S0": s["S0"],
            "K": s["K"], "tol": s["tol"], "series-order": s["series_order"]}
    text = write_csv(out, ["quantity", "value"], rows, meta,
                     nondet_columns=("cpu_tuned_ms", "cpu_nmin_ms"))
    return {"reference": reference, "params": params, "price": res.price,
            "err": abs(res.price - reference), "n_min": n_min,
            "cpu_tuned_ms": cpu_tuned, "cpu_nmin_ms": cpu_nmin,
            "cm_default": cm_default, "csv": text}


# --- convergence sweeps ----------------------------------------------------

def _candidate_ranges(strategy: tuple, n: int) -> np.ndarray:
    """The half-ranges a strategy tries at series length n."""
    kind, arg = strategy
    if kind in ("constant", "optimal"):
        grid = np.atleast_1d(np.asarray(arg, dtype=float))
    elif kind == "sqrt":
        grid = np.array([float(arg) * math.sqrt(n)])
    elif kind == "linear":
        grid = np.array([float(arg) * n])
    else:
        raise ValueError(f"unknown range strategy {strategy!r}")
    if not np.all(grid > 0):
        raise ValueError(f"half-ranges must be positive, got {strategy!r}")
    return grid


def run_convergence(cf: CentralizedCF, payoff: Payoff, ctx: MarketContext,
                    reference: float, strategy: tuple,
                    n_exponents=range(4, 17)) -> dict:
    """Error of the COS price against a reference for N = 2^e over the given
    exponents, with the half-range set by the strategy:
    ("constant", c) | ("sqrt", g): g*sqrt(N) | ("linear", g): g*N |
    ("optimal", grid): per-N argmin of the error over the grid.

    Returns the records, the fitted log-log slope over the asymptotic window,
    and for the optimal strategy the argmin table.
    """
    if not math.isfinite(reference):
        raise ReferenceUnavailable("reference price is not finite")
    ns = [2 ** e for e in n_exponents]
    candidates = [_candidate_ranges(strategy, n) for n in ns]
    # c_k and v_k do not depend on N, so one cos_prices call prices every N
    # that tries a range, from prefix sums of one term vector
    users = {}
    for i, grid in enumerate(candidates):
        for L in grid.tolist():
            users.setdefault(L, []).append(i)
    errors, spent = {}, [0.0] * len(ns)
    for L, idx in users.items():
        t0 = time.perf_counter()
        prices = cos_prices(cf, payoff, ctx, L, L, [ns[i] for i in idx])
        share = (time.perf_counter() - t0) / len(idx)
        for i, price in zip(idx, prices):
            errors[i, L] = abs(price - reference)
            spent[i] += share
    records = []
    for i, (n, grid) in enumerate(zip(ns, candidates)):
        errs = [errors[i, L] for L in grid.tolist()]
        best = int(np.argmin(errs))  # the first minimum in grid order
        records.append(ConvergenceRecord(
            N=n, L=float(grid[best]), error=float(errs[best]),
            elapsed_s=spent[i]))

    out = {"records": records, "strategy": strategy,
           "slope": _slope_or_nan(ns, [r.error for r in records])}
    if strategy[0] == "optimal" and records:
        out["optimal_rows"] = [(r.N, r.L, r.error) for r in records]
        out["range_slope"] = _slope_or_nan(ns, [r.L for r in records],
                                           noise_floor=0.0)
    return out


def _slope_or_nan(ns, values, **window) -> float:
    """`fit_loglog_slope`, or NaN when the fit window holds fewer than two
    points."""
    try:
        return fit_loglog_slope(ns, values, **window)
    except ValueError:
        return math.nan


_CONVERGENCE_STRATEGIES = {
    "bs": [("constant", 4 * 0.2), ("constant", 6 * 0.2), ("constant", 20 * 0.2),
           ("sqrt", 0.2), ("linear", 0.2 / 5.0)],
    "cauchy": [("constant", 10.0), ("linear", 1.0 / 10.0)],
    "fmls": [("constant", 10.0), ("linear", 1.0 / 100.0)],
}


def run_convergence_experiment(model_key: str, out: str | None = None,
                               n_max_exp: int = 16) -> dict:
    """All range strategies for one study model; one CSV row per sweep point."""
    cf, payoff, ctx, reference = _study_inputs(model_key)
    rows, results = [], {}
    for strat in _CONVERGENCE_STRATEGIES[model_key]:
        res = run_convergence(cf, payoff, ctx, reference, strat,
                              n_exponents=range(4, n_max_exp + 1))
        name = strat[0] + f"({strat[1]:g})"
        results[name] = res
        for rec in res["records"]:
            rows.append((name, rec.N, rec.L, rec.error,
                         rec.elapsed_s * 1e3))
    meta = {"experiment": f"convergence_{model_key}",
            "reference": reference, "n-max-exp": n_max_exp,
            "fit-window": (f"error > {_FIT_NOISE_FLOOR:g} "
                           f"and N >= {_FIT_N_MIN}")}
    text = write_csv(out, ["strategy", "N", "L", "abs_error", "cpu_ms"],
                     rows, meta, nondet_columns=("cpu_ms",))
    return {"results": results, "reference": reference, "csv": text}


def run_l_optimal(out: str | None = None, n_max_exp: int = 14) -> dict:
    """Per-N optimal half-range over the log-spaced candidate grid, and the
    log-log slope of the optimal range against N, for the Cauchy digital and
    the FMLS call."""
    rows, results = [], {}
    for key in ("cauchy", "fmls"):
        cf, payoff, ctx, reference = _study_inputs(key)
        res = run_convergence(cf, payoff, ctx, reference,
                              ("optimal", OPTIMAL_RANGE_GRID),
                              n_exponents=range(4, n_max_exp + 1))
        results[key] = res
        for n, L_opt, err in res["optimal_rows"]:
            rows.append((key, n, L_opt, err))
    meta = {"experiment": "l_optimal", "n-max-exp": n_max_exp,
            "grid": "exp(0.07*i), i=0..200",
            "fit-window": f"N >= {_FIT_N_MIN}"}
    text = write_csv(out, ["model", "N", "L_optimal", "abs_error"], rows, meta)
    return {"results": results, "csv": text}


# every study by its id; the runners are looked up by name at call time
_STUDIES = {
    "table1": lambda cfg: run_table1(cfg.out),
    "vg_counterexample": lambda cfg: run_vg_counterexample(cfg.out),
    "fmls_study": lambda cfg: run_fmls_study(cfg.out),
    "convergence_bs": lambda cfg: run_convergence_experiment(
        "bs", cfg.out, cfg.n_max_exp),
    "convergence_cauchy": lambda cfg: run_convergence_experiment(
        "cauchy", cfg.out, cfg.n_max_exp),
    "convergence_fmls": lambda cfg: run_convergence_experiment(
        "fmls", cfg.out, cfg.n_max_exp),
    "l_optimal": lambda cfg: run_l_optimal(cfg.out, min(cfg.n_max_exp, 14)),
}
EXPERIMENT_IDS = tuple(_STUDIES)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one benchmark study from its config."""
    return _STUDIES[cfg.experiment](cfg)

