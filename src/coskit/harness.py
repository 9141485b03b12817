"""Experiment runner and CLI.

Reproduces the benchmark studies at desk scale -- the series-length table for
the lognormal put, the variance-gamma counterexample, the heavy-tail study,
and the convergence-order sweeps -- writing deterministic CSV (timings live
in columns tagged non-deterministic).  Also exposes `price`, `tune` and
`experiment` subcommands.
"""

import argparse
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import hj_numeric
from .cos_engine import (Call, CosParameters, DigitalBelow, Payoff, Put,
                         cos_price, cos_prices)
from .errors import (CosKitError, DampingInadmissible, IntegralDiverged,
                     ModelParameterError, MomentDoesNotExist, NoSmoothness,
                     NotReachedWithinCap, QuadratureFailure,
                     ReferenceUnavailable, ToleranceTooLoose)
from .models import (BS, FMLS, NIG, VG, Cauchy, CentralizedCF, MarketContext,
                     ModelSpec, Stable, centralized_cf, tail_profile)
from .reference import (CarrMadanConfig, black_scholes_call,
                        black_scholes_put, carr_madan_call, cauchy_cdf,
                        hj_density_sup)
from .tuning import TuningRequest, _ranges, _series_length, tune

__all__ = [
    "ConvergenceRecord", "ExperimentConfig", "EXPERIMENT_IDS", "find_nmin",
    "median_time_ms", "fit_loglog_slope", "run_table1",
    "run_vg_counterexample", "run_fmls_study", "run_convergence",
    "run_convergence_experiment", "run_l_optimal", "run_experiment",
    "write_csv", "cli_main", "main", "TABLE1_SETUP", "VG_SETUP", "FMLS_SETUP",
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
# log-spaced candidate half-ranges for the optimal-range search
OPTIMAL_RANGE_GRID = np.exp(0.07 * np.arange(201))

EXPERIMENT_IDS = ("table1", "vg_counterexample", "fmls_study",
                  "convergence_bs", "convergence_cauchy", "convergence_fmls",
                  "l_optimal")


@dataclass(frozen=True)
class ConvergenceRecord:
    """One sweep point: series length, half-range used, absolute error
    against the reference, and the wall time of the pricing call.  For the
    constant-range and optimal-range strategies every N of the sweep is
    priced from the same term vectors, so elapsed_s is the time of the whole
    sweep (the whole grid search) split evenly over the N values."""
    N: int
    L: float
    error: float
    elapsed_s: float


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    out: str | None = None
    n_max_exp: int = 16
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n_max_exp < 4:
            # every sweep starts at N = 2^4
            raise ValueError(f"need n_max_exp >= 4, got {self.n_max_exp}")


# ---------------------------------------------------------------------------
# small utilities
# ---------------------------------------------------------------------------

def median_time_ms(fn, reps: int = 32, warmup: int = 4) -> float:
    """Median wall time of fn() in milliseconds (monotonic clock)."""
    return _median_times_ms([fn], reps, warmup)[0]


def _median_times_ms(fns, reps: int = 32, warmup: int = 4) -> list[float]:
    """Median wall time in milliseconds of each callable, sampled in
    alternation (the order reversed on every other round) so that all of
    them see the same phases of host speed and a ratio of the medians
    compares like with like."""
    for _ in range(warmup):
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


def fit_loglog_slope(ns, values, noise_floor: float = 1e-12,
                     n_min: int = 64) -> float:
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
              L: float, M: float, reference: float, tol: float,
              n_hi: int = 2 ** 24) -> int:
    """Smallest series length keeping |COS - reference| <= tol, by doubling
    then bisection.  Approximate when the error is not monotone in N: the
    result satisfies the tolerance at N and at every larger probed N."""
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
        if n > n_hi:
            raise NotReachedWithinCap(
                f"no N <= {n_hi} meets tolerance {tol}")
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

    Identical inputs yield byte-identical text; wall-clock columns must be
    listed in nondet_columns so downstream diffing can ignore them.
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

def run_table1(out: str | None = None, time_reps: int = 32) -> dict:
    """Series-length table for the lognormal at-the-money put: the certified N
    per derivative order, pricing and numeric-bound timings, and the
    empirically minimal N."""
    s = TABLE1_SETUP
    model = BS(s["sigma"])
    ctx = MarketContext(S0=s["S0"], r=s["r"], T=s["T"])
    cf = centralized_cf(model, ctx)
    reference = black_scholes_put(ctx, s["sigma"], s["K"])

    rows = []
    params_by_order = {}
    for j in s["orders"]:
        req = TuningRequest(model, ctx, payoff_bound=s["K"], tol=s["tol"],
                            moment_order=s["moment_order"], series_order=j)
        params = tune(req)
        params_by_order[j] = params
        cpu_cos = median_time_ms(
            lambda p=params: cos_price(cf, Put(s["K"]), ctx, p),
            reps=time_reps)
        cpu_hj = median_time_ms(lambda jj=j: hj_numeric(cf, jj + 1),
                                reps=max(4, time_reps // 4))
        rows.append((j, params.N, cpu_cos, cpu_hj))

    any_params = params_by_order[s["orders"][0]]
    n_min = find_nmin(cf, Put(s["K"]), ctx, any_params.L, any_params.M,
                      reference, s["tol"])
    cpu_nmin = median_time_ms(
        lambda: cos_price(cf, Put(s["K"]), ctx,
                          CosParameters(any_params.M, any_params.L, n_min)),
        reps=time_reps)

    meta = {"experiment": "table1", "model": "bs", "sigma": s["sigma"],
            "T": s["T"], "r": s["r"], "S0": s["S0"], "K": s["K"],
            "tol": s["tol"], "moment-order": s["moment_order"],
            "L": any_params.L, "n-min": n_min,
            "cpu-cos-nmin-ms": round(cpu_nmin, 6)}
    text = write_csv(out, ["j", "N", "cpu_cos_ms", "cpu_hj_ms"], rows, meta,
                     nondet_columns=("cpu_cos_ms", "cpu_hj_ms"))
    return {"rows": rows, "n_min": n_min, "params": params_by_order,
            "reference": reference, "cpu_nmin_ms": cpu_nmin, "csv": text}


def run_vg_counterexample(out: str | None = None) -> dict:
    """Variance-gamma short-maturity study: the selection rule is honest but
    useless here (astronomical N), while a tiny N already prices well."""
    s = VG_SETUP
    model = VG(s["sigma"], s["nu"], s["theta"])
    ctx = MarketContext(S0=s["S0"], r=s["r"], T=s["T"])
    cf = centralized_cf(model, ctx)

    reference = carr_madan_call(cf, ctx, s["K"])
    h1_sup = hj_density_sup(cf, 1)
    h1_integral = hj_numeric(cf, 1)

    # the moment rule and the square-root rule exactly as tune applies them
    req = TuningRequest(model, ctx, payoff_bound=s["K"], tol=s["tol"],
                        moment_order=s["moment_order"])
    _, L, xi, _ = _ranges(req, tail_profile(model, ctx))
    n_rule = _series_length(0, h1_sup, L, xi, s["tol"])

    res_small = cos_price(cf, Call(s["K"]), ctx,
                          CosParameters(M=L, L=L, N=50))
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
    model = FMLS(s["alpha"], s["sigma"])
    ctx = MarketContext(S0=s["S0"], r=s["r"], T=s["T"])
    cf = centralized_cf(model, ctx)

    reference = carr_madan_call(cf, ctx, s["K"])
    req = TuningRequest(model, ctx, payoff_bound=s["K"], tol=s["tol"],
                        series_order=s["series_order"])
    params = tune(req)
    res = cos_price(cf, Call(s["K"]), ctx, params)
    n_min = find_nmin(cf, Call(s["K"]), ctx, params.L, params.M, reference,
                      s["tol"])

    cpu_tuned, cpu_nmin = _median_times_ms(
        [lambda: cos_price(cf, Call(s["K"]), ctx, params),
         lambda: cos_price(cf, Call(s["K"]), ctx,
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

def _range_for(strategy: tuple, n: int) -> float:
    kind = strategy[0]
    if kind == "sqrt":
        return float(strategy[1]) * math.sqrt(n)
    if kind == "linear":
        return float(strategy[1]) * n
    raise ValueError(f"unknown range strategy {strategy!r}")


def run_convergence(cf: CentralizedCF, payoff: Payoff, ctx: MarketContext,
                    reference: float, strategy: tuple,
                    n_exponents=range(4, 17), noise_floor: float = 1e-12,
                    fit_n_min: int = 64) -> dict:
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
    records = []
    if strategy[0] in ("constant", "optimal") and ns:
        # c_k and v_k do not depend on N, so one cos_prices call per L prices
        # every N; the per-N arg-min (first minimum on ties) reads the N x L
        # error table, and a constant range is the one-point grid.  An empty
        # sweep takes the loop below and records nothing.
        grid = np.atleast_1d(np.asarray(strategy[1], dtype=float))
        t0 = time.perf_counter()
        table = np.empty((len(ns), grid.size))
        for i, L in enumerate(grid):
            table[:, i] = np.abs(
                np.subtract(cos_prices(cf, payoff, ctx, L, L, ns), reference))
        elapsed = (time.perf_counter() - t0) / len(ns)
        for n, row in zip(ns, table):
            i_best = int(np.argmin(row))
            records.append(ConvergenceRecord(
                N=n, L=float(grid[i_best]), error=float(row[i_best]),
                elapsed_s=elapsed))
    else:
        for n in ns:
            t0 = time.perf_counter()
            L_used = _range_for(strategy, n)
            res = cos_price(cf, payoff, ctx,
                            CosParameters(M=L_used, L=L_used, N=n))
            records.append(ConvergenceRecord(
                N=n, L=L_used, error=abs(res.price - reference),
                elapsed_s=time.perf_counter() - t0))

    errs = [r.error for r in records]
    try:
        slope = fit_loglog_slope(ns, errs, noise_floor, fit_n_min)
    except ValueError:
        slope = math.nan
    out = {"records": records, "slope": slope, "strategy": strategy}
    if strategy[0] == "optimal" and records:
        out["optimal_rows"] = [(r.N, r.L, r.error) for r in records]
        out["range_slope"] = fit_loglog_slope(
            [r.N for r in records], [r.L for r in records],
            noise_floor=0.0, n_min=fit_n_min)
    return out


def _study_inputs(model_key: str):
    """(cf, payoff, ctx, reference) for the convergence studies."""
    if model_key == "bs":
        s = TABLE1_SETUP
        ctx = MarketContext(s["S0"], s["r"], s["T"])
        cf = centralized_cf(BS(s["sigma"]), ctx)
        return cf, Call(s["K"]), ctx, black_scholes_call(ctx, s["sigma"], s["K"])
    if model_key == "cauchy":
        ctx = MarketContext(1.0, 0.0, 1.0)
        cf = centralized_cf(Cauchy(), ctx)
        d = CAUCHY_DIGITAL_SETUP["threshold"]
        return cf, DigitalBelow(d), ctx, cauchy_cdf(d)
    if model_key == "fmls":
        s = FMLS_SETUP
        ctx = MarketContext(s["S0"], s["r"], s["T"])
        cf = centralized_cf(FMLS(s["alpha"], s["sigma"]), ctx)
        return cf, Call(s["K"]), ctx, carr_madan_call(cf, ctx, s["K"])
    raise ValueError(f"no convergence study for {model_key!r}")


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
            "fit-window": "error > 1e-12 and N >= 64"}
    text = write_csv(out, ["strategy", "N", "L", "abs_error", "cpu_ms"],
                     rows, meta, nondet_columns=("cpu_ms",))
    return {"results": results, "reference": reference, "csv": text}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Dispatch one benchmark study from its config."""
    if cfg.experiment == "table1":
        return run_table1(cfg.out, **cfg.options)
    if cfg.experiment == "vg_counterexample":
        return run_vg_counterexample(cfg.out)
    if cfg.experiment == "fmls_study":
        return run_fmls_study(cfg.out, **cfg.options)
    if cfg.experiment == "l_optimal":
        return run_l_optimal(cfg.out, min(cfg.n_max_exp, 14))
    key = cfg.experiment.removeprefix("convergence_")
    return run_convergence_experiment(key, cfg.out, cfg.n_max_exp)


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
            "fit-window": "N >= 64"}
    text = write_csv(out, ["model", "N", "L_optimal", "abs_error"], rows, meta)
    return {"results": results, "csv": text}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_MODEL_KEYS = ("model", "sigma", "alpha", "beta", "delta", "nu", "theta",
               "scale", "S0", "r", "T")


def _read_config(path: str) -> dict:
    """key = value per line; '#' starts a comment; keys as in _MODEL_KEYS."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _MODEL_KEYS:
                raise ValueError(f"unknown config key: {key}")
            out[key] = val if key == "model" else float(val)
    return out


def _build_model(opts: dict) -> ModelSpec:
    name = str(opts.get("model", "")).lower()
    need = lambda key: opts[key]  # noqa: E731 - KeyError -> usage error
    try:
        if name == "bs":
            return BS(sigma=need("sigma"))
        if name == "nig":
            return NIG(alpha=need("alpha"), delta=need("delta"))
        if name == "vg":
            return VG(sigma=need("sigma"), nu=need("nu"),
                      theta=opts.get("theta", 0.0))
        if name == "fmls":
            return FMLS(alpha=need("alpha"), sigma=need("sigma"))
        if name == "stable":
            return Stable(alpha=need("alpha"), beta=opts.get("beta", 0.0),
                          scale=need("scale"), loc=opts.get("theta", 0.0))
        if name == "cauchy":
            return Cauchy()
    except KeyError as exc:
        raise ModelParameterError(f"missing parameter {exc} for model {name}")
    raise ModelParameterError(f"unknown model {name!r}")


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value file with model parameters")
    p.add_argument("--model", choices=["bs", "nig", "vg", "fmls", "stable",
                                       "cauchy"])
    for key in ("sigma", "alpha", "beta", "delta", "nu", "theta", "scale"):
        p.add_argument(f"--{key}", type=float)
    p.add_argument("--S0", type=float, default=100.0)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--T", type=float, default=1.0)


def _collect_model_opts(args) -> dict:
    opts = _read_config(args.config) if args.config else {}
    for key in _MODEL_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def _payoff_and_bound(args) -> tuple[Payoff, float]:
    kind = args.payoff
    if kind == "put":
        return Put(args.K), args.K
    if kind == "call":
        return Call(args.K), args.K
    if kind == "digital":
        return DigitalBelow(args.d), 1.0
    raise ModelParameterError(f"unknown payoff {kind!r}")


def _request(args, payoff_bound: float) -> TuningRequest:
    """Tuning request from the model, market and tuning flags that `price`
    and `tune` share."""
    opts = _collect_model_opts(args)
    model = _build_model(opts)
    ctx = MarketContext(S0=opts.get("S0", args.S0), r=opts.get("r", args.r),
                        T=opts.get("T", args.T))
    return TuningRequest(model, ctx, payoff_bound=payoff_bound, tol=args.eps,
                         moment_order=args.n, series_order=args.j,
                         minimize_order=args.minimize_j)


def _cmd_price(args) -> int:
    payoff, bound = _payoff_and_bound(args)
    req = _request(args, bound)
    cf = centralized_cf(req.model, req.ctx)
    params = tune(req)
    res = cos_price(cf, payoff, req.ctx, params)
    print(f"price = {res.price:.10g}")
    print(f"M = {params.M:.10g}  L = {params.L:.10g}  N = {params.N}")
    print(f"certified tolerance = {params.tol:g}")
    if res.degenerate:
        print("warning: payoff degenerate on the integration range")
    return 0


def _cmd_tune(args) -> int:
    params = tune(_request(args, args.K))
    print(f"M = {params.M:.10g}  L = {params.L:.10g}  N = {params.N}")
    for key in ("M", "L", "N"):
        print(f"  {key}: {params.provenance[key]}")
    return 0


def _cmd_experiment(args) -> int:
    run_experiment(ExperimentConfig(experiment=args.id, out=args.out,
                                    n_max_exp=args.n_max_exp))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coskit",
        description="COS option pricing with certified parameter selection")
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("price", help="tune parameters and price an option")
    _add_model_args(pp)
    pp.add_argument("--K", type=float, default=100.0, help="strike")
    pp.add_argument("--payoff", choices=["put", "call", "digital"],
                    default="put")
    pp.add_argument("--d", type=float, default=0.0,
                    help="digital threshold on the centralized log-return")
    pp.add_argument("--eps", type=float, required=True,
                    help="price tolerance")
    pp.add_argument("--n", type=int, default=8, help="moment order")
    pp.add_argument("--j", type=int, default=40, help="series derivative order")
    pp.add_argument("--minimize-j", action="store_true")
    pp.set_defaults(func=_cmd_price)

    pt = sub.add_parser("tune", help="report certified (M, L, N)")
    _add_model_args(pt)
    pt.add_argument("--K", type=float, default=100.0,
                    help="payoff bound (strike for puts)")
    pt.add_argument("--eps", type=float, required=True)
    pt.add_argument("--n", type=int, default=8)
    pt.add_argument("--j", type=int, default=40)
    pt.add_argument("--minimize-j", action="store_true")
    pt.set_defaults(func=_cmd_tune)

    pe = sub.add_parser("experiment", help="run a benchmark study")
    pe.add_argument("--id", choices=EXPERIMENT_IDS, required=True)
    pe.add_argument("--out", help="CSV output path")
    pe.add_argument("--n-max-exp", type=int, default=16,
                    help="largest series-length exponent for sweeps")
    pe.set_defaults(func=_cmd_experiment)
    return p


def cli_main(argv=None) -> int:
    """Entry point: 0 ok, 2 usage error, 3 numeric failure,
    4 tolerance infeasible."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ModelParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceTooLoose, NoSmoothness, MomentDoesNotExist) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (QuadratureFailure, IntegralDiverged, NotReachedWithinCap,
            ReferenceUnavailable, DampingInadmissible, CosKitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:  # console-script entry point
    sys.exit(cli_main())
