"""Command-line interface: `coskit price`, `coskit tune` and
`coskit experiment`.

`price` and `tune` load only the pricing modules.  `experiment` imports the
studies (`coskit.harness`, which brings in the reference oracles and their
scipy quadrature) when it runs.
"""

import argparse
import os
import sys
from pathlib import Path

from .cos_engine import Call, DigitalBelow, Payoff, Put, cos_price
from .errors import (CosKitError, ModelParameterError, MomentDoesNotExist,
                     NoSmoothness, ToleranceTooLoose)
from .models import (BS, FMLS, NIG, VG, Cauchy, MarketContext, ModelSpec,
                     Stable, centralized_cf)
from .tuning import TuningRequest, tune

__all__ = ["cli_main", "main"]

_MODEL_KEYS = ("model", "sigma", "alpha", "beta", "delta", "nu", "theta",
               "scale", "S0", "r", "T")
# market inputs that neither the config file nor a flag sets
_MARKET_DEFAULTS = {"S0": 100.0, "r": 0.0, "T": 1.0}
# harness.EXPERIMENT_IDS, written out so that parsing `--id` does not load
# the studies
_EXPERIMENT_IDS = ("table1", "vg_counterexample", "fmls_study",
                   "convergence_bs", "convergence_cauchy", "convergence_fmls",
                   "l_optimal")


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


def _add_request_args(p: argparse.ArgumentParser):
    """The model, market and tuning flags that `price` and `tune` share."""
    p.add_argument("--config", help="key = value file of model and market "
                   "parameters, below the flags; S0, r, T default to 100, 0, 1")
    p.add_argument("--model", choices=["bs", "nig", "vg", "fmls", "stable",
                                       "cauchy"])
    for key in _MODEL_KEYS[1:]:
        p.add_argument(f"--{key}", type=float)
    p.add_argument("--K", type=float, default=100.0,
                   help="strike; the payoff bound of the tuning request")
    p.add_argument("--eps", type=float, required=True,
                   help="price tolerance")
    p.add_argument("--n", type=int, default=8, help="moment order")
    p.add_argument("--j", type=int, default=40, help="series derivative order")
    p.add_argument("--minimize-j", action="store_true")


def _payoff_and_bound(args) -> tuple[Payoff, float]:
    if args.payoff == "digital":
        return DigitalBelow(args.d), 1.0
    return (Put if args.payoff == "put" else Call)(args.K), args.K


def _request(args, payoff_bound: float) -> TuningRequest:
    """Tuning request from the shared flags: the market defaults, overridden
    by the config file, overridden by the flags."""
    opts = dict(_MARKET_DEFAULTS)
    if args.config:
        opts.update(_read_config(args.config))
    opts.update((key, getattr(args, key)) for key in _MODEL_KEYS
                if getattr(args, key) is not None)
    model = _build_model(opts)
    ctx = MarketContext(S0=opts["S0"], r=opts["r"], T=opts["T"])
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
    from . import harness

    # a bad --out path exits before the study runs; a file made only by this
    # check goes again if the study fails.  A FIFO is not opened twice, since
    # closing it would end its reader's input.
    made = bool(args.out) and not os.path.lexists(args.out)
    if args.out and not Path(args.out).is_fifo():
        open(args.out, "a").close()
    try:
        harness.run_experiment(harness.ExperimentConfig(
            experiment=args.id, out=args.out, n_max_exp=args.n_max_exp))
    except BaseException:
        if made:
            os.remove(args.out)
        raise
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coskit",
        description="COS option pricing with certified parameter selection")
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("price", help="tune parameters and price an option")
    _add_request_args(pp)
    pp.add_argument("--payoff", choices=["put", "call", "digital"],
                    default="put")
    pp.add_argument("--d", type=float, default=0.0,
                    help="digital threshold on the centralized log-return")
    pp.set_defaults(func=_cmd_price)

    pt = sub.add_parser("tune", help="report certified (M, L, N)")
    _add_request_args(pt)
    pt.set_defaults(func=_cmd_tune)

    pe = sub.add_parser("experiment", help="run a benchmark study")
    pe.add_argument("--id", choices=_EXPERIMENT_IDS, required=True)
    pe.add_argument("--out", help="CSV output path")
    pe.add_argument("--n-max-exp", type=int, default=16,
                    help="largest series-length exponent for sweeps")
    pe.set_defaults(func=_cmd_experiment)
    return p


# exit code per failure, first match wins (ModelParameterError is both a
# ValueError and a CosKitError); anything else propagates
_EXIT_CODES = (
    ((ValueError, OSError), 2),
    ((ToleranceTooLoose, NoSmoothness, MomentDoesNotExist), 4),
    (CosKitError, 3),
)


def cli_main(argv=None) -> int:
    """Entry point: 0 ok, 2 usage error, 3 numeric failure,
    4 tolerance infeasible."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        code = next((c for kinds, c in _EXIT_CODES if isinstance(exc, kinds)),
                    None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


def main() -> None:  # console-script entry point
    sys.exit(cli_main())
