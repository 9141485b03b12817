"""coskit benchmark runner.

    python3 bench/run.py --workload quotes|strips|studies --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: coskit is imported from ./src.  One
process, one caller, closed loop: each operation starts when the previous one
has returned.  The runner replays the seed's operation stream block by block
until --seconds have passed, finishing the block in progress, then checks
every output against references computed apart from the COS engine.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 every traced function is wrapped (see spans.py) and the metrics
are per-layer, per operation.  Full results, and the spans of a traced run,
are also written under bench/out/.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one thread per BLAS/OpenMP pool, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# set-up is measured this many times per run: once here, the rest in fresh
# interpreters, and reported as the median
SETUP_SAMPLES = 3


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("quotes", "strips", "studies"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, generate and warm up, print the set-up time, exit")
    return p.parse_args(argv)


def _import_workloads():
    src = ROOT / "src"
    if not (src / "coskit" / "__init__.py").is_file():
        raise SystemExit(f"error: no coskit sources under {src}; run from a "
                         "checkout that holds src/coskit")
    sys.path.insert(0, str(src))
    import coskit
    if Path(coskit.__file__).resolve().parent != (src / "coskit").resolve():
        raise SystemExit(f"error: imported coskit from {coskit.__file__}, not {src}")
    import workloads
    return workloads


def _setup(args):
    """Import, first block of inputs and warm-up; returns the workload and
    that block."""
    wl = _import_workloads().WORKLOADS[args.workload]
    first = wl.block(args.seed, 1)
    for op in wl.warmup():
        wl.run(op)
    return wl, first


def _setup_in_child(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    args = _args(argv)
    wl, block = _setup(args)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        if tracer.absent:
            print("absent: " + ", ".join(tracer.absent), file=sys.stderr)

    # timed phase: whole blocks, closed loop
    ops, outputs, latencies, blocks = [], [], [], []
    errors = 0
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    b = 1
    while True:
        tb = time.perf_counter()
        for op in block:
            if tracer is not None:
                tracer.op = len(ops)
            t = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # an operation that fails is counted, not fatal
                out = None
                errors += 1
                print(f"op {len(ops)} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            latencies.append(time.perf_counter() - t)
            ops.append(op)
            outputs.append(out)
        blocks.append((len(ops), time.perf_counter() - tb))
        if time.perf_counter() >= deadline:
            break
        b += 1
        block = wl.block(args.seed, b)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    # checks, after the timed phase
    done = [i for i, out in enumerate(outputs) if out is not None]
    ok = wl.check([ops[i] for i in done], [outputs[i] for i in done])
    misses = [done[k] for k, good in enumerate(ok) if not good]
    for i in misses:
        print(f"op {i} missed its check: {ops[i]}", file=sys.stderr)
    attempted = len(ops)
    failed = errors + len(misses)

    deciles = statistics.quantiles([x * 1e3 for x in latencies], n=10, method="inclusive")
    end_to_end = {
        "ops_per_s": ((attempted - failed) / wall, "1/s"),
        "latency_p50_ms": (deciles[4], "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if not args.trace:
        samples = [setup_s] + [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        end_to_end["setup_s"] = (statistics.median(samples), "s")
        metrics = end_to_end
    else:
        metrics = tracer.per_layer(attempted)

    result = {"correct": not misses, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump({**result, "seconds": args.seconds, "blocks": b, "wall_s": wall,
                   "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
                   "blocks_end_op_s": blocks, "latency_ms": [x * 1e3 for x in latencies]}, fh)
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{stem}.jsonl", t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
