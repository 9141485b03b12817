"""The benchmark's per-layer trace (bench/spans.py, read here as it is)
still finds every layer it names, and the engine layers still record spans:
cos_prices must look up cos_coefficients and payoff_coefficients by their
module-global names, which is where the trace wraps them."""

import importlib.util
from pathlib import Path

import coskit
from coskit import harness
from coskit.cos_engine import CosParameters, Put
from coskit.models import BS, MarketContext, centralized_cf
from coskit.reference import black_scholes_put

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_sees_every_layer_and_the_engine_coefficients():
    spans = _load_spans()
    ctx = MarketContext(100.0, 0.01, 1.0)
    cf = centralized_cf(BS(0.2), ctx)
    tracer = spans.Tracer()
    tracer.install()
    try:
        coskit.cos_price(cf, Put(100.0), ctx, CosParameters(1.5, 1.6, 179))
        harness.run_convergence(cf, Put(100.0), ctx,
                                black_scholes_put(ctx, 0.2, 100.0),
                                ("constant", 8.0), n_exponents=range(4, 8))
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    named = {span[3] for span in tracer.spans}
    assert {"cos_engine.cos_coefficients", "cos_engine.payoff_coefficients",
            "cos_engine.cos_price", "harness.run_convergence"} <= named
