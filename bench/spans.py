"""Per-layer tracing from outside coskit.

Each traced function is replaced, for the length of a traced run, by a
wrapper installed under the name its callers look it up by (for example
`coskit.tuning.tail_profile`, which `tune` calls, rather than
`coskit.models.tail_profile`).  A wrapper records one span per call: name,
start, end, parent span and the operation it belongs to.  Spans stay in
memory until the run ends.  A name that no longer exists is reported as
absent and left alone.
"""

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _model_ctx(args, kwargs):
    return (args[0], args[1])


def _cf_order(args, kwargs):
    cf, order = args[0], args[1]
    return (cf.model, cf.T, order)


def _cf_range_terms(args, kwargs):
    cf, L, N = args[0], args[1], args[2]
    return (cf.model, cf.T, L, N)


def _price_terms(args, kwargs):
    params = args[3] if len(args) > 3 else kwargs["params"]
    return params.N + 1


@dataclass(frozen=True)
class Layer:
    """A traced function: its metric name, the (module, attribute) names its
    callers look it up by, what makes two calls the same work (reported as
    the share of calls that did distinct work), whether calls per op are
    reported, and a count of work per call."""
    name: str
    sites: tuple
    key: object = None
    calls: bool = False
    count: object = None


LAYERS = (
    Layer("models.tail_profile", (("coskit.tuning", "tail_profile"),), key=_model_ctx),
    Layer("models.central_moment", (("coskit.tuning", "central_moment"),
                                    ("coskit.harness", "central_moment"))),
    Layer("bounds.hj_numeric", (("coskit.tuning", "hj_numeric"),
                                ("coskit.harness", "hj_numeric")), key=_cf_order),
    Layer("bounds.hj_density_sup", (("coskit.harness", "hj_density_sup"),)),
    # hj_density_sup imports it from coskit.reference at every call
    Layer("reference.derivative_by_inversion",
          (("coskit.reference", "derivative_by_inversion"),), calls=True),
    Layer("tuning.tune", (("coskit", "tune"), ("coskit.harness", "tune")), calls=True),
    Layer("cos_engine.cos_coefficients", (("coskit.cos_engine", "cos_coefficients"),),
          key=_cf_range_terms),
    Layer("cos_engine.payoff_coefficients",
          (("coskit.cos_engine", "payoff_coefficients"),)),
    Layer("cos_engine.cos_price", (("coskit", "cos_price"), ("coskit.harness", "cos_price")),
          count=_price_terms),
    Layer("reference.carr_madan_call", (("coskit.harness", "carr_madan_call"),)),
    Layer("harness.find_nmin", (("coskit.harness", "find_nmin"),)),
    Layer("harness.run_convergence", (("coskit.harness", "run_convergence"),)),
    Layer("harness.median_time_ms", (("coskit.harness", "median_time_ms"),)),
)


@dataclass
class Tracer:
    """Span store for one traced run; `op` is the index of the operation in
    progress, -1 outside the timed phase."""
    op: int = -1
    spans: list = field(default_factory=list)   # [id, parent, op, name, start, end]
    keys: dict = field(default_factory=lambda: defaultdict(set))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def install(self):
        for layer in LAYERS:
            found = False
            for mod_name, attr in layer.sites:
                try:
                    mod = importlib.import_module(mod_name)
                    fn = getattr(mod, attr)
                except (ImportError, AttributeError):
                    continue
                found = True
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(layer, fn))
            if not found:
                self.absent.append(layer.name)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, self.op, layer.name,
                    time.perf_counter(), 0.0]
            spans.append(span)
            if layer.key is not None:
                self.keys[layer.name].add(layer.key(args, kwargs))
            if layer.count is not None:
                self.counts[layer.name] += layer.count(args, kwargs)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[5] = time.perf_counter()

        return traced

    def per_layer(self, n_ops):
        """Per-op metrics: self time and calls of every layer, the share of
        calls that did distinct work, and the series terms priced."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        child_s = defaultdict(float)
        for sid, parent, _, name, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for sid, parent, _, name, start, end in self.spans:
            self_s[name] += (end - start) - child_s[sid]
            calls[name] += 1
        out = {}
        for layer in LAYERS:
            n = calls[layer.name]
            out[f"{layer.name}.self_ms"] = (self_s[layer.name] * 1e3 / n_ops, "ms")
            if layer.calls or layer.key is not None:
                out[f"{layer.name}.calls"] = (n / n_ops, "count")
            if layer.key is not None:
                out[f"{layer.name}.useful_ratio"] = (
                    len(self.keys[layer.name]) / n if n else 0.0, "ratio")
        out["cos_engine.terms"] = (self.counts["cos_engine.cos_price"] / n_ops, "count")
        return out

    def write(self, path, t0):
        """One JSON line per span, times in seconds from t0."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": round(start - t0, 9),
                                     "end": round(end - t0, 9)}) + "\n")
