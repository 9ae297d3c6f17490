"""Per-layer tracing of mpqg from outside the package.

The tracer replaces public functions and methods of the `mpqg` modules with
timing wrappers and puts the originals back when it is uninstalled; nothing
under `src/` changes.  Layers are the `mpqg` modules.  Each wrapped
operation `<layer>.<op>` reports

    <layer>.<op>.calls    how many times it ran (count)
    <layer>.<op>.self_s   its time minus the time of wrapped calls made
                          inside it (s)

The leaf arithmetic layers (`scalars`, `cyclotomic`, `grouplike`) run
millions of times a pass, so they only keep these aggregates.  Calls into
the coarser layers also leave one span each -- (name, parent span, start,
end) -- kept in memory up to `SPAN_CAP` spans and written out by
`Tracer.dump_spans` when the pass ends.

A few extra gauges explain why a layer was slow or undecided:
`scalars.max_terms`, `cotensor.word_product.{distinct,hit_ratio}`,
`realization.reduce.undecided`, `realization.table_rows`,
`realization.table_saturated` and `linalg.max_dim`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (operation, module, class or None for a module-level function, attribute).
# An operation may name several targets; their figures are summed.
TARGETS = [
    ("scalars.mul", "scalars", "Scalar", "__mul__"),
    ("scalars.add", "scalars", "Scalar", "__add__"),
    ("scalars.div", "scalars", "Scalar", "__truediv__"),
    ("scalars.poly_mul", "scalars", "LaurentPoly", "__mul__"),
    ("cyclotomic.mul", "cyclotomic", "CyclotomicElement", "__mul__"),
    ("cyclotomic.inverse", "cyclotomic", "CyclotomicElement", "inverse"),
    ("grouplike.mul", "grouplike", "GradingGroup", "mul"),
    ("grouplike.char", "grouplike", "Character", "__call__"),
    ("cotensor.word_product", "cotensor", "CotensorAlgebra", "word_product"),
    ("cotensor.product", "cotensor", "CotensorAlgebra", "product"),
    ("cotensor.coproduct", "cotensor", "CotensorAlgebra", "coproduct"),
    ("cotensor.antipode_word", "cotensor", "CotensorAlgebra", "antipode_word"),
    ("cotensor.element_add", "cotensor", "Element", "__add__"),
    ("realization.relation_residuals", "realization", "Realization",
     "relation_residuals"),
    ("realization.ad_left", "realization", "Realization", "ad_left"),
    ("realization.reduce", "realization", "IdealReducer", "reduce"),
    ("realization.table_normal_form", "realization", "NormalFormTable",
     "normal_form"),
    ("realization.table_ensure", "realization", "NormalFormTable", "ensure"),
    ("linalg.det", "linalg", "Matrix", "det"),
    ("linalg.solve", "linalg", "Matrix", "solve"),
    ("linalg.kernel_basis", "linalg", "Matrix", "kernel_basis"),
    ("linalg.matmul", "linalg", "Matrix", "__mul__"),
    ("pairing.gram_matrix", "pairing", "SkewPairing", "gram_matrix"),
    ("pairing.graded_basis", "pairing", "SkewPairing", "graded_basis"),
    ("pairing.pair_monomial", "pairing", "SkewPairing", "pair_monomial"),
    ("twist.twisted_residuals", "twist", "TwistContext", "twisted_residuals"),
    ("twist.twisted_product", "twist", "TwistContext", "twisted_product"),
    ("modules.build", "modules", None, "build_module"),
    ("modules.act_matrix", "modules", "HighestWeightModule", "act_matrix"),
    ("modules.check_matrix_relation", "modules", "HighestWeightModule",
     "check_matrix_relation"),
    ("modules.nilpotency_threshold", "modules", "HighestWeightModule",
     "nilpotency_threshold"),
    ("cartan.params", "cartan", "ParamMatrix", "__init__"),
    ("cartan.oracle", "cartan", None, "weyl_dim"),
    ("cartan.oracle", "cartan", None, "kostant_count"),
] + [("cli.suite", "cli", None, name) for name in (
    "cmd_check_relations", "cmd_check_hopf", "cmd_check_closed_forms",
    "cmd_pairing_gram", "cmd_module", "cmd_twist", "cmd_smallqg")]

LEAF_LAYERS = ("scalars", "cyclotomic", "grouplike")
SPAN_CAP = 200_000

OPERATIONS = list(dict.fromkeys(op for op, *_ in TARGETS))
GAUGES = {
    "scalars.max_terms": "count",
    "cotensor.word_product.distinct": "count",
    "cotensor.word_product.hit_ratio": "ratio",
    "realization.reduce.undecided": "count",
    "realization.table_rows": "count",
    "realization.table_saturated": "count",
    "linalg.max_dim": "count",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for op in OPERATIONS:
        out[f"{op}.calls"] = "count"
        out[f"{op}.self_s"] = "s"
    out.update(GAUGES)
    return out


def _scalar_terms(result):
    num = getattr(result, "num", None)
    den = getattr(result, "den", None)
    if num is None or den is None:
        return 0
    return len(num.terms) + len(den.terms)


class Tracer:
    """Install with `install()`, run the code, read `metrics()`, then
    `uninstall()`; uninstalling puts every replaced attribute back."""

    def __init__(self):
        self.stats = {op: [0, 0.0] for op in OPERATIONS}  # calls, self time
        self.spans = []          # (name index, parent span, start, end)
        self.spans_dropped = 0
        self.gauges = {name: 0 for name in GAUGES}
        self.saved = []          # (owner, attribute, original)
        self._stack = []         # per open call: [child time, span index]
        self._products = set()   # (algebra, left word, right word)
        self._saturated = set()  # tables that reached their row limit

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"mpqg.{m}")
                   for m in dict.fromkeys(t[1] for t in TARGETS)}
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "mpqg" or name.startswith("mpqg.")]
        for op, modname, clsname, attr in TARGETS:
            if clsname is None:
                # module-level functions are also imported by name elsewhere
                owners = package
                original = vars(modules[modname])[attr]
            else:
                owners = [getattr(modules[modname], clsname)]
                original = vars(owners[0])[attr]
            wrapper = self._wrap(op, original)
            for owner in owners:
                # aliases such as `__radd__ = __add__` share the wrapper
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self.saved.append((owner, name, original))
                        setattr(owner, name, wrapper)
        return self

    def uninstall(self):
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, op, fn):
        stats = self.stats[op]
        stack = self._stack
        clock = time.perf_counter
        gauge = self._gauge_hook(op)
        if op.split(".")[0] in LEAF_LAYERS:
            # aggregates only: these run millions of times a pass
            def wrapper(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stats[0] += 1
                    stats[1] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                if gauge is not None:
                    gauge(args, result)
                return result
        else:
            index = OPERATIONS.index(op)
            spans = self.spans

            def wrapper(*args, **kwargs):
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), -1)
                if len(spans) < SPAN_CAP:
                    span = len(spans)
                    spans.append(None)
                else:
                    span = None
                    self.spans_dropped += 1
                frame = [0.0, span]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    stack.pop()
                    stats[0] += 1
                    stats[1] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                    if span is not None:
                        spans[span] = (index, parent, t0, t1)
                if gauge is not None:
                    gauge(args, result)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", op)
        return wrapper

    def _gauge_hook(self, op):
        g = self.gauges
        if op in ("scalars.mul", "scalars.add", "scalars.div"):
            def hook(args, result):
                n = _scalar_terms(result)
                if n > g["scalars.max_terms"]:
                    g["scalars.max_terms"] = n
            return hook
        if op == "cotensor.word_product":
            seen = self._products

            def hook(args, result):
                # the key holds the algebra itself: an id could be reused
                # by a later algebra and read as a hit
                seen.add(args[:3])
            return hook
        if op == "realization.reduce":
            def hook(args, result):
                if str(result[0]).startswith("undecided"):
                    g["realization.reduce.undecided"] += 1
            return hook
        if op == "realization.table_ensure":
            saturated = self._saturated

            def hook(args, result):
                table = args[0]
                if len(table.rows) > g["realization.table_rows"]:
                    g["realization.table_rows"] = len(table.rows)
                if table.saturated:
                    saturated.add(table)
            return hook
        if op.startswith("linalg."):
            def hook(args, result):
                for m in args[:2]:
                    dim = max(getattr(m, "nrows", 0), getattr(m, "ncols", 0))
                    if dim > g["linalg.max_dim"]:
                        g["linalg.max_dim"] = dim
            return hook
        return None

    # -- results ----------------------------------------------------------

    def metrics(self):
        """{metric name: value} for every name in `metric_units()`."""
        out = {}
        for op in OPERATIONS:
            calls, self_s = self.stats[op]
            out[f"{op}.calls"] = calls
            out[f"{op}.self_s"] = self_s
        out.update(self.gauges)
        calls = self.stats["cotensor.word_product"][0]
        distinct = len(self._products)
        out["cotensor.word_product.distinct"] = distinct
        out["cotensor.word_product.hit_ratio"] = \
            (calls - distinct) / calls if calls else 0.0
        out["realization.table_saturated"] = len(self._saturated)
        return out

    def dump_spans(self, path):
        """Write the kept spans as JSON: times are seconds from the first
        span's start; `parent` is a span index or -1."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": OPERATIONS,
                       "fields": ["name", "parent", "start_s", "end_s"],
                       "dropped": self.spans_dropped,
                       "spans": [[n, p, a - t0, b - t0]
                                 for n, p, a, b in self.spans]}, fh)
