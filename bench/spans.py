"""In-memory span tracing of torusembed's public functions, from outside.

``Tracer.install()`` wraps each target function and rebinds the wrapper under
every name that holds the original in any loaded ``torusembed`` module (for
example ``factor_integer`` is bound in ``arith.integers``, ``arith.symbols``,
``arith.polyfp`` and ``etale``).  Methods and the ``QuadraticSpace.invariants``
cached property are wrapped on their class.  A target missing from the
program is reported, not fatal, so the benchmark outlives refactors.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import sys
from functools import cached_property
from time import perf_counter

# (layer, module, attribute): the span is named "<layer>.<attribute>".
FUNCTIONS = (
    ("cli", "torusembed.cli", "main"),
    ("docio", "torusembed.docio", "parse_problem"),
    ("docio", "torusembed.docio", "build_inputs"),
    ("docio", "torusembed.docio", "render_decision_report"),
    ("etale", "torusembed.etale", "build_component"),
    ("etale", "torusembed.etale", "component_split_at"),
    ("qform", "torusembed.qform", "diagonalize_gram"),
    ("engine", "torusembed.engine", "decide"),
    ("engine", "torusembed.engine", "check_local"),
    ("engine", "torusembed.engine", "construct_baseline"),
    ("engine", "torusembed.engine", "build_graph"),
    ("oracle", "torusembed.oracle", "search_realizing_element"),
    ("oracle", "torusembed.oracle", "trace_form"),
    ("arith", "torusembed.arith.integers", "factor_integer"),
    ("arith", "torusembed.arith.symbols", "hilbert_symbol"),
    ("arith", "torusembed.arith.polyfp", "factor_mod_p"),
    ("arith", "torusembed.arith.polyq", "is_irreducible"),
    ("arith", "torusembed.arith.polyq", "resultant_in_y"),
    ("arith", "torusembed.arith.sturm", "isolate_real_roots"),
)

# (layer, module, class, attribute): wrapped on the class.
METHODS = (
    ("etale", "torusembed.etale", "EtaleAlgebra", "component_split"),
    ("qform", "torusembed.qform", "QuadraticSpace", "local_hasse_bit"),
    ("qform", "torusembed.qform", "QuadraticSpace", "invariants"),
)


class Tracer:
    """Records spans and a few counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.counters: dict[str, int] = {
            "engine.primes_scanned": 0,
            "oracle.searches": 0,
            "oracle.found": 0,
            "arith.factor_integer.max_digits": 0,
        }
        self.missing: list[str] = []

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack, depth = self.spans, self.stack, self.depth
        depth[name] = 0

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            depth[name] += 1
            if before is not None:
                before(args)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                depth[name] -= 1
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Counter hooks ---------------------------------------------------------

    def _split_query(self, args) -> None:
        place = args[2] if len(args) > 2 else None
        if self.depth.get("engine.build_graph") and not getattr(
            place, "is_infinite", True
        ):
            self.counters["engine.primes_scanned"] += 1

    def _factor_size(self, args) -> None:
        digits = len(str(abs(args[0]))) if args else 0
        if digits > self.counters["arith.factor_integer.max_digits"]:
            self.counters["arith.factor_integer.max_digits"] = digits

    def _search_done(self, result) -> None:
        self.counters["oracle.searches"] += 1
        self.counters["oracle.found"] += bool(getattr(result, "found", False))

    def _hooks(self, name: str):
        """(before, after) callbacks that keep the counters for span ``name``."""
        return {
            "etale.component_split": (self._split_query, None),
            "arith.factor_integer": (self._factor_size, None),
            "oracle.search_realizing_element": (None, self._search_done),
        }.get(name, (None, None))

    # Installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the loaded torusembed modules."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "torusembed" or key.startswith("torusembed."))
        ]
        for layer, module, attr in FUNCTIONS:
            name = f"{layer}.{attr}"
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, *self._hooks(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        for layer, module, cls_name, attr in METHODS:
            name = f"{layer}.{attr}"
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(name)
            elif isinstance(original, cached_property):
                prop = cached_property(self._wrap(name, original.func))
                prop.__set_name__(cls, attr)
                setattr(cls, attr, prop)
            else:
                setattr(cls, attr, self._wrap(name, original, *self._hooks(name)))

    def write(self, path) -> None:
        """Write the spans as tab-separated name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def summarize(spans) -> dict[str, dict]:
    """Per span name: ``calls``, ``ms`` (time inside the outermost spans of
    that name, so recursion is not counted twice) and ``self_ms`` (each
    span's duration minus the durations of its direct children)."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        stats = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        duration = end - start
        stats["calls"] += 1
        stats["self_ms"] += (duration - child[index]) * 1000.0
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            stats["ms"] += duration * 1000.0
    return out


# Per-layer metrics: (metric, unit).  Each is computed in ``layer_metrics``.
PER_LAYER = (
    ("cli.main.self_ms", "ms"),
    ("docio.parse_problem.ms", "ms"),
    ("docio.build_inputs.self_ms", "ms"),
    ("docio.render_decision_report.ms", "ms"),
    ("etale.build_component.self_ms", "ms"),
    ("etale.build_component.calls", "count"),
    ("etale.component_split_at.ms", "ms"),
    ("etale.component_split_at.calls", "count"),
    ("etale.split_memo_hit_ratio", "ratio"),
    ("qform.invariants.self_ms", "ms"),
    ("qform.diagonalize_gram.ms", "ms"),
    ("qform.local_hasse_bit.calls", "count"),
    ("engine.decide.self_ms", "ms"),
    ("engine.check_local.self_ms", "ms"),
    ("engine.construct_baseline.self_ms", "ms"),
    ("engine.build_graph.self_ms", "ms"),
    ("engine.primes_scanned", "count"),
    ("oracle.search_realizing_element.ms", "ms"),
    ("oracle.candidates", "count"),
    ("oracle.ms_per_candidate", "ms"),
    ("oracle.found_ratio", "ratio"),
    ("arith.factor_integer.ms", "ms"),
    ("arith.factor_integer.calls", "count"),
    ("arith.factor_integer.max_digits", "digits"),
    ("arith.hilbert_symbol.ms", "ms"),
    ("arith.hilbert_symbol.calls", "count"),
    ("arith.factor_mod_p.ms", "ms"),
    ("arith.factor_mod_p.calls", "count"),
    ("arith.is_irreducible.ms", "ms"),
    ("arith.resultant_in_y.ms", "ms"),
    ("arith.isolate_real_roots.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(
    summary: dict[str, dict], counters: dict[str, int], overhead_ratio: float
) -> dict[str, float]:
    """The PER_LAYER values from a span summary and the tracer's counters."""

    def stat(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        span, _, key = metric.rpartition(".")
        if key in ("ms", "self_ms", "calls"):
            values[metric] = stat(span, key)
    splits = stat("etale.component_split", "calls")
    values["etale.split_memo_hit_ratio"] = (
        1.0 - stat("etale.component_split_at", "calls") / splits if splits else 0.0
    )
    values["engine.primes_scanned"] = counters["engine.primes_scanned"]
    candidates = stat("oracle.trace_form", "calls")
    values["oracle.candidates"] = candidates
    values["oracle.ms_per_candidate"] = (
        stat("oracle.search_realizing_element", "ms") / candidates if candidates else 0.0
    )
    searches = counters["oracle.searches"]
    values["oracle.found_ratio"] = counters["oracle.found"] / searches if searches else 0.0
    values["arith.factor_integer.max_digits"] = counters[
        "arith.factor_integer.max_digits"
    ]
    values["trace.overhead_ratio"] = overhead_ratio
    return {metric: values[metric] for metric, _ in PER_LAYER}
