"""Per-layer tracing: call counts and self times of argcl's public functions.

The benchmark wraps each function in TRACED at every argcl module binding
that holds it; wrapping only the defining module would miss the callers
that imported the function by name. A wrapper records one span per call in
memory (function, parent span, start, end) and nothing else; self times are
computed from the spans after the run. Timed runs install no wrappers.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

TRACED = {
    "kernels": ("filter_models", "pair_closure", "triple_closure"),
    "formulas": ("models_mask",),
    "relations": ("relation_properties",),
    "logic": ("is_consistent", "entails", "cnf_of"),
    "argumentation": (
        "arg_exists",
        "argcheck",
        "argrel",
        "find_minimal_support",
        "enumerate_minimal_supports",
    ),
    "expressibility": ("express", "verify_expresses"),
    "reductions": ("reduce", "solve_source"),
}

# The oracle calls counted per op by argumentation.oracle_calls_per_op.
ORACLES = ("logic.is_consistent", "logic.entails", "formulas.models_mask")


def self_times(
    parents: list[int], starts: list[float], ends: list[float]
) -> list[float]:
    """Self time of each span: its duration minus its children's durations.

    Spans come from one thread, so a span's children are nested inside it
    and disjoint, and their durations add up to the part they cover.
    `parents[i]` is the index of span i's parent, or -1 for a root.
    """
    child = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(starts))]


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # Argument-derived counters.
        self.cells = 0
        self.max_log2_space = 0
        self.distinct_relations: set = set()

    def _probe(self, name: str):
        if name == "kernels.filter_models":
            def probe(args, kwargs):
                n_vars, tables = args[0], args[1]
                self.cells += (1 << n_vars) * len(tables)
        elif name == "formulas.models_mask":
            def probe(args, kwargs):
                self.max_log2_space = max(self.max_log2_space, len(args[1]))
        elif name == "relations.relation_properties":
            def probe(args, kwargs):
                self.distinct_relations.add(args[0])
        else:
            return None
        return probe

    def _wrap(self, name: str, fn):
        fn_id = len(self.names)
        self.names.append(name)
        probe = self._probe(name)
        stack = self._stack
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            index = len(span_start)
            span_fn.append(fn_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()

        return traced

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items()) if n == "argcl" or n.startswith("argcl.")
        ]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"argcl.{module_name}"]
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time (seconds) per traced function."""
        calls = {name: 0 for name in self.names}
        own = {name: 0.0 for name in self.names}
        per_span = self_times(self.span_parent, self.span_start, self.span_end)
        for fn_id, seconds in zip(self.span_fn, per_span):
            name = self.names[fn_id]
            calls[name] += 1
            own[name] += seconds
        return calls, own

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.

        A metric built from a function that no longer exists is left out
        (the function is listed in `missing`), never reported as zero.
        """
        calls, own = self.totals()
        out: dict[str, tuple[float, str]] = {}

        def have(*names: str) -> bool:
            return all(n in calls for n in names)

        def put(metric: str, *names: str, stat: str):
            if not have(*names):
                return
            if stat == "calls":
                out[metric] = (sum(calls[n] for n in names), "count")
            else:
                out[metric] = (sum(own[n] for n in names) * 1000.0, "ms")

        put("kernels.filter_models.calls", "kernels.filter_models", stat="calls")
        put("kernels.filter_models.self_ms", "kernels.filter_models", stat="self")
        if have("kernels.filter_models"):
            out["kernels.filter_models.cells"] = (self.cells, "count")
        closures = ("kernels.pair_closure", "kernels.triple_closure")
        put("kernels.closure.calls", *closures, stat="calls")
        put("kernels.closure.self_ms", *closures, stat="self")
        put("formulas.models_mask.calls", "formulas.models_mask", stat="calls")
        put("formulas.models_mask.self_ms", "formulas.models_mask", stat="self")
        if have("formulas.models_mask"):
            out["formulas.models_mask.max_log2_space"] = (self.max_log2_space, "log2")
        put("relations.relation_properties.calls", "relations.relation_properties", stat="calls")
        put("relations.relation_properties.self_ms", "relations.relation_properties", stat="self")
        if have("relations.relation_properties"):
            out["relations.relation_properties.distinct"] = (
                len(self.distinct_relations),
                "count",
            )
        for fn in ("is_consistent", "entails", "cnf_of"):
            put(f"logic.{fn}.calls", f"logic.{fn}", stat="calls")
            put(f"logic.{fn}.self_ms", f"logic.{fn}", stat="self")
        for fn in TRACED["argumentation"]:
            put(f"argumentation.{fn}.self_ms", f"argumentation.{fn}", stat="self")
        if have(*ORACLES):
            out["argumentation.oracle_calls_per_op"] = (
                sum(calls[n] for n in ORACLES) / n_ops,
                "count/op",
            )
        put("expressibility.express.self_ms", "expressibility.express", stat="self")
        put(
            "expressibility.verify_expresses.self_ms",
            "expressibility.verify_expresses",
            stat="self",
        )
        put("reductions.reduce.self_ms", "reductions.reduce", stat="self")
        put("reductions.solve_source.self_ms", "reductions.solve_source", stat="self")
        return out

    def write_spans(self, path: Path):
        """Spans as gzip'd TSV: function, parent span, start and end (s)."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt") as out:
            out.write("fn\tparent\tstart_s\tend_s\n")
            for fn_id, parent, start, end in zip(
                self.span_fn, self.span_parent, self.span_start, self.span_end
            ):
                out.write(
                    f"{self.names[fn_id]}\t{parent}\t{start - origin:.9f}\t{end - origin:.9f}\n"
                )
