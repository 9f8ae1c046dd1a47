"""Benchmark-side tracing: wrap finemw's layer functions and time them from outside.

Each wrapped call records one span (name, start, end, parent span, module id,
attributes) in memory; nothing inside ``finemw`` changes.  A layer's self
time is its span minus the spans of its direct children; calls are strictly
nested because a command runs on one thread.

Some functions are bound in more than one module, so every binding site a
command can reach is wrapped: ``weierstrass_divide`` is imported by name into
``presentations`` (and ``oracle``), ``verify_finite_quotients`` into ``cli``,
and ``snf_int64`` / ``_run_python`` are looked up on their modules by
``_level_smith`` at call time.  ``padics`` gets no wrapper: its scalar calls
would dominate a traced run, so its cost shows up as self time of the Python
engine and of expansion.
"""

from __future__ import annotations

import functools
import json
import time

# (owner path, attribute, span name) for every binding site wrapped.
BINDINGS = (
    ("_kernels", "snf_int64", "snf.int64"),
    ("snf", "snf_int64", "snf.int64"),
    ("snf", "_run_python", "snf.python"),
    ("presentations", "_level_smith", "presentations.level_smith"),
    ("presentations.FinLevelModule", "matrix_int64", "presentations.expand"),
    ("presentations.FinLevelModule", "matrix_coords", "presentations.expand"),
    ("presentations", "component_ranks_against", "presentations.component_ranks"),
    ("polynomials", "weierstrass_divide", "polynomials.weierstrass"),
    ("presentations", "weierstrass_divide", "polynomials.weierstrass"),
    ("oracle", "weierstrass_divide", "polynomials.weierstrass"),
    ("structure.StructureAnalysis", "classify", "structure.classify"),
    ("structure", "verify_finite_quotients", "structure.verify_fq"),
    ("cli", "verify_finite_quotients", "structure.verify_fq"),
    ("structure", "_selector_columns", "structure.span_closure"),
    ("structure._TorsionSpan", "add", "structure.span_add"),
    ("cli", "_load_presentation", "cli.parse"),
    ("cli", "_emit", "cli.emit"),
)

# Counts that must repeat exactly between two traced passes over the same inputs.
DETERMINISTIC = (
    "snf.int64_calls", "snf.int64_tracked_calls", "snf.int64_ops", "snf.python_calls",
    "snf.python_ops", "presentations.reductions_per_level",
    "presentations.component_reductions", "polynomials.weierstrass_calls",
    "structure.span_vectors",
)


def elimination_ops(rows: int, cols: int, rank: int) -> int:
    """sum_{k < rank} (R - k)(C - k): entries touched by dense elimination."""
    return sum((rows - k) * (cols - k) for k in range(rank))


def _pivots(exponents):
    unit = sum(1 for e in exponents if e == 0)
    return unit, len(exponents) - unit


def _int64_attrs(args, kwargs, result):
    rows, cols = args[0].shape
    exponents = result[0]
    unit, deep = _pivots(exponents)
    return {"rows": rows, "cols": cols, "tracked": int(args[3]) >= 1,
            "ops": elimination_ops(rows, cols, len(exponents)), "unit": unit, "deep": deep}


def _python_attrs(args, kwargs, result):
    unit, deep = _pivots(result.exponents)
    return {"rows": result.nrows, "cols": result.ncols,
            "ops": elimination_ops(result.nrows, result.ncols, result.rank),
            "unit": unit, "deep": deep}


def _level_smith_attrs(args, kwargs, result):
    fin = args[0]
    extra = kwargs.get("extra_columns", args[1] if len(args) > 1 else ())
    return {"level": fin.level, "component": fin.component, "extra": len(tuple(extra)),
            "reduced": result.precision_used < fin.ring.precision_exponent}


def _expand_attrs(args, kwargs, result):
    if hasattr(result, "size"):
        return {"entries": int(result.size)}
    return {"entries": len(result) * (len(result[0]) if result else 0)}


ATTRS = {
    "snf.int64": _int64_attrs,
    "snf.python": _python_attrs,
    "presentations.level_smith": _level_smith_attrs,
    "presentations.expand": _expand_attrs,
}


class Tracer:
    """Installs span-recording wrappers on finemw and restores the originals."""

    def __init__(self, finemw):
        self.finemw = finemw
        self.spans = []  # [name, start, end, parent index, module id, attrs]
        self.stack = []
        self.module_id = None
        self.missing = []  # binding sites that no longer exist
        self._patches = []

    def _owner(self, path):
        owner = self.finemw
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        return owner

    def install(self):
        for path, attr, name in BINDINGS:
            owner = self._owner(path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _open(self, name):
        span = [name, time.perf_counter(), None,
                self.stack[-1] if self.stack else -1, self.module_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, original, name):
        tracer = self
        attrs = ATTRS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def command(self, module_id, run):
        """Run one CLI command as a root span; returns what ``run`` returns."""
        self.module_id = module_id
        span = self._open("command")
        try:
            return run()
        finally:
            self._close(span)
            self.module_id = None

    def write(self, path):
        """Write the spans as JSON lines, one per span, in start order."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, module_id, attrs) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                         "parent": parent, "module": module_id,
                                         "attrs": attrs}, sort_keys=True) + "\n")


def layer_metrics(spans, base: int, modules: int, levels: int):
    """Per-layer numbers for one traced pass.

    ``spans`` are the pass's spans and ``base`` the tracer index of the
    first one (parent links are tracer indices).  Returns the metrics as
    name -> (value, unit) and the call count per span name.  Layer times are
    inclusive, except ``expand_s`` and ``verify_fq_s``, which are self times
    (their Weierstrass divisions and Smith reductions are reported apart).
    """
    durations = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3] - base] += durations[i]
            children[s[3] - base].append(i)
    total = {}
    own = {}
    calls = {}
    for i, s in enumerate(spans):
        total[s[0]] = total.get(s[0], 0.0) + durations[i]
        own[s[0]] = own.get(s[0], 0.0) + durations[i] - child_time[i]
        calls[s[0]] = calls.get(s[0], 0) + 1

    def attr_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5] is not None)

    def names_below(i):
        return {spans[c][0] for c in children[i]}

    int64_calls = calls.get("snf.int64", 0)
    int64_s = total.get("snf.int64", 0.0)
    int64_ops = attr_sum("snf.int64", "ops")
    smith = [i for i, s in enumerate(spans) if s[0] == "presentations.level_smith"]
    fallbacks = sum(1 for i in smith if {"snf.int64", "snf.python"} <= names_below(i))
    reduced = sum(1 for i in smith if spans[i][5] and spans[i][5]["reduced"])
    level_reductions = sum(1 for i in smith if spans[i][5] and spans[i][5]["component"] is None
                           and spans[i][5]["extra"] == 0)
    component_reductions = sum(1 for i in smith if spans[i][5]
                               and spans[i][5]["component"] is not None)
    return {
        "snf.int64_kernel_s": (int64_s, "s"),
        "snf.int64_calls": (int64_calls, "count"),
        "snf.int64_tracked_calls": (attr_sum("snf.int64", "tracked"), "count"),
        "snf.int64_ops": (int64_ops, "count"),
        "snf.int64_ops_per_s": (int64_ops / int64_s if int64_s else 0.0, "1/s"),
        "snf.python_engine_s": (total.get("snf.python", 0.0), "s"),
        "snf.python_calls": (calls.get("snf.python", 0), "count"),
        "snf.python_ops": (attr_sum("snf.python", "ops"), "count"),
        "snf.fallback_reruns": (fallbacks, "count"),
        "snf.fallback_ratio": (fallbacks / int64_calls if int64_calls else 0.0, "share"),
        "snf.reduced_precision_share": (reduced / len(smith) if smith else 0.0, "share"),
        "snf.pivots_unit": (attr_sum("snf.int64", "unit") + attr_sum("snf.python", "unit"),
                            "count"),
        "snf.pivots_deep": (attr_sum("snf.int64", "deep") + attr_sum("snf.python", "deep"),
                            "count"),
        "presentations.expand_s": (own.get("presentations.expand", 0.0), "s"),
        "presentations.expanded_entries": (attr_sum("presentations.expand", "entries"),
                                           "count"),
        "presentations.reductions_per_level": (level_reductions / (modules * levels),
                                               "count/level"),
        "presentations.component_reductions": (component_reductions, "count"),
        "presentations.component_ranks_s": (total.get("presentations.component_ranks", 0.0),
                                            "s"),
        "polynomials.weierstrass_s": (total.get("polynomials.weierstrass", 0.0), "s"),
        "polynomials.weierstrass_calls": (calls.get("polynomials.weierstrass", 0), "count"),
        "structure.classify_s": (total.get("structure.classify", 0.0), "s"),
        "structure.verify_fq_s": (own.get("structure.verify_fq", 0.0), "s"),
        "structure.span_closure_s": (total.get("structure.span_closure", 0.0), "s"),
        "structure.span_vectors": (calls.get("structure.span_add", 0), "count"),
        "cli.parse_s": (total.get("cli.parse", 0.0), "s"),
        "cli.emit_s": (total.get("cli.emit", 0.0), "s"),
        "trace.wall_s": (total.get("command", 0.0), "s"),
    }, calls
