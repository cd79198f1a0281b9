"""Per-layer tracing for the benchmark.

``Tracer.install`` rebinds each function in ``LAYER_FUNCTIONS`` to a
recording wrapper in every ``blcalc`` module namespace that holds it, so
calls between modules are recorded as well as the benchmark's own calls.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

A span is one activation of a wrapped function.  Its self time is its
duration minus the part covered by wrapped callees.  Spans are not stored one
per call: every function keeps running totals, and all but the hot leaf
functions in ``AGGREGATE_ONLY`` also keep totals per query id, so memory
stays bounded by functions times queries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYER_FUNCTIONS = (
    "core.chain_op",
    "core.check_axioms",
    "decompose.flatten",
    "decompose.decompose",
    "dsl.parse_chain",
    "dsl.parse_class_expr",
    "maps.enumerate_embeddings",
    "classes.member",
    "classes.match_assignments",
    "classes.witness_basis",
    "classes.class_includes",
    "classes.vfc_membership",
    "classes.vfc_equals",
    "amalgam.universe_chains",
    "amalgam.spans_commute",
    "amalgam.find_amalgam_bruteforce",
    "amalgam.amalgamate_constructive",
    "classify.enumerate_catalog",
    "classify.classify_ap_bh",
    "classify.classify_ap_bl",
    "formulas.consequence",
    "formulas.find_interpolant",
    "formulas.closure_size",
    "cli.main",
)

# Called up to millions of times per pass; a per-query record would cost
# more than the call.
AGGREGATE_ONLY = frozenset({"core.chain_op", "classes.member", "classes.match_assignments"})

# Result-derived work counts: metric field -> how a result adds to it.
_ITEM_FIELDS = {
    "amalgam.universe_chains": "chains",
    "maps.enumerate_embeddings": "results",
}

# The per-layer metrics the traced run reports, with units.  Each should move
# the end-to-end metric named in bench/README.md on the workload named there.
PER_LAYER = (
    ("core.chain_op", ("calls", "self_s")),
    ("formulas.find_interpolant", ("self_s",)),
    ("formulas.closure_size", ("self_s",)),
    ("formulas.consequence", ("calls", "self_s")),
    ("amalgam.universe_chains", ("calls", "chains", "self_s", "total_s")),
    ("classes.member", ("calls", "self_s")),
    ("classes.match_assignments", ("calls",)),
    ("maps.enumerate_embeddings", ("calls", "results", "self_s")),
    ("amalgam.spans_commute", ("calls", "hit_ratio")),
    ("amalgam.find_amalgam_bruteforce", ("self_s", "total_s")),
    ("amalgam.amalgamate_constructive", ("self_s",)),
    ("classify.enumerate_catalog", ("self_s",)),
    ("classes.class_includes", ("calls", "self_s")),
    ("classes.witness_basis", ("self_s",)),
    ("classify.classify_ap_bl", ("self_s",)),
    ("classify.classify_ap_bh", ("self_s",)),
    ("classes.vfc_equals", ("calls", "self_s")),
    ("classes.vfc_membership", ("calls",)),
    ("core.check_axioms", ("self_s",)),
    ("decompose.flatten", ("self_s",)),
    ("decompose.decompose", ("self_s",)),
    ("dsl.parse_chain", ("self_s",)),
    ("dsl.parse_class_expr", ("self_s",)),
    ("cli.main", ("self_s",)),
)
UNITS = {
    "calls": "count",
    "chains": "count",
    "results": "count",
    "self_s": "s",
    "total_s": "s",
    "hit_ratio": "ratio",
}
OVERHEAD_METRIC = ("trace_overhead_ratio", "ratio")


def per_layer_names() -> list:
    """Names and units of every per-layer metric, in report order."""
    names = [(f"{fn}.{field}", UNITS[field]) for fn, fields in PER_LAYER for field in fields]
    return names + [OVERHEAD_METRIC]


class Stat:
    """Running totals for one wrapped function."""

    __slots__ = ("calls", "self_s", "total_s", "depth", "items", "hits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0  # outermost activations only, so recursion is not double counted
        self.depth = 0
        self.items = 0
        self.hits = 0

    def field(self, name: str) -> float:
        if name in ("chains", "results"):
            return self.items
        if name == "hit_ratio":
            return self.hits / self.calls if self.calls else 0.0
        return getattr(self, name)

    def to_json(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "total_s": self.total_s,
                "items": self.items, "hits": self.hits}


class Tracer:
    """Records spans of the layer functions while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.query_id = None
        self.stats = {name: Stat() for name in LAYER_FUNCTIONS}
        self.per_query = {}  # query id -> function -> [calls, self_s]
        self._stack = []  # [stat, name, start, child time] per open span
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name in LAYER_FUNCTIONS:
            importlib.import_module("blcalc." + name.split(".")[0])
        modules = [m for n, m in sys.modules.items() if n == "blcalc" or n.startswith("blcalc.")]
        for name in LAYER_FUNCTIONS:
            mod, attr = name.split(".")
            original = getattr(sys.modules["blcalc." + mod], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._undo):
            setattr(m, key, original)
        self._undo.clear()

    # -- spans --------------------------------------------------------------

    def _enter(self, stat: Stat, name: str) -> None:
        stat.depth += 1
        self._stack.append([stat, name, perf_counter(), 0.0])

    def _exit(self) -> None:
        stat, name, start, child = self._stack.pop()
        elapsed = perf_counter() - start
        stat.self_s += elapsed - child
        stat.depth -= 1
        if stat.depth == 0:
            stat.total_s += elapsed
        if self._stack:
            self._stack[-1][3] += elapsed
        if name not in AGGREGATE_ONLY:
            rec = self.per_query.setdefault(self.query_id, {}).setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += elapsed - child

    def _wrap(self, name: str, fn):
        tracer = self
        stat = self.stats[name]
        item_field = _ITEM_FIELDS.get(name)
        count_hits = name == "amalgam.spans_commute"

        if inspect.isgeneratorfunction(fn):
            # Each resumption is one span, so the consumer's work between
            # items is not charged to the generator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not tracer.active:
                    yield from it
                    return
                stat.calls += 1
                while True:
                    tracer._enter(stat, name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stat.calls += 1
            tracer._enter(stat, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if item_field:
                stat.items += len(result)
            if count_hits and result:
                stat.hits += 1
            return result

        return wrapper

    # -- reporting ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values (without the overhead ratio)."""
        return {
            f"{fn}.{field}": self.stats[fn].field(field)
            for fn, fields in PER_LAYER
            for field in fields
        }

    def to_json(self) -> dict:
        return {
            "functions": {name: s.to_json() for name, s in self.stats.items()},
            "aggregate_only": sorted(AGGREGATE_ONLY),
            "queries": [
                {"query": qid, "spans": {fn: {"calls": c, "self_s": t} for fn, (c, t) in spans.items()}}
                for qid, spans in self.per_query.items()
            ],
        }
