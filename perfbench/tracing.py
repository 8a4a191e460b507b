"""Outside-in tracing: spans around calls into each layer's public API.

The traced run installs wrappers on the classes (and one module
function) listed in ``LAYERS``; nothing under ``src/`` changes.  Each
span records its name, start, end, parent span and op id.  Spans are
kept in memory and folded once the run ends: a span's self time is its
duration minus its children's durations, so the layers' self times
plus the benchmark's own op spans (``other``) add up to the traced wall
time exactly.

Only calls on the client thread are timed.  Calls made on the
federation executor's worker threads are counted but not timed: they
run inside ``FederationExecutor.ship``, whose span already covers them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import Counter

from repro.relational.result import Cursor, ResultSet

from breakdown import fold

_TRACED = "_perfbench_traced"


# -- observers: counts recorded at the layer boundaries -----------------------

def _prepare(tracer, args, kwargs, result, before):
    tracer.count("api.plan_cache_lookups")
    if result.from_cache:
        tracer.count("api.plan_cache_hits")


def _sparql_before(tracer, args):
    return tracer.counts["sparql.executions"]


def _extraction(tracer, args, kwargs, result, before):
    tracer.count("sqm.extractions")
    if tracer.counts["sparql.executions"] == before:
        tracer.count("sqm.extraction_cache_hits")


def _select(tracer, args, kwargs, result, before):
    tracer.count("sparql.executions")
    tracer.count("sparql.solutions", len(result))


def _add_all(tracer, args, kwargs, result, before):
    tracer.count("rdf.triples_loaded", result)


def _add_all_before(tracer, args):
    return tracer.counts["rdf.calls"]


def _effective_kb(tracer, args, kwargs, result, before):
    if tracer.counts["rdf.calls"] != before:
        tracer.count("crosse.effective_kb_rebuilds")


def _where_rewrites(tracer, args, kwargs, result, before):
    plan = args[2]
    tracer.count("enrichment.temp_rows",
                 sum(len(x.values) + len(x.pairs) for _e, x in plan))


def _execute_ast(tracer, args, kwargs, result, before):
    if isinstance(result, ResultSet):
        tracer.count("relational.rows_out", len(result))
        tracer.count("relational.vectorized_fallbacks",
                     len(args[0].last_vectorized_fallbacks))


def _stream_ast(tracer, args, kwargs, result, before):
    result.__dict__[_TRACED] = True
    tracer.count("relational.vectorized_fallbacks",
                 len(args[0].last_vectorized_fallbacks))


def _fetch(tracer, args, kwargs, result, before):
    if isinstance(result, list):
        tracer.count("relational.rows_out", len(result))
    elif result is not None:
        tracer.count("relational.rows_out")


def _combine(tracer, args, kwargs, result, before):
    result = getattr(result, "result", result)   # CombineOutcome
    tracer.count("join_manager.rows_out", len(result))


def _store_result(tracer, args, kwargs, result, before):
    tracer.count("join_manager.rows_materialized", len(args[2]))


def _store_first(tracer, args, kwargs, result, before):
    tracer.count("join_manager.rows_materialized", len(args[1]))


def _rest(tracer, args, kwargs, result, before):
    payload = result.payload
    if isinstance(payload, dict) and "rows" in payload:
        tracer.count("rest.rows_serialized", len(payload["rows"]))


def _ship(tracer, args, kwargs, result, before):
    tracer.count("federation.fragments_shipped", len(args[1]))
    for outcomes in result.values():
        for outcome in outcomes:
            if outcome.cached:
                tracer.count("federation.fragment_cache_hits")
            elif outcome.result is not None:
                tracer.count("federation.rows_shipped", len(outcome.result))


def _wal_append(tracer, args, kwargs, result, before):
    tracer.count("durability.wal_records")


def _wal_size(writer):
    return os.path.getsize(writer.path) if os.path.exists(writer.path) else 0


def _flush_before(tracer, args):
    return _wal_size(args[0])


def _wal_flush(tracer, args, kwargs, result, before):
    tracer.count("durability.wal_bytes", _wal_size(args[0]) - before)
    if kwargs.get("sync", args[1] if len(args) > 1 else False):
        tracer.count("durability.fsyncs")


#: layer -> [(module, class or None for a module function, attribute,
#:            observer, pre-call hook)].  A pre-call hook's return value
#: reaches the observer as *before*.
LAYERS = {
    "api": [
        ("repro.api.session", "Session", "prepare", _prepare, None),
        ("repro.api.pool", "SessionPool", "checkout", None, None)],
    "analysis": [
        ("repro.api.session", None, "analyze_enriched", None, None)],
    "sqp": [
        ("repro.core.sqp", "SemanticQueryParser", "parse", None, None)],
    "sqm": [
        ("repro.core.sqm", "SemanticQueryModule", method, _extraction,
         _sparql_before)
        for method in ("pairs_for", "values_for", "subjects_for")],
    "sparql": [
        ("repro.sparql.evaluator", "Evaluator", "select", _select, None)],
    "rdf": [
        ("repro.rdf.store", "TripleStore", "add_all", _add_all, None)],
    "crosse": [
        ("repro.crosse.kb", "KnowledgeBaseStore", "effective_kb",
         _effective_kb, _add_all_before),
        ("repro.crosse.platform", "CrossePlatform", "annotate_free",
         None, None),
        ("repro.crosse.platform", "CrossePlatform", "accept_statement",
         None, None)],
    "enrichment": [
        ("repro.core.engine", "SESQLEngine", "apply_where_rewrites",
         _where_rewrites, None)],
    "relational": [
        ("repro.relational.engine", "Database", "execute_ast",
         _execute_ast, None),
        ("repro.relational.engine", "Database", "stream_ast",
         _stream_ast, None)],
    "join_manager": [
        ("repro.core.join_manager", "JoinManager", "combine", _combine,
         None),
        ("repro.core.join_manager", "JoinManager", "prepare", None, None),
        ("repro.core.join_manager", "PreparedPairCombine", "combine",
         _combine, None),
        ("repro.core.join_manager", "PreparedFlagCombine", "combine",
         _combine, None),
        ("repro.core.tempdb", "TemporarySupportDatabase", "store_result",
         _store_result, None),
        ("repro.core.tempdb", "TemporarySupportDatabase", "store_pairs",
         _store_first, None),
        ("repro.core.tempdb", "TemporarySupportDatabase", "store_values",
         _store_first, None)],
    "rest": [
        ("repro.federation.rest", "CrosseRestService", "request", _rest,
         None)],
    "federation": [
        ("repro.federation.executor", "FederationExecutor", "ship", _ship,
         None),
        ("repro.federation.databank", "MediatedDatabank", "execute_ast",
         None, None),
        ("repro.federation.databank", "MediatedDatabank", "refresh", None,
         None)],
    "durability": [
        ("repro.durability.wal", "WalWriter", "append", _wal_append, None),
        ("repro.durability.wal", "WalWriter", "flush", _wal_flush,
         _flush_before)],
}

#: Source modules of each layer (paths under src/repro), for src_lines.
LAYER_MODULES = {
    "api": ["api/session.py", "api/prepared.py", "api/cache.py",
            "api/pool.py"],
    "analysis": ["analysis/"],
    "sqp": ["core/sqp.py", "core/parser.py", "core/condtags.py"],
    "sqm": ["core/sqm.py", "core/stored_queries.py"],
    "sparql": ["sparql/"],
    "rdf": ["rdf/"],
    "crosse": ["crosse/"],
    "enrichment": ["core/enrichment.py"],
    "relational": ["relational/", "planner/"],
    "join_manager": ["core/join_manager.py", "core/tempdb.py"],
    "rest": ["federation/rest.py"],
    "federation": ["federation/mediator.py", "federation/executor.py",
                   "federation/databank.py"],
    "durability": ["durability/"],
}
_EXCLUDED_MODULES = {"analysis/archlint.py"}


def src_lines(src_root: str) -> dict[str, int]:
    """Line count of each layer's modules."""
    lines = {}
    for layer, entries in LAYER_MODULES.items():
        paths = []
        for entry in entries:
            if entry.endswith("/"):
                folder = os.path.join(src_root, entry)
                paths += [entry + name for name in sorted(os.listdir(folder))
                          if name.endswith(".py")]
            else:
                paths.append(entry)
        total = 0
        for path in paths:
            if path in _EXCLUDED_MODULES:
                continue
            with open(os.path.join(src_root, path), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
        lines[layer] = total
    return lines


class Tracer:
    """Span recorder; ``install()`` wraps every target in ``LAYERS``."""

    def __init__(self) -> None:
        #: [name, layer, start, end, parent index, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._client = threading.get_ident()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self.op_id = -1

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent,
                           self.op_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def op(self, op_id: int, call, kind: str):
        """Run *call* as op *op_id*: the root span all layers nest in,
        named after the op's *kind* (``write``, or ``read`` /
        ``read_after_write`` followed by ``:<shape>``)."""
        self.op_id = op_id
        index = self._open(kind, "other")
        try:
            return call()
        finally:
            self._close(index)

    # -- wrappers -------------------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module_name, class_name, attr, observe, before in targets:
                module = importlib.import_module(module_name)
                owner = module if class_name is None \
                    else getattr(module, class_name)
                self._patch(owner, attr, layer, observe, before)
        for attr in ("fetchone", "fetchmany", "fetchall"):
            self._patch(Cursor, attr, "relational", _fetch, None,
                        only_traced=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, layer, observe, before,
               only_traced=False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if only_traced and not args[0].__dict__.get(_TRACED):
                return original(*args, **kwargs)
            tracer.count(f"{layer}.calls")
            ctx = None if before is None else before(tracer, args)
            if threading.get_ident() != tracer._client:
                result = original(*args, **kwargs)
            else:
                index = tracer._open(name, layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
            if observe is not None:
                observe(tracer, args, kwargs, result, ctx)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- folding --------------------------------------------------------------

    def fold(self) -> tuple[dict[str, float], float]:
        """Self seconds per layer (``other`` = the benchmark's own op
        spans) and the traced wall time (sum of op spans)."""
        self_time, durations = fold(self.spans)[""]
        return self_time, sum(durations)

    def inclusive(self) -> dict[str, float]:
        """Seconds per layer inside its outermost spans (children of
        other layers included), e.g. the whole JoinManager combine."""
        totals: dict[str, float] = {}
        for name, layer, start, end, parent, _op in self.spans:
            while parent is not None and self.spans[parent][1] != layer:
                parent = self.spans[parent][4]
            if parent is None:
                totals[layer] = totals.get(layer, 0.0) + end - start
        return totals

    def dump(self, path: str) -> None:
        """Write the spans out (one JSON list per span)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end",
                                  "parent", "op"],
                       "spans": self.spans}, fh)
