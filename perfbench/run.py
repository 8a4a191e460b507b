"""The repo benchmark: four SESQL workloads, one closed-loop client.

Run from the root of a checkout::

    python3 perfbench/run.py --workload select-enrich --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), checks every shape's answer against the sqlite oracle, then
runs the workload's op mix for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` sets up once, runs a fixed number of ops with
wrappers on each layer's public calls, then the same number of further
ops without them (for ``trace.overhead_frac``), and reports the
per-layer metrics.  Every op's row count is checked against the
oracle's; the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Independent set-ups per ``--trace 0`` run; setup_s is their median.
SETUP_REPEATS = 3
#: Traced blocks per workload for a 20 s run, scaled with --seconds;
#: half as many untraced blocks are interleaved with them.
TRACE_BLOCKS_20S = {"select-enrich": 14, "where-enrich": 8,
                    "crowd-rest": 70, "federated-refresh": 140}
#: Medians of this many sqlite runs give ref.sqlite3_sql_ms per shape.
SQLITE_REPEATS = 5


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Recorder:
    """Latencies and failures of one pass over ops."""

    def __init__(self) -> None:
        self.reads: list[float] = []
        self.writes: list[float] = []
        self.after_write: list[float] = []
        self.by_shape: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        #: Throughput of each block run, in ops per busy second.
        self.block_rates: list[float] = []
        self.first_error: str | None = None

    def run(self, workload, ops, call=None) -> None:
        """Execute one block of *ops* in order; *call(fn, kind)* wraps
        each op (tracing)."""
        previous_was_write = False
        busy_before, ok_before = self.busy, len(self.reads) + len(self.writes)
        for op in ops:
            expected = (workload.expected_rows(op) if op.kind == "read"
                        else None)
            started = time.perf_counter()
            try:
                if call is None:
                    got = workload.execute(op)
                else:
                    kind = ("read_after_write" if previous_was_write
                            and op.kind == "read" else op.kind)
                    if op.shape is not None:
                        kind = f"{kind}:{op.shape.name}"
                    got = call(lambda: workload.execute(op), kind)
                error = None
            except Exception:
                got, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - started
            self.attempted += 1
            if error is None and op.kind == "read" and got != expected:
                error = (f"{op.shape.name}: {got} rows, "
                         f"oracle says {expected}")
            if error is not None:
                self.failed += 1
                self.first_error = self.first_error or error
            else:
                self.busy += elapsed
                if op.kind == "write":
                    self.writes.append(elapsed)
                else:
                    self.reads.append(elapsed)
                    self.by_shape.setdefault(op.shape.name, []).append(
                        elapsed)
                    if previous_was_write:
                        self.after_write.append(elapsed)
            if op.kind == "write":
                workload.after_write(op)
            previous_was_write = op.kind == "write"
        if self.busy > busy_before:
            self.block_rates.append(
                (len(self.reads) + len(self.writes) - ok_before)
                / (self.busy - busy_before))


def timed_pass(workload, blocks, seconds: float) -> Recorder:
    """Whole blocks until *seconds* of wall time have passed."""
    recorder = Recorder()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        recorder.run(workload, next(blocks))
    return recorder


def end_to_end(recorder: Recorder, setup_times: list[float]) -> dict:
    ms = 1000.0
    medians = [statistics.median(times)
               for times in recorder.by_shape.values()]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        # The median block: one stall on a shared machine moves a mean
        # over the run, not the median.
        "throughput_ops_s": (statistics.median(recorder.block_rates),
                             "1/s"),
        "query_p50_ms": (statistics.median(recorder.reads) * ms, "ms"),
        "query_p95_ms": (percentile(recorder.reads, 0.95) * ms, "ms"),
        "shape_geomean_ms": (geomean(medians) * ms, "ms"),
        "write_p50_ms": (statistics.median(recorder.writes) * ms, "ms"),
        "write_p95_ms": (percentile(recorder.writes, 0.95) * ms, "ms"),
        "read_after_write_p50_ms": (
            statistics.median(recorder.after_write) * ms, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def rows_examined_per_result(workload) -> float:
    """Geometric mean over shapes of (rows produced by all operators) /
    (rows of the result), from EXPLAIN ANALYZE actual rows."""
    from shapes import SHAPES
    ratios = []
    for name in workload.shapes:
        nodes = workload.explain(SHAPES[name]).operators()
        produced = sum(node.actual_rows or 0 for node in nodes)
        result = nodes[0].actual_rows or 0
        ratios.append(max(produced, 1) / max(result, 1))
    return geomean(ratios)


def sqlite_reference_ms(workload) -> float:
    """Geometric mean over shapes of sqlite's median time for the SQL
    part (with the WHERE semantics), as an outside reference point."""
    from shapes import SHAPES
    medians = []
    for name in workload.shapes:
        shape = SHAPES[name]
        times = []
        for _ in range(SQLITE_REPEATS):
            started = time.perf_counter()
            workload.oracle.sql_rows(shape, workload.kb_index,
                                     shape.canonical_value)
            times.append(time.perf_counter() - started)
        medians.append(statistics.median(times))
    return geomean(medians) * 1000.0


def per_layer(workload, blocks, seconds: float, out_dir: str, tag: str):
    from tracing import LAYERS, Tracer, src_lines
    count = max(2, round(TRACE_BLOCKS_20S[workload.name] * seconds / 20))
    tracer = Tracer()
    traced, plain = Recorder(), Recorder()
    op_ids = itertools.count()
    traced_call = (lambda fn, kind: tracer.op(next(op_ids), fn, kind))
    n_ops = 0
    # Two traced blocks, then an untraced one: drift during the run
    # cannot pass for tracing overhead, and a period of three blocks
    # keeps periodic work (a WAL group commit every 64 records) from
    # always landing in the untraced blocks.
    for index in range(count):
        block = next(blocks)
        n_ops += len(block)
        tracer.install()
        try:
            traced.run(workload, block, call=traced_call)
        finally:
            tracer.uninstall()
        if index % 2 == 1:
            plain.run(workload, next(blocks))
    self_time, wall = tracer.fold()
    inclusive = tracer.inclusive()
    tracer.dump(os.path.join(out_dir, f"spans-{tag}.json"))
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (counts[f"{layer}.calls"] / n_ops,
                                     "calls/op")
        metrics[f"{layer}.self_ms"] = (
            self_time.get(layer, 0.0) * 1000.0 / n_ops, "ms/op")
        metrics[f"{layer}.incl_ms"] = (
            inclusive.get(layer, 0.0) * 1000.0 / n_ops, "ms/op")
    metrics["other.self_ms"] = (self_time.get("other", 0.0) * 1000.0 / n_ops,
                                "ms/op")
    ratio = (lambda hits, total:
             counts[hits] / counts[total] if counts[total] else 0.0)
    metrics["api.plan_cache_hit_ratio"] = (
        ratio("api.plan_cache_hits", "api.plan_cache_lookups"), "ratio")
    metrics["sqm.extraction_cache_hit_ratio"] = (
        ratio("sqm.extraction_cache_hits", "sqm.extractions"), "ratio")
    metrics["federation.fragment_cache_hit_ratio"] = (
        ratio("federation.fragment_cache_hits",
              "federation.fragments_shipped"), "ratio")
    for key in ("sparql.executions", "sparql.solutions",
                "rdf.triples_loaded", "crosse.effective_kb_rebuilds",
                "enrichment.temp_rows", "relational.rows_out",
                "relational.vectorized_fallbacks",
                "join_manager.rows_materialized", "join_manager.rows_out",
                "rest.rows_serialized", "federation.fragments_shipped",
                "federation.rows_shipped", "durability.wal_records",
                "durability.wal_bytes", "durability.fsyncs"):
        metrics[key] = (counts[key], "count")
    metrics["trace.ops"] = (n_ops, "count")
    metrics["trace.overhead_frac"] = (
        (traced.busy / max(len(traced.reads) + len(traced.writes), 1))
        / (plain.busy / max(len(plain.reads) + len(plain.writes), 1)) - 1.0,
        "ratio")
    metrics["relational.rows_examined_per_result"] = (
        rows_examined_per_result(workload), "rows/row")
    metrics["ref.sqlite3_sql_ms"] = (sqlite_reference_ms(workload), "ms")
    for layer, lines in src_lines(os.path.join(SRC, "repro")).items():
        metrics[f"{layer}.src_lines"] = (lines, "lines")
    attributed = sum(self_time.values())
    consistent = abs(attributed - wall) <= 1e-6 * max(wall, 1e-9) + 1e-9
    return metrics, [traced, plain], consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_dir, exist_ok=True)

    setup_times = []
    workload = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        started = time.perf_counter()
        workload = cls(args.seed, work_dir)
        setup_times.append(time.perf_counter() - started)
    try:
        workload.attach_oracle()
        problems = workload.verify()
        for problem in problems:
            print(f"oracle mismatch: {problem}", file=sys.stderr)
        blocks = workload.blocks(random.Random(args.seed * 7919 + 1))
        if args.trace:
            metrics, recorders, consistent = per_layer(
                workload, blocks, args.seconds, work_dir,
                f"{args.workload}-seed{args.seed}")
            if not consistent:
                problems.append("layer self times do not sum to wall time")
        else:
            recorder = timed_pass(workload, blocks, args.seconds)
            recorders = [recorder]
            metrics = end_to_end(recorder, setup_times)
    finally:
        workload.close()

    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    for recorder in recorders:
        if recorder.first_error:
            print(f"first failed op:\n{recorder.first_error}",
                  file=sys.stderr)
    reads = sum(len(r.reads) for r in recorders)
    writes = sum(len(r.writes) for r in recorders)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops "
          f"({reads} reads, {writes} writes ok), failed_frac "
          f"{failed / attempted:.4f}, oracle "
          f"{'ok' if not problems else 'MISMATCH'}")
    for recorder in recorders:
        for shape, times in sorted(recorder.by_shape.items()):
            print(f"  median {shape:33s} "
                  f"{statistics.median(times) * 1000:14.4f} ms over "
                  f"{len(times)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
