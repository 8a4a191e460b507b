"""Smoke-size self-test of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

It shrinks every workload, runs it untraced and traced in-process, and
checks that every metric named in BENCHMARK.json is emitted, that two
traced runs on one seed give identical counts, and that the oracle
rejects perturbed answers.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from shapes import SHAPES, mismatch  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

SMOKE_SIZES = {
    workloads.SelectEnrich: {"N_LANDFILLS": 60},
    workloads.WhereEnrich: {"N_LANDFILLS": 8, "BLOCK_OPS": 40},
    workloads.CrowdRest: {"N_LANDFILLS": 40, "PERSONAL": 50},
    workloads.FederatedRefresh: {"N_LANDFILLS": 40},
}
#: Metrics a run measures as time; everything else must repeat exactly.
TIMED_UNITS = {"ms", "ms/op", "s", "1/s", "MB"}


@pytest.fixture(autouse=True)
def smoke_size(monkeypatch):
    for cls, sizes in SMOKE_SIZES.items():
        for attr, value in sizes.items():
            monkeypatch.setattr(cls, attr, value)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def bench(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.5", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_and_outputs_check(capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(capsys, workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        wanted = {metric["name"]: metric["unit"] for metric in SPEC[key]}
        emitted = {name: value["unit"]
                   for name, value in result["metrics"].items()}
        assert emitted == wanted


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(capsys, workload):
    first = bench(capsys, workload, 1)["metrics"]
    second = bench(capsys, workload, 1)["metrics"]
    counts = {name for name, value in first.items()
              if value["unit"] not in TIMED_UNITS
              and name != "trace.overhead_frac"}
    assert counts
    assert {n: first[n]["value"] for n in counts} \
        == {n: second[n]["value"] for n in counts}


def test_oracle_rejects_perturbed_answers(tmp_path):
    workload = workloads.SelectEnrich(5, str(tmp_path))
    workload.attach_oracle()
    try:
        for name in ("ex4.2-schema-replacement", "quality-across-landfills"):
            shape = SHAPES[name]
            outcome = workload.session.execute(shape.text())
            columns, rows = outcome.result.columns, list(outcome.result.rows)
            expected = workload.oracle.answer(shape, workload.kb_index,
                                              shape.canonical_value)
            assert mismatch(shape, expected, columns, rows) is None
            changed = list(rows)
            changed[0] = changed[0][:-1] + ("perturbed",)
            assert mismatch(shape, expected, columns, changed) is not None
            assert mismatch(shape, expected, columns, rows[1:]) is not None
            assert mismatch(shape, expected, columns[::-1], rows) \
                is not None
        shape = SHAPES["quality-across-landfills"]
        rows = list(workload.session.execute(shape.text()).result.rows)
        expected = workload.oracle.answer(shape, workload.kb_index, None)
        assert mismatch(shape, expected, expected[0], rows[::-1]) \
            is not None
    finally:
        workload.close()


def test_wrong_row_count_counts_as_failed(tmp_path):
    workload = workloads.SelectEnrich(5, str(tmp_path))
    workload.attach_oracle()
    try:
        workload.expected_rows = lambda op: 0 if op.kind == "read" else None
        recorder = run.Recorder()
        recorder.run(workload, next(workload.blocks(random.Random(1))))
        assert recorder.failed == 2 * len(workload.shapes)
        assert recorder.attempted > recorder.failed
    finally:
        workload.close()
