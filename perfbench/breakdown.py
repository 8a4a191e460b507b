"""Fold spans into per-layer self time; print it per op kind and shape.

    python3 perfbench/breakdown.py .perfbench_work/spans-crowd-rest-seed1.json

prints, for each op kind (read, read_after_write, write) and then for
each shape, the ops' median latency and each layer's self time per op,
largest first.
"""

from __future__ import annotations

import json
import statistics
import sys


def fold(spans: list[list], group=lambda root_name: "") -> dict:
    """{group(root span name): (self seconds per layer, op durations)}.

    A span is ``[name, layer, start, end, parent index, op id]``; a root
    span (parent None) is one op.  Self time is a span's duration minus
    its children's, so a group's self times add up to its ops' total.
    """
    covered = [0.0] * len(spans)
    root = list(range(len(spans)))
    for index, (_name, _layer, start, end, parent, _op) in enumerate(spans):
        if parent is not None:
            covered[parent] += end - start
            root[index] = root[parent]
    groups: dict = {}
    for index, (_name, layer, start, end, parent, _op) in enumerate(spans):
        self_time, durations = groups.setdefault(
            group(spans[root[index]][0]), ({}, []))
        self_time[layer] = self_time.get(layer, 0.0) \
            + (end - start) - covered[index]
        if parent is None:
            durations.append(end - start)
    return groups


def main(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    for group in (lambda name: name.partition(":")[0],
                  lambda name: name.partition(":")[2] or name):
        for key, (self_time, durations) in sorted(fold(spans, group).items()):
            print(f"{key}: {len(durations)} ops, median "
                  f"{statistics.median(durations) * 1000:.3f} ms")
            total = sum(self_time.values())
            for layer, seconds in sorted(self_time.items(),
                                         key=lambda item: -item[1]):
                print(f"  {layer:14s} {seconds * 1000 / len(durations):10.4f}"
                      f" ms/op  {100 * seconds / total:5.1f}%")


if __name__ == "__main__":
    main(sys.argv[1])
