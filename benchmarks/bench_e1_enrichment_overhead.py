"""E1 — per-strategy enrichment overhead vs plain SQL.

For each of the six paper examples (4.1-4.6) this measures the full
SESQL pipeline and its plain-SQL twin on the same databank.  The
expected shape: every enrichment costs a bounded factor over its SQL
baseline, dominated by SPARQL extraction plus the combine join; the
WHERE strategies (4.5/4.6) pay for the rewritten subquery predicate,
which runs as a hash semi-join probe.  All six run on the same
1200-row databank.
"""

from __future__ import annotations

import pytest

from repro.smartground import PAPER_EXAMPLES, SQL_BASELINES

_QUERIES = {query.name: query for query in PAPER_EXAMPLES}


@pytest.mark.parametrize("name", list(_QUERIES))
def test_e1_sesql(benchmark, name, engine_1200):
    sesql = _QUERIES[name].sesql
    result = benchmark(lambda: engine_1200.execute(sesql))
    assert result.columns


@pytest.mark.parametrize("name", list(_QUERIES))
def test_e1_sql_baseline(benchmark, name, engine_1200):
    sql = SQL_BASELINES[name]
    result = benchmark(lambda: engine_1200.databank.query(sql))
    assert result.columns
