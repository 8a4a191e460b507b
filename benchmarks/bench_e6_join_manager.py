"""E6 — the JoinManager's hash combine vs the paper's final SQL.

The Fig. 6 architecture materialises both partials in the temporary
support database and issues a final LEFT JOIN SQL query over them.  The
JoinManager returns the same rows from a hash probe of the extraction
and only *renders* that final SQL.  This experiment times both sides
for the pair (SCHEMAEXTENSION) and flag (BOOLSCHEMAEXTENSION) kinds:

* **hash**: ``JoinManager.combine`` — the probe plus rendering the
  final SQL;
* **final_sql**: storing the base and the extraction partial as temp
  tables and executing the rendered final SQL over them.

Expected shape: hash wins by a constant factor (no materialisation, no
final-query planning); the ratio is the price of running the paper's
pluggable-architecture design as written.
"""

from __future__ import annotations

import pytest

from repro.core import JoinManager, ResourceMapping, TemporarySupportDatabase
from repro.core.ast import BoolSchemaExtension, SchemaExtension
from repro.core.join_manager import final_query
from repro.core.sqm import Extraction
from repro.rdf import SMG, Literal
from repro.relational import ResultSet
from repro.relational.render import render_query

from conftest import scaled

ROWS = scaled(5_000)
DISTINCT_SUBJECTS = scaled(200)

MAPPING = ResourceMapping()


def _base() -> ResultSet:
    rows = [(f"mat{i % DISTINCT_SUBJECTS:04d}", float(i))
            for i in range(ROWS)]
    return ResultSet(["elem_name", "amount"], rows)


def _pairs_extraction() -> Extraction:
    pairs = [(SMG[f"mat{i:04d}"], Literal(f"level{i % 4}"))
             for i in range(DISTINCT_SUBJECTS)]
    return Extraction("", pairs=pairs)


def _subjects_extraction() -> Extraction:
    subjects = {SMG[f"mat{i:04d}"] for i in range(0, DISTINCT_SUBJECTS, 2)}
    return Extraction("", subjects=subjects)


CASES = {
    "pairs": (SchemaExtension("elem_name", "dangerLevel"),
              _pairs_extraction),
    "flags": (BoolSchemaExtension("elem_name", "isA", "HazardousWaste"),
              _subjects_extraction),
}


def _final_sql(base: ResultSet, enrichment, extraction) -> ResultSet:
    """The Fig. 6 combine as written: materialise, then run the SQL."""
    prepared = JoinManager(MAPPING).prepare(enrichment, extraction)
    flags = not isinstance(enrichment, SchemaExtension)
    tempdb = TemporarySupportDatabase()
    try:
        t_base = tempdb.store_result(base.columns, base.rows)
        if flags:
            t_part = tempdb.store_values(sorted(
                MAPPING.to_sql_value(s) for s in extraction.subjects))
        else:
            t_part = tempdb.store_pairs(
                [(MAPPING.to_sql_value(s), MAPPING.to_sql_value(o))
                 for s, o in extraction.pairs])
        query = final_query(base.columns, prepared.attr,
                            prepared.new_column, prepared.replace, flags,
                            t_base.name, t_part.name)
        return tempdb.db.execute(render_query(query))
    finally:
        tempdb.cleanup()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_e6_hash_combine(benchmark, kind):
    enrichment, make_extraction = CASES[kind]
    manager = JoinManager(MAPPING)
    base = _base()
    extraction = make_extraction()
    outcome = benchmark(
        lambda: manager.combine(base, enrichment, extraction))
    assert len(outcome.result.rows) == ROWS
    assert "LEFT JOIN" in outcome.final_sql


@pytest.mark.parametrize("kind", sorted(CASES))
def test_e6_final_sql_over_partials(benchmark, kind):
    enrichment, make_extraction = CASES[kind]
    base = _base()
    extraction = make_extraction()
    result = benchmark(lambda: _final_sql(base, enrichment, extraction))
    expected = JoinManager(MAPPING).combine(base, enrichment, extraction)
    assert result.columns == expected.result.columns
    assert result.rows == expected.result.rows
