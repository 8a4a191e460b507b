"""SESQL engine behaviour beyond the paper's worked examples."""

import pytest

from repro.core import (EnrichmentError, JoinManager, ResourceMapping,
                        SESQLEngine, TemporarySupportDatabase)
from repro.core.join_manager import BASE_TABLE, MAP_TABLE
from repro.core.sqm import Extraction
from repro.core.ast import SchemaExtension
from repro.rdf import Namespace, TripleStore, parse_turtle
from repro.relational import Database, ResultSet

SMG = Namespace("http://smartground.eu/ns#")


@pytest.fixture
def engine():
    db = Database()
    db.execute_script("""
        CREATE TABLE elem_contained (
            landfill_name TEXT, elem_name TEXT, amount REAL);
        INSERT INTO elem_contained VALUES
            ('a','Mercury',12.0), ('a','Iron',140.0), ('b','Mercury',7.0);
    """)
    kb = parse_turtle("""
        @prefix smg: <http://smartground.eu/ns#> .
        smg:Mercury smg:dangerLevel "high" ; smg:dangerLevel "extreme" .
        smg:Iron smg:dangerLevel "low" .
    """)
    return SESQLEngine(db, kb)


def test_multivalued_property_multiplies_rows(engine):
    result = engine.query("""
        SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""")
    # Mercury has two dangerLevel statements -> two output rows.
    mercury_rows = [row for row in result.rows if row[0] == "Mercury"]
    assert len(mercury_rows) == 2
    assert {row[1] for row in mercury_rows} == {"high", "extreme"}


def test_empty_kb_pads_with_nulls(engine):
    result = engine.query("""
        SELECT elem_name FROM elem_contained
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""",
        knowledge_base=TripleStore())
    assert all(row[1] is None for row in result.rows)
    assert len(result.rows) == 3  # enrichment never drops rows


def test_direct_and_tempdb_strategies_agree(engine):
    """The hash combine returns what the paper's tempdb execution would:
    the reported final SQL, run over both partials materialized in a
    temporary support database."""
    outcome = engine.execute("""
        SELECT elem_name, amount FROM elem_contained
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""")
    base = engine.databank.execute(
        "SELECT elem_name, amount FROM elem_contained")
    pairs = [("Mercury", "high"), ("Mercury", "extreme"), ("Iron", "low")]
    tempdb = TemporarySupportDatabase()
    try:
        t_base = tempdb.store_result(base.columns, base.rows)
        t_map = tempdb.store_pairs(pairs)
        [final_sql] = outcome.final_sqls
        via_tempdb = tempdb.db.execute(
            final_sql.replace(BASE_TABLE, t_base.name)
                     .replace(MAP_TABLE, t_map.name))
    finally:
        tempdb.cleanup()
    assert via_tempdb.columns == outcome.result.columns
    assert via_tempdb.same_rows(outcome.result)


def test_direct_strategy_produces_no_final_sql(engine, monkeypatch):
    """The hash combine executes no final SQL: nothing is materialized,
    and the Fig. 6 query is only rendered into ``final_sqls``."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("the SELECT combine materialized a partial")

    for method in ("store_result", "store_pairs", "store_values"):
        monkeypatch.setattr(TemporarySupportDatabase, method, refuse)
    before = set(engine.databank.table_names())
    outcome = engine.execute("""
        SELECT elem_name FROM elem_contained
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""")
    assert len(outcome.result.rows) == 5
    assert set(engine.databank.table_names()) == before
    [final_sql] = outcome.final_sqls
    assert "LEFT JOIN" in final_sql


def test_multiple_select_enrichments_compose(engine):
    result = engine.query("""
        SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)
               BOOLSCHEMAEXTENSION(elem_name, dangerLevel, high)""")
    assert result.columns == [
        "elem_name", "dangerLevel", "dangerLevel_high"]
    by_name = {}
    for name, _level, flag in result.rows:
        by_name.setdefault(name, set()).add(flag)
    assert by_name["Mercury"] == {True}
    assert by_name["Iron"] == {False}


def test_unknown_attr_rejected(engine):
    with pytest.raises(EnrichmentError):
        engine.query("""
            SELECT amount FROM elem_contained
            ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""")


def test_new_column_name_deduplicated(engine):
    result = engine.query("""
        SELECT elem_name, amount AS dangerLevel FROM elem_contained
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""")
    assert result.columns == ["elem_name", "dangerLevel", "dangerLevel_2"]


def test_where_rewrite_cleans_temp_tables(engine):
    db = engine.databank
    before = set(db.table_names())
    engine.query("""
        SELECT landfill_name FROM elem_contained
        WHERE ${elem_name = Dangerous:c1}
        ENRICH REPLACECONSTANT(c1, Dangerous, dangerLevel)""")
    assert set(db.table_names()) == before


def test_no_enrichment_acts_as_plain_sql(engine):
    result = engine.execute(
        "SELECT elem_name FROM elem_contained WHERE amount > 10")
    assert sorted(result.rows) == [("Iron",), ("Mercury",)]
    assert result.sparql_queries == []


def test_enrichment_preserves_row_order_of_base(engine):
    result = engine.query("""
        SELECT elem_name FROM elem_contained
        ENRICH BOOLSCHEMAEXTENSION(elem_name, dangerLevel, low)""")
    assert [row[0] for row in result.rows] == [
        "Mercury", "Iron", "Mercury"]


def test_enrich_with_order_by_and_limit(engine):
    result = engine.query("""
        SELECT elem_name, amount FROM elem_contained
        ORDER BY amount DESC LIMIT 2
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)""")
    # Base: Iron(140), Mercury(12); Mercury's two dangerLevel statements
    # multiply its row after enrichment.
    assert [row[0] for row in result.rows] == ["Iron", "Mercury", "Mercury"]


def test_engine_accepts_only_the_tempdb_join_strategy():
    db = Database()
    SESQLEngine(db, join_strategy="tempdb")
    for strategy in ("direct", "quantum"):
        with pytest.raises(EnrichmentError):
            SESQLEngine(db, join_strategy=strategy)


def test_join_manager_rejects_where_enrichment():
    from repro.core.ast import ReplaceConstant
    manager = JoinManager(ResourceMapping())
    base = ResultSet(["a"], [(1,)])
    with pytest.raises(EnrichmentError):
        manager.combine(base, ReplaceConstant("c", "X", "p"), Extraction(""))


def test_combine_on_empty_base_result():
    manager = JoinManager(ResourceMapping())
    base = ResultSet(["elem"], [])
    outcome = manager.combine(base, SchemaExtension("elem", "p"),
                              Extraction("", pairs=[]))
    assert outcome.result.rows == []
    assert outcome.result.columns == ["elem", "p"]


def test_replacevariable_requires_column_attr(engine):
    with pytest.raises(EnrichmentError):
        engine.query("""
            SELECT elem_name FROM elem_contained
            WHERE ${elem_name <> 'x':c1}
            ENRICH REPLACEVARIABLE(c1, 'not a column!!', dangerLevel)""")


def test_constant_absent_from_condition_rejected(engine):
    with pytest.raises(EnrichmentError):
        engine.query("""
            SELECT elem_name FROM elem_contained
            WHERE ${amount > 5:c1}
            ENRICH REPLACECONSTANT(c1, Missing, dangerLevel)""")


# -- per-statement extraction dedupe -----------------------------------------


def test_identical_extractions_across_conditions_execute_once(engine):
    """Two tagged conditions with the same REPLACECONSTANT extraction:
    the plan reports both logical extractions, the KB runs one query."""
    before = engine.sqm.sparql_execution_count()
    result = engine.execute("""
        SELECT elem_name, amount FROM elem_contained
        WHERE ${ elem_name = 'Mercury' : cond1 }
           OR ${ elem_name = 'Mercury' : cond2 }
        ENRICH REPLACECONSTANT(cond1, Mercury, dangerLevel)
               REPLACECONSTANT(cond2, Mercury, dangerLevel)""")
    assert len(result.sparql_queries) == 2
    assert len(set(result.sparql_queries)) == 1
    assert result.sparql_executions == 1
    assert engine.sqm.sparql_execution_count() - before == 1


def test_where_and_select_extraction_shared(engine):
    """A WHERE rewrite and a SELECT enrichment over the same property
    reuse one extraction within the statement."""
    before = engine.sqm.sparql_execution_count()
    result = engine.execute("""
        SELECT elem_name FROM elem_contained
        WHERE ${ elem_name <> 'x' : cond1 }
        ENRICH REPLACEVARIABLE(cond1, elem_name, dangerLevel)
               SCHEMAEXTENSION(elem_name, dangerLevel)""")
    assert len(result.sparql_queries) == 2
    assert result.sparql_executions == 1
    assert engine.sqm.sparql_execution_count() - before == 1
    # The rewrite and the enrichment both took effect.
    assert "dangerLevel" in result.columns[-1]


def test_distinct_extractions_still_execute_separately(engine):
    before = engine.sqm.sparql_execution_count()
    result = engine.execute("""
        SELECT elem_name FROM elem_contained
        ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)
               BOOLSCHEMAEXTENSION(elem_name, dangerLevel, high)""")
    assert len(result.sparql_queries) == 2
    assert result.sparql_executions == 2
    assert engine.sqm.sparql_execution_count() - before == 2
