"""The JoinManager's hash combine against the paper's final SQL.

The combine never executes the Fig. 6 final query; these tests run it
over the partials materialized in a temporary support database and
check that the hash combine returns exactly what it would.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import JoinManager, ResourceMapping, TemporarySupportDatabase
from repro.core.ast import (BoolSchemaExtension, BoolSchemaReplacement,
                            SchemaExtension, SchemaReplacement)
from repro.core.join_manager import (BASE_TABLE, FLAGS_TABLE, MAP_TABLE,
                                     final_query)
from repro.core.sqm import Extraction
from repro.rdf import Literal
from repro.relational import ResultSet
from repro.relational.render import render_query

KINDS = [
    SchemaExtension("elem", "p"),
    SchemaReplacement("elem", "p"),
    BoolSchemaExtension("elem", "p", "Hazard"),
    BoolSchemaReplacement("elem", "p", "Hazard"),
]


def extraction_for(mapping, attr, pairs):
    """An extraction holding *pairs*, and its subjects for the flags."""
    return Extraction("", pairs=[(mapping.to_term(attr, s), Literal(o))
                                 for s, o in pairs],
                      subjects={mapping.to_term(attr, s) for s, _o in pairs})


def is_flag(enrichment) -> bool:
    return isinstance(enrichment, (BoolSchemaExtension,
                                   BoolSchemaReplacement))


def reference(base, enrichment, pairs, prepared):
    """Run the rendered final SQL over the materialized partials."""
    flags = is_flag(enrichment)
    tempdb = TemporarySupportDatabase()
    try:
        t_base = tempdb.store_result(base.columns, base.rows)
        t_part = (tempdb.store_values(sorted({s for s, _o in pairs}))
                  if flags else tempdb.store_pairs(pairs))
        query = final_query(base.columns, prepared.attr,
                            prepared.new_column, prepared.replace, flags,
                            t_base.name, t_part.name)
        return tempdb.db.execute(render_query(query))
    finally:
        tempdb.cleanup()


keys = st.one_of(st.none(), st.sampled_from(["Hg", "Pb", "Fe", "Cu"]))
base_rows = st.lists(
    st.tuples(keys, st.one_of(st.none(), st.integers(-5, 5))),
    max_size=12)


@st.composite
def pair_lists(draw):
    # One type family per partial column: the temp schema types it.
    objects = draw(st.sampled_from([["low", "high", "mid"], [1, 2, 3]]))
    return draw(st.lists(
        st.tuples(st.sampled_from(["Hg", "Pb", "Fe", "Zn"]),
                  st.sampled_from(objects)),
        max_size=10))


@given(st.sampled_from(KINDS), base_rows, pair_lists())
@settings(max_examples=80, deadline=None)
def test_hash_combine_equals_final_sql_over_partials(enrichment, rows,
                                                      pairs):
    """NULL keys, duplicate subjects and unmatched keys included."""
    mapping = ResourceMapping()
    base = ResultSet(["elem", "amount"], rows)
    extraction = extraction_for(mapping, "elem", pairs)
    manager = JoinManager(mapping)
    outcome = manager.combine(base, enrichment, extraction)
    prepared = manager.prepare(enrichment, extraction)
    expected = reference(base, enrichment, pairs, prepared)
    assert outcome.result.columns == expected.columns
    assert outcome.result.rows == expected.rows
    # The combine reports the same query, over placeholder table names.
    flags = is_flag(enrichment)
    assert outcome.final_sql == render_query(final_query(
        base.columns, prepared.attr, prepared.new_column, prepared.replace,
        flags, BASE_TABLE, FLAGS_TABLE if flags else MAP_TABLE))


@pytest.mark.parametrize("enrichment, expected", [
    (SchemaExtension("k", "p"),
     [("a", 1, 1), ("a", 1, 2.5), ("b", 2.5, "x"), ("c", True, None)]),
    (SchemaReplacement("k", "p"),
     [(1, 1), (2.5, 1), ("x", 2.5), (None, True)]),
    (BoolSchemaExtension("k", "p", "C"),
     [("a", 1, True), ("b", 2.5, True), ("c", True, False)]),
    (BoolSchemaReplacement("k", "p", "C"),
     [(True, 1), (True, 2.5), (False, True)]),
])
def test_combine_keeps_mixed_type_values_exactly(enrichment, expected):
    """Base values and extraction objects keep their type: nothing is
    coerced to a column type (``1`` stays ``1``, ``True`` stays
    ``True``, an integer object is not turned into ``'1'``)."""
    mapping = ResourceMapping()
    base = ResultSet(["k", "v"], [("a", 1), ("b", 2.5), ("c", True)])
    extraction = extraction_for(mapping, "k",
                                [("a", 1), ("a", 2.5), ("b", "x")])
    outcome = JoinManager(mapping).combine(base, enrichment, extraction)

    def typed(rows):
        return [tuple((type(value), value) for value in row)
                for row in rows]

    assert typed(outcome.result.rows) == typed(expected)
