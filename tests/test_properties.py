"""Property-based tests (hypothesis) on core invariants.

Covers: 3-valued logic laws, value comparison consistency, LIKE vs a
regex model, SQL engine vs a naive Python evaluator, expression
render/parse round-trips, triple-store index coherence, Turtle and
N-Triples round-trips, condition-tag scanning, and enrichment row-count
invariants.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ResourceMapping, JoinManager, scan_condition_tags
from repro.core.ast import SchemaExtension, BoolSchemaExtension
from repro.core.sqm import Extraction
from repro.rdf import (IRI, Literal, Triple, TripleStore, parse_ntriples,
                       parse_turtle, serialize_ntriples, serialize_turtle)
from repro.relational import Database, ResultSet, parse_expr, render_expr
from repro.relational.ast import node_key
from repro.relational.compiler import like_match
from repro.relational.types import (and3, compare_values, not3, or3,
                                    values_equal)

# -- 3VL laws -----------------------------------------------------------------

tv = st.sampled_from([True, False, None])


@given(tv, tv)
def test_and3_commutative(a, b):
    assert and3(a, b) == and3(b, a)


@given(tv, tv)
def test_or3_commutative(a, b):
    assert or3(a, b) == or3(b, a)


@given(tv, tv)
def test_de_morgan(a, b):
    assert not3(and3(a, b)) == or3(not3(a), not3(b))
    assert not3(or3(a, b)) == and3(not3(a), not3(b))


@given(tv)
def test_double_negation(a):
    assert not3(not3(a)) == a


@given(tv, tv, tv)
def test_and3_associative(a, b, c):
    assert and3(and3(a, b), c) == and3(a, and3(b, c))


# -- value comparison ------------------------------------------------------------

scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e6, max_value=1e6),
    st.text(max_size=12))


@given(scalars, scalars)
def test_values_equal_symmetric(a, b):
    assert values_equal(a, b) == values_equal(b, a)


@given(scalars)
def test_values_equal_reflexive_for_non_null(a):
    expected = None if a is None else True
    assert values_equal(a, a) is expected


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_compare_values_is_total_order_on_ints(a, b):
    result = compare_values(a, b)
    assert result == (a > b) - (a < b)


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers())
def test_compare_values_cross_numeric(a, b):
    result = compare_values(a, b)
    assert (result < 0) == (a < b)


# -- LIKE vs a reference model -------------------------------------------------------

@given(st.text(alphabet="ab%_c", max_size=8),
       st.text(alphabet="abc", max_size=8))
def test_like_matches_naive_model(pattern, text):
    import re
    regex = "^" + "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern) + "$"
    expected = re.match(regex, text, re.DOTALL) is not None
    assert like_match(text, pattern) == expected


# -- engine vs naive evaluator ----------------------------------------------------------

rows_strategy = st.lists(
    st.tuples(st.integers(-50, 50),
              st.sampled_from(["x", "y", "z", None])),
    min_size=0, max_size=30)


@given(rows_strategy, st.integers(-50, 50))
@settings(max_examples=40, deadline=None)
def test_where_filter_matches_python(rows, threshold):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    for a, b in rows:
        db.table("t").insert_row({"a": a, "b": b})
    got = sorted(db.query(
        f"SELECT a FROM t WHERE a > {threshold}").rows)
    expected = sorted((a,) for a, _b in rows
                      if a is not None and a > threshold)
    assert got == expected


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_group_count_matches_python(rows):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    for a, b in rows:
        db.table("t").insert_row({"a": a, "b": b})
    got = dict(db.query(
        "SELECT b, COUNT(*) FROM t GROUP BY b").rows)
    expected: dict = {}
    for _a, b in rows:
        expected[b] = expected.get(b, 0) + 1
    assert got == expected


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_order_by_sorts_non_nulls(rows):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    for a, b in rows:
        db.table("t").insert_row({"a": a, "b": b})
    got = [row[0] for row in db.query(
        "SELECT a FROM t ORDER BY a").rows]
    assert got == sorted(got, key=lambda v: (v is None, v if v is not None
                                             else 0))


# -- expression render/parse round trip ----------------------------------------------------

expr_text = st.sampled_from([
    "a + b * 2", "NOT (a = 1 OR b < 3)", "x BETWEEN 1 AND 9",
    "name LIKE 'a%'", "c IS NOT NULL", "COALESCE(a, b, 0)",
    "CASE WHEN a > 0 THEN 'p' ELSE 'n' END",
    "x IN (1, 2, 3)", "CAST(a AS TEXT) || 'x'", "-a % 3",
])


@given(expr_text)
def test_render_parse_fixpoint(text):
    parsed = parse_expr(text)
    rendered = render_expr(parsed)
    reparsed = parse_expr(rendered)
    assert node_key(parsed) == node_key(reparsed)
    # Rendering is a fixpoint after one normalisation pass.
    assert render_expr(reparsed) == rendered


# -- triple store invariants ---------------------------------------------------------------

iris = st.integers(0, 20).map(lambda i: IRI(f"http://x/{i}"))
literals = st.one_of(st.integers(-5, 5), st.text(max_size=4),
                     st.booleans()).map(Literal)
terms = st.one_of(iris, literals)
triples = st.builds(Triple, iris, iris, terms)


@given(st.lists(triples, max_size=40))
def test_store_size_equals_distinct_triples(batch):
    store = TripleStore()
    store.add_all(batch)
    assert len(store) == len(set(batch))
    assert set(store.triples()) == set(batch)


@given(st.lists(triples, max_size=40))
def test_indexes_agree_on_every_pattern(batch):
    full = TripleStore()
    full.add_all(batch)
    reduced = TripleStore(indexing="spo")
    reduced.add_all(batch)
    for triple in batch[:5]:
        for pattern in [(triple.subject, None, None),
                        (None, triple.predicate, None),
                        (None, None, triple.object),
                        (triple.subject, triple.predicate, None)]:
            assert set(full.triples(*pattern)) \
                == set(reduced.triples(*pattern))


@given(st.lists(triples, max_size=30), st.lists(triples, max_size=30))
def test_union_is_set_union(left_batch, right_batch):
    left = TripleStore()
    left.add_all(left_batch)
    right = TripleStore()
    right.add_all(right_batch)
    merged = left.union(right)
    assert set(merged.triples()) == set(left_batch) | set(right_batch)


@given(st.lists(triples, max_size=30))
def test_remove_inverts_add(batch):
    store = TripleStore()
    store.add_all(batch)
    for triple in batch:
        store.remove(triple)
    assert len(store) == 0
    assert store._spo == {} and store._pos == {} and store._osp == {}


# -- serialization round trips ----------------------------------------------------------------

safe_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=10)
safe_literals = st.one_of(
    st.integers(-99, 99),
    st.booleans(),
    safe_text,
).map(Literal)
safe_triples = st.builds(Triple, iris, iris,
                         st.one_of(iris, safe_literals))


@given(st.lists(safe_triples, max_size=25))
def test_turtle_round_trip(batch):
    store = TripleStore()
    store.add_all(batch)
    again = parse_turtle(serialize_turtle(store))
    assert set(again.triples()) == set(store.triples())


@given(st.lists(safe_triples, max_size=25))
def test_ntriples_round_trip(batch):
    store = TripleStore()
    store.add_all(batch)
    again = parse_ntriples(serialize_ntriples(store))
    assert set(again.triples()) == set(store.triples())


# -- condition tags ------------------------------------------------------------------------------

cond_ids = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


@given(st.lists(cond_ids, min_size=1, max_size=4, unique=True))
def test_scan_extracts_every_tag(ids):
    conditions = [f"${{a{i} = {i}:{cid}}}" for i, cid in enumerate(ids)]
    text = "SELECT x FROM t WHERE " + " AND ".join(conditions)
    scan = scan_condition_tags(text)
    assert set(scan.conditions) == set(ids)
    assert "${" not in scan.clean_text
    from repro.relational import parse_sql
    parse_sql(scan.clean_text)  # cleaned text is valid SQL


# -- enrichment invariants --------------------------------------------------------------------------

subjects = st.lists(st.sampled_from(["Hg", "Pb", "Fe", "Cu", "Zn"]),
                    min_size=0, max_size=25)
pair_lists = st.lists(
    st.tuples(st.sampled_from(["Hg", "Pb", "Fe"]),
              st.sampled_from(["low", "high"])),
    max_size=10)


@given(subjects, pair_lists)
@settings(max_examples=30, deadline=None)
def test_extension_row_count_invariant(values, pairs):
    """Each base row yields max(1, matches) output rows; none are lost."""
    base = ResultSet(["elem"], [(value,) for value in values])
    mapping = ResourceMapping()
    extraction = Extraction("", pairs=[
        (mapping.to_term("elem", s), Literal(o)) for s, o in pairs])
    manager = JoinManager(mapping)
    outcome = manager.combine(base, SchemaExtension("elem", "p"),
                              extraction)
    match_counts = {}
    for s, _o in pairs:
        match_counts[s] = match_counts.get(s, 0) + 1
    expected = sum(max(1, match_counts.get(value, 0)) for value in values)
    assert len(outcome.result.rows) == expected
    produced_subjects = [row[0] for row in outcome.result.rows]
    assert set(produced_subjects) == set(values)


@given(subjects, st.sets(st.sampled_from(["Hg", "Pb", "Fe"])))
@settings(max_examples=30, deadline=None)
def test_boolean_extension_preserves_rows_exactly(values, flagged):
    base = ResultSet(["elem"], [(value,) for value in values])
    mapping = ResourceMapping()
    extraction = Extraction("", subjects={
        mapping.to_term("elem", s) for s in flagged})
    manager = JoinManager(mapping)
    outcome = manager.combine(
        base, BoolSchemaExtension("elem", "isA", "Hazard"), extraction)
    assert len(outcome.result.rows) == len(values)
    for value, row in zip(values, outcome.result.rows):
        assert row[-1] == (value in flagged)
