"""Hash semi-/anti-join for EXISTS and IN subqueries.

Eligible subqueries compile to a hash probe over a build side that runs
once (see ``repro.relational.executor._SemiJoin``).  These tests pin:

* the exact three-valued answer in every expression position, against
  ``sqlite3`` as an outside oracle (hypothesis property);
* ex4.6 — the paper's REPLACEVARIABLE rewrite — giving the same rows in
  the same order as the per-row subquery path;
* EXPLAIN / EXPLAIN ANALYZE showing the probe as a ``semi-join`` /
  ``anti-join`` node whose build side is scanned once;
* NaN never matching in any equi-matching path (``NaN = NaN`` is false).
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.planner import PlannerOptions
from repro.relational import Database
from repro.relational.parser import parse_sql
from repro.relational.render import render_query
from repro.smartground.queries import PAPER_EXAMPLES
from repro.workloads import bench_engine, scaled_databank
from test_columnar_properties import int_values, text_values

EX46 = next(query.sesql for query in PAPER_EXAMPLES
            if query.name == "ex4.6-replace-variable")
NAN = float("nan")


def kinds(planned) -> list[str]:
    return [node.kind for node in planned.root.walk()]


def node_of(planned, kind: str):
    return next(node for node in planned.root.walk() if node.kind == kind)


# ---------------------------------------------------------------------------
# Three-valued logic and strategy choice
# ---------------------------------------------------------------------------


@pytest.fixture
def ab() -> Database:
    db = Database()
    db.execute_script("""
        CREATE TABLE a (k INTEGER, v INTEGER);
        CREATE TABLE b (k INTEGER, v INTEGER);
        INSERT INTO a VALUES (1, 1), (1, 5), (2, NULL), (NULL, 3), (4, 4);
        INSERT INTO b VALUES (1, 1), (1, NULL), (2, 7), (NULL, 3), (9, 9);
    """)
    return db


def test_uncorrelated_in_three_valued(ab):
    rows = ab.query(
        "SELECT v, v IN (SELECT v FROM b), v NOT IN (SELECT v FROM b) "
        "FROM a").rows
    # b.v holds a NULL: a miss is unknown, not false.
    assert rows == [(1, True, False), (5, None, None), (None, None, None),
                    (3, True, False), (4, None, None)]
    ab.execute("DELETE FROM b")
    rows = ab.query("SELECT v IN (SELECT v FROM b), "
                    "v NOT IN (SELECT v FROM b) FROM a").rows
    assert set(rows) == {(False, True)}  # empty set: even NULL is out


def test_correlated_in_membership_over_bucket(ab):
    rows = ab.query(
        "SELECT k, v, v IN (SELECT b.v FROM b WHERE b.k = a.k) FROM a").rows
    assert rows == [(1, 1, True), (1, 5, None), (2, None, None),
                    (None, 3, False), (4, 4, False)]


def test_exists_and_not_exists_keep_outer_order(ab):
    keep = ab.query("SELECT k, v FROM a WHERE EXISTS "
                    "(SELECT 1 FROM b WHERE b.k = a.k AND b.v <> a.v)").rows
    drop = ab.query("SELECT k, v FROM a WHERE NOT EXISTS "
                    "(SELECT 1 FROM b WHERE b.k = a.k AND b.v <> a.v)").rows
    assert keep == [(1, 5)]
    assert drop == [(1, 1), (2, None), (None, 3), (4, 4)]


def test_explain_labels_semi_and_anti_join(ab):
    planned = ab.explain("SELECT k FROM a WHERE NOT EXISTS "
                         "(SELECT 1 FROM b WHERE b.k = a.k AND b.v > 2)",
                         analyze=True)
    anti = node_of(planned, "anti-join")
    assert anti.detail == "hash key: b.k = a.k"
    assert anti.est_rows is not None and anti.actual_rows == 4
    # The inner-only conjunct filters the build side, once.
    build = anti.children[1]
    assert (build.label, build.detail) == ("build WHERE", "(b.v > 2)")
    assert build.children[0].actual_rows == 5
    planned = ab.explain("SELECT k FROM a WHERE v IN (SELECT v FROM b)")
    semi = node_of(planned, "semi-join")
    assert (semi.label, semi.detail) == ("v IN", "IN value: v")


def test_probe_estimate_uses_key_distinct_counts():
    db = Database()
    db.execute("CREATE TABLE a (k INTEGER)")
    db.execute("CREATE TABLE b (k INTEGER)")
    db.execute("INSERT INTO a VALUES (1), (2), (3), (4), (5), (6), (7), "
               "(8), (9), (10)")
    db.execute("INSERT INTO b VALUES (1), (2), (2)")
    db.analyze()
    # distinct(b.k) / distinct(a.k) = 2 / 10 of the outer rows match.
    for sql, est in (
            ("SELECT k FROM a WHERE EXISTS "
             "(SELECT 1 FROM b WHERE b.k = a.k)", 2.0),
            ("SELECT k FROM a WHERE k NOT IN (SELECT k FROM b)", 8.0)):
        planned = db.explain(sql, analyze=True)
        probe = planned.root.children[0]
        assert (probe.est_rows, probe.actual_rows) == (
            pytest.approx(est), est)


@pytest.mark.parametrize("subquery, detail", [
    ("SELECT 1 FROM b WHERE b.k = a.k LIMIT 1", "subquery per row"),
    ("SELECT 1 FROM b WHERE NOT (b.k <> a.k)", "subquery per row"),
    ("SELECT 1 FROM b WHERE b.k = a.k GROUP BY b.k", "subquery per row"),
    ("SELECT 1 FROM b WHERE b.k = k", "subquery once"),  # k is b.k
])
def test_ineligible_subqueries_stay_per_row(ab, subquery, detail):
    sql = f"SELECT a.k, a.v FROM a WHERE EXISTS ({subquery})"
    planned = ab.explain(sql)
    assert "semi-join" not in kinds(planned)
    node = next(node for node in planned.root.walk()
                if node.label == "EXISTS")
    assert (node.kind, node.detail) == ("filter", detail)
    assert Counter(ab.query(sql).rows) == Counter(_sqlite_rows(ab, sql))


def test_correlated_derived_table_keeps_the_per_row_path(ab):
    # The derived table reads a.v, so no build side is outer-invariant.
    sql = ("SELECT a.k, a.v FROM a WHERE EXISTS (SELECT 1 FROM "
           "(SELECT b.k FROM b WHERE b.v = a.v) AS d WHERE d.k = a.k)")
    assert "semi-join" not in kinds(ab.explain(sql))
    assert ab.query(sql).rows == [(1, 1)]


def _sqlite_rows(db: Database, sql: str) -> list[tuple]:
    oracle = sqlite3.connect(":memory:")
    for name in db.catalog.table_names():
        table = db.catalog.table(name)
        columns = table.schema.column_names()
        oracle.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        oracle.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            list(table.rows()))
    return oracle.execute(sql).fetchall()


# ---------------------------------------------------------------------------
# Differential property against sqlite3
# ---------------------------------------------------------------------------

KEY_CONJUNCTS = ["b.k = a.k", "a.k = b.k", "b.t = a.t", "b.k = a.v + 1"]
RESIDUAL_CONJUNCTS = ["b.v <> a.v", "b.v < a.v", "b.t >= a.t", "b.v = a.v",
                      "a.v > 2", "b.v IS NULL"]
INNER_CONJUNCTS = ["b.v > 1", "b.t <> 'a'", "b.v IS NOT NULL",
                   "b.k IN (1, 2, 3)"]
IN_PAIRS = [("a.v", "b.v"), ("a.t", "b.t"), ("a.k", "b.k + 1")]

rows_of = st.lists(st.tuples(int_values, int_values, text_values),
                   min_size=0, max_size=12)


@st.composite
def subquery_predicates(draw) -> str:
    conjuncts: list[str] = []
    if draw(st.booleans()):  # correlated: at least one equi key
        conjuncts += draw(st.lists(st.sampled_from(KEY_CONJUNCTS),
                                   min_size=1, max_size=2, unique=True))
        conjuncts += draw(st.lists(st.sampled_from(RESIDUAL_CONJUNCTS),
                                   max_size=2, unique=True))
    conjuncts += draw(st.lists(st.sampled_from(INNER_CONJUNCTS),
                               max_size=2, unique=True))
    conjuncts = draw(st.permutations(conjuncts))
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    negated = draw(st.booleans())
    if draw(st.booleans()):
        text = f"EXISTS (SELECT 1 FROM b{where})"
        return f"NOT {text}" if negated else text
    outer, inner = draw(st.sampled_from(IN_PAIRS))
    if negated and draw(st.booleans()):
        return f"NOT ({outer} IN (SELECT {inner} FROM b{where}))"
    operator = "NOT IN" if negated else "IN"
    return f"{outer} {operator} (SELECT {inner} FROM b{where})"


@st.composite
def queries(draw) -> str:
    predicate = draw(subquery_predicates())
    position = draw(st.sampled_from(
        ["where", "where-and", "select", "or", "case"]))
    if position == "where":
        return f"SELECT a.k, a.v, a.t FROM a WHERE {predicate}"
    if position == "where-and":
        return f"SELECT a.k FROM a WHERE a.v IS NOT NULL AND {predicate}"
    if position == "select":
        return f"SELECT a.k, a.t, {predicate} FROM a"
    if position == "or":
        return f"SELECT a.k, a.v FROM a WHERE a.v = 2 OR {predicate}"
    return (f"SELECT a.k, CASE WHEN {predicate} THEN 'y' "
            f"WHEN NOT ({predicate}) THEN 'n' ELSE 'u' END FROM a")


def _as_sqlite(value):
    """sqlite has no boolean type: truth values come back as 0/1."""
    return int(value) if isinstance(value, bool) else value


@given(a_rows=rows_of, b_rows=rows_of, sql=queries(),
       vectorized=st.booleans(), planned=st.booleans())
@settings(max_examples=150, deadline=None)
def test_subquery_predicates_match_sqlite(a_rows, b_rows, sql, vectorized,
                                          planned):
    db = Database(planner=PlannerOptions(enabled=planned),
                  vectorized=vectorized)
    oracle = sqlite3.connect(":memory:")
    for name, rows in (("a", a_rows), ("b", b_rows)):
        db.execute(f"CREATE TABLE {name} (k INTEGER, v INTEGER, t TEXT)")
        oracle.execute(f"CREATE TABLE {name} (k INTEGER, v INTEGER, t TEXT)")
        table = db.catalog.table(name)
        for row in rows:
            table.insert_row(dict(zip(("k", "v", "t"), row)))
        oracle.executemany(f"INSERT INTO {name} VALUES (?, ?, ?)", rows)
    got = Counter(tuple(_as_sqlite(value) for value in row)
                  for row in db.query(sql).rows)
    assert got == Counter(oracle.execute(sql).fetchall()), sql


# ---------------------------------------------------------------------------
# ex4.6: the paper's REPLACEVARIABLE rewrite
# ---------------------------------------------------------------------------


def test_ex46_hash_probe_matches_nested_path(monkeypatch):
    """Same rows in the same order as the per-row subquery, forced by
    writing the key as ``NOT (a <> b)`` (not an equi conjunct)."""
    databank = scaled_databank(400)
    engine = bench_engine(databank)
    seen: dict = {}
    execute_ast = Database.execute_ast

    def both_paths(self, stmt):
        sql = render_query(stmt)
        nested = sql.replace("(__rv.c0 = Elecond2.elem_name)",
                             "NOT (__rv.c0 <> Elecond2.elem_name)")
        assert nested != sql
        seen["nested_plan"] = kinds(self.explain(nested))
        seen["nested"] = execute_ast(self, parse_sql(nested)).rows
        result = execute_ast(self, stmt)
        seen["hashed_plan"] = kinds(self.last_plan)
        seen["hashed"] = result.rows
        return result

    monkeypatch.setattr(Database, "execute_ast", both_paths)
    engine.execute(EX46)
    assert "semi-join" in seen["hashed_plan"]
    assert "semi-join" not in seen["nested_plan"]
    assert len(seen["hashed"]) > 10_000
    assert seen["hashed"] == seen["nested"]


def test_ex46_explain_analyze_scans_the_pairs_table_once():
    session = repro.connect(bench_engine(scaled_databank(150)))
    planned = session.explain(EX46, analyze=True).db_plan
    semi = node_of(planned, "semi-join")
    assert semi.detail == ("hash key: __rv.c0 = Elecond2.elem_name; "
                           "residual: (Elecond1.elem_name <> __rv.c1)")
    assert semi.est_rows is not None
    assert semi.actual_rows == planned.root.actual_rows > 0
    build = semi.children[1]
    assert build.kind == "scan" and "__sesql_pairs" in build.label
    # One build scan of the 28 extracted pairs — the per-row path read
    # them once per outer row pair.
    assert build.actual_rows == 28
    assert all(node.est_rows is not None for node in planned.root.walk()
               if node.kind in ("filter", "semi-join"))


# ---------------------------------------------------------------------------
# NaN never matches (values_equal(nan, nan) is False)
# ---------------------------------------------------------------------------


def nan_table(planner=None, extra: int = 0, index: str | None = None):
    db = Database(planner=planner)
    db.execute("CREATE TABLE t (id INTEGER, x REAL)")
    table = db.catalog.table("t")
    table.insert_row({"id": 1, "x": NAN})
    table.insert_row({"id": 2, "x": 1.0})
    for offset in range(extra):
        table.insert_row({"id": 10 + offset, "x": 100.0 + offset})
    if index is not None:
        db.execute(f"CREATE INDEX t_x ON t (x) USING {index}")
    return db


def test_nan_never_matches_in_hash_join():
    db = nan_table()
    sql = "SELECT a.id, b.id FROM t a JOIN t b ON a.x = b.x"
    assert "hash-join" in kinds(db.explain(sql))
    assert db.query(sql).rows == [(2, 2)]
    assert db.query("SELECT id FROM t WHERE x = x").rows == [(2,)]


@pytest.mark.parametrize("index", ["HASH", "SORTED"])
def test_nan_never_matches_in_index_probe_join(index):
    # No plan and a large indexed inner table: the executor probes.
    db = nan_table(PlannerOptions(enabled=False), extra=100, index=index)
    sql = "SELECT a.id, b.id FROM t a JOIN t b ON a.x = b.x WHERE a.id < 3"
    assert db.query(sql).rows == [(2, 2)]


def test_nan_never_matches_in_semi_join():
    db = nan_table()
    assert db.query("SELECT id FROM t a WHERE EXISTS "
                    "(SELECT 1 FROM t b WHERE b.x = a.x)").rows == [(2,)]
    assert db.query("SELECT id FROM t WHERE x IN "
                    "(SELECT x FROM t)").rows == [(2,)]
    assert db.query("SELECT id FROM t WHERE x NOT IN "
                    "(SELECT x FROM t)").rows == [(1,)]
    assert db.query("SELECT id, x IN (SELECT b.x FROM t b WHERE b.id = t.id)"
                    " FROM t").rows == [(1, False), (2, True)]


def test_hash_index_skips_nan_keys():
    db = nan_table(index="HASH")
    index = db.catalog.table("t").indexes["t_x"]
    assert index.lookup((NAN,)) == set()
    assert len(index) == 1
