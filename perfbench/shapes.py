"""Query shapes and the outside-the-engine oracle that checks them.

Every shape is one of the canonical SmartGround SESQL queries
(``repro.smartground.queries.WORKLOAD``).  Next to the SESQL text the
benchmark keeps its own description of what the answer must be:

* the SQL part and the WHERE semantics as a ``sqlite3`` query
  (REPLACECONSTANT is an ``IN`` over the extracted values,
  REPLACEVARIABLE an ``EXISTS`` over the extracted pairs);
* the SELECT enrichments as a naive nested-loop join of the SQL rows
  with the knowledge-base triples.

Neither uses the engine's parser, SPARQL evaluator, rewriter or
JoinManager, so a shared misconception cannot pass both sides.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from dataclasses import dataclass

from repro.smartground.queries import WORKLOAD

SMG_NS = "http://smartground.eu/ns#"


@dataclass(frozen=True)
class Shape:
    """One query shape: SESQL template, oracle SQL and enrichments."""

    name: str
    #: SESQL text; ``{c}`` marks the one constant a request may vary.
    template: str
    #: The SQL part with WHERE semantics, for sqlite (``?`` = constant).
    oracle_sql: str
    #: The canonical constant, rendered as SQL (None: shape has none).
    canonical: str | None = None
    #: ("values", prop, concept) / ("pairs", prop) knowledge the WHERE
    #: clause reads from the KB, as sqlite tables kb_values / kb_pairs.
    where_kb: tuple | None = None
    #: SELECT enrichments in clause order: (kind, attr, prop, concept).
    select: tuple = ()
    #: Output ordering the answer must respect: (column, descending).
    order: tuple = ()

    @property
    def canonical_value(self):
        """The canonical constant as a Python value."""
        if self.canonical is None:
            return None
        if self.canonical.startswith("'"):
            return self.canonical.strip("'")
        return float(self.canonical) if "." in self.canonical \
            else int(self.canonical)

    def text(self, constant: str | None = None) -> str:
        """The SESQL text with *constant* (SQL-rendered) inlined."""
        if self.canonical is None:
            return self.template
        return self.template.replace("{c}", constant or self.canonical)

    def parameterized(self) -> str:
        """The SESQL text with a ``?`` slot for the constant."""
        return self.template.replace("{c}", "?")


_ORACLE = {
    "ex4.1-schema-extension": dict(
        canonical="'lf0000'",
        oracle_sql="SELECT elem_name, landfill_name FROM elem_contained "
                   "WHERE landfill_name = ?",
        select=(("ext", "elem_name", "dangerLevel", None),)),
    "ex4.2-schema-replacement": dict(
        oracle_sql="SELECT name, city FROM landfill",
        select=(("repl", "city", "inCountry", None),)),
    "ex4.3-bool-extension": dict(
        canonical="'lf0000'",
        oracle_sql="SELECT elem_name FROM elem_contained "
                   "WHERE landfill_name = ?",
        select=(("boolext", "elem_name", "isA", "HazardousWaste"),)),
    "ex4.4-bool-replacement": dict(
        oracle_sql="SELECT name, city FROM landfill",
        select=(("boolrepl", "city", "inCountry", "Italy"),)),
    "ex4.5-replace-constant": dict(
        oracle_sql="SELECT landfill_name FROM elem_contained "
                   "WHERE elem_name IN (SELECT v FROM kb_values)",
        where_kb=("values", "isA", "HazardousWaste")),
    "ex4.6-replace-variable": dict(
        oracle_sql="SELECT e1.landfill_name AS l_name1, "
                   "e2.landfill_name AS l_name2, e1.elem_name "
                   "FROM elem_contained e1, elem_contained e2 "
                   "WHERE EXISTS (SELECT 1 FROM kb_pairs p "
                   "WHERE p.s = e2.elem_name AND e1.elem_name <> p.o) "
                   "AND e1.landfill_name <> e2.landfill_name",
        where_kb=("pairs", "oreAssemblage")),
    "what-is-available-where": dict(
        canonical="5.0",
        oracle_sql="SELECT elem_name, landfill_name, amount "
                   "FROM elem_contained WHERE amount > ?",
        select=(("ext", "elem_name", "dangerLevel", None),)),
    "quality-across-landfills": dict(
        oracle_sql="SELECT elem_name, landfill_name, purity "
                   "FROM elem_contained ORDER BY elem_name, purity DESC",
        select=(("boolext", "elem_name", "isA", "HazardousWaste"),),
        order=((0, False), (2, True))),
    "hazard-hotspots": dict(
        oracle_sql="SELECT landfill_name, COUNT(*) AS hazards "
                   "FROM elem_contained "
                   "WHERE elem_name IN (SELECT v FROM kb_values) "
                   "GROUP BY landfill_name ORDER BY hazards DESC",
        where_kb=("values", "isA", "HazardousWaste"),
        order=((1, True),)),
    "country-level-rollup": dict(
        canonical="50000",
        oracle_sql="SELECT name, city FROM landfill WHERE area_m2 > ?",
        select=(("repl", "city", "inCountry", None),)),
}


def _build_shapes() -> dict[str, Shape]:
    shapes = {}
    for query in WORKLOAD:
        spec = dict(_ORACLE[query.name])
        template = query.sesql
        canonical = spec.get("canonical")
        if canonical is not None:
            if template.count(canonical) != 1:
                raise ValueError(f"{query.name}: constant {canonical} "
                                 "must occur exactly once")
            template = template.replace(canonical, "{c}")
        shapes[query.name] = Shape(query.name, template, **spec)
    return shapes


SHAPES: dict[str, Shape] = _build_shapes()


# -- knowledge-base side ------------------------------------------------------

def sql_value(term):
    """An RDF term as the SQL value it joins with (local name / literal)."""
    value = getattr(term, "value", term)
    if isinstance(value, str) and value.startswith(SMG_NS):
        return value[len(SMG_NS):]
    return value


class KBIndex:
    """Triples of one knowledge base, indexed by property local name."""

    def __init__(self, triples) -> None:
        self._by_prop: dict[str, list[tuple]] = {}
        for subject, predicate, obj in triples:
            self._by_prop.setdefault(sql_value(predicate), []).append(
                (subject, obj))

    def pairs(self, prop: str) -> list[tuple]:
        return [(sql_value(s), sql_value(o))
                for s, o in self._by_prop.get(prop, ())]

    def subjects(self, prop: str, concept: str) -> set:
        # The concept matches as an IRI in the SmartGround namespace or
        # as a plain literal, like a user's statement may write it.
        return {sql_value(s) for s, o in self._by_prop.get(prop, ())
                if getattr(o, "value", None) in (SMG_NS + concept, concept)}


# -- the oracle ---------------------------------------------------------------

class Oracle:
    """sqlite3 copy of the databank plus a KB index, answering shapes."""

    def __init__(self, tables: dict[str, list[dict]]) -> None:
        self.conn = sqlite3.connect(":memory:")
        self.conn.execute("PRAGMA temp_store = MEMORY")
        self.conn.execute(
            "CREATE TABLE landfill (id INTEGER, name TEXT, city TEXT, "
            "landfill_type TEXT, area_m2 REAL, opened_year INTEGER)")
        self.conn.execute(
            "CREATE TABLE elem_contained (landfill_name TEXT, "
            "elem_name TEXT, amount REAL, purity REAL)")
        self.conn.execute("CREATE TABLE kb_values (v)")
        self.conn.execute("CREATE TABLE kb_pairs (s, o)")
        for table, rows in tables.items():
            self.insert(table, rows)

    def insert(self, table: str, rows: list[dict]) -> None:
        if not rows:
            return
        columns = list(rows[0])
        self.conn.executemany(
            f"INSERT INTO {table} ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)})",
            [tuple(row[c] for c in columns) for row in rows])

    def execute(self, sql: str, params=()) -> None:
        self.conn.execute(sql, params)

    def _load_kb(self, shape: Shape, kb: KBIndex) -> None:
        self.conn.execute("DELETE FROM kb_values")
        self.conn.execute("DELETE FROM kb_pairs")
        if shape.where_kb is None:
            return
        if shape.where_kb[0] == "values":
            _kind, prop, concept = shape.where_kb
            self.conn.executemany("INSERT INTO kb_values VALUES (?)",
                                  [(v,) for v in kb.subjects(prop, concept)])
        else:
            self.conn.executemany("INSERT INTO kb_pairs VALUES (?, ?)",
                                  kb.pairs(shape.where_kb[1]))

    def sql_rows(self, shape: Shape, kb: KBIndex, constant=None):
        """The SQL part's rows and column names, computed by sqlite."""
        self._load_kb(shape, kb)
        params = () if shape.canonical is None else (constant,)
        cursor = self.conn.execute(shape.oracle_sql, params)
        columns = [d[0] for d in cursor.description]
        return columns, cursor.fetchall()

    def answer(self, shape: Shape, kb: KBIndex, constant=None):
        """The enriched answer: (columns, rows)."""
        columns, rows = self.sql_rows(shape, kb, constant)
        for kind, attr, prop, concept in shape.select:
            columns, rows = _naive_enrich(columns, rows, kind, attr, prop,
                                          concept, kb)
        return columns, rows

    def close(self) -> None:
        self.conn.close()


def _naive_enrich(columns, rows, kind, attr, prop, concept, kb: KBIndex):
    index = columns.index(attr)
    out = []
    if kind in ("ext", "repl"):
        pairs = kb.pairs(prop)
        for row in rows:
            matches = [o for s, o in pairs if s == row[index]] or [None]
            for value in matches:
                if kind == "ext":
                    out.append(tuple(row) + (value,))
                else:
                    out.append(row[:index] + (value,) + row[index + 1:])
        new_column = prop
    else:
        subjects = kb.subjects(prop, concept)
        for row in rows:
            flag = row[index] in subjects
            if kind == "boolext":
                out.append(tuple(row) + (flag,))
            else:
                out.append(row[:index] + (flag,) + row[index + 1:])
        new_column = f"{prop}_{concept}"
    if kind in ("ext", "boolext"):
        columns = columns + [new_column]
    else:
        columns = columns[:index] + [new_column] + columns[index + 1:]
    return columns, out


def mismatch(shape: Shape, expected, columns, rows) -> str | None:
    """Why an engine answer differs from the oracle's (None: it agrees)."""
    want_columns, want_rows = expected
    if list(columns) != list(want_columns):
        return f"columns {list(columns)} != {list(want_columns)}"
    got = Counter(tuple(row) for row in rows)
    want = Counter(tuple(row) for row in want_rows)
    if got != want:
        missing = sum((want - got).values())
        extra = sum((got - want).values())
        return (f"{len(rows)} rows vs {len(want_rows)} expected "
                f"({missing} missing, {extra} unexpected)")
    for position in range(1, len(rows)):
        if _out_of_order(shape.order, rows[position - 1], rows[position]):
            return f"row {position} breaks the ORDER BY"
    return None


def _out_of_order(order, before, after) -> bool:
    for column, descending in order:
        a, b = before[column], after[column]
        if a == b:
            continue
        return (a < b) if descending else (a > b)
    return False

