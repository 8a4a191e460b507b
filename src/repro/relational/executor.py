"""Query planning and execution.

``compile_query`` turns a SELECT AST into a :class:`QueryPlan` whose
``run(outer_rows)`` produces result tuples.  Compilation happens once.
EXISTS / IN subqueries with an equality key to the outer query (or an
uncorrelated IN) run as hash semi-join probes over a build side that
runs once; other correlated subqueries re-run the compiled plan per
outer row, and uncorrelated ones are cached after their first
execution.

The physical operators are deliberately simple (hash joins when the ON
clause has equi-conjuncts, nested loops otherwise; hash aggregation; sort
via Python's timsort), which keeps behaviour easy to validate against the
paper's semantics while still scaling to the benchmark sizes.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator

from . import ast
from .batch import BATCH_SIZE, run_vector_aggregate
from .catalog import Catalog
from .compiler import (CompileContext, compile_expr, compile_predicate,
                       membership, resolve_column)
from .aggregates import AGGREGATE_NAMES, make_aggregate
from .errors import (AmbiguousColumnError, ExecutionError,
                     NotSupportedError, SchemaError, UnknownColumnError)
from .indexes import _normalize, equi_key
from .schema import ResultColumn, RowSchema
from .table import Table, find_probe_index
from .types import DataType, is_true, sort_key, values_equal
from .render import render_expr
from .vectors import compile_filter_kernel, fallback_reason

#: Without a cost-based decision, equi-joins probe an index on the
#: inner table only when it is at least this large — below that, an
#: in-memory hash build is as fast and has no per-lookup overhead.
INDEX_PROBE_THRESHOLD = 64

Rows = tuple
RowFn = Callable[[Rows], Any]


def _norm_tuple(values: Iterable[Any]) -> tuple:
    """Hashable, type-normalised key for grouping / distinct / set ops."""
    return tuple(_normalize(value) for value in values)


class QueryPlan:
    """A compiled query: output schema plus a lazy row stream.

    ``stream()`` produces rows on demand — operators above it (LIMIT in
    particular) pull only what they need, so ``LIMIT k`` terminates
    after *k* rows.  ``run()`` is the materializing wrapper every
    pre-streaming call site still uses.

    A vectorized plan additionally carries ``chunks`` — a generator of
    row-tuple *batches*.  ``stream()`` flattens chunks back to rows, so
    cursors, pagination and ``rows_yielded`` accounting never see the
    batch boundary; ``run()`` extends from chunks directly, skipping the
    per-row generator machinery entirely.
    """

    def __init__(self, schema: RowSchema,
                 stream: Callable[[Rows], Iterator[tuple]] | None = None,
                 chunks: Callable[[Rows], Iterator[list]] | None = None
                 ) -> None:
        self.schema = schema
        self.chunks = chunks
        #: Vectorized operator kinds used anywhere in this plan's tree
        #: (filled in by ``compile_query``; empty for inner plans).
        self.vectorized_ops: set[str] = set()
        #: ``(expression, reason)`` pairs for conjuncts a vectorized
        #: scan had to evaluate on the row path (hybrid plans).
        self.vectorized_fallbacks: list[tuple[str, str]] = []
        if stream is None:
            if chunks is None:
                raise ValueError("QueryPlan needs a stream or chunks")
            stream = self._flatten
        self._stream = stream

    def _flatten(self, outer_rows: Rows) -> Iterator[tuple]:
        for chunk in self.chunks(outer_rows):
            yield from chunk

    def stream(self, outer_rows: Rows = ()) -> Iterator[tuple]:
        return self._stream(outer_rows)

    def run(self, outer_rows: Rows = ()) -> list[tuple]:
        if self.chunks is not None:
            rows: list[tuple] = []
            for chunk in self.chunks(outer_rows):
                rows.extend(chunk)
            return rows
        return list(self._stream(outer_rows))


class SubPlan:
    """A compiled subquery usable from WHERE/SELECT expressions: it
    re-runs per outer row, or once when it is uncorrelated.  (An
    eligible EXISTS / IN subquery compiles to a :class:`_SemiJoin`
    instead.)"""

    def __init__(self, query: ast.SelectQuery, catalog: Catalog,
                 scopes: list[RowSchema], ctx: CompileContext) -> None:
        watcher = ctx.push_watcher()
        try:
            self.plan = compile_query(query, catalog, scopes, ctx)
        finally:
            ctx.pop_watcher()
        self.correlated = any(depth < len(scopes) for depth in watcher)
        self._cache: list[tuple] | None = None

    def rows(self, outer_rows: Rows) -> list[tuple]:
        if not self.correlated:
            if self._cache is None:
                self._cache = self.plan.run(outer_rows)
            return self._cache
        return self.plan.run(outer_rows)

    def scalar(self, outer_rows: Rows) -> Any:
        if len(self.plan.schema) != 1:
            raise ExecutionError(
                "scalar subquery must return exactly one column")
        rows = self.rows(outer_rows)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        return rows[0][0]

    def exists(self, outer_rows: Rows) -> bool:
        return bool(self.rows(outer_rows))

    def contains(self, value: Any, outer_rows: Rows) -> bool | None:
        if len(self.plan.schema) != 1:
            raise ExecutionError(
                "IN subquery must return exactly one column")
        return membership(value, [row[0] for row in self.rows(outer_rows)])


class _Candidates:
    """``x IN (...)`` against one non-empty candidate multiset, hashed:
    the answer of :func:`~repro.relational.compiler.membership` without
    the scan."""

    __slots__ = ("keys", "has_null")

    def __init__(self, values: list[Any]) -> None:
        self.keys: set[tuple] = set()
        self.has_null = False
        for value in values:
            key = equi_key((value,))
            if key is not None:
                self.keys.add(key)
            elif value is None:
                self.has_null = True  # a NaN candidate equals nothing

    def test(self, value: Any) -> bool | None:
        if value is None:
            return None
        if equi_key((value,)) in self.keys:  # NaN (None) never is
            return True
        return None if self.has_null else False


class _SemiJoin:
    """Hash semi-join probe for one decorrelated EXISTS / IN subquery.

    The build side (the subquery's FROM and its inner-only conjuncts)
    runs once, lazily on the first probe, into buckets keyed by
    :func:`~repro.relational.indexes.equi_key` of the inner key
    expressions.  A probe is a filter over the outer stream, not a
    join, so outer row order and multiplicity never change: it looks up
    the outer key's bucket and checks the residual only against that
    bucket's rows.  Both answers are the per-row subquery's exact
    three-valued ones.
    """

    def __init__(self, build_rows: Callable[[Rows], Iterator[tuple]],
                 inner_keys: list[RowFn], outer_keys: list[RowFn],
                 residual: Callable[[Rows], bool] | None,
                 item: RowFn | None, detail: str,
                 build_filter: ast.Expr | None) -> None:
        self._build_rows = build_rows
        self._inner_key = _key_function(inner_keys)
        self._outer_key = _key_function(outer_keys)
        self._residual = residual
        self._item = item
        #: EXPLAIN text: hash key, IN value and residual.
        self.detail = detail
        #: The inner-only conjuncts applied while building.
        self.build_filter = build_filter
        self._buckets: dict[tuple, Any] | None = None

    def _build(self, outer_rows: Rows) -> dict[tuple, Any]:
        buckets: dict[tuple, Any] = {}
        inner_key = self._inner_key
        for row in self._build_rows(outer_rows):
            key = inner_key(outer_rows + (row,))
            if key is not None:
                buckets.setdefault(key, []).append(row)
        item = self._item
        if item is not None and self._residual is None:
            # Every bucket row is a candidate: hash each bucket once.
            buckets = {key: _Candidates([item(outer_rows + (row,))
                                         for row in rows])
                       for key, rows in buckets.items()}
        self._buckets = buckets
        return buckets

    def _bucket(self, outer_rows: Rows) -> Any:
        buckets = self._buckets
        if buckets is None:
            buckets = self._build(outer_rows)
        # ``None`` (a NULL or NaN key) is never a bucket key.
        return buckets.get(self._outer_key(outer_rows))

    def exists(self, outer_rows: Rows) -> bool:
        bucket = self._bucket(outer_rows)
        if not bucket:
            return False
        residual = self._residual
        if residual is None:
            return True
        for row in bucket:
            if residual(outer_rows + (row,)):
                return True
        return False

    def contains(self, value: Any, outer_rows: Rows) -> bool | None:
        bucket = self._bucket(outer_rows)
        if bucket is None:
            return False  # no candidate at all, even for a NULL value
        residual = self._residual
        if residual is None:
            return bucket.test(value)
        candidates = []
        for row in bucket:
            scoped = outer_rows + (row,)
            if residual(scoped):
                candidates.append(self._item(scoped))
        return membership(value, candidates)


def _key_function(fns: list[RowFn]) -> Callable[[Rows], tuple | None]:
    """``rows -> equi_key`` of the expressions' values."""
    if not fns:
        return lambda rows: ()
    if len(fns) == 1:
        fn = fns[0]
        return lambda rows: equi_key((fn(rows),))
    return lambda rows: equi_key([fn(rows) for fn in fns])


def _scope_depths(expr: ast.Expr, scopes: list[RowSchema]) -> set[int] | None:
    """The scope depths *expr*'s columns resolve to, or ``None`` when
    that is not known statically (a nested subquery, or a name that
    does not resolve — compiling it raises the real error)."""
    depths: set[int] = set()
    for node in ast.walk_expr(expr):
        if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery,
                             ast.SlotRef)):
            return None
        if isinstance(node, ast.ColumnRef):
            try:
                depths.add(resolve_column(node, scopes)[0])
            except (UnknownColumnError, AmbiguousColumnError):
                return None
    return depths


def _key_pair(conjunct: ast.Expr, scopes: list[RowSchema]
              ) -> tuple[ast.Expr, ast.Expr] | None:
    """``(inner_expr, outer_expr)`` when *conjunct* is ``inner = outer``
    with inner_expr resolving only in the innermost scope and outer_expr
    only in enclosing ones (innermost binding wins, so a name that
    resolves inside is never outer)."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    inner = len(scopes) - 1
    for inner_expr, outer_expr in ((conjunct.left, conjunct.right),
                                   (conjunct.right, conjunct.left)):
        inner_depths = _scope_depths(inner_expr, scopes)
        outer_depths = _scope_depths(outer_expr, scopes)
        if inner_depths == {inner} and outer_depths \
                and max(outer_depths) < inner:
            return inner_expr, outer_expr
    return None


def _compile_semi_join(query: ast.SelectQuery, catalog: Catalog,
                       scopes: list[RowSchema], ctx: CompileContext,
                       predicate: str) -> _SemiJoin | None:
    """Decorrelate an EXISTS / IN subquery into a hash semi-join probe,
    or return ``None`` to keep the per-row path.

    Eligible: one plain core with a FROM and no GROUP BY, HAVING,
    aggregate, ORDER BY, LIMIT or OFFSET, and either a WHERE conjunct
    ``inner = outer`` (see :func:`_key_pair`) or, for IN, no
    correlation at all.  The other conjuncts split into inner-only ones,
    which filter the build side once (vectorized where they can be),
    and a residual checked against each matching bucket row.  So the
    inner-only conjuncts see every build row: one that raises (say,
    division by zero) on a row no outer key reaches raises here, where
    the per-row path could short-circuit on the key first — SQL leaves
    conjunct evaluation order unspecified.
    """
    core = query.core
    if query.is_compound or query.order_by or query.limit is not None \
            or query.offset is not None or core.from_clause is None \
            or core.group_by or core.having is not None \
            or any(_contains_aggregate(item.expr) for item in core.items):
        return None
    item: ast.Expr | None = None
    if predicate == "in":
        if len(core.items) != 1 or core.items[0].is_star:
            return None
        item = core.items[0].expr
    conjuncts = ast.conjuncts(core.where)
    if item is None and not any(isinstance(conjunct, ast.BinaryOp)
                                and conjunct.op == "="
                                for conjunct in conjuncts):
        return None

    inner = len(scopes)
    watcher = ctx.push_watcher()
    try:
        from_plan = _compile_from(core, catalog, scopes, ctx)
        inner_scopes = scopes + [from_plan.schema]
        keys: list[tuple[ast.Expr, ast.Expr]] = []
        build: list[ast.Expr] = []
        residual: list[ast.Expr] = []
        for conjunct in conjuncts:
            depths = _scope_depths(conjunct, inner_scopes)
            if depths is not None and depths <= {inner}:
                build.append(conjunct)
                continue
            pair = _key_pair(conjunct, inner_scopes)
            if pair is not None:
                keys.append(pair)
            else:
                residual.append(conjunct)
        item_depths = (_scope_depths(item, inner_scopes)
                       if item is not None else set())
        if item_depths is None or not item_depths <= {inner}:
            return None  # an IN value reading outer columns: per row
        if not keys and (item is None or residual):
            return None
        build_filter = ast.conjoin(build)
        build_rows, _batch = _compile_input(core, build_filter, from_plan,
                                            inner_scopes, catalog, ctx)
    finally:
        ctx.pop_watcher()
    if any(depth < inner for depth in watcher):
        return None  # a derived table in FROM reads outer columns

    residual_expr = ast.conjoin(residual)
    residual_fn = (compile_predicate(residual_expr, inner_scopes, ctx)
                   if residual_expr is not None else None)
    item_fn = None
    if item is not None:
        item_fn = compile_expr(item, inner_scopes, ctx)
    else:
        # EXISTS ignores its select list, which must still compile.
        for select_item, star in _expand_items(core.items, from_plan.schema):
            if star is None:
                compile_expr(select_item.expr, inner_scopes, ctx)
    parts = []
    if keys:
        parts.append("hash key: " + ", ".join(
            f"{render_expr(inner_expr)} = {render_expr(outer_expr)}"
            for inner_expr, outer_expr in keys))
    if item is not None:
        parts.append(f"IN value: {render_expr(item)}")
    if residual_expr is not None:
        parts.append(f"residual: {render_expr(residual_expr)}")
    return _SemiJoin(
        build_rows,
        [compile_expr(inner_expr, inner_scopes, ctx)
         for inner_expr, _outer in keys],
        [compile_expr(outer_expr, scopes, ctx) for _inner, outer_expr in keys],
        residual_fn, item_fn, "; ".join(parts), build_filter)


def _make_context(catalog: Catalog, planned=None, vectorize: bool = True,
                  exec_hooks=None) -> CompileContext:
    ctx = CompileContext(subplan_factory=None,  # type: ignore[arg-type]
                         planned=planned, vectorize=vectorize,
                         exec_hooks=exec_hooks)

    def factory(query: ast.SelectQuery, scopes: list[RowSchema],
                predicate: str | None = None) -> "SubPlan | _SemiJoin":
        plan = None
        if predicate is not None:
            plan = _compile_semi_join(query, catalog, scopes, ctx, predicate)
        if plan is None:
            plan = SubPlan(query, catalog, scopes, ctx)
        node = ctx.plan_node(query)
        if node is not None:
            _label_probe(node, query, plan, ctx)
        return plan

    ctx.subplan_factory = factory
    return ctx


def _label_probe(node, query: ast.SelectQuery, plan: "SubPlan | _SemiJoin",
                 ctx: CompileContext) -> None:
    """Record on the planner's probe operator how it runs."""
    if isinstance(plan, SubPlan):
        node.kind = "filter"
        node.detail = ("subquery per row" if plan.correlated
                       else "subquery once")
        return
    node.detail = plan.detail
    # The planner traced the subquery's whole WHERE as a filter over its
    # FROM; the build side only applies the inner-only conjuncts.
    traced = ctx.plan_node(query.core)
    for index, child in enumerate(node.children):
        if child is traced:
            if plan.build_filter is None:
                node.children[index:index + 1] = traced.children
            else:
                traced.label = "build WHERE"
                traced.detail = render_expr(plan.build_filter)
            break


def _counted(run: Callable[[Rows], Iterator[tuple]],
             node) -> Callable[[Rows], Iterator[tuple]]:
    """Wrap an operator's row stream with the plan node's row counter."""

    def counted(outer_rows: Rows) -> Iterator[tuple]:
        for row in run(outer_rows):
            node.count(1)
            yield row
    return counted


def _maybe_instrument(plan: FromPlan, ast_node,
                      ctx: CompileContext) -> FromPlan:
    node = ctx.counter_for(ast_node)
    if node is None:
        return plan
    return FromPlan(plan.schema, _counted(plan.run, node))


# ---------------------------------------------------------------------------
# FROM clause compilation
# ---------------------------------------------------------------------------

class FromPlan:
    def __init__(self, schema: RowSchema,
                 run: Callable[[Rows], Iterator[tuple]]) -> None:
        self.schema = schema
        self.run = run


def _collect_bindings(table_expr: ast.TableExpr, seen: set[str]) -> None:
    if isinstance(table_expr, ast.TableRef):
        name = table_expr.binding.lower()
        if name in seen:
            raise SchemaError(f"duplicate table alias {table_expr.binding!r}")
        seen.add(name)
    elif isinstance(table_expr, ast.SubqueryRef):
        name = table_expr.alias.lower()
        if name in seen:
            raise SchemaError(f"duplicate table alias {table_expr.alias!r}")
        seen.add(name)
    elif isinstance(table_expr, ast.Join):
        _collect_bindings(table_expr.left, seen)
        _collect_bindings(table_expr.right, seen)


def compile_table_expr(table_expr: ast.TableExpr, catalog: Catalog,
                       outer_scopes: list[RowSchema],
                       ctx: CompileContext) -> FromPlan:
    if isinstance(table_expr, ast.TableRef):
        table = catalog.table(table_expr.name)
        schema = RowSchema.for_table(table.schema, table_expr.binding)

        def scan(outer_rows: Rows) -> Iterator[tuple]:
            # Lazy: no snapshot copy.  Safe because SELECTs run under
            # the database's read lock (writers excluded) and DML
            # inner SELECTs (INSERT ... SELECT) materialize via run()
            # before mutating.
            return iter(table.rows())
        return _maybe_instrument(FromPlan(schema, scan), table_expr, ctx)

    if isinstance(table_expr, ast.SubqueryRef):
        plan = compile_query(table_expr.query, catalog, outer_scopes, ctx)
        schema = RowSchema([
            ResultColumn(column.name, table_expr.alias, column.data_type)
            for column in plan.schema.columns
        ])

        def scan_subquery(outer_rows: Rows) -> Iterator[tuple]:
            return plan.stream(outer_rows)
        return _maybe_instrument(FromPlan(schema, scan_subquery),
                                 table_expr, ctx)

    if isinstance(table_expr, ast.Join):
        return _maybe_instrument(
            _compile_join(table_expr, catalog, outer_scopes, ctx),
            table_expr, ctx)

    raise NotSupportedError(
        f"cannot compile {type(table_expr).__name__} in FROM")


def _try_compile(expr: ast.Expr, scopes: list[RowSchema],
                 ctx: CompileContext) -> RowFn | None:
    try:
        return compile_expr(expr, scopes, ctx)
    except UnknownColumnError:
        return None


def _innermost_position(expr: ast.Expr | None,
                        scopes: list[RowSchema]) -> int | None:
    """The column position of *expr* when it is a plain reference into
    the innermost scope (and not, say, a correlated outer column)."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    try:
        depth, position = resolve_column(expr, scopes)
    except UnknownColumnError:  # pragma: no cover - caller pre-compiled
        return None
    if depth != len(scopes) - 1:
        return None
    return position


def _plan_index_probe(join: ast.Join, catalog: Catalog,
                      ctx: CompileContext,
                      right_positions: list[int | None]):
    """Decide whether this equi-join should probe an index on the inner
    table instead of building a hash table.

    The planner's per-join strategy (when a plan is attached) wins; with
    no plan, a probe is used when a matching index exists and the inner
    table is large enough that the per-lookup overhead pays off.
    Returns ``(index, covered_pair_indices, table)`` or ``None``.
    """
    if not isinstance(join.right, ast.TableRef):
        return None
    plan_node = ctx.plan_node(join)
    forced = plan_node.kind if plan_node is not None else None
    if forced in ("hash-join", "nested-loop", "cross-join"):
        return None  # the cost model already rejected a probe
    table = catalog.table(join.right.name)
    if not isinstance(table, Table):
        return None  # foreign tables expose no local indexes
    candidates = [(pair_index, position)
                  for pair_index, position in enumerate(right_positions)
                  if position is not None]
    if not candidates:
        return None
    column_names = [table.schema.columns[position].name
                    for _pair, position in candidates]
    found = find_probe_index(table, column_names)
    if found is None:
        return None
    if forced != "index-join" and len(table) < INDEX_PROBE_THRESHOLD:
        return None
    index, covered_positions = found
    covered = [candidates[i][0] for i in covered_positions]
    return index, covered, table


def _compile_join(join: ast.Join, catalog: Catalog,
                  outer_scopes: list[RowSchema],
                  ctx: CompileContext) -> FromPlan:
    left = compile_table_expr(join.left, catalog, outer_scopes, ctx)
    right = compile_table_expr(join.right, catalog, outer_scopes, ctx)
    combined = left.schema.extended(right.schema)
    left_scopes = outer_scopes + [left.schema]
    right_scopes = outer_scopes + [right.schema]
    combined_scopes = outer_scopes + [combined]
    pad = (None,) * len(right.schema)

    if join.join_type == "CROSS" or join.condition is None:
        if join.join_type == "LEFT":
            raise ExecutionError("LEFT JOIN requires an ON condition")

        def cross(outer_rows: Rows) -> Iterator[tuple]:
            right_rows = list(right.run(outer_rows))
            for left_row in left.run(outer_rows):
                for right_row in right_rows:
                    yield left_row + right_row
        return FromPlan(combined, cross)

    # Split the ON condition into hashable equi-conjuncts and a residual.
    equi_pairs: list[tuple[RowFn, RowFn]] = []
    # Per pair: the inner-table column position when the right side is a
    # plain reference into the inner scan (an index-probe candidate).
    equi_right_positions: list[int | None] = []
    residual: list[ast.Expr] = []
    for conjunct in ast.conjuncts(join.condition):
        pair = None
        right_ast = None
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            left_fn = _try_compile(conjunct.left, left_scopes, ctx)
            right_fn = _try_compile(conjunct.right, right_scopes, ctx)
            if left_fn is not None and right_fn is not None:
                pair = (left_fn, right_fn)
                right_ast = conjunct.right
            else:
                left_fn = _try_compile(conjunct.right, left_scopes, ctx)
                right_fn = _try_compile(conjunct.left, right_scopes, ctx)
                if left_fn is not None and right_fn is not None:
                    pair = (left_fn, right_fn)
                    right_ast = conjunct.left
        if pair is not None:
            equi_pairs.append(pair)
            equi_right_positions.append(
                _innermost_position(right_ast, right_scopes))
        else:
            residual.append(conjunct)

    residual_expr = ast.conjoin(residual)
    residual_fn = (compile_predicate(residual_expr, combined_scopes, ctx)
                   if residual_expr is not None else None)
    is_left_join = join.join_type == "LEFT"

    if equi_pairs:
        left_keys = [pair[0] for pair in equi_pairs]
        right_keys = [pair[1] for pair in equi_pairs]

        probe = _plan_index_probe(join, catalog, ctx, equi_right_positions)
        if probe is not None:
            index, covered, probe_table = probe
            # A HashIndex bucket key is exact (same normalization as
            # values_equal), so covered positions need no recheck; a
            # SortedIndex coerces keys to float, which collapses
            # integers beyond 2**53 — every candidate must be verified.
            if getattr(index, "kind", None) == "hash":
                verify = [i for i in range(len(equi_pairs))
                          if i not in covered]
            else:
                verify = list(range(len(equi_pairs)))

            def index_probe_join(outer_rows: Rows) -> Iterator[tuple]:
                for left_row in left.run(outer_rows):
                    key_rows = outer_rows + (left_row,)
                    values = [fn(key_rows) for fn in left_keys]
                    matched = False
                    if equi_key(values) is not None:
                        key = tuple(values[i] for i in covered)
                        for row_id in sorted(index.lookup(key)):
                            right_row = probe_table.row(row_id)
                            inner_rows = outer_rows + (right_row,)
                            if any(not is_true(values_equal(
                                    values[i], right_keys[i](inner_rows)))
                                    for i in verify):
                                continue
                            combined_row = left_row + right_row
                            if residual_fn is None or residual_fn(
                                    outer_rows + (combined_row,)):
                                matched = True
                                yield combined_row
                    if is_left_join and not matched:
                        yield left_row + pad
            return FromPlan(combined, index_probe_join)

        def hash_join(outer_rows: Rows) -> Iterator[tuple]:
            buckets: dict[tuple, list[tuple]] = {}
            for right_row in right.run(outer_rows):
                key_rows = outer_rows + (right_row,)
                key = equi_key([fn(key_rows) for fn in right_keys])
                if key is not None:  # NULL and NaN never match
                    buckets.setdefault(key, []).append(right_row)
            for left_row in left.run(outer_rows):
                key_rows = outer_rows + (left_row,)
                key = equi_key([fn(key_rows) for fn in left_keys])
                matched = False
                if key is not None:
                    for right_row in buckets.get(key, ()):
                        combined_row = left_row + right_row
                        if residual_fn is None or residual_fn(
                                outer_rows + (combined_row,)):
                            matched = True
                            yield combined_row
                if is_left_join and not matched:
                    yield left_row + pad
        return FromPlan(combined, hash_join)

    condition_fn = compile_predicate(join.condition, combined_scopes, ctx)

    def nested_loop(outer_rows: Rows) -> Iterator[tuple]:
        right_rows = list(right.run(outer_rows))
        for left_row in left.run(outer_rows):
            matched = False
            for right_row in right_rows:
                combined_row = left_row + right_row
                if condition_fn(outer_rows + (combined_row,)):
                    matched = True
                    yield combined_row
            if is_left_join and not matched:
                yield left_row + pad
    return FromPlan(combined, nested_loop)


# ---------------------------------------------------------------------------
# Aggregation rewriting
# ---------------------------------------------------------------------------

class _AggregateRewriter:
    """Rewrites expressions over grouped input into slot references.

    Slots 0..G-1 hold the group keys, slots G.. hold aggregate results.
    """

    def __init__(self, group_exprs: list[ast.Expr],
                 outer_depth: int, scopes: list[RowSchema],
                 ctx: CompileContext) -> None:
        self.group_keys = {ast.node_key(expr): index
                           for index, expr in enumerate(group_exprs)}
        self.group_count = len(group_exprs)
        self.aggregates: list[ast.FunctionCall] = []
        self._agg_slots: dict[Any, int] = {}
        self.outer_depth = outer_depth
        self.scopes = scopes
        self.ctx = ctx

    def rewrite(self, expr: ast.Expr) -> ast.Expr:
        key = ast.node_key(expr)
        if key in self.group_keys:
            return ast.SlotRef(self.group_keys[key])
        if isinstance(expr, ast.FunctionCall) \
                and expr.name.upper() in AGGREGATE_NAMES:
            if key in self._agg_slots:
                slot = self._agg_slots[key]
            else:
                slot = self.group_count + len(self.aggregates)
                self.aggregates.append(expr)
                self._agg_slots[key] = slot
            return ast.SlotRef(slot)
        if isinstance(expr, ast.ColumnRef):
            depth, _position = resolve_column(expr, self.scopes)
            if depth < self.outer_depth:
                return expr  # correlated outer reference: constant per run
            raise ExecutionError(
                f"column {expr.display()!r} must appear in GROUP BY "
                "or be used in an aggregate")
        if isinstance(expr, (ast.Literal, ast.SlotRef)):
            return expr
        if isinstance(expr, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            # Subqueries in grouped context may only reference group slots
            # through correlation, which we conservatively do not rewrite.
            return expr
        return self._rebuild(expr)

    def _rebuild(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(expr.op, self.rewrite(expr.operand))
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(expr.op, self.rewrite(expr.left),
                                self.rewrite(expr.right))
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(self.rewrite(expr.operand), expr.negated)
        if isinstance(expr, ast.Like):
            return ast.Like(self.rewrite(expr.operand),
                            self.rewrite(expr.pattern), expr.negated)
        if isinstance(expr, ast.InList):
            return ast.InList(self.rewrite(expr.operand),
                              [self.rewrite(item) for item in expr.items],
                              expr.negated)
        if isinstance(expr, ast.Between):
            return ast.Between(self.rewrite(expr.operand),
                               self.rewrite(expr.low),
                               self.rewrite(expr.high), expr.negated)
        if isinstance(expr, ast.FunctionCall):
            return ast.FunctionCall(expr.name,
                                    [self.rewrite(arg) for arg in expr.args],
                                    expr.distinct, expr.star)
        if isinstance(expr, ast.CaseExpr):
            operand = (self.rewrite(expr.operand)
                       if expr.operand is not None else None)
            whens = [(self.rewrite(c), self.rewrite(r))
                     for c, r in expr.whens]
            else_result = (self.rewrite(expr.else_result)
                           if expr.else_result is not None else None)
            return ast.CaseExpr(operand, whens, else_result)
        if isinstance(expr, ast.Cast):
            return ast.Cast(self.rewrite(expr.operand), expr.type_name)
        raise NotSupportedError(
            f"cannot use {type(expr).__name__} in grouped query")


def _contains_aggregate(expr: ast.Expr | None) -> bool:
    if expr is None:
        return False
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.FunctionCall) \
                and node.name.upper() in AGGREGATE_NAMES:
            return True
    return False


# ---------------------------------------------------------------------------
# SELECT core compilation
# ---------------------------------------------------------------------------

def _substitute_order_targets(exprs: list[ast.Expr],
                              items: list[ast.SelectItem],
                              scopes: list[RowSchema]) -> list[ast.Expr]:
    """Resolve ORDER/GROUP BY ordinals and select-list aliases."""
    resolved: list[ast.Expr] = []
    for expr in exprs:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int) \
                and not isinstance(expr.value, bool):
            index = expr.value
            if index < 1 or index > len(items):
                raise ExecutionError(
                    f"ORDER/GROUP BY position {index} is out of range")
            item = items[index - 1]
            if item.is_star:
                raise ExecutionError(
                    "ORDER/GROUP BY position cannot reference '*'")
            resolved.append(item.expr)
            continue
        if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
            alias_matches = [item for item in items
                            if item.alias
                            and item.alias.lower() == expr.name.lower()]
            if len(alias_matches) == 1:
                # An output alias shadows input columns (PostgreSQL rule).
                resolved.append(alias_matches[0].expr)
                continue
        resolved.append(expr)
    return resolved


def _expand_items(items: list[ast.SelectItem],
                  from_schema: RowSchema) -> list[tuple[ast.SelectItem, list[int] | None]]:
    """Expand star items to column position lists."""
    expanded: list[tuple[ast.SelectItem, list[int] | None]] = []
    for item in items:
        if item.is_star:
            star: ast.Star = item.expr  # type: ignore[assignment]
            if star.qualifier is None:
                positions = list(range(len(from_schema)))
            else:
                positions = [
                    index for index, column in enumerate(from_schema.columns)
                    if (column.qualifier or "").lower()
                    == star.qualifier.lower()]
                if not positions:
                    raise UnknownColumnError(
                        f"no table named {star.qualifier!r} in FROM")
            expanded.append((item, positions))
        else:
            expanded.append((item, None))
    return expanded


# ---------------------------------------------------------------------------
# Vectorized scan + filter
# ---------------------------------------------------------------------------

class _VectorInput:
    """Batch-at-a-time input for one SELECT core.

    ``row_chunks(outer_rows)`` always works: it yields row-tuple chunks
    of the (kernel- and residual-) filtered scan, so any row operator
    can flatten it.  ``column_batches`` is the column-slice shape the
    vector aggregate and gather projection need; it is ``None`` when a
    residual row predicate exists (residuals evaluate on row tuples, so
    the columns would have to be rebuilt — the row path is cheaper).
    """

    __slots__ = ("row_chunks", "column_batches")

    def __init__(self, row_chunks, column_batches) -> None:
        self.row_chunks = row_chunks
        self.column_batches = column_batches


def _build_vector_input(core: ast.SelectCore, table: Table,
                        where_expr: ast.Expr | None,
                        scopes: list[RowSchema], ctx: CompileContext
                        ) -> tuple[_VectorInput, RowFn | None]:
    """Compile a vectorized scan (plus kernel filter) over *table*.

    Every WHERE conjunct either compiles to a mask kernel or stays on
    the row path as part of the *residual* predicate — a hybrid plan.
    Returns the input plus the compiled residual (``None`` when fully
    vectorized).
    """

    def resolve(ref: ast.ColumnRef):
        try:
            depth, position = resolve_column(ref, scopes, ctx)
        except UnknownColumnError:
            return None  # residual compile reports the error identically
        if depth != len(scopes) - 1:
            return None  # correlated outer reference: row path
        return position, table.schema.columns[position].data_type

    kernels = []
    residual: list[ast.Expr] = []
    if where_expr is not None:
        for conjunct in ast.conjuncts(where_expr):
            kernel = compile_filter_kernel(conjunct, resolve)
            if kernel is None:
                residual.append(conjunct)
                reason = fallback_reason(conjunct, resolve)
                if reason is not None:
                    ctx.note_fallback(render_expr(conjunct), reason)
            else:
                kernels.append(kernel)
    residual_expr = ast.conjoin(residual)
    residual_fn = (compile_predicate(residual_expr, scopes, ctx)
                   if residual_expr is not None else None)

    if not kernels:
        mask_fn = None
    elif len(kernels) == 1:
        mask_fn = kernels[0]
    else:
        def mask_fn(cols, _kernels=tuple(kernels)):
            mask = _kernels[0](cols)
            for kernel in _kernels[1:]:
                other = kernel(cols)
                mask = [a and b for a, b in zip(mask, other)]
            return mask

    ctx.note_vectorized("scan")
    scan_node = ctx.plan_node(core.from_clause)
    if scan_node is not None:
        scan_node.vectorized = True
    if kernels:
        ctx.note_vectorized("filter")
        filter_node = ctx.plan_node(core)
        if filter_node is not None:
            filter_node.vectorized = True
    hooks = ctx.exec_hooks
    scan_counter = ctx.counter_for(core.from_clause)
    core_counter = ctx.counter_for(core)

    # The generators read table state (including compaction-sensitive
    # iterators) at *run* time, never at compile time: the plan cache
    # re-executes compiled plans across mutations.
    def row_chunks(outer_rows: Rows) -> Iterator[list]:
        if mask_fn is None and residual_fn is None:
            # Unfiltered scan: one zip across the full columns beats
            # per-batch slicing, so this path has its own iterator.
            for chunk in table.iter_row_chunks(BATCH_SIZE):
                if scan_counter is not None:
                    scan_counter.count(len(chunk))
                if hooks is not None:
                    hooks.observe("scan", len(chunk))
                yield chunk
            return
        for cols in table.iter_batches(BATCH_SIZE):
            n = len(cols[0])
            if scan_counter is not None:
                scan_counter.count(n)
            if hooks is not None:
                hooks.observe("scan", n)
            if mask_fn is not None:
                mask = mask_fn(cols)
                kept = sum(mask)
                if not kept:
                    continue
                if kept < n:
                    cols = [list(itertools.compress(col, mask))
                            for col in cols]
                if hooks is not None:
                    hooks.observe("filter", kept)
            chunk = list(zip(*cols))
            if residual_fn is not None:
                chunk = [row for row in chunk
                         if residual_fn(outer_rows + (row,))]
                if not chunk:
                    continue
            if core_counter is not None:
                core_counter.count(len(chunk))
            yield chunk

    if residual_fn is not None:
        column_batches = None
    else:
        def column_batches(outer_rows: Rows) -> Iterator[list]:
            for cols in table.iter_batches(BATCH_SIZE):
                n = len(cols[0])
                if scan_counter is not None:
                    scan_counter.count(n)
                if hooks is not None:
                    hooks.observe("scan", n)
                if mask_fn is not None:
                    mask = mask_fn(cols)
                    kept = sum(mask)
                    if not kept:
                        continue
                    if kept < n:
                        cols = [list(itertools.compress(col, mask))
                                for col in cols]
                    if hooks is not None:
                        hooks.observe("filter", kept)
                    n = kept
                if core_counter is not None:
                    core_counter.count(n)
                yield cols

    return _VectorInput(row_chunks, column_batches), residual_fn


def _vector_aggregate_plan(rewriter: "_AggregateRewriter",
                           group_exprs: list[ast.Expr],
                           scopes: list[RowSchema],
                           from_schema: RowSchema):
    """Validate a GROUP BY / aggregate core for the vectorized path.

    Returns ``(key_positions, specs)`` for
    :func:`repro.relational.batch.run_vector_aggregate`, or ``None``
    when any group key or aggregate needs the row path (expression
    keys, unsupported aggregates, non-numeric SUM/AVG — the latter must
    keep raising ``TypeMismatchError`` from the row machinery).
    """
    key_positions: list[int] = []
    for expr in group_exprs:
        position = _innermost_position(expr, scopes)
        if position is None:
            return None
        key_positions.append(position)
    specs: list[tuple] = []
    for call in rewriter.aggregates:
        name = call.name.upper()
        if name == "COUNT" and call.star:
            if call.distinct:
                return None
            specs.append(("count*", None, False))
            continue
        if name not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            return None
        if call.star or len(call.args) != 1:
            return None
        position = _innermost_position(call.args[0], scopes)
        if position is None:
            return None
        if name in ("SUM", "AVG"):
            data_type = from_schema.columns[position].data_type
            if data_type not in (DataType.INTEGER, DataType.REAL):
                return None
        specs.append((name.lower(), position, call.distinct))
    return key_positions, specs


def compile_core(core: ast.SelectCore, catalog: Catalog,
                 outer_scopes: list[RowSchema], ctx: CompileContext,
                 order_by: list[ast.OrderItem] | None = None) -> QueryPlan:
    order_by = order_by or []
    from_plan = _compile_from(core, catalog, outer_scopes, ctx)
    scopes = outer_scopes + [from_plan.schema]
    where_expr, probes = ast.split_subquery_filters(core.where)
    input_rows, batch = _compile_input(core, where_expr, from_plan, scopes,
                                       catalog, ctx)
    if probes:
        input_rows, batch = _probe_filters(probes, input_rows, batch,
                                           scopes, ctx)

    has_aggregate = bool(core.group_by) or core.having is not None \
        or any(_contains_aggregate(item.expr) for item in core.items) \
        or any(_contains_aggregate(item.expr) for item in order_by)

    if has_aggregate:
        return _compile_aggregate_core(
            core, order_by, from_plan, scopes, input_rows, ctx,
            len(outer_scopes), batch)
    return _compile_plain_core(
        core, order_by, from_plan, scopes, input_rows, ctx, batch)


def _compile_from(core: ast.SelectCore, catalog: Catalog,
                  outer_scopes: list[RowSchema],
                  ctx: CompileContext) -> FromPlan:
    if core.from_clause is None:
        return FromPlan(RowSchema([]), lambda outer_rows: iter([()]))
    _collect_bindings(core.from_clause, set())
    return compile_table_expr(core.from_clause, catalog, outer_scopes, ctx)


def _compile_input(core: ast.SelectCore, where_expr: ast.Expr | None,
                   from_plan: FromPlan, scopes: list[RowSchema],
                   catalog: Catalog, ctx: CompileContext
                   ) -> tuple[Callable[[Rows], Iterator[tuple]],
                              "_VectorInput | None"]:
    """The core's FROM rows filtered by *where_expr*: a row stream, plus
    the batch input when the scan is vectorized."""
    # WHERE, with a single-table index fast path for equality conjuncts.
    where_fn: Callable[[Rows], bool] | None = None
    index_probe: tuple[Any, RowFn] | None = None
    if where_expr is not None and isinstance(core.from_clause, ast.TableRef):
        table = catalog.table(core.from_clause.name)
        remaining = []
        for conjunct in ast.conjuncts(where_expr):
            if index_probe is None and isinstance(conjunct, ast.BinaryOp) \
                    and conjunct.op == "=":
                sides = [(conjunct.left, conjunct.right),
                         (conjunct.right, conjunct.left)]
                chosen = None
                for column_side, value_side in sides:
                    if isinstance(column_side, ast.ColumnRef) \
                            and isinstance(value_side, ast.Literal):
                        try:
                            depth, _pos = resolve_column(column_side, scopes)
                        except UnknownColumnError:
                            continue
                        if depth != len(scopes) - 1:
                            continue
                        index = table.find_index_on([column_side.name])
                        if index is not None:
                            chosen = (index, value_side.value)
                            break
                if chosen is not None:
                    index_probe = (chosen[0],
                                   lambda rows, v=chosen[1]: v)
                    continue
            remaining.append(conjunct)
        where_expr = ast.conjoin(remaining)
        if index_probe is not None:
            probe_table = table

    # Vectorized scan: batch the base table whenever storage is columnar
    # and nothing better (an index point probe) applies.  WHERE conjuncts
    # compile to mask kernels where possible; the rest stay on the row
    # path as a residual predicate over the surviving batches.
    if ctx.vectorize and index_probe is None \
            and isinstance(core.from_clause, ast.TableRef):
        scan_table = catalog.table(core.from_clause.name)
        if isinstance(scan_table, Table):
            batch, _residual = _build_vector_input(
                core, scan_table, where_expr, scopes, ctx)

            def batch_rows(outer_rows: Rows) -> Iterator[tuple]:
                for chunk in batch.row_chunks(outer_rows):
                    yield from chunk
            return batch_rows, batch

    if where_expr is not None:
        where_fn = compile_predicate(where_expr, scopes, ctx)

    def input_rows(outer_rows: Rows) -> Iterator[tuple]:
        if index_probe is not None:
            index, value_fn = index_probe
            row_ids = index.lookup((value_fn(outer_rows),))
            source: Iterable[tuple] = [probe_table.row(row_id)
                                       for row_id in sorted(row_ids)]
        else:
            source = from_plan.run(outer_rows)
        if where_fn is None:
            yield from source
        else:
            for row in source:
                if where_fn(outer_rows + (row,)):
                    yield row

    # Batch generators count their own rows (they bypass this
    # per-row wrapper); see _build_vector_input.
    core_counter = ctx.counter_for(core)
    if core_counter is not None:
        input_rows = _counted(input_rows, core_counter)
    return input_rows, None


def _probe_filters(probes: list[ast.Expr],
                   input_rows: Callable[[Rows], Iterator[tuple]],
                   batch: "_VectorInput | None",
                   scopes: list[RowSchema], ctx: CompileContext):
    """Apply a WHERE's EXISTS / IN subquery predicates as filters over
    the input stream, after its other conjuncts, each counting the rows
    it passes for EXPLAIN ANALYZE (the planner's probe operator)."""
    tests = [(compile_predicate(conjunct, scopes, ctx),
              ctx.counter_for(ast.subquery_predicate(conjunct)[0].query))
             for conjunct in probes]

    def keep(outer_rows: Rows, rows: Iterable[tuple]) -> Iterator[tuple]:
        for row in rows:
            scoped = outer_rows + (row,)
            for test, counter in tests:
                if not test(scoped):
                    break
                if counter is not None:
                    counter.count(1)
            else:
                yield row

    if batch is None:
        return (lambda outer_rows: keep(outer_rows, input_rows(outer_rows)),
                None)
    for conjunct in probes:
        ctx.note_fallback(render_expr(conjunct),
                          fallback_reason(conjunct, lambda ref: None))
    base_chunks = batch.row_chunks

    def row_chunks(outer_rows: Rows) -> Iterator[list]:
        for chunk in base_chunks(outer_rows):
            kept = list(keep(outer_rows, chunk))
            if kept:
                yield kept

    def rows(outer_rows: Rows) -> Iterator[tuple]:
        for chunk in row_chunks(outer_rows):
            yield from chunk
    # The probes run on row tuples, so there are no column batches.
    return rows, _VectorInput(row_chunks, None)


def _output_schema(expanded, from_schema: RowSchema) -> RowSchema:
    columns: list[ResultColumn] = []
    for item, star_positions in expanded:
        if star_positions is not None:
            for position in star_positions:
                source = from_schema.columns[position]
                columns.append(ResultColumn(
                    source.name, source.qualifier, source.data_type))
        else:
            qualifier = None
            if isinstance(item.expr, ast.ColumnRef) and not item.alias:
                qualifier = item.expr.qualifier
            columns.append(ResultColumn(item.output_name(), qualifier))
    return RowSchema(columns)


def _compile_plain_core(core: ast.SelectCore,
                        order_by: list[ast.OrderItem],
                        from_plan: FromPlan,
                        scopes: list[RowSchema],
                        input_rows: Callable[[Rows], Iterator[tuple]],
                        ctx: CompileContext,
                        batch: "_VectorInput | None" = None) -> QueryPlan:
    expanded = _expand_items(core.items, from_plan.schema)
    out_schema = _output_schema(expanded, from_plan.schema)

    item_fns: list[tuple[list[int] | None, RowFn | None]] = []
    for item, star_positions in expanded:
        if star_positions is not None:
            item_fns.append((star_positions, None))
        else:
            item_fns.append((None, compile_expr(item.expr, scopes, ctx)))

    # Vectorized projection: when every select item is a star or a plain
    # column of the scanned table, the batches pass through (identity)
    # or are gathered column-wise — no per-row projection function runs.
    # DISTINCT / ORDER BY / expression items use the row operators below
    # over the flattened batches (still a vectorized scan+filter).
    if batch is not None and not core.distinct and not order_by:
        positions: list[int] | None = []
        for item, star_positions in expanded:
            if star_positions is not None:
                positions.extend(star_positions)
            else:
                position = _innermost_position(item.expr, scopes)
                if position is None:
                    positions = None
                    break
                positions.append(position)
        chunk_stream = None
        hooks = ctx.exec_hooks
        if positions == list(range(len(from_plan.schema))):
            def chunk_stream(outer_rows: Rows) -> Iterator[list]:
                for chunk in batch.row_chunks(outer_rows):
                    if hooks is not None:
                        hooks.observe("project", len(chunk))
                    yield chunk
        elif positions is not None and batch.column_batches is not None:
            selected = positions

            def chunk_stream(outer_rows: Rows) -> Iterator[list]:
                for cols in batch.column_batches(outer_rows):
                    chunk = list(zip(*[cols[p] for p in selected]))
                    if hooks is not None:
                        hooks.observe("project", len(chunk))
                    yield chunk
        if chunk_stream is not None:
            ctx.note_vectorized("project")
            return QueryPlan(out_schema, chunks=chunk_stream)

    def project(outer_rows: Rows, row: tuple) -> tuple:
        values: list[Any] = []
        rows = outer_rows + (row,)
        for star_positions, fn in item_fns:
            if star_positions is not None:
                values.extend(row[position] for position in star_positions)
            else:
                values.append(fn(rows))
        return tuple(values)

    order_fns: list[tuple[RowFn, bool]] = []
    order_on_output = core.distinct
    if order_by:
        order_exprs = _substitute_order_targets(
            [item.expr for item in order_by], core.items, scopes)
        if order_on_output:
            output_scopes = [out_schema]
            for expr, item in zip(order_exprs, order_by):
                order_fns.append((compile_expr(expr, output_scopes, ctx),
                                  item.descending))
        else:
            for expr, item in zip(order_exprs, order_by):
                order_fns.append((compile_expr(expr, scopes, ctx),
                                  item.descending))

    def stream(outer_rows: Rows) -> Iterator[tuple]:
        if core.distinct:
            seen: set[tuple] = set()
            if not order_fns:
                # Fully streaming dedup: yield each new output as found.
                for row in input_rows(outer_rows):
                    output = project(outer_rows, row)
                    key = _norm_tuple(output)
                    if key not in seen:
                        seen.add(key)
                        yield output
                return
            results: list[tuple] = []
            for row in input_rows(outer_rows):
                output = project(outer_rows, row)
                key = _norm_tuple(output)
                if key not in seen:
                    seen.add(key)
                    results.append(output)
            results.sort(key=lambda output: tuple(
                sort_key(fn((output,)), descending)
                for fn, descending in order_fns))
            yield from results
            return
        if order_fns:
            # ORDER BY is a pipeline breaker: sort needs every row.
            pairs = [(row, project(outer_rows, row))
                     for row in input_rows(outer_rows)]
            pairs.sort(key=lambda pair: tuple(
                sort_key(fn(outer_rows + (pair[0],)), descending)
                for fn, descending in order_fns))
            for _row, output in pairs:
                yield output
            return
        for row in input_rows(outer_rows):
            yield project(outer_rows, row)

    return QueryPlan(out_schema, stream)


def _compile_aggregate_core(core: ast.SelectCore,
                            order_by: list[ast.OrderItem],
                            from_plan: FromPlan,
                            scopes: list[RowSchema],
                            input_rows: Callable[[Rows], Iterator[tuple]],
                            ctx: CompileContext,
                            outer_depth: int,
                            batch: "_VectorInput | None" = None) -> QueryPlan:
    for item in core.items:
        if item.is_star:
            raise ExecutionError("'*' cannot be used with GROUP BY")

    group_exprs = _substitute_order_targets(core.group_by, core.items, scopes)
    group_fns = [compile_expr(expr, scopes, ctx) for expr in group_exprs]

    rewriter = _AggregateRewriter(group_exprs, outer_depth, scopes, ctx)
    rewritten_items = [rewriter.rewrite(item.expr) for item in core.items]
    rewritten_having = (rewriter.rewrite(core.having)
                        if core.having is not None else None)
    order_exprs = _substitute_order_targets(
        [item.expr for item in order_by], core.items, scopes)
    rewritten_order = [rewriter.rewrite(expr) for expr in order_exprs]

    # Build aggregate machines and their argument evaluators.
    agg_specs = []
    for call in rewriter.aggregates:
        aggregate = make_aggregate(call.name, call.star, len(call.args))
        arg_fns = [compile_expr(arg, scopes, ctx) for arg in call.args]
        agg_specs.append((aggregate, arg_fns, call.distinct))

    slot_count = rewriter.group_count + len(agg_specs)
    slot_schema = RowSchema([
        ResultColumn(f"?slot{i}", None) for i in range(slot_count)])
    slot_scopes = scopes[:outer_depth] + [slot_schema]

    item_fns = [compile_expr(expr, slot_scopes, ctx)
                for expr in rewritten_items]
    having_fn = (compile_predicate(rewritten_having, slot_scopes, ctx)
                 if rewritten_having is not None else None)
    order_fns = [(compile_expr(expr, slot_scopes, ctx), item.descending)
                 for expr, item in zip(rewritten_order, order_by)]

    out_schema = RowSchema([
        ResultColumn(item.output_name(), None) for item in core.items])

    def finish(slot_rows: list[tuple], outer_rows: Rows) -> list[tuple]:
        """HAVING / ORDER BY / projection / DISTINCT over group slot
        rows — shared by the row and vectorized aggregation paths."""
        prefix = outer_rows[:outer_depth]
        if having_fn is not None:
            slot_rows = [slot_row for slot_row in slot_rows
                         if having_fn(prefix + (slot_row,))]
        if order_fns:
            slot_rows.sort(key=lambda slot_row: tuple(
                sort_key(fn(prefix + (slot_row,)), descending)
                for fn, descending in order_fns))
        results = [tuple(fn(prefix + (slot_row,)) for fn in item_fns)
                   for slot_row in slot_rows]
        if core.distinct:
            seen: set[tuple] = set()
            deduped = []
            for output in results:
                key = _norm_tuple(output)
                if key not in seen:
                    seen.add(key)
                    deduped.append(output)
            results = deduped
        return results

    # Vectorized aggregation: plain-column group keys and the classic
    # aggregates accumulate straight off column batches.  Anything
    # fancier (expression keys, GROUP_CONCAT, non-numeric SUM, a
    # residual row predicate upstream) keeps the row loop below.
    vector_plan = None
    if batch is not None and batch.column_batches is not None:
        vector_plan = _vector_aggregate_plan(
            rewriter, group_exprs, scopes, from_plan.schema)
    if vector_plan is not None:
        key_positions, vector_specs = vector_plan
        ctx.note_vectorized("aggregate")
        agg_node = ctx.agg_node(core)
        if agg_node is not None:
            agg_node.vectorized = True
        hooks = ctx.exec_hooks

        def stream(outer_rows: Rows) -> Iterator[tuple]:
            slot_rows = run_vector_aggregate(
                batch.column_batches(outer_rows), key_positions,
                vector_specs, hooks)
            yield from finish(slot_rows, outer_rows)

        return QueryPlan(out_schema, stream)

    def stream(outer_rows: Rows) -> Iterator[tuple]:
        # Aggregation is a pipeline breaker: every input row must be
        # seen before any group result exists.
        groups: dict[tuple, tuple[tuple, list[Any], list[set]]] = {}
        for row in input_rows(outer_rows):
            rows = outer_rows + (row,)
            key_values = tuple(fn(rows) for fn in group_fns)
            key = _norm_tuple(key_values)
            entry = groups.get(key)
            if entry is None:
                states = [aggregate.initial()
                          for aggregate, _args, _distinct in agg_specs]
                distinct_seen: list[set] = [set() for _spec in agg_specs]
                entry = (key_values, states, distinct_seen)
                groups[key] = entry
            _key_values, states, distinct_seen = entry
            for index, (aggregate, arg_fns, distinct) in enumerate(agg_specs):
                args = tuple(fn(rows) for fn in arg_fns)
                if distinct:
                    marker = _norm_tuple(args)
                    if marker in distinct_seen[index]:
                        continue
                    distinct_seen[index].add(marker)
                states[index] = aggregate.step(states[index], args)
        if not groups and not group_fns:
            states = [aggregate.initial()
                      for aggregate, _args, _distinct in agg_specs]
            groups[()] = ((), states, [])

        slot_rows: list[tuple] = []
        for key_values, states, _seen in groups.values():
            finals = tuple(
                aggregate.final(state)
                for (aggregate, _a, _d), state in zip(agg_specs, states))
            slot_rows.append(tuple(key_values) + finals)
        yield from finish(slot_rows, outer_rows)

    return QueryPlan(out_schema, stream)


# ---------------------------------------------------------------------------
# Query-level compilation (set operations, ORDER BY, LIMIT)
# ---------------------------------------------------------------------------

def compile_query(query: ast.SelectQuery, catalog: Catalog,
                  outer_scopes: list[RowSchema] | None = None,
                  ctx: CompileContext | None = None,
                  planned=None, vectorize: bool = True,
                  exec_hooks=None) -> QueryPlan:
    outer_scopes = outer_scopes or []
    top_level = ctx is None
    if top_level:
        ctx = _make_context(catalog, planned, vectorize, exec_hooks)

    limit_fn = (compile_expr(query.limit, outer_scopes, ctx)
                if query.limit is not None else None)
    offset_fn = (compile_expr(query.offset, outer_scopes, ctx)
                 if query.offset is not None else None)

    if not query.is_compound:
        core_plan = compile_core(query.core, catalog, outer_scopes, ctx,
                                 order_by=query.order_by)

        def stream_simple(outer_rows: Rows) -> Iterator[tuple]:
            return _stream_limit(core_plan.stream(outer_rows), outer_rows,
                                 limit_fn, offset_fn)

        # A chunked core stays chunked through an unbounded query, so
        # cursors that materialize (run()) skip per-row generators;
        # LIMIT/OFFSET always go through the flattened row stream.
        chunks = core_plan.chunks \
            if limit_fn is None and offset_fn is None else None
        return _finish_plan(
            QueryPlan(core_plan.schema, stream_simple, chunks=chunks),
            ctx, top_level)

    plans = [compile_core(query.core, catalog, outer_scopes, ctx)]
    for _op, core in query.compounds:
        plans.append(compile_core(core, catalog, outer_scopes, ctx))
    width = len(plans[0].schema)
    for plan in plans[1:]:
        if len(plan.schema) != width:
            raise ExecutionError(
                "set operation operands must have the same column count")
    schema = plans[0].schema
    operations = [op for op, _core in query.compounds]

    order_fns: list[tuple[RowFn, bool]] = []
    if query.order_by:
        fake_items = [ast.SelectItem(ast.ColumnRef(column.name), None)
                      for column in schema.columns]
        order_exprs = _substitute_order_targets(
            [item.expr for item in query.order_by], fake_items, [schema])
        for expr, item in zip(order_exprs, query.order_by):
            order_fns.append((compile_expr(expr, [schema], ctx),
                              item.descending))

    def merged_rows(outer_rows: Rows) -> Iterator[tuple]:
        if not order_fns and all(op == "UNION ALL" for op in operations):
            # Pure concatenation streams: operand k+1 is never started
            # until operand k is exhausted (or LIMIT stops the pull).
            for plan in plans:
                yield from plan.stream(outer_rows)
            return
        current = plans[0].run(outer_rows)
        for operation, plan in zip(operations, plans[1:]):
            other = plan.run(outer_rows)
            if operation == "UNION ALL":
                current = current + other
            elif operation == "UNION":
                seen = set()
                merged = []
                for row in current + other:
                    key = _norm_tuple(row)
                    if key not in seen:
                        seen.add(key)
                        merged.append(row)
                current = merged
            elif operation == "INTERSECT":
                other_keys = {_norm_tuple(row) for row in other}
                seen = set()
                merged = []
                for row in current:
                    key = _norm_tuple(row)
                    if key in other_keys and key not in seen:
                        seen.add(key)
                        merged.append(row)
                current = merged
            elif operation == "EXCEPT":
                other_keys = {_norm_tuple(row) for row in other}
                seen = set()
                merged = []
                for row in current:
                    key = _norm_tuple(row)
                    if key not in other_keys and key not in seen:
                        seen.add(key)
                        merged.append(row)
                current = merged
            else:  # pragma: no cover - parser prevents this
                raise NotSupportedError(f"unknown set operation {operation}")
        if order_fns:
            current = sorted(current, key=lambda row: tuple(
                sort_key(fn((row,)), descending)
                for fn, descending in order_fns))
        yield from current

    def stream_compound(outer_rows: Rows) -> Iterator[tuple]:
        return _stream_limit(merged_rows(outer_rows), outer_rows,
                             limit_fn, offset_fn)

    return _finish_plan(QueryPlan(schema, stream_compound), ctx, top_level)


def _finish_plan(plan: QueryPlan, ctx: CompileContext,
                 top_level: bool) -> QueryPlan:
    plan.vectorized_ops = ctx.vectorized_ops
    plan.vectorized_fallbacks = ctx.vectorized_fallbacks
    if top_level and ctx.planned is not None and ctx.vectorized_ops:
        note = "vectorized: " + ", ".join(sorted(ctx.vectorized_ops))
        if ctx.vectorized_fallbacks:
            note += "; fallback: " + "; ".join(
                f"{expression} ({reason})"
                for expression, reason in ctx.vectorized_fallbacks)
        ctx.planned.notes.append(note)
    return plan


def _bound_value(fn: RowFn, outer_rows: Rows, clause: str) -> int | None:
    """Evaluate a LIMIT/OFFSET expression and validate it.

    NULL means "no bound"; anything that is not a non-negative integer
    is a user error and raises :class:`ExecutionError` (previously a
    negative value sliced silently and a non-integer raised a raw
    ``TypeError``).
    """
    value = fn(outer_rows)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExecutionError(
            f"{clause} must be a non-negative integer, got {value!r}")
    if value < 0:
        raise ExecutionError(
            f"{clause} must be a non-negative integer, got {value}")
    return value


def _stream_limit(rows: Iterator[tuple], outer_rows: Rows,
                  limit_fn: RowFn | None,
                  offset_fn: RowFn | None) -> Iterator[tuple]:
    """Lazy OFFSET/LIMIT: pulls ``offset + limit`` rows then stops,
    closing the source stream (early termination)."""
    start = 0
    if offset_fn is not None:
        offset_value = _bound_value(offset_fn, outer_rows, "OFFSET")
        if offset_value is not None:
            start = offset_value
    stop = None
    if limit_fn is not None:
        limit_value = _bound_value(limit_fn, outer_rows, "LIMIT")
        if limit_value is not None:
            stop = start + limit_value
    try:
        yield from itertools.islice(rows, start, stop)
    finally:
        closer = getattr(rows, "close", None)
        if closer is not None:
            closer()


def _apply_limit(rows: list[tuple], outer_rows: Rows,
                 limit_fn: RowFn | None,
                 offset_fn: RowFn | None) -> list[tuple]:
    """Materialized OFFSET/LIMIT (same validation as the streaming path)."""
    return list(_stream_limit(iter(rows), outer_rows, limit_fn, offset_fn))
