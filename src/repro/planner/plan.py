"""The planning driver: one call turns a parsed SELECT into a
:class:`PlannedStatement` — a rewritten (private) AST plus the operator
tree EXPLAIN renders and the executor instruments.

``plan_select`` never raises in production use: any planning failure
falls back to executing the query exactly as written (``strict`` mode,
used by the tests, re-raises instead so planner bugs cannot hide).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..relational import ast
from ..relational.render import render_expr
from .cost import CostModel
from .estimate import DEFAULT_SELECTIVITY, predicate_selectivity
from .explain import OperatorNode
from .joins import (BaseRelation, JoinPredicate, build_join_tree,
                    classify_equi, estimate_query_rows, flatten_inner_joins,
                    join_selectivity, make_resolver, order_joins,
                    _column_stats, _leaf_stats, _relation_raw_rows)
from .options import PlannerOptions
from .rewrite import (binding_of, expand_star_items, fold_expr, from_leaves,
                      needed_columns, null_safe_bindings, output_columns,
                      prune_derived_projection, prune_wrapper_projection,
                      referenced_bindings, wrap_with_filter)
from .stats import StatisticsCatalog


@dataclass
class PlannedStatement:
    """What the planner decided for one SELECT."""

    original: ast.SelectQuery
    query: ast.SelectQuery            # the (rewritten) AST to compile
    root: OperatorNode
    annotations: dict[int, OperatorNode] = field(default_factory=dict)
    #: Aggregate nodes keyed by SELECT core id.  Separate from
    #: ``annotations`` because a core's id already keys its filter node,
    #: and the executor needs to reach both (filter instrumentation vs.
    #: marking the aggregation vectorized).
    agg_annotations: dict[int, OperatorNode] = field(default_factory=dict)
    options: PlannerOptions = field(default_factory=PlannerOptions)
    notes: list[str] = field(default_factory=list)
    reordered: bool = False
    #: When set (EXPLAIN ANALYZE), the executor counts the rows that
    #: actually flow through each annotated operator.
    instrument: bool = False

    def annotation_for(self, node) -> OperatorNode | None:
        return self.annotations.get(id(node))

    def operators(self) -> list[OperatorNode]:
        return list(self.root.walk())

    def format(self) -> str:
        lines = [self.root.format()]
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def is_trivial_select(query: ast.SelectQuery) -> bool:
    """True when planning cannot improve the statement: a single core
    over at most one base table, with no derived tables and no
    subqueries anywhere.  The executor's own single-table index fast
    path already covers this shape, so the hot path skips the planner
    (no deep copy, no trace) entirely."""
    if query.compounds:
        return False
    core = query.core
    if core.from_clause is not None \
            and not isinstance(core.from_clause, ast.TableRef):
        return False
    for node in ast.iter_query_nodes(query):
        if isinstance(node, (ast.Join, ast.SubqueryRef, ast.InSubquery,
                             ast.Exists, ast.ScalarSubquery)):
            return False
    return True


def plan_select(query: ast.SelectQuery, catalog,
                stats: StatisticsCatalog,
                options: PlannerOptions) -> PlannedStatement:
    """Plan one SELECT; on failure, degrade to the query as written."""
    working = copy.deepcopy(query)
    planned = PlannedStatement(original=query, query=working,
                               root=OperatorNode("result", "select"),
                               options=options)
    try:
        planned.root = _plan_query(working, catalog, stats, options, planned)
    except Exception as exc:
        if options.strict:
            raise
        return PlannedStatement(
            original=query, query=query,
            root=OperatorNode("result", "select"), options=options,
            notes=[f"planning failed, executing as written: {exc!r}"])
    return planned


# ---------------------------------------------------------------------------
# Query / core planning
# ---------------------------------------------------------------------------


def _plan_query(query: ast.SelectQuery, catalog, stats, options,
                planned: PlannedStatement) -> OperatorNode:
    cores = [query.core] + [core for _op, core in query.compounds]
    children = [_plan_core(core, query, catalog, stats, options, planned)
                for core in cores]
    if query.is_compound:
        label = " / ".join(op for op, _core in query.compounds)
        inner = OperatorNode("set-op", label, children=children)
    else:
        inner = children[0]
    root = OperatorNode("result", "select",
                        est_rows=inner.est_rows, children=[inner])
    return root


def _plan_core(core: ast.SelectCore, query: ast.SelectQuery, catalog,
               stats, options: PlannerOptions,
               planned: PlannedStatement) -> OperatorNode:
    if options.fold_constants:
        _fold_core(core)
    subquery_roots = _plan_expression_subqueries(core, catalog, stats,
                                                 options, planned)

    if core.from_clause is None:
        return OperatorNode("values", "no FROM", est_rows=1.0)

    _rest, probes = ast.split_subquery_filters(core.where)
    # Statistics lookup taken before planning rewrites the leaves into
    # pushdown wrappers (which carry no statistics).
    resolve = (_leaf_resolver(from_leaves(core.from_clause), catalog,
                              stats)[1] if probes else None)
    node = _plan_from(core, query, catalog, stats, options, planned)
    if probes:
        node = _plan_where_probes(core, node, subquery_roots, resolve,
                                  catalog, stats, planned)

    if bool(core.group_by) or core.having is not None or core.distinct:
        label = "group by" if core.group_by else (
            "aggregate" if core.having is not None else "distinct")
        node = OperatorNode("aggregate", label, children=[node])
        planned.agg_annotations[id(core)] = node
    return node


def _fold_core(core: ast.SelectCore) -> None:
    if core.where is not None:
        core.where = fold_expr(core.where)
        if isinstance(core.where, ast.Literal) and core.where.value is True:
            core.where = None
    if core.having is not None:
        core.having = fold_expr(core.having)
        if isinstance(core.having, ast.Literal) \
                and core.having.value is True:
            core.having = None
    for item in core.items:
        if not item.is_star:
            item.expr = fold_expr(item.expr)


def _plan_expression_subqueries(core: ast.SelectCore, catalog, stats,
                                options, planned) -> dict[int, OperatorNode]:
    """Recursively plan subqueries embedded in expressions (the WHERE
    rewrites of the SESQL pipeline inject exactly these); returns each
    subquery's operator tree keyed by the id of its expression node."""
    roots: list[ast.Expr] = [item.expr for item in core.items
                             if not item.is_star]
    if core.where is not None:
        roots.append(core.where)
    if core.having is not None:
        roots.append(core.having)
    planned_roots: dict[int, OperatorNode] = {}
    for root in roots:
        for node in ast.walk_expr(root):
            if isinstance(node, (ast.InSubquery, ast.Exists,
                                 ast.ScalarSubquery)) \
                    and node.query is not None:
                planned_roots[id(node)] = _plan_query(
                    node.query, catalog, stats, options, planned)
    return planned_roots


def _leaf_resolver(leaves: list[ast.TableExpr], catalog, stats):
    """``(binding_columns, resolve)`` over FROM leaves: each binding's
    column names and the column statistics lookup."""
    binding_columns = {binding_of(leaf): output_columns(leaf, catalog)
                       for leaf in leaves}
    binding_stats = {binding_of(leaf): _leaf_stats(leaf, stats)
                     for leaf in leaves}
    return binding_columns, make_resolver(binding_stats, binding_columns)


def _plan_where_probes(core: ast.SelectCore, node: OperatorNode,
                       subquery_roots: dict[int, OperatorNode], resolve,
                       catalog, stats,
                       planned: PlannedStatement) -> OperatorNode:
    """Stack one operator per top-level EXISTS / IN conjunct above the
    filter of the core's other WHERE conjuncts, the order the executor
    applies them in: a ``semi-join`` (``anti-join`` under NOT), which
    the executor turns back into a ``filter`` when the subquery is not
    eligible for its hash probe and re-runs per row."""
    rest, probes = ast.split_subquery_filters(core.where)
    filter_node = planned.annotations.get(id(core))
    if filter_node is not None and filter_node is node:
        if rest is None:
            del planned.annotations[id(core)]
            node = node.children[0]
        elif node.children[0].est_rows is not None:
            node.est_rows = node.children[0].est_rows * max(
                predicate_selectivity(rest, resolve), 0.0005)
    for conjunct in probes:
        subquery, negated = ast.subquery_predicate(conjunct)
        if isinstance(subquery, ast.Exists):
            label = "NOT EXISTS" if negated else "EXISTS"
        else:
            label = render_expr(subquery.operand) + (
                " NOT IN" if negated else " IN")
        est = None
        if node.est_rows is not None:
            fraction = _probe_selectivity(subquery, resolve, catalog, stats)
            est = node.est_rows * max(
                1.0 - fraction if negated else fraction, 0.0005)
        children = [node]
        root = subquery_roots.get(id(subquery))
        if root is not None:
            children.append(root.children[0] if root.children else root)
        node = OperatorNode("anti-join" if negated else "semi-join", label,
                            est_rows=est, children=children)
        planned.annotations[id(subquery.query)] = node
    return node


def _probe_selectivity(subquery, resolve, catalog, stats) -> float:
    """Fraction of outer rows an EXISTS / IN subquery keeps: for each
    ``inner = outer`` column pair, ``distinct(inner) / distinct(outer)``
    (capped at 1) from the statistics catalog, with the inner relation's
    row count standing in for an unanalyzed inner column."""
    query = subquery.query
    core = query.core
    if query.is_compound or core.from_clause is None:
        return DEFAULT_SELECTIVITY
    leaves = from_leaves(core.from_clause)
    inner_columns, inner_resolve = _leaf_resolver(leaves, catalog, stats)
    inner_rows = 1.0
    for leaf in leaves:
        inner_rows *= _relation_raw_rows(leaf, catalog, stats)
    pairs = []  # (inner, outer); an IN operand is always outer
    if isinstance(subquery, ast.InSubquery) and len(core.items) == 1:
        pairs.append((core.items[0].expr, subquery.operand))
    for conjunct in ast.conjuncts(core.where):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            for inner_ref, outer_ref in ((conjunct.left, conjunct.right),
                                         (conjunct.right, conjunct.left)):
                if referenced_bindings(outer_ref, inner_columns) is None:
                    pairs.append((inner_ref, outer_ref))
    fraction = None
    for inner_ref, outer_ref in pairs:
        if not (isinstance(inner_ref, ast.ColumnRef)
                and isinstance(outer_ref, ast.ColumnRef)
                and referenced_bindings(inner_ref, inner_columns)):
            continue
        outer = resolve(outer_ref)
        if outer is None or outer.distinct <= 0:
            continue
        inner = inner_resolve(inner_ref)
        inner_distinct = (inner.distinct if inner is not None
                          and inner.distinct > 0 else inner_rows)
        fraction = (fraction or 1.0) * min(inner_distinct / outer.distinct,
                                           1.0)
    return DEFAULT_SELECTIVITY if fraction is None else fraction


def _has_ordinals(exprs) -> bool:
    return any(isinstance(expr, ast.Literal)
               and isinstance(expr.value, int)
               and not isinstance(expr.value, bool)
               for expr in exprs)


def _plan_from(core: ast.SelectCore, query: ast.SelectQuery, catalog,
               stats, options: PlannerOptions,
               planned: PlannedStatement) -> OperatorNode:
    leaves = from_leaves(core.from_clause)
    bindings = [binding_of(leaf) for leaf in leaves]
    if None in bindings or len(set(bindings)) != len(bindings):
        # Something we do not model (or a duplicate alias the executor
        # will reject): leave the FROM exactly as written.
        return _trace_as_written(core, catalog, stats, planned)

    # Plan derived tables from the inside out (their own pushdown and
    # ordering), pruning unread columns first.
    binding_columns: dict[str, list[str] | None] = {}
    inner_roots: dict[str, OperatorNode] = {}
    for leaf, binding in zip(leaves, bindings):
        if isinstance(leaf, ast.SubqueryRef):
            if options.prune_projections:
                columns = output_columns(leaf, catalog)
                if columns is not None:
                    needed = needed_columns(query, binding, columns,
                                            exclude=leaf.query)
                    if needed is not None:
                        prune_derived_projection(leaf, needed)
            inner_roots[binding] = _plan_query(leaf.query, catalog, stats,
                                               options, planned)
        binding_columns[binding] = output_columns(leaf, catalog)

    flat = flatten_inner_joins(core.from_clause)
    reorderable = (flat is not None and len(leaves) >= 2
                   and options.reorder_joins)
    if reorderable and any(item.is_star for item in core.items):
        ordinals = _has_ordinals(core.group_by) \
            or _has_ordinals([item.expr for item in query.order_by])
        if ordinals or not expand_star_items(core, catalog):
            reorderable = False

    if not reorderable:
        _pushdown_in_place(core, query, catalog, stats, options, planned,
                           binding_columns)
        return _trace_as_written(core, catalog, stats, planned,
                                 inner_roots)

    return _reorder_from(core, query, catalog, stats, options, planned,
                         flat[0], flat[1], binding_columns, inner_roots)


# ---------------------------------------------------------------------------
# The reordering path (all-INNER/CROSS FROM)
# ---------------------------------------------------------------------------


def _reorder_from(core: ast.SelectCore, query: ast.SelectQuery, catalog,
                  stats, options: PlannerOptions,
                  planned: PlannedStatement,
                  leaves: list[ast.TableExpr],
                  on_conjuncts: list[ast.Expr],
                  binding_columns: dict,
                  inner_roots: dict[str, OperatorNode]) -> OperatorNode:
    binding_stats = {binding_of(leaf): _leaf_stats(leaf, stats)
                     for leaf in leaves}
    resolve = make_resolver(binding_stats, binding_columns)

    # Classify every conjunct (ON and WHERE are equivalent here).
    conjunct_pool = on_conjuncts + list(ast.conjuncts(core.where))
    pushes: dict[str, list[ast.Expr]] = {}
    join_predicates: list[JoinPredicate] = []
    residual: list[ast.Expr] = []
    for conjunct in conjunct_pool:
        touched = referenced_bindings(conjunct, binding_columns)
        if touched is None or len(touched) == 0:
            residual.append(conjunct)
        elif len(touched) == 1 and options.predicate_pushdown:
            pushes.setdefault(next(iter(touched)), []).append(conjunct)
        elif len(touched) == 1:
            residual.append(conjunct)
        else:
            equi = classify_equi(conjunct, binding_columns)
            if equi is not None:
                selectivity = join_selectivity(
                    _column_stats(binding_stats.get(equi[0]), equi[1]),
                    _column_stats(binding_stats.get(equi[2]), equi[3]))
            else:
                selectivity = predicate_selectivity(conjunct, resolve)
            join_predicates.append(JoinPredicate(
                conjunct, touched, selectivity, equi))

    # Column pruning sets must be computed before wrappers introduce
    # their own SELECT * (which would read as "needs everything").
    needed_by_binding: dict[str, set[str] | None] = {}
    for leaf in leaves:
        binding = binding_of(leaf)
        columns = binding_columns.get(binding)
        exclude = leaf.query if isinstance(leaf, ast.SubqueryRef) else None
        needed_by_binding[binding] = (
            needed_columns(query, binding, columns, exclude=exclude)
            if columns is not None else None)

    relations: list[BaseRelation] = []
    for leaf in leaves:
        relations.append(_build_relation(
            leaf, catalog, stats, options, planned, resolve,
            pushes.get(binding_of(leaf), []),
            binding_columns, needed_by_binding, inner_roots))

    order, steps = order_joins(
        relations, join_predicates, binding_stats, CostModel(),
        options.dp_relation_limit, options.index_probe_joins)
    tree, join_root = build_join_tree(relations, order, steps,
                                      planned.annotations)
    core.from_clause = tree
    core.where = ast.conjoin(residual)
    if order != list(range(len(relations))):
        planned.reordered = True
        planned.notes.append(
            "join order: " + " -> ".join(relations[i].binding
                                         for i in order))

    top = join_root
    if core.where is not None:
        est = (join_root.est_rows or 1.0) * max(
            predicate_selectivity(core.where, resolve), 0.0005)
        top = OperatorNode("filter", "residual WHERE", est_rows=est,
                           children=[join_root])
        planned.annotations[id(core)] = top
    return top


def _build_relation(leaf, catalog, stats, options: PlannerOptions,
                    planned: PlannedStatement, resolve,
                    pushed: list[ast.Expr], binding_columns,
                    needed_by_binding,
                    inner_roots: dict[str, OperatorNode]) -> BaseRelation:
    from ..relational.table import Table

    binding = binding_of(leaf)
    raw_rows = _relation_raw_rows(leaf, catalog, stats)
    table = None
    if isinstance(leaf, ast.TableRef) and catalog.has_table(leaf.name):
        candidate = catalog.table(leaf.name)
        if isinstance(candidate, Table):
            table = candidate

    if isinstance(leaf, ast.SubqueryRef):
        scan_node = OperatorNode("derived", binding, est_rows=raw_rows)
        if binding in inner_roots:
            scan_node.children.append(inner_roots[binding])
    else:
        scan_node = OperatorNode("scan", _scan_label(leaf),
                                 est_rows=raw_rows)
    planned.annotations[id(leaf)] = scan_node

    if not pushed:
        return BaseRelation(leaf, binding, binding_columns.get(binding),
                            table, raw_rows, raw_rows, False,
                            node=scan_node)

    selectivity = 1.0
    for conjunct in pushed:
        selectivity *= predicate_selectivity(conjunct, resolve)
    est_rows = max(raw_rows * selectivity, 0.05)
    wrapper = wrap_with_filter(leaf, pushed)
    if options.prune_projections:
        needed = needed_by_binding.get(binding)
        columns = binding_columns.get(binding)
        if needed is not None and columns is not None:
            keep = [name for name in columns if name in needed]
            # Join/residual predicates live above the wrapper and read
            # through it, so their columns are part of "needed" already.
            if keep and len(keep) < len(columns) \
                    and prune_wrapper_projection(wrapper, keep):
                binding_columns[binding] = keep
    filter_node = OperatorNode("filter", binding, est_rows=est_rows,
                               detail="pushed-down predicate",
                               children=[scan_node])
    # The wrapper's inner core compiles through the executor's batch
    # gate, so a columnar base table scans (and often filters)
    # vectorized — unlike bare join inputs, which stay row-at-a-time.
    if table is not None \
            and not _has_index_probe(ast.conjoin(pushed), table):
        scan_node.vectorized = True
        if _any_vector_conjunct(ast.conjoin(pushed), table):
            filter_node.vectorized = True
    planned.annotations[id(wrapper)] = filter_node
    return BaseRelation(wrapper, binding, binding_columns.get(binding),
                        table, raw_rows, est_rows, True, node=filter_node)


def _scan_label(leaf: ast.TableRef) -> str:
    if leaf.alias and leaf.alias.lower() != leaf.name.lower():
        return f"{leaf.name} as {leaf.alias}"
    return leaf.name


# ---------------------------------------------------------------------------
# The as-written path (LEFT joins, single relations, opt-outs)
# ---------------------------------------------------------------------------


def _pushdown_in_place(core: ast.SelectCore, query: ast.SelectQuery,
                       catalog, stats, options: PlannerOptions,
                       planned: PlannedStatement,
                       binding_columns: dict) -> None:
    """Push WHERE conjuncts into null-safe leaves of a FROM tree whose
    shape is kept (LEFT joins present, or reordering is off)."""
    if not options.predicate_pushdown or core.where is None:
        return
    if not isinstance(core.from_clause, ast.Join):
        return  # single relation: WHERE already sits on the scan
    safe = null_safe_bindings(core.from_clause)
    pushes: dict[str, list[ast.Expr]] = {}
    residual: list[ast.Expr] = []
    for conjunct in ast.conjuncts(core.where):
        touched = referenced_bindings(conjunct, binding_columns)
        if touched is not None and len(touched) == 1 \
                and next(iter(touched)) in safe:
            pushes.setdefault(next(iter(touched)), []).append(conjunct)
        else:
            residual.append(conjunct)
    if not pushes:
        return
    core.where = ast.conjoin(residual)
    core.from_clause = _wrap_leaves(core.from_clause, pushes)


def _wrap_leaves(table_expr: ast.TableExpr,
                 pushes: dict[str, list[ast.Expr]]) -> ast.TableExpr:
    if isinstance(table_expr, ast.Join):
        table_expr.left = _wrap_leaves(table_expr.left, pushes)
        table_expr.right = _wrap_leaves(table_expr.right, pushes)
        return table_expr
    binding = binding_of(table_expr)
    if binding in pushes:
        return wrap_with_filter(table_expr, pushes[binding])
    return table_expr


def _columnar_table(table_expr, catalog):
    """The columnar Table behind a TableRef, or None."""
    from ..relational.table import Table

    if not isinstance(table_expr, ast.TableRef) \
            or not catalog.has_table(table_expr.name):
        return None
    table = catalog.table(table_expr.name)
    return table if isinstance(table, Table) else None


def _has_index_probe(where, table) -> bool:
    """Mirror the executor's preference: an indexed ``col = literal``
    conjunct becomes a point probe, not a vectorized scan."""
    if where is None:
        return False
    for conjunct in ast.conjuncts(where):
        if not (isinstance(conjunct, ast.BinaryOp)
                and conjunct.op == "="):
            continue
        for side, other in ((conjunct.left, conjunct.right),
                            (conjunct.right, conjunct.left)):
            if isinstance(side, ast.ColumnRef) \
                    and isinstance(other, ast.Literal) \
                    and table.schema.has_column(side.name) \
                    and table.find_index_on([side.name]) is not None:
                return True
    return False


def _any_vector_conjunct(where, table) -> bool:
    """Would at least one WHERE conjunct compile to a vector kernel?"""
    from ..relational.vectors import compile_filter_kernel

    if where is None:
        return False
    schema = table.schema

    def resolve(ref):
        if not schema.has_column(ref.name):
            return None
        position = schema.position_of(ref.name)
        return position, schema.columns[position].data_type

    return any(compile_filter_kernel(conjunct, resolve) is not None
               for conjunct in ast.conjuncts(where))


def _trace_as_written(core: ast.SelectCore, catalog, stats,
                      planned: PlannedStatement,
                      inner_roots: dict[str, OperatorNode] | None = None
                      ) -> OperatorNode:
    """Build (and register) display/instrumentation nodes for a FROM
    tree the planner left structurally alone."""
    node = _trace_table_expr(core.from_clause, catalog, stats, planned,
                             inner_roots or {})
    vector_table = _columnar_table(core.from_clause, catalog)
    if vector_table is not None \
            and _has_index_probe(core.where, vector_table):
        vector_table = None
    if vector_table is not None:
        node.vectorized = True
    if core.where is not None:
        top = OperatorNode("filter", "WHERE", children=[node])
        if vector_table is not None \
                and _any_vector_conjunct(core.where, vector_table):
            top.vectorized = True
        planned.annotations[id(core)] = top
        return top
    return node


def _trace_table_expr(table_expr: ast.TableExpr, catalog, stats,
                      planned: PlannedStatement,
                      inner_roots: dict[str, OperatorNode]) -> OperatorNode:
    if isinstance(table_expr, ast.Join):
        left = _trace_table_expr(table_expr.left, catalog, stats, planned,
                                 inner_roots)
        right = _trace_table_expr(table_expr.right, catalog, stats,
                                  planned, inner_roots)
        label = ("left join" if table_expr.join_type == "LEFT"
                 else "join" if table_expr.condition is not None
                 else "cross join")
        node = OperatorNode("join", label, children=[left, right])
        planned.annotations[id(table_expr)] = node
        return node
    if isinstance(table_expr, ast.SubqueryRef):
        inner = table_expr.query
        # Pushdown wrappers carry their filter in the inner WHERE.
        label = binding_of(table_expr) or "derived"
        node = OperatorNode("derived", label,
                            est_rows=estimate_query_rows(inner, catalog,
                                                         stats))
        if label in inner_roots:
            node.children.append(inner_roots[label])
        planned.annotations[id(table_expr)] = node
        return node
    est = _relation_raw_rows(table_expr, catalog, stats) \
        if isinstance(table_expr, ast.TableRef) else None
    node = OperatorNode("scan", _scan_label(table_expr)
                        if isinstance(table_expr, ast.TableRef)
                        else "?", est_rows=est)
    planned.annotations[id(table_expr)] = node
    return node
