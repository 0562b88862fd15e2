"""Incremental view maintenance: table deltas and per-plan delta programs.

Dependency-tracked caching (``docs/caching.md``) decides *whether* a cached
activation-query result is stale; this module makes many of those misses
cheap by *patching* the cached result instead of recomputing it.  Two pieces
cooperate:

* :class:`DeltaLog` subscribes to :meth:`Table.set_delta_hook` on every
  persistent table and retains a bounded window of logical delta records
  (insert / delete / update row sets), chained by version stamp so a reader
  can prove the records it sees cover the whole span between a cached
  version and the current one.  Whole-table replacements are classified:
  appends and pure deletions become ordinary deltas, anything else becomes
  a *barrier* record that forces recomputation across it.

* :class:`DeltaProgram` is compiled from a physical plan whose shape the
  delta rules support: a left spine of filters and inner joins over exactly
  one *source* table, optionally topped by a sort and a projection.  The
  program keeps each cached output row paired with the source-table row
  that produced it (*provenance pairs*; under a sort also the row's sort
  key) and maps source deltas to output edits that are **byte- and
  order-identical** to what re-running the plan would produce — inserts
  append (table append order) or, under a sort, land after their equal
  keys; deletions drop all pairs sourced from the deleted rows; updates
  patch in place (scan order) or re-append (index-bucket order).  A span
  whose deltas all fall out of the spine leaves the result as it is.
  Anything the rules cannot prove order-exact — aggregates, LIMIT,
  subqueries, LEFT joins, updates reaching the output of a join or sort,
  deltas on a non-source table, uncovered version spans, a cost bound
  exceeded — returns ``None`` and the caller falls back to full
  recomputation, so the bailout path is always correct-by-construction.

Thread-safety: delta hooks fire inside the table lock; the runtime reads
logs and patches cache entries only under the engine write lock, which also
serialises every table mutation, so readers and writers never interleave.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, UnknownTableError
from repro.relational.table import Table
from repro.sql.ast import Query
from repro.sql.evaluator import RowScope, _compare
from repro.sql.operators import (
    ExecutionContext,
    FilterOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    IndexScanOp,
    NestedLoopJoinOp,
    Operator,
    ProjectOp,
    ScanOp,
    SortOp,
    _NO_MATCH,
    _index_probe_value,
    _indexable_literal,
    _orderable,
    _projection_plan,
    _tuple_evaluator,
)
from repro.sql.planner import expression_subquery, operator_expressions, tables_read
from repro.sql.relation import ColumnInfo, Relation
from repro.sql.stats import MaintenanceStats

__all__ = [
    "DEFAULT_DELTA_LOG_SIZE",
    "DeltaLog",
    "DeltaProgram",
    "DeltaRecord",
    "build_delta_program",
    "describe_maintenance",
    "per_child_reads",
]

Row = Tuple[Any, ...]

#: Default per-table cap on retained delta rows (``CacheConfig.delta_log_size``).
DEFAULT_DELTA_LOG_SIZE = 512


class DeltaRecord:
    """One logical mutation of a table, bounded by its version stamps.

    ``prev_version`` -> ``version`` is the span the record covers; a chain
    of records whose stamps link up covers the whole span between its ends.
    Exactly one of ``inserted`` / ``deleted`` / ``changes`` is non-empty
    (or ``barrier`` is set, marking a mutation deltas cannot express).
    """

    __slots__ = ("prev_version", "version", "inserted", "deleted", "changes", "barrier")

    def __init__(
        self,
        prev_version: int,
        version: int,
        inserted: Tuple[Row, ...] = (),
        deleted: Tuple[Row, ...] = (),
        changes: Tuple[Tuple[Row, Row], ...] = (),
        barrier: bool = False,
    ) -> None:
        self.prev_version = prev_version
        self.version = version
        self.inserted = inserted
        self.deleted = deleted
        self.changes = changes
        self.barrier = barrier

    @property
    def weight(self) -> int:
        """Retained-row accounting for the per-table cap."""
        return max(1, len(self.inserted) + len(self.deleted) + len(self.changes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = (
            "barrier"
            if self.barrier
            else "insert"
            if self.inserted
            else "delete"
            if self.deleted
            else "update"
        )
        return f"DeltaRecord({kind}, {self.prev_version}->{self.version}, w={self.weight})"


class _TableLog:
    __slots__ = ("records", "weight", "tail_version")

    def __init__(self, tail_version: int) -> None:
        self.records: List[DeltaRecord] = []
        self.weight = 0
        #: The version stamp the *next* record chains from (the table's
        #: version at attach time, then each record's post-version).
        self.tail_version = tail_version


def _classify_replace(old_rows: Sequence[Row], new_rows: Sequence[Row]):
    """Map a whole-table replacement onto (inserted, deleted) — or None.

    Pure appends (the old contents are a prefix of the new) and pure
    deletions (the new contents are an in-order subsequence of the old,
    and no deleted row value survives — so removing *all* pairs sourced
    from a deleted value is positionally exact) become ordinary deltas;
    everything else is a reorder/rewrite the delta rules cannot replay
    order-exactly and returns None (a barrier record).
    """
    n_old, n_new = len(old_rows), len(new_rows)
    if n_new >= n_old and list(new_rows[:n_old]) == list(old_rows):
        return tuple(new_rows[n_old:]), ()
    if n_new < n_old:
        deleted: List[Row] = []
        position = 0
        for row in old_rows:
            if position < n_new and new_rows[position] == row:
                position += 1
            else:
                deleted.append(row)
        if position == n_new:
            kept = set(new_rows)
            if not any(row in kept for row in deleted):
                return (), tuple(deleted)
    return None


class DeltaLog:
    """Bounded in-memory delta records for the engine's persistent tables.

    One instance per engine; :meth:`attach` installs the table's delta hook
    (:meth:`Table.set_delta_hook` — a slot separate from the WAL journal, so
    the two layers compose without double-journaling).  Records are retained
    per table up to ``max_rows_per_table`` total delta rows; truncation only
    narrows the coverage window, never corrupts it, because
    :meth:`deltas_for` verifies the version chain before trusting anything.
    """

    #: Bound on the number of tables tracked at once.  Persistent tables are
    #: few, but the engine also attaches the local/input tables that cached
    #: activation queries scan, and those churn with reactivation; the
    #: least-recently-consulted table is detached (its entries then bail out
    #: to recomputation, which is always safe).
    MAX_TABLES = 256

    def __init__(self, max_rows_per_table: Optional[int] = DEFAULT_DELTA_LOG_SIZE) -> None:
        self.max_rows_per_table = max_rows_per_table
        #: id(table) -> (table, log).  The table reference pins the id.
        self._tables: "OrderedDict[int, Tuple[Table, _TableLog]]" = OrderedDict()

    def attach(self, table: Table) -> None:
        """Start recording deltas for ``table`` (idempotent)."""
        if id(table) in self._tables:
            return
        log = _TableLog(table.version)
        self._tables[id(table)] = (table, log)
        table.set_delta_hook(lambda op, log=log: self._record(log, op))
        while len(self._tables) > self.MAX_TABLES:
            _, (evicted, _) = self._tables.popitem(last=False)
            evicted.set_delta_hook(None)

    def tracks(self, table: Table) -> bool:
        return id(table) in self._tables

    def records_for(self, table: Table) -> List[DeltaRecord]:
        """All currently retained records (test/introspection helper)."""
        entry = self._tables.get(id(table))
        return list(entry[1].records) if entry is not None else []

    def _record(self, log: _TableLog, op: Dict[str, Any]) -> None:
        kind = op["op"]
        if kind == "create_index":
            return  # no content change, no version stamp
        version = op["version"]
        prev = log.tail_version
        log.tail_version = version
        record: Optional[DeltaRecord] = None
        if kind == "insert":
            record = DeltaRecord(prev, version, inserted=op["rows"])
        elif kind == "delete":
            record = DeltaRecord(prev, version, deleted=tuple(op["rows"]))
        elif kind == "update":
            record = DeltaRecord(prev, version, changes=tuple(op["changes"]))
        elif kind == "replace":
            classified = _classify_replace(op["old_rows"], op["rows"])
            if classified is None:
                record = DeltaRecord(prev, version, barrier=True)
            else:
                inserted, deleted = classified
                record = DeltaRecord(prev, version, inserted=inserted, deleted=deleted)
        if record is None:
            return
        log.records.append(record)
        log.weight += record.weight
        cap = self.max_rows_per_table
        if cap is not None:
            while log.weight > cap and len(log.records) > 1:
                log.weight -= log.records.pop(0).weight

    def deltas_for(self, table: Table, since_version: int) -> Optional[List[DeltaRecord]]:
        """The delta records covering ``since_version`` -> ``table.version``.

        Returns ``[]`` when the table is already at ``since_version``, and
        ``None`` when the retained records cannot *prove* coverage: the
        table is untracked, the span starts before the retained window, a
        barrier (unclassifiable replace) sits inside it, or the chain of
        ``prev_version -> version`` stamps has a gap.
        """
        entry = self._tables.get(id(table))
        if entry is None:
            return None
        self._tables.move_to_end(id(table))
        if table.version == since_version:
            return []
        covering = [r for r in entry[1].records if r.version > since_version]
        if not covering:
            return None
        if covering[0].prev_version != since_version:
            return None
        for earlier, later in zip(covering, covering[1:]):
            if later.prev_version != earlier.version:
                return None
        if covering[-1].version != table.version:
            return None
        if any(r.barrier for r in covering):
            return None
        return covering


# ---------------------------------------------------------------------------
# Delta programs
# ---------------------------------------------------------------------------


class _Unsupported(ReproError):
    """Internal: plan shape analysis rejection (carries the reason)."""


def _analyze_plan(plan: Operator):
    """Decompose a plan into (leaf, steps, project, sort) or raise _Unsupported.

    The supported shape is a left spine over exactly one source table:
    ``[ProjectOp?] [SortOp?] (FilterOp | inner join)* (ScanOp | IndexScanOp)``,
    where each join's right side is an arbitrary subtree *not* reading the
    source table.  ``steps`` comes back bottom-up (leaf side first).
    """
    node = plan
    project: Optional[ProjectOp] = None
    if isinstance(node, ProjectOp):
        project = node
        node = node.child
    sort: Optional[SortOp] = None
    if isinstance(node, SortOp):
        sort = node
        node = node.child
    steps: List[Tuple[str, Operator]] = []
    while True:
        if isinstance(node, (ScanOp, IndexScanOp)):
            leaf = node
            break
        if isinstance(node, FilterOp):
            steps.append(("filter", node))
            node = node.child
        elif isinstance(node, NestedLoopJoinOp):
            if node.join_type not in ("CROSS", "INNER"):
                raise _Unsupported(f"{node.join_type} join")
            steps.append(("nlj", node))
            node = node.left
        elif isinstance(node, HashJoinOp):
            if node.join_type != "INNER":
                raise _Unsupported(f"{node.join_type} hash join")
            steps.append(("hash", node))
            node = node.left
        elif isinstance(node, IndexNestedLoopJoinOp):
            steps.append(("inlj", node))
            node = node.left
        else:
            raise _Unsupported(type(node).__name__)
    steps.reverse()
    _reject_subqueries(plan)
    source = leaf.table_name
    for kind, op in steps:
        if kind in ("nlj", "hash") and source in tables_read(op.right):
            raise _Unsupported("source table joined with itself")
        if kind == "inlj" and op.table_name == source:
            raise _Unsupported("source table joined with itself")
    return leaf, steps, project, sort


def _reject_subqueries(plan: Operator) -> None:
    for expression in operator_expressions(plan):
        for node in expression.walk():
            if expression_subquery(node) is not None:
                raise _Unsupported("subquery expression")
    for child in plan.children():
        _reject_subqueries(child)


def build_delta_program(
    ast: Query, plan: Operator, tables: frozenset
) -> Optional["DeltaProgram"]:
    """Compile a delta program for ``plan``, or None when unsupported."""
    program, _ = classify_plan(ast, plan, tables)
    return program


def classify_plan(ast: Query, plan: Operator, tables: frozenset):
    """(program-or-None, human-readable reason) for a plan's delta support."""
    try:
        leaf, steps, project, sort = _analyze_plan(plan)
        program = DeltaProgram(ast, plan, leaf, steps, project, sort, tables)
    except _Unsupported as reason:
        return None, str(reason)
    sorted_note = " under a sort" if sort is not None else ""
    return program, f"delta spine over {leaf.table_name}{sorted_note}"


def per_child_reads(tables: frozenset) -> Optional[str]:
    """Why a query reading ``tables`` is not maintained per child, or None.

    A Hilda input query that reads ``activationTuple`` or a child-qualified
    input table (``Child.table``) runs over tables created afresh for every
    child, so no stored entry could ever be patched: it keeps recomputing.
    """
    if "activationTuple" in tables:
        return "reads activationTuple"
    for name in sorted(tables):
        if "." in name and not name.startswith(("in.", "out.")):
            return f"reads per-child table {name}"
    return None


def describe_maintenance(ast: Query, plan: Operator, tables: frozenset) -> str:
    """The EXPLAIN-facing classification of a plan's maintenance support."""
    program, reason = classify_plan(ast, plan, tables)
    if program is None:
        return f"recompute ({reason})"
    per_child = per_child_reads(tables)
    if per_child is not None:
        return f"recompute ({per_child})"
    return f"incremental ({reason})"


class _Runtime:
    """Per-patch execution state: resolved tables, closures, join inputs.

    Built fresh for every :meth:`DeltaProgram.snapshot` / ``maintain`` call
    so it always sees the current catalog; join right sides execute once
    per runtime (they are proven unchanged for the span being patched).
    """

    def __init__(self, program: "DeltaProgram", context: ExecutionContext) -> None:
        self.context = context
        self.table = context.catalog.resolve_table(program.source)
        leaf = program.leaf
        columns: Tuple[ColumnInfo, ...] = tuple(
            ColumnInfo(name=name, qualifier=leaf.binding_name)
            for name in self.table.schema.column_names
        )
        self.admit, self.index_ordered = self._leaf_admit(leaf, self.table)
        #: The spine's appliers, leaf side first; the projection is kept
        #: apart because a sort reads the spine rows it projects away.
        self.appliers: List[Callable[[List[Row]], List[Row]]] = []
        for kind, node in program.steps:
            if kind == "filter":
                self.appliers.append(self._filter_applier(node, columns))
            elif kind == "nlj":
                applier, columns = self._nlj_applier(node, columns)
                self.appliers.append(applier)
            elif kind == "hash":
                applier, columns = self._hash_applier(node, columns)
                self.appliers.append(applier)
            else:  # inlj
                applier, columns = self._inlj_applier(node, columns)
                self.appliers.append(applier)
        self.program = program
        self.columns = columns
        #: (projection applier, sort-key fn), built on the first spine row:
        #: a patch whose deltas all fall out of the spine never needs them.
        self._finish: Optional[Tuple[Any, Any]] = None

    # -- leaf ----------------------------------------------------------------

    def _leaf_admit(self, leaf: Operator, table: Table):
        """(row -> bool admission fn, index_ordered flag) for the leaf.

        ``index_ordered`` is True when the leaf's output order is the index
        bucket order (updates re-append) rather than base-table row order
        (updates patch in place) — mirroring which path
        :meth:`IndexScanOp.execute` would take against this table.
        """
        if isinstance(leaf, ScanOp):
            return (lambda row: True), False
        schema = table.schema
        keys = list(zip(leaf.key_columns, leaf.key_values))
        if not all(
            schema.has_column(name) and _indexable_literal(value, schema.column(name).dtype)
            for name, value in keys
        ):
            # IndexScanOp falls back to a scan + _compare filter here, which
            # preserves base-table order — so updates patch in place.
            positions = [
                schema.column_position(name) if schema.has_column(name) else None
                for name, _ in keys
            ]
            if any(position is None for position in positions):
                raise _Unsupported("index key columns missing from schema")
            values = [value for _, value in keys]

            def compare_admit(row: Row) -> bool:
                return all(
                    _compare("=", row[position], value) is True
                    for position, value in zip(positions, values)
                )

            return compare_admit, False
        probe: List[Any] = []
        for name, value in keys:
            value = _index_probe_value(value, schema.column(name).dtype)
            if value is _NO_MATCH:
                return (lambda row: False), True
            probe.append(value)
        positions = [schema.column_position(name) for name, _ in keys]

        def probe_admit(row: Row) -> bool:
            return all(
                row[position] == value for position, value in zip(positions, probe)
            )

        return probe_admit, True

    # -- step appliers -------------------------------------------------------

    def _filter_applier(self, node: FilterOp, columns: Tuple[ColumnInfo, ...]):
        relation = Relation(columns, [])
        fn = self.context.compiled(node.predicate, relation)
        if fn is not None:
            return lambda rows: [row for row in rows if fn(row) is True]
        evaluate = self.context.evaluator.evaluate
        predicate = node.predicate
        return lambda rows: [
            row
            for row in rows
            if evaluate(predicate, RowScope(relation, row, None)) is True
        ]

    def _nlj_applier(self, node: NestedLoopJoinOp, columns: Tuple[ColumnInfo, ...]):
        right = node.right.execute(self.context, None)
        combined_columns = tuple(columns) + tuple(right.columns)
        combined = Relation(combined_columns, [])
        cross = node.join_type == "CROSS"
        condition = node.condition
        condition_fn = (
            self.context.compiled(condition, combined)
            if not cross and condition is not None
            else None
        )
        context = self.context
        right_rows = right.rows

        if cross:
            def apply(rows: List[Row]) -> List[Row]:
                return [left_row + right_row for left_row in rows for right_row in right_rows]

        elif condition_fn is not None:
            def apply(rows: List[Row]) -> List[Row]:
                return [
                    candidate
                    for left_row in rows
                    for right_row in right_rows
                    if condition_fn(candidate := left_row + right_row) is True
                ]

        else:
            def apply(rows: List[Row]) -> List[Row]:
                return [
                    candidate
                    for left_row in rows
                    for right_row in right_rows
                    if context.predicate(
                        condition, RowScope(combined, candidate := left_row + right_row, None)
                    )
                ]

        return apply, combined_columns

    def _hash_applier(self, node: HashJoinOp, columns: Tuple[ColumnInfo, ...]):
        right = node.right.execute(self.context, None)
        combined_columns = tuple(columns) + tuple(right.columns)
        combined = Relation(combined_columns, [])
        right_key, _ = _tuple_evaluator(self.context, node.right_keys, right, None)
        build: Dict[Tuple[Any, ...], List[Row]] = {}
        for right_row in right.rows:
            key = right_key(right_row)
            if any(value is None for value in key):
                continue
            build.setdefault(key, []).append(right_row)
        left_key, _ = _tuple_evaluator(
            self.context, node.left_keys, Relation(columns, []), None
        )
        residual = node.residual
        residual_fn = (
            self.context.compiled(residual, combined) if residual is not None else None
        )
        context = self.context

        def apply(rows: List[Row]) -> List[Row]:
            out: List[Row] = []
            for left_row in rows:
                key = left_key(left_row)
                if any(value is None for value in key):
                    continue
                for right_row in build.get(key, ()):
                    candidate = left_row + right_row
                    if residual is None:
                        accept = True
                    elif residual_fn is not None:
                        accept = residual_fn(candidate) is True
                    else:
                        scope = RowScope(combined, candidate, None)
                        accept = context.predicate(residual, scope)
                    if accept:
                        out.append(candidate)
            return out

        return apply, combined_columns

    def _inlj_applier(self, node: IndexNestedLoopJoinOp, columns: Tuple[ColumnInfo, ...]):
        right_table = self.context.catalog.resolve_table(node.table_name)
        right_table.ensure_index(node.right_columns)
        right_columns = tuple(
            ColumnInfo(name=name, qualifier=node.binding_name)
            for name in right_table.schema.column_names
        )
        combined_columns = tuple(columns) + right_columns
        combined = Relation(combined_columns, [])
        left_key, _ = _tuple_evaluator(
            self.context, node.left_keys, Relation(columns, []), None
        )
        residual = node.residual
        residual_fn = (
            self.context.compiled(residual, combined) if residual is not None else None
        )
        context = self.context
        key_columns = node.right_columns

        def apply(rows: List[Row]) -> List[Row]:
            out: List[Row] = []
            for left_row in rows:
                key = left_key(left_row)
                if any(value is None for value in key):
                    continue
                for right_row in right_table.index_lookup(key_columns, key):
                    candidate = left_row + right_row
                    if residual is None:
                        accept = True
                    elif residual_fn is not None:
                        accept = residual_fn(candidate) is True
                    else:
                        scope = RowScope(combined, candidate, None)
                        accept = context.predicate(residual, scope)
                    if accept:
                        out.append(candidate)
            return out

        return apply, combined_columns

    def _project_applier(self, node: ProjectOp, columns: Tuple[ColumnInfo, ...]):
        relation = Relation(columns, [])
        out_columns, extractors, needs_scope, _ = _projection_plan(
            node.items, relation, self.context
        )
        del out_columns  # layout already pinned by the cached rows
        context = self.context

        def apply(rows: List[Row]) -> List[Row]:
            out: List[Row] = []
            for row in rows:
                scope = RowScope(relation, row, None) if needs_scope else None
                out.append(tuple(extract(context, scope, row) for extract in extractors))
            return out

        return apply

    def _sort_key(self, node: SortOp, columns: Tuple[ColumnInfo, ...]):
        """Row -> the per-item sort keys :meth:`SortOp.execute` orders by."""
        values, _ = _tuple_evaluator(
            self.context,
            tuple(item.expression for item in node.order_by),
            Relation(columns, []),
            None,
        )

        def key(row: Row) -> Tuple[Any, ...]:
            return tuple((value is None, _orderable(value)) for value in values(row))

        return key

    # -- evaluation ----------------------------------------------------------

    def produce(self, source_rows: Sequence[Row], apply_leaf: bool = True) -> List[Tuple[Any, Row]]:
        """``(provenance, output row)`` pairs of a batch of source rows.

        The spine runs over the whole batch at once: every step keeps its
        input order and joins append their right columns, so each spine
        row starts with the source row it came from.  Provenance is that
        source row, or ``(source row, sort key)`` under a sort so the patch
        path can place inserted rows.
        """
        rows = [row for row in source_rows if self.admit(row)] if apply_leaf else source_rows
        for apply in self.appliers:
            if not rows:
                break
            rows = apply(rows)
        if not rows:
            return []
        if self._finish is None:
            program, columns = self.program, self.columns
            self._finish = (
                self._project_applier(program.project, columns)
                if program.project is not None
                else None,
                self._sort_key(program.sort, columns) if program.sort is not None else None,
            )
        project, key = self._finish
        width = self.table.schema.arity
        outs = project(rows) if project is not None else rows
        if key is None:
            return [(row[:width], out) for row, out in zip(rows, outs)]
        return [((row[:width], key(row)), out) for row, out in zip(rows, outs)]


class DeltaProgram:
    """The delta rules for one supported plan (see module docstring).

    Instances are immutable and shared across cache entries for the same
    plan; all mutable state (the provenance pairs) lives in the cache entry.
    """

    __slots__ = (
        "ast", "plan", "leaf", "steps", "project", "sort", "tables", "source", "fanout",
    )

    def __init__(
        self,
        ast: Query,
        plan: Operator,
        leaf: Operator,
        steps: List[Tuple[str, Operator]],
        project: Optional[ProjectOp],
        sort: Optional[SortOp],
        tables: frozenset,
    ) -> None:
        self.ast = ast
        self.plan = plan
        self.leaf = leaf
        self.steps = steps
        self.project = project
        self.sort = sort
        self.tables = tables
        self.source = leaf.table_name
        #: Work factor per delta row: one pass per spine step, projection
        #: and sort.
        self.fanout = max(1, len(steps) + (project is not None) + (sort is not None))
        if self.source not in tables:
            raise _Unsupported("source table missing from read set")

    @property
    def has_join(self) -> bool:
        return any(kind != "filter" for kind, _ in self.steps)

    def _source_row(self, provenance: Any) -> Row:
        return provenance[0] if self.sort is not None else provenance

    def snapshot(self, context: ExecutionContext, expected_rows: Sequence[Row]):
        """Provenance pairs for the current state, verified against the rows
        the plan actually produced (or None when unsupported/mismatched)."""
        try:
            runtime = _Runtime(self, context)
        except (_Unsupported, UnknownTableError):
            return None
        # The leaf's own execution yields the base rows in plan order (table
        # order for scans, bucket order for index scans), which seeds the
        # provenance order everything downstream preserves.
        pairs = runtime.produce(self.leaf.execute(context, None).rows, apply_leaf=False)
        if self.sort is not None:
            # SortOp's own passes (last key first, each stable) over the
            # spine order, replayed on the recorded keys.
            items = self.sort.order_by
            try:
                for position in reversed(range(len(items))):
                    pairs.sort(
                        key=lambda pair, i=position: pair[0][1][i],
                        reverse=items[position].descending,
                    )
            except TypeError:
                return None
        if [out for _, out in pairs] != list(expected_rows):
            return None
        return pairs

    def maintain(
        self,
        pairs: List[Tuple[Row, Row]],
        stamp: Tuple[Tuple[str, int], ...],
        context: ExecutionContext,
        delta_log: DeltaLog,
        stats: Optional[MaintenanceStats] = None,
    ):
        """Patch ``pairs`` from ``stamp`` to the current table versions.

        Returns ``(new_pairs, new_stamp)`` on success, None on bailout (the
        caller recomputes).  ``pairs`` is never mutated.
        """
        catalog = context.catalog
        changed: List[str] = []
        for name, version in stamp:
            try:
                table = catalog.resolve_table(name)
            except UnknownTableError:
                return None
            if table.version != version:
                changed.append(name)
        if changed != [self.source]:
            return None  # a non-source table moved (or nothing did)
        source_table = catalog.resolve_table(self.source)
        since = dict(stamp)[self.source]
        records = delta_log.deltas_for(source_table, since)
        if not records:
            return None
        n_delta = sum(
            len(r.inserted) + len(r.deleted) + len(r.changes) for r in records
        )
        if self._over_cost(n_delta, source_table):
            return None
        try:
            runtime = _Runtime(self, context)
        except (_Unsupported, UnknownTableError):
            return None
        new_pairs = list(pairs)
        for record in records:
            if record.deleted:
                self._apply_delete(new_pairs, record.deleted)
            if record.changes and not self._apply_changes(new_pairs, record.changes, runtime):
                return None
            produced = runtime.produce(record.inserted)
            if not produced:
                continue
            if self.sort is None:
                new_pairs.extend(produced)
            elif runtime.index_ordered or not self._place(new_pairs, produced):
                return None
        new_stamp = tuple(
            (name, catalog.resolve_table(name).version) for name, _ in stamp
        )
        context.stats.maintenance_delta_rows += n_delta
        if stats is not None:
            stats.delta_rows += n_delta
        return new_pairs, new_stamp

    def _over_cost(self, n_delta: int, source_table: Table) -> bool:
        """The cost-based bailout: ``|delta| x fanout`` vs the full-scan cost.

        The full cost is the optimizer's estimate for the whole plan when
        annotated, else the source table's current cardinality (the
        heuristic planner's implied scan cost).
        """
        full_cost = self.plan.estimated_cost
        if full_cost is None:
            full_cost = float(len(source_table.rows) + 1)
        return n_delta * self.fanout > full_cost

    def _apply_delete(self, pairs: List[Tuple[Any, Row]], deleted: Tuple[Row, ...]) -> None:
        # delete_where removes *every* row matching a value-based predicate
        # (and replace-deletes are only classified when no deleted value
        # survives), so dropping all pairs sourced from the deleted values
        # is positionally exact -- under a sort too, since a stable sort of
        # a subsequence is the subsequence of the stable sort.
        doomed = set(deleted)
        source_row = self._source_row
        pairs[:] = [pair for pair in pairs if source_row(pair[0]) not in doomed]

    def _place(self, pairs: List[Tuple[Any, Row]], produced: List[Tuple[Any, Row]]) -> bool:
        """Insert sorted-program outputs where :class:`SortOp` would put them.

        An inserted source row comes last in spine order, so each of its
        outputs lands after every row whose key ties with it (the sort is
        stable): a binary search for the first row it strictly precedes.
        False when the keys do not compare (the caller bails).

        :class:`SortOp` sorts one full pass per item, so a key must compare
        with the placed rows on *every* item, not only on the items the
        search reached.  The placed rows compare with each other on every
        item (they were sorted), so on each item the nearest non-NULL value
        stands for all of them.
        """
        descending = tuple(item.descending for item in self.sort.order_by)

        def precedes(key: Tuple[Any, ...], other: Tuple[Any, ...]) -> bool:
            for mine, theirs, desc in zip(key, other, descending):
                if mine < theirs:
                    return not desc
                if theirs < mine:
                    return desc
            return False

        def check_comparable(key: Tuple[Any, ...], at: int) -> None:
            for item, mine in enumerate(key):
                if mine[0]:
                    continue  # NULL orders by its flag alone
                for index in chain(range(at, len(pairs)), range(at - 1, -1, -1)):
                    theirs = pairs[index][0][1][item]
                    if not theirs[0]:
                        _ = mine[1] < theirs[1]  # TypeError when they do not compare
                        break

        try:
            for provenance, out in produced:
                low, high = 0, len(pairs)
                while low < high:
                    middle = (low + high) // 2
                    if precedes(provenance[1], pairs[middle][0][1]):
                        high = middle
                    else:
                        low = middle + 1
                check_comparable(provenance[1], low)
                pairs.insert(low, (provenance, out))
        except TypeError:
            return False
        return True

    def _apply_changes(
        self,
        pairs: List[Tuple[Any, Row]],
        changes: Tuple[Tuple[Row, Row], ...],
        runtime: _Runtime,
    ) -> bool:
        if self.has_join or self.sort is not None:
            # Per-row output counts vary under a join, and a changed sort
            # key moves its row: only an update that neither feeds nor
            # leaves any output row is order-exact (it changes nothing).
            sources = {self._source_row(provenance) for provenance, _ in pairs}
            return not any(
                old_row in sources or runtime.produce([new_row]) for old_row, new_row in changes
            )
        for old_row, new_row in changes:
            outs = runtime.produce([new_row])
            new_out = outs[0][1] if outs else None
            position = None
            for index, (source_row, _) in enumerate(pairs):
                if source_row == old_row:
                    position = index
                    break
            if runtime.index_ordered:
                # Index-bucket order: the table removes the old row and
                # re-appends the new one at its bucket's end.
                if position is not None:
                    del pairs[position]
                if new_out is not None:
                    pairs.append((new_row, new_out))
            else:
                # Base-table order: updates keep their row position.
                if position is not None:
                    if new_out is not None:
                        pairs[position] = (new_row, new_out)
                    else:
                        del pairs[position]
                elif new_out is not None:
                    # The old row was filtered out, so its position among
                    # the survivors is unknown — a designed bailout.
                    return False
        return True
