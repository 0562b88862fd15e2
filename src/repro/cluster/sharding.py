"""Shard placement and scatter-gather reads for cluster serving.

:class:`ShardPlan` compiles the placement of one application's persistent
tables over N workers.  It leans on the compiler's partitioning analysis
(:func:`repro.compiler.partitioning.analyse_table_placements`): a root-AUnit
table whose reads are session-affine and whose writes preserve the key is
*partitioned* — each worker holds only the rows whose key hashes to it — and
everything else is *replicated*.

The plan also registers, ahead of time, which program read queries are
**global**: they read a partitioned table without the affinity predicate, so
one shard's rows are not enough.  Registration is by identity of the
declaration's query AST — the runtime executes exactly those objects — which
makes the per-query check in the executor hot path a dict lookup.  Handler
*actions* are deliberately never registered: an assignment's read of its own
target must see the local partition only, because ``target.replace(...)``
rewrites the partition with the query result (scatter-gathering there would
copy every peer's rows into the local shard).

:class:`ScatterGather` is the executor-facing provider (the ``scatter``
hook of :class:`repro.sql.executor.SQLExecutor`): for a registered global
query it materialises overlay tables merging the local partition with every
peer's rows, fetched through injected callables so the policy is testable
without sockets.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.compiler.partitioning import (
    TablePlacementReport,
    analyse_table_placements,
    select_is_affine,
    _deep_references,
    _selects,
)
from repro.hilda.ast import QueryBlock
from repro.hilda.program import HildaProgram
from repro.relational.table import Table
from repro.sql.ast import Query

__all__ = ["ShardPlan", "ScatterGather", "shard_of"]


def shard_of(value: Any, workers: int) -> int:
    """The worker owning a session/row key.

    CRC32 of the key's string form — deterministic across processes and
    Python versions (unlike ``hash``), so the router and every worker agree
    on placement without coordination.
    """
    return zlib.crc32(str(value).encode("utf-8")) % workers


class ShardPlan:
    """The compiled placement of one program's tables over ``workers`` shards."""

    def __init__(
        self,
        program: HildaProgram,
        workers: int,
        overrides: Union[Dict[str, str], Sequence[Tuple[str, str]], None] = None,
    ) -> None:
        self.program = program
        self.workers = int(workers)
        self.report: TablePlacementReport = analyse_table_placements(
            program, dict(overrides or {})
        )
        #: table name -> partitioning key column
        self.partitioned: Dict[str, str] = self.report.partitioned
        self.replicated: List[str] = self.report.replicated
        self.input_tables: Tuple[str, ...] = self.report.input_tables
        self._global_by_id: Dict[int, Tuple[str, ...]] = {}
        self._global_by_text: Dict[str, Tuple[str, ...]] = {}
        if self.partitioned:
            self._register_queries(program)

    # -- placement -------------------------------------------------------------

    def shard_of(self, value: Any) -> int:
        return shard_of(value, self.workers)

    def owns_row(self, worker: int, table: Table, name: str, row: Sequence[Any]) -> bool:
        """Does ``worker`` own this row of a partitioned table?"""
        key_column = self.partitioned[name]
        position = list(table.schema.column_names).index(key_column)
        return self.shard_of(row[position]) == worker

    def localize(self, worker: int, tables: Dict[str, Table]) -> int:
        """Drop every row a worker does not own from its partitioned tables.

        Run once per worker right after seeding, so all workers can seed the
        full deterministic initial state and then keep only their shard.
        Returns the number of rows dropped.
        """
        dropped = 0
        for name, key_column in self.partitioned.items():
            table = tables.get(name)
            if table is None:
                continue
            position = list(table.schema.column_names).index(key_column)
            dropped += table.delete_where(
                lambda row, _pos=position: self.shard_of(row[_pos]) != worker
            )
        return dropped

    # -- global-query registry -------------------------------------------------

    def is_global(self, query: Union[str, Query]) -> bool:
        """Does this program read query need rows from every shard?"""
        return bool(self.global_tables(query))

    def global_tables(self, query: Union[str, Query]) -> Tuple[str, ...]:
        """The partitioned tables a registered global query must merge."""
        if isinstance(query, str):
            return self._global_by_text.get(query, ())
        return self._global_by_id.get(id(query), ())

    def classify_query(self, query: Query) -> Tuple[str, ...]:
        """The partitioned tables ``query`` reads without session affinity."""
        needs: List[str] = []
        for table in sorted(self.partitioned):
            key_column = self.partitioned[table]
            referenced = False
            affine = True
            for select in _selects(query):
                if _deep_references(select, table):
                    referenced = True
                if not select_is_affine(select, table, key_column, self.input_tables):
                    affine = False
            if referenced and not affine:
                needs.append(table)
        return tuple(needs)

    def summary(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "partitioned": dict(self.partitioned),
            "replicated": list(self.replicated),
            "global_queries": len(self._global_by_id),
        }

    def _register_queries(self, program: HildaProgram) -> None:
        for block in _read_query_blocks(program):
            tables = self.classify_query(block.query)
            if tables:
                self._global_by_id[id(block.query)] = tables
                self._global_by_text[block.text] = tables


def _read_query_blocks(program: HildaProgram) -> Iterable[QueryBlock]:
    """Every *read-context* query block of a program.

    Covers activation queries, activation filters, input queries, local
    queries and handler conditions.  Persist queries (deterministic seeding,
    runs before localization) and handler actions (must read the local
    partition; see module docstring) are excluded by design.
    """
    for aunit in program.reachable_aunits():
        for assignment in aunit.local_query:
            yield assignment.query
        for activator in aunit.activators:
            if activator.activation_query is not None:
                yield activator.activation_query
            for filter_block in activator.activation_filters:
                yield filter_block
            for assignment in activator.input_query:
                yield assignment.query
            for handler in activator.handlers:
                if handler.condition is not None:
                    yield handler.condition


class ScatterGather:
    """The executor ``scatter`` hook for one worker.

    Parameters
    ----------
    plan:
        The shard plan (shared shape across all workers).
    worker:
        This worker's index.
    local_tables:
        ``name -> Table`` resolver for the worker's own partitions.
    peer_rows:
        ``(worker, table) -> iterable of rows`` fetching a peer's partition
        (an RPC in production, a plain callable in tests).
    """

    def __init__(
        self,
        plan: ShardPlan,
        worker: int,
        local_tables: Callable[[str], Optional[Table]],
        peer_rows: Callable[[int, str], Iterable[Sequence[Any]]],
    ) -> None:
        self.plan = plan
        self.worker = worker
        self._local_tables = local_tables
        self._peer_rows = peer_rows
        self.gather_count = 0

    def is_global(self, query: Union[str, Query]) -> bool:
        return self.plan.is_global(query)

    def overlay_for(
        self, query: Query, read_names: Optional[Iterable[str]] = None
    ) -> Optional[Dict[str, Table]]:
        """Merged tables for a global query; None for everything else.

        Rows merge in worker-index order, which is deterministic but not the
        single-process insertion order — global queries therefore need an
        ORDER BY to render identically across deployments (docs/cluster.md).
        """
        tables = self.plan.global_tables(query)
        if not tables:
            return None
        wanted = set(read_names) if read_names is not None else None
        overlay: Dict[str, Table] = {}
        for name in tables:
            if wanted is not None and name not in wanted:
                continue
            local = self._local_tables(name)
            if local is None:
                continue
            rows: List[Sequence[Any]] = []
            for peer in range(self.plan.workers):
                if peer == self.worker:
                    rows.extend(local.rows)
                else:
                    rows.extend(self._peer_rows(peer, name))
            overlay[name] = Table(local.schema, rows)
            self.gather_count += 1
        return overlay or None
