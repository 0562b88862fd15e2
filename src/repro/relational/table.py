"""In-memory relational tables.

Tables store rows as plain tuples and enforce their schema on every
mutation.  Hilda assignments (``table :- SELECT ...``) replace the entire
contents of the target table, so :meth:`Table.replace` is the primitive the
runtime uses, except for the append idiom (``T :- SELECT ... FROM T UNION
ALL Q``), which it runs as one atomic :meth:`Table.insert_many` of ``Q``'s
rows; the web baseline and the SQL DML statements additionally use
insert/delete/update.

Beyond the primary-key map, a table can carry **secondary hash indexes**
(declared on the schema or created on demand by the SQL planner via
:meth:`ensure_index`).  Each index maps a tuple of column values to the list
of rows holding those values and is maintained incrementally on
insert/delete/update; whole-table ``replace`` rebuilds it.  The primary-key
map itself maps key -> row, so point mutations touch only the changed keys
instead of rebuilding the map per statement.

Each table also maintains **statistics** for the cost-based SQL optimizer
— row count, per-column distinct counts and min/max — incrementally, under
the same lock as the structural mutation they describe, exposed as an
immutable :class:`~repro.relational.statistics.TableStatistics` snapshot
via :meth:`Table.statistics`.  Maintenance is armed by the first
``statistics()`` call, so tables never planned cost-based pay nothing
(see ``docs/optimizer.md``).

Every table also carries a :attr:`Table.version` — a content-change stamp
drawn from one process-wide monotonically increasing clock.  A table's
version changes exactly when its *contents* change (inserts, effective
deletes/updates, replacements with different rows); index creation and no-op
writes leave it untouched, and :meth:`copy` carries the version over because
the copy holds the same contents.  Because the clock is global, two tables
holding equal versions are guaranteed to have gone unmodified since the
stamp was taken, which is what lets the runtime's caches validate dependency
version vectors across reactivations (see ``docs/caching.md``).

Finally, a table can carry a **journal** — a callback installed by the
durable storage layer (:meth:`Table.set_journal`) and fired inside the
table lock after every *effective* mutation with a logical description of
the change (op kind, affected rows, new version stamp).  Tables without a
journal (the default, and every local/derived table) pay a single ``None``
check per mutation.  Row payloads are defensively copied at emission time:
the journal buffers them until commit, while the table keeps mutating the
live lists.  See ``docs/storage.md`` for the op vocabulary.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IntegrityError, SchemaError, UnknownColumnError
from repro.relational.schema import TableSchema
from repro.relational.statistics import StatisticsMaintainer, TableStatistics

__all__ = ["Table", "ensure_version_clock_at_least"]

Row = Tuple[Any, ...]

#: A secondary index: key-value tuple -> rows holding those values.
IndexMap = Dict[Tuple[Any, ...], List[Row]]


class _VersionClock:
    """The process-wide version clock (monotonically increasing stamps).

    Crash recovery restores tables to their pre-crash version stamps, so
    the clock must then be advanced past every restored stamp — otherwise a
    later mutation could re-issue a stamp a cache already recorded, making
    a stale entry look valid (:func:`ensure_version_clock_at_least`).
    """

    def __init__(self, start: int = 1) -> None:
        self._next = start
        self._lock = threading.Lock()

    def __next__(self) -> int:
        with self._lock:
            value = self._next
            self._next += 1
            return value

    def ensure_at_least(self, used: int) -> None:
        with self._lock:
            if self._next <= used:
                self._next = used + 1


_version_clock = _VersionClock()


def ensure_version_clock_at_least(used: int) -> None:
    """Advance the global version clock past a restored stamp (recovery)."""
    _version_clock.ensure_at_least(used)


class Table:
    """A bag of rows conforming to a :class:`TableSchema`.

    Rows are stored in insertion order.  When the schema declares a primary
    key, uniqueness of the key is enforced; otherwise duplicate rows are
    permitted (bag semantics), matching SQL.
    """

    def __init__(self, schema: TableSchema, rows: Iterable[Sequence[Any]] = ()) -> None:
        self.schema = schema
        self._rows: List[Row] = []
        self._key_index: Optional[Dict[Tuple[Any, ...], Row]] = (
            {} if schema.primary_key else None
        )
        self._indexes: Dict[Tuple[str, ...], IndexMap] = {}
        self._index_positions: Dict[Tuple[str, ...], Tuple[int, ...]] = {}
        #: Guards structural mutation (rows, key map, secondary indexes) so
        #: concurrent sessions sharing a persistent table cannot corrupt it;
        #: notably the planner's on-demand ``ensure_index`` may race between
        #: two concurrent read-only queries (see docs/concurrency.md).
        self._lock = threading.RLock()
        self._version = next(_version_clock)
        #: Storage journal hook (None for every table storage never bound;
        #: :meth:`copy` deliberately drops it — copies are throwaways).
        self._journal: Optional[Callable[[Dict[str, Any]], None]] = None
        #: Delta-log hook (incremental view maintenance; docs/caching.md).
        #: Shares the journal's op vocabulary but is a separate slot so the
        #: WAL and the delta log each see every mutation exactly once.
        self._delta_hook: Optional[Callable[[Dict[str, Any]], None]] = None
        #: Statistics maintenance is armed by the first :meth:`statistics`
        #: call (None until then): tables whose plans never consult
        #: statistics — the heuristic strategy, ``optimize=False`` — pay
        #: nothing for them on the mutation path.
        self._stats: Optional[StatisticsMaintainer] = None
        for columns in schema.indexes:
            self.create_index(columns)
        self.insert_many(rows)

    # -- properties ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def rows(self) -> List[Row]:
        """The rows of the table (a direct reference; do not mutate)."""
        return self._rows

    @property
    def version(self) -> int:
        """The content-change stamp (globally unique per change; see module doc)."""
        return self._version

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def is_empty(self) -> bool:
        return not self._rows

    # -- journaling (docs/storage.md) ----------------------------------------

    def set_journal(self, journal: Optional[Callable[[Dict[str, Any]], None]]) -> None:
        """Install (or remove) the storage journal hook for this table.

        The hook is invoked inside the table lock, after the mutation has
        fully applied, with a dict describing the logical change — one of
        ``insert``/``delete``/``update``/``replace``/``create_index`` — and
        must not call back into the table.
        """
        with self._lock:
            self._journal = journal

    def set_delta_hook(self, hook: Optional[Callable[[Dict[str, Any]], None]]) -> None:
        """Install (or remove) the delta-log hook for this table.

        Same contract as :meth:`set_journal` (fired inside the table lock,
        after every effective mutation, must not call back into the table),
        but a *separate* slot: the WAL claims the journal, the incremental
        maintenance layer claims this one, and each mutation is delivered to
        both exactly once.  ``replace`` ops additionally carry ``old_rows``
        (the pre-image, by reference) so the delta log can classify the
        replacement; the WAL journal ignores unknown keys.
        """
        with self._lock:
            self._delta_hook = hook

    def _emit(self, op: Dict[str, Any]) -> None:
        """Deliver one logical-op record to whichever hooks are installed."""
        if self._journal is not None:
            self._journal(op)
        if self._delta_hook is not None:
            self._delta_hook(op)

    # -- mutation -------------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> Row:
        """Insert a row after coercing it to the schema; returns the stored row.

        The one-row case of :meth:`insert_many`.
        """
        row = self.schema.coerce_row(values)
        self._append_rows([row])
        return row

    def insert_mapping(self, mapping: Dict[str, Any]) -> Row:
        """Insert a row given as a column-name -> value mapping."""
        return self.insert(self.schema.row_from_mapping(mapping))

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append ``rows`` atomically; returns the number inserted.

        Every key is checked against the key map and within the batch before
        anything is touched, so a clash raises :class:`IntegrityError` and
        leaves the rows, indexes, version and journal exactly as they were.
        A non-empty batch bumps the version once and emits one ``insert``
        op; an empty one changes nothing.
        """
        coerced = [self.schema.coerce_row(row) for row in rows]
        self._append_rows(coerced)
        return len(coerced)

    def _append_rows(self, rows: List[Row]) -> None:
        if not rows:
            return
        with self._lock:
            if self._key_index is not None:
                key_of = self.schema.key_of
                keys = [key_of(row) for row in rows]
                batch = set()
                for key in keys:
                    if key in self._key_index or key in batch:
                        raise IntegrityError(
                            f"duplicate primary key {key!r} in table {self.name!r}"
                        )
                    batch.add(key)
                self._key_index.update(zip(keys, rows))
            self._rows.extend(rows)
            if self._indexes:
                for row in rows:
                    self._index_add(row)
            if self._stats is not None:
                for row in rows:
                    self._stats.add_row(row)
            self._version = next(_version_clock)
            if self._journal is not None or self._delta_hook is not None:
                self._emit({"op": "insert", "rows": tuple(rows), "version": self._version})

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete all rows matching ``predicate``; returns the number removed.

        Indexes (primary and secondary) are maintained incrementally: only
        the removed rows are unindexed instead of rebuilding every map.
        """
        with self._lock:
            kept: List[Row] = []
            removed: List[Row] = []
            for row in self._rows:
                (removed if predicate(row) else kept).append(row)
            if removed:
                self._rows = kept
                if self._key_index is not None:
                    key_of = self.schema.key_of
                    for row in removed:
                        del self._key_index[key_of(row)]
                if self._indexes:
                    for row in removed:
                        self._index_remove(row)
                if self._stats is not None:
                    for row in removed:
                        self._stats.remove_row(row)
                self._version = next(_version_clock)
                if self._journal is not None or self._delta_hook is not None:
                    self._emit(
                        {"op": "delete", "rows": list(removed), "version": self._version}
                    )
            return len(removed)

    def update_where(
        self,
        predicate: Callable[[Row], bool],
        updater: Callable[[Row], Sequence[Any]],
    ) -> int:
        """Replace each matching row with ``updater(row)``; returns count updated.

        Only the rows whose contents actually change are re-indexed; key
        uniqueness is validated against the post-update state before any
        structure is touched, so a violation leaves the table unchanged.
        """
        with self._lock:
            matched = 0
            changed: List[Tuple[Row, Row]] = []
            new_rows: List[Row] = []
            for row in self._rows:
                if predicate(row):
                    new_row = self.schema.coerce_row(updater(row))
                    new_rows.append(new_row)
                    matched += 1
                    if new_row != row:
                        changed.append((row, new_row))
                else:
                    new_rows.append(row)
            if not matched:
                return 0
            if self._key_index is not None and changed:
                key_of = self.schema.key_of
                old_keys = {key_of(old) for old, _ in changed}
                seen = set()
                for _, new_row in changed:
                    key = key_of(new_row)
                    if key in seen or (key in self._key_index and key not in old_keys):
                        raise IntegrityError(
                            f"duplicate primary key {key!r} in table {self.name!r}"
                        )
                    seen.add(key)
            self._rows = new_rows
            if changed:
                if self._key_index is not None:
                    key_of = self.schema.key_of
                    for old, _ in changed:
                        del self._key_index[key_of(old)]
                    for _, new_row in changed:
                        self._key_index[key_of(new_row)] = new_row
                if self._indexes:
                    for old, new_row in changed:
                        self._index_remove(old)
                        self._index_add(new_row)
                if self._stats is not None:
                    for old, new_row in changed:
                        self._stats.replace_row(old, new_row)
                self._version = next(_version_clock)
                if self._journal is not None or self._delta_hook is not None:
                    self._emit(
                        {"op": "update", "changes": list(changed), "version": self._version}
                    )
            return matched

    def replace(self, rows: Iterable[Sequence[Any]]) -> int:
        """Replace the entire contents of the table (Hilda assignment semantics)."""
        coerced = [self.schema.coerce_row(row) for row in rows]
        self._set_rows(coerced)
        return len(coerced)

    def clear(self) -> None:
        self._set_rows([])

    def _set_rows(self, rows: List[Row]) -> None:
        with self._lock:
            if rows == self._rows:
                # No content change: keep the version stamp (and every index)
                # so dependency-tracked caches stay valid across assignments
                # that recompute the same result (the common Hilda case of a
                # handler rewriting an unchanged table).
                return
            if self._key_index is not None:
                index: Dict[Tuple[Any, ...], Row] = {}
                for row in rows:
                    key = self.schema.key_of(row)
                    if key in index:
                        raise IntegrityError(
                            f"duplicate primary key {key!r} in table {self.name!r}"
                        )
                    index[key] = row
                self._key_index = index
            old_rows = self._rows
            self._rows = rows
            if self._indexes:
                for columns in self._indexes:
                    self._indexes[columns] = self._build_index(columns)
            # Whole-table replacement: rebuild statistics lazily on the next
            # read instead of paying O(rows * arity) on the Hilda hot path.
            self._stats = None
            self._version = next(_version_clock)
            if self._journal is not None or self._delta_hook is not None:
                self._emit(
                    {
                        "op": "replace",
                        "rows": list(rows),
                        "old_rows": old_rows,
                        "version": self._version,
                    }
                )

    # -- secondary indexes ----------------------------------------------------

    def create_index(self, columns: Sequence[str]) -> Tuple[str, ...]:
        """Create a hash index over ``columns`` (a no-op when it exists).

        Returns the canonical column tuple (schema order) identifying it.
        """
        canonical = self._canonical_index_columns(columns)
        with self._lock:
            if canonical not in self._indexes:
                self._index_positions[canonical] = tuple(
                    self.schema.column_position(name) for name in canonical
                )
                self._indexes[canonical] = self._build_index(canonical)
                if self._journal is not None or self._delta_hook is not None:
                    self._emit({"op": "create_index", "columns": canonical})
        return canonical

    def ensure_index(self, columns: Sequence[str]) -> Tuple[str, ...]:
        """Alias of :meth:`create_index`; reads better at call sites."""
        return self.create_index(columns)

    def has_index(self, columns: Sequence[str]) -> bool:
        try:
            canonical = self._canonical_index_columns(columns)
        except (SchemaError, UnknownColumnError):
            return False
        return canonical in self._indexes

    def index_lookup(self, columns: Sequence[str], values: Sequence[Any]) -> Sequence[Row]:
        """Rows whose ``columns`` equal ``values`` (a direct reference; do not mutate)."""
        canonical = tuple(columns)
        index = self._indexes.get(canonical)
        key = tuple(values)
        if index is None:
            ordered = sorted(
                zip(canonical, key), key=lambda pair: self.schema.column_position(pair[0])
            )
            canonical = tuple(name for name, _ in ordered)
            key = tuple(value for _, value in ordered)
            index = self._indexes[canonical]
        return index.get(key, ())

    @property
    def indexes(self) -> List[Tuple[str, ...]]:
        """The canonical column tuples of the secondary indexes."""
        return list(self._indexes)

    def _canonical_index_columns(self, columns: Sequence[str]) -> Tuple[str, ...]:
        cols = tuple(columns)
        if not cols:
            raise SchemaError(f"index on table {self.name!r} needs at least one column")
        if len(set(cols)) != len(cols):
            raise SchemaError(f"duplicate column in index on table {self.name!r}: {cols}")
        return tuple(sorted(cols, key=self.schema.column_position))

    def _build_index(self, canonical: Tuple[str, ...]) -> IndexMap:
        positions = self._index_positions[canonical]
        index: IndexMap = {}
        for row in self._rows:
            key = tuple(row[position] for position in positions)
            index.setdefault(key, []).append(row)
        return index

    def _index_add(self, row: Row) -> None:
        for canonical, index in self._indexes.items():
            positions = self._index_positions[canonical]
            key = tuple(row[position] for position in positions)
            index.setdefault(key, []).append(row)

    def _index_remove(self, row: Row) -> None:
        for canonical, index in self._indexes.items():
            positions = self._index_positions[canonical]
            key = tuple(row[position] for position in positions)
            bucket = index.get(key)
            if bucket is None:
                continue
            bucket.remove(row)
            if not bucket:
                del index[key]

    # -- statistics -------------------------------------------------------------

    def statistics(self) -> TableStatistics:
        """An immutable snapshot of the table's optimizer statistics.

        The first call arms maintenance: it builds the histograms from the
        current rows, after which point mutations (insert/delete/update)
        maintain them incrementally.  Whole-table replacement and
        :meth:`copy` mark them stale again rather than paying a rebuild on
        the mutation path, and tables whose statistics are never read pay
        nothing at all.  The snapshot is cached until the next content
        change, so planners can call this freely.
        """
        with self._lock:
            if self._stats is None:
                self._stats = StatisticsMaintainer(
                    self.schema.name, self.schema.column_names
                )
                self._stats.rebuild(self._rows)
            return self._stats.snapshot()

    @property
    def stats_epoch(self) -> int:
        """The current statistics epoch (advances when the size class changes).

        Note the epoch is local to one maintainer lifetime: a lazily rebuilt
        maintainer (after :meth:`replace` or :meth:`copy`) restarts at 1.
        Plan-cache fingerprints therefore record the *size class*, which is a
        pure function of the row count and stable across rebuilds.
        """
        return self.statistics().epoch

    # -- lookup ---------------------------------------------------------------

    def find_by_key(self, key: Sequence[Any]) -> Optional[Row]:
        """Find a row by primary key (or full-row key when none declared)."""
        key_tuple = tuple(key)
        if self._key_index is not None:
            return self._key_index.get(key_tuple)
        for row in self._rows:
            if self.schema.key_of(row) == key_tuple:
                return row
        return None

    def select(self, predicate: Callable[[Row], bool]) -> List[Row]:
        """All rows satisfying ``predicate`` (a convenience for tests/baseline)."""
        return [row for row in self._rows if predicate(row)]

    def column_values(self, column: str) -> List[Any]:
        position = self.schema.column_position(column)
        return [row[position] for row in self._rows]

    def as_dicts(self) -> List[Dict[str, Any]]:
        names = self.schema.column_names
        return [dict(zip(names, row)) for row in self._rows]

    # -- integrity ------------------------------------------------------------

    def check_integrity(self) -> List[str]:
        """Verify that the key map and every secondary index agree with the rows.

        Returns a list of human-readable problems (empty when consistent).
        Used by the concurrent-mutation stress tests to prove that interleaved
        sessions cannot corrupt shared relational state.
        """
        problems: List[str] = []
        with self._lock:
            if self._key_index is not None:
                expected = {}
                for row in self._rows:
                    key = self.schema.key_of(row)
                    if key in expected:
                        problems.append(f"{self.name}: duplicate key {key!r} in rows")
                    expected[key] = row
                if expected != self._key_index:
                    problems.append(
                        f"{self.name}: primary-key map disagrees with rows "
                        f"({len(self._key_index)} keys vs {len(expected)} rows)"
                    )
            for canonical in self._indexes:
                actual = self._indexes[canonical]
                rebuilt = self._build_index(canonical)
                if {k: sorted(map(_sort_key, v)) for k, v in actual.items()} != {
                    k: sorted(map(_sort_key, v)) for k, v in rebuilt.items()
                }:
                    problems.append(
                        f"{self.name}: secondary index on {canonical} is stale"
                    )
        return problems

    # -- copying --------------------------------------------------------------

    def copy(self) -> "Table":
        """A deep-enough copy: rows are immutable tuples so a list copy suffices.

        The copy keeps the source's version stamp: it holds the same contents,
        so dependency vectors recorded against the source stay valid against
        the copy (local tables are copied across reactivations).
        """
        clone = Table(self.schema)
        clone._version = self._version
        clone._rows = list(self._rows)
        # Statistics rebuild lazily on the clone's first statistics() call.
        clone._stats = None
        if self._key_index is not None:
            clone._key_index = dict(self._key_index)
        clone._index_positions = dict(self._index_positions)
        clone._indexes = {
            columns: {key: list(bucket) for key, bucket in index.items()}
            for columns, index in self._indexes.items()
        }
        return clone

    def same_contents(self, other: "Table") -> bool:
        """Bag equality of contents, ignoring row order."""
        if self.schema.arity != other.schema.arity:
            return False
        return sorted(map(_sort_key, self._rows)) == sorted(
            map(_sort_key, other._rows)
        )

    def __repr__(self) -> str:
        return f"Table({self.name}, {len(self._rows)} rows)"


def _sort_key(row: Row) -> Tuple[str, ...]:
    """A total order over heterogeneous rows (None sorts as empty string)."""
    return tuple("" if value is None else f"{type(value).__name__}:{value}" for value in row)
