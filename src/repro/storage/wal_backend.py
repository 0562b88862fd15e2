"""The durable backend: logical WAL + checkpoint snapshots + recovery.

One engine transaction — a user operation, a session start, a bulk seed —
becomes **one WAL record**::

    {"kind": "txn", "seq": <n>, "ops": [...], "meta": {...}}

``ops`` are the logical table mutations journaled by
:class:`~repro.relational.table.Table` while the transaction was open
(plus ``persist_created`` markers for newly initialised AUnit types);
``meta`` captures the engine's counters *after* the transaction (state
version, next session/instance/genkey values), which is what makes a
recovered engine continue exactly where the committed prefix left off.
Because a whole transaction is one checksummed record, recovery applies it
atomically: a record torn by a crash fails its checksum and is discarded
wholesale — never half-applied (see :mod:`repro.storage.wal`).

Recovery happens at construction: load the snapshot (checksummed; a
corrupt one raises :class:`~repro.errors.RecoveryError` loudly), replay
every valid WAL record with ``seq`` greater than the snapshot's into plain
row lists, and hand the result to the engine lazily — the engine asks
:meth:`recovered_persist` per AUnit type, and table *schemas* always come
from the current program declaration, so only contents, secondary indexes
and version stamps cross the crash.

Checkpoints run under the engine's write lock every ``checkpoint_every``
transactions: write the full committed state to a temporary file, fsync,
atomically publish it, then truncate the WAL.  Every step is bracketed by
``checkpoint.*`` crash points; the ``seq`` filter above is what makes the
crash window between publish and truncation safe (the stale WAL prefix is
skipped, not replayed twice).  See ``docs/storage.md``.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.config import StorageConfig
from repro.errors import RecoveryError, SimulatedCrash, StorageError
from repro.storage.backend import StorageBackend
from repro.storage.snapshot import encode_snapshot, fsync_directory, load_snapshot
from repro.storage.wal import CrashPointRegistry, WalWriter, read_wal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.hilda.ast import AUnitDecl
    from repro.relational.table import Table

__all__ = ["WalBackend", "WAL_FILENAME", "SNAPSHOT_FILENAME"]

WAL_FILENAME = "wal.log"
SNAPSHOT_FILENAME = "snapshot.dat"


class WalBackend(StorageBackend):
    """Durable storage: group-committed WAL, snapshots, crash recovery."""

    name = "wal"

    def __init__(self, config: StorageConfig) -> None:
        if config.data_dir is None:
            raise StorageError("WalBackend requires StorageConfig.data_dir")
        self.config = config
        self.data_dir = config.data_dir
        os.makedirs(self.data_dir, exist_ok=True)
        self.wal_path = os.path.join(self.data_dir, WAL_FILENAME)
        self.snapshot_path = os.path.join(self.data_dir, SNAPSHOT_FILENAME)
        #: Fault-injection hooks shared with the writer (docs/storage.md).
        self.crash_points = CrashPointRegistry()

        # ---- recovery: snapshot base + WAL suffix -> plain state -------------
        #: aunit -> table -> {"rows": [...], "version": int, "indexes": [...]}.
        self._recovered: Dict[str, Dict[str, Dict[str, Any]]] = {}
        #: AUnit types whose persistent tables existed before the crash.
        self._created: Set[str] = set()
        self._counters: Optional[Dict[str, Any]] = None
        base_seq = 0
        snapshot = load_snapshot(self.snapshot_path)
        if snapshot is not None:
            base_seq = snapshot["seq"]
            self._recovered = snapshot["persist"]
            self._created = set(snapshot["created"])
            self._counters = snapshot["counters"]
        self._seq = base_seq
        records, _ = read_wal(self.wal_path)
        replayed = 0
        for record in records:
            if not isinstance(record, dict) or record.get("kind") != "txn":
                raise RecoveryError(
                    f"WAL {self.wal_path!r} holds an unknown record: {record!r}"
                )
            if record["seq"] <= base_seq:
                continue  # predates the snapshot (crash before WAL truncation)
            for op in record["ops"]:
                self._apply_op(op)
            self._counters = record["meta"]
            self._seq = record["seq"]
            replayed += 1
        # Leftover tmp file from a checkpoint that died before publishing.
        tmp = self.snapshot_path + ".tmp"
        if os.path.exists(tmp):
            os.unlink(tmp)

        # ---- live write path -------------------------------------------------
        self._wal = WalWriter(
            self.wal_path, fsync_mode=config.fsync, crash_points=self.crash_points
        )
        #: Serialises seq allocation + append so record order matches seq order.
        self._txn_lock = threading.Lock()
        self._depth = 0
        self._ops: List[Tuple[Any, ...]] = []
        #: Replayed transactions count against the checkpoint cadence, so a
        #: workload of short restarts still checkpoints instead of replaying
        #: an ever-growing log from an ever-staler snapshot.
        self._txns_since_checkpoint = replayed
        self._engine: Any = None
        self._close_hooks: List[Callable[[], None]] = []
        self._closed = False

    # -- introspection ----------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """The sequence number of the last known committed transaction."""
        return self._seq

    @property
    def wal(self) -> WalWriter:
        return self._wal

    # -- wiring -----------------------------------------------------------------

    def bind_engine(self, engine: Any) -> None:
        self._engine = engine

    def bind_table(self, aunit_name: str, table: "Table") -> None:
        table_name = table.name
        table.set_journal(lambda op: self._journal(aunit_name, table_name, op))

    def on_close(self, hook: Callable[[], None]) -> None:
        self._close_hooks.append(hook)

    # -- recovery hand-off -------------------------------------------------------

    def recovered_counters(self) -> Optional[Dict[str, Any]]:
        return self._counters

    def recovered_persist(self, decl: "AUnitDecl") -> Optional[Dict[str, "Table"]]:
        if decl.name not in self._created:
            return None
        from repro.relational.table import Table, ensure_version_clock_at_least

        state = self._recovered.get(decl.name, {})
        tables: Dict[str, Table] = {}
        for schema in decl.persist_schema:
            entry = state.get(schema.name)
            table = Table(schema, rows=entry["rows"] if entry else ())
            if entry is not None:
                for columns in entry["indexes"]:
                    table.create_index(columns)
                version = entry["version"]
                if version is not None:
                    ensure_version_clock_at_least(version)
                    table._version = version
            tables[schema.name] = table
        return tables

    # -- transactions ------------------------------------------------------------

    def begin(self) -> None:
        self._depth += 1

    def commit(self, meta: Dict[str, Any]) -> Optional[int]:
        if self._depth == 0:
            return None
        self._depth -= 1
        if self._depth:
            return None  # nested section: the outermost commit logs it all
        ops, self._ops = self._ops, []
        lsn = self._append_txn(ops, meta)
        if self.config.fsync == "always":
            # Serial durability: sync before releasing the write lock (the
            # benchmark's baseline; "batch" defers to wait_durable instead).
            self._wal.sync(lsn)
            ticket: Optional[int] = None
        else:
            ticket = lsn
        self._maybe_checkpoint()
        return ticket

    def wait_durable(self, ticket: Optional[int]) -> None:
        if ticket is not None:
            self._wal.sync(ticket)

    def mark_persist_created(
        self, aunit_name: str, versions: Optional[Dict[str, int]] = None
    ) -> None:
        self._record_op(("persist_created", aunit_name, dict(versions or {})))

    def _journal(self, aunit_name: str, table_name: str, op: Dict[str, Any]) -> None:
        kind = op["op"]
        if kind == "insert":
            record = ("insert", aunit_name, table_name, op["rows"], op["version"])
        elif kind == "delete":
            record = ("delete", aunit_name, table_name, op["rows"], op["version"])
        elif kind == "update":
            record = ("update", aunit_name, table_name, op["changes"], op["version"])
        elif kind == "replace":
            record = ("replace", aunit_name, table_name, op["rows"], op["version"])
        elif kind == "create_index":
            record = ("create_index", aunit_name, table_name, list(op["columns"]))
        else:  # pragma: no cover - journal vocabulary is closed
            raise StorageError(f"unknown journal op {kind!r}")
        self._record_op(record)

    def _record_op(self, record: Tuple[Any, ...]) -> None:
        if self._depth:
            self._ops.append(record)
        else:
            # No open transaction: a mutation outside the engine's write
            # path (the planner auto-indexing during a read).  Log it as its
            # own transaction; durability rides on the next synced commit.
            self._append_txn([record], self._meta())

    def _append_txn(self, ops: List[Tuple[Any, ...]], meta: Dict[str, Any]) -> int:
        with self._txn_lock:
            self._seq += 1
            return self._wal.append(
                {"kind": "txn", "seq": self._seq, "ops": ops, "meta": meta}
            )

    def _meta(self) -> Dict[str, Any]:
        if self._engine is not None:
            return self._engine._commit_meta()
        return {}

    # -- checkpointing ------------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        self._txns_since_checkpoint += 1
        every = self.config.checkpoint_every
        if every is None or self._engine is None:
            return
        if self._txns_since_checkpoint >= every:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Publish a snapshot of the committed state and truncate the WAL.

        Must be called with the engine's write lock held (the engine's
        commit path does): the exported state must not move underfoot.
        """
        if self._engine is None:
            raise StorageError("checkpoint requires a bound engine")
        fire = self.crash_points.fire
        try:
            fire("checkpoint.before_snapshot_write")
            exported = self._engine.export_persist_state()
            state = {
                "seq": self._seq,
                "persist": exported["persist"],
                "created": exported["created"],
                "counters": self._engine._commit_meta(),
            }
            durable = self.config.fsync != "off"
            tmp_path = self.snapshot_path + ".tmp"
            with open(tmp_path, "wb") as handle:
                handle.write(encode_snapshot(state))
                handle.flush()
                if durable:
                    os.fsync(handle.fileno())
            fire("checkpoint.after_snapshot_write")
            fire("checkpoint.before_publish")
            os.replace(tmp_path, self.snapshot_path)
            if durable:
                fsync_directory(self.data_dir)
            fire("checkpoint.after_publish")
            fire("checkpoint.before_wal_reset")
            self._wal.reset()
            fire("checkpoint.after_wal_reset")
        except SimulatedCrash:
            if not self._wal.dead:
                self._wal.kill()
            raise
        self._txns_since_checkpoint = 0

    # -- recovery replay -----------------------------------------------------------

    def _entry(self, aunit_name: str, table_name: str) -> Dict[str, Any]:
        return self._recovered.setdefault(aunit_name, {}).setdefault(
            table_name, {"rows": [], "version": None, "indexes": []}
        )

    def _apply_op(self, op: Tuple[Any, ...]) -> None:
        kind = op[0]
        if kind == "persist_created":
            _, aunit_name, versions = op
            self._created.add(aunit_name)
            self._recovered.setdefault(aunit_name, {})
            for table_name, version in versions.items():
                self._entry(aunit_name, table_name)["version"] = version
        elif kind == "replace":
            _, aunit_name, table_name, rows, version = op
            entry = self._entry(aunit_name, table_name)
            entry["rows"] = list(rows)
            entry["version"] = version
        elif kind == "insert":
            _, aunit_name, table_name, rows, version = op
            entry = self._entry(aunit_name, table_name)
            entry["rows"].extend(rows)
            entry["version"] = version
        elif kind == "delete":
            _, aunit_name, table_name, rows, version = op
            entry = self._entry(aunit_name, table_name)
            for row in rows:
                try:
                    entry["rows"].remove(row)
                except ValueError:
                    raise RecoveryError(
                        f"WAL delete of a row absent from {aunit_name}.{table_name}: "
                        f"{row!r}"
                    ) from None
            entry["version"] = version
        elif kind == "update":
            _, aunit_name, table_name, changes, version = op
            entry = self._entry(aunit_name, table_name)
            rows = entry["rows"]
            for old, new in changes:
                try:
                    rows[rows.index(old)] = new
                except ValueError:
                    raise RecoveryError(
                        f"WAL update of a row absent from {aunit_name}.{table_name}: "
                        f"{old!r}"
                    ) from None
            entry["version"] = version
        elif kind == "create_index":
            _, aunit_name, table_name, columns = op
            entry = self._entry(aunit_name, table_name)
            canonical = tuple(columns)
            if canonical not in {tuple(existing) for existing in entry["indexes"]}:
                entry["indexes"].append(canonical)
        else:
            raise RecoveryError(f"WAL holds an unknown op kind {kind!r}")

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if not self._wal.dead:
                self._wal.close()
        finally:
            for hook in self._close_hooks:
                hook()
