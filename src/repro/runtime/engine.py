"""The Hilda engine: sessions, operations and the three execution phases.

:class:`HildaEngine` is the interpreter for resolved Hilda programs.  It
owns the persistent store (one set of tables per AUnit type, shared by all
instances, initialised by the persist query the first time the type is
used), the activation forest, and the operation log.

Life cycle of one user action (Definition 8 of the paper):

1. the user performs an action on a Basic AUnit instance (identified by ID);
2. **conflict check** — if that ID is no longer in the activation forest the
   operation is rejected (Section 3.2.6);
3. **return phase** — handlers fire up the tree (:mod:`repro.runtime.returns`);
4. **reactivation phase** — the forest is rebuilt; surviving instances keep
   their local state and IDs (:mod:`repro.runtime.activation`).

Reactivation can be *eager* (every session's tree is rebuilt immediately,
the default) or *lazy* (other sessions' trees are rebuilt when next
accessed), which models the paper's remark that changes need only be
propagated when a user reloads the page.

The engine is **thread-safe** (see ``docs/concurrency.md``): a shared
reader/writer lock lets any number of page renders proceed concurrently
while operations, session creation and reactivation are exclusive, and a
per-session lock table serialises requests belonging to one session.
Operations interleave with first-committer-wins semantics per instance: the
first operation to commit under the write lock wins, and any later
operation targeting an instance it invalidated receives a deterministic
conflict report naming the winning operation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.config import DEFAULT_ACTIVATION_CACHE_SIZE, EngineConfig
from repro.errors import (
    ConfigError,
    ConflictError,
    HandlerError,
    RecoveryError,
    SessionError,
    UnknownTableError,
)
from repro.hilda.ast import ActivatorDecl, AUnitDecl
from repro.hilda.program import HildaProgram
from repro.relational.functions import FunctionRegistry, SequentialKeyGenerator
from repro.relational.table import Table
from repro.runtime.activation import (
    ActivationBuilder,
    PreservedInstance,
    dep_vector,
    deps_current,
)
from repro.runtime.concurrency import ReadWriteLock, SessionLockTable
from repro.runtime.forest import ActivationForest
from repro.runtime.history import ExecutionHistory
from repro.runtime.instance import AUnitInstance, InstanceLabel
from repro.runtime.operations import ApplyResult, Operation, OperationStatus
from repro.runtime.returns import ReturnProcessor
from repro.sql.delta import DeltaLog, DeltaProgram, build_delta_program
from repro.sql.executor import SQLCaches, SQLExecutor
from repro.sql.stats import CacheStats, MaintenanceStats
from repro.storage.backend import create_backend

__all__ = ["HildaEngine"]

#: How many invalidation records to keep for conflict attribution before the
#: oldest are dropped (bounds memory on long-running servers).
_INVALIDATION_LOG_LIMIT = 10_000


class HildaEngine:
    """Interpreter for a resolved Hilda program.

    Parameters
    ----------
    program:
        A resolved :class:`~repro.hilda.program.HildaProgram`.
    functions:
        Scalar function registry.  By default a fresh registry with a
        deterministic sequential ``genkey()`` is used so examples, tests and
        benchmarks are reproducible.
    config:
        A typed :class:`~repro.config.EngineConfig` carrying every knob:
        planner/compiler switches (``optimize``, ``auto_index``,
        ``compile_expressions``), the nested
        :class:`~repro.config.OptimizerConfig` selecting the cost-based vs
        heuristic planning strategy (``docs/optimizer.md``), the
        ``reactivation`` mode (``"eager"``
        rebuilds every session's tree after each operation, ``"lazy"``
        defers other sessions until accessed), ``record_history``, and a
        nested :class:`~repro.config.CacheConfig` for activation-query
        caching, dependency tracking, delta reactivation and cache bounds
        (see ``docs/caching.md``).
    """

    def __init__(
        self,
        program: HildaProgram,
        functions: Optional[FunctionRegistry] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise ConfigError(
                f"HildaEngine(config=...) must be an EngineConfig, got {config!r}"
            )
        self.config = config
        self.program = program
        self.functions = functions or self._default_functions()
        self.optimize = config.optimize
        self.auto_index = config.auto_index
        self.compile_expressions = config.compile_expressions
        self.optimizer = config.optimizer
        #: Parse/plan/compile caches shared by every executor the engine
        #: builds: program queries are parsed once at load time, so their
        #: ASTs (and hence plans and compiled closures) are reusable across
        #: the short-lived per-context executors of every phase.
        self.sql_caches = SQLCaches()
        self.reactivation = config.reactivation
        self.cache_activation_queries = config.cache.activation_queries
        self.dependency_tracking = config.cache.dependency_tracking
        self.delta_reactivation = config.cache.delta_reactivation
        self.activation_cache_size = config.cache.activation_cache_size
        #: ``"incremental"`` patches stale cached activation results through
        #: per-plan delta programs; ``"recompute"`` (default) re-executes.
        self.maintenance = config.cache.maintenance
        #: The in-memory delta log feeding incremental maintenance.  None
        #: unless ``maintenance="incremental"`` *and* dependency tracking is
        #: on (the stamps the patch path advances are dependency vectors).
        self.delta_log: Optional[DeltaLog] = (
            DeltaLog(config.cache.delta_log_size)
            if config.cache.maintenance == "incremental"
            and config.cache.dependency_tracking
            else None
        )
        #: Engine-wide incremental-maintenance counters (docs/caching.md).
        self.maintenance_stats = MaintenanceStats()
        #: id(plan) -> (plan, delta program or None); the plan reference
        #: pins the id.  Swept wholesale when it outgrows the plan cache.
        self._delta_programs: Dict[int, Tuple[Any, Optional[DeltaProgram]]] = {}
        self.forest = ActivationForest()
        self.history: Optional[ExecutionHistory] = (
            ExecutionHistory() if config.record_history else None
        )

        self._persist: Dict[str, Dict[str, Table]] = {}
        self._persist_initialised: Set[str] = set()
        self._session_inputs: Dict[str, Dict[str, List[Sequence[Any]]]] = {}
        self._session_counter = SequentialKeyGenerator(1)
        self._instance_counter = SequentialKeyGenerator(1)
        self._state_version = 0
        #: Cluster hook (docs/cluster.md): when a shard worker installs a
        #: scatter provider, executors fan cross-shard reads out through it
        #: and the caches stop trusting purely-local version stamps for
        #: global queries.  None in single-process engines.
        self.scatter: Optional[Any] = None
        self.session_scoped_ids = config.session_scoped_ids
        #: session id -> next per-session instance sequence number (only
        #: consulted under ``session_scoped_ids``; see :meth:`id_scope`).
        self._session_instance_counters: Dict[str, int] = {}
        self._id_scope_session: Optional[str] = None

        #: The durable storage backend (docs/storage.md): MemoryBackend —
        #: every call a no-op — unless ``config.storage`` (or the
        #: REPRO_STORAGE_BACKEND env override) selects the WAL backend, in
        #: which case constructing it performs crash recovery and the
        #: counters of the last committed transaction are restored here, so
        #: a recovered engine continues the pre-crash id/key sequences.
        self.storage = create_backend(config.storage)
        self.storage.bind_engine(self)
        recovered_counters = self.storage.recovered_counters()
        if recovered_counters:
            self._state_version = recovered_counters.get("state_version", 0)
            self._session_counter.reset(recovered_counters.get("session_seq", 1))
            self._instance_counter.reset(recovered_counters.get("instance_seq", 1))
            next_genkey = recovered_counters.get("genkey")
            if next_genkey is not None:
                self.functions.restore_sequential_keys(next_genkey)

        self._dirty_sessions: Set[str] = set()
        #: (instance label, activator name) -> (validity stamp, cached rows).
        #: The stamp is a dependency version vector under dependency
        #: tracking, or the global state version in the coarse mode.
        #: Ordered for LRU eviction past ``activation_cache_size``.
        self._activation_cache: "OrderedDict[Tuple, Tuple[Any, List[Tuple[Any, ...]]]]" = (
            OrderedDict()
        )
        #: Hit/miss/evict/invalidation counters of the activation cache.
        self.activation_cache_stats = CacheStats()

        #: Shared-database reader/writer lock: page renders and lookups are
        #: readers, operations / session lifecycle / reactivation are writers.
        self._rw = ReadWriteLock()
        #: One lock per session id, serialising requests of the same session.
        self.session_locks = SessionLockTable()
        #: instance_id -> (winning operation_id, winning session_id) for
        #: instances removed from the forest by a committed operation; used
        #: for deterministic first-committer-wins conflict reports.
        self._invalidated_by: Dict[int, Tuple[int, Optional[str]]] = {}
        #: session_id -> the first committed operation that marked it stale
        #: (lazy mode); instances that vanish in the deferred rebuild are
        #: attributed to it.
        self._dirty_markers: Dict[str, Tuple[int, Optional[str]]] = {}

        self._builder = ActivationBuilder(self)
        self._returns = ReturnProcessor(self)

    # ------------------------------------------------------------------
    # Locking helpers (docs/concurrency.md)
    # ------------------------------------------------------------------

    def read_locked(self):
        """Context manager: hold the shared lock for reading (page renders)."""
        return self._rw.read()

    def write_locked(self):
        """Context manager: hold the shared lock exclusively (mutations)."""
        return self._rw.write()

    # ------------------------------------------------------------------
    # Low-level services used by the phase implementations
    # ------------------------------------------------------------------

    @staticmethod
    def _default_functions() -> FunctionRegistry:
        registry = FunctionRegistry()
        registry.use_sequential_keys(start=1000)
        return registry

    def next_instance_id(self) -> int:
        if self.session_scoped_ids and self._id_scope_session is not None:
            session_id = self._id_scope_session
            if session_id.startswith("S") and session_id[1:].isdigit():
                # Ids are a function of (session number, per-session
                # sequence), not of the engine's global allocation order —
                # every worker process derives the same ids for the same
                # session regardless of what its siblings built.  The 1e6
                # stride keeps them disjoint from the global counter's range
                # (docs/cluster.md documents the per-session bound).
                seq = self._session_instance_counters.get(session_id, 0) + 1
                self._session_instance_counters[session_id] = seq
                return int(session_id[1:]) * 1_000_000 + seq
        return self._instance_counter()

    @contextmanager
    def id_scope(self, session_id: Optional[str]) -> Iterator[None]:
        """Attribute instance ids allocated inside to ``session_id``.

        A no-op unless ``config.session_scoped_ids`` is on.  Held by the
        activation builder around one session's tree build (tree builds run
        under the write lock, so the single scope slot cannot race).
        """
        previous = self._id_scope_session
        self._id_scope_session = session_id
        try:
            yield
        finally:
            self._id_scope_session = previous

    def make_executor(self, catalog) -> SQLExecutor:
        """A SQL executor over ``catalog`` wired to the engine's shared caches."""
        return SQLExecutor(
            catalog,
            functions=self.functions,
            config=self.config,
            caches=self.sql_caches,
            scatter=self.scatter,
        )

    def query_is_global(self, query: Union[str, Any]) -> bool:
        """Does this query read beyond the local shard (scatter-gather)?

        Always False outside cluster workers (no scatter provider).
        """
        if self.scatter is None:
            return False
        try:
            return self.scatter.is_global(query)
        except Exception:
            return False

    @property
    def state_version(self) -> int:
        return self._state_version

    def bump_state_version(self) -> None:
        self._state_version += 1

    # -- durability plumbing (docs/storage.md) ---------------------------------

    def _commit_meta(self) -> Dict[str, Any]:
        """The engine counters a committed transaction makes durable.

        Captured at commit time (under the write lock) so a recovered
        engine's id/key sequences equal those of an engine that saw only
        the committed prefix — which is what makes post-recovery sessions,
        instance ids and generated keys (and hence rendered pages)
        byte-identical to the never-crashed reference.
        """
        return {
            "state_version": self._state_version,
            "session_seq": self._session_counter.peek(),
            "instance_seq": self._instance_counter.peek(),
            "genkey": self.functions.sequential_key_state(),
        }

    def export_persist_state(self) -> Dict[str, Any]:
        """The committed persistent state, for a storage checkpoint.

        Called by the backend with the engine's write lock held.
        """
        return {
            "persist": {
                aunit_name: {
                    name: {
                        "rows": list(table.rows),
                        "version": table.version,
                        "indexes": table.indexes,
                    }
                    for name, table in tables.items()
                }
                for aunit_name, tables in self._persist.items()
            },
            "created": sorted(self._persist_initialised),
        }

    def close(self) -> None:
        """Flush and release the storage backend (idempotent).

        The engine itself stays usable for in-memory reads, but further
        writes against a WAL backend will fail — close is for shutdown.
        """
        self.storage.close()

    @contextmanager
    def _durable_write(self) -> Iterator[None]:
        """One engine transaction: begin/commit under the write lock, then
        await durability after releasing it (which is what lets concurrent
        committers share a group-commit fsync, see ``docs/concurrency.md``).

        The commit runs even when the body raises — handlers have no
        rollback path, so the log must mirror in-memory state on every
        outcome — but with care about exception precedence: a storage
        failure during that commit must not *mask* the body's exception
        (the root cause); it is chained onto it instead.  When the body
        failed but the commit was logged, its durability is still awaited
        before the original error is re-raised.
        """
        error: Optional[BaseException] = None
        ticket: Optional[Any] = None
        with self._rw.write():
            self.storage.begin()
            try:
                yield
            except BaseException as exc:
                error = exc
            try:
                ticket = self.storage.commit(self._commit_meta())
            except Exception as commit_exc:
                if error is None:
                    raise
                raise error from commit_exc
        if error is None:
            self.storage.wait_durable(ticket)
            return
        try:
            self.storage.wait_durable(ticket)
        except Exception:
            # Raising inside the handler chains the durability failure onto
            # the original error (as __context__) instead of replacing it.
            raise error
        raise error

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """One externally-driven engine transaction (docs/cluster.md).

        Runs the body under the write lock inside a durable storage
        transaction and bumps the global state version, exactly like an
        applied operation — used by cluster workers for replica refresh and
        shard localisation, and available to embedders for bulk mutations.
        """
        with self._durable_write():
            yield
            self.bump_state_version()

    def mark_all_stale(self) -> None:
        """Mark every session's tree stale so the next access rebuilds it.

        Cluster workers call this when the router reports that *another*
        shard committed a write visible through a cross-shard read: no local
        table version moved, so dependency tracking alone would never
        invalidate, but the scatter-gathered results have changed.
        """
        with self._rw.write():
            self._dirty_sessions.update(self.forest.session_ids())

    def ensure_persistent(self, decl: AUnitDecl) -> None:
        """Create and initialise the persistent tables of an AUnit type once."""
        if decl.name in self._persist_initialised:
            return
        with self._durable_write():
            self._ensure_persistent_locked(decl)

    def _ensure_persistent_locked(self, decl: AUnitDecl) -> None:
        if decl.name in self._persist_initialised:
            return
        recovered = self.storage.recovered_persist(decl)
        if recovered is not None:
            # Crash recovery rebuilt contents/indexes/version stamps from
            # the log; skip seeding (the persist query already ran, and its
            # effects are part of the recovered state).
            self._persist[decl.name] = recovered
            for table in recovered.values():
                if self.config.storage.verify_recovery:
                    problems = table.check_integrity()
                    if problems:
                        raise RecoveryError(
                            f"recovered table {decl.name}.{table.name} is "
                            "inconsistent: " + "; ".join(problems)
                        )
                self.storage.bind_table(decl.name, table)
                if self.delta_log is not None:
                    self.delta_log.attach(table)
            self._persist_initialised.add(decl.name)
            return
        tables = {schema.name: Table(schema) for schema in decl.persist_schema}
        self._persist[decl.name] = tables
        # Journal creation (with the fresh version stamps) before seeding,
        # so recovery re-creates the tables even when seeding writes nothing.
        self.storage.mark_persist_created(
            decl.name, {name: table.version for name, table in tables.items()}
        )
        for table in tables.values():
            self.storage.bind_table(decl.name, table)
            if self.delta_log is not None:
                self.delta_log.attach(table)
        if decl.persist_query:
            from repro.runtime.context import DictCatalog, run_assignments

            catalog = DictCatalog(dict(tables))
            run_assignments(
                decl.persist_query,
                catalog,
                self.functions,
                lambda assignment: tables.get(assignment.simple_target),
                location=f"{decl.name}.persist_query",
                executor_factory=self.make_executor,
            )
        # Published last: the lock-free fast path in ensure_persistent must
        # only see the flag once the tables exist and are fully seeded.
        self._persist_initialised.add(decl.name)

    def persist_tables(self, aunit_name: str) -> Dict[str, Table]:
        """The shared persistent tables of one AUnit type (may be empty)."""
        return self._persist.get(aunit_name, {})

    # -- activation-query cache (Section 6.2 data caching) ----------------------------

    def activation_cache_lookup(
        self,
        instance: AUnitInstance,
        activator: ActivatorDecl,
        catalog,
        executor: Optional[SQLExecutor] = None,
    ) -> Optional[List[Tuple[Any, ...]]]:
        """Cached activation rows for one (instance, activator), if still valid.

        Under dependency tracking an entry is valid while every table its
        query read still holds the version recorded at store time (resolved
        through ``catalog``, the instance's read catalog); in the coarse
        mode validity means "no write anywhere since".  Called under the
        engine's write lock (tree builds are exclusive).

        Under ``maintenance="incremental"`` a *stale* entry carrying a delta
        program is first offered to the patch path: the deltas between its
        recorded and current table versions are propagated through the
        program, and on success the repaired entry counts as a hit.  Any
        bailout falls through to the ordinary invalidation miss.
        """
        if not self.cache_activation_queries:
            return None
        key = (instance.label, activator.name)
        stats = self.activation_cache_stats
        cached = self._activation_cache.get(key)
        if cached is None:
            stats.misses += 1
            return None
        stamp, rows, program, sources = cached
        if self.dependency_tracking:
            valid = deps_current(stamp, catalog)
        else:
            valid = stamp == self._state_version
        if not valid:
            if (
                program is not None
                and sources is not None
                and executor is not None
                and self.delta_log is not None
            ):
                patched = self._patch_activation_entry(key, cached, executor)
                if patched is not None:
                    stats.hits += 1
                    return patched
                self.maintenance_stats.bailouts += 1
                executor.stats.maintenance_bailouts += 1
            del self._activation_cache[key]
            stats.misses += 1
            stats.invalidations += 1
            return None
        self._activation_cache.move_to_end(key)
        stats.hits += 1
        return rows

    def _patch_activation_entry(
        self, key: Tuple, cached: Tuple, executor: SQLExecutor
    ) -> Optional[List[Tuple[Any, ...]]]:
        """Repair one stale cache entry through its delta program (or None)."""
        stamp, rows, program, sources = cached
        # Plan-drift guard: the program's delta rules replay one physical
        # plan's output order.  If re-planning (a stats-fingerprint miss)
        # superseded that plan, the recomputed order could differ — bail.
        try:
            if executor._plan(program.ast) is not program.plan:
                return None
        except Exception:
            return None
        result = program.maintain(
            list(zip(sources, rows)),
            stamp,
            executor._context(),
            self.delta_log,
            self.maintenance_stats,
        )
        if result is None:
            return None
        new_pairs, new_stamp = result
        new_rows = [out for _, out in new_pairs]
        new_sources = [source for source, _ in new_pairs]
        cache = self._activation_cache
        cache[key] = (new_stamp, new_rows, program, new_sources)
        cache.move_to_end(key)
        self.maintenance_stats.patched += 1
        executor.stats.maintenance_patches += 1
        return new_rows

    def _delta_program_for(
        self, executor: SQLExecutor, query
    ) -> Optional[DeltaProgram]:
        """The (memoised) delta program for a query's current plan, or None."""
        try:
            ast = executor._parse_query(query)
            plan = executor._plan(ast)
        except Exception:
            return None
        memo = self._delta_programs
        entry = memo.get(id(plan))
        if entry is not None and entry[0] is plan:
            return entry[1]
        try:
            program = build_delta_program(ast, plan, executor._plan_read_set(plan))
        except Exception:
            program = None
        if len(memo) > 512:
            memo.clear()  # dead plans linger after cache eviction; resweep
        memo[id(plan)] = (plan, program)
        return program

    def activation_cache_store(
        self,
        instance: AUnitInstance,
        activator: ActivatorDecl,
        rows: List[Tuple[Any, ...]],
        read_names,
        catalog,
        query=None,
        executor: Optional[SQLExecutor] = None,
    ) -> None:
        """Memoise activation rows, stamped with their dependency versions.

        ``read_names`` is the query's table read set (None when untracked —
        then nothing is stored under dependency tracking, since the entry
        could never be validated).  Under incremental maintenance, ``query``
        and ``executor`` let the entry carry a delta program plus the
        provenance (source-table row per output row) the patch path needs;
        the program's snapshot is verified against ``rows`` at store time,
        so a program that cannot reproduce the plan's exact output order is
        dropped here rather than trusted later.
        """
        if not self.cache_activation_queries:
            return
        if query is not None and self.query_is_global(query):
            # Cross-shard reads cannot be validated by local version stamps
            # (a peer's write bumps no local table version), so the entry
            # would be served stale forever.  Never memoise them.
            return
        stamp: Any
        if self.dependency_tracking:
            if read_names is None:
                return
            stamp = dep_vector(read_names, catalog)
            if stamp is None:
                return
        else:
            stamp = self._state_version
        program = None
        sources = None
        if self.delta_log is not None and query is not None and executor is not None:
            program = self._delta_program_for(executor, query)
            if program is not None:
                context = executor._context()
                pairs = program.snapshot(context, rows)
                if pairs is None:
                    program = None
                else:
                    sources = [source for source, _ in pairs]
                    # Lazily track whatever table this plan scans — local and
                    # input tables too, not just the persistent set attached
                    # up front — so their future mutations are patchable.
                    try:
                        self.delta_log.attach(
                            context.catalog.resolve_table(program.source)
                        )
                    except UnknownTableError:
                        program = None
                        sources = None
        cache = self._activation_cache
        cache[(instance.label, activator.name)] = (stamp, list(rows), program, sources)
        cache.move_to_end((instance.label, activator.name))
        if self.activation_cache_size is not None:
            while len(cache) > self.activation_cache_size:
                cache.popitem(last=False)
                self.activation_cache_stats.evictions += 1

    # ------------------------------------------------------------------
    # Persistent-data helpers (fixtures, tests, baselines)
    # ------------------------------------------------------------------

    def persistent_table(self, table_name: str, aunit_name: Optional[str] = None) -> Table:
        """Direct access to a persistent table (defaults to the root AUnit's)."""
        owner = aunit_name or self.program.root_name
        self.ensure_persistent(self.program.aunit(owner))
        tables = self.persist_tables(owner)
        if table_name not in tables:
            raise SessionError(
                f"AUnit {owner!r} has no persistent table {table_name!r}"
            )
        return tables[table_name]

    def seed_persistent(
        self,
        rows_by_table: Dict[str, List[Sequence[Any]]],
        aunit_name: Optional[str] = None,
        refresh: bool = True,
    ) -> None:
        """Bulk-load persistent tables (used by fixtures and benchmarks)."""
        with self._durable_write():
            for table_name, rows in rows_by_table.items():
                table = self.persistent_table(table_name, aunit_name)
                table.insert_many(rows)
            self.bump_state_version()
            if refresh and self.forest.session_ids():
                self.reactivate_all()

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def start_session(
        self,
        input_rows: Optional[Dict[str, List[Sequence[Any]]]] = None,
        session_id: Optional[str] = None,
    ) -> str:
        """Activate a new root AUnit instance (a user session) and return its id."""
        # Sessions themselves are volatile, but building the tree may have
        # initialised persistent tables (and advanced counters); the
        # transaction commits even on failure so the log mirrors in-memory
        # state.
        with self._durable_write():
            if session_id is None:
                session_id = f"S{self._session_counter()}"
            if self.forest.has_session(session_id):
                raise SessionError(f"session {session_id!r} already exists")
            inputs = {name: list(rows) for name, rows in (input_rows or {}).items()}
            self._session_inputs[session_id] = inputs
            root = self._builder.build_session_tree(session_id, inputs)
            self.forest.add_root(session_id, root)
        return session_id

    def close_session(self, session_id: str) -> None:
        """Deactivate a session's root instance (and thereby its whole tree)."""
        with self.session_locks.holding(session_id):
            with self._rw.write():
                self.forest.remove_session(session_id)
                self._session_inputs.pop(session_id, None)
                self._dirty_sessions.discard(session_id)
                self._dirty_markers.pop(session_id, None)
                self._session_instance_counters.pop(session_id, None)
        self.session_locks.discard(session_id)

    def session_ids(self) -> List[str]:
        with self._rw.read():
            return self.forest.session_ids()

    def session_tree(self, session_id: str) -> AUnitInstance:
        """The activation tree of a session (rebuilding it first if stale)."""
        with self.session_locks.holding(session_id):
            if session_id not in self._dirty_sessions:
                with self._rw.read():
                    # Re-check under the lock: a writer may have marked the
                    # session stale between the test above and acquisition.
                    if session_id not in self._dirty_sessions:
                        return self.forest.root_for_session(session_id)
            with self._rw.write():
                self._ensure_fresh(session_id)
                return self.forest.root_for_session(session_id)

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    def instance(self, instance_id: int) -> Optional[AUnitInstance]:
        with self._rw.read():
            return self.forest.instance_by_id(instance_id)

    def find_instances(
        self,
        aunit_name: Optional[str] = None,
        session_id: Optional[str] = None,
        activator: Optional[str] = None,
    ) -> List[AUnitInstance]:
        """Find active instances, refreshing lazily-reactivated sessions first."""
        self._refresh_stale(session_id)
        with self._rw.read():
            return self.forest.find_instances(
                aunit_name=aunit_name, session_id=session_id, activator=activator
            )

    def render_forest(self) -> str:
        self._refresh_stale()
        with self._rw.read():
            return self.forest.render()

    def _refresh_stale(self, session_id: Optional[str] = None) -> None:
        """Rebuild stale (lazily-reactivated) sessions, write-locking only if needed."""
        if session_id is not None:
            if session_id in self._dirty_sessions:
                with self._rw.write():
                    self._ensure_fresh(session_id)
        elif self._dirty_sessions:
            with self._rw.write():
                for stale in list(self._dirty_sessions):
                    self._ensure_fresh(stale)

    # ------------------------------------------------------------------
    # Operations (user actions)
    # ------------------------------------------------------------------

    def perform(
        self,
        instance_id: int,
        values: Optional[Sequence[Any]] = None,
        description: str = "",
    ) -> ApplyResult:
        """Perform a user action on a Basic AUnit instance by ID."""
        operation = Operation(
            instance_id=instance_id,
            values=values,
            observed_state_version=self._state_version,
            description=description,
        )
        return self.apply(operation)

    #: Alias matching the paper's vocabulary ("the returning of an instance").
    submit = perform

    def apply(self, operation: Operation) -> ApplyResult:
        """Apply one operation: conflict check, return phase, reactivation phase.

        Operations are serialised under the engine's write lock, which yields
        first-committer-wins semantics per instance: whichever of two racing
        operations acquires the lock first commits, and the loser receives a
        deterministic conflict report naming the winning operation.
        """
        # Handlers have no rollback path (failed ones may have left partial
        # writes); _durable_write commits on every outcome so the log stays
        # an exact mirror of in-memory state.
        with self._durable_write():
            result = self._apply_locked(operation)
        return result

    def _apply_locked(self, operation: Operation) -> ApplyResult:
        active_before = {node.instance_id for node in self.forest.all_instances()}
        version_before = self._state_version

        instance = self.forest.instance_by_id(operation.instance_id)
        if instance is None:
            result = ApplyResult(
                operation=operation,
                status=OperationStatus.CONFLICT,
                message=self._conflict_message(
                    operation.instance_id,
                    f"AUnit instance {operation.instance_id} is no longer active; "
                    "the operation conflicts with a concurrent update",
                ),
                conflict_with=self._conflict_winner(operation.instance_id),
                state_version=self._state_version,
            )
            self._record(operation, result, active_before, version_before)
            return result

        if not instance.is_basic:
            result = ApplyResult(
                operation=operation,
                status=OperationStatus.REJECTED,
                message=f"instance {operation.instance_id} is not a Basic AUnit instance",
                state_version=self._state_version,
            )
            self._record(operation, result, active_before, version_before)
            return result

        operation.session_id = instance.session_id

        # If the acting session is stale (lazy mode), refresh it first: the
        # user is interacting with it, which is exactly the "page reload"
        # moment at which changes must be propagated.  The conflict check is
        # then repeated against the fresh tree.
        if instance.session_id in self._dirty_sessions:
            self._ensure_fresh(instance.session_id)
            instance = self.forest.instance_by_id(operation.instance_id)
            if instance is None:
                result = ApplyResult(
                    operation=operation,
                    status=OperationStatus.CONFLICT,
                    message=self._conflict_message(
                        operation.instance_id,
                        f"AUnit instance {operation.instance_id} disappeared when its "
                        "session was refreshed; the operation conflicts with a concurrent update",
                    ),
                    conflict_with=self._conflict_winner(operation.instance_id),
                    state_version=self._state_version,
                )
                self._record(operation, result, active_before, version_before)
                return result

        spec_kind = instance.decl.basic_kind
        if spec_kind in ("ShowRow", "ShowTable"):
            result = ApplyResult(
                operation=operation,
                status=OperationStatus.REJECTED,
                message=f"Basic AUnit {spec_kind} is display-only and cannot return",
                state_version=self._state_version,
            )
            self._record(operation, result, active_before, version_before)
            return result

        try:
            outcome = self._returns.process(instance, operation.values)
        except HandlerError as exc:
            result = ApplyResult(
                operation=operation,
                status=OperationStatus.REJECTED,
                message=str(exc),
                state_version=self._state_version,
            )
            self._record(operation, result, active_before, version_before)
            return result

        built_before = self._builder.instances_built
        reused_before = self._builder.instances_reused
        self._reactivate_after(operation, outcome)

        status = (
            OperationStatus.APPLIED if outcome.any_handler_fired else OperationStatus.NO_HANDLER
        )
        if status == OperationStatus.APPLIED:
            active_after = {node.instance_id for node in self.forest.all_instances()}
            self._note_invalidations(operation, active_before - active_after)
        result = ApplyResult(
            operation=operation,
            status=status,
            handlers=outcome.handlers_fired,
            returned_instance_ids=[node.instance_id for node in outcome.returned_instances],
            state_version=self._state_version,
            instances_rebuilt=self._builder.instances_built - built_before,
            instances_reused=self._builder.instances_reused - reused_before,
        )
        self._record(operation, result, active_before, version_before)
        return result

    # -- first-committer-wins conflict attribution -------------------------------

    def _note_invalidations(self, operation: Operation, vanished: Set[int]) -> None:
        """Remember which committed operation invalidated each vanished instance."""
        for instance_id in vanished:
            self._invalidated_by[instance_id] = (
                operation.operation_id,
                operation.session_id,
            )
        self._trim_invalidation_log()

    def _trim_invalidation_log(self) -> None:
        while len(self._invalidated_by) > _INVALIDATION_LOG_LIMIT:
            self._invalidated_by.pop(next(iter(self._invalidated_by)))

    def _conflict_winner(self, instance_id: int) -> Optional[int]:
        entry = self._invalidated_by.get(instance_id)
        return entry[0] if entry is not None else None

    def _conflict_message(self, instance_id: int, fallback: str) -> str:
        entry = self._invalidated_by.get(instance_id)
        if entry is None:
            return fallback
        winner_id, winner_session = entry
        who = f" from session {winner_session!r}" if winner_session else ""
        return (
            f"AUnit instance {instance_id} is no longer active: it was "
            f"invalidated by operation #{winner_id}{who}, which committed first; "
            "the operation conflicts with that concurrent update"
        )

    # ------------------------------------------------------------------
    # Reactivation
    # ------------------------------------------------------------------

    def reactivate_all(self) -> None:
        """Rebuild every session's activation tree immediately."""
        with self._rw.write():
            for session_id in self.forest.session_ids():
                self._rebuild_session(session_id)
            self._dirty_sessions.clear()

    def refresh(self, session_id: Optional[str] = None) -> None:
        """Explicitly refresh one session (the user's page reload) or all."""
        if session_id is None:
            self.reactivate_all()
        else:
            with self._rw.write():
                self._rebuild_session(session_id)
                self._dirty_sessions.discard(session_id)

    def _reactivate_after(self, operation: Operation, outcome) -> None:
        acting_session = operation.session_id
        if self.reactivation == "eager":
            self.reactivate_all()
            return
        if acting_session is not None:
            self._rebuild_session(acting_session)
            self._dirty_sessions.discard(acting_session)
        for session_id in self.forest.session_ids():
            if session_id != acting_session:
                self._dirty_sessions.add(session_id)
                self._dirty_markers.setdefault(
                    session_id, (operation.operation_id, operation.session_id)
                )

    def _ensure_fresh(self, session_id: str) -> None:
        if session_id in self._dirty_sessions:
            self._rebuild_session(session_id)
            self._dirty_sessions.discard(session_id)

    def _rebuild_session(self, session_id: str) -> None:
        old_root = self.forest.root_for_session(session_id)
        preserved: Dict[InstanceLabel, PreservedInstance] = {}
        for node in old_root.walk():
            if not node.returned:
                preserved[node.label] = PreservedInstance(
                    instance_id=node.instance_id, local_tables=node.local_tables
                )
        inputs = self._session_inputs.get(session_id, {})
        new_root = self._builder.build_session_tree(
            session_id, inputs, preserved, old_root=old_root
        )
        self.forest.replace_root(session_id, new_root)
        marker = self._dirty_markers.pop(session_id, None)
        if marker is not None:
            # Deferred (lazy) rebuild: attribute instances that vanished to
            # the first operation that staled this session, unless a more
            # precise attribution was already recorded.
            new_ids = {node.instance_id for node in new_root.walk()}
            for node in old_root.walk():
                if node.instance_id not in new_ids:
                    self._invalidated_by.setdefault(node.instance_id, marker)
            self._trim_invalidation_log()

    # ------------------------------------------------------------------
    # History
    # ------------------------------------------------------------------

    def _record(
        self,
        operation: Operation,
        result: ApplyResult,
        active_before: Set[int],
        version_before: int,
    ) -> None:
        if self.history is None:
            return
        self.history.record(
            operation=operation,
            result=result,
            active_ids_before=active_before,
            state_version_before=version_before,
            state_version_after=self._state_version,
            forest_size_after=self.forest.size(),
        )
