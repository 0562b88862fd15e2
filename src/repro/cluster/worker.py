"""The per-process engine runtime of a cluster worker.

A :class:`ClusterWorker` wraps one :class:`~repro.web.container.HildaApplication`
(engine + web sessions + renderer) behind the RPC methods the router and the
peer workers call:

============ ==============================================================
``ping``     liveness probe
``handle``   serve one web request (applies piggybacked replica-refresh
             directives and staleness epochs first, reports writes after)
``scan``     a peer reads this worker's partition of one table
``touch``    batch last-seen refresh for web sessions (router flushes)
``configure_peers``  learn the other workers' RPC addresses
``export_tables``    full persistent state, for equivalence testing
``stats``    placement summary and counters
``shutdown`` graceful drain: flush storage and stop serving
============ ==============================================================

:func:`worker_main` is the fork-model child entry point: it builds the
application *after* the fork (so WAL recovery and lock state are the
child's own), seeds and localises a fresh store, then serves RPC until told
to shut down.  The parent learns the ephemeral RPC port over a pipe.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.rpc import RpcServer, WorkerClient
from repro.cluster.sharding import ScatterGather, ShardPlan
from repro.config import ClusterConfig, EngineConfig, StorageConfig
from repro.errors import ClusterError, WorkerUnavailableError
from repro.hilda.program import HildaProgram
from repro.relational.table import Table
from repro.web.container import HildaApplication
from repro.web.http import Request, Response

__all__ = ["ClusterWorker", "WorkerSpec", "worker_main"]


@dataclass
class WorkerSpec:
    """Everything a worker process needs to build its application.

    Shipped to fork-model children by inheritance (the cluster uses the
    ``fork`` start method precisely so programs, configs and seed callables
    need no pickling).
    """

    program: HildaProgram
    cluster: ClusterConfig
    engine_config: Optional[EngineConfig] = None
    cache: Any = None
    sessions: Any = None
    functions_factory: Optional[Callable[[], Any]] = None
    #: Called as ``seed(engine, worker_index)`` on a *fresh* store only —
    #: after persist initialisation, before localisation.
    seed: Optional[Callable[[Any, int], None]] = None
    #: Disable sharding/scatter (thread model serves one shared engine).
    sharded: bool = True


class ClusterWorker:
    """One worker's RPC face over a (possibly shared) application."""

    def __init__(
        self,
        index: int,
        app: HildaApplication,
        cluster: ClusterConfig,
        plan: Optional[ShardPlan] = None,
        sharded: bool = True,
        host: str = "127.0.0.1",
    ) -> None:
        self.index = index
        self.app = app
        self.cluster = cluster
        self.plan = plan
        self.sharded = bool(sharded and plan is not None and plan.partitioned)
        self._peers: Dict[int, WorkerClient] = {}
        self._peer_lock = threading.Lock()
        self._seen_epoch = 0
        self._replica_seen: Dict[str, int] = {}
        self._has_global_queries = bool(
            plan is not None and plan.summary()["global_queries"]
        )
        self._shutdown = threading.Event()
        self.rpc = RpcServer(
            {
                "ping": self._rpc_ping,
                "handle": self._rpc_handle,
                "scan": self._rpc_scan,
                "touch": self._rpc_touch,
                "configure_peers": self._rpc_configure_peers,
                "export_tables": self._rpc_export_tables,
                "stats": self._rpc_stats,
                "shutdown": self._rpc_shutdown,
            },
            host=host,
        )
        if self.sharded:
            engine = self.app.engine
            engine.scatter = ScatterGather(
                self.plan, index, self._local_table, self._peer_rows
            )

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.rpc.address

    def start(self) -> "ClusterWorker":
        self.rpc.start()
        return self

    def stop(self) -> None:
        """Graceful drain: stop accepting RPC, then flush storage."""
        self.rpc.stop()
        with self._peer_lock:
            peers, self._peers = dict(self._peers), {}
        for client in peers.values():
            client.close()
        self._shutdown.set()

    def wait_shutdown(self, timeout: Optional[float] = None) -> bool:
        return self._shutdown.wait(timeout)

    # -- RPC methods -----------------------------------------------------------

    def _rpc_ping(self) -> bool:
        return True

    def _rpc_handle(
        self,
        request: Dict[str, Any],
        epoch: int = 0,
        refresh: Optional[List[Dict[str, Any]]] = None,
        session_hint: Optional[str] = None,
    ) -> Dict[str, Any]:
        try:
            for directive in refresh or ():
                self._apply_refresh(directive)
        except (WorkerUnavailableError, ClusterError) as exc:
            # The refresh source is down: nothing was applied; the router
            # must re-send the directives (refresh_applied=False) and the
            # browser can simply retry.
            return self._peer_down_reply(exc, refresh_applied=False)
        if epoch > self._seen_epoch:
            self._seen_epoch = epoch
            if self._has_global_queries:
                # A peer shard committed a write since we last looked; local
                # dependency tracking cannot see it, so force rebuilds.
                self.app.engine.mark_all_stale()
        req = Request(
            method=request.get("method", "GET"),
            path=request.get("path", "/"),
            params=dict(request.get("params") or {}),
            cookies=dict(request.get("cookies") or {}),
            body=request.get("body", ""),
        )
        if session_hint and req.path == "/login":
            req.params.setdefault("_cluster_session", session_hint)
        replicated_before = self._replicated_versions()
        version_before = self.app.engine.state_version
        try:
            response = self.app.handle(req)
        except (WorkerUnavailableError, ClusterError) as exc:
            # A peer needed for scatter-gather died mid-request.  The local
            # write (if any) is committed, so report it; the page itself is
            # retryable once the peer is back.
            return self._peer_down_reply(
                exc,
                refresh_applied=True,
                wrote=self.app.engine.state_version != version_before,
                replicated=self._replicated_delta(replicated_before),
            )
        return {
            "status": response.status,
            "body": response.body,
            "headers": dict(response.headers),
            "set_cookies": dict(response.set_cookies),
            "meta": {
                "wrote": self.app.engine.state_version != version_before,
                "replicated": self._replicated_delta(replicated_before),
                "refresh_applied": True,
            },
        }

    def _replicated_delta(self, before: Dict[str, int]) -> Dict[str, int]:
        return {
            name: version
            for name, version in self._replicated_versions().items()
            if before.get(name) != version
        }

    def _peer_down_reply(
        self,
        exc: Exception,
        refresh_applied: bool,
        wrote: bool = False,
        replicated: Optional[Dict[str, int]] = None,
    ) -> Dict[str, Any]:
        """A clean, retryable 503: a peer shard this request needs is down."""
        response = Response.error(
            f"peer shard unavailable, retry shortly: {exc}", status=503
        )
        response.headers["Retry-After"] = "1"
        return {
            "status": response.status,
            "body": response.body,
            "headers": dict(response.headers),
            "set_cookies": {},
            "meta": {
                "wrote": wrote,
                "replicated": replicated or {},
                "refresh_applied": refresh_applied,
            },
        }

    def _rpc_scan(self, table: str) -> List[Tuple[Any, ...]]:
        """A peer reads our rows of ``table`` (partition or replica source)."""
        found = self._local_table(table)
        if found is None:
            return []
        # Snapshot under the lock: the frame is pickled after it is released.
        with self.app.engine.read_locked():
            return list(found.rows)

    def _rpc_touch(self, tokens: List[str]) -> int:
        touched = 0
        for token in tokens:
            if self.app.sessions.touch(token):
                touched += 1
        return touched

    def _rpc_configure_peers(self, addresses: Dict[int, Tuple[str, int]]) -> bool:
        """Learn (or re-learn, after a restart) the peer RPC addresses."""
        with self._peer_lock:
            stale, self._peers = dict(self._peers), {}
            for index, address in addresses.items():
                if index == self.index:
                    continue
                self._peers[index] = WorkerClient(
                    index,
                    address,
                    timeout=self.cluster.request_timeout,
                    connect_retries=self.cluster.connect_retries,
                    retry_backoff=self.cluster.retry_backoff,
                    pool_size=self.cluster.pool_size,
                )
        for client in stale.values():
            client.close()
        return True

    def _rpc_export_tables(self) -> Dict[str, Dict[str, List[Tuple[Any, ...]]]]:
        engine = self.app.engine
        out: Dict[str, Dict[str, List[Tuple[Any, ...]]]] = {}
        with engine.read_locked():
            for aunit in self.app.program.reachable_aunits():
                tables = engine.persist_tables(aunit.name)
                if tables:
                    out[aunit.name] = {
                        name: list(table.rows)
                        for name, table in tables.items()
                    }
        return out

    def _rpc_stats(self) -> Dict[str, Any]:
        scatter = getattr(self.app.engine, "scatter", None)
        return {
            "worker": self.index,
            "sharded": self.sharded,
            "epoch": self._seen_epoch,
            "sessions": self.app.sessions.active_count(),
            "state_version": self.app.engine.state_version,
            "gathers": getattr(scatter, "gather_count", 0),
            "plan": self.plan.summary() if self.plan is not None else None,
        }

    def _rpc_shutdown(self) -> bool:
        # Flush in a side thread so the response frame still goes out.
        threading.Thread(target=self._drain, name="worker-drain", daemon=True).start()
        return True

    def _drain(self) -> None:
        try:
            self.app.close()
        finally:
            self._shutdown.set()

    # -- internals -------------------------------------------------------------

    def _local_table(self, name: str) -> Optional[Table]:
        engine = self.app.engine
        for aunit in self.app.program.reachable_aunits():
            if name in aunit.persist_schema.table_names:
                engine.ensure_persistent(aunit)
                return engine.persist_tables(aunit.name).get(name)
        return None

    def _peer_rows(self, worker: int, table: str) -> List[Tuple[Any, ...]]:
        with self._peer_lock:
            client = self._peers.get(worker)
        if client is None:
            raise ClusterError(
                f"worker {self.index} has no peer client for worker {worker}"
            )
        return client.call("scan", retry=True, table=table)

    def _replicated_versions(self) -> Dict[str, int]:
        """Version stamps of the replicated tables that exist right now."""
        if self.plan is None or not self.sharded:
            return {}
        engine = self.app.engine
        versions: Dict[str, int] = {}
        replicated = set(self.plan.replicated)
        for aunit in self.app.program.reachable_aunits():
            for name, table in engine.persist_tables(aunit.name).items():
                if name in replicated:
                    versions[name] = table.version
        return versions

    def _apply_refresh(self, directive: Dict[str, Any]) -> None:
        """Pull a replicated table from the worker that last wrote it."""
        name = directive["table"]
        seq = int(directive.get("seq", 0))
        if seq <= self._replica_seen.get(name, 0):
            return
        source = int(directive["source"])
        rows = self._peer_rows(source, name)
        table = self._local_table(name)
        if table is not None:
            with self.app.engine.transaction():
                table.replace(rows)
            # transaction() bumps the state version but does not dirty
            # sessions; cached trees must rebuild against the new replica.
            self.app.engine.mark_all_stale()
        self._replica_seen[name] = seq


def worker_main(spec: WorkerSpec, index: int, conn: Any) -> None:
    """Fork-model child entry point: build, recover/seed, then serve RPC.

    ``conn`` is the parent's pipe end-point; the child sends either
    ``("ready", (host, port))`` or ``("error", message)`` and then serves
    until a ``shutdown`` RPC arrives.
    """
    try:
        worker = build_worker(spec, index)
        worker.start()
        conn.send(("ready", worker.address))
    except Exception as exc:  # noqa: BLE001 - parent needs the reason
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.close()
    worker.wait_shutdown()
    worker.stop()


def build_worker(spec: WorkerSpec, index: int) -> ClusterWorker:
    """Build one fork-model worker's application and RPC face (unstarted)."""
    config = _worker_engine_config(spec, index)
    functions = spec.functions_factory() if spec.functions_factory else None
    app = HildaApplication(
        spec.program,
        config=config,
        cache=spec.cache,
        sessions=spec.sessions,
        functions=functions,
    )
    plan = ShardPlan(spec.program, spec.cluster.workers, spec.cluster.partition)
    engine = app.engine
    fresh = not engine.storage.recovered_counters()
    engine.ensure_persistent(spec.program.root)
    if fresh:
        if spec.seed is not None:
            spec.seed(engine, index)
        if spec.sharded and plan.partitioned:
            with engine.transaction():
                plan.localize(index, engine.persist_tables(spec.program.root.name))
    return ClusterWorker(
        index, app, spec.cluster, plan=plan, sharded=spec.sharded
    )


def _worker_engine_config(spec: WorkerSpec, index: int) -> EngineConfig:
    config = spec.engine_config or EngineConfig()
    changes: Dict[str, Any] = {"session_scoped_ids": True}
    if spec.cluster.data_dir:
        changes["storage"] = StorageConfig.wal(
            os.path.join(spec.cluster.data_dir, f"worker-{index}")
        )
    return config.updated(changes)
