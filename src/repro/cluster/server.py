"""Cluster deployment: fork-model worker processes behind one HTTP front end.

:class:`ClusterServer` owns the whole lifecycle (docs/cluster.md):

1. fork N worker processes (:func:`repro.cluster.worker.worker_main`), each
   building its own engine — and, when ``ClusterConfig.data_dir`` is set,
   recovering its own WAL at ``data_dir/worker-N`` — after the fork;
2. learn each worker's ephemeral RPC port over a pipe, hand every worker
   the full peer address map (scatter-gather and replica refresh need it);
3. mount a :class:`~repro.cluster.router.ClusterRouter` on the threaded
   HTTP server and start the router's monitor (health probes, touch
   flushes, restart-on-crash when ``ClusterConfig.restart_workers``);
4. on shutdown: stop the HTTP front end, ask each worker to drain (flushes
   its WAL), then reap the processes.

Restart semantics: a crashed worker is restarted on the same data
directory, so *committed* state comes back via WAL recovery — but web
sessions are process memory, so browsers bound to that shard get a
redirect to ``/login`` on their next request (the documented re-login
contract).  Other shards are unaffected throughout.

The ``fork`` start method is required (and asserted by ``ClusterConfig``):
program objects, configs and seed callables reach the child by address-space
inheritance, with no pickling.

:func:`build_thread_cluster` is the in-process variant behind the
``REPRO_SERVER_MODE=cluster`` test override: N worker RPC servers over one
*shared* application, exercising the router, the socket transport, token
namespacing and touch propagation without forking (sharding stays off —
one engine means there is nothing to shard).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.router import ClusterRouter
from repro.cluster.rpc import WorkerClient
from repro.cluster.worker import ClusterWorker, WorkerSpec, worker_main
from repro.config import ClusterConfig, ServerConfig
from repro.errors import (
    ClusterError,
    ConfigError,
    RpcError,
    WorkerBusyError,
    WorkerUnavailableError,
)
from repro.hilda.program import HildaProgram
from repro.web.container import HildaApplication
from repro.web.server import ThreadedHildaServer

__all__ = ["ClusterServer", "build_thread_cluster"]


class ClusterServer:
    """Serve one program from N fork-model shard workers (module docstring)."""

    def __init__(
        self,
        program: HildaProgram,
        cluster: Optional[ClusterConfig] = None,
        server_config: Optional[ServerConfig] = None,
        engine_config: Any = None,
        cache: Any = None,
        sessions: Any = None,
        functions_factory: Optional[Callable[[], Any]] = None,
        seed: Optional[Callable[[Any, int], None]] = None,
    ) -> None:
        if cluster is None:
            cluster = (server_config.cluster if server_config else None) or ClusterConfig()
        if cluster.process_model != "fork":
            raise ConfigError(
                "ClusterServer runs the fork process model; use "
                "build_thread_cluster for the in-process thread model"
            )
        self.program = program
        self.cluster = cluster
        self.server_config = server_config or ServerConfig()
        self.spec = WorkerSpec(
            program=program,
            cluster=cluster,
            engine_config=engine_config,
            cache=cache,
            sessions=sessions,
            functions_factory=functions_factory,
            seed=seed,
            sharded=True,
        )
        self._ctx = multiprocessing.get_context("fork")
        self._procs: List[Optional[Any]] = [None] * cluster.workers
        self._addresses: List[Optional[Tuple[str, int]]] = [None] * cluster.workers
        self.clients: List[WorkerClient] = []
        self.router: Optional[ClusterRouter] = None
        self.http: Optional[ThreadedHildaServer] = None
        self._restart_lock = threading.Lock()
        self._closing = False

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "ClusterServer":
        for index in range(self.cluster.workers):
            self._spawn(index)
        self.clients = [
            self._make_client(index, self._addresses[index])
            for index in range(self.cluster.workers)
        ]
        self._configure_peers()
        self.router = ClusterRouter(
            self.clients,
            self.cluster,
            session_hints=True,
            on_worker_failure=self._on_worker_failure,
        )
        self.router.start_monitor()
        self.http = ThreadedHildaServer(self.router, config=self.server_config)
        self.http.start()
        return self

    def shutdown(self) -> None:
        self._closing = True
        if self.http is not None:
            self.http.shutdown()
            self.http = None
        if self.router is not None:
            self.router.close()
            self.router = None
        # Graceful drain (flushes each worker's WAL), then reap.
        for index, proc in enumerate(self._procs):
            if proc is None or not proc.is_alive():
                continue
            try:
                drain = self._make_client(index, self._addresses[index])
                try:
                    drain.call("shutdown")
                finally:
                    drain.close()
            except (RpcError, WorkerUnavailableError, ClusterError):
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._procs = [None] * self.cluster.workers

    def serve_forever(self) -> None:
        """Run in the foreground until interrupted (facade ``serve`` mode)."""
        self.start()
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def __enter__(self) -> "ClusterServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    @property
    def url(self) -> str:
        if self.http is None:
            raise ClusterError("cluster server is not started")
        return self.http.url

    # -- fault injection / introspection ---------------------------------------

    def kill_worker(self, index: int) -> None:
        """Kill one worker abruptly (failover tests; no drain, no flush)."""
        proc = self._procs[index]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)

    def worker_stats(self, index: int) -> Dict[str, Any]:
        return self.clients[index].call("stats", retry=True)

    def export_tables(self, index: int) -> Dict[str, Dict[str, List[List[Any]]]]:
        return self.clients[index].call("export_tables", retry=True)

    # -- internals --------------------------------------------------------------

    def _spawn(self, index: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(self.spec, index, child_conn),
            name=f"hilda-worker-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        deadline = time.monotonic() + max(10.0, self.cluster.request_timeout)
        try:
            while not parent_conn.poll(0.05):
                if time.monotonic() > deadline or not proc.is_alive():
                    raise ClusterError(f"cluster worker {index} died during startup")
            status, payload = parent_conn.recv()
        finally:
            parent_conn.close()
        if status != "ready":
            proc.join(timeout=2.0)
            raise ClusterError(f"cluster worker {index} failed to start: {payload}")
        self._procs[index] = proc
        self._addresses[index] = (payload[0], int(payload[1]))

    def _make_client(self, index: int, address: Optional[Tuple[str, int]]) -> WorkerClient:
        if address is None:
            raise ClusterError(f"cluster worker {index} has no address")
        return WorkerClient(
            index,
            address,
            timeout=self.cluster.request_timeout,
            connect_retries=self.cluster.connect_retries,
            retry_backoff=self.cluster.retry_backoff,
            pool_size=self.cluster.pool_size,
        )

    def _configure_peers(self, strict: bool = True) -> None:
        addresses = {
            index: address
            for index, address in enumerate(self._addresses)
            if address is not None
        }
        for index, client in enumerate(self.clients):
            if self._addresses[index] is None:
                continue
            try:
                client.call("configure_peers", retry=True, addresses=addresses)
            except (RpcError, WorkerBusyError, WorkerUnavailableError) as exc:
                if strict:
                    raise ClusterError(
                        f"cluster worker {index} rejected peer configuration: {exc}"
                    ) from exc
                # Restart path: a peer that is itself down will learn the
                # fresh address map when its own restart reconfigures everyone.

    def _on_worker_failure(self, index: int) -> None:
        """Router monitor callback: restart a crashed worker in place.

        The restarted worker recovers committed state from its WAL (when
        ``data_dir`` is set); its web sessions are gone, so affected
        browsers are redirected to ``/login`` on their next request.
        """
        if self._closing or not self.cluster.restart_workers:
            return
        with self._restart_lock:
            if self._closing:
                return
            proc = self._procs[index]
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            try:
                self._spawn(index)
            except ClusterError:
                return  # stays dead; the next probe round tries again
            # Repoint the router's client at the new address *before*
            # reconfiguring peers — configure_peers goes through that very
            # client, and a failure here must not strand the fresh worker
            # (the next probe round would kill and respawn it forever).
            if self.router is not None:
                self.router.worker_restarted(index, self._addresses[index])
            self._configure_peers(strict=False)


def build_thread_cluster(
    application: HildaApplication, cluster: ClusterConfig
) -> Tuple[ClusterRouter, Callable[[], None]]:
    """An in-process cluster over one shared application (thread model).

    Returns ``(router, close)``: mount the router wherever the application
    was mounted; call ``close()`` to stop the router and the worker RPC
    servers.  The shared application itself is *not* closed — it belongs to
    the caller (the test fixture or the embedding server).
    """
    if cluster.process_model != "thread":
        raise ConfigError(
            "build_thread_cluster runs the thread process model; use "
            "ClusterServer for fork-model workers"
        )
    workers = [
        ClusterWorker(index, application, cluster, plan=None, sharded=False).start()
        for index in range(cluster.workers)
    ]
    clients = [
        WorkerClient(
            index,
            worker.address,
            timeout=cluster.request_timeout,
            connect_retries=cluster.connect_retries,
            retry_backoff=cluster.retry_backoff,
            pool_size=cluster.pool_size,
        )
        for index, worker in enumerate(workers)
    ]
    router = ClusterRouter(clients, cluster, session_hints=False)
    router.start_monitor()

    def close() -> None:
        router.close()
        for worker in workers:
            worker.rpc.stop()

    return router, close
