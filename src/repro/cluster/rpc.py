"""Length-prefixed socket RPC between the cluster router and engine workers.

Wire format: each message is one *frame* — a 4-byte big-endian length prefix
followed by that many payload bytes.  The payload is a codec-encoded dict:

* request — ``{"id": int, "method": str, "args": dict}``
* response — ``{"id": int, "ok": bool, "value": ...}`` or
  ``{"id": int, "ok": False, "error": {"type": str, "message": str}}``

The codec is pickle, decoded through a **restricted unpickler**: rpc
frames are plain containers of primitives (the one exception being
``datetime.date`` row values), so ``find_class`` rejects every other global
— a crafted frame from some other local process that can reach the TCP port
must not be able to smuggle a ``__reduce__`` gadget into the worker (pickle
is otherwise arbitrary code execution).  Tuples survive the round trip, so
table rows ship as they are stored.  Undecodable frames surface as
:class:`~repro.errors.RpcError` and close the connection.

:class:`RpcServer` is a thread-per-connection server dispatching to a handler
table; :class:`WorkerClient` is the router/worker-side caller with a bounded
connection pool, request timeouts, and bounded retry with backoff for
connection establishment (and, for calls flagged idempotent, mid-call
failures).  Failures surface as :class:`~repro.errors.RpcError` /
:class:`~repro.errors.WorkerUnavailableError`, and connection-pool
saturation as :class:`~repro.errors.WorkerBusyError` (load, not death —
see :class:`WorkerClient`).
"""

from __future__ import annotations

import io
import itertools
import pickle
import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RpcError, WorkerBusyError, WorkerUnavailableError

__all__ = ["RpcServer", "WorkerClient"]

#: The only non-primitive globals a frame may reference: DATE columns
#: ship ``datetime.date`` values in ``scan``/``export_tables`` rows.
#: (``datetime.datetime`` covers the coercion layer's accepted superset.)
_SAFE_GLOBALS = {("datetime", "date"), ("datetime", "datetime")}


class _RestrictedUnpickler(pickle.Unpickler):
    """Reject every global reference outside ``_SAFE_GLOBALS``.

    Dicts, lists, tuples, strings, bytes, numbers, bools and None decode
    through dedicated pickle opcodes and never hit ``find_class``, so
    legitimate rpc traffic is unaffected while a crafted frame cannot
    name a callable to execute.
    """

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) in _SAFE_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(f"rpc frames may not reference {module}.{name}")


def _encode(message: Dict[str, Any]) -> bytes:
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def _decode(payload: bytes) -> Dict[str, Any]:
    try:
        return _RestrictedUnpickler(io.BytesIO(payload)).load()
    except Exception as exc:
        raise RpcError(f"undecodable rpc frame: {exc}") from exc


_LENGTH = struct.Struct(">I")
#: Upper bound on a single frame; a corrupt length prefix should fail fast
#: rather than attempt a multi-gigabyte read.
MAX_FRAME = 256 * 1024 * 1024


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    payload = _encode(message)
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME:
        raise RpcError(f"rpc frame of {length} bytes exceeds the {MAX_FRAME}-byte limit")
    return _decode(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise RpcError("rpc connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class RpcServer:
    """Serve a handler table over framed request/response connections.

    Each accepted connection gets a daemon thread that loops reading request
    frames and writing one response frame per request, so a single connection
    carries many sequential calls (the client pools connections for
    concurrency).  Handler exceptions are caught and returned as error
    responses; they never kill the connection.
    """

    def __init__(
        self,
        handlers: Dict[str, Callable[..., Any]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._handlers = dict(handlers)
        self._listener = socket.create_server((host, port))
        self._address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._connections: Dict[int, socket.socket] = {}
        self._conn_ids = itertools.count(1)
        self._closing = False
        self._acceptor: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._address

    def start(self) -> "RpcServer":
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="rpc-accept", daemon=True
        )
        self._acceptor.start()
        return self

    def stop(self) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
            connections = list(self._connections.values())
            self._connections.clear()
        # shutdown() before close(): merely closing the fd does not wake a
        # thread parked in accept() on Linux, which would stall stop() until
        # the join timeout below.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in connections:
            _force_close(conn)
        if self._acceptor is not None:
            self._acceptor.join(timeout=2.0)

    # -- internals -------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            conn_id = next(self._conn_ids)
            with self._lock:
                if self._closing:
                    _force_close(conn)
                    return
                self._connections[conn_id] = conn
            threading.Thread(
                target=self._serve_connection,
                args=(conn_id, conn),
                name=f"rpc-conn-{conn_id}",
                daemon=True,
            ).start()

    def _serve_connection(self, conn_id: int, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = recv_frame(conn)
                except (RpcError, OSError):
                    return
                send_frame(conn, self._dispatch(request))
        except OSError:
            return
        finally:
            with self._lock:
                self._connections.pop(conn_id, None)
            _force_close(conn)

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request_id = request.get("id")
        method = request.get("method")
        handler = self._handlers.get(method)
        if handler is None:
            return _error_response(request_id, "RpcError", f"unknown rpc method {method!r}")
        try:
            value = handler(**(request.get("args") or {}))
        except Exception as exc:  # noqa: BLE001 - report, don't kill the connection
            return _error_response(request_id, type(exc).__name__, str(exc))
        return {"id": request_id, "ok": True, "value": value}


def _error_response(request_id: Any, error_type: str, message: str) -> Dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }


def _force_close(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class WorkerClient:
    """One router-side (or peer-worker-side) endpoint for a single worker.

    Pools up to ``pool_size`` connections; a call checks one out, runs a
    request/response round-trip under ``timeout``, and returns it.  Broken
    connections are discarded, not returned.  Connection establishment is
    retried ``connect_retries`` times with exponential backoff starting at
    ``retry_backoff`` seconds; mid-call failures are retried the same way only
    when the caller flags the call idempotent (``retry=True``) — a POST whose
    connection died after the request was sent may already have been applied,
    so it is never replayed.

    Failure vocabulary: a worker that cannot be *reached* raises
    :class:`WorkerUnavailableError`; a worker whose pool has no free slot
    within ``pool_timeout`` (default: ``timeout``) raises
    :class:`WorkerBusyError` — saturation is load, not death, and the two
    must stay distinguishable so the router never restarts a busy worker.
    :meth:`ping` therefore also runs on a dedicated out-of-pool connection.
    """

    def __init__(
        self,
        worker: int,
        address: Tuple[str, int],
        timeout: float = 10.0,
        connect_retries: int = 3,
        retry_backoff: float = 0.05,
        pool_size: int = 8,
        pool_timeout: Optional[float] = None,
    ) -> None:
        self.worker = worker
        self.timeout = timeout
        self.pool_timeout = timeout if pool_timeout is None else pool_timeout
        self.connect_retries = max(1, int(connect_retries))
        self.retry_backoff = retry_backoff
        self._address = tuple(address)
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(max(1, int(pool_size)))
        self._idle: List[socket.socket] = []
        self._request_ids = itertools.count(1)
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        with self._lock:
            return self._address  # type: ignore[return-value]

    def reconnect(self, address: Tuple[str, int]) -> None:
        """Point the client at a restarted worker and drop stale connections."""
        with self._lock:
            self._address = tuple(address)
            idle, self._idle = self._idle, []
        for conn in idle:
            _force_close(conn)

    def call(self, method: str, retry: bool = False, **args: Any) -> Any:
        """Invoke ``method(**args)`` on the worker and return its value.

        Raises :class:`WorkerUnavailableError` when the worker cannot be
        reached (after retries), :class:`WorkerBusyError` when no pool slot
        frees up within ``pool_timeout``, and :class:`RpcError` when it
        reports a handler failure.
        """
        attempts = self.connect_retries
        delay = self.retry_backoff
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(delay)
                delay *= 2
            try:
                conn = self._checkout()
            except WorkerUnavailableError as exc:
                last_error = exc
                continue
            sent = False
            try:
                request_id = next(self._request_ids)
                send_frame(conn, {"id": request_id, "method": method, "args": args})
                sent = True
                response = recv_frame(conn)
            except (OSError, RpcError) as exc:
                self._discard(conn)
                last_error = exc
                if sent and not retry:
                    # The worker may have executed the call; surface the
                    # failure rather than replay a non-idempotent request.
                    break
                continue
            self._checkin(conn)
            return self._unwrap(response, request_id)
        raise WorkerUnavailableError(
            self.worker,
            f"cluster worker {self.worker} at {self._address} is unavailable: {last_error}",
        )

    def ping(self) -> bool:
        """Liveness probe on a dedicated out-of-pool connection.

        Probes must not compete for pool slots: under sustained load every
        slot is legitimately busy, and a probe that queued behind them would
        time out and make a healthy worker look dead — the monitor would
        then terminate it, destroying its in-memory web sessions.  Connect
        failures are retried like :meth:`call`; handler-level failures
        propagate as :class:`RpcError`.
        """
        attempts = self.connect_retries
        delay = self.retry_backoff
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(delay)
                delay *= 2
            with self._lock:
                if self._closed:
                    raise WorkerUnavailableError(self.worker, "worker client closed")
                address = self._address
            try:
                conn = socket.create_connection(address, timeout=self.timeout)
            except OSError as exc:
                last_error = exc
                continue
            try:
                conn.settimeout(self.timeout)
                request_id = next(self._request_ids)
                send_frame(conn, {"id": request_id, "method": "ping", "args": {}})
                return bool(self._unwrap(recv_frame(conn), request_id))
            except OSError as exc:
                last_error = exc
                continue
            finally:
                _force_close(conn)
        raise WorkerUnavailableError(
            self.worker,
            f"cluster worker {self.worker} at {self._address} is unavailable: "
            f"{last_error}",
        )

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            _force_close(conn)

    # -- internals -------------------------------------------------------------

    def _unwrap(self, response: Dict[str, Any], request_id: int) -> Any:
        if response.get("id") != request_id:
            raise RpcError(
                f"rpc response id {response.get('id')!r} does not match request {request_id}"
            )
        if response.get("ok"):
            return response.get("value")
        error = response.get("error") or {}
        raise RpcError(
            f"worker {self.worker} {error.get('type', 'error')}: {error.get('message', '')}"
        )

    def _checkout(self) -> socket.socket:
        # Pool exhaustion is WorkerBusyError, not WorkerUnavailableError:
        # every slot being in flight means the worker is loaded, not dead,
        # and the caller must not trigger failure handling (restart).
        if not self._slots.acquire(timeout=self.pool_timeout):
            raise WorkerBusyError(self.worker)
        with self._lock:
            if self._closed:
                self._slots.release()
                raise WorkerUnavailableError(self.worker, "worker client closed")
            if self._idle:
                return self._idle.pop()
            address = self._address
        try:
            conn = socket.create_connection(address, timeout=self.timeout)
        except OSError as exc:
            self._slots.release()
            raise WorkerUnavailableError(
                self.worker, f"cannot connect to cluster worker {self.worker}: {exc}"
            ) from exc
        conn.settimeout(self.timeout)
        return conn

    def _checkin(self, conn: socket.socket) -> None:
        try:
            peer: Optional[Tuple[str, int]] = tuple(conn.getpeername()[:2])
        except OSError:
            peer = None
        keep = False
        with self._lock:
            if not self._closed and peer == self._address:
                self._idle.append(conn)
                keep = True
        if not keep:
            _force_close(conn)
        self._slots.release()

    def _discard(self, conn: socket.socket) -> None:
        _force_close(conn)
        self._slots.release()
