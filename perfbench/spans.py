"""Span recording around the public entry points of each ``src/repro`` layer.

The server process installs :class:`Tracer` wrappers on the classes named in
:data:`LAYER_POINTS` before it builds the application.  Each call records a
span ``(id, parent, request, name, start, end, extra)``: ``parent`` is the
enclosing span on the same thread, ``request`` is inherited from the
``HildaApplication.handle`` span that opened the request, and ``extra`` is a
layer-specific count or dict of counts (rows replaced, bytes appended,
subtrees rebuilt and reused, fragment hits and misses, ...).  Spans stay in
memory until the server is asked to write them out.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name of the request root; its ``extra`` is the session cookie token.
HANDLE = "web.container/HildaApplication.handle"


def _cookie_token(obj: Any, args: tuple, result: Any, before: Any) -> Any:
    return args[0].cookies.get("hilda_session")


def _rows_scanned(obj: Any, args: tuple) -> int:
    return obj.stats.rows_scanned


def _scanned_delta(obj: Any, args: tuple, result: Any, before: int) -> int:
    return obj.stats.rows_scanned - before


def _replaced_rows(obj: Any, args: tuple, result: Any, before: Any) -> int:
    return result


def _appended(obj: Any, args: tuple) -> int:
    return obj.appended_size


def _appended_delta(obj: Any, args: tuple, result: Any, before: int) -> int:
    return obj.appended_size - before


def _apply_counts(obj: Any, args: tuple, result: Any, before: Any) -> Dict[str, int]:
    return {"rebuilt": result.instances_rebuilt, "reused": result.instances_reused}


def _render_counts(obj: Any, args: tuple) -> Tuple[int, int]:
    return obj.stats.hits, obj.stats.misses


def _render_delta(obj: Any, args: tuple, result: Any, before: Tuple[int, int]) -> Dict[str, int]:
    return {"hits": obj.stats.hits - before[0], "misses": obj.stats.misses - before[1]}


Probe = Optional[Tuple[Optional[Callable[[Any, tuple], Any]], Callable[[Any, tuple, Any, Any], Any]]]

#: (module, class, method, probe).  The span name is
#: ``<layer>/<Class>.<method>`` where the layer is the module path below
#: ``repro``; a layer's time is the self time of its spans.
LAYER_POINTS: Tuple[Tuple[str, str, str, Probe], ...] = (
    ("web.container", "HildaApplication", "handle", (None, _cookie_token)),
    ("web.sessions", "SessionManager", "require", None),
    ("runtime.concurrency", "ReadWriteLock", "acquire_read", None),
    ("runtime.concurrency", "ReadWriteLock", "acquire_write", None),
    ("runtime.engine", "HildaEngine", "perform", (None, _apply_counts)),
    ("runtime.returns", "ReturnProcessor", "process", None),
    ("runtime.activation", "ActivationBuilder", "build_session_tree", None),
    ("sql.executor", "SQLExecutor", "execute_query", (_rows_scanned, _scanned_delta)),
    ("relational.table", "Table", "replace", (None, _replaced_rows)),
    ("storage.wal", "WalWriter", "append", (_appended, _appended_delta)),
    ("storage.wal", "WalWriter", "sync", None),
    ("storage.wal_backend", "WalBackend", "commit", None),
    ("storage.wal_backend", "WalBackend", "wait_durable", None),
    ("storage.wal_backend", "WalBackend", "checkpoint", None),
    ("presentation.renderer", "PageRenderer", "render_session", (_render_counts, _render_delta)),
)

#: Every layer that reports a page and an action share; ``web.server`` is
#: the edge (client latency outside ``HildaApplication.handle``).
MODULES = ("web.server",) + tuple(dict.fromkeys(point[0] for point in LAYER_POINTS))


def span_name(layer: str, cls: str, method: str) -> str:
    return f"{layer}/{cls}.{method}"


def layer_of(name: str) -> str:
    return name.split("/", 1)[0]


class Tracer:
    """Wraps layer entry points and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_POINTS`."""
        for layer, cls_name, method, probe in LAYER_POINTS:
            cls = getattr(importlib.import_module(f"repro.{layer}"), cls_name)
            self.wrap(cls, method, span_name(layer, cls_name, method), probe)

    def wrap(self, cls: type, method: str, name: str, probe: Probe = None) -> None:
        original = getattr(cls, method)
        root = name == HANDLE
        tracer = self

        def traced(obj: Any, *args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._span_ids)
            if root:
                request = next(tracer._request_ids)
            else:
                request = stack[-1][1] if stack else 0
            parent = stack[-1][0] if stack else 0
            before = probe[0](obj, args) if probe and probe[0] else None
            stack.append((span_id, request))
            result = None
            start = time.perf_counter()
            try:
                result = original(obj, *args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = probe[1](obj, args, result, before) if probe and result is not None else None
                tracer.spans.append([span_id, parent, request, name, start, end, extra])

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(cls, method, traced)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack
