"""Turning client records and server spans into the benchmark's metrics.

Pure functions over plain data, pinned by ``test_perfbench.py``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence

from loadgen import Record
from spans import HANDLE, MODULES, layer_of

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
CHECKPOINT = "storage.wal_backend/WalBackend.checkpoint"


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it (the tail is not supported)."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def latencies_ms(records: Iterable[Record], kind: str) -> List[float]:
    """Open-loop latency from each request's due time; a failure is +inf,
    so it counts as over every latency limit."""
    return [
        (r.done - r.due) * 1000 if r.ok else math.inf
        for r in records
        if r.phase == "open" and r.kind == kind
    ]


def lateness_ms(records: Iterable[Record]) -> List[float]:
    """How late each open-loop request was sent compared with its due time:
    generator jitter plus waiting for its connection to come free."""
    return [(r.send - r.due) * 1000 for r in records if r.phase == "open"]


def offered_rps(records: Sequence[Record]) -> float:
    """The rate the generator actually offered in the open loop."""
    sends = sorted(r.send for r in records if r.phase == "open")
    if len(sends) < 2 or sends[-1] == sends[0]:
        return 0.0
    return (len(sends) - 1) / (sends[-1] - sends[0])


def over_capacity(records: Iterable[Record], start: float, seconds: float) -> bool:
    """True when, at the end of the schedule, a request due before the final
    tenth of the run has still not completed: completions fell behind the
    schedule and the backlog is not draining."""
    end = start + seconds
    pending = [r.due for r in records if r.phase == "open" and r.done > end]
    return bool(pending) and end - min(pending) > seconds / 10


def match_handles(
    records: Sequence[Record], tokens: Sequence[str], spans: Sequence[list]
) -> List[list]:
    """The ``HildaApplication.handle`` span of each record, by position.

    A session's requests travel on one connection one at a time, so its
    ``k``-th request carrying its cookie is the ``k``-th handle span with
    that cookie token.  Raises ValueError when the counts disagree.
    """
    by_token: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        if span[3] == HANDLE and span[6] is not None:
            by_token[span[6]].append(span)
    for handles in by_token.values():
        handles.sort(key=lambda span: span[4])
    sent: Dict[str, int] = defaultdict(int)
    for record in records:
        sent[tokens[record.session]] += 1
    for token, count in sent.items():
        if len(by_token[token]) != count:
            raise ValueError(
                f"session {token}: {count} requests sent but "
                f"{len(by_token[token])} handle spans recorded"
            )
    return [by_token[tokens[r.session]][r.ordinal] for r in records]


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {span[0]: span[5] - span[4] for span in spans}
    for span in spans:
        if span[1] in own:
            own[span[1]] -= span[5] - span[4]
    return own


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(
    records: Sequence[Record], tokens: Sequence[str], spans: Sequence[list]
) -> Dict[str, float]:
    """The per-layer metrics of the open-loop phase of a traced run.

    ``records`` are every request of the run, in each session's order.  The
    checkpoint metrics count every checkpoint the traced server made, since
    the open loop alone commits too few transactions to trigger one.
    """
    handles = match_handles(records, tokens, spans)
    by_request: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        by_request[span[2]].append(span)
    own = self_times(spans)

    totals: Dict[str, Dict[str, float]] = {"page": defaultdict(float), "action": defaultdict(float)}
    counts: Dict[str, Dict[str, float]] = {"page": defaultdict(float), "action": defaultdict(float)}
    extras: Dict[str, Dict[str, float]] = {"page": defaultdict(float), "action": defaultdict(float)}
    share: Dict[str, Dict[str, float]] = {"page": defaultdict(float), "action": defaultdict(float)}
    latency = {"page": 0.0, "action": 0.0}
    done = {"page": 0, "action": 0}
    edges: List[float] = []
    sizes: List[int] = []
    for record, handle in zip(records, handles):
        if record.phase != "open" or not record.ok:
            continue
        kind = record.kind
        elapsed = record.done - record.send
        edge = elapsed - (handle[5] - handle[4])
        done[kind] += 1
        latency[kind] += elapsed
        share[kind]["web.server"] += edge
        if kind == "page":
            edges.append(edge)
            sizes.append(record.size)
        for span in by_request[handle[2]]:
            name, extra = span[3], span[6]
            share[kind][layer_of(name)] += own[span[0]]
            totals[kind][name] += span[5] - span[4]
            counts[kind][name] += 1
            if isinstance(extra, dict):
                for key, value in extra.items():
                    extras[kind][f"{name}#{key}"] += value
            elif isinstance(extra, int):
                extras[kind][name] += extra

    pages, actions = done["page"], done["action"]

    def page_ms(name: str) -> float:
        return _per(totals["page"][name], pages) * 1000

    def action_ms(name: str) -> float:
        return _per(totals["action"][name], actions) * 1000

    def action_count(name: str) -> float:
        return _per(counts["action"][name], actions)

    def action_extra(name: str) -> float:
        return _per(extras["action"][name], actions)

    checkpoint_spans = [span for span in spans if span[3] == CHECKPOINT]
    checkpoints = len(checkpoint_spans)
    checkpoint_time = sum(span[5] - span[4] for span in checkpoint_spans)
    perform = "runtime.engine/HildaEngine.perform"
    query = "sql.executor/SQLExecutor.execute_query"
    replace = "relational.table/Table.replace"
    build = "runtime.activation/ActivationBuilder.build_session_tree"
    render = "presentation.renderer/PageRenderer.render_session"
    hits = extras["page"][render + "#hits"] + extras["action"][render + "#hits"]
    misses = extras["page"][render + "#misses"] + extras["action"][render + "#misses"]
    metrics = {
        "web.server.page_latency_ms": _per(latency["page"], pages) * 1000,
        "web.server.action_latency_ms": _per(latency["action"], actions) * 1000,
        "web.server.edge_ms": _per(sum(edges), len(edges)) * 1000,
        "web.server.response_kb": _per(sum(sizes), len(sizes)) / 1024,
        "web.container.page_handle_ms": page_ms(HANDLE),
        "web.container.action_handle_ms": action_ms(HANDLE),
        "web.container.self_ms": _per(share["page"]["web.container"], pages) * 1000,
        "web.sessions.require_ms": page_ms("web.sessions/SessionManager.require"),
        "runtime.concurrency.read_wait_ms": page_ms("runtime.concurrency/ReadWriteLock.acquire_read"),
        "runtime.concurrency.write_wait_ms": action_ms(
            "runtime.concurrency/ReadWriteLock.acquire_write"
        ),
        "runtime.engine.perform_ms": action_ms(perform),
        "runtime.engine.instances_rebuilt_per_action": action_extra(perform + "#rebuilt"),
        "runtime.engine.instances_reused_per_action": action_extra(perform + "#reused"),
        "runtime.returns.process_ms": action_ms("runtime.returns/ReturnProcessor.process"),
        "runtime.activation.trees_built_per_action": action_count(build),
        "runtime.activation.build_ms_per_action": action_ms(build),
        "sql.executor.queries_per_action": action_count(query),
        "sql.executor.query_ms_per_action": action_ms(query),
        "sql.executor.rows_scanned_per_action": action_extra(query),
        "relational.table.replace_rows_per_action": action_extra(replace),
        "relational.table.replace_ms_per_action": action_ms(replace),
        "storage.wal.append_bytes_per_action": action_extra("storage.wal/WalWriter.append"),
        "storage.wal.syncs_per_action": action_count("storage.wal/WalWriter.sync"),
        "storage.wal_backend.commit_ms": action_ms("storage.wal_backend/WalBackend.commit"),
        "storage.wal_backend.durable_wait_ms": action_ms(
            "storage.wal_backend/WalBackend.wait_durable"
        ),
        "storage.wal_backend.checkpoint_ms": _per(checkpoint_time, checkpoints) * 1000,
        "storage.wal_backend.checkpoints": checkpoints,
        "presentation.renderer.render_ms": page_ms(render),
        "presentation.renderer.fragment_hit_ratio": _per(hits, hits + misses),
    }
    for module in MODULES:
        metrics[f"{module}.page_share"] = share["page"][module] / latency["page"] if pages else 0.0
        metrics[f"{module}.action_share"] = (
            share["action"][module] / latency["action"] if actions else 0.0
        )
    return metrics

