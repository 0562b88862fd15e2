"""The benchmark's own tests: reproducibility and the accounting rules.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report  # noqa: E402
import workloads  # noqa: E402
from loadgen import Record  # noqa: E402
from spans import HANDLE, MODULES  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Traced counters that depend only on which requests ran, in each
#: session's order, and not on how the two connections interleaved: every
#: action rebuilds or adopts the same subtrees, runs the same queries and
#: issues one WAL sync, and the k-th action overall scans and rewrites a
#: table of the same size whichever session sent it.  (Times, WAL bytes,
#: page sizes and fragment hits are left out: row values, instance ids and
#: cache state at a given moment depend on the interleaving; so does the
#: checkpoint count, which covers the closed loop as well.)
DETERMINISTIC_COUNTERS = (
    "runtime.engine.instances_rebuilt_per_action",
    "runtime.engine.instances_reused_per_action",
    "runtime.activation.trees_built_per_action",
    "sql.executor.queries_per_action",
    "sql.executor.rows_scanned_per_action",
    "relational.table.replace_rows_per_action",
    "storage.wal.syncs_per_action",
)


def _record(session, ordinal, due, send, done, kind="page", phase="open", ok=True, size=100):
    return Record(phase, kind, session, ordinal, due, send, done, ok, size)


# -- reproducibility -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_schedule_and_data(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.schedule(workload, 7, 5.0)
    assert first == workloads.schedule(workload, 7, 5.0)
    assert first != workloads.schedule(workload, 8, 5.0)
    assert workloads.generated_data(name, 7) == workloads.generated_data(name, 7)
    assert all(0 < planned.offset < 5.0 for planned in first)
    kinds = {planned.kind for planned in first}
    assert kinds == ({"page"} if workload.action_share == 0 else {"page", "action"})


def test_sessions_are_zipf_by_rank_and_alternate_connections():
    workload = workloads.WORKLOADS["board-fanout"]
    plan = workloads.schedule(workload, 1, 200.0)
    counts = [0] * len(workload.users)
    for planned in plan:
        counts[planned.session] += 1
    assert counts[0] > counts[1] > counts[8] > counts[63]
    assert [workloads.connection_of(rank) for rank in range(4)] == [0, 1, 0, 1]


# -- the percentile rule ---------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert report.percentile([float(v) for v in range(1, 101)], 0.9) == 90.0
    assert report.percentile([float(v) for v in range(1, 100)], 0.9) is None
    assert report.percentile([float(v) for v in range(1, 21)], 0.5) == 10.0
    assert report.percentile([float(v) for v in range(1, 20)], 0.5) is None
    assert report.percentile([], 0.5) is None


def test_failed_request_counts_as_infinite_latency():
    records = [_record(0, i, 0.0, 0.0, 0.001 * (i + 1)) for i in range(99)]
    records.append(_record(0, 99, 0.0, 0.0, 0.0, ok=False))
    latencies = report.latencies_ms(records, "page")
    assert len(latencies) == 100 and math.isinf(max(latencies))
    assert report.percentile(latencies, 0.9) == pytest.approx(90.0)


# -- open-loop accounting ---------------------------------------------------------


def test_latency_runs_from_due_time_and_lateness_from_send():
    # Due at 1.0, sent late at 1.2 (its connection was busy), done at 1.25.
    records = [_record(0, 0, 1.0, 1.2, 1.25)]
    assert report.latencies_ms(records, "page") == [pytest.approx(250.0)]
    assert report.lateness_ms(records) == [pytest.approx(200.0)]


def test_offered_rate_counts_sends():
    records = [_record(0, i, i * 0.1, i * 0.1, i * 0.1 + 0.01) for i in range(11)]
    assert report.offered_rps(records) == pytest.approx(10.0)


def test_over_capacity_flags_a_backlog_in_the_final_tenth():
    # A 10 s schedule starting at t=0: a request due at 8.5 s still running
    # at 10 s is more than a tenth of the run behind.
    behind = [_record(0, 0, 8.5, 8.5, 10.5)]
    assert report.over_capacity(behind, 0.0, 10.0)
    # One due at 9.5 s finishing after the end is within the final tenth.
    assert not report.over_capacity([_record(0, 0, 9.5, 9.5, 10.2)], 0.0, 10.0)
    assert not report.over_capacity([_record(0, 0, 1.0, 1.0, 1.1)], 0.0, 10.0)


# -- edge-minus-handle matching -----------------------------------------------------


def _span(span_id, parent, request, name, start, end, extra=None):
    return [span_id, parent, request, name, start, end, extra]


def test_requests_match_handle_spans_by_session_order():
    tokens = ["tokA", "tokB"]
    records = [
        _record(0, 0, 0.0, 0.0, 0.010),
        _record(1, 0, 0.0, 0.001, 0.020),
        _record(0, 1, 0.03, 0.03, 0.050),
    ]
    # Handle spans arrive in server completion order, not client order.
    spans = [
        _span(3, 0, 2, HANDLE, 0.002, 0.012, "tokB"),
        _span(1, 0, 1, HANDLE, 0.001, 0.006, "tokA"),
        _span(5, 0, 3, HANDLE, 0.031, 0.041, "tokA"),
    ]
    matched = report.match_handles(records, tokens, spans)
    assert [span[0] for span in matched] == [1, 3, 5]
    with pytest.raises(ValueError):
        report.match_handles(records + [_record(1, 1, 0.06, 0.06, 0.07)], tokens, spans)


def test_edge_is_latency_minus_handle_and_shares_sum_to_one():
    tokens = ["tokA"]
    render = "presentation.renderer/PageRenderer.render_session"
    lock = "runtime.concurrency/ReadWriteLock.acquire_read"
    records = [_record(0, 0, 0.0, 0.0, 0.010), _record(0, 1, 1.0, 1.0, 1.020)]
    spans = [
        _span(2, 1, 1, lock, 0.002, 0.003),
        _span(3, 1, 1, render, 0.003, 0.006, {"hits": 1, "misses": 0}),
        _span(1, 0, 1, HANDLE, 0.001, 0.007, "tokA"),
        _span(5, 4, 2, render, 1.002, 1.010, {"hits": 0, "misses": 1}),
        _span(4, 0, 2, HANDLE, 1.001, 1.012, "tokA"),
    ]
    metrics = report.layer_metrics(records, tokens, spans)
    # Edges: 10 - 6 = 4 ms and 20 - 11 = 9 ms.
    assert metrics["web.server.edge_ms"] == pytest.approx(6.5)
    assert metrics["web.container.self_ms"] == pytest.approx((2 + 3) / 2)
    assert metrics["presentation.renderer.render_ms"] == pytest.approx((3 + 8) / 2)
    assert metrics["runtime.concurrency.read_wait_ms"] == pytest.approx(0.5)
    assert metrics["presentation.renderer.fragment_hit_ratio"] == pytest.approx(0.5)
    assert sum(metrics[f"{module}.page_share"] for module in MODULES) == pytest.approx(1.0)
    assert metrics["web.server.page_share"] == pytest.approx(13 / 30)
    assert all(metrics[f"{module}.action_share"] == 0 for module in MODULES)


def test_checkpoints_count_over_the_whole_traced_run():
    tokens = ["tokA"]
    records = [
        _record(0, 0, 0.0, 0.0, 0.010, kind="action"),
        _record(0, 1, 1.0, 1.0, 1.020, kind="action", phase="closed"),
    ]
    spans = [
        _span(1, 0, 1, HANDLE, 0.001, 0.009, "tokA"),
        _span(3, 2, 2, report.CHECKPOINT, 1.002, 1.006),
        _span(2, 0, 2, HANDLE, 1.001, 1.012, "tokA"),
    ]
    metrics = report.layer_metrics(records, tokens, spans)
    assert metrics["storage.wal_backend.checkpoints"] == 1
    assert metrics["storage.wal_backend.checkpoint_ms"] == pytest.approx(4.0)
    # Latencies and shares come from the open loop only.
    assert metrics["web.server.action_latency_ms"] == pytest.approx(10.0)


def test_a_failed_request_fails_the_run(capsys):
    import run

    records = [_record(0, 0, 0.0, 0.0, 0.010), _record(0, 1, 0.1, 0.1, 0.2, ok=False)]
    code = run.emit(
        workloads.WORKLOADS["orders-append"],
        argparse.Namespace(seed=1, trace=0),
        True,
        "",
        {"setup_s": 1.0, "over_capacity": False},
        records,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, 0, 1, "a/A.f", 0.0, 10.0),
        _span(2, 1, 1, "b/B.g", 1.0, 6.0),
        _span(3, 2, 1, "c/C.h", 2.0, 4.0),
    ]
    assert report.self_times(spans) == {1: 5.0, 2: 3.0, 3: 2.0}


# -- end to end -------------------------------------------------------------------------


def _traced(name: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", "3", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("name", ["orders-append", "board-fanout"])
def test_two_traced_runs_with_one_seed_repeat_the_deterministic_counters(name):
    first, second = _traced(name, 3), _traced(name, 3)
    assert first["runtime.activation.trees_built_per_action"] == len(
        workloads.WORKLOADS[name].users
    )
    for counter in DETERMINISTIC_COUNTERS:
        assert first[counter] == second[counter], counter
