"""Append assignment cost against table size: ``T :- SELECT ... FROM T UNION ALL Q``.

A Hilda handler writes by assigning a whole query result to a table, so
programs append with the idiom above.  The runtime runs it as one batched
insert of ``Q``'s rows (``repro.runtime.context.append_split``), so one
append through a handler must cost the same whether ``T`` holds a thousand
rows or a hundred thousand: neither the handler's latency nor the WAL bytes
it journals may grow with ``|T|``.

Each size seeds a fresh WAL-backed engine (no checkpoints, no fsync, so the
log only ever grows by what the writes append) with ``|T|`` orders, then
times single-row appends through the handler of a ``GetRow``.  The asserted
shape is flatness across sizes: the largest table's median write latency
within ``LATENCY_FLATNESS`` of the smallest's, and WAL bytes per write
within ``BYTES_FLATNESS`` (key digits may add a byte or two).  Wall-clock
totals land in ``BENCH_opt_append.json``.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time

from repro.api import EngineConfig, StorageConfig
from repro.hilda.program import load_program
from repro.runtime.engine import HildaEngine

from .conftest import print_series, quick, write_bench_json

SIZES = quick((1_000, 10_000, 100_000), (1_000, 10_000))
WARMUP_WRITES = 5
WRITES = quick(200, 100)

#: An O(|T|) write path is 10x slower per decade of |T|; flat stays within 3x.
LATENCY_FLATNESS = 3.0
BYTES_FLATNESS = 1.1

SHOP_SOURCE = """
root aunit Shop {
    input schema { user(name:string) }
    persist schema { orders(oid:int key, buyer:string, iid:int) }

    activator Buy : GetRow(int, int) {
        handler Order {
            action {
                orders :-
                    SELECT O.oid, O.buyer, O.iid FROM orders O
                    UNION ALL
                    SELECT G.c1, U.name, G.c2 FROM user U, GetRow.output G
            }
        }
    }
}
"""


def _measure(program, size: int) -> dict:
    data_dir = tempfile.mkdtemp(prefix="bench-append-")
    config = EngineConfig(
        storage=StorageConfig.wal(data_dir, fsync="off", checkpoint_every=None)
    )
    engine = HildaEngine(program, config=config)
    try:
        engine.seed_persistent(
            {"orders": [(oid, f"buyer{oid % 16}", oid % 40) for oid in range(size)]}
        )
        session = engine.start_session({"user": [("alice",)]})
        wal = engine.storage.wal
        latencies = []
        wal_before = 0
        next_oid = size
        for write in range(WARMUP_WRITES + WRITES):
            if write == WARMUP_WRITES:
                wal_before = wal.appended_size
            box = engine.find_instances("GetRow", session_id=session)[0]
            start = time.perf_counter()
            result = engine.perform(box.instance_id, [next_oid, next_oid % 40])
            latencies.append((time.perf_counter() - start) * 1000)
            assert result.status == "applied", result.message
            next_oid += 1
        measured = latencies[WARMUP_WRITES:]
        assert len(engine.persistent_table("orders")) == size + WARMUP_WRITES + WRITES
        return {
            "rows": size,
            "elapsed_ms": sum(measured),
            "median_write_ms": statistics.median(measured),
            "wal_bytes_per_write": (wal.appended_size - wal_before) / WRITES,
        }
    finally:
        engine.close()
        shutil.rmtree(data_dir, ignore_errors=True)


def test_bench_append_cost_is_flat_in_table_size():
    program = load_program(SHOP_SOURCE)
    results = [_measure(program, size) for size in SIZES]
    print_series(
        "Append assignment — one row through a handler, by table size",
        [
            (
                f"{r['rows']:,}",
                f"{r['median_write_ms']:.3f} ms",
                f"{r['wal_bytes_per_write']:.0f} B",
            )
            for r in results
        ],
        ["|T| rows", "median write", "WAL per write"],
    )
    write_bench_json(
        "opt_append",
        {"writes_per_size": WRITES, "sizes": {str(r["rows"]): r for r in results}},
    )
    small, large = results[0], results[-1]
    assert large["median_write_ms"] <= LATENCY_FLATNESS * small["median_write_ms"], results
    assert large["wal_bytes_per_write"] <= BYTES_FLATNESS * small["wal_bytes_per_write"], results
