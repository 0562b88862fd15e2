"""Shared fixtures and helpers for the benchmark harness.

Every benchmark module regenerates one of the paper's figures/experiments
(see DESIGN.md's experiment index and EXPERIMENTS.md for the recorded
results).  The data sizes are laptop-scale; the interesting output is the
*shape* of each series (who wins, by roughly what factor), which is printed
alongside the timings.

Two environment knobs support the CI smoke job:

* ``BENCH_QUICK=1`` shrinks workload sizes (exposed as :data:`BENCH_QUICK`
  for benchmark modules to scale themselves down);
* ``BENCH_ARTIFACT_DIR`` redirects the machine-readable ``BENCH_*.json``
  artifacts written by :func:`write_bench_json` (default:
  ``benchmarks/artifacts/``), which track the perf trajectory across PRs.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

import pytest

from repro.apps.minicms import (
    ADMIN_USER,
    STUDENT1_USER,
    STUDENT2_USER,
    load_minicms,
    seed_paper_scenario,
    seed_scaled,
)
from repro.config import EngineConfig
from repro.runtime.engine import HildaEngine
from repro.sql.stats import EstimationStats
from repro.storage.backend import BACKEND_ENV_VAR
from repro.web.server import SERVER_MODE_ENV_VAR


@pytest.fixture(autouse=True)
def _pin_storage_backend(monkeypatch):
    """Benchmarks choose their storage explicitly; ignore the env override.

    Every benchmark asserts a perf *ratio* against a controlled baseline
    (caches on/off, join orders, storage modes).  The ``tier1-wal`` CI leg
    exports ``REPRO_STORAGE_BACKEND=wal`` to run the correctness suite on
    the durable backend, but silently re-basing every benchmark variant
    onto a WAL adds the same commit latency to both sides of each ratio
    and squeezes the asserted margins (and would turn the storage bench's
    memory baseline into a third WAL run).  Correctness under the WAL is
    ``tests/``' job; here the backend is part of the experiment setup.
    """
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    # Same story for the tier1-cluster leg's server-mode override: the
    # cluster scaling benchmark builds its own explicitly-sized clusters,
    # and silently wrapping every other benchmark's ThreadedHildaServer in
    # a 2-worker thread cluster would re-base their ratios too.
    monkeypatch.delenv(SERVER_MODE_ENV_VAR, raising=False)


@pytest.fixture(scope="session")
def minicms_program():
    return load_minicms()


@pytest.fixture(scope="session")
def navcms_program():
    from repro.apps.minicms import load_navcms

    return load_navcms()


def fresh_engine(program, config: Optional[EngineConfig] = None) -> HildaEngine:
    """A new engine with the paper-scenario data."""
    engine = HildaEngine(program, config=config)
    seed_paper_scenario(engine)
    return engine


def scaled_engine(
    program,
    n_courses=4,
    n_students=10,
    n_assignments=3,
    config: Optional[EngineConfig] = None,
) -> HildaEngine:
    """A new engine with a scaled synthetic data set."""
    engine = HildaEngine(program, config=config)
    seed_scaled(
        engine,
        n_courses=n_courses,
        n_students=n_students,
        n_assignments=n_assignments,
    )
    return engine


#: True when the CI smoke job asked for shrunk workloads.
BENCH_QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Where the machine-readable benchmark artifacts land.
ARTIFACT_DIR = os.environ.get("BENCH_ARTIFACT_DIR") or os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "artifacts"
)


def quick(full, reduced):
    """Pick the workload size for the current mode."""
    return reduced if BENCH_QUICK else full


def write_bench_json(name: str, payload: dict, engines=()) -> str:
    """Write ``BENCH_<name>.json`` (ops/sec, hit rates, ...) and return its path.

    The JSON shape is stable across PRs so the perf trajectory can be
    diffed: top-level metadata plus whatever series the benchmark reports.
    ``engines`` names the engines whose estimation totals the artifact
    should aggregate — the engine-scoped replacement for the old
    process-global q-error counters (zeros when omitted).
    """
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    path = os.path.join(ARTIFACT_DIR, f"BENCH_{name}.json")
    estimation = EstimationStats()
    for engine in engines:
        # Accepts engines (``.sql_caches``) and bare executors (``.caches``).
        caches = getattr(engine, "sql_caches", None) or getattr(engine, "caches")
        totals = caches.estimation
        estimation.add(totals.checks, totals.underestimates, totals.overestimates)
        estimation.replans += totals.replans
    document = {
        "benchmark": name,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick_mode": BENCH_QUICK,
        # Estimate-vs-actual q-error totals of the engines this benchmark
        # ran (EXPLAIN ANALYZE and feedback observation passes): how often
        # row estimates were checked, how often they missed by more than a
        # q-error of 2 either way, and how many feedback-driven re-plans
        # were triggered.
        "estimation": estimation.as_dict(),
    }
    document.update(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return path


def print_series(title: str, rows, columns) -> None:
    """Print a small results table the way the paper reports series."""
    print(f"\n[{title}]")
    header = " | ".join(f"{name:>18s}" for name in columns)
    print("  " + header)
    for row in rows:
        print("  " + " | ".join(f"{str(value):>18s}" for value in row))
