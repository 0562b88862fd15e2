"""Dependency-tracked cache invalidation and delta reactivation (ISSUE 3).

Both Section 6.2 caches used to be keyed on a single engine-global state
version: one user's write anywhere invalidated *every* cached activation
query and rendered fragment for *all* sessions, and reactivation rebuilt
whole trees even when their input tables never changed.  This benchmark
measures the replacement — per-table version counters, plan-derived read
sets, fingerprint-keyed fragments and delta reactivation — against that
global-version baseline:

* **disjoint writes** — a student-side write (``invitation``) must leave the
  admin session's caches warm (>= 90% fragment hit rate, vs ~0% for the
  global baseline, whose every write invalidates everything);
* **read-mostly mixed workload** — many dashboard readers with occasional
  writes: dependency tracking must beat the global baseline by >= 3x
  wall-clock because untouched sessions reuse both their activation trees
  and their rendered pages.

Results land in ``BENCH_dependency_cache.json`` (ops/sec, hit rates) so the
perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import time

import pytest

from repro.apps.minicms import (
    ADMIN_USER,
    STUDENT1_USER,
    STUDENT2_USER,
    seed_paper_scenario,
    seed_scaled,
)
from repro.config import CacheConfig, EngineConfig
from repro.presentation.renderer import PageRenderer
from repro.runtime.engine import HildaEngine

from .conftest import print_series, quick, write_bench_json

#: Disjoint-write workload size.
DISJOINT_ROUNDS = quick(12, 5)

#: Read-mostly workload size: many admin dashboards, one student writer.
MIXED_ROUNDS = quick(8, 4)
READS_PER_WRITE = quick(4, 3)
N_ADMIN_SESSIONS = quick(10, 6)

#: Wall-clock acceptance vs the global-version baseline (the quick smoke
#: pass only checks the machinery; the full run enforces the ISSUE bar).
MIN_SPEEDUP_VS_GLOBAL = quick(3.0, 2.0)


def _engine(program, variant: str, scaled: bool = False) -> HildaEngine:
    """An engine configured for one cache variant.

    ``deps``   — dependency-tracked invalidation + delta reactivation (new);
    ``global`` — caches on, global-version invalidation (the old behaviour);
    ``off``    — caches off, full recomputation everywhere.
    """
    engine = HildaEngine(
        program,
        config=EngineConfig(
            cache=CacheConfig(
                activation_queries=variant in ("deps", "global"),
                dependency_tracking=variant == "deps",
                delta_reactivation=variant == "deps",
            )
        ),
    )
    if scaled:
        seed_scaled(engine, n_courses=quick(4, 3), n_students=3, n_assignments=quick(6, 4))
    else:
        seed_paper_scenario(engine)
    return engine


def _renderer(engine: HildaEngine, variant: str) -> PageRenderer:
    return PageRenderer(engine, cache_fragments=variant in ("deps", "global"))


def _insert_invitation(engine: HildaEngine, iid: int, gid: int, inviter: int, invitee: int):
    """A student-side write: touches only the ``invitation`` table."""
    engine.seed_persistent({"invitation": [(iid, gid, inviter, invitee)]})


def test_bench_disjoint_writes_keep_caches_warm(benchmark, minicms_program):
    """Writes to one table must leave caches for disjoint-table queries warm."""

    def run(variant: str):
        engine = _engine(minicms_program, variant)
        admin = engine.start_session({"user": [(ADMIN_USER,)]})
        engine.start_session({"user": [(STUDENT1_USER,)]})
        engine.start_session({"user": [(STUDENT2_USER,)]})
        renderer = _renderer(engine, variant)
        renderer.render_session(admin)  # warm the fragment cache
        renderer.stats.reset()
        admin_subtrees = {
            id(node)
            for node in engine.session_tree(admin).walk()
            if node.parent is not None
        }
        reused_before = engine._builder.instances_reused
        built_before = engine._builder.instances_built
        start = time.perf_counter()
        for round_index in range(DISJOINT_ROUNDS):
            # s1 invites s2 again: the write touches invitation only, which
            # nothing in the admin session's tree reads.
            _insert_invitation(engine, 1000 + round_index, 300, 1, 2)
            renderer.render_session(admin)
        elapsed = (time.perf_counter() - start) * 1000
        reused = engine._builder.instances_reused - reused_before
        built = engine._builder.instances_built - built_before
        admin_stable = admin_subtrees == {
            id(node)
            for node in engine.session_tree(admin).walk()
            if node.parent is not None
        }
        return {
            "elapsed_ms": elapsed,
            "fragment_hit_rate": renderer.stats.hit_rate,
            "activation_cache": engine.activation_cache_stats.as_dict(),
            "instances_reused": reused,
            "instances_rebuilt": built,
            "admin_subtrees_stable": admin_stable,
        }

    deps = run("deps")
    baseline = run("global")
    benchmark.pedantic(lambda: run("deps"), rounds=1, iterations=1)

    print_series(
        f"ISSUE 3 — disjoint writes ({DISJOINT_ROUNDS} rounds), admin page cache",
        [
            ("dependency-tracked", f"{deps['elapsed_ms']:.1f} ms",
             f"{deps['fragment_hit_rate']:.0%}", deps["instances_reused"]),
            ("global-version", f"{baseline['elapsed_ms']:.1f} ms",
             f"{baseline['fragment_hit_rate']:.0%}", baseline["instances_reused"]),
        ],
        ["variant", "time", "fragment hits", "instances reused"],
    )

    write_bench_json(
        "dependency_cache_disjoint",
        {"rounds": DISJOINT_ROUNDS, "deps": deps, "global": baseline},
    )
    # Acceptance: the admin page stays cached across disjoint writes (its
    # subtrees are adopted by delta reactivation, not rebuilt)...
    assert deps["fragment_hit_rate"] >= 0.9
    assert deps["admin_subtrees_stable"]
    assert deps["instances_reused"] > 0
    # ... while global-version invalidation loses everything on every write.
    assert baseline["fragment_hit_rate"] <= 0.1
    assert baseline["instances_reused"] == 0


def test_bench_read_mostly_mixed_workload(benchmark, minicms_program):
    """Dashboard readers + occasional writes: >= 3x over the global baseline."""

    def run(variant: str):
        engine = _engine(minicms_program, variant, scaled=True)
        sessions = [
            engine.start_session({"user": [(ADMIN_USER,)]})
            for _ in range(N_ADMIN_SESSIONS)
        ]
        sessions.append(engine.start_session({"user": [("stu1",)]}))
        renderer = _renderer(engine, variant)
        for session in sessions:
            renderer.render_session(session)  # warm every page once
        pages = 0
        start = time.perf_counter()
        for round_index in range(MIXED_ROUNDS):
            _insert_invitation(engine, 5000 + round_index, 1, 1, 2)
            for _ in range(READS_PER_WRITE):
                for session in sessions:
                    renderer.render_session(session)
                    pages += 1
        elapsed = time.perf_counter() - start
        return {
            "elapsed_ms": elapsed * 1000,
            "pages": pages,
            "pages_per_sec": pages / elapsed if elapsed else float("inf"),
            "fragment_hit_rate": renderer.stats.hit_rate,
            "activation_cache": engine.activation_cache_stats.as_dict(),
        }

    deps = run("deps")
    baseline = run("global")
    uncached = run("off")
    benchmark.pedantic(lambda: run("deps"), rounds=1, iterations=1)

    speedup_vs_global = baseline["elapsed_ms"] / deps["elapsed_ms"]
    speedup_vs_off = uncached["elapsed_ms"] / deps["elapsed_ms"]
    print_series(
        f"ISSUE 3 — read-mostly mixed workload ({deps['pages']} pages, "
        f"{MIXED_ROUNDS} writes, {N_ADMIN_SESSIONS + 1} sessions)",
        [
            ("dependency-tracked", f"{deps['elapsed_ms']:.1f} ms",
             f"{deps['pages_per_sec']:.0f}", f"{deps['fragment_hit_rate']:.0%}"),
            ("global-version", f"{baseline['elapsed_ms']:.1f} ms",
             f"{baseline['pages_per_sec']:.0f}", f"{baseline['fragment_hit_rate']:.0%}"),
            ("caches off", f"{uncached['elapsed_ms']:.1f} ms",
             f"{uncached['pages_per_sec']:.0f}", "-"),
            ("speedup vs global", f"{speedup_vs_global:.1f}x", "", ""),
        ],
        ["variant", "time", "pages/s", "fragment hits"],
    )

    write_bench_json(
        "dependency_cache",
        {
            "read_mostly": {
                "deps": deps,
                "global": baseline,
                "off": uncached,
                "speedup_vs_global": speedup_vs_global,
                "speedup_vs_off": speedup_vs_off,
            },
        },
    )
    # Acceptance: a wide wall-clock margin over global-version invalidation.
    assert speedup_vs_global >= MIN_SPEEDUP_VS_GLOBAL, (
        f"dependency tracking only {speedup_vs_global:.2f}x over the "
        f"global-version baseline (need {MIN_SPEEDUP_VS_GLOBAL}x)"
    )
