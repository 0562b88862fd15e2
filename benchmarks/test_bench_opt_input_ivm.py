"""Maintained input queries: a post rebuilds only the poster's session.

The Board program shows each session its own user's notes through an input
query ``note ⋈ user ORDER BY seq``.  Every post appends to ``note``, which
every page reads, so under eager reactivation the runtime used to re-run
that input query for all 64 sessions after each post.  With
``maintenance="incremental"`` each session keeps a maintained entry for its
input query; a post patches the entry through its delta program, finds the
rows unchanged for every session but the poster's and adopts those
sessions' children as they are.

The workload mirrors the repository benchmark's board-fanout mix in
process: 64 sessions, eager reactivation, one request in five a post, the
rest page renders through the fragment cache.  It runs once with
incremental maintenance and once with ``maintenance="recompute"`` (every
session re-runs its input query) and reports requests per second, sessions
adopted per post (``MaintenanceStats.results_unchanged``), bailouts and
delta rows.  Acceptance: incremental serves at least ``MIN_SPEEDUP`` times
the recompute throughput, and a post adopts every session but the
poster's.  Results land in ``BENCH_opt_input_ivm.json``.
"""

from __future__ import annotations

import random
import time

from repro.api import build_program
from repro.config import CacheConfig, EngineConfig
from repro.presentation.renderer import PageRenderer
from repro.runtime.engine import HildaEngine

from .conftest import print_series, quick, write_bench_json

SOURCE = """
root aunit Board {
    input schema { user(name:string) }
    persist schema { note(author:string, seq:int, text:string) }

    activator ActMyNotes : ShowTable(int, string) {
        input query {
            ShowTable.input :-
                SELECT N.seq, N.text FROM note N, user U
                WHERE N.author = U.name ORDER BY N.seq
        }
    }

    activator ActPost : GetRow(int, string) {
        handler PostNote {
            action {
                note :-
                    SELECT N.author, N.seq, N.text FROM note N
                    UNION ALL
                    SELECT U.name, O.c1, O.c2 FROM user U, GetRow.output O
            }
        }
    }
}
"""

SESSIONS = 64
NOTES_PER_USER = 16
REQUESTS = quick(500, 150)
POST_EVERY = 5  # one request in five is a post

#: Throughput acceptance vs re-running every session's input query.
MIN_SPEEDUP = quick(3.0, 2.0)


def _run(program, maintenance: str) -> dict:
    cache = CacheConfig(activation_queries=True, fragments=True, maintenance=maintenance)
    engine = HildaEngine(program, config=EngineConfig(cache=cache))
    users = [f"user{k:02d}" for k in range(SESSIONS)]
    engine.seed_persistent(
        {
            "note": [
                (user, seq, f"{user} note {seq}")
                for user in users
                for seq in range(1, NOTES_PER_USER + 1)
            ]
        }
    )
    sessions = [engine.start_session({"user": [(user,)]}) for user in users]
    renderer = PageRenderer(engine, cache_fragments=True)
    for session in sessions:
        renderer.render_session(session)
    rng = random.Random(11)
    next_seq = NOTES_PER_USER + 1
    posts = rebuilt = reused = 0
    stats = engine.maintenance_stats
    before = stats.as_dict()
    start = time.perf_counter()
    for request in range(REQUESTS):
        session = sessions[rng.randrange(SESSIONS)]
        if request % POST_EVERY == 0:
            (poster,) = engine.find_instances(aunit_name="GetRow", session_id=session)
            result = engine.perform(poster.instance_id, [next_seq, f"post {next_seq}"])
            next_seq += 1
            posts += 1
            rebuilt += result.instances_rebuilt
            reused += result.instances_reused
        else:
            renderer.render_session(session)
    elapsed = time.perf_counter() - start
    after = stats.as_dict()
    return {
        "elapsed_ms": elapsed * 1000,
        "requests_per_sec": REQUESTS / elapsed,
        "posts": posts,
        "sessions_adopted_per_post": (after["results_unchanged"] - before["results_unchanged"])
        / posts,
        "instances_rebuilt_per_post": rebuilt / posts,
        "instances_reused_per_post": reused / posts,
        "bailouts": after["bailouts"] - before["bailouts"],
        "delta_rows": after["delta_rows"] - before["delta_rows"],
        "fragment_hit_rate": renderer.stats.as_dict().get("hit_rate"),
    }


def test_bench_board_posts_adopt_unchanged_sessions(benchmark):
    program = build_program(SOURCE)
    incremental = _run(program, "incremental")
    recompute = _run(program, "recompute")
    benchmark.pedantic(lambda: _run(program, "incremental"), rounds=1, iterations=1)

    speedup = incremental["requests_per_sec"] / recompute["requests_per_sec"]
    print_series(
        f"Maintained input queries — Board, {SESSIONS} sessions, eager, "
        f"1 post in {POST_EVERY}, {REQUESTS} requests",
        [
            (
                name,
                f"{run['requests_per_sec']:.0f} req/s",
                f"{run['sessions_adopted_per_post']:.1f}",
                f"{run['instances_rebuilt_per_post']:.1f}",
                run["bailouts"],
            )
            for name, run in (("incremental", incremental), ("recompute", recompute))
        ]
        + [("speedup", f"{speedup:.1f}x", "", "", "")],
        ["variant", "throughput", "adopted/post", "rebuilt/post", "bailouts"],
    )
    write_bench_json(
        "opt_input_ivm",
        {
            "sessions": SESSIONS,
            "requests": REQUESTS,
            "incremental": incremental,
            "recompute": recompute,
            "speedup_vs_recompute": speedup,
        },
    )

    # Every post adopts all sessions but the poster's, without bailing out.
    assert incremental["sessions_adopted_per_post"] == SESSIONS - 1
    assert incremental["bailouts"] == 0
    assert recompute["sessions_adopted_per_post"] == 0
    assert speedup >= MIN_SPEEDUP, (
        f"incremental input maintenance only {speedup:.2f}x over recompute "
        f"(need {MIN_SPEEDUP}x)"
    )
