"""The benchmark's traffic mixes: programs, generated data and request schedules.

Nothing here imports the package under test, so the load generator stays a
plain HTTP client; the server process (``server.py``) turns the generated
data into engine state.

Every input is a function of the workload and the ``--seed``: the same seed
gives the same data and the same request schedule.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Zipf exponent of session popularity by rank.
ZIPF_S = 1.1

#: A benchmark-owned shop: every page shows the catalog, and the Buy
#: handler appends to ``purchase`` (which no page reads) with the
#: ``T :- SELECT ... FROM T UNION ALL ...`` idiom, so an action's cost is
#: dominated by rewriting a large table nobody looks at.
ORDERS_SOURCE = """
root aunit Shop {
    input schema { user(name:string) }
    persist schema {
        item(iid:int key, name:string, price:float)
        purchase(buyer:string, orderno:int, iid:int)
    }

    activator Catalog : ShowTable(int, string, float) {
        input query {
            ShowTable.input :-
                SELECT I.iid, I.name, I.price FROM item I ORDER BY I.iid
        }
    }

    activator Buy : GetRow(int, int) {
        handler Order {
            action {
                purchase :-
                    SELECT P.buyer, P.orderno, P.iid FROM purchase P
                    UNION ALL
                    SELECT U.name, O.c2, O.c1 FROM user U, GetRow.output O
            }
        }
    }
}
"""

#: The Board program of the cluster scaling benchmark: each session's page
#: lists its author's notes, so a post changes a table every page reads.
BOARD_SOURCE = """
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

ORDERS_ITEMS = 40
ORDERS_SEEDED_PURCHASES = 5000
BOARD_NOTES_PER_USER = 16


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``users`` are listed by popularity rank (rank 1 first); the session of
    rank ``r`` (0-based) is pinned to connection ``r % 2``.  ``rate`` is the
    open-loop arrival rate in requests per second, fixed once;
    ``perfbench/README.md`` gives it as a share of the closed-loop capacity
    measured on a 2-core machine.
    """

    name: str
    why: str
    root: str
    users: Tuple[str, ...]
    action_share: float
    rate: float


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="cms-browse",
            why=(
                "warm reads of large MiniCMS pages: the edge, the container and "
                "the renderer's cache-hit path do all the work; no writes"
            ),
            root="CMSRoot",
            users=tuple(f"stu{k}" for k in range(1, 51)) + ("alice",),
            action_share=0.0,
            rate=250.0,
        ),
        Workload(
            name="orders-append",
            why=(
                "appends to a 5,000-row table no page reads: the write path "
                "and the WAL, while reactivation adopts every unchanged subtree"
            ),
            root="Shop",
            users=tuple(f"buyer{k:02d}" for k in range(16)),
            action_share=0.5,
            rate=12.0,
        ),
        Workload(
            name="board-fanout",
            why=(
                "posts to a table every page reads: each action rebuilds all "
                "64 session trees and the next pages miss the fragment cache"
            ),
            root="Board",
            users=tuple(f"user{k:02d}" for k in range(64)),
            action_share=0.2,
            rate=7.0,
        ),
    )
}


# ---------------------------------------------------------------------------
# Generated data
# ---------------------------------------------------------------------------


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def orders_data(seed: int) -> Dict[str, List[tuple]]:
    """The shop's catalog and its seeded purchases (``buyer, orderno, iid``).

    Order numbers run 1, 2, ... per buyer, so an order the benchmark places
    is identified by its buyer and number.
    """
    rng = random.Random(f"orders-data-{seed}")
    users = WORKLOADS["orders-append"].users
    items = [
        (iid, f"item {iid} {_word(rng, 8)}", rng.randrange(100, 10000) / 100)
        for iid in range(1, ORDERS_ITEMS + 1)
    ]
    next_no = {user: 1 for user in users}
    purchases = []
    for _ in range(ORDERS_SEEDED_PURCHASES):
        buyer = rng.choice(users)
        purchases.append((buyer, next_no[buyer], rng.randrange(1, ORDERS_ITEMS + 1)))
        next_no[buyer] += 1
    return {"item": items, "purchase": purchases}


def board_data(seed: int) -> Dict[str, List[tuple]]:
    """Sixteen notes (``author, seq, text``) per Board user."""
    rng = random.Random(f"board-data-{seed}")
    notes = [
        (user, seq, f"{user} note {seq} {_word(rng, 10)}")
        for user in WORKLOADS["board-fanout"].users
        for seq in range(1, BOARD_NOTES_PER_USER + 1)
    ]
    return {"note": notes}


def generated_data(name: str, seed: int) -> Dict[str, List[tuple]]:
    """The persistent rows the server seeds (MiniCMS uses its own fixture)."""
    if name == "orders-append":
        return orders_data(seed)
    if name == "board-fanout":
        return board_data(seed)
    return {}


def next_numbers(name: str, seed: int) -> Dict[str, int]:
    """Per-user next order/note number after the seeded rows."""
    data = generated_data(name, seed)
    numbers = {user: 1 for user in WORKLOADS[name].users}
    for rows in data.values():
        for row in rows:
            if isinstance(row[0], str) and row[0] in numbers:
                numbers[row[0]] = max(numbers[row[0]], row[1] + 1)
    return numbers


# ---------------------------------------------------------------------------
# Request schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Planned:
    """One scheduled request: due ``offset`` seconds after the phase starts."""

    offset: float
    session: int
    kind: str  # "page" or "action"
    arg: int  # the item ordered, for orders-append actions


#: Each connection deals kinds from its own shuffled blocks of this many
#: requests, each block holding exactly ``action_share`` of actions, so every
#: stretch of a connection's sequence (and so the closed loop, which replays
#: a prefix of it) has the workload's mix rather than a binomial draw.
KIND_BLOCK = 10


def schedule(workload: Workload, seed: int, seconds: float) -> List[Planned]:
    """Seeded Poisson arrivals over ``seconds``; sessions Zipf by rank."""
    rng = random.Random(f"schedule-{workload.name}-{seed}")
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(workload.users))]
    cumulative = list(itertools.accumulate(weights))
    sessions = range(len(workload.users))
    actions = round(KIND_BLOCK * workload.action_share)
    block = ["action"] * actions + ["page"] * (KIND_BLOCK - actions)
    decks: Tuple[List[str], List[str]] = ([], [])
    planned: List[Planned] = []
    offset = 0.0
    while True:
        offset += rng.expovariate(workload.rate)
        if offset >= seconds:
            return planned
        session = rng.choices(sessions, cum_weights=cumulative)[0]
        deck = decks[connection_of(session)]
        if not deck:
            deck.extend(rng.sample(block, KIND_BLOCK))
        planned.append(Planned(offset, session, deck.pop(), rng.randrange(1, ORDERS_ITEMS + 1)))


def connection_of(session: int) -> int:
    """Sessions alternate between the two connections by popularity rank."""
    return session % 2
