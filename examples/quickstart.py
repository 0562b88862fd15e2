"""Quickstart: author a small Hilda application in Python, run it, serve it.

This example builds a tiny guestbook — a root AUnit with a persistent
table of entries, a GetRow to post a new entry, and a ShowTable to display
them — using the ``repro.api`` package, the recommended entry point:

1. the **builder DSL** authors the application in plain Python (the same
   AST the Hilda text parser produces — the equivalent Hilda source is
   shown at the bottom for comparison);
2. **typed configs** (`EngineConfig`, `ServerConfig`, ...) replace the
   keyword sprawl of earlier versions;
3. the **facade** (`build_app` / `serve`) turns any program description —
   builder or source text — into a served three-tier application.

Run with:  PYTHONPATH=src python examples/quickstart.py

To keep a server running for your own browser instead, replace the
`ThreadedHildaServer` block at the bottom with::

    from repro.api import ServerConfig, serve
    serve(app, ServerConfig(port=8080, verbose=True))

The full API reference is in docs/api.md.
"""

from __future__ import annotations

from repro.api import AppBuilder, EngineConfig, aunit, build_app, table
from repro.web import HttpBrowser, ThreadedHildaServer


def author_guestbook() -> AppBuilder:
    """The whole application — schema, logic, presentation — in Python."""
    guestbook = aunit("Guestbook", root=True)

    # Who is looking at the page (input), and the shared entries (persist).
    guestbook.input(table("user", name="string"))
    guestbook.persist(
        table("entry", eid="int key", author="string", message="string")
    )

    # Show all entries.
    guestbook.activator("ActShowEntries", "ShowTable(string, string)").input_query(
        "ShowTable.input", "SELECT E.author, E.message FROM entry E"
    )

    # Post a new entry (the message text).
    guestbook.activator("ActPostEntry", "GetRow(string)").handler("PostEntry").do(
        "entry",
        """
        SELECT E.eid, E.author, E.message FROM entry E
        UNION
        SELECT genkey(), U.name, O.c1 FROM user U, GetRow.output O
        """,
    )
    return AppBuilder("Guestbook").add(guestbook)


def main() -> None:
    # 1. Build the three-tier application straight from the builder: the
    #    facade resolves + validates the program and wires engine, page
    #    renderer and session manager together under the server defaults.
    #    The engine keeps its operation history only on request (step 6).
    app = build_app(author_guestbook(), engine_config=EngineConfig(record_history=True))
    engine = app.engine

    # 2. Two users connect; each gets a session (a root AUnit instance).
    alice = engine.start_session({"user": [("alice",)]})
    bob = engine.start_session({"user": [("bob",)]})
    print("Initial activation forest:")
    print(engine.render_forest())

    # 3. Alice posts an entry through her GetRow instance.
    post_box = engine.find_instances("GetRow", session_id=alice)[0]
    result = engine.perform(post_box.instance_id, ["Hello from Hilda!"])
    print("\nAlice posts an entry ->", result.status)

    # 4. Bob posts too; note that both sessions share the persistent table.
    post_box = engine.find_instances("GetRow", session_id=bob)[0]
    engine.perform(post_box.instance_id, ["Declarative web apps in one page."])

    entries = engine.persistent_table("entry").rows
    print("\nPersistent guestbook entries:")
    for eid, author, message in entries:
        print(f"  #{eid} {author}: {message}")

    # 5. Render Bob's page: the ShowTable instance reflects both entries.
    html = app.renderer.render_session(bob)
    print("\nBob's page contains both messages:",
          "Hello from Hilda!" in html and "Declarative web apps" in html)

    # 6. Conflict detection for free: if Bob keeps a stale handle to his
    #    GetRow instance and the engine state changes such that it disappears,
    #    the action would be rejected.  Here we simply show the happy path.
    print("\nEngine processed", len(engine.history), "operations;",
          len(engine.history.conflicts()), "conflicts")

    # 7. The same application served over HTTP: start the threaded server on
    #    an ephemeral port and let two browsers hit it over real sockets.
    with ThreadedHildaServer(app) as server:
        print(f"\nServing the guestbook on {server.url}")
        carol = HttpBrowser(server.url)
        dave = HttpBrowser(server.url)
        carol.login("carol")
        dave.login("dave")
        page = carol.get("/")
        print("Carol is served her page over HTTP:", page.ok)
        print("Sessions live on the server:", app.sessions.active_count())
    print("Server shut down cleanly.")

    # 8. Builder-authored and text-authored programs are interchangeable:
    #    the same guestbook as Hilda source loads into an equivalent app.
    from repro.api import build_program

    parsed = build_program(GUESTBOOK_SOURCE)
    print("\nSame program from Hilda source:", parsed)


#: The Hilda-source twin of :func:`author_guestbook` — both front ends
#: produce the same AST (see tests/api/test_roundtrip_minicms.py for the
#: byte-identical guarantee on the full MiniCMS).
GUESTBOOK_SOURCE = """
root aunit Guestbook {
    input schema { user(name:string) }
    persist schema { entry(eid:int key, author:string, message:string) }

    activator ActShowEntries : ShowTable(string, string) {
        input query {
            ShowTable.input :- SELECT E.author, E.message FROM entry E
        }
    }

    activator ActPostEntry : GetRow(string) {
        handler PostEntry {
            action {
                entry :-
                    SELECT E.eid, E.author, E.message FROM entry E
                    UNION
                    SELECT genkey(), U.name, O.c1 FROM user U, GetRow.output O
            }
        }
    }
}
"""


if __name__ == "__main__":
    main()
