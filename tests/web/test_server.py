"""Tests for the threaded HTTP front end (:mod:`repro.web.server`).

Everything here goes over real sockets on 127.0.0.1: request translation,
cookie handling, redirects, and — the point of the subsystem — concurrent
requests from different browsers interleaving safely, with conflicting
actions resolved first-committer-wins and attributed deterministically.
"""

from __future__ import annotations

import socket
import socketserver
import threading

import pytest

from repro.apps.minicms import (
    ADMIN_USER,
    STUDENT1_USER,
    STUDENT2_USER,
    seed_paper_scenario,
)
from repro.web.container import HildaApplication
from repro.web.forms import encode_action
from repro.web.server import MAX_BODY_BYTES, HttpBrowser, ThreadedHildaServer
from repro.web.sessions import SESSION_COOKIE


@pytest.fixture
def application(minicms_program):
    application = HildaApplication(minicms_program)
    seed_paper_scenario(application.engine)
    return application


@pytest.fixture
def server(application):
    with ThreadedHildaServer(application) as live:
        yield live


class TestHttpRoundTrip:
    def test_login_sets_cookie_and_serves_page(self, server):
        browser = HttpBrowser(server.url)
        page = browser.login(ADMIN_USER)
        assert page.ok
        assert SESSION_COOKIE in browser.cookies
        assert "Homework 1" in page.body

    def test_page_without_cookie_redirects_to_login(self, server):
        browser = HttpBrowser(server.url)
        response = browser.get("/", follow_redirects=False)
        assert response.is_redirect and response.location == "/login"

    def test_unknown_route_is_404(self, server):
        browser = HttpBrowser(server.url)
        assert browser.get("/nope").status == 404

    def test_post_action_round_trip(self, server, application):
        browser = HttpBrowser(server.url)
        browser.login(ADMIN_USER)
        engine = application.engine
        create = engine.find_instances("CreateAssignment")[0]
        update = create.find_children("UpdateRow")[0]
        page = browser.post(
            "/action", encode_action(update, ["HW99", "2006-04-01", "2006-04-02"])
        )
        assert "Action applied" in page.body
        assert "HW99" in page.body

    def test_logout_closes_engine_session(self, server, application):
        browser = HttpBrowser(server.url)
        browser.login(ADMIN_USER)
        assert application.engine.session_ids()
        browser.logout()
        assert application.engine.session_ids() == []

    def test_server_url_reports_bound_port(self, application):
        server = ThreadedHildaServer(application)
        host, port = server.address
        assert host == "127.0.0.1" and port > 0
        assert server.url == f"http://127.0.0.1:{port}"
        server.shutdown()  # never started: must be a no-op


class TestResponseWrites:
    def test_200_response_reaches_the_socket_in_one_write(self, server, monkeypatch):
        # A head sent apart from its body makes Nagle hold the body back
        # until the client's delayed ACK (about 40 ms per response).
        browser = HttpBrowser(server.url)
        assert browser.login(ADMIN_USER).ok
        writes = []
        original = socketserver._SocketWriter.write

        def recording(self, data):
            writes.append(bytes(data))
            return original(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", recording)
        page = browser.get("/")
        assert page.status == 200
        assert len(writes) == 1
        assert writes[0].startswith(b"HTTP/1.1 200 ")
        assert writes[0].endswith(page.body.encode("utf-8"))


class TestConcurrentServing:
    def test_parallel_page_loads_from_many_browsers(self, server):
        n = 6
        bodies = [None] * n
        errors = []

        def load(index):
            try:
                browser = HttpBrowser(server.url)
                assert browser.login(f"viewer{index}").ok
                bodies[index] = browser.get("/").body
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=load, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert all(body and "<html>" in body for body in bodies)

    def test_concurrent_conflicting_actions_first_committer_wins(
        self, server, application
    ):
        """The paper's withdraw/accept race, fired simultaneously over HTTP."""
        engine = application.engine
        s1 = HttpBrowser(server.url)
        s2 = HttpBrowser(server.url)
        s1.login(STUDENT1_USER)
        s2.login(STUDENT2_USER)
        withdraw = engine.find_instances("SelectRow", activator="ActWithdrawInv")[0]
        accept = engine.find_instances("SelectRow", activator="ActAcceptInv")[0]

        barrier = threading.Barrier(2)
        pages = {}

        def act(name, browser, instance):
            params = encode_action(instance)
            barrier.wait()
            pages[name] = browser.post("/action", params).body

        threads = [
            threading.Thread(target=act, args=("withdraw", s1, withdraw)),
            threading.Thread(target=act, args=("accept", s2, accept)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        applied = [name for name, body in pages.items() if "Action applied" in body]
        conflicted = [
            name for name, body in pages.items() if "could not be performed" in body
        ]
        assert len(applied) == 1 and len(conflicted) == 1
        # Deterministic attribution: the loser's banner names the winning op.
        assert "invalidated by operation #" in pages[conflicted[0]]
        # Whoever won, the database is consistent: the invitation is spent.
        assert len(engine.persistent_table("invitation")) == 0
        members = {row[2] for row in engine.persistent_table("groupmember").rows}
        assert members in ({1}, {1, 2})
        # Exactly one of the two outcomes happened, not a blend.
        if applied == ["withdraw"]:
            assert members == {1}
        else:
            assert members == {1, 2}


class TestShutdownWithKeepAlive:
    """Shutdown must be deterministic even with idle keep-alive browsers
    parked on open connections (their reader threads block in recv())."""

    def test_shutdown_closes_parked_keepalive_connections(self, application):
        import http.client
        import time

        server = ThreadedHildaServer(application).start()
        host, port = server.address
        # One served request over a keep-alive connection, then leave the
        # socket open so the server-side handler thread parks in recv().
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        conn.request("GET", "/login?user=sysadmin")
        response = conn.getresponse()
        response.read()
        assert response.status in (200, 302)

        started = time.monotonic()
        server.shutdown()
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, f"shutdown stalled {elapsed:.1f}s on a parked reader"

        # The parked client sees the connection close (EOF), not a timeout.
        conn.sock.settimeout(5.0)
        assert conn.sock.recv(1) == b""
        conn.close()

    def test_shutdown_is_idempotent_after_keepalive_close(self, application):
        server = ThreadedHildaServer(application).start()
        browser = HttpBrowser(server.url)
        assert browser.login(ADMIN_USER).ok
        server.shutdown()
        server.shutdown()  # second call must be a clean no-op


def _exchange(server, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh connection that the client never closes, and
    return everything the server writes before it closes its side."""
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _post(length: str, body: bytes = b"") -> bytes:
    head = (
        "POST /action HTTP/1.1\r\n"
        "Host: test\r\n"
        "Content-Type: application/x-www-form-urlencoded\r\n"
        f"Content-Length: {length}\r\n\r\n"
    )
    return head.encode("ascii") + body


class TestMalformedRequestBodies:
    """A malformed POST gets one error response and a closed connection:
    no parked handler thread, no dropped socket, and no second request
    parsed out of its body."""

    #: A request smuggled into the body; answering it would be a 404.
    SMUGGLED = b"GET /nope HTTP/1.1\r\nHost: test\r\n\r\n"

    @pytest.mark.parametrize("length", ["-1", "-5", "abc", "", "+3", "1_0"])
    def test_bad_content_length_is_400_and_closes(self, server, length):
        reply = _exchange(server, _post(length, self.SMUGGLED))
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_body_over_the_cap_is_413_without_reading_it(self, server):
        reply = _exchange(server, _post(str(MAX_BODY_BYTES + 1)))
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in reply

    def test_undecodable_body_is_400_without_a_traceback(self, server, capsys):
        reply = _exchange(server, _post("2", b"\xff\xfe"))
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert "Traceback" not in capsys.readouterr().err
        # The server keeps serving well-formed requests.
        assert HttpBrowser(server.url).login(ADMIN_USER).ok
