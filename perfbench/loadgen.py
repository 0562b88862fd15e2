"""The load generator: two keep-alive ``http.client`` connections on two threads.

Each session is pinned to one connection, the way a browser keeps its
connection, so a session's requests are strictly ordered; that order is what
matches a client request to its server-side ``HildaApplication.handle`` span.
An action posts the form of the last page its session received, so the
client never acts on a stale page.

Every response is checked: a request fails on a transport error, a timeout,
a status other than 200, a page without the program's title, any
conflict or error banner, an action without the success banner, or (on a
workload without actions) a page that differs from the session's first one.
"""

from __future__ import annotations

import http.client
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from workloads import Planned, Workload, connection_of

#: Seconds a request may take before it counts as failed (timed out).
REQUEST_TIMEOUT = 30.0
#: Seconds a phase may overrun its schedule before the run is abandoned.
PHASE_GRACE = 60.0

_INSTANCE_ID = re.compile(rb'name="instance_id" value="(\d+)"')
_SET_COOKIE = re.compile(r"hilda_session=([^;]+)")
_BAD_BANNERS = (b"hilda-banner hilda-conflict", b"hilda-banner hilda-error")
_SUCCESS = b"hilda-banner hilda-success"


@dataclass
class Session:
    """A logged-in browser: its cookie, last page and acknowledged actions."""

    user: str
    next_no: int
    token: str = ""
    first_page: bytes = b""
    page: bytes = b""
    #: Requests sent with this session's cookie (ordinal of the next one).
    sent: int = 0
    #: Field values of every acknowledged action, in order.
    acked: List[Tuple[int, str]] = field(default_factory=list)


@dataclass
class Record:
    """One request as the client saw it (times from ``time.perf_counter``)."""

    phase: str
    kind: str
    session: int
    ordinal: int
    due: float
    send: float
    done: float
    ok: bool
    size: int
    error: str = ""


class Connection:
    """One keep-alive HTTP/1.1 connection; reopened after a transport error."""

    def __init__(self, port: int) -> None:
        self._http = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)

    def send(
        self, method: str, path: str, token: str = "", body: Optional[str] = None
    ) -> Tuple[int, str, bytes]:
        headers = {}
        if token:
            headers["Cookie"] = f"hilda_session={token}"
        if body is not None:
            headers["Content-Type"] = "application/x-www-form-urlencoded"
        try:
            self._http.request(method, path, body=body, headers=headers)
            response = self._http.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self._http.close()
            raise
        return response.status, response.getheader("Set-Cookie") or "", payload

    def close(self) -> None:
        self._http.close()


def action_fields(workload: Workload, session: Session, planned: Planned) -> Tuple[int, str]:
    """The GetRow output values an action posts (c1, c2)."""
    if workload.name == "orders-append":
        return planned.arg, str(session.next_no)
    return session.next_no, f"{session.user} post {session.next_no}"


class LoadGenerator:
    """Drives one server through set-up and the open- and closed-loop phases."""

    def __init__(self, workload: Workload, port: int, next_numbers: dict) -> None:
        self.workload = workload
        self.sessions = [Session(user, next_numbers[user]) for user in workload.users]
        self.connections = [Connection(port), Connection(port)]
        self.records: List[Record] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        for connection in self.connections:
            connection.close()

    # -- one request -------------------------------------------------------------

    def request(self, phase: str, kind: str, index: int, due: float, planned: Optional[Planned] = None) -> Record:
        session = self.sessions[index]
        connection = self.connections[connection_of(index)]
        ordinal = session.sent
        session.sent += 1
        body = None
        values: Tuple[int, str] = (0, "")
        if kind == "action":
            match = _INSTANCE_ID.search(session.page)
            values = action_fields(self.workload, session, planned)
            body = urllib.parse.urlencode(
                {"instance_id": match.group(1).decode() if match else "", "c1": values[0], "c2": values[1]}
            )
        send = time.perf_counter()
        error = ""
        size = 0
        try:
            status, _, page = connection.send(
                "POST" if kind == "action" else "GET",
                "/action" if kind == "action" else "/",
                session.token,
                body,
            )
            size = len(page)
            error = self._check(session, kind, status, page)
        except (OSError, http.client.HTTPException) as exc:
            error = f"transport: {exc!r}"
        done = time.perf_counter()
        if not error:
            session.page = page
            if kind == "action":
                session.acked.append(values)
                session.next_no += 1
        record = Record(phase, kind, index, ordinal, due, send, done, not error, size, error)
        with self._lock:
            self.records.append(record)
        return record

    def _check(self, session: Session, kind: str, status: int, page: bytes) -> str:
        if status != 200:
            return f"HTTP {status}"
        if f"<title>Hilda - {self.workload.root}</title>".encode() not in page:
            return "page without the program's title"
        if any(banner in page for banner in _BAD_BANNERS):
            return "conflict or error banner"
        if kind == "action" and _SUCCESS not in page:
            return "action without the success banner"
        if self.workload.action_share == 0 and session.first_page and page != session.first_page:
            return "page differs from the session's first page"
        return ""

    # -- phases ------------------------------------------------------------------

    def _on_both(self, target: Callable[[int], None]) -> None:
        errors: List[BaseException] = []

        def run(connection: int) -> None:
            try:
                target(connection)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(c,)) for c in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def _mine(self, connection: int) -> List[int]:
        return [i for i in range(len(self.sessions)) if connection_of(i) == connection]

    def login_all(self) -> None:
        """Log every session in and load its first page, on its connection."""

        def login(connection: int) -> None:
            for index in self._mine(connection):
                session = self.sessions[index]
                user = urllib.parse.quote(session.user)
                status, cookie, _ = self.connections[connection].send("GET", f"/login?user={user}")
                match = _SET_COOKIE.search(cookie)
                if status != 302 or match is None:
                    raise RuntimeError(f"login of {session.user!r} failed: HTTP {status}")
                session.token = match.group(1)
                now = time.perf_counter()
                record = self.request("setup", "page", index, now)
                if not record.ok:
                    raise RuntimeError(f"first page of {session.user!r} failed: {record.error}")
                session.first_page = session.page

        self._on_both(login)

    def open_loop(self, plan: Sequence[Planned], start: float) -> None:
        """Send each planned request at its due time (or as soon as the
        connection is free, when it is late)."""

        def drive(connection: int) -> None:
            for planned in plan:
                if connection_of(planned.session) != connection:
                    continue
                due = start + planned.offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.request("open", planned.kind, planned.session, due, planned)
                if time.perf_counter() > due + PHASE_GRACE:
                    raise RuntimeError("open loop overran its schedule")

        self._on_both(drive)

    def closed_loop(self, plan: Sequence[Planned], start: float, seconds: float) -> None:
        """Replay each connection's share of the plan with no think time,
        from the beginning again if it runs out, until ``seconds`` pass."""
        end = start + seconds

        def drive(connection: int) -> None:
            mine = [p for p in plan if connection_of(p.session) == connection]
            position = 0
            while time.perf_counter() < end:
                planned = mine[position % len(mine)]
                position += 1
                self.request("closed", planned.kind, planned.session, time.perf_counter(), planned)

        self._on_both(drive)

    def refetch_all(self) -> None:
        """Load every session's page once more (the final check's input)."""

        def fetch(connection: int) -> None:
            for index in self._mine(connection):
                self.request("final", "page", index, time.perf_counter())

        self._on_both(fetch)
