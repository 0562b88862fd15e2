"""Tests for web-session management: cookies, expiry, eviction, races.

Covers the thread-safe :class:`~repro.web.sessions.SessionManager` on its
own (fake clock, eviction callbacks) and wired into the container (cookie
round-trips over real handle() calls, TTL'd logins releasing their engine
sessions, concurrent login/logout storms leaving no debris).
"""

from __future__ import annotations

import threading

import pytest

from repro.apps.minicms import ADMIN_USER, seed_paper_scenario
from repro.config import SessionConfig
from repro.errors import SessionError
from repro.web.container import BrowserClient, HildaApplication
from repro.web.http import Request
from repro.web.sessions import SESSION_COOKIE, SessionManager


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestExpiry:
    def test_lookup_within_ttl_refreshes_idle_timer(self):
        clock = FakeClock()
        manager = SessionManager(ttl=10.0, clock=clock)
        session = manager.create("alice", "S1")
        clock.advance(8.0)
        assert manager.lookup(session.token) is not None  # resets idle time
        clock.advance(8.0)
        assert manager.lookup(session.token) is not None

    def test_idle_session_expires(self):
        clock = FakeClock()
        manager = SessionManager(ttl=10.0, clock=clock)
        session = manager.create("alice", "S1")
        clock.advance(10.5)
        assert manager.lookup(session.token) is None
        assert manager.active_count() == 0

    def test_expiry_reports_to_on_evict(self):
        clock = FakeClock()
        evicted = []
        manager = SessionManager(ttl=5.0, on_evict=evicted.append, clock=clock)
        manager.create("alice", "S1")
        clock.advance(6.0)
        manager.expire_idle()
        assert [session.user for session in evicted] == ["alice"]

    def test_create_sweeps_expired_sessions(self):
        clock = FakeClock()
        evicted = []
        manager = SessionManager(ttl=5.0, on_evict=evicted.append, clock=clock)
        manager.create("alice", "S1")
        clock.advance(6.0)
        manager.create("bob", "S2")
        assert [session.user for session in evicted] == ["alice"]
        assert manager.active_count() == 1

    def test_no_ttl_means_no_expiry(self):
        clock = FakeClock()
        manager = SessionManager(clock=clock)
        session = manager.create("alice", "S1")
        clock.advance(1e9)
        assert manager.lookup(session.token) is not None


class TestEviction:
    def test_lru_eviction_past_max_sessions(self):
        clock = FakeClock()
        evicted = []
        manager = SessionManager(max_sessions=2, on_evict=evicted.append, clock=clock)
        first = manager.create("u1", "S1")
        second = manager.create("u2", "S2")
        # Touch the first so the second becomes least recently used.
        clock.advance(1.0)
        manager.lookup(first.token)
        manager.create("u3", "S3")
        assert [session.token for session in evicted] == [second.token]
        assert manager.lookup(second.token) is None
        assert manager.lookup(first.token) is not None

    def test_on_evict_exception_does_not_break_create(self):
        def boom(session):
            raise RuntimeError("listener bug")

        manager = SessionManager(max_sessions=1, on_evict=boom)
        manager.create("u1", "S1")
        session = manager.create("u2", "S2")  # must not raise
        assert manager.lookup(session.token) is not None


class TestContainerSessionLifecycle:
    @pytest.fixture
    def clock(self):
        return FakeClock()

    @pytest.fixture
    def application(self, minicms_program, clock):
        application = HildaApplication(minicms_program, sessions=SessionConfig(ttl=30.0))
        application.sessions._clock = clock  # deterministic time for the test
        seed_paper_scenario(application.engine)
        return application

    def test_cookie_round_trip(self, application):
        browser = BrowserClient(application)
        browser.login(ADMIN_USER)
        token = browser.cookies[SESSION_COOKIE]
        session = application.sessions.lookup(token)
        assert session is not None and session.user == ADMIN_USER
        assert browser.get("/").ok  # the cookie re-identifies the session

    def test_expired_cookie_redirects_to_login_and_frees_engine(
        self, application, clock
    ):
        browser = BrowserClient(application)
        browser.login(ADMIN_USER)
        assert application.engine.session_ids()
        clock.advance(31.0)
        response = browser.get("/", follow_redirects=False)
        assert response.is_redirect and response.location == "/login"
        assert application.sessions.active_count() == 0
        assert application.engine.session_ids() == []

    def test_request_survives_engine_session_vanishing_mid_flight(self, application):
        """Eviction can close the engine session under a live request; the
        request must answer with a login redirect, not an exception."""
        browser = BrowserClient(application)
        browser.login(ADMIN_USER)
        token = browser.cookies[SESSION_COOKIE]
        session = application.sessions.lookup(token)
        # Simulate the race: the web session is still valid, but the engine
        # session has just been closed by an eviction on another thread.
        application.engine.close_session(session.engine_session_id)
        response = browser.get("/", follow_redirects=False)
        assert response.is_redirect and response.location == "/login"

    def test_eviction_closes_engine_session(self, minicms_program):
        application = HildaApplication(minicms_program, sessions=SessionConfig(max_sessions=1))
        seed_paper_scenario(application.engine)
        first = BrowserClient(application)
        second = BrowserClient(application)
        first.login(ADMIN_USER)
        evicted_engine_sessions = set(application.engine.session_ids())
        second.login(ADMIN_USER)
        # Only the second browser's engine session survives.
        assert application.sessions.active_count() == 1
        remaining = set(application.engine.session_ids())
        assert len(remaining) == 1
        assert not (remaining & evicted_engine_sessions)
        # The first browser is bounced back to login, not served a page.
        response = first.get("/", follow_redirects=False)
        assert response.is_redirect and response.location == "/login"


class TestConcurrentSessionRaces:
    N_THREADS = 12

    def test_concurrent_logins_create_distinct_sessions(self, minicms_program):
        application = HildaApplication(minicms_program)
        seed_paper_scenario(application.engine)
        browsers = [BrowserClient(application) for _ in range(self.N_THREADS)]
        errors = []

        def login(index):
            try:
                assert browsers[index].login(f"user{index}").ok
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=login, args=(i,)) for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        tokens = {browser.cookies[SESSION_COOKIE] for browser in browsers}
        assert len(tokens) == self.N_THREADS
        assert application.sessions.active_count() == self.N_THREADS
        assert len(application.engine.session_ids()) == self.N_THREADS

    def test_concurrent_login_logout_storm_leaves_no_debris(self, minicms_program):
        application = HildaApplication(minicms_program)
        seed_paper_scenario(application.engine)
        errors = []

        def churn(index):
            try:
                browser = BrowserClient(application)
                for _ in range(4):
                    assert browser.login(f"user{index}").ok
                    assert browser.get("/").ok
                    browser.get("/logout", follow_redirects=False)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i,)) for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert application.sessions.active_count() == 0
        assert application.engine.session_ids() == []

    def test_logout_of_unknown_token_is_harmless(self, minicms_program):
        application = HildaApplication(minicms_program)
        response = application.handle(
            Request.get("/logout", cookies={SESSION_COOKIE: "stale"})
        )
        assert response.is_redirect

    def test_require_raises_for_expired(self):
        clock = FakeClock()
        manager = SessionManager(ttl=1.0, clock=clock)
        session = manager.create("alice", "S1")
        clock.advance(2.0)
        with pytest.raises(SessionError):
            manager.require(session.token)
