"""Typed configs: validation, precedence, and type checks at every consumer."""

from __future__ import annotations

import pytest

from repro.api import (
    CacheConfig,
    ConfigError,
    EngineConfig,
    ServerConfig,
    SessionConfig,
    build_app,
)
from repro.runtime.engine import HildaEngine
from repro.sql.executor import SQLExecutor
from repro.web.container import HildaApplication
from repro.web.server import ThreadedHildaServer, serve


@pytest.fixture
def guestbook_program(guestbook_source):
    from repro.hilda.program import load_program

    return load_program(guestbook_source)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        EngineConfig()
        CacheConfig()
        SessionConfig()
        ServerConfig()

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: EngineConfig(reactivation="sometimes"),
            lambda: EngineConfig(optimize="yes"),
            lambda: EngineConfig(cache="nope"),
            lambda: CacheConfig(activation_cache_size=0),
            lambda: CacheConfig(fragment_cache_size=-3),
            lambda: CacheConfig(fragments="on"),
            lambda: SessionConfig(ttl=-1),
            lambda: SessionConfig(max_sessions=0),
            lambda: ServerConfig(port=70000),
            lambda: ServerConfig(host=""),
            lambda: ServerConfig(request_queue_size=0),
        ],
    )
    def test_invalid_values_raise_config_error(self, factory):
        with pytest.raises(ConfigError):
            factory()

    def test_config_error_is_still_a_value_error(self):
        # Pre-existing callers caught ValueError for bad constructor args.
        with pytest.raises(ValueError):
            EngineConfig(reactivation="sometimes")

    def test_engine_exposes_its_config(self, guestbook_program):
        config = EngineConfig(auto_index=True, cache=CacheConfig(activation_queries=True))
        engine = HildaEngine(guestbook_program, config=config)
        assert engine.config is config
        assert engine.auto_index and engine.cache_activation_queries


    def test_engine_and_executor_reject_bad_config_types(
        self, guestbook_program, sample_db
    ):
        with pytest.raises(ConfigError, match="HildaEngine"):
            HildaEngine(guestbook_program, config=CacheConfig())
        with pytest.raises(ConfigError, match="SQLExecutor"):
            SQLExecutor(sample_db, config="fast please")


class TestEngineConfigFields:
    @pytest.mark.parametrize("config,attribute,value", [
        pytest.param(EngineConfig(optimize=False), "optimize", False, id="optimize"),
        pytest.param(EngineConfig(auto_index=True), "auto_index", True, id="auto_index"),
        pytest.param(
            EngineConfig(compile_expressions=False), "compile_expressions", False,
            id="compile_expressions",
        ),
        pytest.param(
            EngineConfig(reactivation="lazy"), "reactivation", "lazy", id="reactivation"
        ),
        pytest.param(
            EngineConfig(cache=CacheConfig(activation_queries=True)),
            "cache_activation_queries", True, id="activation_queries",
        ),
        pytest.param(
            EngineConfig(cache=CacheConfig(dependency_tracking=False)),
            "dependency_tracking", False, id="dependency_tracking",
        ),
        pytest.param(
            EngineConfig(cache=CacheConfig(delta_reactivation=False)),
            "delta_reactivation", False, id="delta_reactivation",
        ),
        pytest.param(
            EngineConfig(cache=CacheConfig(activation_cache_size=17)),
            "activation_cache_size", 17, id="activation_cache_size",
        ),
    ])
    def test_each_field_takes_effect(self, guestbook_program, config, attribute, value):
        engine = HildaEngine(guestbook_program, config=config)
        assert getattr(engine, attribute) == value

    def test_record_history_off_drops_the_history(self, guestbook_program):
        engine = HildaEngine(guestbook_program, config=EngineConfig(record_history=False))
        assert engine.history is None


class TestSQLExecutorConfig:
    def test_config_object_takes_effect(self, sample_db):
        executor = SQLExecutor(sample_db, config=EngineConfig(optimize=False))
        assert not executor.optimize

    @pytest.mark.parametrize("field,value", [
        ("optimize", False),
        ("auto_index", True),
        ("compile_expressions", False),
    ])
    def test_each_field_takes_effect(self, sample_db, field, value):
        executor = SQLExecutor(sample_db, config=EngineConfig(**{field: value}))
        assert getattr(executor, field) == value


class TestRemovedKwargs:
    """The pre-config kwargs are gone: each is Python's own TypeError."""

    def test_engine(self, guestbook_program):
        with pytest.raises(TypeError, match="frobnicate"):
            HildaEngine(guestbook_program, frobnicate=True)
        with pytest.raises(TypeError, match="optimize"):
            HildaEngine(guestbook_program, optimize=False)

    def test_sql_executor(self, sample_db):
        with pytest.raises(TypeError, match="auto_index"):
            SQLExecutor(sample_db, auto_index=True)

    def test_application(self, guestbook_program):
        with pytest.raises(TypeError, match="cache_fragments"):
            HildaApplication(guestbook_program, cache_fragments=False)

    def test_server(self, guestbook_program):
        application = build_app(guestbook_program)
        with pytest.raises(TypeError, match="verbose"):
            ThreadedHildaServer(application, verbose=True)

    def test_old_positional_server_signature(self, guestbook_program):
        application = build_app(guestbook_program)
        with pytest.raises(TypeError):
            ThreadedHildaServer(application, "127.0.0.1", 0, True)

    def test_serve(self, guestbook_program):
        # Raised at the call, before any socket is bound.
        application = build_app(guestbook_program)
        with pytest.raises(TypeError, match="port"):
            serve(application, port=0)


class TestContainerConfigs:
    def test_server_defaults_turn_caches_on(self, guestbook_program):
        application = HildaApplication(guestbook_program)
        assert application.cache_config.activation_queries
        assert application.cache_config.fragments
        assert application.engine.cache_activation_queries
        assert application.renderer.cache_fragments

    def test_explicit_cache_config_wins(self, guestbook_program):
        application = HildaApplication(
            guestbook_program, cache=CacheConfig(fragments=False)
        )
        assert not application.renderer.cache_fragments
        assert not application.engine.cache_activation_queries

    def test_engine_config_without_cache_keeps_server_defaults(
        self, guestbook_program
    ):
        # Migrating optimize/auto_index/... onto EngineConfig must not
        # silently disable the server caching policy.
        application = HildaApplication(
            guestbook_program, config=EngineConfig(auto_index=True)
        )
        assert application.engine.auto_index
        assert application.engine.cache_activation_queries
        assert application.renderer.cache_fragments

    def test_engine_config_with_explicit_cache_is_honoured(self, guestbook_program):
        config = EngineConfig(cache=CacheConfig(activation_queries=True))
        application = HildaApplication(guestbook_program, config=config)
        assert application.engine.cache_activation_queries
        assert not application.renderer.cache_fragments

    @pytest.mark.parametrize("kwargs,read,value", [
        pytest.param(
            {"cache": CacheConfig(fragments=False)},
            lambda app: app.renderer.cache_fragments, False, id="fragments",
        ),
        pytest.param(
            {"sessions": SessionConfig(ttl=12.5)},
            lambda app: app.sessions.ttl, 12.5, id="session_ttl",
        ),
        pytest.param(
            {"sessions": SessionConfig(max_sessions=3)},
            lambda app: app.sessions.max_sessions, 3, id="max_sessions",
        ),
        pytest.param(
            {"cache": CacheConfig(fragment_cache_size=7)},
            lambda app: app.renderer.fragment_cache_size, 7, id="fragment_cache_size",
        ),
        pytest.param(
            {"cache": CacheConfig(activation_cache_size=9)},
            lambda app: app.engine.activation_cache_size, 9,
            id="activation_cache_size",
        ),
        pytest.param(
            {"config": EngineConfig(reactivation="lazy")},
            lambda app: app.engine.reactivation, "lazy", id="reactivation",
        ),
    ])
    def test_each_field_takes_effect(self, guestbook_program, kwargs, read, value):
        application = HildaApplication(guestbook_program, **kwargs)
        assert read(application) == value

    def test_session_config_threads_through(self, guestbook_program):
        application = HildaApplication(
            guestbook_program, sessions=SessionConfig(ttl=5.0, max_sessions=2)
        )
        assert application.sessions.ttl == 5.0
        assert application.sessions.max_sessions == 2

    def test_bad_config_types_rejected(self, guestbook_program):
        with pytest.raises(ConfigError):
            HildaApplication(guestbook_program, config="fast please")
        with pytest.raises(ConfigError):
            HildaApplication(guestbook_program, cache=EngineConfig())


class TestServerConfig:
    def test_config_object_binds(self, guestbook_program):
        application = build_app(guestbook_program)
        server = ThreadedHildaServer(application, config=ServerConfig(port=0))
        try:
            assert server.config.request_queue_size == 128
            assert server.address[0] == "127.0.0.1"
        finally:
            server._httpd.server_close()

    def test_verbose_binds_through_the_config(self, guestbook_program):
        application = build_app(guestbook_program)
        server = ThreadedHildaServer(
            application, config=ServerConfig(port=0, verbose=True)
        )
        try:
            assert server.config.verbose
        finally:
            server._httpd.server_close()

    def test_bad_config_rejected(self, guestbook_program):
        application = build_app(guestbook_program)
        with pytest.raises(ConfigError):
            ThreadedHildaServer(application, config=8080)
