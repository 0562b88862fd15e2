"""Error-unification sweep: the public API raises ``repro.errors`` types.

Every failure produced by a ``repro.api`` entry point must be a
:class:`~repro.errors.ReproError` subclass that names what went wrong —
never a bare ``ValueError``/``KeyError``/``TypeError`` leaking from the
internals.  (``ConfigError`` deliberately *subclasses* ``ValueError`` for
backwards compatibility, but its concrete type is still a ReproError.)
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.errors import ReproError


def _cases(guestbook_source):
    program = api.build_program(guestbook_source)
    built_app = api.build_app(program)
    duplicate = api.AppBuilder()
    duplicate.aunit("A")

    return [
        # facade inputs
        ("build_program(int)", lambda: api.build_program(42)),
        ("build_program(bad source)", lambda: api.build_program("not hilda at all")),
        ("build_program(empty source)", lambda: api.build_program("")),
        (
            "build_program(unknown root)",
            lambda: api.build_program(guestbook_source, root="Nope"),
        ),
        (
            "build_program(re-root resolved)",
            lambda: api.build_program(program, root="Guestbook"),
        ),
        ("build_app(int)", lambda: api.build_app(42)),
        (
            "serve(app, build options)",
            lambda: api.serve(built_app, root="Guestbook"),
        ),
        # builder DSL misuse
        ("table without columns", lambda: api.table("t")),
        ("table bad column spec", lambda: api.table("t", "no_type")),
        ("duplicate AUnit", lambda: duplicate.aunit("A")),
        ("bad child ref", lambda: api.child_ref("ShowRow(string")),
        ("bad SQL in query()", lambda: api.query("SELEKT oops")),
        ("bad SQL in handler action",
         lambda: api.handler("H").do("t", "SELEKT oops")),
        ("aunit named like a Basic AUnit", lambda: api.aunit("GetRow")),
        (
            "invalid program from builder",
            lambda: api.AppBuilder().add(_root_with_output()).build(),
        ),
        # typed configs
        ("EngineConfig bad mode", lambda: api.EngineConfig(reactivation="warp")),
        ("CacheConfig bad size", lambda: api.CacheConfig(activation_cache_size=-1)),
        ("SessionConfig bad ttl", lambda: api.SessionConfig(ttl=0)),
        ("ServerConfig bad port", lambda: api.ServerConfig(port=-2)),
    ]


def _root_with_output():
    # The validator must reject this (a root AUnit cannot have output).
    unit = api.aunit("Root", root=True)
    unit.output(api.table("out", x="int"))
    return unit


def test_every_failure_is_a_named_repro_error(guestbook_source):
    failures = []
    for label, action in _cases(guestbook_source):
        try:
            action()
        except ReproError as exc:
            if type(exc) in (ValueError, KeyError, TypeError):  # pragma: no cover
                failures.append(f"{label}: bare {type(exc).__name__}")
            if not str(exc):
                failures.append(f"{label}: empty message")
        except Exception as exc:  # noqa: BLE001 - the sweep's whole point
            failures.append(f"{label}: leaked {type(exc).__name__}: {exc}")
        else:
            failures.append(f"{label}: did not raise")
    assert not failures, "\n".join(failures)


def test_builder_errors_name_the_offender():
    unit = api.aunit("Reporting")
    activator = unit.activator("ActDoIt", "SubmitBasic")
    with pytest.raises(ReproError, match="Reporting.ActDoIt.Oops"):
        activator.handler("Oops").do("t", "SELEKT nope")
