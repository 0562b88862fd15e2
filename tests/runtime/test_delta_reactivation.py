"""Tests for dependency-tracked caching and delta reactivation.

The scenario throughout: MiniCMS with an admin session (reads course /
staff / assign / problem) and student sessions (additionally read group /
groupmember / invitation).  A student's invitation action writes only the
invitation-side tables, so the admin session's whole tree is dependency-
clean and must be reused, while the stale student instances still conflict.
"""

from __future__ import annotations

import datetime
from dataclasses import replace

import pytest

from repro.apps.minicms import (
    ADMIN_USER,
    STUDENT1_USER,
    STUDENT2_USER,
    load_minicms,
    seed_paper_scenario,
)
from repro.config import CacheConfig, EngineConfig
from repro.presentation.renderer import PageRenderer
from repro.runtime.engine import HildaEngine
from repro.runtime.operations import OperationStatus

#: The engine with its activation-query cache on.
CACHED = EngineConfig(cache=CacheConfig(activation_queries=True))


@pytest.fixture
def engine(minicms_program):
    engine = HildaEngine(minicms_program, config=CACHED)
    seed_paper_scenario(engine)
    return engine


def _sessions(engine):
    admin = engine.start_session({"user": [(ADMIN_USER,)]})
    s1 = engine.start_session({"user": [(STUDENT1_USER,)]})
    s2 = engine.start_session({"user": [(STUDENT2_USER,)]})
    return admin, s1, s2


def _withdraw(engine, session):
    instance = engine.find_instances(
        "SelectRow", session_id=session, activator="ActWithdrawInv"
    )[0]
    return engine.perform(instance.instance_id)


class TestDeltaReactivation:
    def test_disjoint_write_reuses_untouched_session_tree(self, engine):
        admin, s1, _ = _sessions(engine)
        before = engine.find_instances("CourseAdmin", session_id=admin)
        result = _withdraw(engine, s1)
        assert result.status == OperationStatus.APPLIED
        assert result.instances_reused > 0
        after = engine.find_instances("CourseAdmin", session_id=admin)
        # The admin subtrees were adopted wholesale: same objects, same ids.
        assert [node.instance_id for node in after] == [
            node.instance_id for node in before
        ]
        assert [id(node) for node in after] == [id(node) for node in before]

    def test_conflict_detection_survives_reuse(self, engine):
        _, s1, s2 = _sessions(engine)
        accept = engine.find_instances(
            "SelectRow", session_id=s2, activator="ActAcceptInv"
        )[0]
        assert _withdraw(engine, s1).status == OperationStatus.APPLIED
        result = engine.perform(accept.instance_id)
        assert result.status == OperationStatus.CONFLICT
        assert result.conflict_with is not None

    def test_affected_write_rebuilds_dependent_subtree(self, engine):
        admin, _, _ = _sessions(engine)
        create = engine.find_instances("CreateAssignment", session_id=admin)[0]
        update = create.find_children("UpdateRow")[0]
        # Submitting the assignment writes the persist assign/problem tables,
        # which the admin's own subtree reads: it must be rebuilt, not reused.
        engine.perform(
            update.instance_id,
            ["HW9", datetime.date(2006, 4, 1), datetime.date(2006, 4, 20)],
        )
        submit = create.find_children("SubmitBasic")[0]
        result = engine.perform(submit.instance_id)
        assert result.status == OperationStatus.APPLIED
        names = {
            node.activation_tuple[1]
            for node in engine.find_instances("ShowRow", session_id=admin, activator="ActShowAssignment")
        }
        assert "HW9" in names

    def test_delta_disabled_rebuilds_everything(self, minicms_program):
        engine = HildaEngine(
            minicms_program, config=EngineConfig(cache=CacheConfig(delta_reactivation=False))
        )
        seed_paper_scenario(engine)
        _, s1, _ = _sessions(engine)
        result = _withdraw(engine, s1)
        assert result.status == OperationStatus.APPLIED
        assert result.instances_reused == 0
        assert result.instances_rebuilt > 0

    def test_failed_rebuild_leaves_installed_tree_untouched(self):
        # One activator is dependency-clean (adopted first), the next raises
        # during its re-run.  The rebuild must abort without mutating the
        # still-installed old tree — in particular the adopted subtree's
        # parent pointers must not leak into the abandoned new tree.
        from repro.errors import ActivationError
        from repro.hilda.program import load_program

        source = """
        root aunit R {
            input schema { user(name:string) }
            persist schema { left(lid:int key) right(rid:int key, denom:int) }
            activator ActLeft : ShowRow(int) {
                activation schema { a(lid:int) }
                activation query { SELECT L.lid FROM left L }
                input query { ShowRow.input :- SELECT activationTuple.lid }
            }
            activator ActRight : ShowRow(int) {
                activation schema { b(rid:int) }
                activation query {
                    SELECT R0.rid FROM right R0 WHERE (100 / R0.denom) > 0
                }
                input query { ShowRow.input :- SELECT activationTuple.rid }
            }
        }
        """
        engine = HildaEngine(load_program(source), config=CACHED)
        engine.seed_persistent({"left": [(1,)], "right": [(1, 1)]})
        session = engine.start_session({"user": [("u",)]})
        root = engine.session_tree(session)
        left_child = root.find_children(activator="ActLeft")[0]

        with pytest.raises(ActivationError):
            engine.seed_persistent({"right": [(2, 0)]})  # 100/0 on rebuild

        assert engine.session_tree(session) is root
        assert left_child.parent is root
        assert root.find_children(activator="ActLeft")[0] is left_child

    def test_lazy_mode_delta_refresh(self, minicms_program):
        engine = HildaEngine(minicms_program, config=replace(CACHED, reactivation="lazy"))
        seed_paper_scenario(engine)
        admin, s1, _ = _sessions(engine)
        before = [
            node.instance_id
            for node in engine.session_tree(admin).walk()
        ]
        _withdraw(engine, s1)
        # The admin session is stale; its deferred rebuild reuses the tree.
        reused_before = engine._builder.instances_reused
        after = [node.instance_id for node in engine.session_tree(admin).walk()]
        assert after == before
        assert engine._builder.instances_reused > reused_before


class TestActivationCache:
    def test_disjoint_write_keeps_entries_valid(self, engine):
        admin, s1, _ = _sessions(engine)
        stats = engine.activation_cache_stats
        stats.reset()
        _withdraw(engine, s1)
        engine.refresh(admin)  # forced rebuild: activation queries re-consulted
        assert stats.hits > 0

    def test_global_version_mode_invalidates_everything(self, minicms_program):
        engine = HildaEngine(
            minicms_program,
            config=EngineConfig(
                cache=CacheConfig(activation_queries=True, dependency_tracking=False)
            ),
        )
        seed_paper_scenario(engine)
        admin, s1, _ = _sessions(engine)
        stats = engine.activation_cache_stats
        stats.reset()
        _withdraw(engine, s1)
        # During the write's own reactivation every pre-write entry is stale:
        # stamped with an older state version, nothing can hit.
        assert stats.hits == 0
        assert stats.invalidations > 0

    def test_cache_is_lru_bounded(self, minicms_program):
        engine = HildaEngine(
            minicms_program,
            config=EngineConfig(
                cache=CacheConfig(activation_queries=True, activation_cache_size=4)
            ),
        )
        seed_paper_scenario(engine)
        _sessions(engine)
        assert len(engine._activation_cache) <= 4
        assert engine.activation_cache_stats.evictions > 0


class TestFragmentCache:
    def test_fragment_cache_is_lru_bounded(self, engine):
        admin, _, _ = _sessions(engine)
        renderer = PageRenderer(engine, cache_fragments=True, fragment_cache_size=5)
        renderer.render_session(admin)
        assert len(renderer._fragment_cache) <= 5
        assert renderer.stats.evictions > 0

    def test_disjoint_write_keeps_fragments_warm(self, engine):
        admin, s1, _ = _sessions(engine)
        renderer = PageRenderer(engine, cache_fragments=True)
        renderer.render_session(admin)
        _withdraw(engine, s1)
        renderer.stats.reset()
        renderer.render_session(admin)
        # The whole admin page comes from the cache: one hit at the root,
        # nothing re-rendered.
        assert renderer.stats.hits == 1
        assert renderer.stats.fragments_rendered == 0

    def test_dependent_write_re_renders(self, engine):
        admin, _, _ = _sessions(engine)
        renderer = PageRenderer(engine, cache_fragments=True)
        renderer.render_session(admin)
        create = engine.find_instances("CreateAssignment", session_id=admin)[0]
        update = create.find_children("UpdateRow")[0]
        engine.perform(
            update.instance_id,
            ["Fresh", datetime.date(2006, 4, 1), datetime.date(2006, 4, 2)],
        )
        html = renderer.render_session(admin)
        assert "Fresh" in html

    def test_punit_name_distinguishes_cached_fragments(self, engine):
        # Two renders of the same instance through different PUnit names must
        # not collide in the cache (the key includes the PUnit name).
        admin, _, _ = _sessions(engine)
        renderer = PageRenderer(engine, cache_fragments=True)
        instance = engine.find_instances("CourseAdmin", session_id=admin)[0]
        with_default = renderer.render_instance(instance)
        named = renderer.render_instance(instance, punit_name="nonexistent")
        assert with_default == named  # unknown name falls back to the default
        slots = {
            key for key in renderer._fragment_cache if key[0] == instance.instance_id
        }
        assert len(slots) == 2  # but occupies a distinct cache slot
