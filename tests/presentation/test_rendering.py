"""Tests for the HTML helpers, default Basic PUnits and the page renderer."""

from __future__ import annotations

import pytest

from repro.apps.minicms import ADMIN_USER, STUDENT1_USER
from repro.presentation.html import escape, render_form, render_table, tag
from repro.presentation.renderer import PageRenderer


class TestHtmlHelpers:
    def test_escape(self):
        assert escape('<b>&"') == "&lt;b&gt;&amp;&quot;"
        assert escape(None) == ""
        assert escape(50.0) == "50"

    def test_tag_with_attributes(self):
        assert tag("div", "hi", **{"class": "x"}) == '<div class="x">hi</div>'
        assert tag("input", type="text", name="c1") == '<input type="text" name="c1">'

    def test_render_table(self):
        html = render_table(["a", "b"], [(1, "x"), (2, None)])
        assert html.count("<tr>") == 3
        assert "<th>a</th>" in html and "<td>x</td>" in html

    def test_render_form_includes_hidden_instance(self):
        html = render_form("/action", "", instance_id=42)
        assert 'name="instance_id" value="42"' in html
        assert 'action="/action"' in html


class TestPageRenderer:
    def test_render_admin_page_contains_punit_structure(self, minicms_engine):
        session = minicms_engine.start_session({"user": [(ADMIN_USER,)]})
        html = PageRenderer(minicms_engine).render_session(session)
        assert "Courses you administer" in html  # from the ShowCMSRoot PUnit
        assert "Homework 1" in html  # ShowRow for the existing assignment
        assert 'name="instance_id"' in html  # actionable forms exist

    def test_student_page_lists_invitations(self, minicms_engine):
        session = minicms_engine.start_session({"user": [(STUDENT1_USER,)]})
        html = PageRenderer(minicms_engine).render_session(session)
        assert "Invitations you sent" in html
        assert "hilda-selectrow" in html

    def test_default_layout_used_without_punit(self, minicms_engine):
        # Render a CourseAdmin subtree directly: it has a PUnit; render one of
        # its Basic children to exercise the default Basic PUnits too.
        session = minicms_engine.start_session({"user": [(ADMIN_USER,)]})
        admin = minicms_engine.find_instances("CourseAdmin", session_id=session)[0]
        renderer = PageRenderer(minicms_engine)
        html = renderer.render_instance(admin)
        assert "Create an assignment" in html

    def test_update_row_form_is_prefilled(self, minicms_engine):
        session = minicms_engine.start_session({"user": [(ADMIN_USER,)]})
        create = minicms_engine.find_instances("CreateAssignment", session_id=session)[0]
        update = create.find_children("UpdateRow")[0]
        html = PageRenderer(minicms_engine).render_instance(update)
        assert 'name="c2"' in html and 'name="c3"' in html

    def test_fragment_cache_hits_when_state_unchanged(self, minicms_engine):
        session = minicms_engine.start_session({"user": [(ADMIN_USER,)]})
        renderer = PageRenderer(minicms_engine, cache_fragments=True)
        renderer.render_session(session)
        misses_first = renderer.stats.cache_misses
        renderer.render_session(session)
        assert renderer.stats.cache_hits > 0
        assert renderer.stats.cache_misses == misses_first

    def test_fragment_cache_invalidated_by_state_change(self, minicms_engine):
        session = minicms_engine.start_session({"user": [(ADMIN_USER,)]})
        renderer = PageRenderer(minicms_engine, cache_fragments=True)
        renderer.render_session(session)
        create = minicms_engine.find_instances("CreateAssignment", session_id=session)[0]
        update = create.find_children("UpdateRow")[0]
        import datetime

        minicms_engine.perform(
            update.instance_id, ["X", datetime.date(2006, 1, 1), datetime.date(2006, 1, 2)]
        )
        before_hits = renderer.stats.cache_hits
        html = renderer.render_session(session)
        assert "X" in html  # fresh content, not the cached fragment


POSTING_SOURCE = """
root aunit Wall {
    input schema { user(name:string) }
    persist schema { post(author:string, seq:int, text:string) }

    activator ActPosts : ShowTable(int, string) {
        input query {
            ShowTable.input :-
                SELECT P.seq, P.text FROM post P, user U
                WHERE P.author = U.name ORDER BY P.seq
        }
    }

    activator ActPost : GetRow(int, string) {
        handler Posted {
            action {
                post :-
                    SELECT P.author, P.seq, P.text FROM post P
                    UNION ALL
                    SELECT U.name, O.c1, O.c2 FROM user U, GetRow.output O
            }
        }
    }
}
"""


class TestFragmentCacheRetirement:
    """Entries follow live instances: a re-render replaces its instance's
    entry, and instances that leave the forest take theirs along."""

    @pytest.fixture
    def wall(self):
        from repro.api import build_program
        from repro.runtime.engine import HildaEngine

        engine = HildaEngine(build_program(POSTING_SOURCE))
        sessions = [engine.start_session({"user": [(name,)]}) for name in ("ann", "bob")]
        return engine, sessions, PageRenderer(engine, cache_fragments=True)

    @staticmethod
    def _live_pairs(engine, renderer):
        live = {node.instance_id for node in engine.forest.all_instances()}
        return {key for key in renderer._fragment_cache if key[0] in live}

    def test_cache_holds_only_live_instance_punit_pairs(self, wall):
        engine, sessions, renderer = wall
        for step in range(30):
            session = sessions[step % 2]
            box = engine.find_instances("GetRow", session_id=session)[0]
            assert engine.perform(box.instance_id, [step, f"post {step}"]).status == "applied"
            for each in sessions:
                renderer.render_session(each)
            assert set(renderer._fragment_cache) == self._live_pairs(engine, renderer)
        assert len(renderer._fragment_cache) <= len(list(engine.forest.all_instances()))

    def test_closing_a_session_retires_its_fragments(self, wall):
        engine, sessions, renderer = wall
        for session in sessions:
            renderer.render_session(session)
        closed = {node.instance_id for node in engine.session_tree(sessions[0]).walk()}
        engine.close_session(sessions[0])
        assert not any(key[0] in closed for key in renderer._fragment_cache)
        assert renderer._fragment_cache
