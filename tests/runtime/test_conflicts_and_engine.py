"""Tests for conflict detection (Figures 9-11), sessions, history and
concurrency strategies."""

from __future__ import annotations

import pytest

from repro.apps.minicms import (
    ADMIN_USER,
    STUDENT1_USER,
    STUDENT2_USER,
    load_minicms,
    seed_paper_scenario,
)
from repro.config import EngineConfig
from repro.runtime.concurrency import (
    OPTIMISTIC,
    PESSIMISTIC,
    TRIGGER_BASED,
    ConcurrencySimulator,
    Intent,
)
from repro.runtime.engine import HildaEngine
from repro.runtime.history import HistoryChecker
from repro.runtime.operations import OperationStatus


@pytest.fixture
def two_students(minicms_engine):
    engine = minicms_engine
    session1 = engine.start_session({"user": [(STUDENT1_USER,)]})
    session2 = engine.start_session({"user": [(STUDENT2_USER,)]})
    return engine, session1, session2


def withdraw_instance(engine, session):
    return engine.find_instances("SelectRow", session_id=session, activator="ActWithdrawInv")[0]


def accept_instance(engine, session):
    return engine.find_instances("SelectRow", session_id=session, activator="ActAcceptInv")[0]


class TestConflictDetection:
    def test_withdraw_then_stale_accept_is_rejected(self, two_students):
        engine, session1, session2 = two_students
        withdraw = withdraw_instance(engine, session1)
        accept = accept_instance(engine, session2)

        assert engine.perform(withdraw.instance_id).accepted
        assert engine.persistent_table("invitation").rows == []

        result = engine.perform(accept.instance_id)
        assert result.status == OperationStatus.CONFLICT
        assert "no longer active" in result.message
        # The database is untouched by the rejected action.
        assert len(engine.persistent_table("groupmember")) == 1

    def test_accept_then_stale_withdraw_is_rejected(self, two_students):
        engine, session1, session2 = two_students
        withdraw = withdraw_instance(engine, session1)
        accept = accept_instance(engine, session2)

        assert engine.perform(accept.instance_id).accepted
        # s2 joined the group.
        members = engine.persistent_table("groupmember").rows
        assert {row[2] for row in members} == {1, 2}

        result = engine.perform(withdraw.instance_id)
        assert result.status == OperationStatus.CONFLICT
        assert {row[2] for row in engine.persistent_table("groupmember").rows} == {1, 2}

    def test_decline_also_conflicts_after_withdraw(self, two_students):
        engine, session1, session2 = two_students
        decline = engine.find_instances(
            "SelectRow", session_id=session2, activator="ActDeclineInv"
        )[0]
        engine.perform(withdraw_instance(engine, session1).instance_id)
        assert engine.perform(decline.instance_id).status == OperationStatus.CONFLICT

    def test_unknown_instance_id_is_a_conflict(self, two_students):
        engine, _, _ = two_students
        result = engine.perform(999999)
        assert result.status == OperationStatus.CONFLICT

    def test_accept_instance_disappears_from_forest_after_withdraw(self, two_students):
        engine, session1, session2 = two_students
        accept = accept_instance(engine, session2)
        engine.perform(withdraw_instance(engine, session1).instance_id)
        assert engine.instance(accept.instance_id) is None
        assert engine.find_instances(
            "SelectRow", session_id=session2, activator="ActAcceptInv"
        ) == []

    def test_placing_a_new_invitation_reactivates_the_branch(self, two_students):
        engine, session1, session2 = two_students
        engine.perform(withdraw_instance(engine, session1).instance_id)
        # s1 invites s2 again through the ActPlaceInv dialogue.
        student10 = [
            node
            for node in engine.find_instances("Student", session_id=session1)
            if node.activation_tuple == (10,)
        ][0]
        place = student10.find_children("SelectRow", activator="ActPlaceInv")[0]
        target = [row for row in place.input_tables["input"].rows if row[1] == STUDENT2_USER][0]
        assert engine.perform(place.instance_id, list(target)).accepted
        # s2 now has an accept instance again.
        assert engine.find_instances(
            "SelectRow", session_id=session2, activator="ActAcceptInv"
        )


class TestLazyReactivation:
    def test_lazy_mode_defers_other_sessions(self, minicms_program):
        engine = HildaEngine(minicms_program, config=EngineConfig(reactivation="lazy"))
        seed_paper_scenario(engine)
        session1 = engine.start_session({"user": [(STUDENT1_USER,)]})
        session2 = engine.start_session({"user": [(STUDENT2_USER,)]})
        stale_accept = accept_instance(engine, session2)

        engine.perform(withdraw_instance(engine, session1).instance_id)
        # Session 2 has not been rebuilt yet: the stale instance is still indexed.
        assert engine.forest.instance_by_id(stale_accept.instance_id) is not None
        # But acting on it still conflicts because the session is refreshed first.
        assert engine.perform(stale_accept.instance_id).status == OperationStatus.CONFLICT

    def test_lazy_and_eager_reach_the_same_state(self, minicms_program):
        outcomes = {}
        for mode in ("eager", "lazy"):
            engine = HildaEngine(minicms_program, config=EngineConfig(reactivation=mode))
            seed_paper_scenario(engine)
            session1 = engine.start_session({"user": [(STUDENT1_USER,)]})
            session2 = engine.start_session({"user": [(STUDENT2_USER,)]})
            engine.perform(accept_instance(engine, session2).instance_id)
            outcomes[mode] = sorted(
                tuple(row) for row in engine.persistent_table("groupmember").rows
            )
        assert outcomes["eager"] == outcomes["lazy"]

    def test_invalid_mode_rejected(self, minicms_program):
        with pytest.raises(ValueError):
            HildaEngine(minicms_program, config=EngineConfig(reactivation="sometimes"))


class TestEngineHistory:
    def test_history_records_every_operation(self, two_students):
        engine, session1, session2 = two_students
        engine.perform(withdraw_instance(engine, session1).instance_id)
        engine.perform(99999)  # conflict
        assert len(engine.history) == 2
        assert len(engine.history.applied()) == 1
        assert len(engine.history.conflicts()) == 1

    def test_history_checker_accepts_engine_histories(self, two_students):
        engine, session1, session2 = two_students
        accept = accept_instance(engine, session2)
        engine.perform(withdraw_instance(engine, session1).instance_id)
        engine.perform(accept.instance_id)
        checker = HistoryChecker(engine.history)
        assert checker.check(), checker.explain()

    def test_history_checker_flags_fabricated_violation(self, two_students):
        engine, session1, _ = two_students
        engine.perform(withdraw_instance(engine, session1).instance_id)
        entry = engine.history.entries[0]
        entry.active_ids_before.discard(entry.operation.instance_id)
        checker = HistoryChecker(engine.history)
        assert not checker.check()
        assert "was applied" in checker.explain()

    def test_history_can_be_disabled(self, minicms_program):
        engine = HildaEngine(minicms_program, config=EngineConfig(record_history=False))
        seed_paper_scenario(engine)
        session = engine.start_session({"user": [(ADMIN_USER,)]})
        assert engine.history is None


class TestConcurrencyStrategies:
    def _intents(self, engine, session1, session2):
        return [
            Intent(
                user="s1",
                instance_id=withdraw_instance(engine, session1).instance_id,
                view_time=0.0,
                act_time=1.0,
            ),
            Intent(
                user="s2",
                instance_id=accept_instance(engine, session2).instance_id,
                view_time=0.0,
                act_time=2.0,
            ),
        ]

    def test_optimistic_detects_the_conflict_late(self, two_students):
        engine, session1, session2 = two_students
        simulator = ConcurrencySimulator(engine)
        result = simulator.run(self._intents(engine, session1, session2), OPTIMISTIC)
        assert result.applied == 1 and result.conflicts == 1
        assert result.wasted_work == 1

    def test_pessimistic_refuses_up_front(self, two_students):
        engine, session1, session2 = two_students
        simulator = ConcurrencySimulator(engine)
        intents = self._intents(engine, session1, session2)
        # Both intents target different instances, so locking by instance does
        # not block across users here; extend the scenario so both users try
        # the same accept instance to observe blocking.
        accept = accept_instance(engine, session2)
        contended = [
            Intent(user="s2", instance_id=accept.instance_id, view_time=0.0, act_time=1.0),
            Intent(user="impostor", instance_id=accept.instance_id, view_time=0.5, act_time=2.0),
        ]
        result = simulator.run(contended, PESSIMISTIC)
        assert result.applied == 1
        assert result.refused_up_front == 1

    def test_trigger_based_invalidates_after_state_change(self, two_students):
        engine, session1, session2 = two_students
        simulator = ConcurrencySimulator(engine)
        result = simulator.run(self._intents(engine, session1, session2), TRIGGER_BASED)
        assert result.applied == 1
        # The accept was refused without a round trip (it was invalidated).
        assert result.refused_up_front == 1
        assert result.conflicts == 0

    def test_all_strategies_preserve_database_consistency(self, minicms_program):
        final_states = {}
        for strategy in (OPTIMISTIC, PESSIMISTIC, TRIGGER_BASED):
            engine = HildaEngine(minicms_program)
            seed_paper_scenario(engine)
            session1 = engine.start_session({"user": [(STUDENT1_USER,)]})
            session2 = engine.start_session({"user": [(STUDENT2_USER,)]})
            simulator = ConcurrencySimulator(engine)
            simulator.run(
                [
                    Intent(
                        user="s1",
                        instance_id=withdraw_instance(engine, session1).instance_id,
                        view_time=0.0,
                        act_time=1.0,
                    ),
                    Intent(
                        user="s2",
                        instance_id=accept_instance(engine, session2).instance_id,
                        view_time=0.0,
                        act_time=2.0,
                    ),
                ],
                strategy,
            )
            final_states[strategy] = len(engine.persistent_table("invitation"))
        # Under every strategy the invitation is gone exactly once and the
        # conflicting accept never took effect.
        assert set(final_states.values()) == {0}
