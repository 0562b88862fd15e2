"""Tests for incremental view maintenance (``repro.sql.delta``).

Covers the two halves separately and then together:

* :class:`DeltaLog` — version-chained coverage, replace classification
  (append / pure delete / barrier), the per-table row cap and the
  tracked-table LRU bound;
* :class:`DeltaProgram` — plan-shape classification, and the delta rules'
  contract that a patched result is **byte- and order-identical** to what
  re-running the plan would produce, across inserts, deletes, updates,
  scan- and index-ordered leaves, joins, and every designed bailout.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sql.delta import (
    DeltaLog,
    build_delta_program,
    classify_plan,
    describe_maintenance,
    per_child_reads,
)
from repro.sql.executor import SQLExecutor


def _db() -> Database:
    db = Database("delta")
    db.create_table(
        TableSchema(
            "item",
            [
                Column("id", DataType.INT),
                Column("grade", DataType.INT),
                Column("name", DataType.STRING),
            ],
            ["id"],
        )
    )
    db.create_table(
        TableSchema(
            "tag",
            [Column("grade", DataType.INT), Column("label", DataType.STRING)],
            ["grade"],
        )
    )
    db.insert_many("item", [(i, i % 3, f"n{i}") for i in range(12)])
    db.insert_many("tag", [(g, f"g{g}") for g in range(3)])
    return db


def _program(executor: SQLExecutor, query: str):
    ast = executor._parse_query(query)
    plan = executor._plan(ast)
    return ast, plan, build_delta_program(ast, plan, executor._plan_read_set(plan))


def _stamp(db: Database, program):
    return tuple(sorted((name, db.table(name).version) for name in program.tables))


class TestDeltaLog:
    def test_mutations_chain_and_cover_the_span(self):
        db = _db()
        table = db.table("item")
        log = DeltaLog()
        log.attach(table)
        since = table.version
        table.insert((100, 1, "new"))
        table.update_where(lambda r: r[0] == 100, lambda r: (r[0], 2, r[2]))
        table.delete_where(lambda r: r[0] == 100)
        records = log.deltas_for(table, since)
        assert records is not None and len(records) == 3
        assert records[0].inserted == ((100, 1, "new"),)
        assert records[1].changes == (((100, 1, "new"), (100, 2, "new")),)
        assert records[2].deleted == ((100, 2, "new"),)
        for earlier, later in zip(records, records[1:]):
            assert later.prev_version == earlier.version
        assert records[-1].version == table.version

    def test_current_version_needs_no_records(self):
        db = _db()
        log = DeltaLog()
        log.attach(db.table("item"))
        assert log.deltas_for(db.table("item"), db.table("item").version) == []

    def test_untracked_table_is_uncovered(self):
        db = _db()
        assert DeltaLog().deltas_for(db.table("item"), 0) is None

    def test_span_before_attach_is_uncovered(self):
        db = _db()
        table = db.table("item")
        before = table.version
        table.insert((200, 0, "pre-attach"))
        log = DeltaLog()
        log.attach(table)
        table.insert((201, 0, "post-attach"))
        assert log.deltas_for(table, before) is None
        assert log.deltas_for(table, table.version) == []

    def test_row_cap_narrows_the_window(self):
        db = _db()
        table = db.table("item")
        log = DeltaLog(max_rows_per_table=4)
        log.attach(table)
        oldest = table.version
        for i in range(10):
            table.insert((300 + i, 0, "bulk"))
        assert log.deltas_for(table, oldest) is None  # truncated away
        recent = table.version
        table.insert((399, 0, "tail"))
        covering = log.deltas_for(table, recent)
        assert covering is not None and len(covering) == 1

    def test_replace_append_is_an_insert_delta(self):
        db = _db()
        table = db.table("item")
        log = DeltaLog()
        log.attach(table)
        since = table.version
        table.replace(list(table.rows) + [(500, 1, "appended")])
        records = log.deltas_for(table, since)
        assert records is not None
        assert records[0].inserted == ((500, 1, "appended"),)
        assert records[0].deleted == ()

    def test_replace_subsequence_is_a_delete_delta(self):
        db = _db()
        table = db.table("item")
        log = DeltaLog()
        log.attach(table)
        since = table.version
        rows = list(table.rows)
        table.replace(rows[:3] + rows[5:])
        records = log.deltas_for(table, since)
        assert records is not None
        assert records[0].deleted == tuple(rows[3:5])

    def test_replace_reorder_is_a_barrier(self):
        db = _db()
        table = db.table("item")
        log = DeltaLog()
        log.attach(table)
        since = table.version
        table.replace(list(reversed(table.rows)))
        assert log.deltas_for(table, since) is None
        assert any(r.barrier for r in log.records_for(table))

    def test_replace_delete_with_surviving_duplicate_is_a_barrier(self):
        # old=[a, b, a] -> new=[a, b] matches the subsequence test, but the
        # deleted value 'a' survives: dropping all pairs sourced from 'a'
        # would be positionally wrong, so it must classify as a barrier.
        db = Database("dups")
        db.create_table(
            TableSchema("bag", [Column("v", DataType.INT)])
        )
        table = db.table("bag")
        table.insert((1,))
        table.insert((2,))
        table.insert((1,))
        log = DeltaLog()
        log.attach(table)
        since = table.version
        table.replace([(1,), (2,)])
        assert log.deltas_for(table, since) is None

    def test_tracked_table_lru_bound_detaches_hooks(self, monkeypatch):
        monkeypatch.setattr(DeltaLog, "MAX_TABLES", 2)
        log = DeltaLog()
        schema = TableSchema("t", [Column("v", DataType.INT)])
        from repro.relational.table import Table

        tables = [Table(schema) for _ in range(3)]
        for table in tables:
            log.attach(table)
        assert not log.tracks(tables[0])
        assert log.tracks(tables[1]) and log.tracks(tables[2])
        # The evicted table's hook is cleared: mutations are no-ops for the log.
        tables[0].insert((1,))
        assert log.records_for(tables[0]) == []


class TestClassification:
    def test_filter_project_scan_is_supported(self):
        executor = SQLExecutor(_db())
        _, plan, program = _program(executor, "SELECT name FROM item WHERE grade > 0")
        assert program is not None
        assert program.source == "item"
        assert not program.has_join
        ast = executor._parse_query("SELECT name FROM item WHERE grade > 0")
        assert describe_maintenance(
            ast, plan, executor._plan_read_set(plan)
        ) == "incremental (delta spine over item)"

    def test_inner_join_is_supported(self):
        executor = SQLExecutor(_db())
        _, _, program = _program(
            executor,
            "SELECT I.name, T.label FROM item I, tag T WHERE I.grade = T.grade",
        )
        assert program is not None and program.has_join

    @pytest.mark.parametrize(
        "extra, reason",
        [
            ("activationTuple", "reads activationTuple"),
            ("ShowTable.input", "reads per-child table ShowTable.input"),
        ],
    )
    def test_per_child_reads_keep_recomputing(self, extra, reason):
        # A Hilda input query over tables created afresh per child: the
        # plan has delta rules, but no stored entry could ever be patched.
        executor = SQLExecutor(_db())
        ast, plan, program = _program(executor, "SELECT name FROM item")
        assert program is not None
        tables = executor._plan_read_set(plan) | {extra}
        assert per_child_reads(tables) == reason
        assert describe_maintenance(ast, plan, tables) == f"recompute ({reason})"
        assert per_child_reads(frozenset({"item", "in.item", "out.item"})) is None

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT COUNT(*) FROM item",
            "SELECT grade FROM item GROUP BY grade",
            "SELECT name FROM item WHERE grade IN (SELECT grade FROM tag)",
            "SELECT A.name FROM item A, item B WHERE A.grade = B.grade",
            "SELECT name FROM item UNION SELECT label FROM tag",
        ],
    )
    def test_unsupported_shapes_classify_as_recompute(self, query):
        executor = SQLExecutor(_db())
        ast = executor._parse_query(query)
        plan = executor._plan(ast)
        program, reason = classify_plan(ast, plan, executor._plan_read_set(plan))
        assert program is None
        assert describe_maintenance(
            ast, plan, executor._plan_read_set(plan)
        ) == f"recompute ({reason})"


class _Harness:
    """Snapshot a query, mutate the table, patch, and diff vs recompute."""

    def __init__(self, query: str, db: Database | None = None) -> None:
        self.db = db or _db()
        self.executor = SQLExecutor(self.db)
        self.query = query
        self.ast, self.plan, self.program = _program(self.executor, query)
        assert self.program is not None, "harness needs a supported plan"
        self.log = DeltaLog()
        self.log.attach(self.db.table(self.program.source))
        rows = self.executor.execute_query(query).as_tuples()
        self.pairs = self.program.snapshot(self.executor._context(), rows)
        assert self.pairs is not None, "snapshot must verify against the plan"
        self.stamp = _stamp(self.db, self.program)

    def maintain(self):
        return self.program.maintain(
            self.pairs, self.stamp, self.executor._context(), self.log
        )

    def assert_patch_matches_recompute(self):
        result = self.maintain()
        assert result is not None, "expected a successful patch"
        new_pairs, new_stamp = result
        recomputed = self.executor.execute_query(self.query).as_tuples()
        assert [out for _, out in new_pairs] == list(recomputed)
        assert new_stamp == _stamp(self.db, self.program)


class TestPatchEquivalence:
    def test_insert_delete_update_on_filtered_scan(self):
        harness = _Harness("SELECT name, grade FROM item WHERE grade > 0")
        table = harness.db.table("item")
        table.insert((100, 2, "ins"))
        table.insert((101, 0, "filtered-out"))
        table.delete_where(lambda r: r[0] == 4)
        table.update_where(lambda r: r[0] == 7, lambda r: (r[0], r[1], "renamed"))
        harness.assert_patch_matches_recompute()

    def test_insert_and_delete_through_a_join(self):
        harness = _Harness(
            "SELECT I.name, T.label FROM item I, tag T WHERE I.grade = T.grade"
        )
        table = harness.db.table("item")
        table.insert((100, 1, "ins"))
        table.delete_where(lambda r: r[1] == 2)
        harness.assert_patch_matches_recompute()

    def test_replace_append_through_a_join(self):
        harness = _Harness(
            "SELECT I.name, T.label FROM item I, tag T WHERE I.grade = T.grade"
        )
        table = harness.db.table("item")
        table.replace(list(table.rows) + [(100, 1, "a"), (101, 2, "b")])
        harness.assert_patch_matches_recompute()

    def test_update_on_index_ordered_leaf_reappends(self):
        db = _db()
        db.table("item").create_index(["grade"])
        harness = _Harness("SELECT name FROM item WHERE grade = 1", db=db)
        assert "IndexScan" in harness.executor.explain(harness.query)
        table = db.table("item")
        table.update_where(lambda r: r[0] == 1, lambda r: (r[0], 1, "moved"))
        table.insert((100, 1, "ins"))
        harness.assert_patch_matches_recompute()

    def test_update_into_an_index_bucket(self):
        db = _db()
        db.table("item").create_index(["grade"])
        harness = _Harness("SELECT name FROM item WHERE grade = 1", db=db)
        table = db.table("item")
        # id=3 has grade 0 (outside the bucket); moving it in must append it
        # at the bucket's end, exactly where a fresh index scan puts it.
        table.update_where(lambda r: r[0] == 3, lambda r: (r[0], 1, r[2]))
        harness.assert_patch_matches_recompute()

    def test_noop_span_returns_none(self):
        harness = _Harness("SELECT name FROM item WHERE grade > 0")
        assert harness.maintain() is None  # nothing changed -> nothing to patch


class TestDesignedBailouts:
    def test_update_under_a_join_bails(self):
        harness = _Harness(
            "SELECT I.name, T.label FROM item I, tag T WHERE I.grade = T.grade"
        )
        harness.db.table("item").update_where(
            lambda r: r[0] == 1, lambda r: (r[0], r[1], "renamed")
        )
        assert harness.maintain() is None

    def test_update_admitting_a_filtered_row_bails_on_scan_order(self):
        # id=0 has grade 0: absent from the cached result.  Updating it to
        # grade 2 admits it, but its position among the survivors is unknown
        # without the base table order -- the designed bailout boundary.
        harness = _Harness("SELECT name FROM item WHERE grade > 0")
        harness.db.table("item").update_where(
            lambda r: r[0] == 0, lambda r: (r[0], 2, r[2])
        )
        assert harness.maintain() is None

    def test_non_source_change_bails(self):
        harness = _Harness(
            "SELECT I.name, T.label FROM item I, tag T WHERE I.grade = T.grade"
        )
        harness.db.table("item").insert((100, 1, "ins"))
        harness.db.table("tag").insert((9, "g9"))
        assert harness.maintain() is None

    def test_cost_bound_bails_on_bulk_inserts(self):
        harness = _Harness("SELECT name FROM item WHERE grade > 0")
        table = harness.db.table("item")
        for i in range(500):
            table.insert((1000 + i, 1, "bulk"))
        assert harness.maintain() is None

    def test_barrier_replace_bails(self):
        harness = _Harness("SELECT name FROM item WHERE grade > 0")
        table = harness.db.table("item")
        table.replace(list(reversed(table.rows)))
        assert harness.maintain() is None

    def test_snapshot_rejects_rows_it_cannot_reproduce(self):
        executor = SQLExecutor(_db())
        _, _, program = _program(executor, "SELECT name FROM item WHERE grade > 0")
        wrong = [("not-a-real-row",)]
        assert program.snapshot(executor._context(), wrong) is None


class TestSortedPrograms:
    """``[Project] Sort spine`` plans: the rows *and* their order must match."""

    def test_sort_is_classified_incremental(self):
        executor = SQLExecutor(_db())
        query = "SELECT name FROM item WHERE grade > 0 ORDER BY name"
        ast, plan, program = _program(executor, query)
        assert program is not None and program.sort is not None
        assert describe_maintenance(
            ast, plan, executor._plan_read_set(plan)
        ) == "incremental (delta spine over item under a sort)"

    def test_limit_over_a_sort_classifies_as_recompute(self):
        executor = SQLExecutor(_db())
        ast, plan, program = _program(executor, "SELECT name FROM item ORDER BY name LIMIT 3")
        assert program is None
        assert classify_plan(ast, plan, executor._plan_read_set(plan))[1] == "LimitOp"

    def test_empty_propagated_output_keeps_rows_and_order(self):
        harness = _Harness(
            "SELECT I.name, T.label FROM item I, tag T "
            "WHERE I.grade = T.grade AND T.label = 'g1' ORDER BY I.name DESC"
        )
        table = harness.db.table("item")
        table.insert((100, 2, "no-match"))
        table.insert_many([(101, 0, "a"), (102, 2, "b")])
        table.delete_where(lambda r: r[0] == 3)  # grade 0: never in the result
        new_pairs, new_stamp = harness.maintain()
        assert new_pairs == harness.pairs
        assert new_stamp == _stamp(harness.db, harness.program) != harness.stamp
        harness.assert_patch_matches_recompute()

    def test_insert_ties_land_after_equal_keys(self):
        harness = _Harness("SELECT id, name FROM item ORDER BY grade")
        table = harness.db.table("item")
        table.insert((100, 1, "tie"))
        table.insert_many([(101, 0, "first-bucket"), (102, 1, "tie-2")])
        harness.assert_patch_matches_recompute()

    def test_descending_multi_key_sort(self):
        harness = _Harness("SELECT id, name FROM item ORDER BY grade DESC, name")
        table = harness.db.table("item")
        table.insert_many([(100, 2, "a"), (101, 1, "zz"), (102, 0, "n5")])
        harness.assert_patch_matches_recompute()

    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_null_sort_keys(self, direction):
        db = _db()
        db.table("item").insert((50, None, "null-before"))
        harness = _Harness(f"SELECT id FROM item ORDER BY grade {direction}", db=db)
        table = db.table("item")
        table.insert_many([(100, None, "null"), (101, 1, "one"), (102, None, "null-2")])
        harness.assert_patch_matches_recompute()

    def test_delete_keeps_the_survivors_order(self):
        harness = _Harness(
            "SELECT I.name, T.label FROM item I, tag T "
            "WHERE I.grade = T.grade ORDER BY T.label DESC"
        )
        table = harness.db.table("item")
        table.delete_where(lambda r: r[1] == 1)
        table.insert((100, 1, "back"))
        table.delete_where(lambda r: r[0] == 4)
        harness.assert_patch_matches_recompute()

    def test_update_outside_the_result_is_absorbed(self):
        harness = _Harness("SELECT name FROM item WHERE grade > 0 ORDER BY name")
        harness.db.table("item").update_where(
            lambda r: r[0] == 0, lambda r: (r[0], 0, "still-filtered")
        )
        harness.assert_patch_matches_recompute()


class TestSortedBailouts:
    def test_update_of_a_result_row_bails(self):
        harness = _Harness("SELECT name FROM item WHERE grade > 0 ORDER BY name")
        harness.db.table("item").update_where(
            lambda r: r[0] == 1, lambda r: (r[0], r[1], "renamed")
        )
        assert harness.maintain() is None

    def test_update_admitting_a_row_bails(self):
        harness = _Harness("SELECT name FROM item WHERE grade > 0 ORDER BY name")
        harness.db.table("item").update_where(
            lambda r: r[0] == 0, lambda r: (r[0], 2, r[2])
        )
        assert harness.maintain() is None

    def test_insert_on_an_index_ordered_leaf_bails(self):
        db = _db()
        db.table("item").create_index(["grade"])
        harness = _Harness("SELECT name FROM item WHERE grade = 1 ORDER BY name", db=db)
        assert "IndexScan" in harness.executor.explain(harness.query)
        db.table("item").insert((100, 1, "in-bucket"))
        assert harness.maintain() is None

    def test_index_ordered_leaf_absorbs_an_insert_outside_its_bucket(self):
        db = _db()
        db.table("item").create_index(["grade"])
        harness = _Harness("SELECT name FROM item WHERE grade = 1 ORDER BY name", db=db)
        db.table("item").insert((100, 2, "other-bucket"))
        harness.assert_patch_matches_recompute()

    def test_incomparable_sort_keys_bail(self):
        harness = _Harness(
            "SELECT id FROM item WHERE grade > 0 "
            "ORDER BY CASE WHEN grade = 9 THEN name ELSE id END"
        )
        harness.db.table("item").insert((100, 9, "text-key"))
        assert harness.maintain() is None

    @pytest.mark.parametrize(
        "second_key",
        [
            "CASE WHEN grade = 9 THEN name ELSE id END",
            # The nearest placed row has a NULL second key: the check looks past it.
            "CASE WHEN grade = 9 THEN name WHEN id = 11 THEN NULL ELSE id END",
        ],
    )
    def test_incomparable_later_sort_key_bails(self, second_key):
        # The first key alone places the row (grade 9 sorts last), but
        # SortOp's pass over the second key would compare text with ints.
        query = f"SELECT id FROM item WHERE grade > 0 ORDER BY grade, {second_key}"
        harness = _Harness(query)
        harness.db.table("item").insert((100, 9, "text-key"))
        assert harness.maintain() is None
        with pytest.raises((TypeError, ReproError)):
            harness.executor.execute_query(query)

    def test_comparable_later_sort_key_is_placed(self):
        harness = _Harness(
            "SELECT id FROM item WHERE grade > 0 "
            "ORDER BY grade, CASE WHEN id = 11 THEN NULL ELSE id END DESC"
        )
        harness.db.table("item").insert((100, 9, "text-key"))
        harness.db.table("item").insert((101, 2, "mid"))
        harness.assert_patch_matches_recompute()
