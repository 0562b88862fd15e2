"""Planner selection of IndexScan / index-nested-loop join access paths."""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sql.executor import SQLExecutor


def _db(course_index: bool = False) -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "course",
            [Column("cid", DataType.INT), Column("cname", DataType.STRING)],
            ["cid"],
            indexes=[("cid",)] if course_index else (),
        )
    )
    db.create_table(
        TableSchema(
            "student",
            [
                Column("sid", DataType.INT),
                Column("cid", DataType.INT),
                Column("sname", DataType.STRING),
            ],
        )
    )
    db.insert_many("course", [(cid, f"c{cid}") for cid in range(20)])
    db.insert_many("student", [(sid, sid % 20, f"s{sid}") for sid in range(100)])
    return db


class TestIndexScanSelection:
    def test_declared_index_is_used_without_auto_index(self):
        executor = SQLExecutor(_db(course_index=True))
        plan = executor.explain("SELECT cname FROM course WHERE cid = 7")
        assert "IndexScan" in plan
        assert executor.query_rows("SELECT cname FROM course WHERE cid = 7") == [("c7",)]
        assert executor.stats.index_lookups == 1
        assert executor.stats.index_hits == 1

    def test_no_index_no_auto_index_keeps_full_scan(self):
        plan = SQLExecutor(_db()).explain("SELECT cname FROM course WHERE cid = 7")
        assert "IndexScan" not in plan
        assert "Scan(course)" in plan

    def test_auto_index_builds_index_on_first_execution(self):
        db = _db()
        executor = SQLExecutor(db, config=EngineConfig(auto_index=True))
        assert "IndexScan" in executor.explain("SELECT sname FROM student WHERE sid = 5")
        assert executor.query_rows("SELECT sname FROM student WHERE sid = 5") == [("s5",)]
        assert db.table("student").has_index(("sid",))

    def test_unoptimized_executor_never_index_scans(self):
        plan = SQLExecutor(
            _db(course_index=True), config=EngineConfig(optimize=False)
        ).explain(
            "SELECT cname FROM course WHERE cid = 7"
        )
        assert "IndexScan" not in plan

    def test_index_scan_agrees_with_full_scan(self):
        query = "SELECT sid, sname FROM student WHERE cid = 3"
        indexed = SQLExecutor(_db(), config=EngineConfig(auto_index=True)).query_rows(query)
        scanned = SQLExecutor(_db(), config=EngineConfig(optimize=False)).query_rows(query)
        assert sorted(indexed) == sorted(scanned)

    def test_multi_column_equality_uses_one_composite_index(self):
        db = _db()
        executor = SQLExecutor(db, config=EngineConfig(auto_index=True))
        query = "SELECT sname FROM student WHERE cid = 3 AND sid = 3"
        assert "IndexScan" in executor.explain(query)
        assert executor.query_rows(query) == [("s3",)]
        assert db.table("student").has_index(("sid", "cid"))

    def test_numeric_string_literal_probes_int_column(self):
        # The interpreter coerces '7' = 7; the index probe must reach the
        # same rows.
        query = "SELECT cname FROM course WHERE cid = '7'"
        indexed = SQLExecutor(_db(course_index=True)).query_rows(query)
        scanned = SQLExecutor(_db(), config=EngineConfig(optimize=False)).query_rows(query)
        assert indexed == scanned == [("c7",)]

    def test_index_maintained_across_dml(self):
        db = _db(course_index=True)
        executor = SQLExecutor(db)
        assert executor.query_rows("SELECT cname FROM course WHERE cid = 7") == [("c7",)]
        executor.execute("UPDATE course SET cname = 'renamed' WHERE cid = 7")
        assert executor.query_rows("SELECT cname FROM course WHERE cid = 7") == [("renamed",)]
        executor.execute("DELETE FROM course WHERE cid = 7")
        assert executor.query_rows("SELECT cname FROM course WHERE cid = 7") == []
        executor.execute("INSERT INTO course VALUES (7, 'back')")
        assert executor.query_rows("SELECT cname FROM course WHERE cid = 7") == [("back",)]


class TestIndexJoinSelection:
    QUERY = "SELECT C.cname, S.sname FROM course C, student S WHERE C.cid = S.cid"

    def test_auto_index_selects_index_nested_loop_join(self):
        executor = SQLExecutor(_db(), config=EngineConfig(auto_index=True))
        assert "IndexNestedLoopJoin" in executor.explain(self.QUERY)

    def test_without_indexes_hash_join_is_kept(self):
        executor = SQLExecutor(_db())
        plan = executor.explain(self.QUERY)
        assert "HashJoin" in plan
        assert "IndexNestedLoopJoin" not in plan

    def test_index_join_agrees_with_hash_and_nested_loop(self):
        indexed = SQLExecutor(_db(), config=EngineConfig(auto_index=True)).query_rows(self.QUERY)
        hashed = SQLExecutor(_db()).query_rows(self.QUERY)
        naive = SQLExecutor(_db(), config=EngineConfig(optimize=False)).query_rows(self.QUERY)
        assert sorted(indexed) == sorted(hashed) == sorted(naive)

    def test_explicit_join_on_uses_index(self):
        query = "SELECT C.cname, S.sname FROM course C JOIN student S ON C.cid = S.cid"
        executor = SQLExecutor(_db(), config=EngineConfig(auto_index=True))
        assert "IndexNestedLoopJoin" in executor.explain(query)
        naive = SQLExecutor(_db(), config=EngineConfig(optimize=False)).query_rows(query)
        assert sorted(executor.query_rows(query)) == sorted(naive)

    def test_left_join_is_never_index_joined(self):
        query = (
            "SELECT C.cname, S.sname FROM course C LEFT OUTER JOIN student S ON C.cid = S.cid"
        )
        executor = SQLExecutor(_db(), config=EngineConfig(auto_index=True))
        assert "IndexNestedLoopJoin" not in executor.explain(query)

    def test_index_join_skips_null_keys(self):
        db = _db()
        db.table("student").insert((200, None, "ghost"))
        indexed = SQLExecutor(db, config=EngineConfig(auto_index=True)).query_rows(self.QUERY)
        hashed = SQLExecutor(db).query_rows(self.QUERY)
        assert sorted(indexed) == sorted(hashed)
        assert all(row[1] != "ghost" for row in indexed)

    def test_shared_cache_plan_survives_schema_divergence(self):
        # A plan cached against one catalog must not return wrong rows when
        # the shared cache hands it to a catalog where the same table name
        # has a different schema: IndexScanOp re-validates and falls back
        # to a scan with interpreter comparison semantics.
        from repro.sql.executor import SQLCaches
        from repro.sql.parser import parse_query

        db_int = Database()
        db_int.create_table(
            TableSchema(
                "t",
                [Column("x", DataType.INT), Column("y", DataType.STRING)],
                indexes=[("x",)],
            )
        )
        db_int.insert_many("t", [(1, "a"), (2, "b")])
        db_str = Database()
        db_str.create_table(
            TableSchema("t", [Column("x", DataType.STRING), Column("y", DataType.STRING)])
        )
        db_str.insert_many("t", [("1", "a"), ("2", "b")])

        shared = SQLCaches()
        query = parse_query("SELECT y FROM t WHERE x = 1")
        first = SQLExecutor(db_int, caches=shared).execute_query(query).as_tuples()
        second = SQLExecutor(db_str, caches=shared).execute_query(query).as_tuples()
        assert first == [("a",)]
        assert second == SQLExecutor(db_str).execute_query(query).as_tuples() == [("a",)]

    def test_three_way_join_with_residual_filter(self):
        query = (
            "SELECT C.cname, S.sname FROM course C, student S "
            "WHERE C.cid = S.cid AND S.sname <> 's1'"
        )
        indexed = SQLExecutor(_db(), config=EngineConfig(auto_index=True)).query_rows(query)
        naive = SQLExecutor(_db(), config=EngineConfig(optimize=False)).query_rows(query)
        assert sorted(indexed) == sorted(naive)
