"""Tests for SQL execution: scans, filters, joins, unions, subqueries."""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.errors import SQLExecutionError
from repro.sql.executor import SQLExecutor

OPTIMIZED = EngineConfig(optimize=True)
NAIVE = EngineConfig(optimize=False)


class TestBasicQueries:
    def test_full_scan(self, sql):
        rows = sql.query_rows("SELECT * FROM course")
        assert len(rows) == 3
        assert (10, "Databases") in rows

    def test_projection_and_alias(self, sql):
        rows = sql.query_dicts("SELECT cname AS title FROM course WHERE cid = 11")
        assert rows == [{"title": "Operating Systems"}]

    def test_filter_with_and_or(self, sql):
        rows = sql.query_rows(
            "SELECT cid FROM staff WHERE role = 'admin' AND (cid = 10 OR cid = 11)"
        )
        assert sorted(row[0] for row in rows) == [10, 11]

    def test_string_double_quotes(self, sql):
        rows = sql.query_rows('SELECT stid FROM staff WHERE role = "ta"')
        assert rows == [(3,)]

    def test_select_without_from(self, sql):
        rows = sql.query_rows("SELECT 1 + 1, 'x'")
        assert rows == [(2, "x")]

    def test_distinct(self, sql):
        rows = sql.query_rows("SELECT DISTINCT sname FROM staff")
        assert sorted(row[0] for row in rows) == ["alice", "bob", "carol"]

    def test_order_by_and_limit(self, sql):
        rows = sql.query_rows("SELECT cid FROM course ORDER BY cid DESC LIMIT 2")
        assert rows == [(12,), (11,)]

    def test_order_by_alias(self, sql):
        rows = sql.query_rows("SELECT cname AS title FROM course ORDER BY title")
        assert rows[0] == ("Databases",)

    def test_arithmetic_and_division_by_zero(self, sql):
        assert sql.query_scalar("SELECT 7 / 2") == 3.5
        with pytest.raises(SQLExecutionError):
            sql.query_rows("SELECT 1 / 0")

    def test_like(self, sql):
        rows = sql.query_rows("SELECT cname FROM course WHERE cname LIKE '%Systems'")
        assert rows == [("Operating Systems",)]

    def test_case_expression(self, sql):
        rows = sql.query_rows(
            "SELECT cname, CASE WHEN cid = 10 THEN 'db' ELSE 'other' END FROM course ORDER BY cid"
        )
        assert rows[0] == ("Databases", "db")
        assert rows[1][1] == "other"

    def test_between(self, sql):
        rows = sql.query_rows("SELECT cid FROM course WHERE cid BETWEEN 10 AND 11 ORDER BY cid")
        assert rows == [(10,), (11,)]


class TestJoins:
    def test_comma_join_with_predicate(self, sql):
        rows = sql.query_rows(
            "SELECT C.cname, S.sname FROM course C, staff S "
            "WHERE C.cid = S.cid AND S.role = 'admin' ORDER BY C.cname"
        )
        assert rows == [("Databases", "alice"), ("Networks", "carol"), ("Operating Systems", "alice")]

    def test_three_way_join(self, sql):
        rows = sql.query_rows(
            "SELECT C.cname FROM course C, staff S, student T "
            "WHERE C.cid = S.cid AND C.cid = T.cid AND S.sname = 'alice' AND T.sname = 's1'"
        )
        assert sorted(row[0] for row in rows) == ["Databases", "Operating Systems"]

    def test_explicit_inner_join(self, sql):
        rows = sql.query_rows(
            "SELECT C.cid FROM course C JOIN staff S ON C.cid = S.cid WHERE S.role = 'ta'"
        )
        assert rows == [(10,)]

    def test_left_outer_join_produces_nulls(self, sql):
        rows = sql.query_rows(
            "SELECT C.cname, T.sname FROM course C LEFT OUTER JOIN student T ON C.cid = T.cid "
            "ORDER BY C.cid"
        )
        names = {row[0]: row[1] for row in rows if row[0] == "Networks"}
        assert ("Databases", "s1") in rows
        # Networks has a student (s3); Operating Systems has s1; no NULL rows here.
        rows2 = sql.query_rows(
            "SELECT C.cname, S.sname FROM course C LEFT OUTER JOIN staff S "
            "ON C.cid = S.cid AND S.role = 'ta' ORDER BY C.cid"
        )
        assert ("Operating Systems", None) in rows2
        assert ("Networks", None) in rows2

    def test_cross_join(self, sql):
        rows = sql.query_rows("SELECT C.cid, T.sid FROM course C CROSS JOIN student T")
        assert len(rows) == 3 * 4

    def test_hash_join_and_nested_loop_agree(self, sample_db):
        query = (
            "SELECT C.cname, S.sname FROM course C, staff S, student T "
            "WHERE C.cid = S.cid AND S.cid = T.cid"
        )
        optimized = SQLExecutor(sample_db, config=OPTIMIZED).query_rows(query)
        naive = SQLExecutor(sample_db, config=NAIVE).query_rows(query)
        assert sorted(optimized) == sorted(naive)

    def test_explain_shows_join_choice(self, sample_db):
        query = "SELECT C.cid FROM course C, staff S WHERE C.cid = S.cid"
        assert "HashJoin" in SQLExecutor(sample_db, config=OPTIMIZED).explain(query)
        assert "NestedLoopJoin" in SQLExecutor(sample_db, config=NAIVE).explain(query)


class TestSubqueries:
    def test_in_subquery(self, sql):
        rows = sql.query_rows(
            "SELECT cname FROM course WHERE cid IN (SELECT cid FROM staff WHERE role = 'admin')"
        )
        assert sorted(row[0] for row in rows) == ["Databases", "Networks", "Operating Systems"]

    def test_not_in_subquery(self, sql):
        rows = sql.query_rows(
            "SELECT cname FROM course WHERE cid NOT IN (SELECT cid FROM staff WHERE role = 'ta')"
        )
        assert sorted(row[0] for row in rows) == ["Networks", "Operating Systems"]

    def test_in_multicolumn_subquery_uses_first_column(self, sql):
        rows = sql.query_rows(
            "SELECT cname FROM course C WHERE C.cid NOT IN (SELECT * FROM staff WHERE role = 'x')"
        )
        assert len(rows) == 3

    def test_correlated_exists(self, sql):
        rows = sql.query_rows(
            "SELECT C.cname FROM course C WHERE EXISTS "
            "(SELECT 1 FROM student T WHERE T.cid = C.cid AND T.sname = 's2')"
        )
        assert rows == [("Databases",)]

    def test_correlated_not_exists(self, sql):
        rows = sql.query_rows(
            "SELECT C.cname FROM course C WHERE NOT EXISTS "
            "(SELECT 1 FROM student T WHERE T.cid = C.cid)"
        )
        assert rows == []

    def test_scalar_subquery(self, sql):
        value = sql.query_scalar("SELECT (SELECT count(*) FROM course)")
        assert value == 3

    def test_scalar_subquery_multiple_rows_errors(self, sql):
        with pytest.raises(SQLExecutionError):
            sql.query_rows("SELECT (SELECT cid FROM course)")

    def test_derived_table(self, sql):
        rows = sql.query_rows(
            "SELECT d.cid FROM (SELECT cid FROM staff WHERE role = 'admin') d ORDER BY d.cid"
        )
        assert rows == [(10,), (11,), (12,)]


class TestUnions:
    def test_union_removes_duplicates(self, sql):
        rows = sql.query_rows(
            "SELECT cid FROM staff WHERE role = 'admin' UNION SELECT cid FROM staff"
        )
        assert sorted(row[0] for row in rows) == [10, 11, 12]

    def test_union_all_keeps_duplicates(self, sql):
        rows = sql.query_rows("SELECT cid FROM course UNION ALL SELECT cid FROM course")
        assert len(rows) == 6

    def test_union_arity_mismatch(self, sql):
        with pytest.raises(SQLExecutionError):
            sql.query_rows("SELECT cid FROM course UNION SELECT cid, cname FROM course")


class TestNullSemantics:
    def test_null_comparison_filters_out(self, sql):
        rows = sql.query_rows("SELECT sid FROM grade WHERE score > 0")
        assert len(rows) == 3  # the NULL score row does not satisfy the predicate

    def test_is_null(self, sql):
        rows = sql.query_rows("SELECT sid FROM grade WHERE score IS NULL")
        assert rows == [(4,)]

    def test_not_in_with_null_candidate_is_empty(self, sql):
        rows = sql.query_rows(
            "SELECT cid FROM course WHERE cid NOT IN (SELECT score FROM grade)"
        )
        assert rows == []  # NULL in the list makes NOT IN unknown for every row


class TestStatsAndCaching:
    def test_stats_accumulate(self, sample_db):
        executor = SQLExecutor(sample_db)
        executor.query_rows("SELECT * FROM course")
        stats = executor.reset_stats()
        assert stats.rows_scanned >= 3
        assert executor.stats.rows_scanned == 0

    def test_ast_cache_reuses_parse(self, sample_db):
        executor = SQLExecutor(sample_db)
        first = executor.query_rows("SELECT cid FROM course")
        second = executor.query_rows("SELECT cid FROM course")
        assert first == second
        assert len(executor._ast_cache) == 1
