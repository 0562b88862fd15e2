"""Compiled expression closures must agree exactly with the interpreter.

The compiler (``repro.sql.compile``) is only allowed to be faster, never
different: a property test throws randomized expressions (three-valued
AND/OR/NOT, comparisons, arithmetic, IS NULL, BETWEEN, LIKE, IN lists,
CASE) at randomized rows with NULLs and checks value-or-exception equality
against the tree-walking :class:`Evaluator`.  Constructs that need more
than the current row (subqueries, positional/correlated references) must
refuse to compile so the executor falls back to the interpreter.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import EngineConfig
from repro.errors import SQLBindingError, SQLExecutionError
from repro.relational.database import Database
from repro.relational.functions import default_registry
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sql.ast import (
    BetweenExpression,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    ExistsExpression,
    InExpression,
    IsNullExpression,
    LikeExpression,
    Literal,
    ScalarSubquery,
    UnaryOp,
)
from repro.sql.compile import compile_expression
from repro.sql.evaluator import Evaluator, RowScope
from repro.sql.executor import SQLExecutor
from repro.sql.parser import parse_query
from repro.sql.relation import ColumnInfo, Relation

FUNCTIONS = default_registry()

#: The fixed layout compiled expressions are tested against.
COLUMNS = (
    ColumnInfo(name="a", qualifier="r"),
    ColumnInfo(name="b", qualifier="r"),
    ColumnInfo(name="s", qualifier="r"),
)


def _no_subqueries(query, scope):  # pragma: no cover - the strategy never makes one
    raise AssertionError("generated expressions must not contain subqueries")


# -- expression strategy ------------------------------------------------------

_values = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["", "a", "ab", "stu", "5", "x%y"]),
    st.booleans(),
)
_literals = _values.map(Literal)
_columns = st.sampled_from(
    [ColumnRef("a", "r"), ColumnRef("b", None), ColumnRef("s", "r"), ColumnRef("s", None)]
)
_like_patterns = st.sampled_from(["%", "s%", "_", "a_b", "%b%", "5", ""])
_base = st.one_of(_literals, _columns)


def _extend(children):
    binary = st.tuples(
        st.sampled_from(["+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"]),
        children,
        children,
    ).map(lambda t: BinaryOp(t[0], t[1], t[2]))
    unary = st.tuples(st.sampled_from(["NOT", "-"]), children).map(
        lambda t: UnaryOp(t[0], t[1])
    )
    is_null = st.tuples(children, st.booleans()).map(
        lambda t: IsNullExpression(t[0], negated=t[1])
    )
    between = st.tuples(children, children, children, st.booleans()).map(
        lambda t: BetweenExpression(t[0], t[1], t[2], negated=t[3])
    )
    like = st.tuples(children, _like_patterns, st.booleans()).map(
        lambda t: LikeExpression(t[0], Literal(t[1]), negated=t[2])
    )
    in_list = st.tuples(
        children, st.lists(children, min_size=0, max_size=3), st.booleans()
    ).map(lambda t: InExpression(t[0], values=tuple(t[1]), negated=t[2]))
    case = st.tuples(
        st.lists(st.tuples(children, children), min_size=1, max_size=2), children
    ).map(lambda t: CaseExpression(whens=tuple(t[0]), default=t[1]))
    return st.one_of(binary, unary, is_null, between, like, in_list, case)


_expressions = st.recursive(_base, _extend, max_leaves=14)
_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-5, 5)),
        st.one_of(st.none(), st.integers(-5, 5)),
        st.one_of(st.none(), st.sampled_from(["", "a", "ab", "stu1", "5"])),
    ),
    min_size=1,
    max_size=6,
)


def _outcome(thunk):
    """The value a thunk produces, or a marker for the exception it raises."""
    try:
        return ("value", thunk())
    except (SQLExecutionError, SQLBindingError) as exc:
        return ("sql-error", type(exc).__name__)
    except (TypeError, ZeroDivisionError) as exc:
        return ("py-error", type(exc).__name__)


@settings(max_examples=200, deadline=None)
@given(expression=_expressions, rows=_rows)
def test_compiled_closure_agrees_with_interpreter(expression, rows):
    compiled = compile_expression(expression, COLUMNS, FUNCTIONS)
    assert compiled is not None, f"expression should compile: {expression.to_sql()}"
    relation = Relation(COLUMNS, rows)
    evaluator = Evaluator(FUNCTIONS, _no_subqueries)
    for row in rows:
        scope = RowScope(relation, row, None)
        interpreted = _outcome(lambda: evaluator.evaluate(expression, scope))
        fast = _outcome(lambda: compiled(row))
        assert fast == interpreted, (
            f"{expression.to_sql()} on {row!r}: compiled={fast!r} interpreted={interpreted!r}"
        )


# -- interpreter fallback ------------------------------------------------------


def _sub(sql: str):
    return parse_query(sql)


class TestCompilationRefusals:
    def test_exists_subquery_is_not_compiled(self):
        expression = ExistsExpression(subquery=_sub("SELECT 1"))
        assert compile_expression(expression, COLUMNS, FUNCTIONS) is None

    def test_scalar_subquery_is_not_compiled(self):
        expression = BinaryOp("=", ColumnRef("a", "r"), ScalarSubquery(_sub("SELECT 1")))
        assert compile_expression(expression, COLUMNS, FUNCTIONS) is None

    def test_in_subquery_is_not_compiled(self):
        expression = InExpression(ColumnRef("a", "r"), subquery=_sub("SELECT 1"))
        assert compile_expression(expression, COLUMNS, FUNCTIONS) is None

    def test_positional_reference_is_not_compiled(self):
        assert compile_expression(ColumnRef("1", "r"), COLUMNS, FUNCTIONS) is None

    def test_unknown_column_is_not_compiled(self):
        # Unknown here may be a correlated outer reference: the interpreter's
        # scope chain must handle it, so compilation refuses.
        assert compile_expression(ColumnRef("zzz", "q"), COLUMNS, FUNCTIONS) is None

    def test_ambiguous_unqualified_name_is_not_compiled(self):
        columns = (ColumnInfo("x", "l"), ColumnInfo("x", "r"))
        assert compile_expression(ColumnRef("x", None), columns, FUNCTIONS) is None

    def test_like_null_pattern_still_evaluates_operand(self):
        # The interpreter evaluates the operand before the NULL pattern, so
        # operand errors must surface from the compiled closure too.
        division = BinaryOp("/", Literal(1), Literal(0))
        expression = LikeExpression(division, Literal(None))
        compiled = compile_expression(expression, COLUMNS, FUNCTIONS)
        assert compiled is not None
        with pytest.raises(SQLExecutionError):
            compiled((1, 2, "x"))
        assert compile_expression(
            LikeExpression(ColumnRef("s", "r"), Literal(None)), COLUMNS, FUNCTIONS
        )((1, 2, "x")) is None

    def test_aggregate_call_is_not_compiled(self):
        from repro.sql.ast import FunctionCall, Star

        call = FunctionCall("count", (Star(),))
        assert compile_expression(call, COLUMNS, FUNCTIONS) is None


class TestExecutorFallback:
    """Queries the compiler cannot serve still run — through the interpreter."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.create_table(
            TableSchema("course", [Column("cid", DataType.INT), Column("cname", DataType.STRING)])
        )
        db.create_table(
            TableSchema("student", [Column("sid", DataType.INT), Column("cid", DataType.INT)])
        )
        db.insert_many("course", [(10, "db"), (11, "os"), (12, "net")])
        db.insert_many("student", [(1, 10), (2, 10), (3, 11)])
        return db

    def test_correlated_exists_matches_uncompiled_run(self, db):
        query = (
            "SELECT C.cname FROM course C WHERE EXISTS "
            "(SELECT 1 FROM student S WHERE S.cid = C.cid)"
        )
        compiled_executor = SQLExecutor(db, config=EngineConfig(compile_expressions=True))
        interpreted_executor = SQLExecutor(db, config=EngineConfig(compile_expressions=False))
        assert sorted(compiled_executor.query_rows(query)) == sorted(
            interpreted_executor.query_rows(query)
        )
        # The outer EXISTS cannot compile, so the interpreter must have run.
        assert compiled_executor.stats.interpreted_evals > 0

    def test_correlated_subquery_inner_filter_uses_outer_scope(self, db):
        # The inner predicate S.cid = C.cid fails to compile against the
        # inner relation (C.cid is an outer column) and must fall back to
        # the chained-scope interpreter per outer row.
        query = (
            "SELECT C.cname FROM course C WHERE "
            "(SELECT count(*) FROM student S WHERE S.cid = C.cid) > 1"
        )
        assert SQLExecutor(db).query_rows(query) == [("db",)]

    def test_compiled_run_mostly_bypasses_interpreter(self, db):
        query = "SELECT cname FROM course WHERE cid = 10 OR cid > 11"
        compiled_executor = SQLExecutor(db, config=EngineConfig(compile_expressions=True))
        interpreted_executor = SQLExecutor(db, config=EngineConfig(compile_expressions=False))
        assert compiled_executor.query_rows(query) == interpreted_executor.query_rows(query)
        assert compiled_executor.stats.interpreted_evals == 0
        assert compiled_executor.stats.compiled_evals > 0
        assert interpreted_executor.stats.interpreted_evals > 0
        assert interpreted_executor.stats.compiled_evals == 0
