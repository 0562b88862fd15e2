"""The append idiom ``T :- SELECT ... FROM T UNION ALL Q`` as an O(|Q|) insert.

:func:`repro.runtime.context.run_assignments` recognises the idiom and
appends ``Q``'s rows with one :meth:`Table.insert_many` instead of
re-reading ``T`` and replacing it wholesale.  These tests pin that the fast
path is observationally identical to the ``replace`` path it skips — rows,
row order, key map, indexes, version stamps, errors, journal and delta
coverage, WAL recovery — and that every other shape still runs through
``replace``.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import EngineConfig, StorageConfig, build_program
from repro.errors import HandlerError, SimulatedCrash, SQLExecutionError
from repro.hilda.ast import Assignment, QueryBlock
from repro.relational.functions import default_registry
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.runtime.context import DictCatalog, append_split, run_assignments
from repro.runtime.engine import HildaEngine
from repro.sql.delta import DeltaLog
from repro.sql.executor import SQLExecutor
from repro.sql.parser import parse_query
from repro.storage.wal import CRASH_POINTS, read_wal


def _schema(name, primary_key=("id",)):
    return TableSchema(
        name,
        [Column("id", DataType.INT), Column("grp", DataType.INT), Column("name", DataType.STRING)],
        primary_key,
        [("grp",)],
    )


def _tables(t_rows, n_rows=()):
    return {
        "t": Table(_schema("t"), t_rows),
        "u": Table(_schema("u"), t_rows),
        "n": Table(_schema("n", primary_key=None), n_rows),
    }


def _assignment(target, sql):
    return Assignment(target, QueryBlock(sql, parse_query(sql)))


def _run(tables, assignment, catalog=None):
    """Run one assignment; returns the journal op kinds its target emitted."""
    target = tables[assignment.target]
    ops = []
    target.set_journal(lambda op: ops.append(op["op"]))
    try:
        run_assignments(
            [assignment],
            catalog if catalog is not None else DictCatalog(tables),
            default_registry(),
            lambda a: tables[a.target],
        )
    finally:
        target.set_journal(None)
    return ops


def _reference(tables, assignment):
    """What the ``replace`` path leaves: the full query, then replace."""
    result = SQLExecutor(DictCatalog(tables)).execute_query(assignment.query.query)
    tables[assignment.target].replace(result.rows)


def _state(table):
    return (
        list(table.rows),
        dict(table._key_index),
        {
            columns: {key: list(bucket) for key, bucket in index.items()}
            for columns, index in table._indexes.items()
        },
    )


SEED = [(1, 0, "a"), (2, 1, "b"), (3, 1, "c")]
NEW = [(10, 2, "x"), (11, 0, "y")]


class TestRecognition:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t UNION ALL SELECT * FROM n",
            "SELECT T.* FROM t T UNION ALL SELECT * FROM n",
            "SELECT T.id, T.grp, T.name FROM t T UNION ALL SELECT N.id, N.grp, N.name FROM n N",
            "SELECT id, grp, name FROM t UNION ALL SELECT * FROM n"
            " UNION ALL SELECT N.id + 50, N.grp, N.name FROM n N",
        ],
    )
    def test_append_shapes_take_the_insert_path(self, sql):
        tables = _tables(SEED, NEW)
        expected = _tables(SEED, NEW)
        assignment = _assignment("t", sql)
        assert append_split(assignment.query.query) is not None
        assert _run(tables, assignment) == ["insert"]
        _reference(expected, assignment)
        assert _state(tables["t"]) == _state(expected["t"])
        assert tables["t"].check_integrity() == []

    @pytest.mark.parametrize(
        "sql",
        [
            # UNION (distinct) removes duplicates across T and Q.
            "SELECT * FROM t UNION SELECT * FROM n",
            # A filtered left branch drops rows of T.
            "SELECT * FROM t WHERE grp = 1 UNION ALL SELECT * FROM n",
            # A reordered left branch rewrites T's rows.
            "SELECT T.grp, T.id, T.name FROM t T UNION ALL SELECT N.grp, N.id, N.name FROM n N",
            # Mixed ALL/distinct spines.
            "SELECT * FROM t UNION ALL SELECT * FROM n UNION SELECT * FROM n",
            "SELECT * FROM t UNION SELECT * FROM n"
            " UNION ALL SELECT N.id + 50, N.grp, N.name FROM n N",
            # An ordered or limited left branch.
            "SELECT * FROM t ORDER BY id DESC UNION ALL SELECT * FROM n",
            "SELECT DISTINCT * FROM t UNION ALL SELECT * FROM n",
        ],
    )
    def test_other_shapes_keep_the_replace_path(self, sql):
        seed = [(1, 5, "a"), (2, 6, "b"), (3, 7, "c"), (4, 8, "c")]
        tables, expected = _tables(seed, NEW), _tables(seed, NEW)
        assignment = _assignment("t", sql)
        assert _run(tables, assignment) in ([], ["replace"])
        _reference(expected, assignment)
        assert _state(tables["t"]) == _state(expected["t"])

    def test_target_mismatch_keeps_the_replace_path(self):
        tables = _tables(SEED, NEW)
        expected = _tables(SEED, NEW)
        assignment = _assignment("u", "SELECT * FROM t UNION ALL SELECT * FROM n")
        assert _run(tables, assignment) == ["replace"]
        _reference(expected, assignment)
        assert _state(tables["u"]) == _state(expected["u"])

    def test_shadowed_name_keeps_the_replace_path(self):
        # A handler catalog where ``t`` names another table than the one
        # written (an in./out. shadow): the leaf must not be skipped.
        tables = _tables(SEED, NEW)
        shadow = Table(_schema("t"), [(7, 0, "in")])
        catalog = DictCatalog({**tables, "t": shadow})
        assignment = _assignment("t", "SELECT * FROM t UNION ALL SELECT * FROM n")
        assert _run(tables, assignment, catalog) == ["replace"]
        assert list(tables["t"].rows) == [(7, 0, "in")] + NEW

    def test_arity_mismatch_raises_the_executors_error(self):
        tables = _tables(SEED, NEW)
        assignment = _assignment("t", "SELECT * FROM t UNION ALL SELECT N.id FROM n N")
        with pytest.raises(SQLExecutionError) as fast:
            _run(tables, assignment)
        with pytest.raises(SQLExecutionError) as full:
            _reference(_tables(SEED, NEW), assignment)
        assert str(fast.value) == str(full.value)
        assert list(tables["t"].rows) == SEED

    def test_split_is_cached_per_assignment_ast(self):
        tables = _tables(SEED, NEW)
        executor = SQLExecutor(DictCatalog(tables))
        assignment = _assignment("t", "SELECT * FROM t UNION ALL SELECT * FROM n")
        run_assignments(
            [assignment], DictCatalog(tables), None, lambda a: tables[a.target],
            executor_factory=lambda catalog: executor,
        )
        query = assignment.query.query
        assert executor.caches.appends[id(query)][0] is query


class TestSemantics:
    def test_q_reads_the_pre_write_state_of_t(self):
        tables = _tables(SEED)
        assignment = _assignment(
            "t",
            "SELECT * FROM t UNION ALL SELECT T.id + 100, T.grp, T.name FROM t T"
            " UNION ALL SELECT T.id + 200, T.grp, T.name FROM t T",
        )
        assert _run(tables, assignment) == ["insert"]
        assert [row[0] for row in tables["t"].rows] == [1, 2, 3, 101, 102, 103, 201, 202, 203]

    def test_key_clash_is_atomic(self):
        tables = _tables(SEED, [(10, 0, "fresh"), (2, 0, "clash")])
        before, version = _state(tables["t"]), tables["t"].version
        assignment = _assignment("t", "SELECT * FROM t UNION ALL SELECT * FROM n")
        with pytest.raises(HandlerError, match="duplicate primary key"):
            _run(tables, assignment)
        assert _state(tables["t"]) == before
        assert tables["t"].version == version

    def test_zero_rows_is_a_no_op(self):
        tables = _tables(SEED, NEW)
        version = tables["t"].version
        assignment = _assignment("t", "SELECT * FROM t UNION ALL SELECT * FROM n WHERE id < 0")
        assert _run(tables, assignment) == []
        assert tables["t"].version == version


# -- lockstep against the replace path ------------------------------------------------

_rows = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 3), st.sampled_from(["a", "b", "c"])),
    max_size=6,
)

_APPENDS = st.sampled_from(
    [
        "SELECT * FROM t UNION ALL SELECT * FROM n",
        "SELECT T.id, T.grp, T.name FROM t T UNION ALL SELECT N.id, N.grp, N.name FROM n N"
        " WHERE N.grp > 0",
        "SELECT * FROM t UNION ALL SELECT N.id + 20, N.grp, N.name FROM n N, t T"
        " WHERE N.id = T.id",
    ]
)


@settings(max_examples=60, deadline=None)
@given(seed=_rows, steps=st.lists(st.tuples(_APPENDS, _rows), min_size=1, max_size=4))
def test_append_path_matches_replace_in_lockstep(seed, steps):
    seed = list({row[0]: row for row in seed}.values())
    fast, slow = _tables(seed), _tables(seed)
    log = DeltaLog()
    log.attach(fast["t"])
    log.attach(slow["t"])
    for sql, new_rows in steps:
        for tables in (fast, slow):
            tables["n"].replace(new_rows)
        assignment = _assignment("t", sql)
        before = fast["t"].version, slow["t"].version
        outcomes = []
        try:
            kinds = _run(fast, assignment)
            assert set(kinds) <= {"insert"}
            outcomes.append("ok")
        except HandlerError:
            outcomes.append("clash")
        try:
            _reference(slow, assignment)
            outcomes.append("ok")
        except Exception:
            outcomes.append("clash")
        assert outcomes[0] == outcomes[1]
        assert _state(fast["t"]) == _state(slow["t"])
        assert fast["t"].check_integrity() == []
        assert (fast["t"].version != before[0]) == (slow["t"].version != before[1])
        deltas = log.deltas_for(fast["t"], before[0]), log.deltas_for(slow["t"], before[1])
        assert None not in deltas
        assert [r.inserted for r in deltas[0]] == [r.inserted for r in deltas[1]]


# -- through the engine: handlers, WAL and recovery -----------------------------------

APPEND_SOURCE = """
root aunit Board {
    input schema { user(name:string) }
    persist schema { note(nid:int key, author:string, text:string) }

    activator ActNotes : ShowTable(int, string) {
        input query {
            ShowTable.input :- SELECT N.nid, N.text FROM note N ORDER BY N.nid
        }
    }

    activator ActPost : GetRow(int, string) {
        handler Post {
            action {
                note :-
                    SELECT N.nid, N.author, N.text FROM note N
                    UNION ALL
                    SELECT O.c1, U.name, O.c2 FROM user U, GetRow.output O
            }
        }
    }
}
"""

WAL_POINTS = tuple(point for point in CRASH_POINTS if point.startswith("wal."))


@pytest.fixture(scope="module")
def board_program():
    return build_program(APPEND_SOURCE)


def _wal_engine(program, data_dir):
    config = EngineConfig(storage=StorageConfig.wal(data_dir, checkpoint_every=None))
    return HildaEngine(program, config=config)


def _post(engine, session, nid, text):
    box = engine.find_instances("GetRow", session_id=session)[0]
    return engine.perform(box.instance_id, [nid, text])


def _note_ops(data_dir):
    records, _ = read_wal(f"{data_dir}/wal.log")
    return [op for record in records for op in record["ops"] if op[2:3] == ("note",)]


class TestThroughTheEngine:
    def test_handler_appends_and_journals_only_the_new_row(self, board_program, tmp_path):
        engine = _wal_engine(board_program, str(tmp_path))
        engine.seed_persistent({"note": [(n, "seed", f"s{n}") for n in range(50)]})
        session = engine.start_session({"user": [("ann",)]})
        before = len(_note_ops(str(tmp_path)))
        assert _post(engine, session, 100, "hello").status == "applied"
        ops = _note_ops(str(tmp_path))[before:]
        assert ops == [("insert", "Board", "note", ((100, "ann", "hello"),), ops[0][4])]
        note = engine.persistent_table("note")
        assert note.rows[-1] == (100, "ann", "hello") and len(note) == 51
        engine.close()

    def test_key_clash_leaves_table_and_wal_untouched(self, board_program, tmp_path):
        engine = _wal_engine(board_program, str(tmp_path))
        engine.seed_persistent({"note": [(1, "seed", "one")]})
        session = engine.start_session({"user": [("ann",)]})
        note = engine.persistent_table("note")
        rows, version = list(note.rows), note.version
        before = len(_note_ops(str(tmp_path)))
        result = _post(engine, session, 1, "clash")
        assert result.status == "rejected"
        assert "duplicate primary key" in result.message
        assert list(note.rows) == rows and note.version == version
        assert _note_ops(str(tmp_path))[before:] == []
        engine.close()

    @pytest.mark.parametrize("point", WAL_POINTS)
    def test_plural_insert_recovers_at_every_wal_crash_point(self, board_program, point):
        data_dir = tempfile.mkdtemp(prefix="append-crash-")
        try:
            engine = _wal_engine(board_program, data_dir)
            session = engine.start_session({"user": [("ann",)]})
            engine.storage.crash_points.arm(point, at_firing=3)
            committed = [list(engine.persistent_table("note").rows)]
            with pytest.raises(SimulatedCrash):
                for nid in range(1, 6):
                    _post(engine, session, nid, f"note {nid}")
                    committed.append(list(engine.persistent_table("note").rows))
            in_flight = list(engine.persistent_table("note").rows)
            engine.close()
            recovered = _wal_engine(board_program, data_dir)
            try:
                rows = list(recovered.persistent_table("note").rows)
                # Exactly a committed prefix: the crashed transaction is
                # either wholly there or wholly absent.
                assert rows in (committed[-1], in_flight)
                assert recovered.persistent_table("note").check_integrity() == []
            finally:
                recovered.close()
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
