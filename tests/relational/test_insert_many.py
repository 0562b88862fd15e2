"""Atomic batched append: ``Table.insert_many`` against ``Table.replace``.

The Hilda runtime runs the append idiom ``T :- SELECT ... FROM T UNION ALL
Q`` as one ``insert_many`` of ``Q``'s rows, so the batch must leave a table
exactly as ``replace(old rows + Q)`` would: same rows in the same order,
same key map and secondary indexes, a version bump exactly when the rows
changed, and the same delta-log coverage.  A key clash must leave
everything untouched, as a failed ``replace`` does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntegrityError
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.sql.delta import DeltaLog


def _schema(primary_key=("id",)):
    return TableSchema(
        "t",
        [
            Column("id", DataType.INT),
            Column("grp", DataType.INT),
            Column("score", DataType.FLOAT),
        ],
        primary_key,
        [("grp",)],
    )


def _table(rows, primary_key=("id",)):
    table = Table(_schema(primary_key), rows)
    table.statistics()  # arm incremental statistics maintenance
    return table


def _hooked(table):
    ops = []
    table.set_journal(ops.append)
    return ops


def _state(table):
    return (
        list(table.rows),
        dict(table._key_index) if table._key_index is not None else None,
        {
            columns: {key: list(bucket) for key, bucket in index.items()}
            for columns, index in table._indexes.items()
        },
    )


def _stats(table):
    """The statistics snapshot minus its epoch (a rebuilt maintainer restarts it)."""
    snapshot = table.statistics()
    return snapshot.row_count, snapshot.size_class, snapshot.columns


class TestInsertMany:
    def test_batch_bumps_once_and_emits_one_op(self):
        table = _table([(1, 0, 1.0)])
        ops = _hooked(table)
        before = table.version
        assert table.insert_many([(2, 1, 2), (3, 1, 3.5)]) == 2
        assert table.version > before
        assert ops == [
            {"op": "insert", "rows": ((2, 1, 2.0), (3, 1, 3.5)), "version": table.version}
        ]
        assert table.check_integrity() == []
        assert table.index_lookup(("grp",), (1,)) == [(2, 1, 2.0), (3, 1, 3.5)]

    def test_single_insert_is_the_one_row_case(self):
        table = _table([])
        ops = _hooked(table)
        assert table.insert((7, 0, 1)) == (7, 0, 1.0)
        assert ops == [{"op": "insert", "rows": ((7, 0, 1.0),), "version": table.version}]

    def test_zero_rows_changes_nothing(self):
        table = _table([(1, 0, 1.0)])
        ops = _hooked(table)
        before = table.version
        assert table.insert_many([]) == 0
        assert table.version == before
        assert ops == []

    @pytest.mark.parametrize(
        "batch",
        [
            [(5, 0, 0.0), (1, 9, 9.0)],  # clashes with a stored key
            [(5, 0, 0.0), (6, 0, 0.0), (5, 1, 1.0)],  # clashes within the batch
        ],
        ids=["stored", "in-batch"],
    )
    def test_key_clash_leaves_the_table_untouched(self, batch):
        table = _table([(1, 0, 1.0), (2, 1, 2.0)])
        ops = _hooked(table)
        state, version, stats = _state(table), table.version, table.statistics()
        with pytest.raises(IntegrityError):
            table.insert_many(batch)
        assert _state(table) == state
        assert table.version == version
        assert table.statistics() == stats
        assert ops == []
        assert table.check_integrity() == []

    def test_statistics_follow_the_batch(self):
        table = _table([(1, 0, 1.0)])
        table.insert_many([(2, 0, None), (3, 4, 2.0)])
        assert _stats(table) == _stats(_table(table.rows))


# -- lockstep against replace ----------------------------------------------------

_row = st.tuples(
    st.integers(0, 12), st.integers(0, 3), st.one_of(st.none(), st.integers(0, 5))
)


@settings(max_examples=80, deadline=None)
@given(
    initial=st.lists(_row, max_size=8, unique_by=lambda row: row[0]),
    batches=st.lists(st.lists(_row, max_size=4), max_size=5),
    keyed=st.booleans(),
)
def test_insert_many_matches_replace_in_lockstep(initial, batches, keyed):
    primary_key = ("id",) if keyed else None
    appended, replaced = _table(initial, primary_key), _table(initial, primary_key)
    log = DeltaLog()
    log.attach(appended)
    log.attach(replaced)
    for batch in batches:
        before = appended.version, replaced.version
        outcomes = []
        for write in (
            lambda: appended.insert_many(batch),
            lambda: replaced.replace(list(replaced.rows) + list(batch)),
        ):
            try:
                write()
                outcomes.append("ok")
            except IntegrityError:
                outcomes.append("clash")
        assert outcomes[0] == outcomes[1]
        assert _state(appended) == _state(replaced)
        assert appended.check_integrity() == [] == replaced.check_integrity()
        changed = outcomes[0] == "ok" and bool(batch)
        assert (appended.version != before[0]) == changed
        assert (replaced.version != before[1]) == changed
        assert _stats(appended) == _stats(replaced)
        # The delta log proves coverage of the write on both paths, as the
        # same appended rows.
        deltas = log.deltas_for(appended, before[0]), log.deltas_for(replaced, before[1])
        assert None not in deltas
        assert [r.inserted for r in deltas[0]] == [r.inserted for r in deltas[1]]
        assert not any(r.deleted or r.changes for r in deltas[0] + deltas[1])
