"""Query-evaluation contexts for AUnit instances.

Every SQL query in a Hilda program runs against the namespace its context
defines (Section 3.2 of the paper):

* activation and local queries see the instance's input, local and
  persistent tables;
* input queries additionally see ``activationTuple`` and the child's input
  tables (qualified as ``Child.table``);
* handler conditions and actions additionally see the returning child's
  output tables (``Child.table``, ``Child.output``) and, for inout tables,
  the ``Child.in.X`` / ``Child.out.X`` views;
* inside an AUnit, an inout table read as a plain name refers to its *input*
  version, ``in.X`` / ``out.X`` select a version explicitly, and assignments
  to the plain name write the *output* version.

This module builds those namespaces as :class:`DictCatalog` objects the SQL
executor can query, and provides the assignment-execution helper shared by
the activation, return and reactivation phases.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple, TYPE_CHECKING

from repro.config import EngineConfig
from repro.errors import HandlerError, UnknownTableError
from repro.hilda.ast import Assignment
from repro.relational.database import Catalog
from repro.relational.functions import FunctionRegistry
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.sql.ast import ColumnRef, Query, SelectItem, SelectQuery, Star, TableRef, UnionQuery
from repro.sql.executor import SQLExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.instance import AUnitInstance

__all__ = [
    "DictCatalog",
    "build_read_catalog",
    "child_visible_tables",
    "make_activation_tuple_table",
    "run_assignments",
]


class DictCatalog(Catalog):
    """A catalog backed by a plain name -> Table mapping."""

    def __init__(self, tables: Optional[Dict[str, Table]] = None) -> None:
        self._tables: Dict[str, Table] = dict(tables or {})

    def add(self, name: str, table: Table, overwrite: bool = False) -> None:
        if not overwrite and name in self._tables:
            return
        self._tables[name] = table

    def update(self, tables: Dict[str, Table], overwrite: bool = False) -> None:
        for name, table in tables.items():
            self.add(name, table, overwrite=overwrite)

    def resolve_table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return list(self._tables)

    def as_dict(self) -> Dict[str, Table]:
        return dict(self._tables)


def build_read_catalog(
    instance: "AUnitInstance",
    persist_tables: Dict[str, Table],
    activation_tuple: Optional[Table] = None,
    child_tables: Optional[Dict[str, Table]] = None,
    include_output: bool = True,
    output_shadows_input: bool = False,
) -> DictCatalog:
    """The tables readable from queries evaluated in ``instance``'s context.

    ``output_shadows_input`` is set while executing handler actions: there, a
    plain inout table name refers to the *output* version being built (the
    input version stays reachable as ``in.X``), so later assignments of the
    same action can read what earlier ones wrote.  Everywhere else a plain
    inout name refers to the input version.
    """
    catalog = DictCatalog()

    # Local tables shadow nothing (the validator rejects collisions), but
    # register them first so reads inside handlers see the freshest state.
    catalog.update(instance.local_tables)

    # Input tables under their plain names and the in.X view for inout tables.
    for name, table in instance.input_tables.items():
        catalog.add(name, table)
    for name in instance.decl.inout_tables:
        table = instance.input_tables.get(name)
        if table is not None:
            catalog.add(f"in.{name}", table)

    # Output tables (once created by a return handler) are readable both as
    # plain names (later assignments of the same action read earlier ones,
    # e.g. newproblem reads newassign) and as out.X for inout tables.
    if include_output:
        for name, table in instance.output_tables.items():
            catalog.add(name, table, overwrite=output_shadows_input)
            if name in instance.decl.inout_tables:
                catalog.add(f"out.{name}", table, overwrite=True)

    # Persistent tables, shared across instances of this AUnit type.
    catalog.update(persist_tables)

    if activation_tuple is not None:
        catalog.add("activationTuple", activation_tuple, overwrite=True)
    if child_tables:
        catalog.update(child_tables, overwrite=True)
    return catalog


def child_visible_tables(child_ref_name: str, child: "AUnitInstance") -> Dict[str, Table]:
    """The returning child's tables as visible to its parent's handlers."""
    tables: Dict[str, Table] = {}
    for name, table in child.output_tables.items():
        tables[f"{child_ref_name}.{name}"] = table
    for name in child.decl.inout_tables:
        if name in child.input_tables:
            tables[f"{child_ref_name}.in.{name}"] = child.input_tables[name]
        if name in child.output_tables:
            tables[f"{child_ref_name}.out.{name}"] = child.output_tables[name]
    # The child's input tables are also readable qualified (CMSRoot reads
    # CourseAdmin.in.assign; some programs read Child.input for Basic AUnits).
    for name, table in child.input_tables.items():
        tables.setdefault(f"{child_ref_name}.{name}", table)
    return tables


def make_activation_tuple_table(schema: TableSchema, values) -> Table:
    """A one-row table named ``activationTuple`` holding an activation tuple."""
    table = Table(schema.renamed("activationTuple"))
    table.insert(values)
    return table


class AppendSplit(NamedTuple):
    """``T :- SELECT <T's columns> FROM T UNION ALL Q1 UNION ALL ...``, split.

    ``columns`` is None for ``*``; ``branches`` are the ``Q`` queries in
    order.  Whether ``table`` really names the assignment's target (and
    ``columns`` its schema) is checked per execution.
    """

    table: str
    columns: Optional[Tuple[str, ...]]
    branches: Tuple[Query, ...]


def append_split(query: Query) -> Optional[AppendSplit]:
    """Recognise the append idiom; None for every other query shape.

    The query must be a left-deep spine of ``UNION ALL`` whose leftmost
    leaf is a bare ``SELECT * FROM T [alias]`` or ``SELECT c1, ..., cn FROM
    T [alias]`` — no WHERE, GROUP BY, HAVING, ORDER BY, LIMIT or DISTINCT.
    """
    branches: List[Query] = []
    node = query
    while isinstance(node, UnionQuery):
        if not node.all:
            return None
        branches.append(node.right)
        node = node.left
    if not branches or not isinstance(node, SelectQuery):
        return None
    if (
        len(node.from_items) != 1
        or not isinstance(node.from_items[0], TableRef)
        or node.where is not None
        or node.group_by
        or node.having is not None
        or node.order_by
        or node.limit is not None
        or node.distinct
    ):
        return None
    source = node.from_items[0]
    own = (None, source.binding_name)
    columns: Optional[Tuple[str, ...]] = None
    if not (len(node.items) == 1 and isinstance(node.items[0], Star)):
        names: List[str] = []
        for item in node.items:
            if not isinstance(item, SelectItem) or not isinstance(item.expression, ColumnRef):
                return None
            ref = item.expression
            if ref.qualifier not in own or ref.is_positional:
                return None
            names.append(ref.name)
        columns = tuple(names)
    elif node.items[0].qualifier not in own:
        return None
    branches.reverse()
    return AppendSplit(source.name, columns, tuple(branches))


def _cached_append_split(executor: SQLExecutor, query: Query) -> Optional[AppendSplit]:
    caches = executor.caches
    entry = caches.appends.get(id(query))
    if entry is None:
        entry = (query, append_split(query))
        with caches.lock:
            caches.appends[id(query)] = entry
    return entry[1]


def _appended_rows(
    executor: SQLExecutor, query: Query, catalog: Catalog, target: Table
) -> Optional[List[Tuple[Any, ...]]]:
    """``Q``'s rows when ``query`` appends ``Q`` to ``target``; else None.

    None sends the assignment down the whole-table ``replace`` path: the
    shape is not the idiom, the leaf reads something other than the target
    (an ``in.``/``out.`` shadow, a reordered column list), or a branch's
    arity differs from the target's — there the full query raises the
    executor's own error.
    """
    split = _cached_append_split(executor, query)
    if split is None:
        return None
    try:
        source = catalog.resolve_table(split.table)
    except UnknownTableError:
        return None
    schema = target.schema
    if source is not target or split.columns not in (None, schema.column_names):
        return None
    rows: List[Tuple[Any, ...]] = []
    for branch in split.branches:
        relation = executor.execute_query(branch)
        if relation.arity != schema.arity:
            return None
        rows.extend(relation.rows)
    return rows


def run_assignments(
    assignments: Iterable[Assignment],
    catalog: Catalog,
    functions: FunctionRegistry,
    resolve_target,
    optimize: bool = True,
    location: str = "",
    executor_factory=None,
    read_tracker=None,
    observe=None,
) -> List[str]:
    """Execute a list of assignments sequentially.

    ``resolve_target`` maps an :class:`Assignment` to the :class:`Table` it
    writes.  Each query is fully materialised before its target is replaced,
    so an assignment may read the previous contents of the table it writes
    (``problem :- SELECT ... FROM problem UNION ...``).  The append idiom
    ``T :- SELECT ... FROM T UNION ALL Q`` (:func:`append_split`) evaluates
    only ``Q`` and appends its rows with one atomic
    :meth:`Table.insert_many`, which leaves ``T`` exactly as ``replace``
    would at O(|Q|) instead of O(|T|) cost.

    ``executor_factory`` (catalog -> :class:`SQLExecutor`) lets the engine
    supply executors wired to its shared parse/plan/compile caches and
    indexing policy.  When given, it fully determines the executor and the
    ``functions`` / ``optimize`` arguments are unused; otherwise a
    standalone executor is built from them.

    ``read_tracker``, when given, is a mutable set that collects the table
    read set of every executed query (the dependency footprint the runtime
    records for delta reactivation; see ``docs/caching.md``).

    ``observe``, when given, is called as ``observe(executor, rows)`` after
    each assignment that replaced its target with a query's ``rows`` (the
    runtime keeps maintained input-query entries from them).

    Returns the list of written table names (as given in the assignments).
    """
    if executor_factory is not None:
        executor = executor_factory(catalog)
    else:
        executor = SQLExecutor(
            catalog, functions=functions, config=EngineConfig(optimize=optimize)
        )
    written: List[str] = []
    for assignment in assignments:
        target = resolve_target(assignment)
        if target is None:
            raise HandlerError(
                f"{location}: assignment target {assignment.target!r} is not writable here"
            )
        if read_tracker is not None:
            read_tracker |= executor.read_set(assignment.query.query)
        query = assignment.query.query
        appended = _appended_rows(executor, query, catalog, target)
        if appended is None:
            write, rows = target.replace, executor.execute_query(query).rows
        else:
            write, rows = target.insert_many, appended
        try:
            write(rows)
        except Exception as exc:
            raise HandlerError(
                f"{location}: assignment to {assignment.target!r} failed: {exc}"
            ) from exc
        if observe is not None and appended is None:
            observe(executor, rows)
        written.append(assignment.target)
    return written
