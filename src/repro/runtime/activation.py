"""The activation (and reactivation) phase.

The :class:`ActivationBuilder` constructs activation trees: starting from a
root AUnit instance it evaluates each activator's activation query, applies
any activation filters (added by inheritance, Figure 12), creates one child
instance per activation tuple, computes the child's input tables with the
activator's input query, and recurses.

The *reactivation* phase (Section 3.2.5) is the same construction with one
difference: an instance whose label already existed before the return phase
and which did not return keeps its local-table contents and its instance ID.
That prior state is supplied to the builder as a *preservation map*.

Two dependency-tracking optimizations ride on the construction
(``docs/caching.md``):

* every activation query consults the engine's **activation cache**, keyed
  on the version vector of the tables the query's plan reads, so a write to
  an unrelated table no longer invalidates the memoised rows;
* **delta reactivation** — while building, each instance records per
  activator the ``(table, version)`` vector its activation and input
  queries read.  On a rebuild, an activator whose recorded versions are all
  unchanged must produce the identical child set with identical input
  tables, so the old child instances are *reused* (re-parented as-is when
  their own subtrees are also clean, or rebuilt shallowly around adopted
  input tables when only a deeper subtree changed) instead of recomputed.
  Reused instances keep their IDs and table objects, which both preserves
  the first-committer-wins conflict semantics and keeps the renderer's
  fragment fingerprints stable.  Under incremental maintenance an
  activator whose versions *did* move is still reused when its activation
  tuples and its children's input rows patch to what the old children
  hold (:meth:`ActivationBuilder._results_unchanged`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.errors import ActivationError, UnknownTableError
from repro.hilda.ast import ActivatorDecl, Assignment, AUnitDecl
from repro.relational.table import Table
from repro.runtime.context import (
    DictCatalog,
    build_read_catalog,
    make_activation_tuple_table,
    run_assignments,
)
from repro.runtime.instance import AUnitInstance, InstanceLabel, activation_key


if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import HildaEngine

__all__ = ["ActivationBuilder", "PreservedInstance", "dep_vector", "deps_current"]

#: A dependency version vector: ``((table name, version), ...)`` sorted by name.
DepVector = Tuple[Tuple[str, int], ...]

#: Sentinel distinguishing "never recorded" from "recorded as uncacheable".
_NO_RECORD = object()


def dep_vector(names, catalog) -> Optional[DepVector]:
    """Resolve table names to a ``(name, version)`` vector (None if any fail)."""
    deps = []
    for name in sorted(names):
        try:
            deps.append((name, catalog.resolve_table(name).version))
        except UnknownTableError:
            return None
    return tuple(deps)


def deps_current(deps: DepVector, catalog) -> bool:
    """True when every table in the vector still resolves to the same version."""
    for name, version in deps:
        try:
            table = catalog.resolve_table(name)
        except UnknownTableError:
            return False
        if table.version != version:
            return False
    return True


class PreservedInstance:
    """Local state carried over from a surviving instance (same label)."""

    __slots__ = ("instance_id", "local_tables")

    def __init__(self, instance_id: int, local_tables: Dict[str, Table]) -> None:
        self.instance_id = instance_id
        self.local_tables = local_tables


class ActivationBuilder:
    """Builds activation trees for the engine."""

    def __init__(self, engine: "HildaEngine") -> None:
        self.engine = engine
        self.program = engine.program
        #: Cumulative counters (delta-reactivation observability): instances
        #: constructed from scratch vs adopted wholesale from the old tree.
        #: The engine snapshots them around reactivations to report per
        #: operation (:attr:`~repro.runtime.operations.ApplyResult`).
        self.instances_built = 0
        self.instances_reused = 0
        #: (adopted old child, new parent) pairs collected during one build;
        #: the parent pointers are flipped only once the whole tree built
        #: successfully, so a failed rebuild leaves the still-installed old
        #: tree completely untouched.
        self._pending_reparent: List[Tuple[AUnitInstance, AUnitInstance]] = []

    # -- public API ---------------------------------------------------------------

    def build_session_tree(
        self,
        session_id: str,
        input_rows: Dict[str, List[Sequence[Any]]],
        preserved: Optional[Dict[InstanceLabel, PreservedInstance]] = None,
        old_root: Optional[AUnitInstance] = None,
    ) -> AUnitInstance:
        """Build (or rebuild) the activation tree of one session.

        ``old_root`` is the session's previous tree during reactivation;
        when delta reactivation is enabled its dependency records drive
        subtree reuse (see module doc).  The result *is* ``old_root`` when
        the rebuilt root adopted every child and table of it
        (:meth:`_same_node`).
        """
        with self.engine.id_scope(session_id):
            return self._build_tree(session_id, input_rows, preserved, old_root)

    def _build_tree(
        self,
        session_id: str,
        input_rows: Dict[str, List[Sequence[Any]]],
        preserved: Optional[Dict[InstanceLabel, PreservedInstance]],
        old_root: Optional[AUnitInstance],
    ) -> AUnitInstance:
        preserved = preserved or {}
        delta = (
            old_root is not None
            and self.engine.dependency_tracking
            and self.engine.delta_reactivation
        )
        root_decl = self.program.root
        self.engine.ensure_persistent(root_decl)
        label: InstanceLabel = ("session", session_id)
        root = self._new_instance(
            decl=root_decl,
            label=label,
            parent=None,
            activator=None,
            activation_tuple=None,
            session_id=session_id,
            preserved=preserved,
        )
        if delta:
            # Session inputs are fixed at session start, so the prior root's
            # input tables hold exactly the rows about to be re-applied;
            # adopting the objects keeps their version stamps, which is what
            # lets child dependency vectors referencing them stay valid.
            self._adopt_input_tables(root, old_root)
        else:
            root.create_input_tables()
        for table_name, rows in (input_rows or {}).items():
            table = root.input_tables.get(table_name)
            if table is None:
                raise ActivationError(
                    f"root AUnit {root_decl.name!r} has no input table {table_name!r}"
                )
            table.replace(rows)
        self._initialise_local(root, preserved)
        self._pending_reparent = []
        self._activate_children(root, preserved, old_root if delta else None)
        if delta and self._same_node(root, old_root):
            # Every child was adopted and the root holds the old root's very
            # tables: the rebuilt root is the old one, so keep it installed
            # (with the fresh dependency records) instead of swapping it.
            old_root.activator_deps = root.activator_deps
            old_root.activator_act_deps = root.activator_act_deps
            old_root.activator_input_deps = root.activator_input_deps
            self.instances_built -= 1
            self.instances_reused += 1
            self._pending_reparent = []
            return old_root
        # Commit point: only now that the whole tree built without raising is
        # the old tree mutated (adopted subtrees re-parented into the new
        # one).  An exception above leaves the installed tree untouched.
        for adopted, new_parent in self._pending_reparent:
            adopted.parent = new_parent
        self._pending_reparent = []
        return root

    # -- instance construction --------------------------------------------------------

    def _new_instance(
        self,
        decl: AUnitDecl,
        label: InstanceLabel,
        parent: Optional[AUnitInstance],
        activator: Optional[ActivatorDecl],
        activation_tuple: Optional[Tuple[Any, ...]],
        session_id: Optional[str],
        preserved: Dict[InstanceLabel, PreservedInstance],
    ) -> AUnitInstance:
        prior = preserved.get(label)
        instance_id = prior.instance_id if prior is not None else self.engine.next_instance_id()
        self.instances_built += 1
        return AUnitInstance(
            instance_id=instance_id,
            label=label,
            decl=decl,
            parent=parent,
            activator_name=activator.name if activator is not None else None,
            child_ref_name=activator.child.name if activator is not None else None,
            activation_tuple=activation_tuple,
            activation_schema=activator.activation_schema if activator is not None else None,
            session_id=session_id,
        )

    @staticmethod
    def _same_node(new: AUnitInstance, old: AUnitInstance) -> bool:
        """Is ``new`` a rebuild of ``old`` that adopted all its tables and children?

        Instances and tables compare by identity, so plain ``==`` on the
        lists and dicts checks that every element is the very same object.
        """
        return (
            not old.returned
            and new.children == old.children
            and new.input_tables == old.input_tables
            and new.local_tables == old.local_tables
            and new.output_tables == old.output_tables
        )

    @staticmethod
    def _adopt_input_tables(instance: AUnitInstance, old: AUnitInstance) -> None:
        """Take over a prior incarnation's input-table objects (same contents)."""
        instance.input_tables = dict(old.input_tables)
        for schema in instance.decl.input_schema:
            if schema.name not in instance.input_tables:
                instance.input_tables[schema.name] = Table(schema)

    def _initialise_local(
        self,
        instance: AUnitInstance,
        preserved: Dict[InstanceLabel, PreservedInstance],
    ) -> None:
        """Initialise (or carry over) the instance's local tables."""
        prior = preserved.get(instance.label)
        if prior is not None and not instance.decl.synchronized:
            instance.adopt_local_tables(prior.local_tables)
            # Tables added to the schema after the snapshot (only possible for
            # programmatically constructed programs) are created empty.
            for schema in instance.decl.local_schema:
                if schema.name not in instance.local_tables:
                    instance.local_tables[schema.name] = Table(schema)
            return

        instance.create_local_tables()
        if not instance.decl.local_query:
            instance.local_deps = ()
            return
        persist = self.engine.persist_tables(instance.decl.name)
        catalog = build_read_catalog(instance, persist, include_output=False)
        tracker: Optional[Set[str]] = set() if self.engine.dependency_tracking else None
        run_assignments(
            instance.decl.local_query,
            catalog,
            self.engine.functions,
            lambda assignment: instance.local_tables.get(assignment.simple_target),
            location=f"{instance.decl.name}.local_query",
            executor_factory=self.engine.make_executor,
            read_tracker=tracker,
        )
        if tracker is not None:
            if any(
                self.engine.query_is_global(assignment.query.query)
                for assignment in instance.decl.local_query
            ):
                instance.local_deps = None  # cross-shard read: untrackable
            else:
                instance.local_deps = dep_vector(tracker, catalog)

    # -- children ------------------------------------------------------------------------

    def _activate_children(
        self,
        instance: AUnitInstance,
        preserved: Dict[InstanceLabel, PreservedInstance],
        old_node: Optional[AUnitInstance] = None,
    ) -> None:
        for activator in instance.decl.activators:
            child_decl = self.program.resolve_child(activator.child)
            self.engine.ensure_persistent(child_decl)
            if old_node is not None and self._reactivate_delta(
                instance, activator, child_decl, preserved, old_node
            ):
                continue
            self._build_children(instance, activator, child_decl, preserved, old_node)

    def _build_children(
        self,
        instance: AUnitInstance,
        activator: ActivatorDecl,
        child_decl: AUnitDecl,
        preserved: Dict[InstanceLabel, PreservedInstance],
        old_node: Optional[AUnitInstance],
    ) -> None:
        """Run the activator's queries and construct its child instances."""
        persist = self.engine.persist_tables(instance.decl.name)
        catalog = build_read_catalog(instance, persist, include_output=False)
        tuples, read_names = self._activation_tuples(instance, activator, catalog)
        if read_names is not None and any(
            self.engine.query_is_global(assignment.query.query)
            for assignment in activator.input_query
        ):
            # A cross-shard input query reads peer shards whose writes move
            # no local version stamp, so its footprint is untrackable; the
            # activator must rebuild (re-scattering) on every reactivation.
            read_names = None
        # Input-query reads are tracked apart from the activation query's so
        # the split vectors below can tell "only activation inputs moved"
        # from "the child input tables would change too".
        input_reads: Optional[Set[str]] = set() if read_names is not None else None

        old_children: Optional[Dict[InstanceLabel, AUnitInstance]] = None
        if old_node is not None:
            old_children = {
                child.label: child
                for child in old_node.children
                if child.activator_name == activator.name
            }

        for activation_tuple in tuples:
            key = activation_key(activator.activation_schema, activation_tuple)
            label: InstanceLabel = (instance.label, activator.name, key)
            child = self._new_instance(
                decl=child_decl,
                label=label,
                parent=instance,
                activator=activator,
                activation_tuple=activation_tuple,
                session_id=instance.session_id,
                preserved=preserved,
            )
            child.create_input_tables()
            self._compute_child_input(instance, activator, child, input_reads)
            instance.children.append(child)
            self._initialise_local(child, preserved)
            self._activate_children(
                child,
                preserved,
                old_children.get(label) if old_children else None,
            )

        if read_names is None:
            instance.activator_deps[activator.name] = None
            instance.activator_act_deps[activator.name] = None
            instance.activator_input_deps[activator.name] = None
        else:
            # The per-child synthetic tables (the activation tuple and the
            # child's own input tables read back by later assignments) are
            # functions of the queries' other inputs, so they are excluded
            # from the recorded footprint; everything left resolves in the
            # instance's plain read catalog.
            excluded = {"activationTuple"}
            excluded.update(
                f"{activator.child.name}.{schema.name}"
                for schema in child_decl.input_schema
            )
            instance.activator_deps[activator.name] = dep_vector(
                (read_names | input_reads) - excluded, catalog
            )
            instance.activator_act_deps[activator.name] = dep_vector(
                read_names - excluded, catalog
            )
            instance.activator_input_deps[activator.name] = dep_vector(
                input_reads - excluded, catalog
            )

    # -- delta reactivation -------------------------------------------------------------

    def _reactivate_delta(
        self,
        instance: AUnitInstance,
        activator: ActivatorDecl,
        child_decl: AUnitDecl,
        preserved: Dict[InstanceLabel, PreservedInstance],
        old_node: AUnitInstance,
    ) -> bool:
        """Reuse the old tree's children for one activator if its deps are unchanged.

        Returns True when the activator was handled (children adopted or
        shallowly rebuilt); False sends the caller down the full rebuild
        path.  Under incremental maintenance a stale dependency vector gets
        a second chance: when only the activation query's inputs moved and
        its (cache-patched) *results* compare equal to the old child set,
        the children are still adoptable (see :meth:`_results_unchanged`).
        """
        deps = old_node.activator_deps.get(activator.name, _NO_RECORD)
        if deps is _NO_RECORD or deps is None:
            return False
        persist = self.engine.persist_tables(instance.decl.name)
        catalog = build_read_catalog(instance, persist, include_output=False)
        if not deps_current(deps, catalog):
            if not self._results_unchanged(instance, activator, old_node, catalog):
                return False
            deps = dep_vector([name for name, _ in deps], catalog)
            if deps is None:
                return False

        # The activation and input queries would produce identical results:
        # same child set, same activation tuples, same child input tables.
        old_children = [
            child for child in old_node.children if child.activator_name == activator.name
        ]
        for old_child in old_children:
            if self._subtree_clean(old_child):
                self._pending_reparent.append((old_child, instance))
                instance.children.append(old_child)
                self.instances_reused += sum(1 for _ in old_child.walk())
            else:
                # Something deeper changed (or the child returned): rebuild
                # the node itself, but skip re-running the input query — its
                # dependencies are unchanged, so the old input tables hold
                # exactly what recomputation would produce.
                child = self._new_instance(
                    decl=child_decl,
                    label=old_child.label,
                    parent=instance,
                    activator=activator,
                    activation_tuple=old_child.activation_tuple,
                    session_id=instance.session_id,
                    preserved=preserved,
                )
                self._adopt_input_tables(child, old_child)
                instance.children.append(child)
                self._initialise_local(child, preserved)
                self._activate_children(child, preserved, old_child)
        instance.activator_deps[activator.name] = deps
        for split in ("activator_act_deps", "activator_input_deps"):
            recorded = getattr(old_node, split).get(activator.name)
            getattr(instance, split)[activator.name] = (
                dep_vector([name for name, _ in recorded], catalog)
                if recorded is not None
                else None
            )
        return True

    def _results_unchanged(
        self,
        instance: AUnitInstance,
        activator: ActivatorDecl,
        old_node: AUnitInstance,
        catalog: DictCatalog,
    ) -> bool:
        """Prove one activator's *results* unchanged despite moved versions.

        Entered when the activator's combined dependency vector went stale.
        Two things could differ after a rebuild, and each gets its proof:

        * the activation tuple set — unchanged when the activator has no
          activation query, or when re-evaluating it (served by the
          activation cache, which under incremental maintenance patches its
          stale entry through the delta program rather than recomputing)
          gives the old children's tuples;
        * each child's input tables — unchanged when the input query's own
          footprint is still current, or when every old child's maintained
          input entry patches to the rows that child holds
          (:meth:`HildaEngine.input_rows_unchanged`).

        Both holding means a rebuild would reproduce the children verbatim,
        so the caller may adopt them even though table versions moved.
        """
        if self.engine.maintenance != "incremental" or activator.activation_filters:
            return False
        input_deps = old_node.activator_input_deps.get(activator.name, _NO_RECORD)
        if input_deps is _NO_RECORD or input_deps is None:
            return False
        old_children = [
            child for child in old_node.children if child.activator_name == activator.name
        ]
        if not deps_current(input_deps, catalog) and not all(
            self.engine.input_rows_unchanged(child, activator, catalog)
            for child in old_children
        ):
            return False
        if activator.activation_query is not None:
            tuples, _ = self._activation_tuples(instance, activator, catalog)
            if list(tuples) != [child.activation_tuple for child in old_children]:
                return False
        self.engine.maintenance_stats.results_unchanged += 1
        return True

    def _subtree_clean(self, node: AUnitInstance) -> bool:
        """True when a whole old subtree can be adopted as-is.

        Requires that no instance in the subtree returned, and that every
        recorded dependency vector (activator queries, plus the local query
        for synchronized AUnits) still matches the current table versions.
        The vectors resolve against the node's *own* catalog, whose tables
        are the very objects being adopted, so a reused subtree is exactly
        the tree a full rebuild would have produced.
        """
        if node.returned:
            return False
        if node.decl.synchronized or node.decl.activators:
            persist = self.engine.persist_tables(node.decl.name)
            catalog = build_read_catalog(node, persist, include_output=False)
            if node.decl.synchronized:
                if node.local_deps is None or not deps_current(node.local_deps, catalog):
                    return False
            for activator in node.decl.activators:
                deps = node.activator_deps.get(activator.name, _NO_RECORD)
                if deps is _NO_RECORD or deps is None:
                    return False
                if not deps_current(deps, catalog):
                    return False
        for child in node.children:
            if not self._subtree_clean(child):
                return False
        return True

    # -- activation queries -------------------------------------------------------------

    def _activation_tuples(
        self, instance: AUnitInstance, activator: ActivatorDecl, catalog: DictCatalog
    ) -> Tuple[List[Optional[Tuple[Any, ...]]], Optional[Set[str]]]:
        """The activation tuples of one activator (None = single unconditional child).

        Also returns the names of the tables read while computing them — the
        start of the activator's dependency footprint — or None when the
        footprint cannot be tracked (activation filters run per-row queries
        whose reads are not recorded).
        """
        track = self.engine.dependency_tracking
        if activator.activation_query is None:
            if activator.activation_filters:
                # A filtered activator without an activation query activates
                # its single child only when every filter returns rows.
                executor = self.engine.make_executor(catalog)
                for filter_block in activator.activation_filters:
                    if not executor.execute_query(filter_block.query).rows:
                        return [], None
                return [None], None
            return [None], (set() if track else None)

        executor = self.engine.make_executor(catalog)
        query = activator.activation_query.query
        query_reads: Optional[Set[str]] = set(executor.read_set(query)) if track else None
        if query_reads is not None and self.engine.query_is_global(query):
            query_reads = None  # cross-shard read: local versions can't witness it
        cached = self.engine.activation_cache_lookup(
            instance, activator, catalog, executor=executor
        )
        if cached is not None:
            rows = cached
        else:
            try:
                rows = executor.execute_query(query).as_tuples()
            except Exception as exc:
                raise ActivationError(
                    f"activation query of {instance.decl.name}.{activator.name} failed: {exc}"
                ) from exc
            self.engine.activation_cache_store(
                instance, activator, rows, query_reads, catalog,
                query=query, executor=executor,
            )

        if not activator.activation_filters:
            return list(rows), query_reads

        persist = self.engine.persist_tables(instance.decl.name)
        schema = activator.activation_schema
        kept: List[Optional[Tuple[Any, ...]]] = []
        for row in rows:
            tuple_table = make_activation_tuple_table(schema, row)
            filter_catalog = build_read_catalog(
                instance, persist, activation_tuple=tuple_table, include_output=False
            )
            filter_executor = self.engine.make_executor(filter_catalog)
            if all(
                filter_executor.execute_query(filter_block.query).rows
                for filter_block in activator.activation_filters
            ):
                kept.append(row)
        return kept, None

    def _compute_child_input(
        self,
        instance: AUnitInstance,
        activator: ActivatorDecl,
        child: AUnitInstance,
        read_tracker: Optional[Set[str]] = None,
    ) -> None:
        """Evaluate the activator's input query to fill the child's input tables."""
        if not activator.input_query:
            return
        persist = self.engine.persist_tables(instance.decl.name)
        activation_tuple_table = None
        if activator.activation_schema is not None and child.activation_tuple is not None:
            activation_tuple_table = make_activation_tuple_table(
                activator.activation_schema, child.activation_tuple
            )
        # The child's input tables are readable under their qualified names so
        # later assignments of the same input query may refer to earlier ones.
        child_qualified = {
            f"{activator.child.name}.{name}": table
            for name, table in child.input_tables.items()
        }
        catalog = build_read_catalog(
            instance,
            persist,
            activation_tuple=activation_tuple_table,
            child_tables=child_qualified,
            include_output=False,
        )

        def resolve_target(assignment: Assignment) -> Optional[Table]:
            return child.input_tables.get(assignment.simple_target)

        def observe(executor, rows) -> None:
            self.engine.input_cache_store(child, activator, rows, catalog, executor)

        run_assignments(
            activator.input_query,
            catalog,
            self.engine.functions,
            resolve_target,
            location=f"{instance.decl.name}.{activator.name}.input_query",
            executor_factory=self.engine.make_executor,
            read_tracker=read_tracker,
            observe=observe,
        )
