"""Interpreted execution of compiled trigger programs.

The :class:`TriggerRuntime` holds the materialized map hierarchy and applies
single-tuple updates by executing the compiled triggers.  Within one update
event every statement's right-hand side is evaluated against the *pre-update*
map state and all increments are applied afterwards — equivalent to the
increasing-``j`` in-place order of Equation (1) in the paper.

The runtime never stores or consults the base relations themselves: once
bootstrapped (or started from the empty database), all it does per update is
look up and add a constant number of map entries per maintained value.  To
keep that bound honest for partially-bound map slices, the runtime maintains
the secondary hash indexes of :mod:`repro.compiler.indexes` alongside the
maps: the map environment is an :class:`~repro.compiler.indexes.IndexedMaps`,
so the AGCA evaluator (and the generated backend, which shares the same
environment inside :class:`~repro.ivm.recursive.RecursiveIVM`) slices maps by
bound prefix instead of scanning them.

Batches of updates are applied with :meth:`TriggerRuntime.apply_batch`, which
executes the program's *batch triggers*: the batch is grouped by
``(relation, sign)``, each group is pre-aggregated into a delta map
``∆R : key → multiplicity`` (duplicate tuples add up), and every batch
statement — the relation-valued delta of its target's definition — is
evaluated once per group with the delta map bound in the environment, then
folded with one read-modify-write per distinct target key.  Recompute
statements run once per group over the union of affected groups.  Because the
statements include the delta's higher-order terms in ``∆R``, the final state
equals one-at-a-time application exactly; the grouped per-tuple replay is
kept as :meth:`TriggerRuntime.apply_batch_replay` — the reference semantics
the property tests compare against, and the fallback for events without a
compiled batch trigger.

The runtime is the plain reference executor: it runs every batch through the
generic group → delta table → batch trigger path and nothing else.  The
hot-path specializations (Counter-counted delta tables, fused scalar totals,
Kahan-compensated float totals, pooled delta buffers) exist only in the
generated modules of :mod:`repro.compiler.codegen`, so the equivalence suites
compare those fast paths against an independent implementation.

With ``shards=N`` (N > 1) the map tables are hash-partitioned
(:class:`~repro.compiler.sharding.ShardedMapTable`) and every batch fold
routes its increments by target-key hash through the partition tier's shard
backend (inline on the coordinator, or per-shard on process workers) —
folds into different keys are independent, so the partition gives each
shard a disjoint slice of the table.  CDC and tracked-source accumulation
run serially before the fold (they depend only on the increment map), and
slice-index maintenance is journalled by the fold and replayed afterwards.
``shards=1`` (the default) keeps plain dict tables and exactly the unsharded
code path.

Both entry points accept an optional ``changes`` argument — a mapping from
*watched* map names to accumulator dicts — used for change-data-capture: every
increment folded into a watched map is also ring-added into its accumulator,
so after the call each accumulator holds exactly the per-key delta the
update (or batch) caused in that map.  This is how ``on_change`` subscriptions
of :class:`repro.ivm.base.IVMEngine` and :class:`repro.session.Session` views
observe result deltas without diffing map states.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.algebra.lattices import SupportTier
from repro.algebra.semirings import INTEGER_RING, Semiring
from repro.compiler.cost import RuntimeStatistics
from repro.compiler.indexes import IndexedMaps, SliceIndexes, compute_index_specs
from repro.compiler.maps import dependency_depths
from repro.compiler.partition.backends import ShardBackend, make_shard_backend
from repro.compiler.sharding import (
    ShardedMapTable,
    fold_sharded_table,
    fold_table_inline,
    make_inline_shard_fold,
    resolve_shard_count,
)
from repro.compiler.triggers import (
    BatchTrigger,
    RecomputeStatement,
    Trigger,
    TriggerProgram,
)
from repro.core.ast import AggSum
from repro.core.delta import build_delta_table
from repro.core.semantics import evaluate
from repro.core.simplify import make_safe
from repro.gmr.database import Database, Update
from repro.gmr.records import Record

MapTable = Dict[Tuple[Any, ...], Any]

_MISSING = object()


class _FromIntView:
    """A read-only mapping adapter exposing a ℤ-valued counter map as its
    ``from_int`` image in the session ring.

    Recompute bodies re-derive group folds from the base-relation counter
    maps; the ring evaluator must see ring values there, while the counter
    itself keeps exact integer multiplicities.  The view shares the
    underlying table (and therefore the slice-index buckets built over its
    keys), converting values lazily on access.
    """

    __slots__ = ("_table", "_from_int")

    def __init__(self, table: MapTable, ring: Semiring):
        self._table = table
        self._from_int = ring.from_int

    def get(self, key, default=None):
        value = self._table.get(key, _MISSING)
        if value is _MISSING:
            return default
        return self._from_int(value)

    def __getitem__(self, key):
        return self._from_int(self._table[key])

    def __contains__(self, key):
        return key in self._table

    def __iter__(self):
        return iter(self._table)

    def __len__(self):
        return len(self._table)

    def keys(self):
        return self._table.keys()

    def items(self):
        from_int = self._from_int
        return ((key, from_int(value)) for key, value in self._table.items())


class TriggerRuntime:
    """Executes a compiled :class:`TriggerProgram` over a stream of updates."""

    def __init__(
        self,
        program: TriggerProgram,
        ring: Semiring = INTEGER_RING,
        shards: Optional[int] = None,
        shard_backend=None,
    ):
        self.program = program
        self.ring = ring
        #: Semiring maintenance mode: the ring has no additive inverse, so
        #: the program must carry a :class:`~repro.compiler.triggers.MaintenancePlan`
        #: (counter maps in ℤ, support sidecars, tracked recomputes) and CDC
        #: switches from per-key deltas to per-key post-update values.
        self._semiring = not ring.is_ring
        if self._semiring and program.maintenance is None:
            raise TypeError(
                f"program {program.result_map!r} carries no maintenance plan; "
                f"recompile the query with ring={ring.name!r} to run it over a semiring"
            )
        maintenance = program.maintenance if self._semiring else None
        self._maintenance = maintenance
        self._counter_maps = (
            frozenset(maintenance.counter_maps) if maintenance is not None else frozenset()
        )
        self._support_tier: Optional[SupportTier] = None
        self._support_relations: frozenset = frozenset()
        if maintenance is not None and maintenance.supports:
            self._support_tier = SupportTier(ring, maintenance.supports)
            self._support_relations = frozenset(
                plan.relation for plan in maintenance.supports.values()
            )
        #: Hash-partition count of the map tables; 1 (the default) keeps the
        #: plain-dict tables and exactly the pre-sharding code path.
        self.shards = resolve_shard_count(shards)
        #: The partition tier's execution backend (``None`` when unsharded):
        #: either a ready :class:`~repro.compiler.partition.backends.ShardBackend`
        #: handed in by the owner (a :class:`~repro.session.Session` shares one
        #: backend — and its worker processes — across runtime rebuilds) or
        #: built here from a backend name / the ``REPRO_SHARD_BACKEND`` env.
        if isinstance(shard_backend, ShardBackend):
            self.shard_backend: Optional[ShardBackend] = shard_backend
        else:
            self.shard_backend = make_shard_backend(shard_backend, self.shards, ring)
        self.index_specs = compute_index_specs(program)
        self.indexes = SliceIndexes(self.index_specs)
        self.maps: Dict[str, MapTable] = IndexedMaps(
            {name: self.make_table() for name in program.maps}, indexes=self.indexes
        )
        self.statistics = RuntimeStatistics()
        if self.shards > 1:
            self._shard_fold_inline = make_inline_shard_fold(ring)
            # Counter maps fold in ℤ whatever the session ring is.
            self._shard_fold_inline_int = make_inline_shard_fold(INTEGER_RING)
        # The evaluator needs a Database only for its coefficient structure and
        # declared schema; compiled right-hand sides never read base relations.
        self._environment = Database(schema=program.schema, ring=ring)
        #: Counter statements (base-copy folds) evaluate in ℤ, not the ring.
        self._count_env = (
            Database(schema=program.schema, ring=INTEGER_RING) if self._semiring else None
        )
        #: Cached ring view of the map environment (counter tables wrapped in
        #: :class:`_FromIntView`); invalidated whenever tables are replaced.
        self._ring_view: Optional[IndexedMaps] = None

    def make_table(self, contents: Optional[MapTable] = None) -> MapTable:
        """A fresh map table honoring the runtime's shard configuration.

        Plain dict at ``shards=1``; a :class:`ShardedMapTable` otherwise
        (``contents``, when given, are re-partitioned by key hash — this is
        how snapshot restore re-shards under a different shard count).
        """
        if self.shards == 1:
            return dict(contents) if contents else {}
        table = ShardedMapTable(self.shards, contents)
        table.backend = self.shard_backend
        return table

    def backup_tables(self, names: Optional[Iterable[str]] = None) -> Dict[str, MapTable]:
        """Plain-dict copies of map tables (sharded tables merged).

        ``names`` restricts the copy to a subset — the transactional batch
        path backs up only the maps its events can write.  Cost is
        O(entries of the copied tables).
        """
        targets = self.maps if names is None else names
        backup = {
            name: (
                table.copy() if type(table) is ShardedMapTable else dict(table)
            )
            for name, table in ((name, self.maps[name]) for name in targets)
        }
        if self._support_tier is not None:
            # The support sidecars ride the table backup under a reserved key
            # (map names never collide with it — they are identifiers).
            backup["__supports__"] = self._support_tier.backup()
        return backup

    def restore_tables(self, backup: Dict[str, MapTable]) -> None:
        """Reinstall backed-up table contents and rebuild the slice indexes.

        Only the maps present in ``backup`` are replaced (a partial backup
        covers exactly the maps that could have been written).
        """
        supports = None
        for name, contents in backup.items():
            if name == "__supports__":
                supports = contents
                continue
            self.maps[name] = self.make_table(contents)
        self.indexes.rebuild(self.maps)
        self._ring_view = None
        if self._support_tier is not None:
            if supports is not None:
                self._support_tier.restore(supports)
            else:
                # A backup taken before the tier existed (or from another
                # backend): rebuild the sidecars from the restored counters.
                self._support_tier.bootstrap(self._counter_rows)

    def writable_maps_for(self, updates: Iterable[Update]) -> set:
        """The map names the given updates' triggers can write.

        The union of statement and recompute targets over every
        ``(relation, sign)`` event in the batch, across both the per-tuple
        and the batch triggers — a superset of what any execution path
        (batch fold, replay fallback) mutates.  Reads never mutate, so
        backing these up suffices for exact rollback.
        """
        program = self.program
        touched: set = set()
        events = {(update.relation, update.sign) for update in updates}
        for event in events:
            for trigger in (program.triggers.get(event), program.batch_triggers.get(event)):
                if trigger is None:
                    continue
                touched.update(statement.target for statement in trigger.statements)
                touched.update(recompute.target for recompute in trigger.recomputes)
        if self._support_tier is not None:
            relations = {relation for relation, _sign in events}
            for name, plan in self._maintenance.supports.items():
                if plan.relation in relations:
                    touched.add(name)
        return touched

    # -- initialization -----------------------------------------------------------

    def bootstrap(self, db: Database, names: Optional[Iterable[str]] = None) -> None:
        """Populate maps by evaluating their definitions over an existing database.

        This is the "initial values" step of the paper; engines that start
        from the empty database can skip it.  ``names`` restricts the work to
        a subset of maps (used when a new view joins an already-running
        shared hierarchy); by default every map is (re)computed.  Maps are
        evaluated sources-first: a definition that reads other maps (an
        extracted nested aggregate, a base-relation copy) sees their freshly
        computed contents.
        """
        targets = tuple(names) if names is not None else tuple(self.program.maps)
        depths = dependency_depths(self.program.maps)
        # Evaluate against a *plain dict* environment: the slice indexes are
        # only rebuilt after the loop, and the evaluator prefers an attached
        # index bucket when one exists — mid-bootstrap those buckets are
        # stale/empty and a partially-bound read through them would silently
        # come back empty.  The plain view shares the table objects, so maps
        # populated earlier in the loop are visible to later definitions.
        plain: Dict[str, MapTable] = dict(self.maps)
        for name in sorted(targets, key=lambda name: (depths[name], name)):
            definition = self.program.maps[name]
            table: MapTable = {}
            if self._semiring and name in self._counter_maps:
                # Counter maps are identity copies of a base relation, valued
                # in ℤ — read the exact multiplicities straight off the
                # database rather than evaluating under the session ring.
                for values, count in db.counts(definition.definition.name).items():
                    if count > 0:
                        table[values] = count
            else:
                query = AggSum(definition.key_vars, make_safe(definition.definition))
                result = evaluate(query, db, maps=plain)
                for record, value in result.items():
                    key = record.values_for(definition.key_vars)
                    if not self.ring.is_zero(value):
                        table[key] = value
            plain[name] = table
            self.maps[name] = self.make_table(table) if self.shards > 1 else table
        self.indexes.rebuild(self.maps)
        self._ring_view = None
        if self._support_tier is not None:
            self._support_tier.bootstrap(self._counter_rows)

    # -- update processing -----------------------------------------------------------

    def apply(self, update: Update, changes: Optional[Dict[str, MapTable]] = None) -> None:
        """Apply one single-tuple update to the whole view hierarchy.

        ``changes`` optionally maps watched map names to accumulators that
        receive the per-key deltas this update causes in those maps.
        """
        self.statistics.updates_processed += update.count
        trigger = self.program.trigger_for(update.relation, update.sign)
        if trigger is not None:
            self._check_arity(trigger, update)
            for _ in range(update.count):
                self._apply_trigger(trigger, update.values, changes)
        if self._support_tier is not None and update.relation in self._support_relations:
            # Fed after the triggers: an exhausted support's rebuild must see
            # the post-update counter map.
            diffs = self._support_tier.collect(
                ((update.relation, update.values, update.sign, update.count),),
                self._counter_rows,
            )
            self._apply_support_changes(diffs, changes)

    def apply_batch(
        self, updates: Iterable[Update], changes: Optional[Dict[str, MapTable]] = None
    ) -> None:
        """Apply a batch of updates through the compiled batch triggers.

        The batch is grouped by ``(relation, sign)`` and each group is
        pre-aggregated into a delta map ``∆R : values → multiplicity``; the
        group's batch trigger then runs once — every statement evaluated
        against the pre-group state, increments folded per distinct key, and
        recomputes re-derived once over the union of affected groups.  The
        final map state equals one-at-a-time application (the batch
        statements carry the delta's higher-order interaction terms).  Events
        without a batch trigger fall back to grouped per-tuple replay.
        """
        # Under a semiring the delta tables count tuples in ℤ (counter folds
        # consume them directly; ring statements see a ``from_int`` overlay).
        delta_ring = INTEGER_RING if self._semiring else self.ring
        groups = self._validated_groups(updates)
        ordered = groups.items()
        if self._semiring:
            # Insert groups fold before delete groups: a batch may delete a
            # row the same batch inserts, and a delete-event recompute reads
            # the ℤ counter maps through ``from_int``, which has no image for
            # transiently negative counts.  Over a ring the order cannot be
            # observed, so the first-seen order is kept there.
            ordered = sorted(groups.items(), key=lambda item: -item[0][1])
        for (relation, sign), group in ordered:
            tuple_count = sum(update.count for update in group)
            self.statistics.updates_processed += tuple_count
            batch_trigger = self.program.batch_trigger_for(relation, sign)
            if batch_trigger is not None:
                delta_table = build_delta_table(group, delta_ring)
                if delta_table:
                    self._apply_batch_trigger(batch_trigger, delta_table, changes)
                continue
            trigger = self.program.trigger_for(relation, sign)
            if trigger is None:
                continue
            for update in group:
                for _ in range(update.count):
                    self._apply_trigger(trigger, update.values, changes)
        self._feed_supports(groups, changes)

    def apply_batch_replay(
        self, updates: Iterable[Update], changes: Optional[Dict[str, MapTable]] = None
    ) -> None:
        """Grouped per-tuple replay of a batch (the pre-batch-trigger path).

        Each trigger is resolved once per ``(relation, sign)`` group and every
        tuple's statements are evaluated and folded one tuple at a time.  This
        is the reference semantics batch triggers are checked against and the
        baseline the batch-update benchmark compares with.
        """
        groups = self._validated_groups(updates)
        ordered = groups.items()
        if self._semiring:
            # Insert groups replay before delete groups (see apply_batch):
            # delete-event recomputes read counter maps through from_int.
            ordered = sorted(groups.items(), key=lambda item: -item[0][1])
        for (relation, sign), group in ordered:
            self.statistics.updates_processed += sum(update.count for update in group)
            trigger = self.program.trigger_for(relation, sign)
            if trigger is None:
                continue
            for update in group:
                for _ in range(update.count):
                    self._apply_trigger(trigger, update.values, changes)
        self._feed_supports(groups, changes)

    def _validated_groups(
        self, updates: Iterable[Update]
    ) -> Dict[Tuple[str, int], List[Update]]:
        """Group a batch by ``(relation, sign)``, arity-checking every update first.

        Validation of the whole batch happens before any map is touched, so a
        malformed update cannot leave the hierarchy partially advanced
        mid-batch; shared by the batch-trigger and replay entry points.  The
        grouped updates keep their net multiplicities (``Update.count``, the
        compact form :func:`repro.gmr.database.coalesce_updates` emits).
        """
        groups: Dict[Tuple[str, int], List[Update]] = {}
        for update in updates:
            trigger = self.program.trigger_for(update.relation, update.sign)
            if trigger is not None:
                self._check_arity(trigger, update)
            groups.setdefault((update.relation, update.sign), []).append(update)
        return groups

    def _check_arity(self, trigger: Trigger, update: Update) -> None:
        if len(trigger.argument_names) != len(update.values):
            raise ValueError(
                f"update {update!r} does not match the arity of relation {update.relation!r}"
            )

    # -- support-structure maintenance ------------------------------------------------

    def _counter_rows(self, relation: str):
        """The relation's current ``(row, count)`` pairs from its counter map
        (the support tier's bootstrap and exhaustion-recovery source)."""
        name = self._maintenance.relation_counters.get(relation)
        if name is None:
            return ()
        return self.maps[name].items()

    @property
    def has_supports(self) -> bool:
        """Whether the maintenance plan keeps support-structure sidecars."""
        return self._support_tier is not None

    def rebuild_supports(self) -> None:
        """(Re)derive every support sidecar from the counter maps.

        Used after map tables were installed wholesale (session restore): the
        sidecars are a function of the base counters, so rebuilding beats
        serializing them — and the rebuilt supports are always untruncated.
        """
        if self._support_tier is not None:
            self._support_tier.bootstrap(self._counter_rows)

    def feed_supports(
        self,
        updates: Iterable[Update],
        changes: Optional[Dict[str, MapTable]] = None,
    ) -> None:
        """Feed raw updates into the support sidecars (post-trigger).

        The engine-level hook for the generated backend, which shares this
        runtime's maps and tier but applies triggers through its own module;
        the interpreted entry points feed internally.  Must run *after* the
        triggers so an exhausted support's rebuild sees post-update counters.
        """
        if self._support_tier is None:
            return
        feed = [
            (update.relation, update.values, update.sign, update.count)
            for update in updates
            if update.relation in self._support_relations
        ]
        if feed:
            diffs = self._support_tier.collect(feed, self._counter_rows)
            self._apply_support_changes(diffs, changes)

    def _feed_supports(
        self,
        groups: Dict[Tuple[str, int], List[Update]],
        changes: Optional[Dict[str, MapTable]],
    ) -> None:
        """Feed a validated batch into the support sidecars (post-triggers)."""
        if self._support_tier is None:
            return
        feed = []
        for (relation, sign), group in groups.items():
            if relation in self._support_relations:
                feed.extend(
                    (relation, update.values, sign, update.count) for update in group
                )
        if feed:
            diffs = self._support_tier.collect(feed, self._counter_rows)
            self._apply_support_changes(diffs, changes)

    def _apply_support_changes(
        self,
        diffs: Dict[str, Dict[Tuple[Any, ...], Any]],
        changes: Optional[Dict[str, MapTable]],
    ) -> None:
        """Install the support tier's per-group new values into the tables.

        ``None`` (and ring zero) mean the group emptied out; semiring CDC
        reports that as the zero so subscribers can drop the key.
        """
        ring = self.ring
        indexes = self.indexes
        for name, group_values in diffs.items():
            table = self.maps[name]
            collector = None if changes is None else changes.get(name)
            for key, value in group_values.items():
                self.statistics.entries_updated += 1
                if value is None or ring.is_zero(value):
                    if table.pop(key, None) is not None:
                        indexes.discard(name, key)
                    if collector is not None:
                        collector[key] = ring.zero
                else:
                    if key not in table:
                        indexes.add(name, key)
                    table[key] = value
                    if collector is not None:
                        collector[key] = value

    def _apply_trigger(
        self,
        trigger: Trigger,
        values: Tuple[Any, ...],
        changes: Optional[Dict[str, MapTable]] = None,
    ) -> None:
        bindings = Record.from_values(trigger.argument_names, values)

        # Maps whose per-event changed keys the recompute statements need for
        # their affected-group analysis (tracked mode).
        tracked_sources = self._tracked_sources_for(trigger.recomputes)

        # Evaluate every statement against the pre-update state ...
        pending = []
        for statement in trigger.statements:
            self.statistics.statements_executed += 1
            environment = self._environment
            maps = self.maps
            if self._count_env is not None:
                if statement.target in self._counter_maps:
                    # Counter statements are ℤ-valued whatever the ring is.
                    environment = self._count_env
                else:
                    # Ring statements can join against counter maps (base
                    # copies of the other relations) — read them as ring
                    # values through the from-int view.
                    maps = self._evaluation_maps()
            result = evaluate(
                statement.as_aggregate(), environment, bindings, maps=maps
            )
            increments = {
                record.values_for(statement.target_keys): value
                for record, value in result.items()
            }
            pending.append((statement, increments))

        # ... then apply all increments, keeping the slice indexes in sync.
        for statement, increments in pending:
            self._fold_increments(
                statement.target,
                increments,
                changes,
                tracked_sources,
                serial=statement.serial_fold,
            )

        # Finally re-derive the nested-aggregate readers, inner maps first;
        # each recompute sees the post-update sources and the pre-update target.
        for recompute in trigger.recomputes:
            self._run_recompute(recompute, changes, tracked_sources)

    def _tracked_sources_for(
        self, recomputes: Tuple[RecomputeStatement, ...]
    ) -> Optional[Dict[str, set]]:
        """Fresh per-event changed-key sets for the recomputes' tracked sources."""
        if not recomputes:
            return None
        tracked_sources: Dict[str, set] = {}
        for recompute in recomputes:
            if recompute.source_projections:
                for source, _positions in recompute.source_projections:
                    tracked_sources.setdefault(source, set())
        return tracked_sources

    def _apply_batch_trigger(
        self,
        batch_trigger: BatchTrigger,
        delta_table: MapTable,
        changes: Optional[Dict[str, MapTable]] = None,
    ) -> None:
        """Run one batch trigger over a pre-aggregated delta map.

        Statements are evaluated against the pre-group state with the delta
        map temporarily overlaid into the map environment (under its reserved
        name, so the evaluator reads it like any other map); a statement with
        a key projection skips evaluation entirely and folds the delta map
        straight onto the target's keys.  All increments are folded after all
        evaluations — the batch form of the snapshot semantics — and the
        recomputes re-derive once per group.
        """
        ring = self.ring
        semiring = self._semiring
        tracked_sources = self._tracked_sources_for(batch_trigger.recomputes)
        pending = []
        #: Lazily-built ring view for evaluate statements in semiring mode:
        #: counter maps wrapped, plus the delta's ``from_int`` image under
        #: the reserved delta name.
        ring_view: Optional[IndexedMaps] = None
        self.maps[batch_trigger.delta_map] = delta_table
        try:
            for statement in batch_trigger.statements:
                self.statistics.statements_executed += 1
                increments: MapTable = {}
                is_counter = semiring and statement.target in self._counter_maps
                if statement.projection is not None:
                    if is_counter:
                        coefficient = statement.coefficient
                        for key, multiplicity in delta_table.items():
                            target_key = tuple(
                                key[position] for position in statement.projection
                            )
                            increments[target_key] = (
                                increments.get(target_key, 0) + coefficient * multiplicity
                            )
                    elif semiring:
                        # The delta counts tuples in ℤ: a count maps to its
                        # ``from_int`` image, and a coefficient of 1 stays out
                        # of the product entirely — ``coerce(1)`` need not be
                        # the multiplicative identity outside a ring (min-plus
                        # coerces 1 to the value 1.0, but its ``one`` is 0.0).
                        coefficient = statement.coefficient
                        for key, multiplicity in delta_table.items():
                            target_key = tuple(
                                key[position] for position in statement.projection
                            )
                            value = ring.from_int(multiplicity)
                            if coefficient != 1:
                                value = ring.mul(ring.coerce(coefficient), value)
                            existing = increments.get(target_key)
                            increments[target_key] = (
                                value if existing is None else ring.add(existing, value)
                            )
                    else:
                        coefficient = ring.coerce(statement.coefficient)
                        for key, multiplicity in delta_table.items():
                            target_key = tuple(
                                key[position] for position in statement.projection
                            )
                            value = ring.mul(coefficient, multiplicity)
                            existing = increments.get(target_key)
                            increments[target_key] = (
                                value if existing is None else ring.add(existing, value)
                            )
                else:
                    environment = self._environment
                    maps = self.maps
                    if semiring:
                        if is_counter:
                            environment = self._count_env
                        else:
                            if ring_view is None:
                                from_int = ring.from_int
                                ring_view = IndexedMaps(
                                    self._evaluation_maps(), indexes=self.indexes
                                )
                                ring_view[batch_trigger.delta_map] = {
                                    key: from_int(multiplicity)
                                    for key, multiplicity in delta_table.items()
                                }
                            maps = ring_view
                    result = evaluate(
                        statement.as_aggregate(), environment, maps=maps
                    )
                    for record, value in result.items():
                        increments[record.values_for(statement.target_keys)] = value
                pending.append((statement, increments))
        finally:
            self.maps.pop(batch_trigger.delta_map, None)
        for statement, increments in pending:
            self._fold_increments(
                statement.target,
                increments,
                changes,
                tracked_sources,
                serial=statement.serial_fold,
            )
        for recompute in batch_trigger.recomputes:
            self._run_recompute(recompute, changes, tracked_sources)

    def _fold_increments(
        self,
        target: str,
        increments: MapTable,
        changes: Optional[Dict[str, MapTable]],
        tracked_sources: Optional[Dict[str, set]],
        serial: bool = False,
    ) -> None:
        """Fold per-key increments into one map, maintaining indexes/CDC/tracking.

        ``serial`` is the shard-race detector's verdict
        (:attr:`~repro.compiler.triggers.Statement.serial_fold`): a flagged
        statement's fold must stay on the inline path even for large
        increment maps over a sharded table.
        """
        ring = self.ring
        semiring = self._semiring
        if semiring and target in self._counter_maps:
            ring = INTEGER_RING
        table = self.maps[target]
        if type(table) is ShardedMapTable:
            self._fold_increments_sharded(
                table, target, increments, changes, tracked_sources, serial
            )
            return
        indexes = self.indexes
        collector = None if changes is None else changes.get(target)
        touched = None if tracked_sources is None else tracked_sources.get(target)
        for key, value in increments.items():
            new_value = ring.add(table.get(key, ring.zero), value)
            if collector is not None:
                if semiring:
                    # Semiring CDC carries post-update values (differences
                    # are undefined without subtraction); zero = key gone.
                    collector[key] = new_value
                else:
                    collector[key] = ring.add(collector.get(key, ring.zero), value)
            if touched is not None and not ring.is_zero(value):
                touched.add(key)
            self.statistics.entries_updated += 1
            if ring.is_zero(new_value):
                if table.pop(key, None) is not None:
                    indexes.discard(target, key)
            else:
                if key not in table:
                    indexes.add(target, key)
                table[key] = new_value

    def _fold_increments_sharded(
        self,
        table: "ShardedMapTable",
        target: str,
        increments: MapTable,
        changes: Optional[Dict[str, MapTable]],
        tracked_sources: Optional[Dict[str, set]],
        serial: bool = False,
    ) -> None:
        """The sharded fold: route increments by key hash through the shard backend.

        Change-data-capture and tracked-source accumulation depend only on
        the increment map, so they are folded serially up front — sharded and
        unsharded sessions emit identical ``on_change`` payloads.  The slice
        indexes are bucketed by bound *prefix* (which does not respect the
        key-hash partition), so the fold journals its inserted/removed keys
        and the journal replays into the shared index afterwards.
        """
        if not increments:
            return
        ring = self.ring
        semiring = self._semiring
        counter = semiring and target in self._counter_maps
        if counter:
            ring = INTEGER_RING
        collector = None if changes is None else changes.get(target)
        touched = None if tracked_sources is None else tracked_sources.get(target)
        if collector is not None:
            if semiring:
                # Post-update values, read before the fold mutates the table
                # (each key folds exactly once per call, so old + increment
                # is the value the fold will store).
                zero = ring.zero
                for key, value in increments.items():
                    collector[key] = ring.add(table.get(key, zero), value)
            else:
                for key, value in increments.items():
                    collector[key] = ring.add(collector.get(key, ring.zero), value)
        if touched is not None:
            for key, value in increments.items():
                if not ring.is_zero(value):
                    touched.add(key)
        self.statistics.entries_updated += len(increments)
        journal = self.indexes.specs.get(target) is not None
        indexes = self.indexes
        sink = lambda added, removed: indexes.apply_journal(target, added, removed)  # noqa: E731
        if counter:
            # Counter folds run in ℤ whatever the session ring is.  The
            # process backend's workers fold with the session ring, so counter
            # maps fold inline on coordinator shards and never gain a worker
            # mirror — no staleness to track.
            fold_table_inline(table, increments, journal, self._shard_fold_inline_int, sink)
            return
        fold_sharded_table(
            table,
            increments,
            journal,
            self._shard_fold_inline,
            sink,
            force_inline=serial,
            name=target,
        )

    def _run_recompute(
        self,
        recompute: RecomputeStatement,
        changes: Optional[Dict[str, MapTable]],
        tracked_sources: Dict[str, set],
    ) -> None:
        """Execute one recompute statement: re-evaluate affected groups, fold diffs."""
        self.statistics.statements_executed += 1
        ring = self.ring
        semiring = self._semiring
        table = self.maps[recompute.target]
        maps = self._evaluation_maps()
        new_values: Dict[Tuple[Any, ...], Any] = {}
        affected: Iterable[Tuple[Any, ...]]
        if recompute.tracked:
            groups = set()
            for source, positions in recompute.source_projections:
                for key in tracked_sources.get(source, ()):
                    groups.add(tuple(key[position] for position in positions))

            def evaluate_group(group):
                group_bindings = Record.from_values(recompute.target_keys, group)
                result = evaluate(
                    recompute.as_aggregate(), self._environment, group_bindings, maps=maps
                )
                value = ring.zero
                for _record, part in result.items():
                    value = ring.add(value, part)
                return value

            # Every value is computed before any diff is applied, so the fold
            # below sees identical state at every shard count and backend.
            new_values = {group: evaluate_group(group) for group in groups}
            affected = new_values
        else:
            result = evaluate(recompute.as_aggregate(), self._environment, maps=maps)
            for record, value in result.items():
                key = record.values_for(recompute.target_keys)
                if key in new_values:
                    new_values[key] = ring.add(new_values[key], value)
                else:
                    new_values[key] = value
            affected = set(new_values) | set(table)

        indexes = self.indexes
        collector = None if changes is None else changes.get(recompute.target)
        touched = None if tracked_sources is None else tracked_sources.get(recompute.target)
        for key in affected:
            new_value = new_values.get(key, ring.zero)
            old_value = table.get(key, ring.zero)
            if new_value == old_value:
                continue
            self.statistics.entries_updated += 1
            if collector is not None:
                if semiring:
                    collector[key] = new_value
                else:
                    delta = ring.sub(new_value, old_value)
                    collector[key] = ring.add(collector.get(key, ring.zero), delta)
            if touched is not None:
                touched.add(key)
            if ring.is_zero(new_value):
                if table.pop(key, None) is not None:
                    indexes.discard(recompute.target, key)
            else:
                if key not in table:
                    indexes.add(recompute.target, key)
                table[key] = new_value

    def _evaluation_maps(self):
        """The ring evaluator's view of the map environment.

        Counter maps hold exact ℤ multiplicities; ring-valued statements and
        recompute bodies can join against them (base-relation copies), so
        their counts must read back as ``from_int`` images.  The view shares
        the underlying tables (and the attached slice indexes, whose buckets
        hold the same keys), so index-backed partially-bound reads keep their
        per-group cost; it is cached until a table object is replaced.
        """
        if not self._semiring or not self._counter_maps:
            return self.maps
        view = self._ring_view
        if view is None:
            view = IndexedMaps(self.maps, indexes=self.indexes)
            for name in self._counter_maps:
                counter = view.get(name)
                if counter is not None:
                    view[name] = _FromIntView(counter, self.ring)
            self._ring_view = view
        return view

    def apply_all(self, updates: Iterable[Update]) -> None:
        for update in updates:
            self.apply(update)

    # -- results -----------------------------------------------------------------------

    def lookup(self, map_name: str, *key: Any) -> Any:
        """The stored value of one map entry (0 when absent)."""
        return self.maps[map_name].get(tuple(key), self.ring.zero)

    def result(self) -> Any:
        """The maintained query result.

        A scalar for a query without group-by variables; otherwise a dict from
        group-key tuples to aggregate values.
        """
        definition = self.program.result_definition
        table = self.maps[self.program.result_map]
        if not definition.key_vars:
            return table.get((), self.ring.zero)
        return dict(table)

    def result_map_contents(self) -> MapTable:
        """A copy of the result map's raw contents (always a dict)."""
        return dict(self.maps[self.program.result_map])

    def total_map_entries(self) -> int:
        """Total number of stored entries across the whole hierarchy (space measure)."""
        return sum(len(table) for table in self.maps.values())

    def map_sizes(self) -> Dict[str, int]:
        """Entry counts per map (used by the factorization experiment)."""
        return {name: len(table) for name, table in self.maps.items()}

    def __repr__(self) -> str:
        return (
            f"TriggerRuntime(result={self.program.result_map!r}, "
            f"maps={len(self.maps)}, entries={self.total_map_entries()})"
        )

