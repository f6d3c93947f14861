"""Code generation: compiled triggers as straight-line Python (the "NC⁰C" analogue).

The paper compiles update triggers to a tiny fragment of C whose statements
only add and multiply fixed-size numbers and read/write individual map
entries.  This module performs the same compilation step targeting Python
source code: every trigger becomes a function of the update values that
manipulates plain dictionaries with a bounded amount of arithmetic per entry
touched.  The generated code contains no query operators — no joins, no
aggregation — just lookups, loops over map slices, additions and
multiplications, which is precisely the point of the paper's compilation
result.

Three properties of the generated module matter for the paper's cost claims:

* **Ring-generic arithmetic.**  Generation is parameterized by the coefficient
  :class:`~repro.algebra.semirings.Semiring`.  For the two structures whose
  operations are native Python arithmetic (``INTEGER_RING`` and
  ``FLOAT_FIELD``) the emitted code uses ``+``/``*``/literal ``0`` directly;
  for every other *ring* the emitted code routes through ``ring.add`` /
  ``ring.mul`` / ``ring.zero`` so that e.g. ``Fraction`` or operation-counting
  coefficients compute exactly what the interpreted backend computes.
  Structures without additive inverses (proper semirings) are compiled in
  *maintenance mode*: the program must carry a
  :class:`~repro.compiler.compile.MaintenancePlan` (``compile_query(...,
  ring=...)``), whose ℤ-valued counter maps fold with native integer
  arithmetic while ring-valued maps fold with the semiring's operations —
  counter-map and delta-map reads inside ring statements pass through
  ``ring.from_int``, change capture carries post-update values (differences
  are undefined without subtraction), and deletions lower to counter updates
  plus tracked/full recomputes exactly as in the interpreted runtime.  A
  proper semiring without a plan still raises :class:`CompilationError`.

* **Index-backed map slices.**  A map reference whose key variables are only
  partially bound at its point of use is compiled to a lookup in a secondary
  hash index (``repro.compiler.indexes``) instead of an O(|map|) scan of
  ``.items()``, keeping the per-update work proportional to the number of
  matching entries.  The generated apply loop maintains those indexes as
  entries are inserted and removed.

* **A batch-update path.**  ``apply_batch`` groups a batch of single-tuple
  updates by ``(relation, sign)``, pre-aggregates each group into a delta map
  ``∆R : values → multiplicity``, and dispatches it to a generated *batch
  trigger* compiled from the relation-valued delta of each map's definition
  (``repro.core.delta.BatchUpdateEvent``): every statement is one fold over
  the delta map joined against the existing maps, applied with one
  read-modify-write per distinct target key, and recompute statements run
  once per group.  Statements that are pure key projections of ``∆R`` (the
  base-copy shape) skip expression evaluation entirely.  The pre-batch-trigger
  path — grouped per-tuple replay with hoisted table lookups — is kept as
  ``apply_batch_replay``, the reference baseline the batch benchmark compares
  against and the fallback for events without a batch trigger.

* **Sharded folds.**  The shared ``_fold`` helper detects hash-partitioned
  tables (:class:`~repro.compiler.sharding.ShardedMapTable`) and delegates to
  a sharded fold (``_fold_sharded``, injected at module construction):
  increments routed by target-key hash through the table's shard backend,
  slice-index maintenance journalled by the fold.  Plain-dict map
  environments never reach the branch, so unsharded sessions keep the exact
  in-line fold loops.

In addition, the generated functions thread an optional change-collection
hook (``_CH``): a mapping from *watched* map names to accumulator dicts into
which every fold also ring-adds its increments.  This powers the
change-data-capture of ``on_change`` subscriptions (engine- and session-level)
at zero cost when no subscriber is attached — the hook is ``None`` and every
guard short-circuits.

The generated module is also useful practically: it is considerably faster
than interpreting trigger statements through the AGCA evaluator (see
``benchmarks/bench_update_cost_vs_size.py`` and
``benchmarks/bench_batch_updates.py`` for the comparisons).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, Semiring
from repro.compiler.cost import MAX_SPECIALIZED_EVENTS, trigger_specialization
from repro.compiler.indexes import IndexSpecs, SliceIndexes, compute_index_specs
from repro.compiler.sharding import ShardedMapTable, make_generated_fold_sharded
from repro.compiler.triggers import BatchTrigger, Statement, Trigger, TriggerProgram
from repro.core.ast import (
    Add,
    AggSum,
    Assign,
    Compare,
    Const,
    Expr,
    MapRef,
    Mul,
    Neg,
    Rel,
    Var,
)
from repro.core.errors import CompilationError
from repro.core.normalization import to_polynomial
from repro.core.simplify import order_for_safety

_PYTHON_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: How many cleared per-group delta-table buffers a generated module keeps
#: pooled between ``apply_batch`` calls (interpolated into the emitted
#: source), so a streaming flush loop does not rebuild one dict per
#: ``(relation, sign)`` group per flush.
DELTA_POOL_LIMIT = 8

#: Internal identifiers the name allocator must never hand out to AGCA variables.
_RESERVED_NAMES = (
    "maps", "values", "values_list", "relation", "sign", "updates",
    "_new", "_fkey", "_chm", "_CH", "_IDX", "_TRK", "_sk", "_key", "_old",
    "_delta", "_dk", "_dv", "_vals", "_total", "_y",
)


class _NameAllocator:
    """Maps AGCA variable names to unique, valid Python identifiers."""

    def __init__(self, reserved: Iterable[str] = _RESERVED_NAMES):
        self._names: Dict[str, str] = {}
        self._used = set(reserved)

    def reserve(self, name: str) -> None:
        self._used.add(name)

    def __call__(self, variable: str) -> str:
        if variable in self._names:
            return self._names[variable]
        candidate = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in variable)
        if not candidate or candidate[0].isdigit():
            candidate = "v_" + candidate
        base = candidate
        suffix = 0
        while candidate in self._used:
            suffix += 1
            candidate = f"{base}_{suffix}"
        self._used.add(candidate)
        self._names[variable] = candidate
        return candidate


class _Writer:
    """Accumulates indented source lines."""

    def __init__(self, indent: int = 0):
        self.lines: List[str] = []
        self.indent = indent

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def block(self) -> "_Writer":
        """Return self after increasing the indentation (used after emitting a header)."""
        self.indent += 1
        return self

    def dedent(self, levels: int = 1) -> None:
        self.indent -= levels


class _EmitContext:
    """Everything statement emission needs to know about the target module.

    ``native`` selects literal ``+``/``*``/``0`` arithmetic (exact for the
    built-in integer and float structures); otherwise the emitted code calls
    the ring-operation aliases bound in the module prologue.  ``specs`` are
    the index signatures of :func:`compute_index_specs`, consulted to decide
    whether a partially-bound map reference can use an index lookup.

    In semiring maintenance mode the master (ring) context carries three
    extras: ``counter_maps`` (the plan's ℤ-valued base-copy maps, folded with
    native arithmetic through the companion ``int_context``), ``int_sources``
    (maps whose stored values are integers — counter maps plus, inside a
    batch trigger, its delta map — that ring statements must read through
    ``ring.from_int``), and ``semiring`` (switches change capture to
    post-update values).
    """

    def __init__(self, writer: _Writer, ring: Semiring, native: bool, specs: IndexSpecs):
        self.writer = writer
        self.ring = ring
        self.native = native
        self.specs = specs
        self.semiring = False
        self.counter_maps: frozenset = frozenset()
        self.int_sources: frozenset = frozenset()
        self.int_context: Optional["_EmitContext"] = None
        self._constants: Dict[str, str] = {}

    # -- semiring-mode statement routing ------------------------------------

    def for_target(self, map_name: str) -> "_EmitContext":
        """The context whose arithmetic a statement targeting ``map_name`` uses."""
        if self.int_context is not None and map_name in self.counter_maps:
            return self.int_context
        return self

    def fold_name(self, map_name: str) -> str:
        """The fold helper for a statement targeting ``map_name``."""
        if self.int_context is not None and map_name in self.counter_maps:
            return "_fold_int"
        return "_fold"

    # -- ring-dependent fragments -------------------------------------------

    def zero_literal(self) -> str:
        return "0" if self.native else "_ZERO"

    def folded_add(self, left: str, right: str) -> str:
        if self.native:
            return f"{left} + {right}"
        return f"_add({left}, {right})"

    def folded_sub(self, left: str, right: str) -> str:
        if self.native:
            return f"{left} - {right}"
        return f"_sub({left}, {right})"

    def nonzero_guard(self, expression: str) -> str:
        if self.native:
            return f"if {expression} != 0:"
        return f"if not _is_zero({expression}):"

    def coerced(self, expression: str) -> str:
        """A data value used as a multiplicity (mirrors the evaluator's coercion)."""
        if self.native:
            return expression
        return f"_coerce({expression})"

    def constant(self, value: Any) -> str:
        """A module-level constant holding ``value`` in the coefficient structure."""
        if self.native:
            return repr(value)
        key = repr(value)
        name = self._constants.get(key)
        if name is None:
            name = f"_C{len(self._constants)}"
            self._constants[key] = name
        return name

    def value_product(self, coefficient: Any, value_terms: List[str]) -> str:
        """The increment expression ``coefficient * t1 * ... * tn``."""
        if self.native:
            if not value_terms:
                return repr(coefficient)
            product = " * ".join(value_terms)
            if coefficient == 1:
                return product
            if coefficient == -1:
                return f"-({product})"
            return f"{coefficient!r} * {product}"
        if not value_terms:
            if self.semiring:
                # A bare multiplicity: n identical tuples contribute
                # one ⊕ ... ⊕ one = from_int(n), not coerce(n) (those
                # differ for min-plus and friends).
                return "_ONE" if coefficient == 1 else f"_from_int({coefficient!r})"
            return self.constant(coefficient)
        product = value_terms[0]
        for term in value_terms[1:]:
            product = f"_mul({product}, {term})"
        if coefficient == 1:
            return product
        if coefficient == -1:
            return f"_neg({product})"
        if self.semiring:
            return f"_mul(_from_int({coefficient!r}), {product})"
        return f"_mul({self.constant(coefficient)}, {product})"

    def emit_constant_definitions(self) -> None:
        for literal, name in self._constants.items():
            self.writer.emit(f"{name} = _coerce({literal})")


class GeneratedTriggers:
    """The result of code generation: Python source plus the executable namespace.

    The module's arithmetic is fixed to the ``ring`` used at generation time;
    :class:`~repro.ivm.recursive.RecursiveIVM` regenerates when constructed
    over a different coefficient structure.  ``index_specs`` describes the
    secondary slice indexes the generated code expects (and maintains); when
    the caller does not supply a :class:`SliceIndexes` — directly or attached
    to the map environment (:class:`~repro.compiler.indexes.IndexedMaps`) —
    one is built and kept per map environment automatically.
    """

    def __init__(
        self,
        program: TriggerProgram,
        source: str,
        ring: Semiring = INTEGER_RING,
        index_specs: Optional[IndexSpecs] = None,
    ):
        self.program = program
        self.source = source
        self.ring = ring
        self.index_specs: IndexSpecs = dict(index_specs or {})
        self._required_signatures = {
            (name, positions)
            for name, all_positions in self.index_specs.items()
            for positions in all_positions
        }
        self._namespace: Dict[str, Any] = {
            "_RING": ring,
            # Sharded map tables (repro.compiler.sharding): the generated
            # _fold delegates to _fold_sharded when its target table is
            # hash-partitioned; plain-dict environments never hit the branch.
            "_SHARDED": ShardedMapTable,
            "_fold_sharded": make_generated_fold_sharded(ring),
            # Counter maps of a semiring maintenance plan fold over ℤ on
            # coordinator shards regardless of the session ring or the
            # partition tier's backend (process workers fold with the
            # session ring); unused by pure-ring modules.
            "_fold_sharded_int": make_generated_fold_sharded(INTEGER_RING, local=True),
            # The specialized apply_batch groups the whole batch with one
            # C-level Counter.update over (relation, sign, values) triples.
            "_Counter": Counter,
        }
        exec(compile(source, f"<generated triggers for {program.result_map}>", "exec"), self._namespace)
        self._stats: Dict[str, int] = self._namespace["_STATS"]
        self._apply_update = self._namespace["apply_update"]
        self._apply_batch = self._namespace["apply_batch"]
        self._apply_batch_replay = self._namespace["apply_batch_replay"]
        self._own_indexes: Optional[SliceIndexes] = None
        self._own_maps: Optional[Dict[str, Dict[Tuple[Any, ...], Any]]] = None
        self._own_counts: Dict[str, int] = {}

    # -- update application ---------------------------------------------------

    def apply(
        self,
        maps: Dict[str, Dict[Tuple[Any, ...], Any]],
        relation: str,
        sign: int,
        values: Tuple[Any, ...],
        indexes: Optional[SliceIndexes] = None,
        changes: Optional[Dict[str, Dict[Tuple[Any, ...], Any]]] = None,
    ) -> None:
        """Run the generated trigger for one update event against the given maps.

        ``changes`` optionally maps watched map names to accumulators that
        receive the per-key deltas this update causes in those maps (the
        change-data-capture hook used by ``on_change`` subscriptions).
        """
        data = self._index_data(maps, indexes)
        self._apply_update(maps, relation, sign, tuple(values), data, changes)
        self._note_own_counts(maps, data)

    def apply_batch(
        self,
        maps: Dict[str, Dict[Tuple[Any, ...], Any]],
        updates: Iterable[Any],
        indexes: Optional[SliceIndexes] = None,
        changes: Optional[Dict[str, Dict[Tuple[Any, ...], Any]]] = None,
    ) -> Optional[int]:
        """Apply a batch of updates through the generated batch triggers.

        The batch is grouped by ``(relation, sign)``, each group is
        pre-aggregated into a delta map, and the group's batch trigger folds
        it once — one read-modify-write per distinct target key.  Equivalent
        to applying the updates one at a time (the batch statements include
        the delta's higher-order interaction terms); events without a batch
        trigger fall back to grouped per-tuple replay.  ``changes`` collects
        per-key deltas of watched maps across the whole batch, as in
        :meth:`apply`.

        Returns the batch's logical tuple count (``sum(update.count)``) when
        the specialized batch path computed it anyway, ``None`` from the
        generic loop — callers needing the count then sum it themselves.
        """
        data = self._index_data(maps, indexes)
        count = self._apply_batch(maps, updates, data, changes)
        self._note_own_counts(maps, data)
        return count

    def apply_batch_replay(
        self,
        maps: Dict[str, Dict[Tuple[Any, ...], Any]],
        updates: Iterable[Any],
        indexes: Optional[SliceIndexes] = None,
        changes: Optional[Dict[str, Dict[Tuple[Any, ...], Any]]] = None,
    ) -> None:
        """Apply a batch by grouped per-tuple replay (the pre-batch-trigger path).

        One full trigger execution per tuple with dispatch and table lookups
        amortized per ``(relation, sign)`` group — the reference baseline the
        batch-update benchmark compares the batch triggers against.
        """
        data = self._index_data(maps, indexes)
        self._apply_batch_replay(maps, updates, data, changes)
        self._note_own_counts(maps, data)

    def _index_data(self, maps, indexes: Optional[SliceIndexes]):
        """The raw index storage to hand the generated code (``None`` if unneeded)."""
        if not self.index_specs:
            return None
        if indexes is None:
            indexes = getattr(maps, "indexes", None)
        if indexes is not None and self._required_signatures <= indexes.data.keys():
            return indexes.data
        # No usable index supplied: maintain a private one per map environment.
        # The cache is invalidated when a different maps object shows up or
        # when an indexed table's entry count changed outside our own applies
        # (e.g. the caller re-bootstrapped or cleared the maps); a same-size
        # external rewrite is not detectable this way, so callers that mutate
        # tables directly should pass their own SliceIndexes.
        if (
            self._own_maps is not maps
            or self._own_indexes is None
            or any(
                len(maps.get(name, ())) != self._own_counts.get(name, 0)
                for name in self.index_specs
            )
        ):
            self._own_indexes = SliceIndexes(self.index_specs)
            self._own_indexes.rebuild(maps)
            self._own_maps = maps
            self._record_own_counts(maps)
        return self._own_indexes.data

    def _note_own_counts(self, maps, data) -> None:
        """After an apply through the private index, remember the table sizes."""
        if data is not None and self._own_indexes is not None and data is self._own_indexes.data:
            self._record_own_counts(maps)

    def _record_own_counts(self, maps) -> None:
        self._own_counts = {name: len(maps.get(name, ())) for name in self.index_specs}

    # -- statistics ------------------------------------------------------------

    def statistics(self) -> Dict[str, int]:
        """Cumulative ``statements`` / ``entries`` counters of the module."""
        return dict(self._stats)

    def drain_statistics(self) -> Tuple[int, int]:
        """Return ``(statements_executed, entries_updated)`` since the last drain."""
        stats = self._stats
        result = (stats["statements"], stats["entries"])
        stats["statements"] = 0
        stats["entries"] = 0
        return result

    def trigger_function_names(self) -> List[str]:
        return [name for name in self._namespace if name.startswith("on_")]

    def reset_compensation(self, state: Optional[Dict[str, float]] = None) -> None:
        """Clear the Kahan compensation state of the fused float totals.

        Called by the engine whenever tables are rewritten wholesale
        (restore / re-bootstrap): the compensation terms describe rounding
        error of sums that no longer exist.  ``state``, a copy taken with
        :meth:`compensation_state` alongside a table backup, is reinstalled
        instead — a rolled-back batch must leave the carry exactly as it
        found it.  A no-op for modules without the float fused-total
        specialization.
        """
        compensation = self._namespace.get("_KC")
        if compensation is not None:
            compensation.clear()
            if state:
                compensation.update(state)

    def compensation_state(self) -> Dict[str, float]:
        """A copy of the fused float totals' Kahan carry (empty without one)."""
        return dict(self._namespace.get("_KC") or {})

    @property
    def specializations(self) -> Dict[Tuple[str, int], str]:
        """Per-event specialization classes of the emitted batch path.

        ``(relation, sign) -> "total" | "counter"`` for every batch trigger
        when the module was generated with specialization on; empty when the
        generic grouping loop was emitted instead.
        """
        return dict(self._namespace.get("_SPECIALIZED", {}))


def generate_python(
    program: TriggerProgram,
    ring: Semiring = INTEGER_RING,
    specialize: bool = True,
) -> GeneratedTriggers:
    """Generate a Python module implementing the program's triggers over ``ring``.

    ``specialize`` controls the hot-loop batch specialization (default on;
    ``False`` emits the generic grouping loop, the reference the equivalence
    tests and the E14 benchmark compare the fast paths against — the
    interpreted :class:`~repro.compiler.runtime.TriggerRuntime` has no fast
    paths at all).  Over the integer ring the emitted ``apply_batch``
    unrolls into one statically-addressed slice per trigger event —
    all-total events (every statement a bare-count fold) sum their net tuple
    count with a C-level filtered comprehension and dispatch a fused
    ``total_batch_*`` function with no delta table at all, the rest count
    their value tuples with a C-level ``Counter.update``.  Programs
    wider than :data:`~repro.compiler.cost.MAX_SPECIALIZED_EVENTS` events
    keep the generic single-pass grouping loop (one filtered pass per event
    would walk the batch too often).

    Over the float field a restricted specialization applies: when *every*
    trigger event of the program fuses to an all-total batch trigger (each
    statement a bare-count fold onto a nullary key), the fused path is
    emitted with Kahan-compensated accumulation — a per-target running
    compensation term (``_KC``) recovers the low-order bits each ``+=``
    drops, so long streams of fused totals track ``math.fsum`` accuracy at
    straight accumulation speed.  Any non-total float event keeps the
    generic grouping loop, whose accumulation order is fixed.

    Raises
    ------
    CompilationError
        When ``ring`` is a proper semiring (no additive inverse) and the
        program carries no maintenance plan: deletion triggers multiply by
        ``-1``, which such structures cannot represent.  Recompile with
        ``compile_query(..., ring=ring)`` so the plan lowers deletions to
        counter updates, recomputes and support structures.
    """
    semiring_mode = not ring.is_ring
    if semiring_mode:
        plan = program.maintenance
        if plan is None:
            raise CompilationError(
                f"the generated backend requires a coefficient ring with additive "
                f"inverses, but {ring.name!r} is a proper semiring and the program "
                f"carries no maintenance plan; recompile the query with "
                f"ring={ring.name!r} so deletions lower to counter updates and "
                f"recomputes (or use the interpreted backend the same way)"
            )
        if plan.ring_name != ring.name:
            raise CompilationError(
                f"the program's maintenance plan was compiled for ring "
                f"{plan.ring_name!r}; cannot generate {ring.name!r} triggers from it"
            )
    native = ring is INTEGER_RING or ring is FLOAT_FIELD
    # Specialization is an int-multiplicity optimization: Counter counting
    # and fused integer totals are exact over ℤ; other rings keep the
    # generic grouping loop — except the float field's all-total programs,
    # which fuse with Kahan compensation (checked below once the batch
    # triggers are known).
    specialized = ring is INTEGER_RING and specialize
    specs = compute_index_specs(program)

    writer = _Writer()
    context = _EmitContext(writer, ring, native, specs)
    if semiring_mode:
        counter_maps = frozenset(program.maintenance.counter_maps)
        context.semiring = True
        context.counter_maps = counter_maps
        context.int_sources = counter_maps
        int_context = _EmitContext(writer, INTEGER_RING, True, specs)
        int_context.semiring = True
        int_context.counter_maps = counter_maps
        context.int_context = int_context

    ordered_triggers = sorted(program.triggers.items(), key=lambda item: (item[0][0], -item[0][1]))
    ordered_batch = sorted(
        program.batch_triggers.items(), key=lambda item: (item[0][0], -item[0][1])
    )
    replay_only = [
        (event, trigger)
        for event, trigger in ordered_triggers
        if event not in program.batch_triggers
    ]
    # Float fused totals: specialize only when the whole program fuses —
    # every event an all-total batch trigger — so the sole accumulation
    # order in play is the Kahan-compensated scalar sum, which is strictly
    # more accurate than the generic loop's left-to-right folds.
    kahan = False
    if ring is FLOAT_FIELD and specialize:
        kahan = (
            bool(ordered_batch)
            and not replay_only
            and len(ordered_batch) <= MAX_SPECIALIZED_EVENTS
            and all(
                trigger_specialization(batch_trigger) == "total"
                and all(
                    specs.get(statement.target) is None
                    for statement in batch_trigger.statements
                )
                for _event, batch_trigger in ordered_batch
            )
        )
        specialized = kahan

    writer.emit('"""Generated trigger code — see repro.compiler.codegen."""')
    writer.emit("")
    writer.emit('_STATS = {"statements": 0, "entries": 0}')
    writer.emit("_NO_KEYS = ()")
    writer.emit("# Cleared per-group delta-map scratch dicts, reused across apply_batch")
    writer.emit("# calls so a streaming flush loop does not rebuild one dict per group")
    writer.emit("# per flush.  Safe: batch triggers never retain their _delta argument")
    writer.emit("# (the base-copy fast path takes dict(_delta)).")
    writer.emit("_DELTA_POOL = []")
    if kahan:
        writer.emit("# Per-target Kahan compensation for the fused float totals; cleared")
        writer.emit("# by the engine when tables are rewritten wholesale (restore/bootstrap).")
        writer.emit("_KC = {}")
    if not native:
        writer.emit("_ZERO = _RING.zero")
        writer.emit("_ONE = _RING.one")
        writer.emit("_add = _RING.add")
        writer.emit("_sub = _RING.sub")
        writer.emit("_mul = _RING.mul")
        writer.emit("_neg = _RING.neg")
        writer.emit("_coerce = _RING.coerce")
        writer.emit("_is_zero = _RING.is_zero")
        writer.emit("_from_int = _RING.from_int")
    writer.emit("")
    _emit_index_helpers(writer)
    _emit_fold(context)
    if semiring_mode:
        # The companion fold for ℤ-valued counter maps: native arithmetic,
        # sharded dispatch pinned to coordinator shards (_fold_sharded_int).
        _emit_fold(context.int_context, name="_fold_int", sharded="_fold_sharded_int")
    if any(trigger.recomputes for trigger in program.triggers.values()):
        _emit_recompute_apply(context)

    dispatch_entries = []
    replay_entries = []
    batch_entries = []
    for (relation, sign), trigger in ordered_triggers:
        dispatch_entries.append(f"    ({relation!r}, {sign}): {trigger.event_name},")
        replay_entries.append(f"    ({relation!r}, {sign}): replay_{trigger.event_name},")
        _generate_trigger(context, trigger)
        writer.emit("")
        _generate_replay_trigger(context, trigger)
        writer.emit("")
    if specialized and len(ordered_batch) + len(replay_only) > MAX_SPECIALIZED_EVENTS:
        specialized = False
    total_entries = []
    specialized_entries = []
    batch_plan = []
    for (relation, sign), batch_trigger in ordered_batch:
        batch_entries.append(f"    ({relation!r}, {sign}): batch_{batch_trigger.event_name},")
        _generate_batch_delta_trigger(context, batch_trigger)
        writer.emit("")
        if specialized:
            # An event fuses to pure integer accumulation only when every
            # statement is a bare-count fold onto an unindexed scalar entry
            # (nullary target keys can't carry slice indexes, but stay
            # defensive) and nothing needs the delta table afterwards.
            fusable = trigger_specialization(batch_trigger) == "total" and all(
                context.specs.get(statement.target) is None
                for statement in batch_trigger.statements
            )
            if fusable:
                total_entries.append(
                    f"    ({relation!r}, {sign}): total_batch_{batch_trigger.event_name},"
                )
                specialized_entries.append(f"    ({relation!r}, {sign}): 'total',")
                _generate_total_batch_trigger(context, batch_trigger, kahan=kahan)
                writer.emit("")
                batch_plan.append(
                    ("total", (relation, sign), f"total_batch_{batch_trigger.event_name}")
                )
            else:
                specialized_entries.append(f"    ({relation!r}, {sign}): 'counter',")
                batch_plan.append(
                    ("counter", (relation, sign), f"batch_{batch_trigger.event_name}")
                )
    if specialized:
        for event, trigger in replay_only:
            batch_plan.append(("replay", event, f"replay_{trigger.event_name}"))

    writer.emit("TRIGGERS = {")
    for entry in dispatch_entries:
        writer.emit(entry)
    writer.emit("}")
    writer.emit("")
    writer.emit("REPLAY_TRIGGERS = {")
    for entry in replay_entries:
        writer.emit(entry)
    writer.emit("}")
    writer.emit("")
    writer.emit("BATCH_TRIGGERS = {")
    for entry in batch_entries:
        writer.emit(entry)
    writer.emit("}")
    writer.emit("")
    writer.emit("TOTAL_TRIGGERS = {")
    for entry in total_entries:
        writer.emit(entry)
    writer.emit("}")
    writer.emit("")
    writer.emit("_SPECIALIZED = {")
    for entry in specialized_entries:
        writer.emit(entry)
    writer.emit("}")
    writer.emit("")
    writer.emit(f"_INDEX_SPECS = {specs!r}")
    writer.emit("")
    writer.emit("def apply_update(maps, relation, sign, values, _IDX=None, _CH=None):")
    writer.emit("    _trigger = TRIGGERS.get((relation, sign))")
    writer.emit("    if _trigger is not None:")
    writer.emit("        _trigger(maps, values, _IDX, _CH)")
    writer.emit("")
    writer.emit("def _group_by_event(updates):")
    writer.emit("    # Net multiplicities (Update.count > 1, the coalesced compact")
    writer.emit("    # form) expand back into repeats here: replay triggers run one")
    writer.emit("    # full trigger execution per logical tuple.")
    writer.emit("    _groups = {}")
    writer.emit("    for _update in updates:")
    writer.emit("        _event = (_update.relation, _update.sign)")
    writer.emit("        _group = _groups.get(_event)")
    writer.emit("        if _group is None:")
    writer.emit("            _group = _groups[_event] = []")
    writer.emit("        if _update.count == 1:")
    writer.emit("            _group.append(_update.values)")
    writer.emit("        else:")
    writer.emit("            _group.extend((_update.values,) * _update.count)")
    writer.emit("    return _groups")
    writer.emit("")
    if specialized:
        _emit_specialized_apply_batch(writer, batch_plan)
    else:
        # Semiring maintenance builds ℤ-count delta maps (ring statements
        # read them through _from_int), so the native pre-aggregation applies.
        _emit_generic_apply_batch(writer, native or semiring_mode, semiring=semiring_mode)
    writer.emit("def apply_batch_replay(maps, updates, _IDX=None, _CH=None):")
    if semiring_mode:
        writer.emit("    # Insert groups replay before delete groups (see apply_batch).")
        writer.emit("    _ordered = sorted(_group_by_event(updates).items(), key=lambda _g: -_g[0][1])")
        writer.emit("    for _event, _values_list in _ordered:")
    else:
        writer.emit("    for _event, _values_list in _group_by_event(updates).items():")
    writer.emit("        _trigger = REPLAY_TRIGGERS.get(_event)")
    writer.emit("        if _trigger is not None:")
    writer.emit("            _trigger(maps, _values_list, _IDX, _CH)")
    writer.emit("")
    context.emit_constant_definitions()
    source = "\n".join(writer.lines) + "\n"
    return GeneratedTriggers(program, source, ring=ring, index_specs=specs)


# ---------------------------------------------------------------------------
# Module-level runtime helpers (emitted once per generated module)
# ---------------------------------------------------------------------------


def _emit_generic_apply_batch(writer: _Writer, native: bool, semiring: bool = False) -> None:
    """The generic grouping loop: one Python-level fold per update tuple.

    In semiring mode every insert event — batch fold or replay — processes
    before any delete event: a batch may delete a row the same batch
    inserts, and delete-event recomputes read the ℤ counter maps through
    ``from_int``, which has no image for transiently negative counts.  Over
    a ring the event order cannot be observed, so the first-seen order is
    kept there.
    """
    writer.emit("def apply_batch(maps, updates, _IDX=None, _CH=None):")
    writer.emit("    # Pre-aggregate straight into per-event delta maps; only events")
    writer.emit("    # without a batch trigger keep a values list for replay.")
    writer.emit("    _groups = {}")
    writer.emit("    _replays = {}")
    writer.emit("    for _update in updates:")
    writer.emit("        _event = (_update.relation, _update.sign)")
    writer.emit("        if _event in BATCH_TRIGGERS:")
    writer.emit("            _delta = _groups.get(_event)")
    writer.emit("            if _delta is None:")
    writer.emit(
        "                _delta = _groups[_event] = "
        "_DELTA_POOL.pop() if _DELTA_POOL else {}"
    )
    writer.emit("            _vals = _update.values")
    if native:
        writer.emit("            _delta[_vals] = _delta.get(_vals, 0) + _update.count")
    else:
        writer.emit("            _count = _update.count")
        writer.emit(
            "            _delta[_vals] = _add(_delta.get(_vals, _ZERO), "
            "_ONE if _count == 1 else _from_int(_count))"
        )
    writer.emit("        else:")
    writer.emit("            _group = _replays.get(_event)")
    writer.emit("            if _group is None:")
    writer.emit("                _group = _replays[_event] = []")
    writer.emit("            if _update.count == 1:")
    writer.emit("                _group.append(_update.values)")
    writer.emit("            else:")
    writer.emit("                _group.extend((_update.values,) * _update.count)")
    phase_indent = ""
    if semiring:
        writer.emit("    for _phase_sign in (1, -1):")
        phase_indent = "    "
    writer.emit(f"    {phase_indent}for _event, _delta in _groups.items():")
    if semiring:
        writer.emit(f"        {phase_indent}if _event[1] != _phase_sign:")
        writer.emit(f"            {phase_indent}continue")
    if not native:
        # Drop ring-zero entries in place so the pooled buffer identity
        # survives filtering (within one same-sign group ℤ/float counts can
        # never cancel, but a finite ring's from_int can wrap to zero).
        writer.emit(f"        {phase_indent}_dead = [_k for _k, _v in _delta.items() if _is_zero(_v)]")
        writer.emit(f"        {phase_indent}for _k in _dead:")
        writer.emit(f"            {phase_indent}del _delta[_k]")
    writer.emit(f"        {phase_indent}if _delta:")
    writer.emit(f"            {phase_indent}BATCH_TRIGGERS[_event](maps, _delta, _IDX, _CH)")
    writer.emit(f"        {phase_indent}_delta.clear()")
    writer.emit(f"        {phase_indent}if len(_DELTA_POOL) < {DELTA_POOL_LIMIT}:")
    writer.emit(f"            {phase_indent}_DELTA_POOL.append(_delta)")
    writer.emit(f"    {phase_indent}for _event, _values_list in _replays.items():")
    if semiring:
        writer.emit(f"        {phase_indent}if _event[1] != _phase_sign:")
        writer.emit(f"            {phase_indent}continue")
    writer.emit(f"        {phase_indent}_trigger = REPLAY_TRIGGERS.get(_event)")
    writer.emit(f"        {phase_indent}if _trigger is not None:")
    writer.emit(f"            {phase_indent}_trigger(maps, _values_list, _IDX, _CH)")
    writer.emit("")


def _emit_specialized_apply_batch(writer: _Writer, batch_plan) -> None:
    """The ℤ-specialized batch loop: one statically-unrolled slice per event.

    ``batch_plan`` lists every trigger event of the program with its
    specialization kind and dispatch function, so the emitted ``apply_batch``
    carries no per-update Python loop at all: each event slices the batch
    with one C-level filtered comprehension — a fused total sums net tuple
    counts, a counter event counts value tuples through ``Counter.update``,
    a replay-only event collects its values list.  Compact updates
    (``count > 1``) cost a fix-up pass only when actually present.  Events
    execute in static plan order rather than the generic loop's first-seen
    batch order, which cannot be observed: each event's fold is exact
    against the state it sees, so the final state and the CDC net deltas are
    the same under any event order.
    """
    writer.emit("def apply_batch(maps, updates, _IDX=None, _CH=None):")
    writer.emit("    if type(updates) is not list:")
    writer.emit("        updates = list(updates)")
    writer.emit("    if not updates:")
    writer.emit("        return 0")
    writer.emit("    # Returned so the engine layer reuses the tuple count for its")
    writer.emit("    # statistics instead of walking the batch again.")
    writer.emit("    _n = sum([_u.count for _u in updates])")
    if any(kind != "total" for kind, _, _ in batch_plan):
        # Fused totals sum ``count`` directly and never need the flag.
        writer.emit("    _compact = _n != len(updates)")
    for kind, (relation, sign), function in batch_plan:
        cond = f"_u.sign == {sign} and _u.relation == {relation!r}"
        if kind == "total":
            writer.emit(f"    _t = sum([_u.count for _u in updates if {cond}])")
            writer.emit("    if _t:")
            writer.emit(f"        {function}(maps, _t, _IDX, _CH)")
        elif kind == "counter":
            writer.emit("    _d = _Counter()")
            writer.emit(f"    _d.update([_u.values for _u in updates if {cond}])")
            writer.emit("    if _compact:")
            writer.emit("        for _u in updates:")
            writer.emit(f"            if {cond} and _u.count != 1:")
            writer.emit("                _d[_u.values] += _u.count - 1")
            writer.emit("    if _d:")
            writer.emit(f"        {function}(maps, _d, _IDX, _CH)")
        else:  # replay-only event: expand to a per-tuple values list
            writer.emit("    if _compact:")
            writer.emit("        _lst = []")
            writer.emit("        for _u in updates:")
            writer.emit(f"            if {cond}:")
            writer.emit("                _c = _u.count")
            writer.emit("                if _c == 1:")
            writer.emit("                    _lst.append(_u.values)")
            writer.emit("                else:")
            writer.emit("                    _lst.extend((_u.values,) * _c)")
            writer.emit("    else:")
            writer.emit(f"        _lst = [_u.values for _u in updates if {cond}]")
            writer.emit("    if _lst:")
            writer.emit(f"        {function}(maps, _lst, _IDX, _CH)")
    writer.emit("    return _n")
    writer.emit("")


def _emit_index_helpers(writer: _Writer) -> None:
    writer.emit("def _index_add(_IDX, _specs, _name, _key):")
    writer.emit("    for _positions in _specs:")
    writer.emit("        _bucket = _IDX[(_name, _positions)]")
    writer.emit("        _prefix = tuple(_key[_i] for _i in _positions)")
    writer.emit("        _entry = _bucket.get(_prefix)")
    writer.emit("        if _entry is None:")
    writer.emit("            _bucket[_prefix] = {_key}")
    writer.emit("        else:")
    writer.emit("            _entry.add(_key)")
    writer.emit("")
    writer.emit("def _index_discard(_IDX, _specs, _name, _key):")
    writer.emit("    for _positions in _specs:")
    writer.emit("        _bucket = _IDX[(_name, _positions)]")
    writer.emit("        _prefix = tuple(_key[_i] for _i in _positions)")
    writer.emit("        _entry = _bucket.get(_prefix)")
    writer.emit("        if _entry is not None:")
    writer.emit("            _entry.discard(_key)")
    writer.emit("            if not _entry:")
    writer.emit("                del _bucket[_prefix]")
    writer.emit("")


def _emit_fold(
    context: _EmitContext, name: str = "_fold", sharded: str = "_fold_sharded"
) -> None:
    """The shared fold step: apply one statement's accumulated increments.

    In semiring mode the change-capture accumulator receives *post-update*
    values (``old ⊕ delta``, read before the fold mutates the table — each
    key folds exactly once per call, so that is the value the fold stores);
    differences are undefined without subtraction, and the session layer's
    subscribers treat ring zero as "key removed".
    """
    writer = context.writer
    zero = context.zero_literal()
    new_value = context.folded_add("_table.get(_key, " + zero + ")", "_delta")
    if context.semiring:
        change_value = new_value
    else:
        change_value = context.folded_add("_chm.get(_key, " + zero + ")", "_delta")
    if context.native:
        is_zero = "_new == 0"
        delta_nonzero = "_delta != 0"
    else:
        is_zero = "_is_zero(_new)"
        delta_nonzero = "not _is_zero(_delta)"
    writer.emit(f"def {name}(_table, _acc, _name, _specs, _IDX, _CH=None, _trk=None, _serial=False):")
    writer.emit("    if not _acc:")
    writer.emit("        return")
    writer.emit('    _STATS["entries"] += len(_acc)')
    writer.emit("    if _CH is not None:")
    writer.emit("        _chm = _CH.get(_name)")
    writer.emit("        if _chm is not None:")
    writer.emit("            for _key, _delta in _acc.items():")
    writer.emit(f"                _chm[_key] = {change_value}")
    writer.emit("    if _trk is not None:")
    writer.emit("        for _key, _delta in _acc.items():")
    writer.emit(f"            if {delta_nonzero}:")
    writer.emit("                _trk.add(_key)")
    writer.emit("    if type(_table) is _SHARDED:")
    writer.emit("        # Hash-partitioned table: the fold runs through the table's shard")
    writer.emit("        # backend (inline unless large enough for process workers and not")
    writer.emit("        # forced serial by the shard-race detector), index maintenance")
    writer.emit("        # journalled by the fold.")
    writer.emit(f"        {sharded}(_table, _acc, _name, _specs, _IDX, _serial)")
    writer.emit("        return")
    writer.emit("    if _IDX is None or _specs is None:")
    writer.emit("        for _key, _delta in _acc.items():")
    writer.emit(f"            _new = {new_value}")
    writer.emit(f"            if {is_zero}:")
    writer.emit("                _table.pop(_key, None)")
    writer.emit("            else:")
    writer.emit("                _table[_key] = _new")
    writer.emit("        return")
    writer.emit("    for _key, _delta in _acc.items():")
    writer.emit(f"        _new = {new_value}")
    writer.emit(f"        if {is_zero}:")
    writer.emit("            if _table.pop(_key, None) is not None:")
    writer.emit("                _index_discard(_IDX, _specs, _name, _key)")
    writer.emit("        else:")
    writer.emit("            if _key not in _table:")
    writer.emit("                _index_add(_IDX, _specs, _name, _key)")
    writer.emit("            _table[_key] = _new")
    writer.emit("")


def _emit_recompute_apply(context: _EmitContext) -> None:
    """The per-entry diff fold used by recompute statements.

    ``_new`` is the freshly re-evaluated value of one target entry; the helper
    compares it with the stored value and, when they differ, maintains the
    table, the slice indexes, the change-capture accumulator (with the
    *difference*, so subscribers see deltas) and the tracked-change set read
    by shallower recomputes of the same event.
    """
    writer = context.writer
    zero = context.zero_literal()
    if context.semiring:
        # Post-update value CDC (recomputes target ring maps only); the zero
        # is the "group removed" marker for subscribers.
        change_value = "_new"
    else:
        delta = context.folded_sub("_new", "_old")
        change_value = context.folded_add("_chm.get(_key, " + zero + ")", delta)
    if context.native:
        is_zero = "_new == 0"
    else:
        is_zero = "_is_zero(_new)"
    writer.emit("def _rapply(_table, _key, _new, _name, _specs, _IDX, _CH, _trk):")
    writer.emit(f"    _old = _table.get(_key, {zero})")
    writer.emit("    if _new == _old:")
    writer.emit("        return")
    writer.emit('    _STATS["entries"] += 1')
    writer.emit("    if _CH is not None:")
    writer.emit("        _chm = _CH.get(_name)")
    writer.emit("        if _chm is not None:")
    writer.emit(f"            _chm[_key] = {change_value}")
    writer.emit("    if _trk is not None:")
    writer.emit("        _trk.add(_key)")
    writer.emit(f"    if {is_zero}:")
    writer.emit("        if _table.pop(_key, None) is not None and _IDX is not None and _specs is not None:")
    writer.emit("            _index_discard(_IDX, _specs, _name, _key)")
    writer.emit("    else:")
    writer.emit("        if _key not in _table and _IDX is not None and _specs is not None:")
    writer.emit("            _index_add(_IDX, _specs, _name, _key)")
    writer.emit("        _table[_key] = _new")
    writer.emit("")


# ---------------------------------------------------------------------------
# Trigger / statement generation
# ---------------------------------------------------------------------------


def _spec_literal(context: _EmitContext, map_name: str) -> str:
    positions = context.specs.get(map_name)
    return repr(positions) if positions else "None"


def _tracked_source_maps(trigger: Trigger) -> Tuple[str, ...]:
    """Maps whose per-event changed keys the trigger's recomputes consume."""
    names: Dict[str, None] = {}
    for recompute in trigger.recomputes:
        for source, _positions in recompute.source_projections or ():
            names[source] = None
    return tuple(names)


def _generate_trigger(context: _EmitContext, trigger: Trigger) -> None:
    writer = context.writer
    names = _NameAllocator()
    counter = [0]
    tracked_maps = _tracked_source_maps(trigger)
    writer.emit(f"def {trigger.event_name}(maps, values, _IDX=None, _CH=None):")
    writer.block()
    writer.emit(f'_STATS["statements"] += {len(trigger.statements) + len(trigger.recomputes)}')
    if trigger.argument_names:
        unpack = ", ".join(names(argument) for argument in trigger.argument_names)
        trailing = "," if len(trigger.argument_names) == 1 else ""
        writer.emit(f"{unpack}{trailing} = values")
    if tracked_maps:
        writer.emit(f"_TRK = {{_n: set() for _n in {tracked_maps!r}}}")
    table_ref = lambda name: f"maps[{name!r}]"  # noqa: E731
    _generate_trigger_body(context, trigger, names, table_ref, tracked_maps, counter)
    _generate_recomputes(context, trigger, names, table_ref, tracked_maps, counter)
    writer.dedent()


def _collect_table_locals(
    trigger, names: _NameAllocator, skip: Tuple[str, ...] = ()
) -> Tuple[Dict[str, str], List[str]]:
    """Hoisted map-table locals for every map a trigger's statements touch."""
    table_locals: Dict[str, str] = {}
    touched: List[str] = []
    reads: List[str] = []
    for statement in trigger.statements:
        reads.extend((statement.target,) + statement.maps_read())
    for recompute in trigger.recomputes:
        reads.extend((recompute.target,) + recompute.maps_read())
    for name in reads:
        if name in skip:
            continue
        if name not in table_locals:
            local = f"_tbl{len(table_locals)}"
            names.reserve(local)
            table_locals[name] = local
            touched.append(name)
    return table_locals, touched


def _generate_replay_trigger(context: _EmitContext, trigger: Trigger) -> None:
    """A per-group replay trigger: table lookups hoisted, one dispatch per group.

    This is the pre-batch-trigger path (one full trigger execution per tuple,
    amortizing only dispatch and table lookups); it remains the reference
    baseline for the batch benchmark and the fallback for events without a
    compiled batch trigger.  Recompute statements run once per batch group,
    after every tuple's ordinary statements have been folded — re-deriving an
    entry is a sync to the current source state, so deferring it to the end
    of the group yields the same final state as per-tuple recomputation
    (ordinary statements never read a map that the same trigger recomputes).
    """
    writer = context.writer
    names = _NameAllocator()
    counter = [0]
    tracked_maps = _tracked_source_maps(trigger)
    table_locals, touched = _collect_table_locals(trigger, names)
    writer.emit(f"def replay_{trigger.event_name}(maps, values_list, _IDX=None, _CH=None):")
    writer.block()
    writer.emit(
        f'_STATS["statements"] += {len(trigger.statements)} * len(values_list)'
        + (f" + {len(trigger.recomputes)}" if trigger.recomputes else "")
    )
    for name in touched:
        writer.emit(f"{table_locals[name]} = maps[{name!r}]")
    if tracked_maps:
        writer.emit(f"_TRK = {{_n: set() for _n in {tracked_maps!r}}}")
    table_ref = lambda name: table_locals[name]  # noqa: E731
    if trigger.statements:
        if trigger.argument_names:
            unpack = ", ".join(names(argument) for argument in trigger.argument_names)
            writer.emit(f"for ({unpack},) in values_list:")
        else:
            writer.emit("for values in values_list:")
        writer.block()
        _generate_trigger_body(context, trigger, names, table_ref, tracked_maps, counter)
        writer.dedent()
    _generate_recomputes(context, trigger, names, table_ref, tracked_maps, counter)
    writer.dedent()


def _generate_batch_delta_trigger(context: _EmitContext, trigger: BatchTrigger) -> None:
    """A relation-valued batch trigger: one fold over the delta map per statement.

    ``_delta`` is the pre-aggregated batch ``values → multiplicity``.  The
    statement bodies were compiled from the delta with respect to the whole
    delta relation, so a single evaluation per group — accumulators keyed by
    target key, folded once per distinct key — produces exactly the state
    per-tuple replay would, including the within-batch interaction terms.
    Recomputes run once per group after the folds, as in replay mode.
    """
    writer = context.writer
    names = _NameAllocator()
    counter = [0]
    tracked_maps = _tracked_source_maps(trigger)
    table_locals, touched = _collect_table_locals(trigger, names, skip=(trigger.delta_map,))
    writer.emit(f"def batch_{trigger.event_name}(maps, _delta, _IDX=None, _CH=None):")
    writer.block()
    writer.emit(
        f'_STATS["statements"] += {len(trigger.statements) + len(trigger.recomputes)}'
    )
    for name in touched:
        writer.emit(f"{table_locals[name]} = maps[{name!r}]")
    if tracked_maps:
        writer.emit(f"_TRK = {{_n: set() for _n in {tracked_maps!r}}}")

    def table_ref(name: str) -> str:
        return "_delta" if name == trigger.delta_map else table_locals[name]

    saved_int_sources = context.int_sources
    if context.semiring:
        # The pre-aggregated delta map holds ℤ counts even in semiring mode;
        # ring statements reading it must pass through _from_int.
        context.int_sources = saved_int_sources | {trigger.delta_map}
    try:
        _generate_trigger_body(context, trigger, names, table_ref, tracked_maps, counter)
        _generate_recomputes(context, trigger, names, table_ref, tracked_maps, counter)
    finally:
        context.int_sources = saved_int_sources
    writer.dedent()


def _generate_total_batch_trigger(
    context: _EmitContext, trigger: BatchTrigger, kahan: bool = False
) -> None:
    """The fused variant of an all-total batch trigger.

    Every statement of the trigger is a bare-count fold (``projection_class()
    == "total"``: the right-hand side is exactly ``coefficient · ∆R(k…)``
    summed over all keys), so the specialized ``apply_batch`` never builds the
    event's delta table — it passes the batch's net tuple count ``_total``
    and each statement becomes one multiplication plus one scalar fold.

    ``kahan`` (float-field programs only) replaces the plain scalar fold with
    a Kahan-compensated one: ``_KC`` keeps each target's running compensation
    term, recovering the low-order bits a bare ``+=`` drops so a long stream
    of fused float totals tracks ``math.fsum`` accuracy.
    """
    writer = context.writer
    writer.emit(f"def total_batch_{trigger.event_name}(maps, _total, _IDX=None, _CH=None):")
    writer.block()
    writer.emit(f'_STATS["statements"] += {len(trigger.statements)}')
    for index, statement in enumerate(trigger.statements):
        accumulator = f"_acc{index}"
        coefficient = statement.coefficient
        if coefficient == 1:
            writer.emit(f"{accumulator} = _total")
        elif coefficient == -1:
            writer.emit(f"{accumulator} = -_total")
        else:
            writer.emit(f"{accumulator} = {coefficient!r} * _total")
    table_ref = lambda name: f"maps[{name!r}]"  # noqa: E731
    if not kahan:
        for index, statement in enumerate(trigger.statements):
            _emit_scalar_fold(context, statement, {}, f"_acc{index}", table_ref)
        writer.dedent()
        return
    for index, statement in enumerate(trigger.statements):
        accumulator = f"_acc{index}"
        target = statement.target
        table = table_ref(target)
        writer.emit("if _CH is not None:")
        writer.emit(f"    _chm = _CH.get({target!r})")
        writer.emit("    if _chm is not None:")
        writer.emit(f"        _chm[()] = _chm.get((), 0.0) + {accumulator}")
        writer.emit(f"_old = {table}.get((), 0.0)")
        writer.emit(f"_y = {accumulator} - _KC.get({target!r}, 0.0)")
        writer.emit("_new = _old + _y")
        writer.emit(f"_KC[{target!r}] = (_new - _old) - _y")
        writer.emit('_STATS["entries"] += 1')
        writer.emit("if _new == 0.0:")
        writer.emit(f"    {table}.pop((), None)")
        writer.emit("else:")
        writer.emit(f"    {table}[()] = _new")
    writer.dedent()


def _generate_trigger_body(
    context: _EmitContext,
    trigger: Trigger,
    names: _NameAllocator,
    table_ref,
    tracked_maps: Tuple[str, ...] = (),
    counter: Optional[List[int]] = None,
) -> None:
    """Emit statement evaluation into accumulators, then the fold steps.

    All right-hand sides are evaluated before any increment is applied — the
    snapshot semantics of Equation (1): within one update event every read
    sees the pre-update state.

    A statement whose target keys are all bound to trigger arguments produces
    exactly one key per update, so its accumulator degenerates to a scalar and
    its fold inlines to a single guarded table update (skipped when the target
    map carries slice indexes or feeds a tracked recompute, where the shared
    ``_fold`` handles maintenance).
    """
    writer = context.writer
    if counter is None:
        counter = [0]
    argument_set = set(trigger.argument_names)
    # The scalar fast path is disabled wholesale in semiring mode: its inline
    # fold emits delta-style change capture, and semiring CDC carries
    # post-update values (the shared _fold/_fold_int handle that uniformly).
    scalar_flags = [
        set(statement.target_keys) <= argument_set
        and context.specs.get(statement.target) is None
        and statement.target not in tracked_maps
        and not context.semiring
        for statement in trigger.statements
    ]
    for index, statement in enumerate(trigger.statements):
        statement_context = context.for_target(statement.target)
        accumulator = f"_acc{index}"
        names.reserve(accumulator)
        if scalar_flags[index]:
            writer.emit(f"{accumulator} = {statement_context.zero_literal()}")
        else:
            writer.emit(f"{accumulator} = {{}}")
        if getattr(statement, "projection", None) is not None:
            # Key-projection fast path (batch statements only): the rhs is a
            # pure projection of the pre-aggregated delta map, so fill the
            # accumulator in one tight loop without expression machinery.
            _emit_projection_accumulation(
                statement_context, statement, accumulator, table_ref,
                scalar=scalar_flags[index],
            )
            continue
        _generate_statement(
            statement_context, statement, trigger.argument_names, accumulator, names,
            counter, table_ref, scalar=scalar_flags[index],
        )
    for index, statement in enumerate(trigger.statements):
        accumulator = f"_acc{index}"
        if scalar_flags[index]:
            environment = {argument: names(argument) for argument in trigger.argument_names}
            _emit_scalar_fold(
                context.for_target(statement.target), statement, environment,
                accumulator, table_ref,
            )
        else:
            trk = f", _TRK[{statement.target!r}]" if statement.target in tracked_maps else ""
            serial = ", _serial=True" if getattr(statement, "serial_fold", False) else ""
            writer.emit(
                f"{context.fold_name(statement.target)}("
                f"{table_ref(statement.target)}, {accumulator}, {statement.target!r}, "
                f"{_spec_literal(context, statement.target)}, _IDX, _CH{trk}{serial})"
            )


def _generate_recomputes(
    context: _EmitContext,
    trigger: Trigger,
    names: _NameAllocator,
    table_ref,
    tracked_maps: Tuple[str, ...],
    counter: List[int],
) -> None:
    """Emit the re-evaluation loops over affected groups (nested aggregates).

    Runs after every ordinary fold, so source maps hold post-update values
    while each target still holds its pre-update value; recomputes are
    ordered inner-hierarchy-first, and a recompute whose target feeds a
    shallower one records its changed keys into ``_TRK`` like any source.
    """
    writer = context.writer
    zero = context.zero_literal()
    for rindex, recompute in enumerate(trigger.recomputes):
        target_table = table_ref(recompute.target)
        spec = _spec_literal(context, recompute.target)
        trk_expr = f"_TRK[{recompute.target!r}]" if recompute.target in tracked_maps else "None"
        statement = Statement(recompute.target, recompute.target_keys, recompute.body)
        accumulator = f"_racc{rindex}"
        names.reserve(accumulator)
        if recompute.tracked:
            affected = f"_raff{rindex}"
            names.reserve(affected)
            writer.emit(f"{affected} = set()")
            for source, positions in recompute.source_projections:
                projection = "(" + ", ".join(f"_sk[{p}]" for p in positions) + ",)"
                writer.emit(f"for _sk in _TRK[{source!r}]:")
                writer.emit(f"    {affected}.add({projection})")
            group_key = f"_gk{rindex}"
            body = f"_rbody{rindex}"
            names.reserve(group_key)
            names.reserve(body)
            # The per-group re-evaluation as a nested function.  Evaluation
            # is read-only and never consults its own target, so applying
            # each group's diff right after evaluating it gives the same
            # state and CDC as evaluating every group first.
            writer.emit(f"def {body}({group_key}):")
            writer.block()
            key_locals = [names(key) for key in recompute.target_keys]
            unpack = ", ".join(key_locals) + ("," if len(key_locals) == 1 else "")
            writer.emit(f"{unpack} = {group_key}")
            writer.emit(f"{accumulator} = {zero}")
            _generate_statement(
                context, statement, recompute.target_keys, accumulator, names, counter,
                table_ref, scalar=True,
            )
            writer.emit(f"return {accumulator}")
            writer.dedent()
            writer.emit(f"for {group_key} in {affected}:")
            writer.emit(
                f"    _rapply({target_table}, {group_key}, {body}({group_key}), "
                f"{recompute.target!r}, {spec}, _IDX, _CH, {trk_expr})"
            )
        else:
            writer.emit(f"{accumulator} = {{}}")
            _generate_statement(
                context, statement, (), accumulator, names, counter, table_ref, scalar=False,
            )
            writer.emit(f"for _key in set({accumulator}) | set({target_table}):")
            writer.emit(
                f"    _rapply({target_table}, _key, {accumulator}.get(_key, {zero}), "
                f"{recompute.target!r}, {spec}, _IDX, _CH, {trk_expr})"
            )


def _emit_projection_accumulation(
    context: _EmitContext,
    statement,
    accumulator: str,
    table_ref,
    scalar: bool,
) -> None:
    """One tight loop over the delta map for a pure key-projection statement.

    ``statement`` is a :class:`~repro.compiler.triggers.BatchStatement` whose
    right-hand side is ``coefficient · ∆R(k…)``: each delta entry contributes
    ``coefficient * multiplicity`` at the projection of its key onto the
    target keys (a marginal when some delta key positions are dropped, the
    total when all are — the scalar case).
    """
    writer = context.writer
    delta_table = table_ref(statement.delta_map)
    coefficient = statement.coefficient
    identity = statement.delta_arity is not None and statement.projection == tuple(
        range(statement.delta_arity)
    )
    if scalar and context.native and coefficient in (1, -1):
        # The whole-batch total at native speed (the Sum(R(...)) shape).
        total = f"sum({delta_table}.values())"
        writer.emit(f"{accumulator} = {total if coefficient == 1 else '-' + total}")
        return
    if not scalar and identity and context.native and coefficient == 1:
        # A verbatim copy of the pre-aggregated batch (the base-copy shape);
        # the delta map is per-group scratch, never reused after the trigger.
        writer.emit(f"{accumulator} = dict({delta_table})")
        return
    if not context.native and statement.delta_map in context.int_sources:
        # Ring-target projection over an ℤ-count delta: each entry contributes
        # from_int(count) — the coefficient multiplies only when it is not the
        # literal 1 (coerce(1) need not equal ring.one, e.g. min-plus).
        term = "_from_int(_dv)"
        if coefficient == 1:
            value = term
        elif coefficient == -1:
            value = f"_neg({term})"
        else:
            value = f"_mul({context.constant(coefficient)}, {term})"
    else:
        value = context.value_product(coefficient, ["_dv"])
    writer.emit(f"for _dk, _dv in {delta_table}.items():")
    writer.block()
    if scalar:
        writer.emit(f"{accumulator} = {context.folded_add(accumulator, value)}")
        writer.dedent()
        return
    if not statement.projection:
        key_expression = "()"
    elif identity:
        key_expression = "_dk"
    else:
        parts = ", ".join(f"_dk[{position}]" for position in statement.projection)
        writer.emit(f"_fkey = ({parts},)")
        key_expression = "_fkey"
    writer.emit(
        f"{accumulator}[{key_expression}] = "
        + context.folded_add(
            f"{accumulator}.get({key_expression}, {context.zero_literal()})", value
        )
    )
    writer.dedent()


def _emit_scalar_fold(
    context: _EmitContext,
    statement: Statement,
    environment: Dict[str, str],
    accumulator: str,
    table_ref,
) -> None:
    """The single-key fold for a scalar accumulator (target map unindexed)."""
    writer = context.writer
    key_expression = _key_tuple(statement.target_keys, environment)
    table = table_ref(statement.target)
    writer.emit(context.nonzero_guard(accumulator))
    writer.block()
    if statement.target_keys:
        # Build the key tuple once for the read and the write.
        writer.emit(f"_fkey = {key_expression}")
        key_expression = "_fkey"
    writer.emit("if _CH is not None:")
    writer.emit(f"    _chm = _CH.get({statement.target!r})")
    writer.emit("    if _chm is not None:")
    change_read = f"_chm.get({key_expression}, {context.zero_literal()})"
    writer.emit(f"        _chm[{key_expression}] = {context.folded_add(change_read, accumulator)}")
    writer.emit(f"_new = {context.folded_add(f'{table}.get({key_expression}, {context.zero_literal()})', accumulator)}")
    writer.emit('_STATS["entries"] += 1')
    if context.native:
        writer.emit("if _new == 0:")
    else:
        writer.emit("if _is_zero(_new):")
    writer.emit(f"    {table}.pop({key_expression}, None)")
    writer.emit("else:")
    writer.emit(f"    {table}[{key_expression}] = _new")
    writer.dedent()


def _generate_statement(
    context: _EmitContext,
    statement: Statement,
    argument_names: Tuple[str, ...],
    accumulator: str,
    names: _NameAllocator,
    counter: List[int],
    table_ref,
    scalar: bool = False,
) -> None:
    writer = context.writer
    for monomial in to_polynomial(statement.rhs):
        base_indent = writer.indent
        environment = {argument: names(argument) for argument in argument_names}
        factors = order_for_safety(
            monomial.factors, bound_vars=argument_names, eager_assignments=True
        )
        coefficient = monomial.coefficient
        value_terms: List[str] = []
        for factor in factors:
            coefficient = _generate_factor(
                context, factor, environment, value_terms, coefficient, counter, names, table_ref
            )
            if coefficient is None:
                break
        if coefficient is not None and coefficient != 0:
            value_expression = context.value_product(coefficient, value_terms)
            if scalar:
                writer.emit(
                    f"{accumulator} = " + context.folded_add(accumulator, value_expression)
                )
            else:
                key_expression = _key_tuple(statement.target_keys, environment)
                writer.emit(
                    f"{accumulator}[{key_expression}] = "
                    + context.folded_add(
                        f"{accumulator}.get({key_expression}, {context.zero_literal()})",
                        value_expression,
                    )
                )
        writer.indent = base_indent


def _generate_factor(
    context: _EmitContext,
    factor: Expr,
    environment: Dict[str, str],
    value_terms: List[str],
    coefficient: Any,
    counter: List[int],
    names: _NameAllocator,
    table_ref,
):
    """Emit code for one monomial factor; returns the (possibly folded) coefficient.

    Returning ``None`` means the monomial is statically zero and should be
    dropped.
    """
    writer = context.writer
    if isinstance(factor, Const):
        value = factor.value
        if not isinstance(value, (int, float)):
            raise CompilationError(f"non-numeric constant {value!r} as a multiplicity")
        if value == 0:
            return None
        if context.semiring and not context.native:
            # Keep explicit constants as coerced value terms so the
            # coefficient stays a pure multiplicity (lifted via from_int
            # by value_product); native folding would conflate the two
            # lifts, which disagree outside genuine rings.
            value_terms.append(context.constant(value))
            return coefficient
        return coefficient * value

    if isinstance(factor, Var):
        value_terms.append(context.coerced(_value_expression(factor, environment)))
        return coefficient

    if isinstance(factor, Assign):
        target = factor.var
        source = _value_expression(factor.expr, environment, context, table_ref)
        if target in environment:
            writer.emit(f"if {environment[target]} == {source}:")
            writer.block()
            return coefficient
        local = names(target)
        writer.emit(f"{local} = {source}")
        environment[target] = local
        return coefficient

    if isinstance(factor, Compare):
        left = _value_expression(factor.left, environment, context, table_ref)
        right = _value_expression(factor.right, environment, context, table_ref)
        writer.emit(f"if {left} {_PYTHON_OPS[factor.op]} {right}:")
        writer.block()
        return coefficient

    if isinstance(factor, MapRef):
        counter[0] += 1
        index = counter[0]
        value_name = f"_v{index}"
        # An integer-valued source (counter map / batch delta) read from a
        # ring statement: test the raw count, then map it into the ring.
        int_source = not context.native and factor.name in context.int_sources
        bound_positions = tuple(
            position for position, key in enumerate(factor.key_vars) if key in environment
        )
        if len(bound_positions) == len(factor.key_vars):
            # Fully bound: one hash lookup.
            key_expression = _key_tuple(factor.key_vars, environment)
            if int_source:
                writer.emit(
                    f"{value_name} = {table_ref(factor.name)}.get({key_expression}, 0)"
                )
                writer.emit(f"if {value_name}:")
                writer.block()
                writer.emit(f"{value_name} = _from_int({value_name})")
            else:
                writer.emit(
                    f"{value_name} = {table_ref(factor.name)}.get({key_expression}, "
                    f"{context.zero_literal()})"
                )
                writer.emit(context.nonzero_guard(value_name))
                writer.block()
        elif bound_positions and bound_positions in context.specs.get(factor.name, ()):
            # Partially bound: iterate only the matching keys via the slice index.
            key_name = f"_k{index}"
            prefix = "(" + ", ".join(
                environment[factor.key_vars[position]] for position in bound_positions
            ) + ",)"
            writer.emit(
                f"for {key_name} in _IDX[({factor.name!r}, {bound_positions!r})]"
                f".get({prefix}, _NO_KEYS):"
            )
            writer.block()
            writer.emit(f"{value_name} = {table_ref(factor.name)}[{key_name}]")
            if int_source:
                writer.emit(f"{value_name} = _from_int({value_name})")
            for position, key in enumerate(factor.key_vars):
                if position in bound_positions:
                    continue
                if key in environment:
                    # A repeated free variable: later occurrences become tests.
                    writer.emit(f"if {key_name}[{position}] == {environment[key]}:")
                    writer.block()
                else:
                    local = names(key)
                    writer.emit(f"{local} = {key_name}[{position}]")
                    environment[key] = local
        else:
            # No key bound (or no index available): scan the whole table.
            key_name = f"_k{index}"
            writer.emit(f"for {key_name}, {value_name} in {table_ref(factor.name)}.items():")
            writer.block()
            if int_source:
                writer.emit(f"{value_name} = _from_int({value_name})")
            for position, key in enumerate(factor.key_vars):
                if key in environment:
                    writer.emit(f"if {key_name}[{position}] == {environment[key]}:")
                    writer.block()
                else:
                    local = names(key)
                    writer.emit(f"{local} = {key_name}[{position}]")
                    environment[key] = local
        value_terms.append(value_name)
        return coefficient

    if isinstance(factor, (Rel, AggSum)):
        raise CompilationError(
            f"cannot generate code for factor {factor!r}: compiled trigger statements must not "
            "contain base relations or nested aggregates"
        )

    raise CompilationError(f"cannot generate code for factor {factor!r}")


# ---------------------------------------------------------------------------
# Expression fragments
# ---------------------------------------------------------------------------


def _value_expression(
    expr: Expr,
    environment: Dict[str, str],
    context: Optional[_EmitContext] = None,
    table_ref=None,
) -> str:
    """A Python expression computing a data value from bound locals.

    Data-level arithmetic (inside conditions and assignments) is native Python
    in every coefficient structure — it mirrors ``evaluate_value`` in the
    interpreted semantics, which also computes data values natively.  A map
    reference in value position (an extracted nested aggregate consulted by a
    condition) is a scalar lookup with the ring zero as the default — the
    value its aggregate would have produced on an empty slice.
    """
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        if expr.name not in environment:
            raise CompilationError(f"variable {expr.name!r} is not bound in generated code")
        return environment[expr.name]
    if isinstance(expr, MapRef):
        if context is None or table_ref is None:
            raise CompilationError(
                f"map reference {expr.name!r} in a value position without map access"
            )
        key = _key_tuple(expr.key_vars, environment)
        return f"{table_ref(expr.name)}.get({key}, {context.zero_literal()})"
    if isinstance(expr, Neg):
        return f"-({_value_expression(expr.expr, environment, context, table_ref)})"
    if isinstance(expr, Add):
        inner = " + ".join(
            _value_expression(term, environment, context, table_ref) for term in expr.terms
        )
        return f"({inner})"
    if isinstance(expr, Mul):
        inner = " * ".join(
            _value_expression(factor, environment, context, table_ref)
            for factor in expr.factors
        )
        return f"({inner})"
    raise CompilationError(f"cannot generate a value expression for {expr!r}")


def _key_tuple(key_vars: Iterable[str], environment: Dict[str, str]) -> str:
    parts = []
    for key in key_vars:
        if key not in environment:
            raise CompilationError(f"key variable {key!r} is not bound in generated code")
        parts.append(environment[key])
    if not parts:
        return "()"
    return "(" + ", ".join(parts) + ",)"
