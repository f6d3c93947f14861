"""The paper's engine: recursive delta processing over a view hierarchy.

``RecursiveIVM`` compiles the query once (``repro.compiler``), keeps the whole
hierarchy of auxiliary maps materialized, and applies each single-tuple update
with a constant number of map operations per maintained value.  The base
relations themselves are never stored or consulted after initialization.

Two execution back ends are available:

* ``backend="interpreted"`` — trigger statements are evaluated through the
  AGCA evaluator (the plain reference semantics, easiest to inspect);
* ``backend="generated"`` — trigger statements run as generated straight-line
  Python (:mod:`repro.compiler.codegen`), the analogue of the paper's NC⁰C
  output, considerably faster, and the only executor with the batch hot-path
  specializations (``specialize=``).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.algebra.semirings import INTEGER_RING, Semiring
from repro.compiler.codegen import GeneratedTriggers, generate_python
from repro.compiler.compile import compile_query
from repro.compiler.runtime import TriggerRuntime
from repro.compiler.triggers import TriggerProgram
from repro.core.ast import Expr
from repro.gmr.database import Database, Update
from repro.ivm.base import IVMEngine


class RecursiveIVM(IVMEngine):
    """Higher-order (recursive-delta) incremental view maintenance."""

    name = "recursive"

    def __init__(
        self,
        query: Expr,
        schema: Mapping[str, Sequence[str]],
        ring: Semiring = INTEGER_RING,
        backend: str = "interpreted",
        map_name: str = "q",
        shards: Optional[int] = None,
        shard_backend: Optional[str] = None,
        normalize: Optional[bool] = None,
        verify: bool = True,
        specialize: bool = True,
    ):
        super().__init__(query, schema)
        if backend not in ("interpreted", "generated"):
            raise ValueError("backend must be 'interpreted' or 'generated'")
        self.ring = ring
        self.backend = backend
        # Ring normal form reorders products — an equivalence only over
        # commutative coefficient structures, so it defaults off for others.
        if normalize is None:
            normalize = ring.commutative
        # Passing the ring attaches a maintenance plan for proper semirings
        # (counter maps, tracked recomputes, support structures); rings with
        # additive inverses compile exactly as before.
        self.program: TriggerProgram = compile_query(
            self.query, self.schema, name=map_name, verify=verify, normalize=normalize,
            ring=ring,
        )
        # shards > 1 hash-partitions the map tables so batch folds route per
        # shard (repro.compiler.sharding); the default (None -> REPRO_SHARDS
        # -> 1) keeps plain dict tables and the pre-sharding code path.
        # shard_backend picks the partition tier's execution backend
        # ("inline"/"process", None -> REPRO_SHARD_BACKEND, default inline).
        self.runtime = TriggerRuntime(
            self.program, ring=ring, shards=shards, shard_backend=shard_backend
        )
        self._generated: Optional[GeneratedTriggers] = None
        if backend == "generated":
            # The generated module's arithmetic is specialized to the ring
            # (native +/*/0 for the built-in integer and float structures,
            # ring.add/ring.mul/ring.zero otherwise); proper semirings
            # compile through their maintenance plan.  The module handles
            # counter maps and recomputes itself; support sidecars are fed
            # at this engine layer after each apply (the runtime owns the
            # tier and the maps both backends share).  specialize controls
            # the module's hot-loop batch fast paths (Counter-counted
            # grouping, fused bare-count totals, Kahan-compensated float
            # totals); the interpreted backend has none and ignores it.
            self._generated = generate_python(self.program, ring=ring, specialize=specialize)

    # -- initialization from an existing database --------------------------------------

    def bootstrap(self, db: Database) -> None:
        """Compute initial values of every map from an already-populated database."""
        self.runtime.bootstrap(db)
        if self._generated is not None:
            self._generated.reset_compensation()

    def state_backup(self):
        """Plain-dict copies of every map table (sharded tables are merged)."""
        return self.runtime.backup_tables()

    def state_restore(self, backup) -> None:
        self.runtime.restore_tables(backup)
        if self._generated is not None:
            self._generated.reset_compensation()
        self._pending_changes = None

    def close(self) -> None:
        """Shut the partition-tier backend down (stops process workers)."""
        if self.runtime.shard_backend is not None:
            self.runtime.shard_backend.close()

    # -- engine interface -----------------------------------------------------------------

    def _change_hook(self):
        """The runtime/codegen change-collection argument for this engine.

        ``None`` unless an ``on_change`` subscriber is attached; otherwise the
        result map is watched and its per-key deltas land directly in the
        engine's pending-change accumulator.
        """
        if self._pending_changes is None:
            return None
        return {self.program.result_map: self._pending_changes}

    def _apply(self, update: Update) -> None:
        if self._generated is not None:
            changes = self._change_hook()
            self._generated.apply(
                self.runtime.maps,
                update.relation,
                update.sign,
                update.values,
                indexes=self.runtime.indexes,
                changes=changes,
            )
            self.runtime.feed_supports((update,), changes)
            self._absorb_generated_statistics(1)
        else:
            self.runtime.apply(update, changes=self._change_hook())

    def _apply_batch(self, updates) -> None:
        """Batched application through the compiled batch triggers.

        See :meth:`repro.ivm.base.IVMEngine.apply_batch` for the contract.
        Each ``(relation, sign)`` group is pre-aggregated into a delta map and
        folded by the group's batch trigger — per-batch cost scales with the
        number of distinct keys touched, not the number of tuples.
        """
        if self._generated is not None:
            changes = self._change_hook()
            if self.runtime.has_supports and type(updates) is not list:
                updates = list(updates)
            count = self._generated.apply_batch(
                self.runtime.maps, updates, indexes=self.runtime.indexes,
                changes=changes,
            )
            self.runtime.feed_supports(updates, changes)
            if count is None:
                count = sum([update.count for update in updates])
            self._absorb_generated_statistics(count)
            return count
        self.runtime.apply_batch(updates, changes=self._change_hook())
        return None

    def apply_batch_replay(self, updates) -> None:
        """Apply a batch by grouped per-tuple replay (the pre-batch-trigger path).

        Semantically identical to :meth:`apply_batch` but executes every
        tuple's trigger in full, amortizing only dispatch and table lookups
        per group.  Kept as the reference baseline the batch-update benchmark
        measures the batch triggers against.
        """
        self._drive_batch(updates, self._replay_batch)

    def _replay_batch(self, updates) -> None:
        if self._generated is not None:
            changes = self._change_hook()
            if self.runtime.has_supports and type(updates) is not list:
                updates = list(updates)
            self._generated.apply_batch_replay(
                self.runtime.maps, updates, indexes=self.runtime.indexes,
                changes=changes,
            )
            self.runtime.feed_supports(updates, changes)
            self._absorb_generated_statistics(sum(update.count for update in updates))
        else:
            self.runtime.apply_batch_replay(updates, changes=self._change_hook())

    def _absorb_generated_statistics(self, update_count: int) -> None:
        """Fold the generated module's work counters into the runtime statistics."""
        statements, entries = self._generated.drain_statistics()
        statistics = self.runtime.statistics
        statistics.updates_processed += update_count
        statistics.statements_executed += statements
        statistics.entries_updated += entries

    def result(self) -> Any:
        return self.runtime.result()

    # -- introspection ------------------------------------------------------------------------

    def explain(self) -> str:
        """The compiled map hierarchy and triggers, as text."""
        return self.program.explain()

    def generated_source(self) -> Optional[str]:
        """The generated Python trigger module (``None`` for the interpreted backend)."""
        return self._generated.source if self._generated is not None else None

    def map_sizes(self) -> dict:
        return self.runtime.map_sizes()

    def total_map_entries(self) -> int:
        return self.runtime.total_map_entries()
