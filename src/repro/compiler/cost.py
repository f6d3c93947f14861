"""Cost accounting for incremental maintenance.

The paper's practical claim is that a compiled trigger performs only a
constant number of ring operations (+ and *) per maintained value and per
single-tuple update.  To *measure* that claim rather than assert it, the
engines can be run over a :class:`CountingSemiring` — a transparent wrapper
that counts every addition, multiplication and negation flowing through the
coefficient structure — and the runtimes additionally count map lookups and
entry updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence, Tuple

from repro.algebra.semirings import INTEGER_RING, Semiring
from repro.core.ast import Assign, Expr, MapRef
from repro.core.delta import is_delta_map
from repro.core.normalization import to_polynomial
from repro.core.simplify import order_for_safety


@dataclass
class OperationCounter:
    """Mutable tally of arithmetic operations."""

    additions: int = 0
    multiplications: int = 0
    negations: int = 0

    @property
    def total(self) -> int:
        return self.additions + self.multiplications + self.negations

    def reset(self) -> None:
        self.additions = 0
        self.multiplications = 0
        self.negations = 0

    def snapshot(self) -> "OperationCounter":
        return OperationCounter(self.additions, self.multiplications, self.negations)

    def __sub__(self, other: "OperationCounter") -> "OperationCounter":
        return OperationCounter(
            self.additions - other.additions,
            self.multiplications - other.multiplications,
            self.negations - other.negations,
        )

    def __repr__(self) -> str:
        return (
            f"OperationCounter(+={self.additions}, *={self.multiplications}, "
            f"neg={self.negations})"
        )


class CountingSemiring(Semiring):
    """A coefficient structure that counts the operations performed through it.

    The wrapper reports the same ``name`` as the wrapped structure so that
    gmrs built over the two interoperate (structural equality of semirings is
    by name).
    """

    def __init__(self, inner: Semiring = INTEGER_RING, counter: OperationCounter = None):
        self.inner = inner
        self.counter = counter if counter is not None else OperationCounter()

        def counted_add(left: Any, right: Any) -> Any:
            self.counter.additions += 1
            return inner.add(left, right)

        def counted_mul(left: Any, right: Any) -> Any:
            self.counter.multiplications += 1
            return inner.mul(left, right)

        counted_neg = None
        if inner.is_ring:

            def counted_neg(value: Any) -> Any:
                self.counter.negations += 1
                return inner.neg(value)

        super().__init__(
            zero=inner.zero,
            one=inner.one,
            add=counted_add,
            mul=counted_mul,
            neg=counted_neg,
            coerce=inner.coerce,
            name=inner.name,
            commutative=inner.commutative,
        )


# ---------------------------------------------------------------------------
# Static per-statement cost classes
# ---------------------------------------------------------------------------

#: Read classes, worst one wins: full-key lookups only, an index-backed
#: partial slice, or an unindexed scan of a whole map.
_LOOKUP, _SLICE, _SCAN = 0, 1, 2


def _monomial_read_class(
    factors: Iterable[Expr],
    initially_bound: Iterable[str],
    specs: Mapping[str, Tuple[Tuple[int, ...], ...]],
) -> int:
    """Replay one monomial's binding discipline and grade its map reads."""
    bound = set(initially_bound)
    worst = _LOOKUP
    for factor in factors:
        if isinstance(factor, Assign):
            bound.add(factor.var)
        elif isinstance(factor, MapRef):
            if is_delta_map(factor.name):
                # The delta map is the iteration driver, already priced into
                # the |Δ| factor of the batch cost classes.
                bound.update(factor.key_vars)
                continue
            positions = tuple(
                index for index, key_var in enumerate(factor.key_vars) if key_var in bound
            )
            if len(positions) == len(factor.key_vars):
                pass  # full-key lookup, O(1)
            elif positions and positions in specs.get(factor.name, ()):
                worst = max(worst, _SLICE)
            else:
                worst = max(worst, _SCAN)
            bound.update(factor.key_vars)
    return worst


def statement_cost_class(
    statement,
    specs: Optional[Mapping[str, Tuple[Tuple[int, ...], ...]]] = None,
    argument_names: Sequence[str] = (),
) -> str:
    """The static per-update cost class of one compiled trigger statement.

    ``specs`` are the program's slice-index signatures
    (:func:`repro.compiler.indexes.compute_index_specs`) — a partially-bound
    read covered by a signature costs one indexed slice, an uncovered one a
    whole-map scan.  Statement kinds are recognized structurally so the
    function prices :class:`~repro.compiler.triggers.Statement`,
    ``BatchStatement`` and ``RecomputeStatement`` alike.
    """
    specs = specs or {}
    if hasattr(statement, "tracked"):
        return "O(changed groups)" if statement.tracked else "O(all groups)"
    if hasattr(statement, "projection"):
        if statement.projection is not None:
            return "O(|Δ| keys)"
        worst = _LOOKUP
        for monomial in to_polynomial(statement.rhs):
            ordered = order_for_safety(monomial.factors, bound_vars=(), eager_assignments=True)
            worst = max(worst, _monomial_read_class(ordered, (), specs))
        return ("O(|Δ| keys)", "O(|Δ| × indexed slice)", "O(|Δ| × map scan)")[worst]
    worst = _LOOKUP
    for monomial in to_polynomial(statement.rhs):
        ordered = order_for_safety(
            monomial.factors, bound_vars=argument_names, eager_assignments=True
        )
        worst = max(worst, _monomial_read_class(ordered, argument_names, specs))
    return ("O(1)", "O(indexed slice)", "O(map scan)")[worst]


# ---------------------------------------------------------------------------
# Batch-trigger specialization classes
# ---------------------------------------------------------------------------

#: The specialized generated ``apply_batch`` unrolls into one C-level
#: filtered pass per statically-known trigger event; each pass walks the
#: whole batch, so past this many events the generic single-pass grouping
#: loop wins and codegen emits that instead.
MAX_SPECIALIZED_EVENTS = 4


def trigger_specialization(batch_trigger) -> str:
    """The specialization class of one compiled batch trigger.

    ``"total"`` — every statement is a bare-count fold (nullary projection:
    the batch's total multiplicity feeds one scalar entry each) and there are
    no recomputes, so the executor can skip building a delta table entirely
    and accumulate a single integer per event.  ``"counter"`` — the trigger
    still needs a per-key delta table, but it can be built with the
    :class:`collections.Counter` C fast path instead of a Python-level
    accumulation loop.  Recognized structurally (duck-typed) so hand-built IR
    prices the same as compiled programs.
    """
    statements = getattr(batch_trigger, "statements", ())
    recomputes = getattr(batch_trigger, "recomputes", ())
    if statements and not recomputes:
        if all(
            getattr(statement, "projection_class", lambda: "general")() == "total"
            for statement in statements
        ):
            return "total"
    return "counter"


def batch_specialization_class(statement, trigger=None) -> str:
    """The specialization class of one batch statement, for explain/lint.

    ``"fused-total"`` — a bare-count statement inside an all-total trigger:
    the whole event fuses to integer accumulation, no delta dict at all.
    ``"generic-bare-count"`` — a bare-count statement whose event *cannot*
    fully fuse (sibling statements or recomputes force the delta table), the
    shape ``repro-lint --fail-on generic-bare-count`` promotes to an error.
    ``"fused-copy"`` / ``"fused-marginal"`` — projection fast paths that fold
    the Counter-built delta table without expression evaluation.
    ``"generic"`` — the right-hand side must be evaluated per distinct key.
    """
    projection = getattr(statement, "projection_class", lambda: "general")()
    if projection == "general":
        return "generic"
    if projection == "total":
        if trigger is not None and trigger_specialization(trigger) == "total":
            return "fused-total"
        return "generic-bare-count"
    return f"fused-{projection}"


@dataclass
class RuntimeStatistics:
    """Per-engine counters collected while processing an update stream."""

    updates_processed: int = 0
    statements_executed: int = 0
    entries_updated: int = 0
    map_entries_scanned: int = 0
    operations: OperationCounter = field(default_factory=OperationCounter)

    def per_update(self) -> dict:
        """Average per-update figures (empty dict before any update)."""
        if not self.updates_processed:
            return {}
        scale = float(self.updates_processed)
        return {
            "statements": self.statements_executed / scale,
            "entries_updated": self.entries_updated / scale,
            "arithmetic_ops": self.operations.total / scale,
        }

    def reset(self) -> None:
        self.updates_processed = 0
        self.statements_executed = 0
        self.entries_updated = 0
        self.map_entries_scanned = 0
        self.operations.reset()
