"""Hot-loop batch specialization of the generated executor (PR 9).

The contract under test: with ``specialize=True`` (the default) the
generated module folds eligible Z-ring batches through statically-unrolled
fast paths — fused scalar totals for bare counts, ``collections.Counter``
grouping for everything else — and is *indistinguishable* from two
independent references: the plain interpreter (``TriggerRuntime``, which has
no fast paths) and codegen's own generic path (``specialize=False``).  Same
states, same results, same ``on_change`` payloads, same errors.  Ineligible
programs (non-integer rings, too many trigger events) silently keep the
generic path.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.semirings import FLOAT_FIELD
from repro.compiler.cost import (
    MAX_SPECIALIZED_EVENTS,
    batch_specialization_class,
    trigger_specialization,
)
from repro.core.parser import parse
from repro.gmr.database import Update
from repro.ivm.recursive import RecursiveIVM

COMPILED_BACKENDS = ("generated", "interpreted")

#: name -> (query text, schema, expected per-event codegen specializations).
#: ``count`` compiles to all-total triggers (no delta table at all), the rest
#: go through the Counter-built grouping path.
QUERIES = {
    "count": ("Sum(R(x))", {"R": ("A",)}, "total"),
    "group_count": ("AggSum([a], R(a, b))", {"R": ("A", "B")}, "counter"),
    "group_sum": ("AggSum([a], R(a, b) * b)", {"R": ("A", "B")}, "counter"),
    "selfjoin": ("Sum(R(x) * R(y) * (x = y))", {"R": ("A",)}, "counter"),
    "join": (
        "AggSum([a], R(a, b) * S(b, c) * c)",
        {"R": ("A", "B"), "S": ("B", "C")},
        "counter",
    ),
}

#: Three relations x two signs = six trigger events > MAX_SPECIALIZED_EVENTS,
#: so this program must fall back to the generic single-pass grouping loop.
WIDE_QUERY = "Sum(R(x) * S(x) * T(x))"
WIDE_SCHEMA = {"R": ("A",), "S": ("A",), "T": ("A",)}


def _random_trace(rng, schema, length, domain=9):
    relations = [(name, len(columns)) for name, columns in schema.items()]
    updates = []
    for _ in range(length):
        relation, arity = relations[rng.randrange(len(relations))]
        sign = 1 if rng.random() < 0.7 else -1
        values = tuple(rng.randint(0, domain) for _ in range(arity))
        # Mix compact (count > 1) updates in so the specialized slices hit
        # their multiplicity-expansion branches.
        count = rng.choice([1, 1, 1, 3])
        updates.append(Update(sign, relation, values, count))
    return updates


def _engines(name, backend, specialize=True):
    text, schema, _ = QUERIES[name]
    engine = RecursiveIVM(parse(text), schema, backend=backend, specialize=specialize)
    cdc = []
    engine.on_change(lambda changes: cdc.append(sorted(changes.items())))
    return engine, cdc


#: The references the specialized generated module is checked against: the
#: plain interpreter, and the generated module's own generic path.
REFERENCES = {
    "interpreted": lambda name: _engines(name, "interpreted"),
    "generated": lambda name: _engines(name, "generated", specialize=False),
}


@pytest.mark.parametrize("reference", sorted(REFERENCES))
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_specialized_matches_generic_state_and_cdc(name, reference):
    """The acceptance property: on mixed per-tuple/batched traces with compact
    multiplicities, the specialized generated executor is byte-identical to
    the reference — results, full map states, and CDC payloads — including
    across a snapshot/restore taken mid-trace."""
    rng = random.Random(hash((name, reference)) & 0xFFFF)
    _, schema, _ = QUERIES[name]
    generic, generic_cdc = REFERENCES[reference](name)
    special, special_cdc = _engines(name, "generated")
    snapshots = None
    for step in range(10):
        if rng.random() < 0.3:
            update = _random_trace(rng, schema, 1)[0]
            generic.apply(update)
            special.apply(update)
        else:
            batch = _random_trace(rng, schema, rng.choice([4, 60, 150]))
            generic.apply_batch(batch)
            special.apply_batch(batch)
        assert special.result() == generic.result(), (name, reference, step)
        assert special_cdc == generic_cdc, (name, reference, step)
        assert special.runtime.maps == generic.runtime.maps, (name, reference, step)
        if step == 4:
            snapshots = (generic.state_backup(), special.state_backup())
    generic.state_restore(snapshots[0])
    special.state_restore(snapshots[1])
    tail = _random_trace(random.Random(7), schema, 120)
    generic.apply_batch(tail)
    special.apply_batch(tail)
    assert special.result() == generic.result()
    assert special.runtime.maps == generic.runtime.maps


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_specialized_batch_equals_per_tuple_replay(backend):
    """Folding one batch specialized equals applying its tuples one at a time."""
    for name, (text, schema, _) in QUERIES.items():
        trace = _random_trace(random.Random(len(name)), schema, 200)
        batched = RecursiveIVM(parse(text), schema, backend=backend)
        batched.apply_batch(trace)
        sequential = RecursiveIVM(parse(text), schema, backend=backend)
        sequential.apply_all(trace)
        assert batched.result() == sequential.result(), (name, backend)


def test_codegen_reports_specialization_classes():
    """The generated module exposes its per-event verdicts, and explain()
    labels every batch statement with its specialization class."""
    for name, (text, schema, expected) in QUERIES.items():
        engine = RecursiveIVM(parse(text), schema, backend="generated", specialize=True)
        verdicts = engine._generated.specializations
        assert verdicts, name
        assert all(verdict == expected for verdict in verdicts.values()), (name, verdicts)
        assert "[spec:" in engine.explain(), name
    disabled = RecursiveIVM(
        parse(QUERIES["count"][0]), QUERIES["count"][1],
        backend="generated", specialize=False,
    )
    assert disabled._generated.specializations == {}


def test_specialization_classes_in_cost_model():
    """The static classifier distinguishes fused totals from bare counts that
    an unfusable event pins to the generic path."""
    engine = RecursiveIVM(parse("Sum(R(x))"), {"R": ("A",)})
    for trigger in engine.program.batch_triggers.values():
        assert trigger_specialization(trigger) == "total"
        for statement in trigger.statements:
            assert batch_specialization_class(statement, trigger) == "fused-total"
    joined = RecursiveIVM(
        parse("AggSum([a], R(a, b) * S(b, c) * c)"),
        {"R": ("A", "B"), "S": ("B", "C")},
    )
    classes = {
        batch_specialization_class(statement, trigger)
        for trigger in joined.program.batch_triggers.values()
        for statement in trigger.statements
    }
    assert "generic" in classes or "fused-copy" in classes or "fused-marginal" in classes
    # A bare-count statement outside an all-total trigger is the lint shape.
    bare = next(
        statement
        for trigger in engine.program.batch_triggers.values()
        for statement in trigger.statements
    )
    assert batch_specialization_class(bare, trigger=None) == "generic-bare-count"


def test_wide_programs_fall_back_to_generic():
    """Past MAX_SPECIALIZED_EVENTS trigger events the unrolled slices would
    walk the batch too often: the generated module keeps the generic loop —
    and its results still match the codegen generic path and the plain
    interpreter."""
    engine = RecursiveIVM(parse(WIDE_QUERY), WIDE_SCHEMA, backend="generated")
    events = len(engine.program.triggers)
    assert events > MAX_SPECIALIZED_EVENTS
    assert engine._generated.specializations == {}
    assert "def apply_batch" in engine._generated.source
    generic = RecursiveIVM(parse(WIDE_QUERY), WIDE_SCHEMA, backend="generated", specialize=False)
    interpreted = RecursiveIVM(parse(WIDE_QUERY), WIDE_SCHEMA, backend="interpreted")
    trace = _random_trace(random.Random(3), WIDE_SCHEMA, 250, domain=5)
    for reference in (engine, generic, interpreted):
        reference.apply_batch(trace)
    assert engine.result() == generic.result() == interpreted.result()
    assert engine.runtime.maps == interpreted.runtime.maps


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_non_integer_rings_stay_generic(backend):
    """Specialization is gated on the Z ring: the float field keeps the
    generic path (its accumulation order is pinned) yet still computes."""
    engine = RecursiveIVM(
        parse("AggSum([a], R(a, b) * b)"), {"R": ("A", "B")},
        ring=FLOAT_FIELD, backend=backend, specialize=True,
    )
    if backend == "generated":
        assert engine._generated.specializations == {}
    engine.apply_batch([Update(1, "R", (1, 2.5)), Update(1, "R", (1, 0.5)), Update(-1, "R", (2, 1.0))])
    assert engine.result() == {(1,): 3.0, (2,): -1.0}


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_arity_error_parity(backend):
    """A malformed tuple produces the identical outcome on both paths: the
    interpreted runtime raises the same error (before any state changed —
    poisoned batches stay atomic), the generated module tolerates it the same
    way the generic path always has."""
    text, schema, _ = QUERIES["group_sum"]
    good = [Update(1, "R", (value % 5, value % 3)) for value in range(40)]
    poisoned = good + [Update(1, "R", (1, 2, 3))] + good
    outcomes = {}
    for specialize in (False, True):
        engine = RecursiveIVM(parse(text), schema, backend=backend, specialize=specialize)
        engine.apply_batch(good)
        before = engine.state_backup()
        try:
            engine.apply_batch(poisoned)
        except Exception as error:
            outcomes[specialize] = (type(error), str(error))
            # Validation happens before any fold: the failed batch must not
            # have moved the state.
            assert engine.state_backup() == before, specialize
        else:
            outcomes[specialize] = ("ok", engine.state_backup())
    assert outcomes[False] == outcomes[True]
    if backend == "interpreted":
        assert outcomes[True][0] is not str and outcomes[True][0] != "ok"


# ---------------------------------------------------------------------------
# Kahan-compensated fused float totals (PR 10)
# ---------------------------------------------------------------------------


def test_float_all_total_programs_fuse_with_kahan_compensation():
    """The float field no longer keeps the generic path just to pin
    accumulation order: an all-total program fuses, with a per-target Kahan
    compensation term making the fused sum *more* accurate, not less."""
    engine = RecursiveIVM(
        parse("Sum(R(x))"), {"R": ("A",)},
        ring=FLOAT_FIELD, backend="generated", specialize=True,
    )
    assert "_KC" in engine.generated_source()
    assert engine._generated.specializations


def test_kahan_fused_totals_accuracy_no_worse_than_fsum():
    """A float total sitting at 1e16 absorbs 1000 single-tuple batches: plain
    ``+=`` drops every increment (the ulp at 1e16 is 2.0), ``math.fsum`` over
    the same contributions keeps them all — the Kahan path must match fsum."""
    import math

    from repro.compiler.codegen import generate_python
    from repro.compiler.compile import compile_query
    from repro.gmr.database import insert

    program = compile_query(parse("Sum(R(x))"), {"R": ("A",)}, name="q")
    kahan = generate_python(program, ring=FLOAT_FIELD, specialize=True)
    generic = generate_python(program, ring=FLOAT_FIELD, specialize=False)
    contributions = [1e16] + [1.0] * 1000
    exact = math.fsum(contributions)
    results = {}
    for label, generated in (("kahan", kahan), ("generic", generic)):
        maps = {name: {} for name in program.maps}
        maps["q"][()] = 1e16
        for step in range(1000):
            generated.apply_batch(maps, [insert("R", step)])
        results[label] = maps["q"][()]
    assert results["generic"] == 1e16  # the baseline really does lose the tail
    assert abs(results["kahan"] - exact) <= abs(results["generic"] - exact)
    assert results["kahan"] == exact


def test_kahan_compensation_resets_with_the_tables():
    """``reset_compensation`` clears the carried low-order bits, so a restore
    to wholly different tables does not replay a stale compensation term."""
    from repro.compiler.codegen import generate_python
    from repro.compiler.compile import compile_query
    from repro.gmr.database import insert

    program = compile_query(parse("Sum(R(x))"), {"R": ("A",)}, name="q")
    generated = generate_python(program, ring=FLOAT_FIELD, specialize=True)
    maps = {name: {} for name in program.maps}
    maps["q"][()] = 1e16
    generated.apply_batch(maps, [insert("R", 0)])
    generated.reset_compensation()
    fresh = {name: {} for name in program.maps}
    generated.apply_batch(fresh, [insert("R", 1), insert("R", 2)])
    assert fresh["q"][()] == 2.0
