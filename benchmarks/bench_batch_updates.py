"""E9 — batched vs per-tuple update application, and batch triggers vs replay.

Two comparisons live here:

* **Batched vs per-tuple** (the PR-1 criterion): ``IVMEngine.apply_batch``
  applies a batch as one timed unit; at batch size 100 the generated backend
  must sustain at least 2x the per-tuple throughput.

* **Batch triggers vs grouped replay** (the PR-4 criterion): the compiled
  *batch triggers* — one relation-valued trigger per ``(relation, sign)``
  whose parameter is a pre-aggregated delta map, folded once per distinct
  key — must beat the PR-1 grouped per-tuple replay path
  (``apply_batch_replay``) by at least 2x at batch size 1000 on both the
  generated and the interpreted backend.  The self-join count (the paper's
  Example 1.2) anchors the assertion.

* **Specialized vs generic folds** (the PR-9 criterion): bare-count and
  single-key batches take hot-loop fast paths on the Z ring — fused totals
  skip the per-group delta table entirely, single-key grouping counts with
  ``collections.Counter`` in C — and must beat the generic
  (pre-specialization) fold by each query's floor at batch size 1000.  The
  fast paths exist only in the generated backend (the interpreted runtime
  is the plain reference executor), so only generated rows are measured.
  This retires PR 4's bare-count exemption: back then the bare count was
  reported for context only because both measured paths were bound by the
  same grouping loop; the specialization removes that loop, so the bare
  count now carries its own asserted floor.

Run standalone for a quick table::

    PYTHONPATH=src python benchmarks/bench_batch_updates.py [--smoke]

or through pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_updates.py
"""

import sys
import time

import pytest

from repro.core.parser import parse
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM
from repro.workloads.schemas import UNARY_SCHEMA
from repro.workloads.streams import StreamGenerator

from conftest import SMOKE, smoke_scaled

BATCH_SIZE = 100
#: Batch size of the batch-trigger-vs-replay comparison (the PR-4 criterion).
DELTA_BATCH_SIZE = 1_000
STREAM_LENGTH = smoke_scaled(20_000, 2_000)

GROUPED_SCHEMA = {"R": ("A", "B")}

QUERIES = {
    "count": parse("Sum(R(x))"),
    "selfjoin": parse("Sum(R(x) * R(y) * (x = y))"),
}

#: Queries of the batch-trigger comparison: name -> (query, schema, domain).
#: ``assert`` marks the ones held to the >=2x bar on both backends.  The
#: non-asserted rows are context here because batch trigger and replay share
#: the grouping loop that dominates them; their asserted bar lives in the
#: specialization comparison below.
DELTA_QUERIES = {
    "count": (parse("Sum(R(x))"), UNARY_SCHEMA, 50, False),
    "group_sum": (parse("AggSum([a], R(a, b) * b)"), GROUPED_SCHEMA, 12, False),
    "selfjoin": (parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, 50, True),
}

#: Queries of the specialization comparison (the PR-9 criterion, widened by
#: PR 10): the trigger shapes whose generic batch path is pure overhead,
#: each with its own asserted floor.  ``count`` compiles to a fused total
#: (no delta table at all) and ``float_count`` to the Kahan-compensated
#: fused float total — the PR-10 gate widening, held to the same 1.5x floor
#: (compensation costs two extra adds per batch, far below the delta-table
#: overhead it removes).  ``group_count`` (Counter-backed single-key
#: grouping) keeps the per-key fold of the generic path, so its ratio is
#: structurally smaller and host-sensitive — measured 1.3x–1.8x across
#: boxes — hence the re-based 1.2x floor.
SPECIALIZED_QUERIES = {
    "count": (parse("Sum(R(x))"), UNARY_SCHEMA, 50, None, 1.5),
    "group_count": (parse("AggSum([a], R(a, b))"), GROUPED_SCHEMA, 12, None, 1.2),
    "float_count": (parse("Sum(R(x))"), UNARY_SCHEMA, 50, "float", 1.5),
}

ENGINES = {
    "recursive-generated": lambda query: RecursiveIVM(query, UNARY_SCHEMA, backend="generated"),
    "recursive-interpreted": lambda query: RecursiveIVM(query, UNARY_SCHEMA, backend="interpreted"),
    "naive": lambda query: NaiveReevaluation(query, UNARY_SCHEMA),
}


def make_stream(length=STREAM_LENGTH, seed=1):
    return StreamGenerator(UNARY_SCHEMA, seed=seed, default_domain_size=50).generate(length)


def run_per_tuple(engine, stream):
    started = time.perf_counter()
    engine.apply_all(stream)
    return time.perf_counter() - started


def run_batched(engine, stream, batch_size=BATCH_SIZE):
    started = time.perf_counter()
    for batch in stream.batches(batch_size):
        engine.apply_batch(batch)
    return time.perf_counter() - started


def run_batched_replay(engine, stream, batch_size=BATCH_SIZE):
    started = time.perf_counter()
    for batch in stream.batches(batch_size):
        engine.apply_batch_replay(batch)
    return time.perf_counter() - started


def measure_batch_trigger_speedups(stream_length=None, batch_size=DELTA_BATCH_SIZE, repeats=3):
    """Batch triggers vs grouped replay, per backend and query.

    Returns ``{backend: {query: {"replay_s", "batch_s", "speedup", "asserted"}}}``
    — the machine-readable record ``run_experiments.py --json`` exports.
    """
    if stream_length is None:
        stream_length = smoke_scaled(20_000, 4_000)
    results = {}
    for backend in ("generated", "interpreted"):
        results[backend] = {}
        for name, (query, schema, domain, asserted) in DELTA_QUERIES.items():
            stream = StreamGenerator(schema, seed=1, default_domain_size=domain).generate(
                stream_length
            )
            replay_seconds = batch_seconds = float("inf")
            for _ in range(repeats):
                replay_engine = RecursiveIVM(query, schema, backend=backend)
                replay_seconds = min(
                    replay_seconds, run_batched_replay(replay_engine, stream, batch_size)
                )
                batch_engine = RecursiveIVM(query, schema, backend=backend)
                batch_seconds = min(
                    batch_seconds, run_batched(batch_engine, stream, batch_size)
                )
                assert replay_engine.result() == batch_engine.result()
            results[backend][name] = {
                "replay_s": replay_seconds,
                "batch_s": batch_seconds,
                "speedup": replay_seconds / batch_seconds,
                "asserted": asserted,
            }
    return results


def measure_specialization_speedups(stream_length=None, batch_size=DELTA_BATCH_SIZE, repeats=3):
    """Specialized vs generic batch folds of the generated backend, per query.

    Both engines run the *batch-trigger* path; the only difference is
    ``generate_python``'s ``specialize`` flag, so the ratio isolates the
    hot-loop fast paths (fused totals, Counter-backed grouping) from
    everything PR 4 already bought.  Returns
    ``{"generated": {query: {"generic_s", "specialized_s", "speedup", "floor"}}}``
    (keyed by backend so the record names the executor it measured).
    """
    if stream_length is None:
        stream_length = smoke_scaled(20_000, 4_000)
    from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING

    results = {}
    for name, (query, schema, domain, ring_tag, floor) in SPECIALIZED_QUERIES.items():
        ring = FLOAT_FIELD if ring_tag == "float" else INTEGER_RING
        stream = StreamGenerator(schema, seed=1, default_domain_size=domain).generate(
            stream_length
        )
        generic_seconds = specialized_seconds = float("inf")
        for _ in range(repeats):
            generic_engine = RecursiveIVM(
                query, schema, ring=ring, backend="generated", specialize=False
            )
            generic_seconds = min(
                generic_seconds, run_batched(generic_engine, stream, batch_size)
            )
            specialized_engine = RecursiveIVM(
                query, schema, ring=ring, backend="generated", specialize=True
            )
            specialized_seconds = min(
                specialized_seconds, run_batched(specialized_engine, stream, batch_size)
            )
            assert generic_engine.result() == specialized_engine.result()
        results[name] = {
            "generic_s": generic_seconds,
            "specialized_s": specialized_seconds,
            "speedup": generic_seconds / specialized_seconds,
            "floor": floor,
        }
    return {"generated": results}


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query_name", list(QUERIES))
@pytest.mark.parametrize("mode", ["per-tuple", f"batched-{BATCH_SIZE}"])
def test_generated_backend_throughput(benchmark, query_name, mode):
    stream = make_stream(2_000)
    benchmark.group = f"E9 {query_name} (generated backend)"

    def run():
        engine = RecursiveIVM(QUERIES[query_name], UNARY_SCHEMA, backend="generated")
        if mode == "per-tuple":
            engine.apply_all(stream)
        else:
            for batch in stream.batches(BATCH_SIZE):
                engine.apply_batch(batch)
        return engine.result()

    benchmark(run)


@pytest.mark.parametrize("query_name", list(QUERIES))
def test_batched_at_least_twice_per_tuple_throughput(query_name):
    """The acceptance check: >= 2x throughput at batch size 100.

    Best-of-three on both sides to shave timer noise; the generated backend
    typically lands at ~2.3x for the self-join and ~4x for the count.
    """
    query = QUERIES[query_name]
    stream = make_stream()
    per_tuple = min(
        run_per_tuple(RecursiveIVM(query, UNARY_SCHEMA, backend="generated"), stream)
        for _ in range(3)
    )
    batched = min(
        run_batched(RecursiveIVM(query, UNARY_SCHEMA, backend="generated"), stream)
        for _ in range(3)
    )
    speedup = per_tuple / batched
    if SMOKE:
        # The smoke configuration exists to catch breakage, not to measure:
        # short streams are fixed-cost dominated and shared CI runners are
        # noisy, so no throughput ratio is asserted here.  The 2x bar is
        # checked at the full stream length.
        assert batched > 0
        return
    assert speedup >= 2.0, (
        f"batched application of {query_name!r} is only {speedup:.2f}x the "
        f"per-tuple loop (expected >= 2x at batch size {BATCH_SIZE})"
    )


def test_batched_equals_per_tuple_result():
    stream = make_stream(3_000)
    for query in QUERIES.values():
        sequential = RecursiveIVM(query, UNARY_SCHEMA, backend="generated")
        batched = RecursiveIVM(query, UNARY_SCHEMA, backend="generated")
        sequential.apply_all(stream)
        for batch in stream.batches(BATCH_SIZE):
            batched.apply_batch(batch)
        assert sequential.result() == batched.result()


def test_batch_triggers_beat_grouped_replay():
    """The PR-4 acceptance check: batch triggers >= 2x grouped replay at
    batch size 1000 on both compiled backends (asserted queries only)."""
    if SMOKE:
        pytest.skip("timing assertion disabled in smoke mode")
    results = measure_batch_trigger_speedups()
    for backend, per_query in results.items():
        for name, row in per_query.items():
            if not row["asserted"]:
                continue
            assert row["speedup"] >= 2.0, (
                f"batch triggers for {name!r} on the {backend} backend are only "
                f"{row['speedup']:.2f}x the grouped replay path "
                f"(expected >= 2x at batch size {DELTA_BATCH_SIZE})"
            )


def test_specialized_folds_beat_generic():
    """The PR-9 acceptance check: specialized batch folds beat the generic
    path by each query's floor at batch size 1000 on the generated backend."""
    if SMOKE:
        pytest.skip("timing assertion disabled in smoke mode")
    results = measure_specialization_speedups()
    for backend, per_query in results.items():
        for name, row in per_query.items():
            assert row["speedup"] >= row["floor"], (
                f"specialized folds for {name!r} on the {backend} backend are only "
                f"{row['speedup']:.2f}x the generic path "
                f"(expected >= {row['floor']}x at batch size {DELTA_BATCH_SIZE})"
            )


# ---------------------------------------------------------------------------
# Standalone mode (CI smoke + quick local table)
# ---------------------------------------------------------------------------


def main(argv):
    smoke = "--smoke" in argv
    length = 4_000 if smoke else STREAM_LENGTH
    stream = make_stream(length)
    print(f"stream: {len(stream)} updates, batch size {BATCH_SIZE}")
    print(f"{'engine':24s} {'query':10s} {'per-tuple':>12s} {'batched':>12s} {'speedup':>8s}")
    worst_generated = float("inf")
    for engine_name, factory in ENGINES.items():
        for query_name, query in QUERIES.items():
            if engine_name == "naive" and length > 4_000:
                continue  # quadratic: keep the table fast
            sequential = factory(query)
            per_tuple_seconds = run_per_tuple(sequential, stream)
            batched_engine = factory(query)
            batched_seconds = run_batched(batched_engine, stream)
            assert sequential.result() == batched_engine.result()
            speedup = per_tuple_seconds / batched_seconds
            if engine_name == "recursive-generated":
                worst_generated = min(worst_generated, speedup)
            print(
                f"{engine_name:24s} {query_name:10s} "
                f"{len(stream) / per_tuple_seconds:10.0f}/s "
                f"{len(stream) / batched_seconds:10.0f}/s "
                f"{speedup:7.2f}x"
            )
    print(f"worst generated-backend speedup: {worst_generated:.2f}x")

    print(f"\nbatch triggers vs grouped replay, batch size {DELTA_BATCH_SIZE}")
    print(f"{'backend':14s} {'query':10s} {'replay':>12s} {'batch':>12s} {'speedup':>8s}")
    delta_length = 8_000 if smoke else smoke_scaled(20_000, 4_000)
    speedups = measure_batch_trigger_speedups(stream_length=delta_length)
    worst_asserted = float("inf")
    for backend, per_query in speedups.items():
        for query_name, row in per_query.items():
            marker = "*" if row["asserted"] else " "
            if row["asserted"]:
                worst_asserted = min(worst_asserted, row["speedup"])
            print(
                f"{backend:14s} {query_name:10s} "
                f"{delta_length / row['replay_s']:10.0f}/s "
                f"{delta_length / row['batch_s']:10.0f}/s "
                f"{row['speedup']:6.2f}x{marker}"
            )
    print(f"worst asserted batch-trigger speedup: {worst_asserted:.2f}x (* = asserted >= 2x)")
    if not SMOKE:
        assert worst_asserted >= 2.0, (
            f"batch triggers are only {worst_asserted:.2f}x the grouped replay path "
            f"(expected >= 2x at batch size {DELTA_BATCH_SIZE})"
        )

    print(f"\nspecialized vs generic batch folds, batch size {DELTA_BATCH_SIZE}")
    print(f"{'backend':14s} {'query':12s} {'generic':>12s} {'specialized':>12s} {'speedup':>8s}")
    specialization = measure_specialization_speedups(stream_length=delta_length)
    worst_margin = float("inf")
    worst_row = None
    for backend, per_query in specialization.items():
        for query_name, row in per_query.items():
            margin = row["speedup"] / row["floor"]
            if margin < worst_margin:
                worst_margin, worst_row = margin, (backend, query_name, row)
            print(
                f"{backend:14s} {query_name:12s} "
                f"{delta_length / row['generic_s']:10.0f}/s "
                f"{delta_length / row['specialized_s']:10.0f}/s "
                f"{row['speedup']:7.2f}x (floor {row['floor']}x)"
            )
    backend, query_name, row = worst_row
    print(
        f"tightest specialization margin: {query_name!r} on {backend} at "
        f"{row['speedup']:.2f}x against its {row['floor']}x floor"
    )
    if not SMOKE:
        assert worst_margin >= 1.0, (
            f"specialized folds for {query_name!r} on the {backend} backend are only "
            f"{row['speedup']:.2f}x the generic path "
            f"(expected >= {row['floor']}x at batch size {DELTA_BATCH_SIZE})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
