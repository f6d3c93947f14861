"""E12 — sharded map tables: batch-fold throughput across shard counts and backends.

Every compiled batch trigger is a set of independent per-key folds; the map
tables can be hash-partitioned into N shards
(``repro.compiler.sharding``), and the partition tier
(``repro.compiler.partition``) places the sharded folds either inline on the
coordinator (the default) or on long-lived per-shard worker processes.  This
benchmark measures three things at batch size >= 1000:

* **End-to-end batch application** on the self-join and grouped-sum
  workloads through ``RecursiveIVM(..., shards=N)`` — the production path,
  asserting N > 1 stays result-identical to N = 1.
* **Pure fold throughput** per shard count — pre-built increment maps folded
  into a table through exactly the runtime's fold machinery, isolated from
  (serial) statement evaluation.
* **Backend fold throughput** at N=4: unsharded, ``inline`` and ``process``.
  The process bar (>= 1.5x the inline backend) is asserted only on hosts
  with >= 4 cores (``repro.compiler.partition.process_fold_capable``); on
  smaller hosts the table is still printed and correctness still asserted.

Why the unsharded row is slower than the sharded ``inline`` rows: the
unsharded fold is ``TriggerRuntime._fold_increments``'s generic per-key
loop, which pays ``ring.add``, ``ring.is_zero``, a slice-index call and a
statistics increment for every key.  The sharded rows run
``make_inline_shard_fold``'s ring-specialized loop, which folds ℤ and ℝ with
native ``+`` and ``== 0``.  The difference is the loop, not the sharding.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sharded.py [--smoke]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded.py
"""

import os
import sys
import time

from repro.compiler.runtime import TriggerRuntime
from repro.compiler.compile import compile_query
from repro.compiler.partition.backends import process_fold_capable
from repro.core.parser import parse
from repro.ivm.recursive import RecursiveIVM
from repro.workloads.schemas import UNARY_SCHEMA
from repro.workloads.streams import StreamGenerator

from conftest import SMOKE, smoke_scaled

#: Batch size of every measurement (the ISSUE criterion is at >= 1000).
BATCH_SIZE = 1_000
SHARD_COUNTS = (1, 2, 4)
#: The shard count the >=1.5x process-backend criterion targets.
ASSERTED_SHARDS = 4

GROUPED_SCHEMA = {"R": ("A", "B")}

#: End-to-end workloads: name -> (query, schema, key-domain size).
WORKLOADS = {
    "selfjoin": (parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, 4_000),
    "group_sum": (parse("AggSum([a], R(a, b) * b)"), GROUPED_SCHEMA, 4_000),
}


def _stream(schema, length, domain, seed=3):
    return StreamGenerator(schema, seed=seed, default_domain_size=domain).generate(length)


# ---------------------------------------------------------------------------
# End-to-end: apply_batch through sharded engines
# ---------------------------------------------------------------------------


def measure_batch_apply(stream_length=None, repeats=3):
    """Wall time of batched application per workload and shard count.

    Returns ``{workload: {shards: seconds}}`` plus result-identity checks —
    the machine-readable record ``run_experiments.py --json`` exports.
    """
    if stream_length is None:
        stream_length = smoke_scaled(20_000, 4_000)
    results = {}
    for name, (query, schema, domain) in WORKLOADS.items():
        stream = _stream(schema, stream_length, domain)
        per_shards = {}
        reference = None
        for shards in SHARD_COUNTS:
            best = float("inf")
            for _ in range(repeats):
                engine = RecursiveIVM(query, schema, backend="generated", shards=shards)
                started = time.perf_counter()
                for batch in stream.batches(BATCH_SIZE):
                    engine.apply_batch(batch)
                best = min(best, time.perf_counter() - started)
            if reference is None:
                reference = engine.result()
            else:
                assert engine.result() == reference, (name, shards)
            per_shards[shards] = best
        results[name] = per_shards
    return results


# ---------------------------------------------------------------------------
# The isolated fold: increments -> table, through the runtime's fold machinery
# ---------------------------------------------------------------------------


def _fold_workload(distinct_keys, batches, seed=9):
    """Pre-aggregated increment maps shaped like the self-join's group folds."""
    import random

    rng = random.Random(seed)
    increments = []
    for _ in range(batches):
        increment = {}
        for _ in range(BATCH_SIZE):
            key = (rng.randrange(distinct_keys),)
            increment[key] = increment.get(key, 0) + rng.choice((1, 1, 1, -1))
        increments.append(increment)
    return increments


def measure_fold_throughput(batches=None, distinct_keys=50_000, repeats=3):
    """Pure fold throughput (keys folded per second) per shard count.

    Each measurement replays the same increment sequence into a fresh map
    hierarchy via ``TriggerRuntime._fold_increments`` — the exact production
    fold, including slice-index-free fast paths — and cross-checks that every
    shard count produces the identical final table.
    """
    if batches is None:
        batches = smoke_scaled(60, 8)
    program = compile_query(parse("AggSum([a], R(a, b) * b)"), GROUPED_SCHEMA, name="q")
    increments = _fold_workload(distinct_keys, batches)
    total_keys = sum(len(increment) for increment in increments)
    results = {}
    reference = None
    for shards in SHARD_COUNTS:
        best = float("inf")
        for _ in range(repeats):
            runtime = TriggerRuntime(program, shards=shards)
            target = runtime.program.result_map
            started = time.perf_counter()
            for increment in increments:
                runtime._fold_increments(target, increment, None, None)
            best = min(best, time.perf_counter() - started)
        final = dict(runtime.maps[target].items()) if shards > 1 else dict(runtime.maps[target])
        if reference is None:
            reference = final
        else:
            assert final == reference, f"shards={shards} diverged from unsharded fold"
        results[shards] = {"seconds": best, "keys_per_s": total_keys / best}
    speedup = results[1]["seconds"] / results[ASSERTED_SHARDS]["seconds"]
    return {
        "batch_size": BATCH_SIZE,
        "batches": batches,
        "total_keys": total_keys,
        "per_shards": results,
        "speedup_at_asserted": speedup,
    }


# ---------------------------------------------------------------------------
# The partition tier — inline vs process backend fold throughput
# ---------------------------------------------------------------------------

#: The backend matrix measured at ``ASSERTED_SHARDS``; ``unsharded`` is the
#: N=1 reference every configuration must equal bit-for-bit.
BACKEND_CONFIGS = (
    ("unsharded", 1, None),
    ("inline", ASSERTED_SHARDS, "inline"),
    ("process", ASSERTED_SHARDS, "process"),
)
#: The partition tier's criterion: process workers >= 1.5x the inline
#: backend at N=4 (processes sidestep the GIL).
PROCESS_SPEEDUP_BAR = 1.5


def measure_backend_fold_throughput(batches=None, distinct_keys=50_000, repeats=3):
    """Pure fold throughput per partition-tier backend at N=ASSERTED_SHARDS.

    Same fold workload as :func:`measure_fold_throughput`, but the dispatch
    runs through each pluggable backend — including long-lived process
    workers with warm per-shard mirrors.  Cross-checks that every backend
    produces the identical final table, then reports the process-vs-inline
    speedup the partition tier's criterion targets.
    """
    if batches is None:
        batches = smoke_scaled(60, 8)
    program = compile_query(parse("AggSum([a], R(a, b) * b)"), GROUPED_SCHEMA, name="q")
    increments = _fold_workload(distinct_keys, batches)
    total_keys = sum(len(increment) for increment in increments)
    results = {}
    reference = None
    for label, shards, backend in BACKEND_CONFIGS:
        best = float("inf")
        final = None
        for _ in range(repeats):
            runtime = TriggerRuntime(program, shards=shards, shard_backend=backend)
            target = runtime.program.result_map
            try:
                if backend == "process" and runtime.shard_backend is not None:
                    # Spawn the workers and warm their mirrors outside the
                    # timed region — the production pipeline pays this once
                    # per session, not once per batch.
                    runtime._fold_increments(target, dict(increments[0]), None, None)
                    runtime.restore_tables({target: {}})
                started = time.perf_counter()
                for increment in increments:
                    runtime._fold_increments(target, increment, None, None)
                best = min(best, time.perf_counter() - started)
                final = dict(runtime.maps[target].items())
            finally:
                if runtime.shard_backend is not None:
                    runtime.shard_backend.close()
        if reference is None:
            reference = final
        else:
            assert final == reference, f"backend {label!r} diverged from the unsharded fold"
        results[label] = {"seconds": best, "keys_per_s": total_keys / best}
    process_vs_inline = results["inline"]["seconds"] / results["process"]["seconds"]
    return {
        "batch_size": BATCH_SIZE,
        "batches": batches,
        "total_keys": total_keys,
        "shards": ASSERTED_SHARDS,
        "per_backend": results,
        "process_vs_inline": process_vs_inline,
        "asserted": process_fold_capable(ASSERTED_SHARDS) and not SMOKE,
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_sharded_apply_batch_matches_unsharded():
    """Correctness at benchmark scale: every shard count, identical results."""
    measure_batch_apply(stream_length=4_000, repeats=1)


def test_fold_throughput_scaling():
    """Sharded folds at N=4 keep >= 1/4 of the unsharded fold throughput,
    batch 1000: the partition machinery must not collapse."""
    record = measure_fold_throughput()
    speedup = record["speedup_at_asserted"]
    assert speedup >= 0.25, (
        f"sharded fold overhead is pathological: {speedup:.2f}x at "
        f"N={ASSERTED_SHARDS} (expected >= 0.25x)"
    )


def test_process_backend_beats_inline_where_capable():
    """The partition tier's criterion: >=1.5x process-vs-inline fold
    throughput at N=4.

    Process workers sidestep the GIL, so the bar is asserted on *any* build
    with enough cores (``process_fold_capable``); on smaller hosts the
    backends must still agree bit-for-bit and the process overhead must not
    be pathological.
    """
    record = measure_backend_fold_throughput()
    speedup = record["process_vs_inline"]
    if record["asserted"]:
        assert speedup >= PROCESS_SPEEDUP_BAR, (
            f"process backend at N={ASSERTED_SHARDS} is only {speedup:.2f}x the "
            f"inline backend (expected >= {PROCESS_SPEEDUP_BAR}x at batch size {BATCH_SIZE})"
        )
    else:
        # Serialization + IPC must stay within an order of magnitude of the
        # unsharded fold even when only a few cores are available.  The
        # reference is the unsharded generic loop, not the faster inline
        # loop: IPC cost does not shrink when the coordinator's loop gets
        # faster, so an inline reference would fail on slow-IPC hosts.
        unsharded = record["per_backend"]["unsharded"]["seconds"]
        vs_unsharded = unsharded / record["per_backend"]["process"]["seconds"]
        assert vs_unsharded >= 0.1, (
            f"process backend overhead is pathological: {vs_unsharded:.2f}x the "
            f"unsharded fold at N={ASSERTED_SHARDS}"
        )


# ---------------------------------------------------------------------------
# Standalone mode (CI smoke + quick local table)
# ---------------------------------------------------------------------------


def main(argv=()):
    smoke = "--smoke" in argv or SMOKE
    fold_batches = 8 if smoke else 60
    stream_length = 4_000 if smoke else 20_000

    print(f"pure fold throughput, batch size {BATCH_SIZE}, {fold_batches} batches")
    record = measure_fold_throughput(batches=fold_batches)
    print(f"{'shards':>8s} {'seconds':>10s} {'keys/s':>12s} {'vs N=1':>8s}")
    base = record["per_shards"][1]["seconds"]
    for shards, row in record["per_shards"].items():
        print(
            f"{shards:8d} {row['seconds']:10.4f} {row['keys_per_s']:12.0f} "
            f"{base / row['seconds']:7.2f}x"
        )

    print(f"\npartition-tier backends at N={ASSERTED_SHARDS}, batch size {BATCH_SIZE}")
    backend_record = measure_backend_fold_throughput(batches=fold_batches)
    print(f"{'backend':>10s} {'seconds':>10s} {'keys/s':>12s}")
    for label, row in backend_record["per_backend"].items():
        print(f"{label:>10s} {row['seconds']:10.4f} {row['keys_per_s']:12.0f}")
    process_speedup = backend_record["process_vs_inline"]
    print(f"process vs inline: {process_speedup:.2f}x")
    if backend_record["asserted"]:
        assert process_speedup >= PROCESS_SPEEDUP_BAR, (
            f"process backend is only {process_speedup:.2f}x the inline backend "
            f"(expected >= {PROCESS_SPEEDUP_BAR}x)"
        )
        print(f"asserted: {process_speedup:.2f}x >= {PROCESS_SPEEDUP_BAR}x")
    else:
        print(
            f"assertion skipped: the >= {PROCESS_SPEEDUP_BAR}x process bar needs "
            f">= {ASSERTED_SHARDS} cores (cores={os.cpu_count()})"
        )

    print(f"\nend-to-end apply_batch, batch size {BATCH_SIZE}, stream {stream_length}")
    apply_record = measure_batch_apply(stream_length=stream_length, repeats=1 if smoke else 3)
    print(f"{'workload':12s} " + " ".join(f"N={shards:<2d}{'':>6s}" for shards in SHARD_COUNTS))
    for name, per_shards in apply_record.items():
        cells = " ".join(f"{stream_length / seconds:9.0f}/s" for seconds in per_shards.values())
        print(f"{name:12s} {cells}")
    print("(results asserted identical across shard counts)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
