"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload large_state_churn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
A run, in order:

1. builds every input of the workload from ``--seed``;
2. *reference pass*: set up a session, apply a fixed prefix of the input
   with deterministic batch and flush boundaries, check the views against
   a direct evaluation, and snapshot the session;
3. *timed pass* on a fresh set-up: ``--seconds`` of load in segments.
   Before each segment and after the last, a sample round times one more
   set-up, ``Session.restore()`` of the reference snapshot (the restored
   views must equal the reference ones) and ``Session.snapshot()`` plus its
   JSON encoding of the restored session (same size as the reference).
   Peak RSS is read after the first sample round, before any timed load.
   Finally the views, and every CDC subscriber's shadow, must equal a
   direct evaluation of the tuples the generator produced.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` patches the
layers' public entry points with span wrappers (``spans.py``) and reports
the per-layer metrics: the reference pass runs traced and yields the work
counts; the timed pass alternates traced and untraced stretches (batches or
flushes), so the layers' times come from the traced ones and the tracing
overhead from the difference; and a child process with another hash seed
repeats the reference pass — its counts must be identical.

Any mismatch makes ``correct`` false, counts in ``failed`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import Session  # noqa: E402 - needs the src/ path above

from spans import LayerSpans, Tracer  # noqa: E402
from workloads import WORKLOADS, Subscriber, Timed, Toggle, Workload  # noqa: E402

#: Count metrics the child process must reproduce exactly.
COUNT_METRICS = (
    "runtime.backup.entries_per_update",
    "codegen.entries_per_update",
    "codegen.statements_per_batch",
    "gmr.coalesce.out_per_in",
    "cdc.deliveries_per_batch",
    "cdc.entries_per_batch",
    "snapshot_mb",
)


class Gate:
    """Correctness checks; every failed one counts as a failed operation."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: List[str] = []

    def check(self, label: str, actual, expected) -> None:
        self.checks += 1
        if actual != expected:
            self.failures.append(label)
            print(f"correctness: {label} differs", file=sys.stderr)

    def views(self, label: str, session: Session, expected, subscribers=()) -> None:
        for name, mapping in expected.items():
            self.check(f"{label}:{name}", session[name].result_mapping(), mapping)
        for name, subscriber in subscribers:
            self.check(f"{label}:cdc:{name}", subscriber.shadow, session[name].result_mapping())


class Run:
    """One run's phases; every timing sample lands in a list.

    The timed load runs in ``workload.segments`` segments.  Before each and
    after the last, a *sample round* (clock stopped for the load) sets up a
    fresh session, restores the reference snapshot and snapshots the
    restored session.  Spreading these samples over the whole run lets
    them see the same mix of host speed as the load does.
    """

    def __init__(self, workload: Workload, layers: Optional[LayerSpans] = None) -> None:
        self.workload = workload
        self.layers = layers
        self.gate = Gate()
        self.setup_s: List[float] = []
        self.load_s: List[float] = []
        self.snapshot_s: List[float] = []
        self.restore_s: List[float] = []
        self.snapshot: Optional[dict] = None
        self.snapshot_bytes = 0
        self.peak_rss_kib = 0
        self.live: Dict[str, dict] = {}
        self.operations = 0
        self.failures = 0

    def _phase(self, name: str) -> None:
        if self.layers is not None:
            self.layers.tracer.phase = name

    def setup(self) -> Session:
        self._phase("setup")
        started = perf_counter()
        session, load_s = self.workload.setup()
        self.setup_s.append(perf_counter() - started)
        self.load_s.append(load_s)
        return session

    def _snapshot(self, session: Session) -> Tuple[dict, int]:
        """A timed ``Session.snapshot()`` plus JSON encoding; returns it and its size."""
        self._phase("snapshot")
        started = perf_counter()
        snapshot = session.snapshot()
        size = len(json.dumps(snapshot).encode())
        self.snapshot_s.append(perf_counter() - started)
        return snapshot, size

    def reference(self) -> None:
        """Set-up, the deterministic count pass, its check, the reference snapshot."""
        workload = self.workload
        session = self.setup()
        subscribers = workload.subscribe(session)
        self._phase("count")
        progress = workload.run_prefix(session)
        self.operations += workload.count_prefix
        self.gate.views("prefix", session, workload.expected(progress), subscribers)
        self.live = {name: session[name].result_mapping() for name in workload.views}
        self.snapshot, self.snapshot_bytes = self._snapshot(session)

    def sample_round(self) -> None:
        # Move everything alive out of the collector's reach, so neither these
        # samples nor the next segment of load rescan what the load left
        # behind: the timed session's history grows with every update, and a
        # full collection's cost with it, so it would depend on throughput.
        gc.collect()
        gc.freeze()
        if self.layers is not None:
            self.layers.enable(True)
        self.setup()  # a set-up sample; the session is dropped at once
        gc.collect()
        self._phase("restore")
        started = perf_counter()
        restored = Session.restore(self.snapshot)
        self.restore_s.append(perf_counter() - started)
        self.gate.views("restore", restored, self.live)
        _, size = self._snapshot(restored)
        self.gate.check("restore:snapshot_bytes", size, self.snapshot_bytes)
        del restored
        gc.collect()

    def timed(self, seconds: float, toggle: Optional[Toggle] = None) -> Timed:
        session = self.setup()
        # Untimed warm-up: the process's first restore also pays for growing
        # the heap to hold a second session.
        Session.restore(self.snapshot)
        subscribers = self.workload.subscribe(session)
        drive = self.workload.drive(session, toggle)
        segments = self.workload.segments
        for index in range(segments):
            self.sample_round()
            if index == 0:
                # Peak over a fixed amount of work: input, reference pass, this
                # set-up and one sample round.  The timed load grows the
                # session's history with every update it applies, so a peak
                # taken later would rise with throughput.
                self.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self._phase("timed")
            drive.segment(seconds / segments)
        timed = drive.close()
        self.operations += timed.operations
        self.failures += timed.failures
        self.gate.views("timed", session, self.workload.expected(timed.progress), subscribers)
        del session, subscribers, drive
        self.sample_round()
        return timed

    def result(self, metrics: Dict[str, Dict[str, float]]) -> Dict:
        return {
            "correct": not self.gate.failures and not self.failures,
            "attempted": self.operations + self.gate.checks,
            "failed": self.failures + len(self.gate.failures),
            "metrics": metrics,
        }


def _ms(samples: List[float]) -> str:
    return " ".join(f"{sample * 1e3:.0f}" for sample in samples) + " ms"


def _p90(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(run: Run, timed: Timed) -> Dict[str, Dict[str, float]]:
    """Tail statistics, not medians, for every time but ``setup_s``.

    The shared host alternates between a fast and a slow phase (about 1.5x
    apart) lasting up to minutes, so a run's median lands on whichever phase
    held most of it and differs from run to run.  Slow phases come in every
    run: the slow end of a run's samples is what repeats.
    """
    return {
        "sustained_updates_per_s": {
            "value": statistics.quantiles(timed.windows, n=10)[0], "unit": "1/s"
        },
        "latency_p95_ms": {
            "value": statistics.quantiles(timed.latencies, n=20)[18] * 1e3,
            "unit": "ms",
        },
        "setup_s": {"value": statistics.median(run.setup_s), "unit": "s"},
        "peak_rss_mb": {"value": run.peak_rss_kib / 1024, "unit": "MiB"},
        "snapshot_p90_s": {"value": _p90(run.snapshot_s), "unit": "s"},
        "snapshot_mb": {"value": run.snapshot_bytes / 2**20, "unit": "MiB"},
        "restore_p90_s": {"value": _p90(run.restore_s), "unit": "s"},
    }


def count_metrics(tracer: Tracer, run: Run) -> Dict[str, float]:
    """Work counts of the reference pass: identical for every run of one seed."""
    batches = tracer.select("count", "session.apply_batch")
    coalesce = tracer.select("count", "gmr.coalesce")
    # Effective updates: what survives coalescing (ingest flushes arrive coalesced).
    effective = sum(span.counts["out"] for span in coalesce) + sum(
        span.counts["updates"] for span in batches if span.counts["coalesced"]
    )
    folds = tracer.select("count", "codegen.apply_batch")
    deliveries = tracer.select("count", "cdc.subscriber")
    coalesced_in = sum(span.counts["in"] for span in coalesce)

    def total(spans, key):
        return sum(span.counts.get(key, 0) for span in spans)

    return {
        "runtime.backup.entries_per_update": (
            total(tracer.select("count", "runtime.backup"), "entries") / effective
        ),
        "codegen.entries_per_update": total(folds, "entries") / effective,
        "codegen.statements_per_batch": total(folds, "statements") / len(batches),
        "gmr.coalesce.out_per_in": (
            sum(span.counts["out"] for span in coalesce) / coalesced_in if coalesced_in else 0.0
        ),
        "cdc.deliveries_per_batch": len(deliveries) / len(batches),
        "cdc.entries_per_batch": total(deliveries, "entries") / len(batches),
        "snapshot_mb": run.snapshot_bytes / 2**20,
    }


def _overhead(timed: Timed) -> float:
    """Median traced busy time per update over the untraced median, minus one.

    Closed loop: batch latencies of the traced blocks against the untraced
    ones.  Ingest: flush apply time per compact update, traced flushes
    against untraced ones.  Medians, so a garbage collection landing in one
    of the two does not decide the figure.
    """
    if timed.flushes:
        samples = [((end - start) / size, traced) for start, end, size, traced in timed.flushes]
    else:
        samples = list(zip(timed.latencies, timed.traced))
    traced = statistics.median(time for time, mode in samples if mode)
    return traced / statistics.median(time for time, mode in samples if not mode) - 1.0


def per_layer(tracer: Tracer, run: Run, timed: Timed, counts: Dict[str, float]):
    batches = tracer.select("timed", "session.apply_batch")
    busy = sum(span.duration for span in batches)

    def per_batch(name: str) -> float:
        """Self milliseconds of a layer per traced ``apply_batch`` call."""
        return 1e3 * sum(span.self_time for span in tracer.select("timed", name)) / len(batches)

    def per_call(phase: str, name: str) -> float:
        spans = tracer.select(phase, name)
        return 1e3 * sum(span.duration for span in spans) / len(spans) if spans else 0.0

    def per_setup(name: str) -> float:
        return 1e3 * sum(span.duration for span in tracer.select("setup", name)) / len(run.setup_s)

    stats = timed.ingest_stats
    flushes = stats.get("flushes", 0)
    chunks = [(returned, timed.flushes[flush]) for returned, flush in timed.chunk_flush]
    values = {
        "session.apply_batch.ms": ("ms", 1e3 * busy / len(batches)),
        "session.self.ms": ("ms", per_batch("session.apply_batch")),
        "gmr.coalesce.ms": ("ms", per_batch("gmr.coalesce")),
        "runtime.backup.ms": ("ms", per_batch("runtime.backup")),
        "codegen.apply_batch.ms": ("ms", per_batch("codegen.apply_batch")),
        "cdc.subscriber.ms": ("ms", per_batch("cdc.subscriber")),
        "ingest.submit.ms": ("ms", per_call("timed", "ingest.submit")),
        "ingest.submit.wait_ms": (
            "ms", 1e3 * stats.get("backpressure_wait_s", 0.0) / timed.operations
        ),
        "ingest.drain.ms": ("ms", per_call("timed", "ingest.drain")),
        "ingest.flush.updates": (
            "count", stats.get("flushed_updates", 0) / flushes if flushes else 0.0
        ),
        "ingest.stalls_per_flush": (
            "ratio", stats.get("backpressure_stalls", 0) / flushes if flushes else 0.0
        ),
        "ingest.queue_wait_ms": (
            "ms", 1e3 * statistics.fmean(flush[0] - returned for returned, flush in chunks)
            if chunks else 0.0,
        ),
        "ingest.apply_ms": (
            "ms", 1e3 * statistics.fmean(flush[1] - flush[0] for _, flush in chunks)
            if chunks else 0.0,
        ),
        "ingest.stats_snapshot.ms": ("ms", per_call("timed", "ingest.stats_snapshot")),
        "session.view.ms": ("ms", per_setup("session.view")),
        "compile.compile_query.ms": ("ms", per_setup("compile.compile_query")),
        "codegen.generate_python.ms": ("ms", per_setup("codegen.generate_python")),
        "setup.load_s": ("s", statistics.median(run.load_s)),
        "session.snapshot.ms": ("ms", per_call("snapshot", "session.snapshot")),
        "session.restore.ms": ("ms", per_call("restore", "session.restore")),
        "trace.named_share": ("ratio", sum(span.child for span in batches) / busy),
        "trace.overhead": ("ratio", _overhead(timed)),
    }
    for name in COUNT_METRICS[:-1]:
        values[name] = ("ratio" if name == "gmr.coalesce.out_per_in" else "count", counts[name])
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}


def _child_counts(args: argparse.Namespace) -> Dict[str, float]:
    """The reference pass's counts from a fresh process under another hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 1000 + 1))
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--counts-only",
    ]
    child = subprocess.run(command, env=env, capture_output=True, text=True, timeout=170)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError("count self-check child failed")
    return json.loads(child.stdout.splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    # The pre-generated input is the harness's memory, not the library's:
    # keep the collector from re-scanning it on every full collection.
    gc.collect()
    gc.freeze()
    if not args.trace and not args.counts_only:
        run = Run(workload)
        run.reference()
        timed = run.timed(args.seconds)
        result = run.result(end_to_end(run, timed))
        print(
            f"timed: {len(timed.latencies)} latencies, {len(timed.windows)} windows; "
            f"set-up {_ms(run.setup_s)}; snapshot {_ms(run.snapshot_s)}; "
            f"restore {_ms(run.restore_s)}",
            file=sys.stderr,
        )
    else:
        tracer = Tracer()
        layers = LayerSpans(tracer, Subscriber)
        layers.enable()
        run = Run(workload, layers)
        run.reference()
        counts = count_metrics(tracer, run)
        if args.counts_only:
            print(json.dumps(counts))
            return 0

        def toggle(index: int) -> bool:
            layers.enable(index // workload.trace_block % 2 == 0)
            return layers.enabled

        timed = run.timed(args.seconds, toggle)
        layers.enable(False)
        child = _child_counts(args)
        for name in COUNT_METRICS:
            run.gate.check(f"counts:{name}", child[name], counts[name])
        result = run.result(per_layer(tracer, run, timed, counts))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
