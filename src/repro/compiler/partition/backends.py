"""Pluggable shard backends: where the per-shard folds run.

This module lifts the placement of a sharded fold into a narrow
:class:`ShardBackend` protocol, so the partition tier can place shard state
and shard work independently of the coordinator:

``inline``
    Every fold runs serially on the calling thread, routed per key.  Zero
    dispatch overhead; the baseline the others must match bit-for-bit — the
    default.
``process``
    Long-lived worker processes, one per shard, each owning a mirror of its
    shard's dicts (:mod:`repro.compiler.partition.worker`).  The coordinator
    ships pre-aggregated delta parts by key hash; workers fold locally and
    return only the slice-index journal and the delta keys' new values,
    which the coordinator installs into its authoritative tables and merges
    deterministically — identical ``on_change`` payloads at every shard
    count and backend.  Real parallelism on GIL builds, at the price of one
    serialization round-trip per fold; the contract is network-shaped (all
    payloads plain data), one step from shards on separate hosts.

Staleness between the coordinator's tables and the process workers' mirrors
is tracked with per-shard version counters on
:class:`~repro.compiler.sharding.ShardedMapTable`: facade writes (recompute
applies, restores, scalar folds) bump them, and the backend re-ships a
shard's contents before the next fold that touches it.  The fold path itself
keeps both sides in lockstep without bumps.

Recomputes (the per-group re-evaluation of tracked nested aggregates) are
not placed by the backend: group evaluation reads *cross-shard* map state,
which lives at the coordinator, so both executors evaluate the affected
groups serially in place.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.algebra.semirings import BUILTIN_SEMIRINGS, Semiring
from repro.compiler.indexes import journal_from_wire
from repro.compiler.sharding import ShardedMapTable, fold_table_inline

MapTable = Dict[Tuple[Any, ...], Any]

#: The process backend's dispatch gate: increment maps smaller than this are
#: folded inline on the coordinator — the worker round-trip would dominate.
MIN_PARALLEL_KEYS = 64

BACKEND_NAMES = ("inline", "process")


def default_shard_backend() -> str:
    """The process-wide default backend (the ``REPRO_SHARD_BACKEND`` knob)."""
    value = os.environ.get("REPRO_SHARD_BACKEND", "inline").strip().lower()
    return value if value in BACKEND_NAMES else "inline"


def resolve_shard_backend(name: Optional[str]) -> str:
    """Normalize a ``shard_backend=`` argument: ``None`` defers to the env."""
    if name is None:
        return default_shard_backend()
    name = str(name).strip().lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown shard backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return name


def process_fold_capable(workers: int) -> bool:
    """Whether process workers can *speed up* folds on this host.

    Separate processes sidestep the GIL, so this only asks for enough cores.
    Correctness never depends on it; it gates throughput assertions.
    """
    return (os.cpu_count() or 1) >= workers


def make_shard_backend(
    name: Optional[str], shards: int, ring: Semiring
) -> Optional["ShardBackend"]:
    """Construct the backend for a shard configuration (``None`` at shards=1).

    Unsharded sessions keep plain dict tables and the pre-sharding code
    path — there is no tier to configure.
    """
    resolved = resolve_shard_backend(name)
    if shards <= 1:
        return None
    cls = InlineShardBackend if resolved == "inline" else ProcessShardBackend
    return cls(shards, ring)


class ShardBackend:
    """The partition tier's execution protocol.

    A backend owns *where* a sharded fold runs; the coordinator owns
    partitioning, CDC, tracked-source accumulation and slice-index
    maintenance, so every backend produces byte-identical state and
    ``on_change`` payloads.  The base placement folds inline on the calling
    thread.  ``decisions`` tallies where each fold ran (``inline``,
    ``forced-inline`` or ``process``) for
    :meth:`~repro.session.Session.dispatch_statistics`.
    """

    name = "inline"

    def __init__(self, shards: int, ring: Semiring):
        self.shards = max(1, int(shards))
        self.ring = ring
        self.decisions: Dict[str, int] = {}

    def record(self, mode: str) -> None:
        self.decisions[mode] = self.decisions.get(mode, 0) + 1

    # -- the fold path ------------------------------------------------------

    def fold_table(
        self, table, acc, journal, fold_inline, sink, force_inline=False, name=None
    ) -> None:
        self.record("forced-inline" if force_inline else "inline")
        fold_table_inline(table, acc, journal, fold_inline, sink)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (worker processes, pipes); idempotent."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shards={self.shards})"


class InlineShardBackend(ShardBackend):
    """Serial folds on the calling thread — the zero-overhead baseline."""


class ProcessShardBackend(ShardBackend):
    """Long-lived worker processes owning per-shard table mirrors.

    Workers are spawned lazily on the first fold large enough to dispatch
    (one per shard, daemonic, reused for the session's life), so sessions
    that never cross the inline threshold (``min_parallel_keys``, an
    attribute tests lower to force worker dispatch on small batches) never
    fork.
    """

    name = "process"

    def __init__(self, shards, ring):
        super().__init__(shards, ring)
        self.min_parallel_keys = MIN_PARALLEL_KEYS
        self._workers: Optional[List[Tuple[Any, Any]]] = None  # (process, conn)
        self._synced: Dict[str, Tuple[ShardedMapTable, List[int]]] = {}
        self._lock = threading.Lock()

    # -- worker lifecycle ---------------------------------------------------

    def _ring_payload(self):
        """Rings travel by name when builtin (always spawn-safe); custom ring
        objects ride fork inheritance and must pickle under spawn."""
        builtin = BUILTIN_SEMIRINGS.get(getattr(self.ring, "name", None))
        if builtin is self.ring:
            return self.ring.name
        return self.ring

    def _ensure_workers(self) -> List[Tuple[Any, Any]]:
        if self._workers is not None:
            return self._workers
        with self._lock:
            if self._workers is not None:
                return self._workers
            from repro.compiler.partition.worker import worker_main

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                ctx = multiprocessing.get_context("spawn")
            payload = self._ring_payload()
            workers = []
            for _index in range(self.shards):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=worker_main, args=(child_conn, payload), daemon=True
                )
                process.start()
                child_conn.close()
                workers.append((process, parent_conn))
            self._workers = workers
        return self._workers

    def close(self) -> None:
        workers, self._workers = self._workers, None
        self._synced.clear()
        if not workers:
            return
        for process, conn in workers:
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for process, conn in workers:
            try:
                conn.close()
            except Exception:
                pass
            process.join(timeout=2)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()

    def __del__(self):  # pragma: no cover - gc-time safety net
        try:
            self.close()
        except Exception:
            pass

    # -- mirror synchronization --------------------------------------------

    def _sync_state(self, name: str, table: ShardedMapTable) -> List[int]:
        """The last-shipped version per shard (-1 = never/stale) for ``name``."""
        synced = self._synced.get(name)
        if synced is None or synced[0] is not table:
            state = [-1] * table.shard_count
            self._synced[name] = (table, state)
            return state
        return synced[1]

    def _mark_dirty(self, name: Optional[str], table: ShardedMapTable, acc) -> None:
        """Inline folds bypass the workers; their shards' mirrors go stale."""
        if name is None:
            # Anonymous fold: no way to address the mirror — invalidate all.
            self._synced.clear()
            return
        synced = self._synced.get(name)
        if synced is None or synced[0] is not table:
            return
        state, count = synced[1], table.shard_count
        for key in acc:
            state[hash(key) % count] = -1

    # -- the fold path ------------------------------------------------------

    def fold_table(
        self, table, acc, journal, fold_inline, sink, force_inline=False, name=None
    ) -> None:
        if (
            force_inline
            or name is None
            or len(acc) < self.min_parallel_keys
            or table.shard_count != self.shards
        ):
            try:
                super().fold_table(table, acc, journal, fold_inline, sink, force_inline)
            finally:
                self._mark_dirty(name, table, acc)
            return
        self.record("process")
        self._fold_on_workers(table, name, acc, journal, sink)

    def _fold_on_workers(self, table, name, acc, journal, sink) -> None:
        workers = self._ensure_workers()
        state = self._sync_state(name, table)
        versions = table.versions
        parts = table.partition(acc)
        pending = []
        for index, part in enumerate(parts):
            if not part:
                continue
            _process, conn = workers[index]
            try:
                if state[index] != versions[index]:
                    conn.send(("load", name, table.shards[index]))
                    state[index] = versions[index]
                conn.send(("fold", name, part, journal))
            except (BrokenPipeError, OSError) as exc:
                # A dead worker's pipe fails on send; drain the replies of the
                # workers already dispatched before surfacing, so their shard
                # installs are not lost.
                self._drain_replies(table, name, journal, sink, pending)
                self._synced.clear()
                self.close()
                raise RuntimeError(
                    f"shard worker {index} died before the fold of map {name!r}"
                ) from exc
            pending.append(index)
        error = self._drain_replies(table, name, journal, sink, pending)
        if error is not None:
            raise error

    def _drain_replies(self, table, name, journal, sink, pending) -> Optional[BaseException]:
        """Receive and install every dispatched worker's reply.

        Returns the first worker-reported fold error (coordinator decides
        whether to raise); a *dead* worker raises RuntimeError immediately
        after tearing the backend down.
        """
        workers = self._workers
        error: Optional[BaseException] = None
        for index in pending:
            conn = workers[index][1]
            try:
                journal_wire, changed, worker_error = conn.recv()
            except (EOFError, OSError) as exc:
                self._synced.clear()
                self.close()
                raise RuntimeError(
                    f"shard worker {index} died mid-fold of map {name!r}"
                ) from exc
            added, removed = journal_from_wire(journal_wire)
            # Install the reply into the authoritative shard: pops for
            # annihilated keys, stores for survivors.  Direct shard access —
            # no facade, no version bump — keeps mirror and table in lockstep.
            shard = table.shards[index]
            for key in removed:
                shard.pop(key, None)
            shard.update(changed)
            if journal and (added or removed):
                sink(added, removed)
            if worker_error is not None and error is None:
                error = worker_error
        return error


__all__ = [
    "BACKEND_NAMES",
    "MIN_PARALLEL_KEYS",
    "InlineShardBackend",
    "ProcessShardBackend",
    "ShardBackend",
    "default_shard_backend",
    "make_shard_backend",
    "process_fold_capable",
    "resolve_shard_backend",
]
