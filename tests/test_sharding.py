"""Sharded map tables and the partition tier's shard backends.

The contract under test: for every shard count N, a sharded session/engine is
*indistinguishable* from the unsharded one — same view results, same
``on_change`` payloads, same replay/bootstrap behavior — and ``shards=1``
keeps plain dict tables (the pre-sharding code path).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.compiler.partition.backends import (
    MIN_PARALLEL_KEYS,
    InlineShardBackend,
    ProcessShardBackend,
    default_shard_backend,
)
from repro.compiler.sharding import (
    ShardedMapTable,
    partition_map,
    resolve_shard_count,
    shard_of,
)
from repro.gmr.database import Update, insert
from repro.ivm.recursive import RecursiveIVM
from repro.session.session import Session
from repro.workloads.schemas import UNARY_SCHEMA

GROUPED_SCHEMA = {"R": ("A",), "S": ("A", "B")}

SHARD_COUNTS = (2, 3, 8)
COMPILED_BACKENDS = ("generated", "interpreted")


# ---------------------------------------------------------------------------
# The partitioner and the table facade
# ---------------------------------------------------------------------------


def test_shard_of_is_stable_and_in_range():
    for key in [(), (1,), ("a", 2), (None, "x", 3.5)]:
        for count in (1, 2, 7):
            shard = shard_of(key, count)
            assert 0 <= shard < count
            assert shard == shard_of(key, count)  # pure function of the key


def test_partition_map_is_a_disjoint_cover():
    mapping = {(i, i % 3): i for i in range(100)}
    parts = partition_map(mapping, 4)
    assert len(parts) == 4
    merged = {}
    for index, part in enumerate(parts):
        for key in part:
            assert shard_of(key, 4) == index
        merged.update(part)
    assert merged == mapping


def test_sharded_map_table_mapping_protocol():
    table = ShardedMapTable(3, {(i,): i * 10 for i in range(20)})
    assert len(table) == 20
    assert table[(4,)] == 40
    assert table.get((4,)) == 40
    assert table.get((99,), "default") == "default"
    assert (4,) in table and (99,) not in table
    table[(99,)] = 1
    assert table.pop((99,)) == 1
    assert table.pop((99,), None) is None
    with pytest.raises(KeyError):
        table.pop((99,))
    assert dict(table.items()) == {(i,): i * 10 for i in range(20)}
    assert dict(table) == {(i,): i * 10 for i in range(20)}
    assert set(table) == {(i,) for i in range(20)}
    assert sorted(table.values()) == sorted(i * 10 for i in range(20))
    assert table == {(i,): i * 10 for i in range(20)}
    assert table == ShardedMapTable(5, dict(table.items()))  # layout-independent
    assert table.copy() == dict(table.items())
    # The shards really partition the key space.
    for index, shard in enumerate(table.shards):
        for key in shard:
            assert shard_of(key, 3) == index
    table.clear()
    assert len(table) == 0 and not table


def test_resolve_shard_count_env_default(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert resolve_shard_count(None) == 1
    monkeypatch.setenv("REPRO_SHARDS", "4")
    assert resolve_shard_count(None) == 4
    assert resolve_shard_count(2) == 2  # explicit argument wins
    with pytest.raises(ValueError):
        resolve_shard_count(0)


def test_shards_1_keeps_plain_dict_tables():
    session = Session(UNARY_SCHEMA, shards=1)
    session.view("q", "Sum(R(x))", backend="generated")
    runtime = session._groups["generated"].runtime
    assert all(type(table) is dict for table in runtime.maps.values())
    sharded = Session(UNARY_SCHEMA, shards=2)
    sharded.view("q", "Sum(R(x))", backend="generated")
    runtime = sharded._groups["generated"].runtime
    assert all(type(table) is ShardedMapTable for table in runtime.maps.values())


def test_repro_shards_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "3")
    session = Session(UNARY_SCHEMA)
    assert session.shards == 3
    session.view("q", "Sum(R(x) * R(y) * (x = y))", backend="generated")
    session.apply_batch([insert("R", value % 5) for value in range(100)])
    unsharded = Session(UNARY_SCHEMA, shards=1)
    unsharded.view("q", "Sum(R(x) * R(y) * (x = y))", backend="generated")
    unsharded.apply_batch([insert("R", value % 5) for value in range(100)])
    assert session["q"].result() == unsharded["q"].result()


# ---------------------------------------------------------------------------
# Engine-level equivalence (RecursiveIVM shards=N)
# ---------------------------------------------------------------------------


def _mixed_trace(rng, relations, length, domain):
    updates = []
    for _ in range(length):
        relation, arity = relations[rng.randrange(len(relations))]
        sign = 1 if rng.random() < 0.65 else -1
        values = tuple(rng.randint(0, domain) for _ in range(arity))
        updates.append(Update(sign, relation, values))
    return updates


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_engine_matches_unsharded(backend, shards):
    from repro.core.parser import parse

    query = parse("AggSum([a], S(a, b) * b)")
    rng = random.Random(shards * 17 + len(backend))
    base = RecursiveIVM(query, GROUPED_SCHEMA, backend=backend)
    sharded = RecursiveIVM(query, GROUPED_SCHEMA, backend=backend, shards=shards)
    for _ in range(6):
        batch = _mixed_trace(rng, [("S", 2)], rng.choice([5, 80, 300]), 60)
        base.apply_batch(batch)
        sharded.apply_batch(batch)
        assert sharded.result() == base.result()
    # Per-tuple application on sharded tables also agrees.
    for update in _mixed_trace(rng, [("S", 2)], 40, 60):
        base.apply(update)
        sharded.apply(update)
    assert sharded.result() == base.result()


@pytest.mark.parametrize("shards", (2, 4))
def test_sharded_bootstrap_matches_unsharded(shards):
    from repro.core.parser import parse
    from repro.gmr.database import Database

    query = parse("Sum(R(x) * R(y) * (x = y))")
    db = Database(schema=UNARY_SCHEMA)
    db.load("R", [(value % 7,) for value in range(50)])
    base = RecursiveIVM(query, UNARY_SCHEMA, backend="generated")
    sharded = RecursiveIVM(query, UNARY_SCHEMA, backend="generated", shards=shards)
    base.bootstrap(db)
    sharded.bootstrap(db)
    assert sharded.result() == base.result()
    for table in sharded.runtime.maps.values():
        assert type(table) is ShardedMapTable
    batch = [insert("R", value % 7) for value in range(200)]
    base.apply_batch(batch)
    sharded.apply_batch(batch)
    assert sharded.result() == base.result()


# ---------------------------------------------------------------------------
# The randomized session property: state- and CDC-equivalence at every N
# ---------------------------------------------------------------------------


VIEWS = {
    "selfjoin": "Sum(R(x) * R(y) * (x = y))",
    "gsum": "AggSum([a], S(a, b) * b)",
    "count": "Sum(S(a, b))",
}


def _build_session(shards, backend):
    session = Session(GROUPED_SCHEMA, shards=shards)
    views, cdc = {}, {name: [] for name in VIEWS}
    for name, query in VIEWS.items():
        views[name] = session.view(name, query, backend=backend)
        views[name].on_change(
            lambda changes, _name=name: cdc[_name].append(sorted(changes.items()))
        )
    return session, cdc


def _random_batch(rng, size, domain):
    batch = []
    for _ in range(size):
        if rng.random() < 0.4:
            batch.append(
                Update(1 if rng.random() < 0.7 else -1, "R", (rng.randint(0, domain),))
            )
        else:
            batch.append(
                Update(
                    1 if rng.random() < 0.7 else -1,
                    "S",
                    (rng.randint(0, domain), rng.randint(0, 9)),
                )
            )
    return batch


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_session_state_and_cdc_equivalent(backend, shards):
    """The acceptance property: a sharded session is indistinguishable from the
    unsharded one on mixed single/batch traces — results *and* CDC streams —
    including batches large enough to cross the process backend's worker gate."""
    rng = random.Random(1000 * shards + len(backend))
    base, base_cdc = _build_session(1, backend)
    sharded, sharded_cdc = _build_session(shards, backend)
    for step in range(12):
        if rng.random() < 0.3:
            update = _random_batch(rng, 1, 40)[0]
            base.apply(update)
            sharded.apply(update)
        else:
            # Occasionally exceed MIN_PARALLEL_KEYS so a process backend
            # (REPRO_SHARD_BACKEND=process) dispatches to its workers.
            size = rng.choice([3, 40, MIN_PARALLEL_KEYS * 4])
            batch = _random_batch(rng, size, 40)
            base.apply_batch(batch)
            sharded.apply_batch(batch)
        assert sharded.results() == base.results(), (backend, shards, step)
        assert sharded_cdc == base_cdc, (backend, shards, step)


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_snapshot_restore_across_shard_counts(backend):
    """snapshot() at one shard count restores at any other, mid-trace, and the
    restored session keeps producing unsharded-identical results."""
    rng = random.Random(42)
    base, _ = _build_session(1, backend)
    sharded, _ = _build_session(3, backend)
    for _ in range(4):
        batch = _random_batch(rng, 50, 30)
        base.apply_batch(batch)
        sharded.apply_batch(batch)
    snapshot = sharded.snapshot()
    assert snapshot["shards"] == 3
    for new_count in (1, 2, 8):
        restored = Session.restore(snapshot, shards=new_count)
        assert restored.shards == new_count
        assert restored.results() == base.results()
        # The revived session must keep maintaining correctly at the new count.
        tail = _random_batch(random.Random(new_count), 80, 30)
        restored.apply_batch(tail)
        continued, _ = _build_session(1, backend)
        for update in base._history:
            continued.apply(update)
        continued.apply_batch(tail)
        assert restored.results() == continued.results()
    # Without an override the recorded count is used.
    assert Session.restore(snapshot).shards == 3


def test_late_view_registration_on_sharded_session():
    """A view registered after updates flowed bootstraps from the replayed
    history into sharded tables and is immediately consistent."""
    session = Session(GROUPED_SCHEMA, shards=4)
    session.view("count", "Sum(S(a, b))", backend="generated")
    session.apply_batch(
        [Update(1, "S", (value % 11, value % 5)) for value in range(150)]
    )
    late = session.view("gsum", "AggSum([a], S(a, b) * b)", backend="generated")
    reference = Session(GROUPED_SCHEMA, shards=1)
    ref_view = reference.view("gsum", "AggSum([a], S(a, b) * b)", backend="generated")
    reference.apply_batch(
        [Update(1, "S", (value % 11, value % 5)) for value in range(150)]
    )
    assert late.result() == ref_view.result()
    for table in session._groups["generated"].runtime.maps.values():
        assert type(table) is ShardedMapTable


# ---------------------------------------------------------------------------
# The partition tier: backend equivalence (inline / process)
# ---------------------------------------------------------------------------


SHARD_BACKENDS = ("inline", "process")

#: A nested-aggregate view whose S-trigger carries a *tracked* recompute, so
#: traces through it re-evaluate affected groups over sharded tables.
NESTED_SCHEMA = {"R": ("G", "X"), "S": ("G", "Y")}
NESTED_QUERY = "AggSum([g], R(g, x) * (x < Sum(S(g, y) * y)) * x)"


def _force_dispatch(session):
    """Lower the process backend's worker gate so small test batches dispatch."""
    for group in session._groups.values():
        if isinstance(group.shard_backend, ProcessShardBackend):
            group.shard_backend.min_parallel_keys = 4
    return session


def _build_backend_session(shards, executor, shard_backend):
    session = Session(GROUPED_SCHEMA, shards=shards, shard_backend=shard_backend)
    cdc = {name: [] for name in VIEWS}
    for name, query in VIEWS.items():
        view = session.view(name, query, backend=executor)
        view.on_change(lambda changes, _name=name: cdc[_name].append(sorted(changes.items())))
    return _force_dispatch(session), cdc


@pytest.mark.parametrize("executor", COMPILED_BACKENDS)
@pytest.mark.parametrize("shard_backend", SHARD_BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_every_backend_matches_unsharded_state_and_cdc(shards, shard_backend, executor):
    """The PR-8 acceptance property: every (N, backend, executor) combination
    is byte-identical to the unsharded session — results and CDC streams —
    with the worker gate lowered so the real worker paths run."""
    rng = random.Random(7000 + 100 * shards + len(shard_backend) + len(executor))
    base, base_cdc = _build_session(1, executor)
    sharded, sharded_cdc = _build_backend_session(shards, executor, shard_backend)
    try:
        for step in range(6):
            if rng.random() < 0.25:
                update = _random_batch(rng, 1, 40)[0]
                base.apply(update)
                sharded.apply(update)
            else:
                batch = _random_batch(rng, rng.choice([3, 40, 120]), 40)
                base.apply_batch(batch)
                sharded.apply_batch(batch)
            assert sharded.results() == base.results(), (shards, shard_backend, executor, step)
            assert sharded_cdc == base_cdc, (shards, shard_backend, executor, step)
    finally:
        sharded.close()


@pytest.mark.parametrize("executor", COMPILED_BACKENDS)
@pytest.mark.parametrize("shard_backend", SHARD_BACKENDS)
def test_tracked_recomputes_dispatch_per_backend(shard_backend, executor):
    """Nested-aggregate maintenance (tracked recomputes) must agree with the
    unsharded engine over each backend's sharded tables."""
    rng = random.Random(31 + len(shard_backend) + len(executor))
    base = Session(NESTED_SCHEMA, shards=1)
    base.view("nested", NESTED_QUERY, backend=executor)
    sharded = Session(NESTED_SCHEMA, shards=4, shard_backend=shard_backend)
    sharded.view("nested", NESTED_QUERY, backend=executor)
    _force_dispatch(sharded)
    try:
        for step in range(5):
            batch = []
            for _ in range(rng.choice([8, 60])):
                relation = "R" if rng.random() < 0.5 else "S"
                batch.append(
                    Update(
                        1 if rng.random() < 0.7 else -1,
                        relation,
                        (rng.randint(0, 12), rng.randint(0, 20)),
                    )
                )
            base.apply_batch(batch)
            sharded.apply_batch(batch)
            assert sharded.results() == base.results(), (shard_backend, executor, step)
    finally:
        sharded.close()


@pytest.mark.parametrize("executor", COMPILED_BACKENDS)
def test_snapshot_restore_across_backends_and_shard_counts(executor):
    """A snapshot taken under one (N, backend) revives under any other —
    including process→inline — and keeps maintaining correctly."""
    rng = random.Random(99)
    origin, _ = _build_backend_session(3, executor, "process")
    base, _ = _build_session(1, executor)
    try:
        for _ in range(3):
            batch = _random_batch(rng, 60, 30)
            origin.apply_batch(batch)
            base.apply_batch(batch)
        snapshot = origin.snapshot()
        assert snapshot["shards"] == 3
        assert snapshot["shard_backend"] == "process"
    finally:
        origin.close()
    for new_count, new_backend in ((1, None), (2, "inline"), (4, "inline"), (2, "process")):
        restored = Session.restore(snapshot, shards=new_count, shard_backend=new_backend)
        _force_dispatch(restored)
        try:
            assert restored.shards == new_count
            if new_backend is not None and new_count > 1:
                assert restored.shard_backend == new_backend
            assert restored.results() == base.results()
            tail = _random_batch(random.Random(new_count), 80, 30)
            restored.apply_batch(tail)
            continued, _ = _build_session(1, executor)
            for update in base._history:
                continued.apply(update)
            continued.apply_batch(tail)
            assert restored.results() == continued.results()
        finally:
            restored.close()
    # Without an override the recorded backend is used.
    assert Session.restore(snapshot).shard_backend == "process"


@pytest.mark.parametrize("executor", COMPILED_BACKENDS)
def test_restore_of_thread_backend_snapshot_uses_default_backend(executor):
    """Snapshots recorded under the removed ``thread`` backend revive under
    the default backend and match the live session."""
    rng = random.Random(12)
    session, _ = _build_session(3, executor)
    session.apply_batch(_random_batch(rng, 80, 30))
    snapshot = dict(session.snapshot(), shard_backend="thread")
    restored = Session.restore(snapshot)
    try:
        assert restored.shard_backend == default_shard_backend()
        assert restored.results() == session.results()
        tail = _random_batch(rng, 80, 30)
        session.apply_batch(tail)
        restored.apply_batch(tail)
        assert restored.results() == session.results()
    finally:
        restored.close()
        session.close()


@pytest.mark.parametrize("shard_backend", SHARD_BACKENDS)
def test_restore_of_thread_backend_snapshot_honours_override(shard_backend):
    """An explicit ``shard_backend=`` wins over a recorded ``thread`` backend,
    and the revived session matches the unsharded one after more churn."""
    rng = random.Random(13 + len(shard_backend))
    base, base_cdc = _build_session(1, "generated")
    base.apply_batch(_random_batch(rng, 90, 30))
    snapshot = dict(base.snapshot(), shards=3, shard_backend="thread")
    restored = Session.restore(snapshot, shard_backend=shard_backend)
    _force_dispatch(restored)
    try:
        assert restored.shards == 3
        assert restored.shard_backend == shard_backend
        assert restored.results() == base.results()
        for _ in range(3):
            batch = _random_batch(rng, 70, 30)
            base.apply_batch(batch)
            restored.apply_batch(batch)
            assert restored.results() == base.results()
    finally:
        restored.close()


@pytest.mark.parametrize("shard_backend", SHARD_BACKENDS)
def test_json_snapshot_round_trip_across_backends(shard_backend):
    """A snapshot of ℤ counter maps survives a JSON round-trip under either
    backend: the revived session matches the live one, then and after churn."""
    rng = random.Random(21 + len(shard_backend))
    live, live_cdc = _build_backend_session(3, "generated", shard_backend)
    try:
        live.apply_batch(_random_batch(rng, 120, 30))
        snapshot = json.loads(json.dumps(live.snapshot()))
        assert snapshot["shard_backend"] == shard_backend
        restored = Session.restore(snapshot)
        _force_dispatch(restored)
        try:
            assert restored.shard_backend == shard_backend
            assert restored.results() == live.results()
            for _ in range(3):
                batch = _random_batch(rng, 70, 30)
                live.apply_batch(batch)
                restored.apply_batch(batch)
                assert restored.results() == live.results()
        finally:
            restored.close()
    finally:
        live.close()


def test_process_backend_transactional_rollback():
    """A poisoned batch through the process backend rolls back exactly like
    the unsharded path, and the workers resync from the restored tables."""
    session = Session(GROUPED_SCHEMA, shards=4, shard_backend="process")
    session.view("gsum", "AggSum([a], S(a, b) * b)", backend="generated")
    _force_dispatch(session)
    try:
        session.apply_batch([Update(1, "S", (value % 9, value % 5)) for value in range(120)])
        before = session["gsum"].result_mapping()
        poisoned = [Update(1, "S", (value % 9, value % 5)) for value in range(40)]
        poisoned.append(Update(1, "S", (1, "boom")))
        with pytest.raises(Exception):
            session.apply_batch(poisoned)
        assert session["gsum"].result_mapping() == before
        # The backend keeps serving correct folds after the rollback.
        session.apply_batch([Update(1, "S", (value % 9, value % 5)) for value in range(80)])
        reference = Session(GROUPED_SCHEMA, shards=1)
        reference.view("gsum", "AggSum([a], S(a, b) * b)", backend="generated")
        reference.apply_batch([Update(1, "S", (value % 9, value % 5)) for value in range(120)])
        reference.apply_batch([Update(1, "S", (value % 9, value % 5)) for value in range(80)])
        assert session["gsum"].result_mapping() == reference["gsum"].result_mapping()
    finally:
        session.close()


def test_process_backend_ingest_pipeline():
    """The streaming ingestion flusher drives the process backend correctly."""
    session = Session(GROUPED_SCHEMA, shards=4, shard_backend="process")
    session.view("gsum", "AggSum([a], S(a, b) * b)", backend="generated")
    _force_dispatch(session)
    reference = Session(GROUPED_SCHEMA, shards=1)
    reference.view("gsum", "AggSum([a], S(a, b) * b)", backend="generated")
    rng = random.Random(5)
    updates = [
        Update(
            1 if rng.random() < 0.75 else -1,
            "S",
            (rng.randint(0, 25), rng.randint(0, 9)),
        )
        for _ in range(400)
    ]
    try:
        with session.ingest(max_pending=1_000_000, max_staleness_ms=None) as pipe:
            for index, update in enumerate(updates):
                pipe.submit(update)
                if index % 150 == 149:
                    pipe.flush()
        reference.apply_all(updates)
        assert session["gsum"].result_mapping() == reference["gsum"].result_mapping()
    finally:
        session.close()


def test_backend_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_BACKEND", raising=False)
    assert default_shard_backend() == "inline"
    # Unknown env values, including the removed "thread", fall back.
    monkeypatch.setenv("REPRO_SHARD_BACKEND", "thread")
    assert default_shard_backend() == "inline"
    monkeypatch.setenv("REPRO_SHARD_BACKEND", "process")
    assert default_shard_backend() == "process"
    explicit = Session(GROUPED_SCHEMA, shards=2, shard_backend="inline")
    explicit.view("count", "Sum(S(a, b))", backend="generated")
    assert isinstance(explicit._groups["generated"].shard_backend, InlineShardBackend)
    implicit = Session(GROUPED_SCHEMA, shards=2)
    implicit.view("count", "Sum(S(a, b))", backend="generated")
    assert isinstance(implicit._groups["generated"].shard_backend, ProcessShardBackend)
    implicit.close()
    for name in ("bogus", "thread"):
        with pytest.raises(ValueError, match=r"\('inline', 'process'\)"):
            Session(GROUPED_SCHEMA, shards=2, shard_backend=name)


@pytest.mark.parametrize("name", [None, "inline", "process"])
def test_make_shard_backend_placements(monkeypatch, name):
    """``make_shard_backend`` builds no backend at shards=1 and otherwise the
    named placement (``None`` defers to the env default), with empty tallies."""
    from repro.algebra.semirings import INTEGER_RING
    from repro.compiler.partition.backends import make_shard_backend

    monkeypatch.delenv("REPRO_SHARD_BACKEND", raising=False)
    expected = {None: InlineShardBackend, "inline": InlineShardBackend}
    expected["process"] = ProcessShardBackend
    assert make_shard_backend(name, 1, INTEGER_RING) is None
    backend = make_shard_backend(name, 3, INTEGER_RING)
    try:
        assert type(backend) is expected[name]
        assert backend.name == (name or "inline")
        assert backend.shards == 3 and backend.ring is INTEGER_RING
        assert backend.decisions == {}
    finally:
        backend.close()
    backend.close()  # idempotent


@pytest.mark.parametrize("shards", [2, 4])
def test_process_backend_gate_and_mirror_resync(shards):
    """Below the worker gate the process backend folds inline on the
    coordinator, which leaves the touched worker mirrors stale; the next
    worker fold must re-ship those shards and still agree with a plain dict."""
    from repro.algebra.semirings import INTEGER_RING
    from repro.compiler.sharding import fold_sharded_table, make_inline_shard_fold

    backend = ProcessShardBackend(shards, INTEGER_RING)
    assert backend.min_parallel_keys == MIN_PARALLEL_KEYS
    table = ShardedMapTable(shards, {})
    table.backend = backend
    inline = make_inline_shard_fold(INTEGER_RING)
    reference = {}
    big = {(i,): 1 for i in range(MIN_PARALLEL_KEYS)}
    small = {(i,): 5 for i in range(MIN_PARALLEL_KEYS - 1)}
    try:
        for acc, mode in ((big, "process"), (small, "inline"), (big, "process")):
            before = dict(backend.decisions)
            fold_sharded_table(table, acc, False, inline, None, name="m")
            for key, value in acc.items():
                reference[key] = reference.get(key, 0) + value
            assert table == reference
            assert backend.decisions.get(mode, 0) == before.get(mode, 0) + 1
        assert backend.decisions == {"process": 2, "inline": 1}
    finally:
        backend.close()


def test_worker_death_raises_clean_error():
    """A killed worker surfaces as a RuntimeError, not a hang or corruption."""
    from repro.algebra.semirings import INTEGER_RING
    from repro.compiler.sharding import make_inline_shard_fold

    backend = ProcessShardBackend(2, INTEGER_RING)
    backend.min_parallel_keys = 1  # the fold must take the worker path
    table = ShardedMapTable(2, {(i,): 1 for i in range(10)})
    table.backend = backend
    inline = make_inline_shard_fold(INTEGER_RING)
    try:
        backend.fold_table(table, {(i,): 1 for i in range(10)}, False, inline, None, name="m")
        assert table == {(i,): 2 for i in range(10)}
        for process, _conn in backend._workers:
            process.terminate()
            process.join()
        with pytest.raises(RuntimeError, match="worker"):
            backend.fold_table(table, {(i,): 1 for i in range(10)}, False, inline, None, name="m")
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# Dispatch tallies: where the folds actually ran
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("executor", COMPILED_BACKENDS)
@pytest.mark.parametrize("shard_backend", SHARD_BACKENDS)
def test_dispatch_report_tallies_fold_placement(shard_backend, executor):
    """The dispatch report names each group's backend and tallies where its
    folds ran, while the session stays byte-identical to the unsharded one;
    an unsharded session has no backend and an empty report."""
    rng = random.Random(9000 + 10 * len(shard_backend) + len(executor))
    base, base_cdc = _build_session(1, executor)
    sharded, sharded_cdc = _build_backend_session(4, executor, shard_backend)
    try:
        for step in range(6):
            batch = _random_batch(rng, rng.choice([3, 40, 120]), 40)
            base.apply_batch(batch)
            sharded.apply_batch(batch)
            assert sharded.results() == base.results(), (shard_backend, executor, step)
            assert sharded_cdc == base_cdc, (shard_backend, executor, step)
        assert base.dispatch_statistics() == {}
        report = sharded.dispatch_statistics()
        assert set(report) == {executor}
        assert report[executor]["backend"] == shard_backend
        decisions = report[executor]["decisions"]
        assert set(decisions) <= {"inline", "forced-inline", "process"}
        assert decisions.get(shard_backend, 0) > 0
        if shard_backend == "inline":
            assert "process" not in decisions
        assert sharded.statistics.extra["shard_dispatch"] == report
    finally:
        sharded.close()


def test_ingest_stats_surface_dispatch_decisions():
    """The streaming flusher refreshes the dispatch report after each flush,
    so the monitoring snapshot shows where the folds actually ran."""
    session = Session(GROUPED_SCHEMA, shards=2, shard_backend="process")
    session.view("gsum", "AggSum([a], S(a, b) * b)", backend="generated")
    _force_dispatch(session)
    try:
        with session.ingest(max_pending=1_000_000, max_staleness_ms=None) as pipe:
            for value in range(300):
                pipe.submit(Update(1, "S", (value % 13, value % 7)))
                if value % 100 == 99:
                    pipe.flush()
            snapshot = pipe.stats.snapshot()
        dispatch = snapshot["shard_dispatch"]
        assert dispatch["generated"]["backend"] == "process"
        assert dispatch["generated"]["decisions"].get("process", 0) > 0
        assert session.statistics.extra["shard_dispatch"] == dispatch
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Failure path: a failed fold must leave the slice indexes consistent
# ---------------------------------------------------------------------------


class _FragileRing:
    """A duck-typed coefficient structure whose add chokes on 'boom'."""

    zero = 0

    @staticmethod
    def add(left, right):
        if right == "boom":
            raise RuntimeError("poisoned delta")
        return left + right

    @staticmethod
    def is_zero(value):
        return value == 0


@pytest.mark.parametrize(
    "placement", [ProcessShardBackend, InlineShardBackend], ids=["process", "inline"]
)
@pytest.mark.parametrize("size", [10, MIN_PARALLEL_KEYS * 4])
def test_failed_fold_applies_completed_journals(size, placement):
    """Folds hand their journals back even when one raises: after a failed
    fold (inline, or on process workers once the increment map crosses the
    worker gate), the slice indexes must exactly match the tables' actual
    contents — the unsharded per-key loop's guarantee."""
    from repro.compiler.indexes import SliceIndexes
    from repro.compiler.sharding import fold_sharded_table, make_inline_shard_fold

    ring = _FragileRing()
    table = ShardedMapTable(4, {(i, i): 1 for i in range(5)})
    table.backend = placement(4, ring)
    indexes = SliceIndexes({"m": [(0,)]})
    indexes.rebuild({"m": table})
    acc = {(i, i): 1 for i in range(size)}
    acc[(3, 3)] = "boom"
    try:
        with pytest.raises(RuntimeError):
            fold_sharded_table(
                table,
                acc,
                True,
                make_inline_shard_fold(ring),
                lambda added, removed: indexes.apply_journal("m", added, removed),
                name="m",
            )
        worker_fold = placement is ProcessShardBackend and size >= MIN_PARALLEL_KEYS
        assert table.backend.decisions == {("process" if worker_fold else "inline"): 1}
    finally:
        table.backend.close()
    indexed = set()
    for bucket in indexes.data.values():
        for keys in bucket.values():
            indexed.update(keys)
    assert indexed == set(table), "slice indexes diverged from table contents"
