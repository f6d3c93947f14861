"""Sharded map tables and per-shard batch folds (DBToaster-style partitioning).

Koch's compiled triggers make every batch update a set of per-key folds:
PR 4's relation-valued batch deltas touch each distinct target key exactly
once, and two folds into *different* keys never read each other's state.
That independence is what this module exploits — the map tables are
hash-partitioned by key into ``N`` shards, and a pre-aggregated increment map
can be split by target-key hash into per-shard parts that fold without
touching each other's dicts (write isolation is structural, not lock-based:
a key's shard is a pure function of its hash).

Three pieces:

* :class:`ShardedMapTable` — a ``MutableMapping`` over ``N`` plain per-shard
  dicts.  Reads route through one extra hash; the fold path bypasses the
  facade entirely and works on the shard dicts directly.  ``shards=1``
  sessions never construct one — the runtime keeps plain dicts and today's
  exact code path.
* :func:`make_inline_shard_fold` — the coordinator's ring-specialized fold:
  one read-modify-write per increment key, routed to its shard dict,
  journalling inserted and removed keys so the (shared, prefix-bucketed)
  slice indexes of :mod:`repro.compiler.indexes` are maintained from the
  journal.  Index buckets are keyed by *bound prefixes*, which do not
  respect the key-hash partition — two shards' keys can share a bucket — so
  a worker owning one shard cannot maintain them; the journal carries its
  changes back to the coordinator.  :func:`make_shard_fold` is the same
  fold over one shard's part, run by the process backend's workers
  (:mod:`repro.compiler.partition`).
* :func:`fold_sharded_table` — the one sharded-fold entry point: it hands
  the fold to the table's attached shard backend (``inline`` or
  ``process``), or folds inline when no backend is attached.

Change-data-capture and tracked-source accumulation are *not* sharded: both
are pure functions of the increment map (not of table state), so the callers
fold them serially before the shard fold — sharded and unsharded sessions
therefore produce byte-identical ``on_change`` payloads.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, Semiring

MapTable = Dict[Tuple[Any, ...], Any]


def default_shard_count() -> int:
    """The process-wide default shard count (the ``REPRO_SHARDS`` knob)."""
    try:
        return max(1, int(os.environ.get("REPRO_SHARDS", "1")))
    except ValueError:
        return 1


def resolve_shard_count(shards: Optional[int]) -> int:
    """Normalize a ``shards=`` argument: ``None`` defers to ``REPRO_SHARDS``."""
    if shards is None:
        return default_shard_count()
    shards = int(shards)
    if shards < 1:
        raise ValueError(f"shard count must be a positive integer, got {shards}")
    return shards


def shard_of(key: Tuple[Any, ...], shard_count: int) -> int:
    """The shard owning ``key`` — a pure function of the key's hash."""
    return hash(key) % shard_count


def partition_map(mapping: Mapping[Tuple[Any, ...], Any], shard_count: int) -> List[MapTable]:
    """Split a pre-aggregated delta/increment map by target-key hash.

    Returns one dict per shard (possibly empty); the union of the parts is
    the input and the parts are pairwise disjoint.
    """
    parts: List[MapTable] = [{} for _ in range(shard_count)]
    for key, value in mapping.items():
        parts[hash(key) % shard_count][key] = value
    return parts


class ShardedMapTable:
    """A map table hash-partitioned into ``N`` plain per-shard dicts.

    Implements the mapping protocol the evaluator, the generated trigger
    code, and the session's snapshot/result paths rely on (``get`` /
    ``[key]`` / ``pop`` / ``items`` / iteration / ``len``), so it is a
    drop-in replacement for the plain dict tables — at the cost of one extra
    hash per facade access.  The batch fold path never pays that cost: it
    partitions its increments once and works on ``self.shards`` directly.
    """

    __slots__ = ("shards", "shard_count", "versions", "backend")

    def __init__(
        self,
        shard_count: int,
        contents: Optional[Mapping[Tuple[Any, ...], Any]] = None,
    ):
        if shard_count < 1:
            raise ValueError(f"shard count must be a positive integer, got {shard_count}")
        self.shard_count = shard_count
        self.shards: List[MapTable] = [{} for _ in range(shard_count)]
        #: Per-shard mutation counters, bumped by every *facade* write.  The
        #: process shard backend uses them to detect that a worker's mirror of
        #: a shard went stale (recompute applies, restores, scalar folds all
        #: write through the facade); the fold path mutates the shard dicts
        #: directly and keeps both sides in lockstep without bumps.
        self.versions: List[int] = [0] * shard_count
        #: The owning :class:`~repro.compiler.partition.backends.ShardBackend`
        #: (set by the runtime's ``make_table``); ``None`` folds inline.
        self.backend = None
        if contents:
            shards = self.shards
            for key, value in contents.items():
                shards[hash(key) % shard_count][key] = value

    # -- mapping protocol -----------------------------------------------------

    def __getitem__(self, key: Tuple[Any, ...]) -> Any:
        return self.shards[hash(key) % self.shard_count][key]

    def __setitem__(self, key: Tuple[Any, ...], value: Any) -> None:
        index = hash(key) % self.shard_count
        self.versions[index] += 1
        self.shards[index][key] = value

    def __delitem__(self, key: Tuple[Any, ...]) -> None:
        index = hash(key) % self.shard_count
        self.versions[index] += 1
        del self.shards[index][key]

    def __contains__(self, key: object) -> bool:
        return key in self.shards[hash(key) % self.shard_count]

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        for shard in self.shards:
            yield from shard

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __bool__(self) -> bool:
        return any(self.shards)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ShardedMapTable):
            return dict(self.items()) == dict(other.items())
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def get(self, key: Tuple[Any, ...], default: Any = None) -> Any:
        return self.shards[hash(key) % self.shard_count].get(key, default)

    _MISSING = object()

    def pop(self, key: Tuple[Any, ...], default: Any = _MISSING) -> Any:
        index = hash(key) % self.shard_count
        shard = self.shards[index]
        if key in shard:
            self.versions[index] += 1
        if default is ShardedMapTable._MISSING:
            return shard.pop(key)
        return shard.pop(key, default)

    def setdefault(self, key: Tuple[Any, ...], default: Any = None) -> Any:
        index = hash(key) % self.shard_count
        self.versions[index] += 1
        return self.shards[index].setdefault(key, default)

    def items(self) -> "_ShardView":
        return _ShardView(self.shards, dict.items)

    def keys(self) -> "_ShardView":
        return _ShardView(self.shards, dict.keys)

    def values(self) -> "_ShardView":
        return _ShardView(self.shards, dict.values)

    def update(self, other: Mapping[Tuple[Any, ...], Any] = (), **kwargs) -> None:
        items = other.items() if hasattr(other, "items") else other
        for key, value in items:
            self[key] = value
        for key, value in kwargs.items():
            self[key] = value

    def clear(self) -> None:
        for index, shard in enumerate(self.shards):
            if shard:
                self.versions[index] += 1
                shard.clear()

    def copy(self) -> MapTable:
        """A merged plain-dict copy of the whole table (snapshot/backup path)."""
        merged: MapTable = {}
        for shard in self.shards:
            merged.update(shard)
        return merged

    # -- the fold path --------------------------------------------------------

    def partition(self, mapping: Mapping[Tuple[Any, ...], Any]) -> List[MapTable]:
        """Split an increment map into per-shard parts aligned with ``self.shards``."""
        return partition_map(mapping, self.shard_count)

    def __repr__(self) -> str:
        return f"ShardedMapTable(shards={self.shard_count}, entries={len(self)})"


class _ShardView:
    """A re-iterable, sized view over all shards (the dict-view analogue).

    Unlike a generator, iterating twice works and ``len()`` is defined — the
    contract callers of ``dict.items()``/``keys()``/``values()`` rely on.
    Live like dict views: it reads the shard dicts at iteration time.
    """

    __slots__ = ("_shards", "_select")

    def __init__(self, shards: List[MapTable], select):
        self._shards = shards
        self._select = select

    def __iter__(self):
        for shard in self._shards:
            yield from self._select(shard)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, item: object) -> bool:
        return any(item in self._select(shard) for shard in self._shards)


# ---------------------------------------------------------------------------
# Ring-specialized fold workers
# ---------------------------------------------------------------------------
#
# Folds return ``(added_keys, removed_keys, error)`` and never raise: a
# ring/arithmetic failure mid-fold is captured and handed back alongside the
# journal built so far (each key's mutation happens strictly after the
# operations that can fail, so the journal always matches the shard's actual
# contents).  The caller applies every journal before propagating the first
# error — the slice indexes therefore stay consistent with the tables even
# on a failed fold, exactly like the unsharded per-key fold loop.


def make_inline_shard_fold(ring: Semiring):
    """A serial whole-increment-map fold over a sharded table's shard dicts.

    Routes each key to its shard in one pass, with no partitioning step, and
    folds ℤ and ℝ with native ``+`` and ``== 0``.  Called as
    ``fold(shards, shard_count, acc, journal)``.
    """
    if ring is INTEGER_RING or ring is FLOAT_FIELD:

        def fold_inline_native(shards, count, acc, journal: bool):
            added: Optional[List[Tuple[Any, ...]]] = [] if journal else None
            removed: Optional[List[Tuple[Any, ...]]] = [] if journal else None
            try:
                for key, delta in acc.items():
                    shard = shards[hash(key) % count]
                    new = shard.get(key, 0) + delta
                    if new == 0:
                        if shard.pop(key, None) is not None and removed is not None:
                            removed.append(key)
                    else:
                        if added is not None and key not in shard:
                            added.append(key)
                        shard[key] = new
            except Exception as exc:  # the `new` computation failed; key not mutated
                return added, removed, exc
            return added, removed, None

        return fold_inline_native

    add, zero, is_zero = ring.add, ring.zero, ring.is_zero

    def fold_inline(shards, count, acc, journal: bool):
        added: Optional[List[Tuple[Any, ...]]] = [] if journal else None
        removed: Optional[List[Tuple[Any, ...]]] = [] if journal else None
        try:
            for key, delta in acc.items():
                shard = shards[hash(key) % count]
                new = add(shard.get(key, zero), delta)
                if is_zero(new):
                    if shard.pop(key, None) is not None and removed is not None:
                        removed.append(key)
                else:
                    if added is not None and key not in shard:
                        added.append(key)
                    shard[key] = new
        except Exception as exc:
            return added, removed, exc
        return added, removed, None

    return fold_inline


def make_shard_fold(ring: Semiring) -> Callable[[MapTable, MapTable, bool], tuple]:
    """The inline fold over a single shard dict: ``fold(shard, part, journal)``.

    Folds one shard's part of an increment map into that shard's dict — the
    fold the process backend's workers run against their shard mirrors.
    """
    fold_inline = make_inline_shard_fold(ring)

    def fold_shard(shard: MapTable, part: MapTable, journal: bool):
        return fold_inline((shard,), 1, part, journal)

    return fold_shard


def apply_index_journal(index_data, specs, name: str, added, removed) -> None:
    """Replay a shard fold's inserted/removed keys into raw slice-index storage.

    ``index_data`` is the ``(map, positions) -> {prefix -> keys}`` dict of
    :class:`repro.compiler.indexes.SliceIndexes` (``.data``), which the
    generated trigger modules address directly; ``specs`` are the map's
    bound-position signatures.  Runs serially after the fold returns.
    """
    for positions in specs:
        bucket = index_data[(name, positions)]
        for key in added:
            prefix = tuple(key[index] for index in positions)
            entry = bucket.get(prefix)
            if entry is None:
                bucket[prefix] = {key}
            else:
                entry.add(key)
        for key in removed:
            prefix = tuple(key[index] for index in positions)
            entry = bucket.get(prefix)
            if entry is not None:
                entry.discard(key)
                if not entry:
                    del bucket[prefix]


# ---------------------------------------------------------------------------
# The fold entry points
# ---------------------------------------------------------------------------


def fold_table_inline(
    table: ShardedMapTable,
    acc: Mapping[Tuple[Any, ...], Any],
    journal: bool,
    fold_inline: Callable,
    sink: Callable[[Iterable, Iterable], None],
) -> None:
    """Fold ``acc`` into ``table`` on the calling thread, routed per key.

    The journal is handed to ``sink`` (the caller's slice-index maintenance)
    *before* a captured fold error is re-raised, so a failed fold leaves the
    indexes consistent with whatever the shards actually contain.
    """
    added, removed, error = fold_inline(table.shards, table.shard_count, acc, journal)
    if journal and (added or removed):
        sink(added, removed)
    if error is not None:
        raise error


def fold_sharded_table(
    table: ShardedMapTable,
    acc: Mapping[Tuple[Any, ...], Any],
    journal: bool,
    fold_inline: Callable,
    sink: Callable[[Iterable, Iterable], None],
    force_inline: bool = False,
    name: Optional[str] = None,
) -> None:
    """The one sharded-fold entry point, shared by both compiled executors.

    Dispatches through the table's attached
    :class:`~repro.compiler.partition.backends.ShardBackend` when one is set
    (the partition tier: inline or process placement of the fold); tables
    without a backend fold inline.  ``force_inline`` pins the fold to the
    coordinator: the shard-race detector
    (:func:`repro.compiler.verify.mark_serial_folds`) sets it for statements
    whose target another statement of the same dispatch touches.  ``name`` is
    the map's name in the hierarchy; backends that keep off-process shard
    state use it to address their mirrors.
    """
    backend = table.backend
    if backend is not None:
        backend.fold_table(
            table, acc, journal, fold_inline, sink, force_inline=force_inline, name=name
        )
        return
    fold_table_inline(table, acc, journal, fold_inline, sink)


def make_generated_fold_sharded(ring: Semiring, local: bool = False):
    """The ``_fold_sharded`` helper injected into generated trigger modules.

    The generated ``_fold`` delegates here when its target table is a
    :class:`ShardedMapTable` (after handling CDC and tracked-source
    accumulation serially); index maintenance is journalled by the fold and
    replayed into the raw ``_IDX`` storage afterwards.

    ``local`` folds inline on the coordinator regardless of the table's
    attached shard backend: the process backend's workers fold with the
    session ring, so ℤ-valued counter maps of a semiring program must stay
    on coordinator shards (they then never gain a worker mirror, so no
    staleness can arise).
    """
    fold_inline = make_inline_shard_fold(ring)

    def _fold_sharded(table, acc, name, specs, idx, serial=False) -> None:
        journal = idx is not None and specs is not None

        def sink(added, removed):
            apply_index_journal(idx, specs, name, added, removed)

        if local:
            fold_table_inline(table, acc, journal, fold_inline, sink)
            return
        fold_sharded_table(
            table, acc, journal, fold_inline, sink, force_inline=serial, name=name
        )

    return _fold_sharded
