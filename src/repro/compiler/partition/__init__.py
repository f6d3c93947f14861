"""The distributed-ready partition tier: pluggable shard backends.

``backends`` defines the :class:`~repro.compiler.partition.backends.ShardBackend`
protocol and its two placements (inline / process); ``worker`` is the
per-shard worker-process loop the process backend drives.  The partitioner
itself (key→shard hashing, :class:`ShardedMapTable`) stays in
:mod:`repro.compiler.sharding` — this package only decides where the
per-shard work runs.
"""

from repro.compiler.partition.backends import (
    BACKEND_NAMES,
    MIN_PARALLEL_KEYS,
    InlineShardBackend,
    ProcessShardBackend,
    ShardBackend,
    default_shard_backend,
    make_shard_backend,
    process_fold_capable,
    resolve_shard_backend,
)

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
