"""Span tracing around the public entry points of each layer.

The tracer patches the listed functions *in the benchmark process* with
wrappers that record one span per call: layer name, run phase, start, end,
the time covered by its child spans, and optional work counts.  Nothing in
the library is modified on disk; :meth:`Tracer.uninstall` puts every
original back, so one timed pass can alternate traced and untraced stretches.

A span's *self time* is its duration minus the time covered by its child
spans.  ``Session.apply_batch``'s children are the named layers below it
(coalesce, transaction capture, trigger fold, CDC subscribers); what is left is the session's own work — validation, history
append and CDC dispatch.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "phase", "start", "end", "child", "counts")

    def __init__(self, name: str, phase: str):
        self.name = name
        self.phase = phase
        self.start = self.end = 0.0
        self.child = 0.0  # time covered by direct children
        self.counts: Dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


# A counter hook runs after the call: (args, kwargs, result, before) -> counts.
# ``before`` is what the optional ``before`` hook returned at call entry.
CountHook = Callable[[tuple, dict, Any, Any], Dict[str, int]]


class Tracer:
    """Records spans for patched functions; ``phase`` tags every new span."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[tuple] = []  # (owner, attribute, original descriptor)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        function: Callable,
        count: Optional[CountHook] = None,
        before: Optional[Callable[[tuple, dict], Any]] = None,
        finish: Optional[Callable[[], None]] = None,
    ) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, tracer.phase)
            state = before(args, kwargs) if before is not None else None
            stack.append(span)
            span.start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                if finish is not None:
                    finish()
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                tracer.spans.append(span)
            if count is not None:
                span.counts = count(args, kwargs, result, state)
            return result

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def child(self, name: str) -> Iterator[None]:
        """A span for work the benchmark itself runs inside the current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, self.phase)
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            if parent is not None:
                parent.child += span.end - span.start
            self.spans.append(span)

    def patch(self, owner: Any, attribute: str, name: str, **hooks) -> None:
        """Replace ``owner.attribute`` (function, method or classmethod) with a traced one."""
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, **hooks))
        else:
            replacement = self.wrap(name, original, **hooks)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reading ---------------------------------------------------------------

    def select(self, phase: str, name: str) -> List[Span]:
        return [span for span in self.spans if span.phase == phase and span.name == name]


class LayerSpans:
    """The span wrappers of every measured layer, switchable on and off.

    ``enable(False)`` restores the originals, so a traced run can alternate
    traced and untraced stretches of one timed pass and measure the
    tracing overhead on the same session and the same host minute.
    """

    def __init__(self, tracer: Tracer, subscriber_class: type) -> None:
        self.tracer = tracer
        self.subscriber_class = subscriber_class
        self.enabled = False
        #: Rollback copies taken inside the current ``apply_batch``.  They are
        #: freed when the call returns; holding them until the wrapper's own
        #: exit lets the tracer charge freeing them to ``runtime.backup``.
        self._held: List[Any] = []

    def enable(self, on: bool = True) -> None:
        if on and not self.enabled:
            self._install()
        elif not on and self.enabled:
            self.tracer.uninstall()
        self.enabled = on

    def _release_backups(self) -> None:
        if self._held:
            with self.tracer.child("runtime.backup"):
                self._held.clear()

    def _install(self) -> None:
        import repro.session.session as session_module
        from repro.compiler.codegen import GeneratedTriggers
        from repro.compiler.runtime import TriggerRuntime
        from repro.ingest import IngestPipeline
        from repro.ingest.queue import IngestQueue
        from repro.session import Session

        tracer, held = self.tracer, self._held

        def batch_size(args, kwargs, result, before):
            return {"updates": len(args[1]), "coalesced": int(bool(kwargs.get("coalesced")))}

        def coalesce_sizes(args, kwargs, result, before):
            return {"in": len(args[0]), "out": len(result)}

        def backup_entries(args, kwargs, result, before):
            held.append(result)
            return {"entries": sum(len(table) for table in result.values())}

        def fold_work_before(args, kwargs):
            return args[0].statistics()

        def fold_work(args, kwargs, result, before):
            after = args[0].statistics()
            return {
                "statements": after["statements"] - before["statements"],
                "entries": after["entries"] - before["entries"],
            }

        def payload_entries(args, kwargs, result, before):
            return {"entries": len(args[1])}

        tracer.patch(Session, "apply_batch", "session.apply_batch", count=batch_size,
                     finish=self._release_backups)
        tracer.patch(Session, "view", "session.view")
        tracer.patch(Session, "snapshot", "session.snapshot")
        tracer.patch(Session, "restore", "session.restore")
        # The session module imported these by name; patch the names it calls.
        tracer.patch(session_module, "coalesce_updates", "gmr.coalesce", count=coalesce_sizes)
        tracer.patch(session_module, "compile_query", "compile.compile_query")
        tracer.patch(session_module, "generate_python", "codegen.generate_python")
        tracer.patch(TriggerRuntime, "backup_tables", "runtime.backup", count=backup_entries)
        tracer.patch(GeneratedTriggers, "apply_batch", "codegen.apply_batch",
                     count=fold_work, before=fold_work_before)
        tracer.patch(IngestQueue, "submit_many", "ingest.submit")
        tracer.patch(IngestQueue, "drain", "ingest.drain")
        tracer.patch(IngestPipeline, "stats_snapshot", "ingest.stats_snapshot")
        tracer.patch(self.subscriber_class, "__call__", "cdc.subscriber", count=payload_entries)
