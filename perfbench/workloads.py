"""The benchmark's two workloads: seeded input generators, drivers and oracles.

Every workload builds all of its inputs from its seed before anything is
timed, drives the library only through its public API (``Session`` with
``shards=1`` and the default ``generated`` backend, ``Session.ingest()``),
and can evaluate its views directly over the generator's live tuples — the
correctness oracle every run is checked against.

``large_state_churn``
    Two SUM views over R(A,B) with 2x10^5 live groups; closed loop of
    100-update ``apply_batch`` calls, 25 of them deletes of live tuples
    (75 in the inverse half of the periodic stream).
``dashboard_ingest``
    The four 3-way-join sales views over a sliding window of ~5,000 live
    orders, streamed through an ``IngestPipeline`` by one producer thread.
"""

from __future__ import annotations

import random
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import Session
from repro.gmr.database import DELETE, INSERT, Update
from repro.workloads.schemas import SALES_SCHEMA

Mapping = Dict[Tuple[Any, ...], Any]
#: Called before each batch (closed loop) or flush (ingest) of a traced timed
#: pass with its index; switches tracing on or off and returns the new state.
Toggle = Callable[[int], bool]

#: Bulk-load batch size of every workload's set-up.
LOAD_BATCH = 10_000
#: Length of the windows the timed load's throughput is taken over.
WINDOW_S = 1.0


class Subscriber:
    """An ``on_change`` subscriber that keeps a shadow copy of its view.

    The payload is a delta: it is added to the shadow, and a key whose sum
    is zero is dropped.  The correctness gate compares the shadow with the
    view.
    """

    def __init__(self, ring) -> None:
        self.ring = ring
        self.shadow: Mapping = {}

    def __call__(self, payload: Mapping) -> None:
        ring, shadow = self.ring, self.shadow
        for key, value in payload.items():
            value = ring.add(shadow.get(key, ring.zero), value)
            if ring.is_zero(value):
                shadow.pop(key, None)
            else:
                shadow[key] = value


class Timed:
    """What one timed phase measured."""

    def __init__(self) -> None:
        self.latencies: List[float] = []  # seconds, one per batch or chunk
        self.traced: List[bool] = []  # closed loop: was the batch traced
        #: Updates made visible per second, one figure per window (see ``Drive._windows``).
        self.windows: List[float] = []
        self.operations = 0
        self.failures = 0
        self.progress = 0  # batches (closed loop) or steps (ingest) applied
        #: Ingest: (apply start, apply end, compact updates, traced) per flush.
        self.flushes: List[Tuple[float, float, int, bool]] = []
        self.chunk_flush: List[Tuple[float, int]] = []  # ingest: (submit return, flush)
        self.ingest_stats: Dict[str, Any] = {}


def _loaded(session: Session, updates: Sequence[Update]) -> None:
    for start in range(0, len(updates), LOAD_BATCH):
        session.apply_batch(updates[start:start + LOAD_BATCH])


class Workload:
    """Common shape: build a session, bulk-load it, drive it, check it."""

    name = ""
    schema: Dict[str, Tuple[str, ...]] = {}
    views: Dict[str, str] = {}
    watched: Tuple[str, ...] = ()
    #: Units of deterministic work in the count pass (batches or chunks).
    count_prefix = 0
    #: A traced timed pass switches tracing every this many batches or flushes.
    trace_block = 1
    #: The timed load runs in this many segments, with a sample round of
    #: set-up, restore and snapshot before each and after the last.
    segments = 8

    def __init__(self, seed: int) -> None:
        """Generate every input for ``seed``."""
        self.load_updates: List[Update] = []

    def setup(self) -> Tuple[Session, float]:
        """Session, view registration, bulk load; returns the load time too."""
        session = Session(self.schema, shards=1)
        for name, sql in self.views.items():
            session.view(name, sql)
        started = perf_counter()
        _loaded(session, self.load_updates)
        return session, perf_counter() - started

    def subscribe(self, session: Session) -> List[Tuple[str, Subscriber]]:
        subscribers = []
        for name in self.watched:
            subscriber = Subscriber(session.ring)
            subscriber.shadow = session[name].result_mapping()
            session[name].on_change(subscriber)
            subscribers.append((name, subscriber))
        return subscribers

    def expected(self, progress: int) -> Dict[str, Mapping]:
        """Direct evaluation of every view after ``progress`` units of work."""
        raise NotImplementedError

    def run_prefix(self, session: Session) -> int:
        """Deterministic count pass; returns the progress reached."""
        raise NotImplementedError

    def drive(self, session: Session, toggle: Optional[Toggle] = None) -> "Drive":
        """The timed load on ``session``, run in segments with pauses between them."""
        raise NotImplementedError


class Drive:
    """A timed load: ``segment(seconds)`` runs it on the clock, ``close()`` ends it."""

    def __init__(self) -> None:
        self.timed = Timed()

    def _windows(self, started: float, done: List[Tuple[float, int]]) -> None:
        """Throughput per window of one segment from ``(time, updates visible)`` events.

        A window closes at the first event at least ``WINDOW_S`` after it
        opened; the segment's last window closes at its last event.
        """
        opened, updates = started, 0
        for index, (now, count) in enumerate(done):
            updates += count
            if now - opened >= WINDOW_S or index == len(done) - 1:
                self.timed.windows.append(updates / (now - opened))
                opened, updates = now, 0

    def segment(self, seconds: float) -> None:
        raise NotImplementedError

    def close(self) -> Timed:
        return self.timed


class ClosedLoop(Workload):
    """One caller sends a batch, waits for ``apply_batch`` to return, repeats.

    The stream is periodic, so it never runs out however fast the library
    gets: ``cycle`` generated batches, then their inverses in reverse order
    (each undoes its batch, deleting only tuples that batch inserted), after
    which the relation is back at its loaded state and the period repeats.
    """

    relation = ""
    batch_size = 100
    trace_block = 10
    #: How many updates of each generated batch delete a uniformly chosen
    #: live tuple; an inverse batch has ``batch_size - deletes`` deletes.
    deletes = 0
    #: Generated batches per period; the period is twice as long.
    cycle = 100

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"{self.name}:{seed}")
        live = self.initial_tuples(rng)
        self.load_updates = [Update(INSERT, self.relation, values) for values in live]
        self.initial = Counter(live)
        forward = [self.next_batch(rng, live) for _ in range(self.cycle)]
        self.batches = forward + [
            [update.inverted() for update in reversed(batch)] for batch in reversed(forward)
        ]

    def initial_tuples(self, rng: random.Random) -> List[tuple]:
        raise NotImplementedError

    def next_batch(self, rng: random.Random, live: List[tuple]) -> List[Update]:
        """``batch_size`` updates at random positions: ``deletes`` deletes, the rest inserts."""
        positions = set(rng.sample(range(self.batch_size), self.deletes))
        batch = []
        for position in range(self.batch_size):
            if position in positions:
                index = rng.randrange(len(live))
                values = live[index]
                live[index] = live[-1]
                live.pop()
                batch.append(Update(DELETE, self.relation, values))
            else:
                values = self.new_tuple(rng)
                live.append(values)
                batch.append(Update(INSERT, self.relation, values))
        return batch

    def new_tuple(self, rng: random.Random) -> tuple:
        raise NotImplementedError

    def live_after(self, batches: int) -> Counter:
        live = Counter(self.initial)
        for batch in self.batches[:batches % len(self.batches)]:
            for update in batch:
                live[update.values] += update.sign
        return +live

    def run_prefix(self, session: Session) -> int:
        for batch in self.batches[:self.count_prefix]:
            session.apply_batch(batch)
        return self.count_prefix

    def drive(self, session: Session, toggle: Optional[Toggle] = None) -> Drive:
        return _ClosedLoopDrive(self.batches, session, toggle)


class _ClosedLoopDrive(Drive):
    def __init__(self, batches, session: Session, toggle: Optional[Toggle]) -> None:
        super().__init__()
        self.batches = batches
        self.session = session
        self.toggle = toggle

    def segment(self, seconds: float) -> None:
        timed = self.timed
        started = perf_counter()
        deadline = started + seconds
        done: List[Tuple[float, int]] = []
        while not timed.failures:
            batch = self.batches[timed.progress % len(self.batches)]
            if self.toggle is not None:
                timed.traced.append(self.toggle(timed.progress))
            timed.operations += 1
            begin = perf_counter()
            try:
                self.session.apply_batch(batch)
            except Exception:  # noqa: BLE001 - a failed batch fails the run
                timed.failures += 1
                break
            now = perf_counter()
            timed.latencies.append(now - begin)
            done.append((now, len(batch)))
            timed.progress += 1
            if now >= deadline:
                break
        self._windows(started, done)


class LargeStateChurn(ClosedLoop):
    name = "large_state_churn"
    schema = {"R": ("A", "B")}
    relation = "R"
    views = {
        "sum_b_by_a": "SELECT A, SUM(B) FROM R GROUP BY A",
        "sum_b": "SELECT SUM(B) FROM R",
    }
    keys = 200_000
    deletes = 25
    count_prefix = 30

    def initial_tuples(self, rng):
        return [(a, rng.randint(1, 1000)) for a in range(self.keys)]

    def new_tuple(self, rng):
        # Inserts land in the existing A domain, so the grouped map stays at
        # ~2x10^5 keys while the relation grows by up to 50 tuples a batch.
        return (rng.randrange(self.keys), rng.randint(1, 1000))

    def expected(self, progress):
        by_a: Mapping = defaultdict(int)
        for (a, b), multiplicity in self.live_after(progress).items():
            by_a[(a,)] += b * multiplicity
        total = sum(by_a.values())
        return {
            "sum_b_by_a": {key: value for key, value in by_a.items() if value},
            "sum_b": {(): total} if total else {},
        }


NATIONS = ("FRANCE", "GERMANY", "JAPAN", "BRAZIL", "CANADA", "KENYA", "INDIA", "PERU")

#: The four panels of ``examples/sales_dashboard.py``.
DASHBOARD_SQL = {
    "revenue": (
        "SELECT c.nation, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.nation"
    ),
    "revenue_by_customer": (
        "SELECT c.ck, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.ck"
    ),
    "orders": "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck",
    "total_revenue": (
        "SELECT SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2"
    ),
}


class DashboardIngest(Workload):
    """A sliding window of orders streamed through ``Session.ingest()``.

    One order is placed per *step*.  Each order gets a lifetime when it is
    generated: 10% are cancelled after a uniform 1..W-1 steps, the rest
    retire at age W, so ~5,000 orders are live at any time.  Order keys,
    line items and lifetimes depend only on the step modulo ``period``, and
    no order outlives a period, so the stream is periodic: one period of
    ``Update`` objects is generated up front and the producer cycles through
    it for as long as the run lasts.
    """

    name = "dashboard_ingest"
    schema = SALES_SCHEMA
    views = DASHBOARD_SQL
    watched = ("revenue", "revenue_by_customer")
    customers = 2_000
    window = 5_263  # retirement age W: 0.9 W + 0.1 W / 2 ~ 5,000 live orders
    cancel_fraction = 0.10
    steps_per_chunk = 64  # one submit_many call, ~450 updates
    period = 64 * 320
    #: The producer polls the pipeline's monitoring snapshot this often.
    stats_every_chunks = 64
    #: Count pass: chunks applied with a deterministic flush every 8 chunks.
    count_prefix = 64
    count_flush_every = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"{self.name}:{seed}")
        self.nation = {ck: NATIONS[ck % len(NATIONS)] for ck in range(self.customers)}
        self.order_customer: List[int] = []
        self.order_items: List[List[Tuple[int, int, int]]] = []
        self.lifetime: List[int] = []
        deaths: List[List[int]] = [[] for _ in range(self.period)]
        for order in range(self.period):
            self.order_customer.append(rng.randrange(self.customers))
            self.order_items.append(
                [(order, rng.randint(1, 100), rng.randint(1, 10)) for _ in range(rng.randint(1, 4))]
            )
            if rng.random() < self.cancel_fraction:
                life = rng.randint(1, self.window - 1)
            else:
                life = self.window
            self.lifetime.append(life)
            deaths[(order + life) % self.period].append(order)
        placed = [self._order_updates(order, INSERT) for order in range(self.period)]
        removed = [self._order_updates(order, DELETE) for order in range(self.period)]
        steps = [
            placed[step] + [update for order in deaths[step] for update in removed[order]]
            for step in range(self.period)
        ]
        self.chunks = [
            [update for step in steps[start:start + self.steps_per_chunk] for update in step]
            for start in range(0, self.period, self.steps_per_chunk)
        ]
        self.load_updates = [
            Update(INSERT, "Customer", (ck, nation)) for ck, nation in self.nation.items()
        ] + [
            update
            for created in range(-self.window, 0)
            if self._alive(created, 0)
            for update in placed[created % self.period]
        ]

    def _order_updates(self, order: int, sign: int) -> List[Update]:
        return [Update(sign, "Orders", (order, self.order_customer[order]))] + [
            Update(sign, "Lineitem", item) for item in self.order_items[order]
        ]

    def _alive(self, created: int, steps: int) -> bool:
        """Is the order placed at step ``created`` live after ``steps`` steps?"""
        # The order placed at step c is deleted during step c + lifetime.
        return created < steps <= created + self.lifetime[created % self.period]

    def expected(self, progress):
        revenue: Mapping = defaultdict(int)
        by_customer: Mapping = defaultdict(int)
        orders: Mapping = defaultdict(int)
        for created in range(progress - self.window, progress):
            if not self._alive(created, progress):
                continue
            order = created % self.period
            ck = self.order_customer[order]
            amount = sum(price * qty for _, price, qty in self.order_items[order])
            revenue[(self.nation[ck],)] += amount
            by_customer[(ck,)] += amount
            orders[(ck,)] += 1
        total = sum(revenue.values())
        return {
            "revenue": dict(revenue),
            "revenue_by_customer": dict(by_customer),
            "orders": dict(orders),
            "total_revenue": {(): total} if total else {},
        }

    def run_prefix(self, session: Session) -> int:
        # No watermark can fire: the only flushes are the explicit ones, so
        # flush boundaries — and every count — depend on the seed alone.
        pipe = session.ingest(max_pending=1 << 40, max_staleness_ms=None)
        try:
            for index in range(self.count_prefix):
                pipe.submit_many(self.chunks[index % len(self.chunks)])
                if (index + 1) % self.count_flush_every == 0:
                    pipe.flush()
            pipe.flush()
        finally:
            pipe.close()
        return self.count_prefix * self.steps_per_chunk

    def drive(self, session: Session, toggle: Optional[Toggle] = None) -> Drive:
        return _IngestDrive(self, session, toggle)


class _IngestDrive(Drive):
    """One producer, closed through blocking backpressure; the flusher thread applies.

    A segment's clock runs from its first ``submit_many`` until the
    explicit flush that ends it returns.  Each chunk's latency runs from its
    ``submit_many`` return to the end of the first flush that started after
    it — the flush that made it visible in the views.
    """

    def __init__(self, workload: DashboardIngest, session: Session, toggle: Optional[Toggle]):
        super().__init__()
        self.workload = workload
        self.session = session
        self.chunks_sent = 0
        flushes = self.timed.flushes

        def timed_apply(batch, **kwargs):
            traced = toggle(len(flushes)) if toggle is not None else False
            begin = perf_counter()
            try:
                # Looked up per call: the toggle swaps the class attribute.
                return Session.apply_batch(session, batch, **kwargs)
            finally:
                flushes.append((begin, perf_counter(), len(batch), traced))

        session.apply_batch = timed_apply  # the pipeline calls it by attribute
        self.pipe = session.ingest()  # the library's default watermarks
        print(
            f"ingest: max_pending={self.pipe.max_pending} "
            f"max_staleness_ms={self.pipe.max_staleness_ms}",
            file=sys.stderr,
        )

    def segment(self, seconds: float) -> None:
        timed, pipe, workload = self.timed, self.pipe, self.workload
        first_flush = len(timed.flushes)
        returns: List[Tuple[float, int]] = []  # (submit_many return, updates)
        started = perf_counter()
        deadline = started + seconds
        while True:
            chunk = workload.chunks[self.chunks_sent % len(workload.chunks)]
            timed.operations += 1
            pipe.submit_many(chunk)
            now = perf_counter()
            returns.append((now, len(chunk)))
            self.chunks_sent += 1
            if self.chunks_sent % workload.stats_every_chunks == 0:
                pipe.stats_snapshot()
            if now >= deadline:
                break
        pipe.flush()
        flushes = timed.flushes
        flush = first_flush
        visible: Counter = Counter()  # submitted updates each flush made visible
        for returned, updates in returns:
            while flush < len(flushes) - 1 and flushes[flush][0] < returned:
                flush += 1
            timed.chunk_flush.append((returned, flush))
            timed.latencies.append(flushes[flush][1] - returned)
            visible[flush] += updates
        self._windows(started, [(flushes[index][1], visible[index]) for index in sorted(visible)])

    def close(self) -> Timed:
        timed = self.timed
        try:
            timed.ingest_stats = self.pipe.stats_snapshot()
        finally:
            self.pipe.close()
            del self.session.apply_batch
        timed.failures += len(self.pipe.dead_letters)
        timed.progress = self.chunks_sent * self.workload.steps_per_chunk
        return timed


WORKLOADS = {workload.name: workload for workload in (LargeStateChurn, DashboardIngest)}
