"""Property tests for the event engine's one drain against the batched oracle.

:class:`~repro.sim.engine.EventEngine` pops one heap entry per event, in
(time, scheduling sequence) order.  It replaced a batched drain that
swept every entry at the current clock into a pool and let events
scheduled at the live timestamp join the pool instead of the heap.
:class:`OracleBatchedEngine` below is that drain, kept as an oracle: the
two must run callbacks in the identical order and observe the identical
clocks, count the same events, and abort an event budget at the same
event, under every adversarial schedule Hypothesis can construct —
duplicate timestamps, ties broken only by scheduling order, and events
scheduled from *inside* a dispatch at the current timestamp (the
oracle's pool fast path).

The plans generated here are two-level trees: top-level events at
times drawn from a small pool (forcing heavy timestamp collisions),
each optionally scheduling children at non-negative offsets when it
runs — offset ``0.0`` lands exactly on the current timestamp.

The train plans at the end check the lazy-push contract the packet
model relies on: entries enqueued later with :meth:`EventEngine.push`
under sequence numbers from :meth:`EventEngine.reserve` dispatch exactly
as if every entry had been scheduled up front.
"""

import heapq

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.engine import DEFAULT_MAX_EVENTS, EventEngine
from repro.util.budget import EventBudgetExceeded


class OracleBatchedEngine(EventEngine):
    """The batched drain: sweep every entry at the clock into a pool,
    dispatch the pool in order; a callback pushing at exactly the pool's
    timestamp appends to the live pool instead of the heap (its sequence
    number is above everything drained, so tail-append is heap order)."""

    def __init__(self):
        super().__init__()
        self._pool = None

    def push(self, when, seq, callback):
        if self._pool is not None and when == self._now:
            self._pool.append(callback)
            return
        super().push(when, seq, callback)

    def run(self, max_events=DEFAULT_MAX_EVENTS):
        queue = self._queue
        processed = 0
        try:
            while queue:
                when = queue[0][0]
                pool = self._pool = []
                while queue and queue[0][0] <= when:
                    pool.append(heapq.heappop(queue)[2])
                self._now = when
                i = 0
                while i < len(pool):
                    pool[i]()
                    i += 1
                    processed += 1
                    if processed > max_events:
                        raise EventBudgetExceeded(
                            events_executed=processed, sim_time_reached=when, budget=max_events
                        )
                self._pool = None
        finally:
            self._pool = None
            self.events_processed += processed


ENGINES = (EventEngine, OracleBatchedEngine)

#: Small time pools force duplicate timestamps in nearly every example.
TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, 2.5, 3.0])
OFFSETS = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.0])

#: A child schedules grandchildren at these offsets when it runs.
GRANDCHILDREN = st.lists(OFFSETS, max_size=2)
CHILDREN = st.lists(st.tuples(OFFSETS, GRANDCHILDREN), max_size=3)
PLANS = st.lists(st.tuples(TIMES, CHILDREN), min_size=1, max_size=10)

relaxed = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def execute_plan(plan, engine_cls, max_events=DEFAULT_MAX_EVENTS):
    """Run ``plan`` on a fresh engine; return (labels-in-order, engine, abort).

    Labels record both execution order and the virtual time each
    callback observed, so a reordering *or* a clock glitch fails the
    comparison.  ``abort`` is ``(events_executed, sim_time_reached)``
    of an :class:`EventBudgetExceeded`, or ``None``.
    """
    engine = engine_cls()
    order = []
    counter = [0]

    def spawn(children):
        label = counter[0]
        counter[0] += 1

        def callback():
            order.append((label, engine.now))
            for offset, grandchildren in children:
                engine.schedule(
                    engine.now + offset,
                    spawn([(g, []) for g in grandchildren]),
                )
        return callback

    for when, children in plan:
        engine.schedule(when, spawn(children))
    try:
        engine.run(max_events)
    except EventBudgetExceeded as exc:
        return order, engine, (exc.events_executed, exc.sim_time_reached)
    return order, engine, None


class TestBatchedOrderMatchesScalar:
    @given(plan=PLANS)
    @relaxed
    def test_same_total_order_as_heapq_reference(self, plan):
        """The core contract: heap loop == batched oracle on every
        schedule, including events scheduled at the current timestamp."""
        order, engine, _ = execute_plan(plan, EventEngine)
        oracle_order, oracle, _ = execute_plan(plan, OracleBatchedEngine)
        assert order == oracle_order
        assert engine.events_processed == oracle.events_processed
        assert engine.now == oracle.now

    @given(plan=PLANS, cut=st.integers(min_value=0, max_value=40))
    @relaxed
    def test_budget_abort_at_the_same_event(self, plan, cut):
        """An event budget stops both drains at the same event: same
        callbacks run, same count, same clock in the exception."""
        total = execute_plan(plan, EventEngine)[1].events_processed
        cap = min(cut, total)
        order, engine, abort = execute_plan(plan, EventEngine, cap)
        oracle_order, oracle, oracle_abort = execute_plan(plan, OracleBatchedEngine, cap)
        assert (order, abort) == (oracle_order, oracle_abort)
        assert engine.events_processed == oracle.events_processed
        assert (abort is None) == (cap == total)

    @given(
        times=st.lists(TIMES, min_size=2, max_size=12),
    )
    @relaxed
    def test_duplicate_timestamps_run_in_scheduling_order(self, times):
        """Ties are broken by scheduling sequence alone."""
        for engine_cls in ENGINES:
            engine = engine_cls()
            order = []
            for label, when in enumerate(times):
                engine.schedule(when, lambda label=label: order.append(label))
            engine.run()
            expected = [label for _, label in sorted(
                (when, label) for label, when in enumerate(times)
            )]
            assert order == expected, engine_cls.__name__

    @given(plan=PLANS)
    @relaxed
    def test_virtual_time_is_monotonic(self, plan):
        order, _, _ = execute_plan(plan, EventEngine)
        observed = [now for _, now in order]
        assert observed == sorted(observed)


class TestInBatchScheduling:
    """An event scheduled at the current timestamp from inside a
    callback runs in the same drain, after everything already queued at
    that time and before any later time."""

    def test_same_timestamp_event_from_callback_runs_in_same_run(self):
        engine = EventEngine()
        order = []

        def parent():
            order.append("parent")
            engine.schedule(engine.now, lambda: order.append("child"))

        engine.schedule(1.0, parent)
        engine.run()
        assert order == ["parent", "child"]
        assert engine.events_processed == 2

    def test_chained_same_timestamp_events_all_run(self):
        """A chain of N same-timestamp events scheduled link-by-link
        from inside the drain is fully drained in one run."""
        engine = EventEngine()
        order = []

        def link(n):
            def callback():
                order.append(n)
                if n < 50:
                    engine.schedule(engine.now, link(n + 1))
            return callback

        engine.schedule(2.0, link(0))
        engine.run()
        assert order == list(range(51))

    def test_in_batch_event_keeps_position_relative_to_later_times(self):
        """A same-timestamp child runs before any later-time event that
        was already in the heap."""
        engine = EventEngine()
        order = []
        engine.schedule(2.0, lambda: order.append("later"))

        def parent():
            order.append("parent")
            engine.schedule(1.0, lambda: order.append("child"))

        engine.schedule(1.0, parent)
        engine.run()
        assert order == ["parent", "child", "later"]

    def test_events_processed_counts_in_batch_events(self):
        """events_processed is exact, and equal to the oracle's."""
        plan = [(0.0, [(0.0, [0.0, 0.5]), (1.0, [])]), (0.0, []), (1.0, [(0.0, [])])]
        _, engine, _ = execute_plan(plan, EventEngine)
        _, oracle, _ = execute_plan(plan, OracleBatchedEngine)
        assert engine.events_processed == oracle.events_processed == 8


#: A train: ``gaps`` spaces its chained entries (strictly increasing
#: times), ``tail`` is its last entry's offset from the first (any
#: non-negative value, so it may tie or precede chained entries) or
#: ``None`` for a train without one.  Children are what the first
#: entry starts when it fires: each a plain event or (flag set) a
#: two-entry train; offset ``0.0`` lands on the current timestamp.
GAPS = st.lists(st.sampled_from([0.25, 0.5, 1.0]), max_size=3)
TAILS = st.one_of(st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]))
TRAIN_CHILDREN = st.lists(st.tuples(OFFSETS, st.booleans()), max_size=3)
TRAINS = st.lists(
    st.tuples(TIMES, GAPS, TAILS, TRAIN_CHILDREN), min_size=1, max_size=6
)


def execute_trains(plan, engine_cls, lazy):
    """Run a train plan; return [(label, now)] in dispatch order.

    Eager mode schedules every entry of a train with :meth:`schedule`
    when the train starts.  Lazy mode ``reserve``s the train's sequence
    numbers, pushes its first entry and its tail, and has each chained
    entry push its successor when it fires — the packet model's
    contract.
    """
    engine = engine_cls()
    order = []

    def start_train(label, when, gaps, tail, children):
        times = [when]
        for gap in gaps:
            times.append(times[-1] + gap)
        entries = [(t, (label, k)) for k, t in enumerate(times)]
        if tail is not None:
            entries.append((when + tail, (label, "tail")))
        if not lazy:
            for k, (t, tag) in enumerate(entries):
                engine.schedule(t, fire(tag, children if k == 0 else [], None))
            return
        base = engine.reserve(len(entries))
        chained = len(times)

        def successor(k):
            if k + 1 >= chained:
                return None
            return lambda: engine.push(
                times[k + 1], base + k + 1,
                fire(entries[k + 1][1], [], successor(k + 1)),
            )

        engine.push(times[0], base, fire(entries[0][1], children, successor(0)))
        if tail is not None:
            engine.push(entries[-1][0], base + chained, fire(entries[-1][1], [], None))

    def fire(tag, children, then):
        def callback():
            order.append((tag, engine.now))
            for i, (offset, nested) in enumerate(children):
                child = (tag, "child", i)
                if nested:
                    start_train(child, engine.now + offset, [0.5], 0.0, [])
                else:
                    engine.schedule(engine.now + offset, fire(child, [], None))
            if then is not None:
                then()
        return callback

    for label, (when, gaps, tail, children) in enumerate(plan):
        start_train(label, when, gaps, tail, children)
    engine.run()
    return order, engine


class TestReservedPushOrder:
    """``reserve`` + lazy ``push`` dispatches exactly like scheduling
    every entry up front, on the heap loop and on the batched oracle."""

    @given(plan=TRAINS)
    @relaxed
    def test_lazy_push_matches_up_front_schedule(self, plan):
        reference, ref_engine = execute_trains(plan, OracleBatchedEngine, lazy=False)
        for engine_cls in ENGINES:
            for lazy in (False, True):
                order, engine = execute_trains(plan, engine_cls, lazy)
                assert order == reference, f"{engine_cls.__name__} lazy={lazy}"
                assert engine.events_processed == ref_engine.events_processed
                assert engine.now == ref_engine.now

    @pytest.mark.parametrize("oracle", [False, True])
    def test_push_before_now_raises(self, oracle):
        engine = ENGINES[oracle]()
        engine.schedule(1.0, lambda: engine.push(0.5, engine.reserve(1), lambda: None))
        with pytest.raises(ValueError, match="before current time"):
            engine.run()

    def test_reserve_hands_out_the_next_schedule_numbers(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        base = engine.reserve(3)
        engine.schedule(1.0, lambda: None)
        assert [seq for _, seq, _ in sorted(engine._queue)] == [base - 1, base + 3]
