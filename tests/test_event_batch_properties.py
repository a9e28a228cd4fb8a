"""Property tests for the batched event queue (PR 8 tentpole).

The batched drain (:meth:`EventEngine._drain_batched`) must process
callbacks in the *identical total order* as the scalar one-``heappop``
-per-event reference loop — (time, scheduling sequence) order — under
every adversarial schedule Hypothesis can construct: duplicate
timestamps, ties broken only by scheduling order, and events scheduled
from *inside* a batch dispatch at the batch's own timestamp (the
fast path that appends to the live pool and skips the heap entirely).

The plans generated here are two-level trees: top-level events at
times drawn from a small pool (forcing heavy timestamp collisions),
each optionally scheduling children at non-negative offsets when it
runs — offset ``0.0`` lands exactly on the live batch.

The train plans at the end check the lazy-push contract the packet
model relies on: entries enqueued later with :meth:`EventEngine.push`
under sequence numbers from :meth:`EventEngine.reserve` dispatch exactly
as if every entry had been scheduled up front.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventEngine

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


def execute_plan(plan, vectorized):
    """Run ``plan`` on a fresh engine; return (labels-in-order, engine).

    Labels record both execution order and the virtual time each
    callback observed, so a reordering *or* a clock glitch fails the
    comparison.
    """
    engine = EventEngine(vectorized=vectorized)
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
    engine.run()
    return order, engine


class TestBatchedOrderMatchesScalar:
    @given(plan=PLANS)
    @relaxed
    def test_same_total_order_as_heapq_reference(self, plan):
        """The core contract: batched == scalar on every schedule,
        including events scheduled from inside a batch dispatch."""
        scalar_order, scalar_engine = execute_plan(plan, vectorized=False)
        batched_order, batched_engine = execute_plan(plan, vectorized=True)
        assert batched_order == scalar_order
        assert batched_engine.events_processed == scalar_engine.events_processed
        assert batched_engine.now == scalar_engine.now

    @given(
        times=st.lists(TIMES, min_size=2, max_size=12),
    )
    @relaxed
    def test_duplicate_timestamps_run_in_scheduling_order(self, times):
        """Ties are broken by scheduling sequence alone, in both modes."""
        for vectorized in (False, True):
            engine = EventEngine(vectorized=vectorized)
            order = []
            for label, when in enumerate(times):
                engine.schedule(when, lambda label=label: order.append(label))
            engine.run()
            expected = [label for _, label in sorted(
                (when, label) for label, when in enumerate(times)
            )]
            assert order == expected, f"vectorized={vectorized}"

    @given(plan=PLANS)
    @relaxed
    def test_virtual_time_is_monotonic(self, plan):
        for vectorized in (False, True):
            order, _ = execute_plan(plan, vectorized)
            observed = [now for _, now in order]
            assert observed == sorted(observed), f"vectorized={vectorized}"


class TestInBatchScheduling:
    """Regression tests for the stale-local hazard: an event scheduled
    at the live batch's own timestamp must run in the *same* drain
    (the dispatch loop re-reads the pool length; a cached bound would
    strand it until a later — or never — sweep)."""

    def test_same_timestamp_event_from_callback_runs_in_same_run(self):
        engine = EventEngine(vectorized=True)
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
        from inside the batch is fully drained in one run."""
        engine = EventEngine(vectorized=True)
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
        engine = EventEngine(vectorized=True)
        order = []
        engine.schedule(2.0, lambda: order.append("later"))

        def parent():
            order.append("parent")
            engine.schedule(1.0, lambda: order.append("child"))

        engine.schedule(1.0, parent)
        engine.run()
        assert order == ["parent", "child", "later"]

    def test_events_processed_counts_in_batch_events(self):
        """events_processed is exact in both modes for the same plan."""
        plan = [(0.0, [(0.0, [0.0, 0.5]), (1.0, [])]), (0.0, []), (1.0, [(0.0, [])])]
        _, scalar = execute_plan(plan, vectorized=False)
        _, batched = execute_plan(plan, vectorized=True)
        assert batched.events_processed == scalar.events_processed == 8


#: A train: ``gaps`` spaces its chained entries (strictly increasing
#: times), ``tail`` is its last entry's offset from the first (any
#: non-negative value, so it may tie or precede chained entries) or
#: ``None`` for a train without one.  Children are what the first
#: entry starts when it fires: each a plain event or (flag set) a
#: two-entry train; offset ``0.0`` lands on the live batch.
GAPS = st.lists(st.sampled_from([0.25, 0.5, 1.0]), max_size=3)
TAILS = st.one_of(st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]))
TRAIN_CHILDREN = st.lists(st.tuples(OFFSETS, st.booleans()), max_size=3)
TRAINS = st.lists(
    st.tuples(TIMES, GAPS, TAILS, TRAIN_CHILDREN), min_size=1, max_size=6
)


def execute_trains(plan, vectorized, lazy):
    """Run a train plan; return [(label, now)] in dispatch order.

    Eager mode schedules every entry of a train with :meth:`schedule`
    when the train starts.  Lazy mode ``reserve``s the train's sequence
    numbers, pushes its first entry and its tail, and has each chained
    entry push its successor when it fires — the packet model's
    contract.
    """
    engine = EventEngine(vectorized=vectorized)
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
    every entry up front, in both drains."""

    @given(plan=TRAINS)
    @relaxed
    def test_lazy_push_matches_up_front_schedule(self, plan):
        reference, ref_engine = execute_trains(plan, vectorized=False, lazy=False)
        for vectorized in (False, True):
            for lazy in (False, True):
                order, engine = execute_trains(plan, vectorized, lazy)
                assert order == reference, f"vectorized={vectorized} lazy={lazy}"
                assert engine.events_processed == ref_engine.events_processed
                assert engine.now == ref_engine.now

    def test_push_at_live_batch_time_joins_the_pool(self):
        """At ``when == now`` inside a batch, push appends to the pool
        (no heap entry) and the entry runs in the same sweep."""
        engine = EventEngine(vectorized=True)
        order = []

        def parent():
            order.append("parent")
            depth = len(engine._queue)
            engine.push(engine.now, engine.reserve(1), lambda: order.append("pushed"))
            assert len(engine._queue) == depth
            engine.schedule(engine.now, lambda: order.append("scheduled"))

        engine.schedule(1.0, parent)
        engine.schedule(2.0, lambda: order.append("later"))
        engine.run()
        assert order == ["parent", "pushed", "scheduled", "later"]

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_push_before_now_raises(self, vectorized):
        engine = EventEngine(vectorized=vectorized)
        engine.schedule(1.0, lambda: engine.push(0.5, engine.reserve(1), lambda: None))
        with pytest.raises(ValueError, match="before current time"):
            engine.run()

    def test_reserve_hands_out_the_next_schedule_numbers(self):
        engine = EventEngine(vectorized=False)
        engine.schedule(1.0, lambda: None)
        base = engine.reserve(3)
        engine.schedule(1.0, lambda: None)
        assert [seq for _, seq, _ in sorted(engine._queue)] == [base - 1, base + 3]
