"""Conservative discrete-event simulation core.

A minimal PDES-style engine: a time-ordered event queue with stable FIFO
ordering for simultaneous events.  Network models and the MPI replay
layer schedule callbacks; the engine guarantees callbacks run in
non-decreasing virtual time.

The engine has two drain loops over the same queue:

* the **scalar** reference loop pops one heap entry per event — the
  historical path, kept as the executable specification;
* the **batched** loop (default, see :mod:`repro.sim.modes`) drains
  every entry at the current clock into a reusable event pool in one
  sweep and dispatches the pool linearly.  Callbacks that schedule new
  work at exactly the batch timestamp append straight onto the live
  pool — skipping the heap entirely — which is where bulk-synchronous
  phases (a collective round finishing a thousand flows at one instant)
  recover their ``heappush``/``heappop`` cost.

Both loops process callbacks in the identical total order — (time,
scheduling sequence) — proven by the differential and property suites
in ``tests/test_event_batch_properties.py``: an event scheduled from
inside a batch has a scheduling sequence above everything already
drained, so appending it to the pool tail is exactly the order the heap
would have produced.

Budget enforcement is cooperative: :meth:`EventEngine.run` checks the
event count on every event and the wall clock every ``check_every``
events, raising :class:`~repro.util.budget.EventBudgetExceeded` or
:class:`~repro.util.budget.WallClockExceeded` so a runaway or hung
replay surfaces as a structured, recoverable failure instead of
stalling a study worker forever.  Network models call
:meth:`EventEngine.check_budget` once per transfer so the deadline also
covers time spent *between* events.

A model that knows an entry's (time, sequence) key before it needs the
entry queued — the packet model's trains, see :mod:`repro.sim.packet`
— can :meth:`~EventEngine.reserve` sequence numbers up front and
:meth:`~EventEngine.push` each entry lazily, keeping at most two heap
entries per message in flight instead of one per packet, without
changing the dispatch order.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.sim import modes
from repro.util.budget import EventBudgetExceeded, WallClockExceeded

__all__ = ["EventEngine", "DEFAULT_MAX_EVENTS"]

#: Runaway-replay backstop when no explicit event budget is given.
DEFAULT_MAX_EVENTS = 200_000_000

#: Events between wall-clock checks inside the run loop.
_WALL_CHECK_EVERY = 1024


class EventEngine:
    """Time-ordered callback executor.

    Engines are process-local: the queue holds live closures, so an
    engine can never cross a process boundary.  Parallel study workers
    must return plain value objects (:class:`~repro.sim.results.SimResult`,
    :class:`~repro.core.pipeline.StudyRecord`) instead — pickling an
    engine raises immediately with a clear message rather than failing
    deep inside :mod:`multiprocessing` with an opaque closure error.
    """

    def __init__(self, vectorized: Optional[bool] = None):
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0.0
        self._wall_deadline: Optional[float] = None
        self._wall_budget = 0.0
        self._wall_start = 0.0
        self.events_processed = 0
        self.vectorized = modes.resolve(vectorized)
        # Reusable same-timestamp event pool for the batched drain; the
        # list persists across run() calls so repeated replays in one
        # worker never reallocate it.
        self._batch: List[Callable[[], None]] = []
        self._batch_active = False
        self._batch_when = 0.0
        # Tallies folded into metrics by run(); instance attributes so a
        # budget abort mid-drain still reports the events it processed.
        self._run_processed = 0
        self._run_depth_max = 0

    def __getstate__(self):
        raise TypeError(
            "EventEngine is not picklable (its queue holds live callbacks); "
            "return SimResult/StudyRecord values from worker processes instead"
        )

    @property
    def now(self) -> float:
        """Current virtual time (time of the event being processed)."""
        return self._now

    def set_wall_deadline(self, wall_seconds: Optional[float]) -> None:
        """Arm (or disarm with ``None``) the cooperative wall-clock budget.

        The deadline starts counting immediately; both the run loop and
        :meth:`check_budget` enforce it.
        """
        if wall_seconds is None:
            self._wall_deadline = None
            return
        self._wall_budget = float(wall_seconds)
        self._wall_start = time.perf_counter()
        self._wall_deadline = self._wall_start + self._wall_budget

    def check_budget(self) -> None:
        """Raise :class:`WallClockExceeded` if the armed deadline passed.

        Network models call this once per transfer, so wall time spent
        launching messages outside the event loop proper is covered too.
        """
        if self._wall_deadline is not None and time.perf_counter() > self._wall_deadline:
            raise WallClockExceeded(
                elapsed=time.perf_counter() - self._wall_start,
                budget=self._wall_budget,
                sim_time_reached=self._now,
            )

    def schedule(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at virtual time ``when``.

        ``when`` must not precede the current virtual time (conservative
        execution); simultaneous events run in scheduling order.  While
        the batched drain is dispatching a pool at exactly ``when``, the
        callback joins the live pool directly: had it been heappushed it
        would carry a sequence number above every entry already drained,
        so tail-append *is* heap order.
        """
        self._seq += 1
        self.push(when, self._seq, callback)

    def reserve(self, n: int) -> int:
        """Claim the ``n`` sequence numbers ``n`` :meth:`schedule` calls would take.

        Returns the first; the caller owns ``base .. base + n - 1`` and
        enqueues each entry later with :meth:`push`.  Later
        :meth:`schedule` calls sort after all of them, exactly as if the
        ``n`` entries had been scheduled now.
        """
        base = self._seq + 1
        self._seq += n
        return base

    def push(self, when: float, seq: int, callback: Callable[[], None]) -> None:
        """Enqueue ``callback`` at ``when`` under ``seq`` from :meth:`reserve`.

        Follows :meth:`schedule`'s rule: at exactly the live batch's
        timestamp the callback joins the pool, anywhere else it goes on
        the heap with the given ``seq``.  Dispatch order then equals
        scheduling every reserved entry up front, provided the caller
        pushes each entry before the clock reaches ``when`` — or, at
        ``when == now``, only with a ``seq`` above everything already
        queued at ``now``.  Only the past-time half is checked here (the
        same conservative-execution guard as :meth:`schedule`); callers
        (the packet model's trains) guarantee the rest by construction.
        """
        if when < self._now - 1e-15:
            raise ValueError(f"cannot schedule at {when} before current time {self._now}")
        if self._batch_active and when == self._batch_when:
            self._batch.append(callback)
            return
        heapq.heappush(self._queue, (when, seq, callback))

    def run(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        """Drain the queue, enforcing the event and wall-clock budgets.

        Raises :class:`EventBudgetExceeded` when more than ``max_events``
        events are processed and :class:`WallClockExceeded` when an
        armed wall deadline (see :meth:`set_wall_deadline`) passes —
        the wall check runs every ``_WALL_CHECK_EVERY`` events so its
        cost is amortized away.
        """
        track = obs.enabled()
        self._run_processed = 0
        self._run_depth_max = len(self._queue) if track else 0
        wall_aborted = False
        try:
            if self.vectorized:
                self._drain_batched(max_events, track)
            else:
                self._drain_scalar(max_events, track)
        except WallClockExceeded:
            wall_aborted = True
            raise
        finally:
            self.events_processed += self._run_processed
            if track and self._run_processed:
                self._flush_metrics(self._run_processed, self._run_depth_max, wall_aborted)

    def _drain_scalar(self, max_events: int, track: bool) -> None:
        """Reference loop: one ``heappop`` per event, in (time, seq) order.

        Always reads the queue through ``self._queue``'s local alias —
        safe only because nothing ever rebinds ``self._queue`` (callbacks
        *push* to it via :meth:`schedule`); the batched drain below
        re-reads the heap top each sweep for the same reason.
        """
        queue = self._queue
        processed = 0
        check_wall = self._wall_deadline is not None
        depth_max = self._run_depth_max
        try:
            while queue:
                if track and len(queue) > depth_max:
                    depth_max = len(queue)
                when, _, callback = heapq.heappop(queue)
                self._now = when
                callback()
                processed += 1
                if processed > max_events:
                    raise EventBudgetExceeded(
                        events_executed=processed, sim_time_reached=when, budget=max_events
                    )
                if check_wall and processed % _WALL_CHECK_EVERY == 0:
                    self.check_budget()
        finally:
            self._run_processed = processed
            self._run_depth_max = depth_max

    def _drain_batched(self, max_events: int, track: bool) -> None:
        """Batched loop: drain all entries at the current clock, dispatch.

        The pool is dispatched by index (never an iterator) because
        callbacks extend it in place through the :meth:`schedule` fast
        path; the dispatch loop re-reads ``len(batch)`` so a
        same-timestamp event scheduled from inside the batch runs in
        this very sweep.  The pool is an append-only log for the whole
        drain — each sweep dispatches its ``[start, end)`` window and
        the next sweep's pops append after it — so the per-timestamp
        cost is two attribute stores, not a ``try/finally`` plus a pool
        clear.  Entries behind ``start`` are dead; the log is dropped
        once on exit.
        """
        queue = self._queue
        batch = self._batch
        batch_append = batch.append
        heappop = heapq.heappop
        processed = 0
        check_wall = self._wall_deadline is not None
        depth_max = self._run_depth_max
        start = 0
        try:
            self._batch_active = True
            while queue:
                if track and len(queue) > depth_max:
                    depth_max = len(queue)
                when = queue[0][0]
                while queue and queue[0][0] <= when:
                    batch_append(heappop(queue)[2])
                self._now = when
                self._batch_when = when
                # Dispatch in runs: a same-timestamp event scheduled
                # from inside the batch lands past ``end`` and is
                # picked up when the current run is exhausted, so
                # ``len`` is read once per run instead of per event.
                # A run that cannot possibly trip a budget (no wall
                # deadline armed, event count stays within budget)
                # dispatches unchecked; otherwise the checks stay
                # per event so aborts fire at the exact event the
                # scalar loop would.
                end = len(batch)
                while start < end:
                    if not check_wall and processed + (end - start) <= max_events:
                        # Per-event increment (not one += per run) so
                        # ``events_processed`` stays exact if a
                        # callback raises mid-run.
                        for callback in batch[start:end]:
                            callback()
                            processed += 1
                    else:
                        for i in range(start, end):
                            batch[i]()
                            processed += 1
                            if processed > max_events:
                                raise EventBudgetExceeded(
                                    events_executed=processed,
                                    sim_time_reached=when,
                                    budget=max_events,
                                )
                            if check_wall and processed % _WALL_CHECK_EVERY == 0:
                                self.check_budget()
                    start = end
                    end = len(batch)
        finally:
            self._batch_active = False
            del batch[:]
            self._run_processed = processed
            self._run_depth_max = depth_max

    @staticmethod
    def _flush_metrics(processed: int, depth_max: int, wall_aborted: bool) -> None:
        """Fold one run()'s tallies into the active metrics registry.

        A wall-clock abort stops at a schedule-dependent event, so its
        partial tallies go to a walltime-family counter and stay out of
        the deterministic events/queue-depth series.
        """
        if wall_aborted:
            obs.counter("repro_engine_aborted_walltime_events_total").inc(processed)
            return
        obs.counter("repro_engine_events_total").inc(processed)
        obs.histogram("repro_engine_events_per_run").observe(processed)
        obs.gauge("repro_engine_queue_depth_max").set_max(depth_max)
