"""Conservative discrete-event simulation core.

A minimal PDES-style engine: a time-ordered event queue with stable FIFO
ordering for simultaneous events.  Network models and the MPI replay
layer schedule callbacks; the engine guarantees callbacks run in
non-decreasing virtual time.

The engine has one drain: pop the (time, scheduling sequence) minimum
off a binary heap and run it, one ``heappop`` per event.  An earlier
batched drain swept every entry at the current clock into a reusable
pool and let same-timestamp children skip the heap; it dispatched the
identical order but was slower on every engine, because almost every
packet event has a timestamp of its own, so the per-timestamp sweep
cost about as much as a packet's route walk.  Measured with identical
results on a shared 2-vCPU VM (DESIGN.md, item 11): packet 1.11-1.24 s
→ 0.71-0.94 s on the five ``cold-corpus`` traces, flow 0.24 →
0.18-0.20 s and packet-flow 0.17-0.19 → 0.14-0.15 s on the 24
``cold-mini`` traces.  ``tests/test_event_batch_properties.py`` keeps
the batched drain as an oracle the heap loop is diffed against.

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

    def __init__(self):
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0.0
        self._wall_deadline: Optional[float] = None
        self._wall_budget = 0.0
        self._wall_start = 0.0
        self.events_processed = 0

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
        execution); simultaneous events run in scheduling order.
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

        Dispatch order then equals scheduling every reserved entry up
        front, provided the caller pushes each entry before the clock
        reaches ``when`` — or, at ``when == now``, only with a ``seq``
        above everything already queued at ``now``.  Only the past-time half is checked here (the
        same conservative-execution guard as :meth:`schedule`); callers
        (the packet model's trains) guarantee the rest by construction.
        """
        if when < self._now - 1e-15:
            raise ValueError(f"cannot schedule at {when} before current time {self._now}")
        heapq.heappush(self._queue, (when, seq, callback))

    def run(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        """Drain the queue, enforcing the event and wall-clock budgets.

        Raises :class:`EventBudgetExceeded` when more than ``max_events``
        events are processed and :class:`WallClockExceeded` when an
        armed wall deadline (see :meth:`set_wall_deadline`) passes —
        the wall check runs every ``_WALL_CHECK_EVERY`` events so its
        cost is amortized away.  ``self._queue`` is never rebound, so
        the loop (and the packet model's trains) may hold it as a local.
        """
        track = obs.enabled()
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        check_wall = self._wall_deadline is not None
        depth_max = len(queue) if track else 0
        wall_aborted = False
        try:
            while queue:
                if track and len(queue) > depth_max:
                    depth_max = len(queue)
                when, _, callback = heappop(queue)
                self._now = when
                callback()
                processed += 1
                if processed > max_events:
                    raise EventBudgetExceeded(
                        events_executed=processed, sim_time_reached=when, budget=max_events
                    )
                if check_wall and processed % _WALL_CHECK_EVERY == 0:
                    self.check_budget()
        except WallClockExceeded:
            wall_aborted = True
            raise
        finally:
            self.events_processed += processed
            if track and processed:
                self._flush_metrics(processed, depth_max, wall_aborted)

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
