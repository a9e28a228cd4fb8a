"""Flow-level (fluid) network model.

Messages traverse the network as fluid flows sharing link bandwidth
max-min fairly.  Without congestion a flow needs only a start and a
finish event; every arrival or departure changes the bandwidth
allocation of *all* competing flows — the "ripple effect" that drives
this model's cost (each ripple recomputes the whole allocation).

The allocation is a max-min water-filling: iteratively find the most
loaded resource, freeze its flows at the fair share, drain capacity,
repeat.  A small flow count uses a dict-based Python water-fill; large
counts switch to a vectorized numpy water-fill.  One armed completion
event (version-stamped) tracks the earliest-finishing flow.

Two fidelity-neutral batching rules keep bulk-synchronous workloads
(alltoall rounds start and finish a thousand flows at once) from
triggering a thousand full recomputations:

* ripples within :data:`RIPPLE_COALESCE` of virtual time share one
  recomputation (rates are stale for at most a microsecond);
* a completion event also harvests flows finishing within
  :data:`FINISH_HORIZON`, delivering them at most a few microseconds
  early — far below the model's accuracy floor.

The model keeps flow state two ways, selected by its ``vectorized``
flag (:mod:`repro.sim.modes`): the scalar reference path stores one
:class:`_Flow` object per flow and loops over them in Python, while the
fast path keeps remaining-bytes and rate in parallel struct-of-lists
with routes and propagation latencies cached per (src, dst), a
bottleneck-set water-fill that evaluates each fairness division once
per link instead of once per flow×link, and a numpy water-fill (with
its link incidence cached between coalesced ripples) once the flow
count crosses :data:`_VECTOR_THRESHOLD` — below it, batch sizes are
single digits and per-call numpy overhead costs more than the loops it
replaces.  Both paths perform the same floating-point operations per
flow, so simulated times are bit-identical — enforced by the
differential equivalence suite.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.network import Fabric, NetworkModel, UnsupportedTraceError
from repro.trace.trace import TraceSet

__all__ = ["FlowModel"]

LOCAL_BANDWIDTH_FACTOR = 4.0

#: Flow-count threshold where the numpy water-fill takes over.
_VECTOR_THRESHOLD = 48

#: Process-wide small water-fill solution store, keyed by the link
#: capacity vector; each value is a route-multiset -> {route: rate}
#: memo.  Rates are a pure function of (capacities, route multiset), so
#: models built over the same fabric — repeated replays of one trace in
#: a study ladder or benchmark, or the same trace under different
#: engines — reuse solutions computed by earlier instances, and a warm
#: or cold cache yields bit-identical results by construction.  Studies
#: parallelize across processes, never threads, so plain dicts suffice.
_WF_MEMO_BY_CAPS: Dict[Tuple[float, ...], Dict[Tuple, Dict]] = {}

#: Distinct capacity vectors kept before the store resets (a study
#: sweeping many machines would otherwise accumulate dead fabrics).
_WF_MEMO_MAX_FABRICS = 64

#: Ripples within this window (seconds) share one recomputation.
RIPPLE_COALESCE = 1e-6

#: A completion event also finishes flows due within this horizon.
FINISH_HORIZON = 5e-6

#: Max-min refinement iterations before freezing everything at the
#: current fair level (levels beyond this change rates by well under a
#: percent for the traffic shapes the corpus produces).
_MAX_WATERFILL_ITERATIONS = 8


class _Flow:
    __slots__ = ("route", "route_arr", "remaining", "rate", "deliver", "prop_latency")

    def __init__(self, route, nbytes, deliver, prop_latency):
        self.route = route
        self.route_arr = np.asarray(route, dtype=np.intp)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.deliver = deliver
        self.prop_latency = prop_latency


class FlowModel(NetworkModel):
    """Max-min fair fluid simulation with ripple updates."""

    name = "flow"

    def __init__(self, fabric: Fabric, engine, ripple: bool = True,
                 vectorized: Optional[bool] = None):
        super().__init__(fabric, engine, vectorized)
        machine = fabric.machine
        self._caps = np.full(fabric.nresources, machine.bandwidth)
        nlinks = fabric.topology.nlinks
        self._caps[nlinks : nlinks + fabric.topology.nnodes] = (
            machine.effective_injection_bandwidth
        )
        self._local_rate = LOCAL_BANDWIDTH_FACTOR * machine.effective_injection_bandwidth
        #: Same-node fast path reads the overhead off the instance
        #: instead of chasing fabric.machine per message.
        self._soft_overhead = machine.software_overhead
        self._flows: List[_Flow] = []
        self._last_update = 0.0
        self._version = 0
        self._dirty = False
        self.ripple = bool(ripple)
        self.ripple_updates = 0
        # Fast-path state: parallel struct-of-lists indexed 0.._n-1.
        # Plain Python lists beat numpy arrays here — the active flow
        # count is single digits for the corpus traffic shapes, well
        # under any array-op break-even point.
        self._n = 0
        self._rem: List[float] = []
        self._rates: List[float] = []
        self._routes: List[Tuple[int, ...]] = []
        self._route_arrs: List[np.ndarray] = []
        self._delivers: List = []
        self._props: List[float] = []
        #: Link capacities as plain floats for the Python water-fill.
        self._caps_list: List[float] = self._caps.tolist()
        #: Link -> active-flow count, maintained incrementally on flow
        #: add/remove so each water-fill starts from a dict copy instead
        #: of an O(flows x route) rebuild.
        self._link_counts: Dict[int, int] = {}
        #: Route-multiset -> {route: rate} memo for the small water-fill.
        #: Rates are a pure function of the route multiset (and the
        #: fixed capacities), and flows sharing a route always freeze at
        #: the same level, so the mapping is well-defined; bulk-
        #: synchronous phases re-ripple the same composition often.  The
        #: memo lives in the process-wide per-capacity store so repeated
        #: replays of one trace start warm (see ``_WF_MEMO_BY_CAPS``).
        caps_key = tuple(self._caps_list)
        if len(_WF_MEMO_BY_CAPS) > _WF_MEMO_MAX_FABRICS and caps_key not in _WF_MEMO_BY_CAPS:
            _WF_MEMO_BY_CAPS.clear()
        self._wf_memo: Dict[Tuple, Dict] = _WF_MEMO_BY_CAPS.setdefault(caps_key, {})
        #: Large-case water-fill incidence cache (flow occurrence index,
        #: link inverse, caps, nlinks); None whenever the composition
        #: changed.  The small case rebuilds its dicts per call.
        self._wf = None
        #: (src, dst) -> (route, route_arr, propagation latency).
        self._route_cache: Dict[Tuple[int, int], Tuple[Tuple[int, ...], np.ndarray, float]] = {}

    def check_trace(self, trace: TraceSet) -> None:
        """SST/Macro 3.0's flow engine fails on grouping ops and threads."""
        if trace.uses_threads:
            raise UnsupportedTraceError(
                f"flow model cannot replay multi-threaded trace {trace.name!r}"
            )
        if trace.uses_comm_split:
            raise UnsupportedTraceError(
                f"flow model cannot replay trace {trace.name!r} with complex MPI grouping"
            )

    def _count(self) -> int:
        """Active flow count in whichever representation is live."""
        return self._n if self.vectorized else len(self._flows)

    # -- fluid machinery (scalar reference path) -------------------------

    def _progress(self, now: float) -> None:
        """Drain bytes at current rates up to ``now``."""
        if self.vectorized:
            self._progress_vec(now)
            return
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows:
                flow.remaining -= flow.rate * dt
                if flow.remaining < 0.0:
                    flow.remaining = 0.0
        self._last_update = now

    def _recompute_rates(self) -> None:
        """Max-min water-filling over all active flows (the ripple)."""
        if self.vectorized:
            self._recompute_rates_vec()
            return
        flows = self._flows
        if not flows:
            return
        self.ripple_updates += 1
        if len(flows) <= _VECTOR_THRESHOLD:
            self._waterfill_small(flows)
        else:
            self._waterfill_vector(flows)

    def _waterfill_small(self, flows: List[_Flow]) -> None:
        caps = self._caps
        remaining_cap = {}
        counts = {}
        for flow in flows:
            for link in flow.route:
                if link in counts:
                    counts[link] += 1
                else:
                    counts[link] = 1
                    remaining_cap[link] = float(caps[link])
        unfrozen = set(range(len(flows)))
        while unfrozen:
            level = None
            for link, count in counts.items():
                if count > 0:
                    fair = remaining_cap[link] / count
                    if level is None or fair < level:
                        level = fair
            if level is None:
                break
            newly = [
                i
                for i in sorted(unfrozen)
                if any(
                    counts[l] > 0 and remaining_cap[l] / counts[l] <= level * (1 + 1e-12)
                    for l in flows[i].route
                )
            ]
            if not newly:
                break
            for i in newly:
                flows[i].rate = level
                unfrozen.discard(i)
                for link in flows[i].route:
                    counts[link] -= 1
                    remaining_cap[link] = max(0.0, remaining_cap[link] - level)

    def _waterfill_vector(self, flows: List[_Flow]) -> None:
        nflows = len(flows)
        lens = np.fromiter((f.route_arr.size for f in flows), dtype=np.intp, count=nflows)
        concat = np.concatenate([f.route_arr for f in flows])
        flow_idx = np.repeat(np.arange(nflows), lens)
        links, inv = np.unique(concat, return_inverse=True)
        cap = self._caps[links].astype(float)
        rates = self._waterfill_core(nflows, flow_idx, inv, cap, links.size)
        for flow, rate in zip(flows, rates):
            flow.rate = float(rate)

    def _waterfill_core(
        self,
        nflows: int,
        flow_idx: np.ndarray,
        inv: np.ndarray,
        cap: np.ndarray,
        nlinks: int,
    ) -> np.ndarray:
        """Shared max-min refinement over a prebuilt link incidence."""
        rates = np.zeros(nflows)
        frozen = np.zeros(nflows, dtype=bool)
        remaining_cap = cap.copy()
        for iteration in range(_MAX_WATERFILL_ITERATIONS):
            unfrozen_occ = ~frozen[flow_idx]
            counts = np.bincount(inv, weights=unfrozen_occ, minlength=nlinks)
            busy = counts > 0
            if not busy.any():
                break
            fair = np.full(nlinks, np.inf)
            fair[busy] = remaining_cap[busy] / counts[busy]
            level = fair.min()
            last = iteration == _MAX_WATERFILL_ITERATIONS - 1
            if last:
                # Freeze every remaining flow at its own bottleneck share.
                flow_fair = np.full(nflows, np.inf)
                np.minimum.at(flow_fair, flow_idx, fair[inv])
                newly_mask = ~frozen
                rates[newly_mask] = flow_fair[newly_mask]
                break
            bottleneck = fair <= level * (1 + 1e-12)
            hit_occ = bottleneck[inv] & unfrozen_occ
            newly_mask = np.zeros(nflows, dtype=bool)
            newly_mask[flow_idx[hit_occ]] = True
            newly_mask &= ~frozen
            if not newly_mask.any():
                break
            rates[newly_mask] = level
            frozen |= newly_mask
            drained = np.bincount(
                inv, weights=newly_mask[flow_idx] & unfrozen_occ, minlength=nlinks
            )
            remaining_cap = np.maximum(0.0, remaining_cap - level * drained)
        return rates

    # -- fluid machinery (vectorized path) -------------------------------

    def _route_of(self, src_rank: int, dst_rank: int):
        """Cached route + index array + propagation latency for a pair."""
        key = (src_rank, dst_rank)
        hit = self._route_cache.get(key)
        if hit is None:
            route = self.fabric.route(src_rank, dst_rank)
            hit = self._route_cache[key] = (
                route,
                np.asarray(route, dtype=np.intp),
                self.fabric.route_latency(route),
            )
        return hit

    def _append_flow(self, route, route_arr, nbytes, deliver, prop) -> None:
        self._rem.append(float(nbytes))
        self._rates.append(0.0)
        self._routes.append(route)
        self._route_arrs.append(route_arr)
        self._delivers.append(deliver)
        self._props.append(prop)
        self._n += 1
        self._wf = None
        counts = self._link_counts
        for link in route:
            counts[link] = counts.get(link, 0) + 1

    def _progress_vec(self, now: float) -> None:
        dt = now - self._last_update
        if dt > 0 and self._n:
            rem = self._rem
            rates = self._rates
            for i in range(self._n):
                v = rem[i] - rates[i] * dt
                rem[i] = v if v >= 0.0 else 0.0
        self._last_update = now

    def _recompute_rates_vec(self) -> None:
        n = self._n
        if not n:
            return
        self.ripple_updates += 1
        if n <= _VECTOR_THRESHOLD:
            self._waterfill_small_vec()
        else:
            self._waterfill_vector_vec()

    def _waterfill_small_vec(self) -> None:
        """Bottleneck-set twin of the dict-based small water-fill.

        Performs the identical sequence of IEEE operations as
        :meth:`_waterfill_small` but restructured: each refinement level
        evaluates the per-link fairness division *once per link* (the
        scalar scan recomputes the very same divisions per flow×link,
        so reusing the stored quotients cannot change a bit), takes the
        set of bottleneck links from those stored quotients, and
        freezes flows by integer set membership against their routes —
        the freeze decisions and the order-dependent clamped capacity
        drain replay the scalar path bit for bit.  The link occupancy
        starts from a copy of the incrementally maintained
        ``_link_counts`` instead of a per-call rebuild, and whole
        solutions are memoized per route multiset.
        """
        n = self._n
        routes = self._routes
        rates = self._rates
        key = tuple(sorted(routes))
        memo = self._wf_memo.get(key)
        if memo is not None:
            rates[:] = map(memo.__getitem__, routes)
            return
        caps = self._caps_list
        # One entry per busy link: [active-flow count, remaining cap] —
        # a single dict probe per link per refinement level.
        state = {link: [c, caps[link]] for link, c in self._link_counts.items()}
        unfrozen = list(range(n))
        while unfrozen:
            level = None
            fairs = []
            for link, ent in state.items():
                count = ent[0]
                if count > 0:
                    fair = ent[1] / count
                    fairs.append((fair, link))
                    if level is None or fair < level:
                        level = fair
            if level is None:
                break
            thresh = level * (1 + 1e-12)
            hot = {link for fair, link in fairs if fair <= thresh}
            newly = [i for i in unfrozen if not hot.isdisjoint(routes[i])]
            if not newly:
                break
            for i in newly:
                rates[i] = level
                for link in routes[i]:
                    ent = state[link]
                    ent[0] -= 1
                    drained = ent[1] - level
                    ent[1] = drained if drained > 0.0 else 0.0
            frozen = set(newly)
            unfrozen = [i for i in unfrozen if i not in frozen]
        if not unfrozen:
            # Full solution: safe to memoize (a defensive break above
            # would leave stale rates that are not multiset-determined).
            if len(self._wf_memo) > 4096:
                self._wf_memo.clear()
            self._wf_memo[key] = {routes[i]: rates[i] for i in range(n)}

    def _waterfill_vector_vec(self) -> None:
        """Numpy water-fill with the link incidence cached between ripples.

        Coalesced ripples over an unchanged flow set (the common case in
        bulk-synchronous phases) skip the concatenate/unique rebuild and
        only rerun the refinement loop.
        """
        n = self._n
        wf = self._wf
        if wf is None:
            lens = np.fromiter(
                (a.size for a in self._route_arrs), dtype=np.intp, count=n
            )
            concat = np.concatenate(self._route_arrs)
            flow_idx = np.repeat(np.arange(n), lens)
            links, inv = np.unique(concat, return_inverse=True)
            cap = self._caps[links].astype(float)
            self._wf = wf = (flow_idx, inv, cap, links.size)
        flow_idx, inv, cap, nlinks = wf
        self._rates[:n] = self._waterfill_core(n, flow_idx, inv, cap, nlinks).tolist()

    # -- event plumbing -----------------------------------------------------

    def _mark_dirty(self) -> None:
        """Coalesce ripples inside a microsecond window into one pass."""
        if not self._dirty:
            self._dirty = True
            self.engine.schedule(
                self.engine._now + RIPPLE_COALESCE,
                self._recompute_event_vec if self.vectorized else self._recompute_event,
            )

    def _recompute_event(self) -> None:
        self._dirty = False
        self._progress(self.engine.now)
        self._harvest()
        self._recompute_rates()
        self._arm()

    def _recompute_event_vec(self) -> None:
        """Fast-path ripple: same steps as :meth:`_recompute_event` with
        progress and harvest fused into one pass over the flow lists and
        the mode dispatch resolved once at scheduling time."""
        self._dirty = False
        self._progress_harvest_vec(self.engine._now)
        n = self._n
        if n:
            self.ripple_updates += 1
            if n <= _VECTOR_THRESHOLD:
                self._waterfill_small_vec()
            else:
                self._waterfill_vector_vec()
        self._arm_vec()

    def _arm(self) -> None:
        """(Re)schedule the single completion event at the earliest ETA."""
        if self.vectorized:
            self._arm_vec()
            return
        self._version += 1
        if not self._flows:
            return
        now = self._last_update
        best = None
        for flow in self._flows:
            if flow.rate > 0.0:
                eta = now + flow.remaining / flow.rate
                if best is None or eta < best:
                    best = eta
        if best is None:
            return
        version = self._version
        self.engine.schedule(max(best, self.engine.now), lambda: self._on_completion(version))

    def _arm_vec(self) -> None:
        self._version += 1
        n = self._n
        if not n:
            return
        now = self._last_update
        rem = self._rem
        rates = self._rates
        best = None
        for i in range(n):
            rate = rates[i]
            if rate > 0.0:
                eta = now + rem[i] / rate
                if best is None or eta < best:
                    best = eta
        if best is None:
            return
        engine = self.engine
        floor = engine._now
        engine.schedule(
            best if best >= floor else floor,
            partial(self._on_completion_vec, self._version),
        )

    def _harvest(self) -> bool:
        """Complete every flow already done or due within the horizon."""
        if self.vectorized:
            return self._harvest_vec()
        now = self.engine.now
        finished = [
            f
            for f in self._flows
            if f.remaining <= max(1e-3, f.rate * FINISH_HORIZON)
        ]
        if not finished:
            return False
        keep = [f for f in self._flows if f not in finished]
        self._flows = keep
        for flow in finished:
            done = now + flow.prop_latency
            self.engine.schedule(done, lambda f=flow, d=done: f.deliver(d))
        return True

    def _harvest_vec(self) -> bool:
        """Single-pass twin of :meth:`_harvest` over the parallel lists.

        The scalar path filters the flow list twice (finished, then
        kept, with an ``O(n^2)`` membership scan); here one pass both
        schedules the finished deliveries (same ascending order) and
        compacts the surviving state.
        """
        n = self._n
        if not n:
            return False
        rem = self._rem
        rates = self._rates
        finished = []
        kept = []
        for i in range(n):
            horizon = rates[i] * FINISH_HORIZON
            if rem[i] <= (horizon if horizon > 1e-3 else 1e-3):
                finished.append(i)
            else:
                kept.append(i)
        if not finished:
            return False
        self._complete_finished(finished, kept)
        return True

    def _progress_harvest_vec(self, now: float) -> bool:
        """Fused twin of ``_progress(now)`` followed by ``_harvest()``.

        The scalar pair makes two passes over the flows; progress and
        the harvest test are independent per flow, so one pass computes
        the drained remainder and classifies the flow with it — the
        identical IEEE subtract/clamp and threshold compare, just
        without re-reading the list in between.
        """
        dt = now - self._last_update
        self._last_update = now
        n = self._n
        if not n:
            return False
        rem = self._rem
        rates = self._rates
        finished = []
        kept = []
        if dt > 0:
            for i in range(n):
                rate = rates[i]
                v = rem[i] - rate * dt
                if v < 0.0:
                    v = 0.0
                rem[i] = v
                horizon = rate * FINISH_HORIZON
                if v <= (horizon if horizon > 1e-3 else 1e-3):
                    finished.append(i)
                else:
                    kept.append(i)
        else:
            for i in range(n):
                horizon = rates[i] * FINISH_HORIZON
                if rem[i] <= (horizon if horizon > 1e-3 else 1e-3):
                    finished.append(i)
                else:
                    kept.append(i)
        if not finished:
            return False
        self._complete_finished(finished, kept)
        return True

    def _complete_finished(self, finished: List[int], kept: List[int]) -> None:
        """Schedule deliveries (ascending index, like the scalar path)
        and compact the parallel lists down to ``kept``."""
        now = self.engine._now
        rem = self._rem
        rates = self._rates
        schedule = self.engine.schedule
        delivers = self._delivers
        props = self._props
        for i in finished:
            done = now + props[i]
            schedule(done, partial(delivers[i], done))
        counts = self._link_counts
        routes = self._routes
        for i in finished:
            for link in routes[i]:
                left = counts[link] - 1
                if left:
                    counts[link] = left
                else:
                    del counts[link]
        self._rem = [rem[i] for i in kept]
        self._rates = [rates[i] for i in kept]
        self._routes = [routes[i] for i in kept]
        self._route_arrs = [self._route_arrs[i] for i in kept]
        self._delivers = [delivers[i] for i in kept]
        self._props = [props[i] for i in kept]
        self._n = len(kept)
        self._wf = None

    def _on_completion(self, version: int) -> None:
        if version != self._version:
            return
        self._progress(self.engine.now)
        if not self._harvest():
            self._arm()
            return
        if self.ripple or not self._count():
            self._mark_dirty()
        else:
            self._arm()

    def _on_completion_vec(self, version: int) -> None:
        """Fast-path completion: :meth:`_on_completion` with progress and
        harvest fused and the mode dispatch resolved at arm time."""
        if version != self._version:
            return
        if not self._progress_harvest_vec(self.engine._now):
            self._arm_vec()
            return
        if self.ripple or not self._n:
            self._mark_dirty()
        else:
            self._arm_vec()

    def _start_flow_vec(self, route, route_arr, payload, deliver, prop) -> None:
        self._progress_vec(self.engine._now)
        self._append_flow(route, route_arr, payload, deliver, prop)
        if self.ripple or self._n == 1:
            self._mark_dirty()
        else:
            # Frozen-rate ablation: only the new flow gets a rate.
            self._rates[self._n - 1] = float(self._caps[route_arr].min()) / self._n
            self._arm_vec()

    # -- NetworkModel ------------------------------------------------------

    def transfer(self, src_rank, dst_rank, nbytes, start, deliver):
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.vectorized:
            # Inlined route-cache probe (see _route_of, kept for the
            # cold path and tests).
            hit = self._route_cache.get((src_rank, dst_rank))
            if hit is None:
                hit = self._route_of(src_rank, dst_rank)
            route, route_arr, prop = hit
            if not route:
                done = start + self._soft_overhead + nbytes / self._local_rate
                self.engine.schedule(done, partial(deliver, done))
                return
            self.engine.schedule(
                start,
                partial(
                    self._start_flow_vec, route, route_arr, max(1, nbytes), deliver, prop
                ),
            )
            return
        route = self.fabric.route(src_rank, dst_rank)
        if not route:
            done = start + self.fabric.machine.software_overhead + nbytes / self._local_rate
            self.engine.schedule(done, lambda: deliver(done))
            return
        prop = self.fabric.route_latency(route)
        flow = _Flow(route, max(1, nbytes), deliver, prop)

        def start_flow():
            self._progress(self.engine.now)
            self._flows.append(flow)
            if self.ripple or len(self._flows) == 1:
                self._mark_dirty()
            else:
                # Frozen-rate ablation: only the new flow gets a rate.
                flow.rate = float(self._caps[list(flow.route)].min()) / len(self._flows)
                self._arm()

        self.engine.schedule(start, start_flow)
