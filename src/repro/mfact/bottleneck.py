"""Bottleneck analysis from MFACT's counters.

MFACT "gauges the potential benefits of various networking options and
predicts potential application performance bottlenecks" (Section IV-A).
This module turns one replay into an actionable breakdown: where each
rank's time goes, which ranks straggle, and the headroom from idealized
upgrades (faster bandwidth / lower latency / perfect balance), with the
upgraded totals priced off the replay's recorded tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.machines.config import MachineConfig
from repro.mfact.hockney import ConfigGrid
from repro.trace.trace import TraceSet

__all__ = ["RankBreakdown", "BottleneckReport", "analyze_bottlenecks"]


@dataclass(frozen=True)
class RankBreakdown:
    """One rank's logical-time decomposition at the baseline config."""

    rank: int
    total: float
    compute: float
    latency: float
    bandwidth: float
    wait: float

    @property
    def comm(self) -> float:
        return self.latency + self.bandwidth + self.wait

    def dominant(self) -> str:
        """The largest component's name."""
        parts = {
            "compute": self.compute,
            "latency": self.latency,
            "bandwidth": self.bandwidth,
            "wait": self.wait,
        }
        return max(parts, key=parts.get)


@dataclass
class BottleneckReport:
    """Application-level bottleneck summary."""

    trace_name: str
    machine: str
    ranks: List[RankBreakdown]
    total_time: float
    bandwidth_headroom: float  # speedup from 8x bandwidth
    latency_headroom: float  # speedup from 8x lower latency
    balance_headroom: float  # speedup from perfectly balanced compute

    @property
    def stragglers(self) -> List[RankBreakdown]:
        """Ranks whose *computation* exceeds the mean by over 10%.

        Final logical clocks are equalized by trailing synchronization
        (barriers), so imbalance is visible in the compute counter, not
        in the totals.
        """
        mean = float(np.mean([r.compute for r in self.ranks]))
        if mean <= 0:
            return []
        return [r for r in self.ranks if r.compute > 1.1 * mean]

    def dominant_component(self) -> str:
        """The component dominating the rank-averaged decomposition."""
        agg = {
            "compute": sum(r.compute for r in self.ranks),
            "latency": sum(r.latency for r in self.ranks),
            "bandwidth": sum(r.bandwidth for r in self.ranks),
            "wait": sum(r.wait for r in self.ranks),
        }
        return max(agg, key=agg.get)

    def recommendation(self) -> str:
        """A one-line recommendation, the way MFACT reports are read."""
        best = max(
            ("bandwidth", self.bandwidth_headroom),
            ("latency", self.latency_headroom),
            ("balance", self.balance_headroom),
            key=lambda kv: kv[1],
        )
        name, headroom = best
        if headroom < 1.05:
            return "no single upgrade buys more than 5%: the application is compute-limited"
        actions = {
            "bandwidth": "invest in network bandwidth",
            "latency": "invest in network latency",
            "balance": "fix the load imbalance before touching the network",
        }
        return f"{actions[name]} (predicted {headroom:.2f}x from an idealized upgrade)"


def analyze_bottlenecks(
    trace: TraceSet, machine: MachineConfig, upgrade_factor: float = 8.0
) -> BottleneckReport:
    """Run one recorded replay and produce the bottleneck report.

    ``upgrade_factor`` sizes the hypothetical network upgrades used for
    headroom estimates (paper's classification uses 8x).
    """
    if upgrade_factor <= 1.0:
        raise ValueError("upgrade_factor must exceed 1")
    # Imported here: repro.sensitivity builds on repro.mfact.
    from repro.sensitivity.analysis import price_grid

    grid = ConfigGrid.sweep(
        machine,
        bw_factors=(1.0, upgrade_factor),
        lat_factors=(1.0, upgrade_factor),
    )
    replay, _, report = price_grid(trace, machine, grid)
    c = replay.counters
    ranks = [
        RankBreakdown(rank=r, total=replay.clk[r], compute=c.compute[r],
                      latency=c.latency[r], bandwidth=c.bandwidth[r], wait=c.wait[r])
        for r in range(trace.nranks)
    ]
    baseline_time = report.baseline_total_time
    bw_up = report.time_at(upgrade_factor, 1.0, machine)
    lat_up = report.time_at(1.0, upgrade_factor, machine)
    # Perfect balance: everyone computes the mean compute; communication
    # unchanged. The critical path sheds the slowest rank's excess
    # compute (a lower bound on the balanced time, hence an upper bound
    # on the headroom — appropriate for a recommendation).
    mean_compute = float(np.mean([r.compute for r in ranks]))
    max_compute = max(r.compute for r in ranks)
    balanced_total = max(1e-12, baseline_time - (max_compute - mean_compute))
    return BottleneckReport(
        trace_name=trace.name,
        machine=machine.name,
        ranks=ranks,
        total_time=baseline_time,
        bandwidth_headroom=baseline_time / bw_up if bw_up > 0 else 1.0,
        latency_headroom=baseline_time / lat_up if lat_up > 0 else 1.0,
        balance_headroom=baseline_time / balanced_total if balanced_total > 0 else 1.0,
    )
