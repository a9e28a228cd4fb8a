#!/usr/bin/env python
"""Bottleneck diagnosis and disruptive what-if exploration.

Two MFACT capabilities beyond prediction: (1) decompose where each
rank's time goes and recommend the best upgrade; (2) price a disruptive
future system — the paper's "10x faster network, 100x faster compute"
example — across a full design grid off one recorded replay.

Run:  python examples/bottleneck_and_whatif.py
"""

from repro import CIELITO, synthesize_ground_truth
from repro.mfact import analyze_bottlenecks, explore_design_space
from repro.mfact.whatif import DesignPoint
from repro.workloads import generate_doe
from repro.util import format_time


def main():
    trace = generate_doe("AMG", 64, CIELITO, seed=211, compute_per_iter=0.002,
                         imbalance=0.25, ranks_per_node=1)
    synthesize_ground_truth(trace, CIELITO, seed=211)

    print("== bottleneck report (AMG, 64 ranks, Cielito) ==")
    report = analyze_bottlenecks(trace, CIELITO)
    print(f"predicted total time   {format_time(report.total_time)}")
    print(f"dominant component     {report.dominant_component()}")
    print(f"bandwidth headroom     {report.bandwidth_headroom:.2f}x (8x faster links)")
    print(f"latency headroom       {report.latency_headroom:.2f}x (8x lower latency)")
    print(f"balance headroom       {report.balance_headroom:.2f}x (perfect balance)")
    print(f"stragglers             {len(report.stragglers)} of {len(report.ranks)} ranks")
    print(f"recommendation         {report.recommendation()}\n")

    print("== disruptive design space (Section II-C's example) ==")
    result = explore_design_space(
        trace, CIELITO,
        bandwidth_factors=(1.0, 10.0),
        latency_factors=(1.0, 10.0),
        compute_factors=(1.0, 10.0, 100.0),
    )
    for description, speedup in result.amdahl_table():
        print(f"  {description:42s} {speedup:7.2f}x")
    target = 3.0
    point = result.cheapest_meeting(target)
    if point:
        print(f"\ncheapest configuration reaching {target:.0f}x: {point.describe()}")
    else:
        print(f"\nno grid point reaches {target:.0f}x — the app hits an Amdahl wall")


if __name__ == "__main__":
    main()
