"""Section V-B bench: per-application tool ranking shares."""

import pytest

from repro.experiments import section5b

#: Known deviation from the paper (EXPERIMENTS.md, Section V-B): with
#: packet trains the packet model's per-event cost fell about 3x, and
#: flow is now last about as often as packet.  Measured on a 2-vCPU host:
PACKET_NOT_MOST_OFTEN_LAST = "packet last on 42.2% of 154 traces, flow on 44.8%"


def test_ranking_shares(study, benchmark):
    result = benchmark(section5b.compute, study)
    print("\n" + section5b.render(result))
    # Modeling ranks first in (almost) all cases.
    assert result["first"]["mfact"] >= 90.0
    # The packet model is the most frequent last place.
    fourth = result["fourth"]
    if fourth["packet"] < max(fourth["flow"], fourth["packet-flow"]):
        pytest.xfail(PACKET_NOT_MOST_OFTEN_LAST)


def test_second_place_is_a_simulation(study):
    result = section5b.compute(study)
    sims_second = (
        result["second"]["flow"]
        + result["second"]["packet-flow"]
        + result["second"]["packet"]
    )
    assert sims_second >= 90.0
