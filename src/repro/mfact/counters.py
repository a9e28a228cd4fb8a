"""MFACT's four logical time counters.

For every rank MFACT tracks how the logical clock's advance decomposes
into **computation**, **latency**, **bandwidth** and **wait** time
(Section IV-A), at the one configuration its replay runs.  The report
keeps their rank means; how the *total* reacts to other network
configurations is priced off the recorded tape, not from counters.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["CounterSet"]


class CounterSet:
    """Per-rank accumulators of one replay.

    The four attributes are lists with one float per rank, in seconds of
    logical time.
    """

    __slots__ = ("compute", "latency", "bandwidth", "wait")

    def __init__(self, nranks: int):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.compute: List[float] = [0.0] * nranks
        self.latency: List[float] = [0.0] * nranks
        self.bandwidth: List[float] = [0.0] * nranks
        self.wait: List[float] = [0.0] * nranks

    @property
    def communication(self) -> List[float]:
        """Latency + bandwidth + wait, one float per rank."""
        return [l + b + w for l, b, w in zip(self.latency, self.bandwidth, self.wait)]

    def mean_communication(self) -> float:
        """Rank-mean communication time, summed left to right over ranks.

        A plain loop, not ``sum`` (compensated from Python 3.12) or
        ``np.mean`` (pairwise): records pin the left fold's bits.
        """
        total = 0.0
        for value in self.communication:
            total += value
        return total / len(self.wait)

    def mean_over_ranks(self) -> Dict[str, float]:
        """Rank-averaged counter values."""
        return {
            "compute": float(np.mean(self.compute)),
            "latency": float(np.mean(self.latency)),
            "bandwidth": float(np.mean(self.bandwidth)),
            "wait": float(np.mean(self.wait)),
        }
