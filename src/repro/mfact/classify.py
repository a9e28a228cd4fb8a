"""MFACT application classification.

MFACT classifies an application by how its predicted total time reacts
to speeding the network up and down across the configuration grid
(Section IV-A): sensitivity to an 8x bandwidth slowdown and to an 8x
latency slowdown partition applications into bandwidth-bound,
latency-bound and communication-bound; network-insensitive applications
are split into load-imbalance-bound and computation-bound by the wait
counter.

Section VI additionally uses a conservative binary grouping: an
application is *communication-sensitive* (``cs``) "if the estimated
total time increases by more than 5% as the bandwidth decreases by a
factor of 8"; otherwise it is ``ncs``.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.machines.config import MachineConfig
from repro.mfact.counters import CounterSet
from repro.mfact.hockney import ConfigGrid

__all__ = [
    "AppClass",
    "SENSITIVITY_THRESHOLD",
    "LOAD_IMBALANCE_WAIT_FRACTION",
    "bandwidth_sensitivity",
    "latency_sensitivity",
    "is_communication_sensitive",
    "classify",
]

#: Relative total-time increase beyond which a slowdown "matters" (5%).
SENSITIVITY_THRESHOLD = 0.05

#: Wait-counter share of total time beyond which a network-insensitive
#: application is called load-imbalance-bound rather than computation-bound.
LOAD_IMBALANCE_WAIT_FRACTION = 0.10

#: Factor by which classification slows the network down (paper: 8x).
SLOWDOWN_FACTOR = 8.0


class AppClass(str, Enum):
    """MFACT's five application classes."""

    COMPUTATION_BOUND = "computation-bound"
    LOAD_IMBALANCE_BOUND = "load-imbalance-bound"
    BANDWIDTH_BOUND = "bandwidth-bound"
    LATENCY_BOUND = "latency-bound"
    COMMUNICATION_BOUND = "communication-bound"

    @property
    def network_sensitive(self) -> bool:
        """True for the three classes that react to network speed."""
        return self in (
            AppClass.BANDWIDTH_BOUND,
            AppClass.LATENCY_BOUND,
            AppClass.COMMUNICATION_BOUND,
        )


def _relative_increase(
    machine: MachineConfig,
    grid: ConfigGrid,
    total_time: np.ndarray,
    bw_factor: float,
    lat_factor: float,
) -> float:
    baseline = total_time[grid.baseline]
    if baseline == 0.0:
        # A zero-time trace (no ops, or only zero-length compute) has
        # nothing for a slower network to stretch.
        return 0.0
    slow = total_time[grid.find(bw_factor, lat_factor, machine)]
    return float(slow / baseline - 1.0)


def bandwidth_sensitivity(
    machine: MachineConfig, grid: ConfigGrid, total_time: np.ndarray
) -> float:
    """Relative total-time increase under an 8x bandwidth decrease."""
    return _relative_increase(machine, grid, total_time, 1.0 / SLOWDOWN_FACTOR, 1.0)


def latency_sensitivity(
    machine: MachineConfig, grid: ConfigGrid, total_time: np.ndarray
) -> float:
    """Relative total-time increase under an 8x latency increase."""
    return _relative_increase(machine, grid, total_time, 1.0, 1.0 / SLOWDOWN_FACTOR)


def is_communication_sensitive(
    machine: MachineConfig, grid: ConfigGrid, total_time: np.ndarray
) -> bool:
    """Section VI's conservative ``cs`` grouping (bandwidth rule only)."""
    return bandwidth_sensitivity(machine, grid, total_time) > SENSITIVITY_THRESHOLD


def classify(
    trace,
    machine: MachineConfig,
    grid: ConfigGrid,
    total_time: np.ndarray,
    counters: CounterSet,
) -> AppClass:
    """Assign the 5-way MFACT class from one replay's outputs."""
    s_bw = bandwidth_sensitivity(machine, grid, total_time)
    s_lat = latency_sensitivity(machine, grid, total_time)
    bw_bound = s_bw > SENSITIVITY_THRESHOLD
    lat_bound = s_lat > SENSITIVITY_THRESHOLD
    if bw_bound and lat_bound:
        return AppClass.COMMUNICATION_BOUND
    if bw_bound:
        return AppClass.BANDWIDTH_BOUND
    if lat_bound:
        return AppClass.LATENCY_BOUND
    base = grid.baseline
    total = float(total_time[base])
    # Use the slowest rank's perspective: imbalance shows up as waiting.
    mean_wait = float(counters.wait[:, base].mean())
    if total > 0 and mean_wait / total > LOAD_IMBALANCE_WAIT_FRACTION:
        return AppClass.LOAD_IMBALANCE_BOUND
    return AppClass.COMPUTATION_BOUND
