"""Hockney point-to-point model and the network configuration grid.

MFACT characterizes the communication subsystem by two parameters,
latency ``alpha`` and bandwidth ``B`` (Hockney's model): a message of
``m`` bytes costs ``alpha + m / B``.  Its signature feature is pricing
*many* network configurations from one trace replay; :class:`ConfigGrid`
is that set of configurations, stored as parallel numpy arrays.  The
replay runs once at the machine's own configuration and records a
max-plus tape, which prices the whole grid in one batched pass
(:meth:`repro.sensitivity.graph.DependencyGraph.evaluate`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.machines.config import MachineConfig
from repro.util.validation import require

__all__ = ["ConfigGrid", "DEFAULT_BW_FACTORS", "DEFAULT_LAT_FACTORS", "p2p_time"]

#: Default bandwidth scaling factors of the MFACT sweep (x1/8 ... x8).
DEFAULT_BW_FACTORS = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
#: Default latency scaling factors of the MFACT sweep.
DEFAULT_LAT_FACTORS = (0.125, 1.0, 8.0)


class ConfigGrid:
    """A family of network configurations priced off one replay's tape.

    Attributes
    ----------
    latency, bandwidth, compute_scale:
        1-D float arrays of equal length ``n``; configuration ``i`` is
        the triple ``(latency[i], bandwidth[i], compute_scale[i])``.
    baseline:
        Index of the configuration matching the physical machine.
    """

    def __init__(
        self,
        latency: Sequence[float],
        bandwidth: Sequence[float],
        compute_scale: Optional[Sequence[float]] = None,
        baseline: int = 0,
    ):
        self.latency = np.asarray(latency, dtype=float)
        self.bandwidth = np.asarray(bandwidth, dtype=float)
        n = self.latency.size
        require(self.bandwidth.size == n, "latency and bandwidth lengths differ")
        if compute_scale is None:
            self.compute_scale = np.ones(n)
        else:
            self.compute_scale = np.asarray(compute_scale, dtype=float)
            require(self.compute_scale.size == n, "compute_scale length differs")
        require(n >= 1, "ConfigGrid needs at least one configuration")
        require(bool(np.all(self.latency > 0)), "latencies must be positive")
        require(bool(np.all(self.bandwidth > 0)), "bandwidths must be positive")
        require(bool(np.all(self.compute_scale > 0)), "compute scales must be positive")
        require(0 <= baseline < n, f"baseline index {baseline} out of range")
        self.baseline = int(baseline)

    def __len__(self) -> int:
        return int(self.latency.size)

    @classmethod
    def single(cls, machine: MachineConfig) -> "ConfigGrid":
        """Only the machine's own configuration."""
        return cls([machine.latency], [machine.bandwidth], [machine.compute_scale])

    @classmethod
    def sweep(
        cls,
        machine: MachineConfig,
        bw_factors: Sequence[float] = DEFAULT_BW_FACTORS,
        lat_factors: Sequence[float] = DEFAULT_LAT_FACTORS,
    ) -> "ConfigGrid":
        """Cartesian sweep of bandwidth x latency factors around a machine.

        The grid always contains the exact baseline (factor 1, 1); its
        index is recorded in :attr:`baseline`.
        """
        bw_factors = tuple(bw_factors)
        lat_factors = tuple(lat_factors)
        require(len(bw_factors) >= 1 and len(lat_factors) >= 1, "factor lists must be non-empty")
        lats, bws = [], []
        baseline = None
        for lf in lat_factors:
            for bf in bw_factors:
                # A "faster" network has lower latency and higher bandwidth;
                # factors scale speed, so latency divides and bandwidth multiplies.
                lats.append(machine.latency / lf)
                bws.append(machine.bandwidth * bf)
                if lf == 1.0 and bf == 1.0:
                    baseline = len(lats) - 1
        if baseline is None:
            lats.append(machine.latency)
            bws.append(machine.bandwidth)
            baseline = len(lats) - 1
        scales = [machine.compute_scale] * len(lats)
        return cls(lats, bws, scales, baseline=baseline)

    def find(self, bw_factor: float, lat_factor: float, machine: MachineConfig) -> int:
        """Index of the configuration at the given speed factors."""
        target_lat = machine.latency / lat_factor
        target_bw = machine.bandwidth * bw_factor
        match = np.flatnonzero(
            np.isclose(self.latency, target_lat) & np.isclose(self.bandwidth, target_bw)
        )
        if match.size == 0:
            raise KeyError(f"no configuration at bw x{bw_factor}, lat x{lat_factor}")
        return int(match[0])


def p2p_time(nbytes: int, latency, bandwidth):
    """Hockney cost ``alpha + m / B``; broadcasts over config arrays."""
    return latency + nbytes / bandwidth
