"""MFACT modeling results.

A :class:`MFACTReport` carries the predicted total time per network
configuration, the communication time and the four counters at the
machine's own configuration, the application classification and the
modeling wall time.  A replay reports its one configuration
(:meth:`MFACTReport.from_replay`); :meth:`MFACTReport.priced` extends
that report to a configuration grid whose other totals were priced off
the replay's recorded tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.machines.config import MachineConfig
from repro.mfact.classify import AppClass, classify, is_communication_sensitive
from repro.mfact.hockney import ConfigGrid

if TYPE_CHECKING:  # pragma: no cover
    from repro.mfact.logical_clock import LogicalClockReplay

__all__ = ["MFACTReport"]


@dataclass
class MFACTReport:
    """Modeling output of one trace on one machine.

    Attributes
    ----------
    trace_name, app, machine:
        Identity of the modeled run.
    grid:
        The configuration grid the totals are priced on; its baseline is
        the machine's own configuration.
    total_time:
        Predicted application time per configuration (max final logical
        clock over ranks), shape ``(nconfigs,)``.  Entries at the
        machine's own configuration are the replay's; the others come
        off the tape.
    baseline_comm_time:
        Predicted communication time at the machine's configuration
        (rank-mean of the latency + bandwidth + wait counters).
    baseline_counters:
        Rank-averaged counters at the machine's configuration.
    classification:
        The 5-way MFACT application class (None when the grid lacks the
        8x slowdown points).
    communication_sensitive:
        Section VI's conservative "CS" grouping: total time grows by
        more than 5% when bandwidth drops 8x.
    walltime:
        Modeling wall-clock time in seconds.
    per_rank_total:
        Each rank's final clock at the machine's configuration.
    """

    trace_name: str
    app: str
    machine: str
    grid: ConfigGrid
    total_time: np.ndarray
    baseline_comm_time: float
    baseline_counters: Dict[str, float]
    classification: Optional[AppClass]
    communication_sensitive: bool
    walltime: float
    per_rank_total: np.ndarray = field(repr=False, default=None)

    @property
    def baseline_total_time(self) -> float:
        """Predicted total time at the machine's own configuration."""
        return float(self.total_time[self.grid.baseline])

    @classmethod
    def from_replay(cls, replay: "LogicalClockReplay", walltime: float) -> "MFACTReport":
        """The one-configuration report of a finished replay."""
        machine = replay.machine
        return cls(
            trace_name=replay.trace.name,
            app=replay.trace.app,
            machine=machine.name,
            grid=ConfigGrid.single(machine),
            total_time=np.array([max(replay.clk)]),
            baseline_comm_time=replay.counters.mean_communication(),
            baseline_counters=replay.counters.mean_over_ranks(),
            # One configuration cannot observe sensitivity.
            classification=None,
            communication_sensitive=False,
            walltime=walltime,
            per_rank_total=np.array(replay.clk),
        )

    def priced(
        self, machine: MachineConfig, grid: ConfigGrid, totals, walltime: float
    ) -> "MFACTReport":
        """This report on ``grid``, given the tape's ``totals`` for it.

        Every configuration equal to the machine's own keeps the
        replay's total (the tape agrees only to the last bits); the
        class and ``cs`` decisions are read off the resulting totals.
        """
        own = (
            (grid.latency == machine.latency)
            & (grid.bandwidth == machine.bandwidth)
            & (grid.compute_scale == machine.compute_scale)
        )
        if not own[grid.baseline]:
            raise ValueError("the grid's baseline must be the machine's own configuration")
        total = np.array(totals, dtype=float)
        total[own] = self.baseline_total_time
        try:
            label = classify(machine, grid, total, self.baseline_counters["wait"])
            cs = is_communication_sensitive(machine, grid, total)
        except KeyError:  # the grid lacks the 8x slowdown points
            label = None
            cs = False
        return replace(
            self,
            grid=grid,
            total_time=total,
            classification=label,
            communication_sensitive=cs,
            walltime=walltime,
        )

    def time_at(self, bw_factor: float, lat_factor: float, machine) -> float:
        """Predicted total time at given speed factors around ``machine``."""
        return float(self.total_time[self.grid.find(bw_factor, lat_factor, machine)])
