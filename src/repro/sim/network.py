"""Shared network infrastructure for the three simulation models.

Builds the topology for a (trace, machine) pair, maps ranks to nodes,
and defines the :class:`NetworkModel` interface the MPI replay layer
drives.  Routes are extended with per-node injection and ejection
resources so endpoint contention (many ranks per node) is visible to
every model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence, Tuple

from repro.machines.config import MachineConfig
from repro.sim import modes
from repro.topology.base import Topology
from repro.topology.mapping import block_mapping, build_topology, random_mapping
from repro.trace.trace import TraceSet

__all__ = ["NetworkModel", "Fabric", "UnsupportedTraceError"]

#: Delivery callback signature: called with the delivery virtual time.
DeliveryCallback = Callable[[float], None]


class UnsupportedTraceError(RuntimeError):
    """The engine cannot process this trace (mirrors SST/Macro 3.0 limits)."""


class Fabric:
    """Topology + rank placement for one simulated run."""

    def __init__(
        self,
        trace: TraceSet,
        machine: MachineConfig,
        topology: Optional[Topology] = None,
        mapping: Optional[Sequence[int]] = None,
    ):
        ranks_per_node = min(trace.ranks_per_node, machine.cores_per_node)
        nnodes = -(-trace.nranks // ranks_per_node)
        self.machine = machine
        self.topology = topology if topology is not None else build_topology(
            machine.topology, nnodes
        )
        if self.topology.nnodes < nnodes:
            raise ValueError(
                f"topology holds {self.topology.nnodes} nodes, run needs {nnodes}"
            )
        if mapping is not None:
            self.mapping: List[int] = list(mapping)
        elif trace.metadata.get("mapping") == "scatter":
            # Scatter placement stands in for the adaptive routing real
            # dragonfly/torus fabrics use to spread shifted (Bruck-style)
            # traffic: with block placement and deterministic minimal
            # routing, every message of an alltoall round would pile onto
            # one link, which no production system exhibits.
            self.mapping = random_mapping(
                trace.nranks, ranks_per_node, int(trace.metadata.get("mapping_seed", 0))
            )
        else:
            self.mapping = block_mapping(trace.nranks, ranks_per_node)
        if len(self.mapping) != trace.nranks:
            raise ValueError("mapping length must equal the trace's rank count")
        nlinks = self.topology.nlinks
        # Injection/ejection resources live after the fabric links.
        self._inj_base = nlinks
        self._ej_base = nlinks + self.topology.nnodes
        self.nresources = nlinks + 2 * self.topology.nnodes

    def node_of(self, rank: int) -> int:
        """Node hosting ``rank``."""
        return self.mapping[rank]

    def route(self, src_rank: int, dst_rank: int) -> Tuple[int, ...]:
        """Resource route between two ranks: injection, fabric links, ejection.

        Ranks on the same node exchange through memory: the empty route.
        """
        src, dst = self.mapping[src_rank], self.mapping[dst_rank]
        if src == dst:
            return ()
        fabric = self.topology.route(src, dst)
        return (self._inj_base + src,) + fabric + (self._ej_base + dst,)

    def route_latency(self, route: Tuple[int, ...]) -> float:
        """Propagation latency of a route under this machine.

        End-to-end latency is the machine's Hockney ``alpha`` scaled by
        hop count relative to a nominal route, approximated as the wire
        latency plus per-hop switch latency for the fabric links.
        """
        if not route:
            return self.machine.software_overhead  # shared-memory copy cost
        fabric_hops = len(route) - 2  # exclude injection + ejection
        return self.machine.latency + fabric_hops * self.machine.hop_latency


class NetworkModel(ABC):
    """Interface the MPI replay layer drives.

    A model receives ``transfer`` calls at the sender's virtual time and
    must invoke the delivery callback (via the engine) at the time the
    last byte reaches the destination rank.
    """

    #: Human-readable model name ("packet", "flow", "packet-flow").
    name: str = "abstract"

    def __init__(self, fabric: Fabric, engine, vectorized: Optional[bool] = None):
        self.fabric = fabric
        self.engine = engine
        #: Scalar or vectorized model state, for the models that keep
        #: both (flow, packet-flow); ``None`` is the process default
        #: (see :mod:`repro.sim.modes`).  The packet model has one path.
        self.vectorized = modes.resolve(vectorized)
        self.messages_sent = 0
        self.bytes_sent = 0

    @abstractmethod
    def transfer(
        self, src_rank: int, dst_rank: int, nbytes: int, start: float, deliver: DeliveryCallback
    ) -> None:
        """Move ``nbytes`` from ``src_rank`` to ``dst_rank`` starting at ``start``."""

    def check_trace(self, trace: TraceSet) -> None:
        """Reject traces this engine generation cannot replay (no-op here)."""
