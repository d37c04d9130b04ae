"""Simulated wormhole-routed message-passing machine (the substrate).

This package replaces the paper's Intel Paragon: a discrete-event
simulator implementing the communication model of section 2 — the
``alpha + n*beta`` cost, per-direction channels, dimension-ordered
wormhole routing, fluid max-min bandwidth sharing on conflicts, one
injection and one ejection port per node, and ``gamma``-cost arithmetic.
"""

from ..core.faults import (ByzantineRank, DeadLetter, FaultDiagnosis,
                           FaultReport, FaultSchedule, LinkFault,
                           LinkSlowdown, MisroutingRank, NodeCrash, Tamper,
                           WithholdingRank)
from .engine import (CommHandle, DeadlockError, Engine, RankEnv,
                     SimulationLimitError, payload_nbytes)
from .machine import Machine, RunResult
from .network import FluidNetwork, Flow
from ..core.params import (DELTA, IPSC860, PARAGON, PRESETS, UNIT,
                           MachineParams, preset)
from ..core.topology import (FullyConnected, Hypercube, LinearArray, Mesh2D,
                             Ring, Topology, Torus2D, route_length)
from ..obs.trace import (FaultRecord, MessageRecord, SpanRecord, Tracer,
                         chrome_trace, write_chrome_trace)

__all__ = [
    "CommHandle", "DeadlockError", "Engine", "RankEnv",
    "SimulationLimitError", "payload_nbytes",
    "ByzantineRank", "DeadLetter", "FaultDiagnosis", "FaultReport",
    "FaultSchedule", "LinkFault", "LinkSlowdown", "MisroutingRank",
    "NodeCrash", "Tamper", "WithholdingRank",
    "Machine", "RunResult",
    "FluidNetwork", "Flow",
    "DELTA", "IPSC860", "PARAGON", "PRESETS", "UNIT", "MachineParams",
    "preset",
    "FullyConnected", "Hypercube", "LinearArray", "Mesh2D", "Ring",
    "Topology", "Torus2D", "route_length",
    "FaultRecord", "MessageRecord", "SpanRecord", "Tracer",
    "chrome_trace", "write_chrome_trace",
]
