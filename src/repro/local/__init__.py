"""LOCAL-model simulation substrate.

This package implements the synchronous message-passing model of the
paper (Section 2): :class:`SimGraph` adjacency views, per-node processes,
the synchronous runner with exact round accounting, the restriction
operator, wake-up patterns with the α synchronizer, sequential
composition (Observation 2.1), and the virtual-node layer used for line
graphs and clique products (Sections 5.1–5.2).
"""

from .algorithm import (
    FunctionProcess,
    HostAlgorithm,
    LocalAlgorithm,
    NodeProcess,
    zero_round_algorithm,
)
from .msgsize import estimate_bits
from .composition import Chain, default_carry
from .context import CounterRNG, NodeContext
from .engine import CompiledGraph
from .execution import Execution, use_backend
from .fused import run_many
from .graph import GraphDelta, SimGraph
from .message import Broadcast
from .service import SimulationSession, open_session
from .runner import RunResult, run, run_restricted
from .virtual import (
    VirtualSpec,
    flatten_outputs,
    run_virtual_batch,
    run_virtual_batch_full,
    virtualize,
)
from .wakeup import run_with_wakeup, running_time, termination_times

__all__ = [
    "Broadcast",
    "Chain",
    "CompiledGraph",
    "CounterRNG",
    "Execution",
    "FunctionProcess",
    "GraphDelta",
    "HostAlgorithm",
    "LocalAlgorithm",
    "estimate_bits",
    "NodeContext",
    "NodeProcess",
    "RunResult",
    "SimGraph",
    "SimulationSession",
    "VirtualSpec",
    "default_carry",
    "flatten_outputs",
    "open_session",
    "run",
    "run_many",
    "run_restricted",
    "run_virtual_batch",
    "run_virtual_batch_full",
    "run_with_wakeup",
    "running_time",
    "termination_times",
    "use_backend",
    "virtualize",
    "zero_round_algorithm",
]
