"""PPD proper: the debugging phase (§3.2.3-§6).

Flowback analysis over dynamic program dependence graphs, incremental
tracing via the emulation package, the parallel dynamic graph, race
detection, deadlock analysis, and state restoration.
"""

from .cli import PPDCommandLine, interactive_loop
from .controller import ExternResolution, PPDSession
from .deadlock import DeadlockReport, WaitForEdge, analyze_deadlock
from .dynamic_graph import (
    CONTROL,
    DATA,
    ENTRY,
    EXIT,
    EXTERN,
    FLOW,
    INITIAL,
    PARAM,
    SINGULAR,
    SUBGRAPH,
    SYNC,
    SYNC_EDGE,
    DynamicGraph,
    DynamicGraphBuilder,
    DynEdge,
    DynNode,
)
from .emulation import (
    EmulationPackage,
    ExternInfo,
    ReplayHalted,
    ReplayMachine,
    ReplayResult,
)
from .flowback import (
    FlowbackResult,
    FlowbackStep,
    flow_forward,
    flowback,
    last_assignment,
    slice_statements,
    why_value,
)
from .parallel_graph import ParallelDynamicGraph
from .queries import AccessHistory, VariableAccess, access_history
from .races import (
    READ_WRITE,
    WRITE_WRITE,
    Race,
    RaceScanResult,
    find_races_indexed,
    find_races_naive,
    is_race_free,
    races_involving,
)
from .render import (
    dynamic_to_dot,
    parallel_to_dot,
    render_dynamic_fragment,
    render_flowback,
    render_parallel,
    render_simplified,
)
from .replay import (
    RestoredState,
    WhatIf,
    WhatIfOutcome,
    restore_at_postlog,
    restore_shared_at,
)
from .views import GraphView, focused_view

__all__ = [
    "AccessHistory",
    "CONTROL",
    "DATA",
    "DeadlockReport",
    "DynEdge",
    "DynNode",
    "DynamicGraph",
    "DynamicGraphBuilder",
    "ENTRY",
    "EXIT",
    "EXTERN",
    "EmulationPackage",
    "ExternInfo",
    "ExternResolution",
    "FLOW",
    "FlowbackResult",
    "FlowbackStep",
    "GraphView",
    "focused_view",
    "INITIAL",
    "PARAM",
    "PPDCommandLine",
    "PPDSession",
    "ParallelDynamicGraph",
    "READ_WRITE",
    "Race",
    "RaceScanResult",
    "ReplayHalted",
    "ReplayMachine",
    "ReplayResult",
    "RestoredState",
    "SINGULAR",
    "SUBGRAPH",
    "SYNC",
    "SYNC_EDGE",
    "WRITE_WRITE",
    "VariableAccess",
    "WaitForEdge",
    "WhatIf",
    "WhatIfOutcome",
    "access_history",
    "analyze_deadlock",
    "dynamic_to_dot",
    "find_races_indexed",
    "find_races_naive",
    "flow_forward",
    "flowback",
    "interactive_loop",
    "is_race_free",
    "last_assignment",
    "parallel_to_dot",
    "races_involving",
    "render_dynamic_fragment",
    "render_flowback",
    "render_parallel",
    "render_simplified",
    "restore_at_postlog",
    "restore_shared_at",
    "slice_statements",
    "why_value",
]
