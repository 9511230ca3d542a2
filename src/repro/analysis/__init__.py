"""Semantic analyses of the debugged program (§2, §4.1, §5).

The paper keeps debugger overhead low "by applying inter-procedural
analysis and data flow analysis commonly used in optimizing compilers".
This package holds those analyses: symbol tables, control-flow graphs,
post-dominance/control dependence, reaching definitions, USED/DEFINED
sets, interprocedural REF/MOD, the static program dependence graph, the
simplified static graph with synchronization units, and the program
database.
"""

from .._lazy import lazy_exports
from .cfg import CFG, CFGNode, build_cfg, build_cfgs
from .database import IdentifierSites, ProgramDatabase
from .dataflow import (
    ProcSummary,
    ReachingDefinitions,
    reaching_definitions,
    region_declared,
    region_use_def,
    stmt_defs,
    stmt_uses,
)
from .dependence import (
    CONTROL,
    DATA,
    FLOW,
    StaticEdge,
    StaticGraph,
    StaticProcGraph,
    build_static_graph,
)
from .interproc import CallGraph, build_call_graph, compute_summaries
from .lint import CODES, Diagnostic, LintResult, lint_compiled, run_lint
from .liveness import Liveness, live_variables
from .racecands import (
    AccessSite,
    CandidatePair,
    RaceCandidates,
    analyze_candidates,
    candidates_from_compiled,
    collect_access_sites,
)
from .postdom import control_dependence, immediate_postdominators, postdominators
from .simplified import (
    N_BRANCH,
    N_CALL,
    N_ENTRY,
    N_EXIT,
    N_SYNC,
    SimplifiedEdge,
    SimplifiedGraph,
    SyncUnit,
    build_simplified_graph,
    build_simplified_graphs,
)
from .symbols import SemanticChecker, SymbolTable, VarInfo, check_program
from .varsets import BitVarSet, FrozenVarSet, VariableRegistry, make_varset

__all__ = [
    "AccessSite",
    "BitVarSet",
    "CODES",
    "CallGraph",
    "CandidatePair",
    "CodeEffects",
    "Diagnostic",
    "LintResult",
    "ProgramEffects",
    "RaceCandidates",
    "analyze_candidates",
    "analyze_code",
    "analyze_program",
    "candidates_from_compiled",
    "collect_access_sites",
    "effect_max",
    "lint_compiled",
    "run_lint",
    "CFG",
    "CFGNode",
    "CONTROL",
    "DATA",
    "FLOW",
    "FrozenVarSet",
    "IdentifierSites",
    "Liveness",
    "N_BRANCH",
    "N_CALL",
    "N_ENTRY",
    "N_EXIT",
    "N_SYNC",
    "ProcSummary",
    "ProgramDatabase",
    "ReachingDefinitions",
    "SemanticChecker",
    "SimplifiedEdge",
    "SimplifiedGraph",
    "StaticEdge",
    "StaticGraph",
    "StaticProcGraph",
    "SymbolTable",
    "SyncUnit",
    "VarInfo",
    "VariableRegistry",
    "build_call_graph",
    "build_cfg",
    "build_cfgs",
    "build_simplified_graph",
    "build_simplified_graphs",
    "build_static_graph",
    "check_program",
    "compute_summaries",
    "control_dependence",
    "immediate_postdominators",
    "live_variables",
    "make_varset",
    "postdominators",
    "reaching_definitions",
    "region_declared",
    "region_use_def",
    "stmt_defs",
    "stmt_uses",
]

#: repro.analysis.effects is exported lazily: it imports repro.vm (for
#: opcode tables), which transitively imports the compiler, so an eager
#: import here would close a cycle during package init.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "effects": (
            "CodeEffects",
            "ProgramEffects",
            "analyze_code",
            "analyze_program",
            "effect_max",
        ),
    },
)
