"""The Compiler/Linker driver (§3.2.1, Fig 3.1).

During the preparatory phase the Compiler/Linker produces, along with the
object code: the emulation package, the static program dependence graph,
the simplified static graph, and the program database.  In this
reproduction the "object code" and the "emulation package" are one
machine, the bytecode VM (:mod:`repro.vm`), driven by different plans:
a logged run writes the log and replay re-executes e-blocks from it.
So :class:`CompiledProgram` carries every preparatory-phase artifact in
one bundle.  Two are built on first read, because no run or session
needs them: the VM's lowering (:meth:`vm_code`) and the static program
dependence graph (:attr:`static_graph`), which only lint reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..lang import ast, parse
from ..analysis.cfg import CFG, build_cfgs
from ..analysis.database import ProgramDatabase
from ..analysis.dataflow import Summaries, UseDefTable
from ..analysis.interproc import CallGraph, build_call_graph, compute_summaries
from ..analysis.simplified import SimplifiedGraph, build_simplified_graphs
from ..analysis.symbols import SymbolTable, check_program
from .eblocks import EBlockPolicy, EBlockSet, build_eblocks
from .instrument import InstrumentationPlan, build_instrumentation_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.dependence import StaticGraph


@dataclass
class CompiledProgram:
    """Everything the preparatory phase produces (Fig 3.1)."""

    program: ast.Program
    table: SymbolTable
    call_graph: CallGraph
    summaries: Summaries
    cfgs: dict[str, CFG]
    #: each statement's USE/DEF sets, shared by every analysis that reads them
    use_def: UseDefTable
    simplified: dict[str, SimplifiedGraph]
    database: ProgramDatabase
    eblocks: EBlockSet
    plan: InstrumentationPlan

    @property
    def policy(self) -> EBlockPolicy:
        return self.eblocks.policy

    def proc(self, name: str) -> ast.ProcDef:
        return self.program.proc(name)

    @property
    def static_graph(self) -> "StaticGraph":
        """The static program dependence graph (§4.1), built on first read.

        It reuses the compile's call graph, summaries, CFGs and USE/DEF
        table.  The whole graph is built before one assignment publishes
        it, so threads racing on a first read each build an equal graph
        and none reads a partial one.
        """
        graph = self.__dict__.get("_static_graph")
        if graph is None:
            from ..analysis.dependence import build_static_graph

            graph = build_static_graph(
                self.program,
                self.table,
                self.call_graph,
                self.summaries,
                self.cfgs,
                self.use_def,
            )
            self.__dict__["_static_graph"] = graph
        return graph

    def vm_code(self):
        """The lazily-built bytecode lowering of this program (repro.vm).

        Lowering is deterministic, so one cache serves every machine and
        replay worker over this compiled program.
        """
        cache = self.__dict__.get("_vm_cache")
        if cache is None:
            from ..vm.bytecode import ProgramCode

            cache = ProgramCode(self)
            self.__dict__["_vm_cache"] = cache
        return cache

    def __getstate__(self):
        # The bytecode cache and the static graph are derived from what
        # is shipped; rebuild them on the far side (on first read) instead
        # of shipping them in replay-pool blobs.
        state = dict(self.__dict__)
        state.pop("_vm_cache", None)
        state.pop("_static_graph", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


def compile_program(
    source: str | ast.Program, policy: EBlockPolicy | None = None
) -> CompiledProgram:
    """Run the whole preparatory phase on PCL *source*.

    Accepts either source text or an already-parsed :class:`Program`.
    Each analysis is built once and shared with those that read it: the
    call graph, the REF/MOD summaries, the CFGs and each statement's
    USE/DEF sets (:class:`~repro.analysis.dataflow.UseDefTable`).  The
    static program dependence graph is not built here; the compiled
    program builds it from these on first read.
    """
    program = parse(source) if isinstance(source, str) else source
    table = check_program(program)
    call_graph = build_call_graph(program)
    summaries = compute_summaries(program, table, call_graph)
    use_def = UseDefTable(summaries)
    cfgs = build_cfgs(program)
    simplified = build_simplified_graphs(program, table, summaries, cfgs, use_def)
    database = ProgramDatabase.build(program, table, call_graph, summaries)
    eblocks = build_eblocks(program, table, call_graph, summaries, cfgs, policy, use_def)
    plan = build_instrumentation_plan(eblocks, simplified)
    return CompiledProgram(
        program=program,
        table=table,
        call_graph=call_graph,
        summaries=summaries,
        cfgs=cfgs,
        use_def=use_def,
        simplified=simplified,
        database=database,
        eblocks=eblocks,
        plan=plan,
    )
