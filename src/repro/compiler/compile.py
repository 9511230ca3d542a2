"""The Compiler/Linker driver (§3.2.1, Fig 3.1).

During the preparatory phase the Compiler/Linker produces, along with the
object code: the emulation package, the static program dependence graph,
the simplified static graph, and the program database.  In this
reproduction the "object code" and the "emulation package" are one
machine, the bytecode VM (:mod:`repro.vm`), driven by different plans:
a logged run writes the log and replay re-executes e-blocks from it.
So :class:`CompiledProgram` carries every preparatory-phase artifact in
one bundle, plus the VM's lazily-built lowering (:meth:`vm_code`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast, parse
from ..analysis.cfg import CFG, build_cfgs
from ..analysis.database import ProgramDatabase
from ..analysis.dataflow import Summaries, UseDefTable
from ..analysis.dependence import StaticGraph, build_static_graph
from ..analysis.interproc import CallGraph, build_call_graph, compute_summaries
from ..analysis.simplified import SimplifiedGraph, build_simplified_graphs
from ..analysis.symbols import SymbolTable, check_program
from .eblocks import EBlockPolicy, EBlockSet, build_eblocks
from .instrument import InstrumentationPlan, build_instrumentation_plan


@dataclass
class CompiledProgram:
    """Everything the preparatory phase produces (Fig 3.1)."""

    program: ast.Program
    table: SymbolTable
    call_graph: CallGraph
    summaries: Summaries
    cfgs: dict[str, CFG]
    static_graph: StaticGraph
    simplified: dict[str, SimplifiedGraph]
    database: ProgramDatabase
    eblocks: EBlockSet
    plan: InstrumentationPlan

    @property
    def policy(self) -> EBlockPolicy:
        return self.eblocks.policy

    def proc(self, name: str) -> ast.ProcDef:
        return self.program.proc(name)

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
        # The bytecode cache holds AST back-references only; rebuild it
        # on the far side instead of shipping it in replay-pool blobs.
        state = dict(self.__dict__)
        state.pop("_vm_cache", None)
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
    USE/DEF sets (:class:`~repro.analysis.dataflow.UseDefTable`).
    """
    program = parse(source) if isinstance(source, str) else source
    table = check_program(program)
    call_graph = build_call_graph(program)
    summaries = compute_summaries(program, table, call_graph)
    use_def = UseDefTable(summaries)
    cfgs = build_cfgs(program)
    static_graph = build_static_graph(program, table, call_graph, summaries, cfgs, use_def)
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
        static_graph=static_graph,
        simplified=simplified,
        database=database,
        eblocks=eblocks,
        plan=plan,
    )
