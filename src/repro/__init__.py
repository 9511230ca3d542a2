"""PPD — A Mechanism for Efficient Debugging of Parallel Programs.

A full reproduction of Miller & Choi (PLDI 1988): flowback analysis with
incremental tracing for parallel programs on a (virtual) shared-memory
multiprocessor, plus race detection over the parallel dynamic graph.

Quickstart::

    from repro import compile_program, Machine, PPDSession

    compiled = compile_program(pcl_source)
    record = Machine(compiled, seed=0, mode="logged").run()
    session = PPDSession(record)
    session.start()                      # replay the halting e-block
    tree = session.why_value("average")  # flowback: why this value?

Each exported name is imported on first use (:mod:`repro._lazy`), so
``import repro`` loads none of the debugger.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "CompiledProgram",
    "EBlockPolicy",
    "EmulationPackage",
    "ExecutionRecord",
    "Machine",
    "PPDSession",
    "ParallelDynamicGraph",
    "analyze_deadlock",
    "compile_program",
    "find_races_indexed",
    "find_races_naive",
    "flowback",
    "is_race_free",
    "obs",
    "parse",
    "program_to_str",
    "render_flowback",
    "render_parallel",
    "render_simplified",
    "run_program",
    "why_value",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "compiler.compile": ("CompiledProgram", "compile_program"),
        "compiler.eblocks": ("EBlockPolicy",),
        "core.controller": ("PPDSession",),
        "core.deadlock": ("analyze_deadlock",),
        "core.emulation": ("EmulationPackage",),
        "core.flowback": ("flowback", "why_value"),
        "core.parallel_graph": ("ParallelDynamicGraph",),
        "core.races": ("find_races_indexed", "find_races_naive", "is_race_free"),
        "core.render": ("render_flowback", "render_parallel", "render_simplified"),
        "lang.parser": ("parse",),
        "lang.pretty": ("program_to_str",),
        "runtime.machine": ("ExecutionRecord", "Machine", "run_program"),
    },
)
