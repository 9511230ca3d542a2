"""The preparatory phase builds each analysis once (§3.2.1, Fig 3.1).

``compile_program`` shares the call graph, the REF/MOD summaries, the
CFGs and each statement's USE/DEF sets it has built with the static graph,
the simplified graphs, liveness and the e-block builder.  That is safe
only while no consumer mutates them: every artifact must come out as a
standalone build makes it, and the shared objects must stay as built.
"""

import importlib
from collections import Counter

import pytest

from repro import PPDSession, compile_program
from repro.analysis import (
    build_call_graph,
    build_cfgs,
    build_simplified_graphs,
    build_static_graph,
    compute_summaries,
    dataflow,
)
from repro.analysis.lint import lint_compiled
from repro.compiler import EBlockPolicy, build_eblocks, build_instrumentation_plan
from repro.runtime import run_program
from tests.runtime.test_schedule_golden import PROGRAMS

#: Every module of the compile path that names one of the builders.
_MODULES = [
    importlib.import_module(f"repro.{name}")
    for name in (
        "compiler.compile",
        "compiler.eblocks",
        "analysis.dependence",
        "analysis.interproc",
        "analysis.cfg",
        "analysis.simplified",
    )
]
_BUILDERS = ("build_call_graph", "compute_summaries", "build_cfgs", "build_cfg")

POLICIES = {
    "default": EBlockPolicy(),
    "live-loops-chunks": EBlockPolicy(
        loop_block_min_stmts=1, split_proc_min_stmts=4, live_prelogs=True
    ),
}


@pytest.fixture()
def builds(monkeypatch):
    """Counts every call of the builders, wherever the compile path calls them."""
    calls = Counter()
    for module in _MODULES:
        for name in _BUILDERS:
            real = getattr(module, name, None)
            if real is None:
                continue

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_each_analysis_is_built_once(builds, policy):
    compiled = compile_program(PROGRAMS["examples/locked_counters.pcl"], POLICIES[policy])
    procs = len(compiled.program.procs)
    assert builds == Counter(
        build_call_graph=1, compute_summaries=1, build_cfgs=1, build_cfg=procs
    )
    static = compiled.static_graph
    assert static.summaries is compiled.summaries
    assert static.call_graph is compiled.call_graph
    assert all(static.procs[name].cfg is cfg for name, cfg in compiled.cfgs.items())


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_static_graph_matches_a_standalone_build(name):
    compiled = compile_program(PROGRAMS[name])
    standalone = build_static_graph(compiled.program, compiled.table)
    assert list(compiled.static_graph.procs) == list(standalone.procs)
    for proc, graph in compiled.static_graph.procs.items():
        assert graph.edges == standalone.procs[proc].edges


@pytest.mark.parametrize("name", ["bank_race", "producer_consumer", "ring_allreduce"])
def test_shared_analyses_stay_as_built(name):
    """A logged run, a debugging session, a race scan and lint read the
    shared CFGs and summaries; none of them changes one."""
    compiled = compile_program(PROGRAMS[name])
    session = PPDSession(run_program(compiled, seed=1))
    session.start()
    session.races()
    lint_compiled(compiled)
    program, table = compiled.program, compiled.table
    assert compiled.summaries == compute_summaries(program, table)
    for proc, cfg in build_cfgs(program).items():
        shared = compiled.cfgs[proc]
        assert (shared.succs, shared.preds, shared.node_of_stmt) == (
            cfg.succs,
            cfg.preds,
            cfg.node_of_stmt,
        )


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_each_statements_use_def_is_computed_once(monkeypatch, name, policy):
    computed = Counter()
    real = dataflow.stmt_use_def

    def counting(stmt, summaries):
        computed[stmt.node_id] += 1
        return real(stmt, summaries)

    monkeypatch.setattr(dataflow, "stmt_use_def", counting)
    compile_program(PROGRAMS[name], POLICIES[policy])
    assert computed and max(computed.values()) == 1


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_simplified_graphs_and_eblocks_match_a_standalone_build(name, policy):
    compiled = compile_program(PROGRAMS[name], POLICIES[policy])
    program, table = compiled.program, compiled.table
    summaries = compute_summaries(program, table)
    simplified = build_simplified_graphs(program, table, summaries)
    assert list(simplified) == list(compiled.simplified)
    for proc, graph in simplified.items():
        shared = compiled.simplified[proc]
        assert (shared.node_kinds, shared.edges, shared.units, shared.unit_at) == (
            graph.node_kinds,
            graph.edges,
            graph.units,
            graph.unit_at,
        )
    eblocks = build_eblocks(
        program,
        table,
        build_call_graph(program),
        summaries,
        build_cfgs(program),
        POLICIES[policy],
    )
    assert compiled.eblocks == eblocks
    assert compiled.plan == build_instrumentation_plan(eblocks, simplified)
