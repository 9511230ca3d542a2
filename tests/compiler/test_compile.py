"""The preparatory phase builds each analysis once (§3.2.1, Fig 3.1).

``compile_program`` shares the call graph, the REF/MOD summaries, the
CFGs and each statement's USE/DEF sets it has built with the simplified
graphs, liveness, the e-block builder and the static graph, which the
compiled program builds on first read.  That is safe only while no
consumer mutates them: every artifact must come out as a standalone
build makes it, and the shared objects must stay as built.  Only lint
reads the static graph, so no other path may build it.
"""

import importlib
import pickle
import sys
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
from repro.analysis import dependence
from repro.analysis.lint import lint_compiled
from repro.compiler import EBlockPolicy, build_eblocks, build_instrumentation_plan
from repro.core.cli import PPDCommandLine
from repro.ppd import main as ppd_main
from repro.runtime import run_program
from repro.runtime.persist import load_record, save_record
from repro.workloads import ring_allreduce
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


@pytest.fixture()
def static_builds(monkeypatch):
    """Counts every ``build_static_graph`` call, under every module's name for it."""
    real = dependence.build_static_graph
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and vars(module).get("build_static_graph") is real:
            monkeypatch.setattr(module, "build_static_graph", counting)
    return calls


def test_only_lint_builds_the_static_graph(static_builds, tmp_path):
    """A compile, a logged run, a save and a load, ``ppd replay`` and a
    session's questions build no static program dependence graph."""
    compiled = compile_program(ring_allreduce(8, deviant=3))
    record = run_program(compiled, seed=1)
    path = tmp_path / "ring.ppd.json"
    save_record(record, str(path))
    loaded = load_record(str(path))
    assert ppd_main(["replay", str(path), "--jobs", "1"]) == 0
    cli = PPDCommandLine(loaded)
    for line in ("why total", "races", "localize", "history total"):
        cli.execute(line)
    assert static_builds == []
    assert "_static_graph" not in vars(compiled) and "_static_graph" not in vars(loaded.compiled)


@pytest.mark.parametrize("first", ["lint", "read"])
def test_the_first_read_builds_the_static_graph_once(static_builds, first):
    compiled = compile_program(PROGRAMS["examples/locked_counters.pcl"])
    assert static_builds == []
    if first == "lint":
        lint_compiled(compiled)
    else:
        compiled.static_graph
    assert static_builds == [compiled.program]
    graph = compiled.static_graph
    lint_compiled(compiled)
    assert compiled.static_graph is graph
    assert len(static_builds) == 1


def test_a_pickled_compile_carries_no_static_graph(static_builds):
    compiled = compile_program(PROGRAMS["examples/locked_counters.pcl"])
    graph = compiled.static_graph
    blob = pickle.dumps(compiled)
    assert b"StaticProcGraph" not in blob
    clone = pickle.loads(blob)
    assert len(static_builds) == 1
    assert {proc: g.edges for proc, g in clone.static_graph.procs.items()} == {
        proc: g.edges for proc, g in graph.procs.items()
    }
    assert len(static_builds) == 2


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
    compiled = compile_program(PROGRAMS[name], POLICIES[policy])
    assert compiled.static_graph.procs
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
