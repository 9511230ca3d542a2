"""Static effect analysis (repro.analysis.effects): the LOCAL/SHARED/SYNC
classification, interprocedural summaries, and shared-site superset
soundness against the AST race-candidate walk, on shipped and generated
programs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Machine, compile_program, obs
from repro.analysis import effects as effects_module
from repro.analysis.effects import LOCAL, SHARED, SYNC, analyze_program, effect_max
from repro.analysis.racecands import collect_access_sites
from repro.core.cli import PPDCommandLine
from repro.ppd import main as ppd_main
from repro.runtime.persist import load_record, save_record
from repro.vm import bytecode as bc
from repro.workloads import (
    bank_race,
    bank_safe,
    buggy_average,
    compute_heavy,
    dining_philosophers,
    fig41_program,
    fig61_program,
    matrix_sum,
    producer_consumer,
)

from tests.test_fuzz import programs

SOURCE = """\
shared int total;
sem gate = 1;

proc main() {
    int k = 0;
    k = k + 1;
    P(gate);
    total = total + k;
    V(gate);
    print(k);
}
"""


@pytest.fixture(scope="module")
def effects():
    return analyze_program(compile_program(SOURCE))


def by_label(effects, proc="main"):
    return {stmt.stmt_label: stmt for stmt in effects.procs[proc].stmts}


def test_lattice_order():
    assert effect_max(LOCAL, SHARED) == SHARED
    assert effect_max(SHARED, SYNC) == SYNC
    assert effect_max(LOCAL, LOCAL) == LOCAL
    assert effect_max(SYNC, LOCAL) == SYNC


def test_statement_classification(effects):
    stmts = by_label(effects)
    assert stmts["s1"].effect == LOCAL  # int k = 0
    assert stmts["s2"].effect == LOCAL  # k = k + 1
    assert stmts["s3"].effect == SYNC  # P(gate)
    assert stmts["s4"].effect == SHARED  # total = total + k
    assert stmts["s5"].effect == SYNC  # V(gate)


def test_terminal_statements_stay_pinned():
    """print/return spans are LOCAL, and each keeps the one PRE yield
    before it: the span ends the frame or can block, and the lowering
    drops no statement boundary."""
    source = """\
func int twice(int x) {
    return x + x;
}

proc main() {
    print(twice(1));
}
"""
    compiled = compile_program(source)
    effects = analyze_program(compiled)
    for proc in ("twice", "main"):
        code = compiled.vm_code().proc(proc)
        pres = [ins[1].node_id for ins in code.instrs if ins[0] == bc.PRE]
        (stmt,) = effects.procs[proc].stmts
        assert pres == [stmt.node_id]
        assert stmt.effect == LOCAL


def test_shared_sites_use_racecands_identity(effects):
    """(proc, node_id, var, write): statement node for the write, the
    reading expression's node for the read."""
    sites = effects.shared_sites
    writes = {s for s in sites if s[3]}
    reads = {s for s in sites if not s[3]}
    assert {(p, v) for p, _, v, _ in writes} == {("main", "total")}
    assert {(p, v) for p, _, v, _ in reads} == {("main", "total")}
    (write,) = writes
    (read,) = reads
    assert write[1] != read[1]


def test_interprocedural_summaries_propagate_through_calls():
    source = """\
shared int n;

func int bump(int x) {
    n = n + x;
    return n;
}

func int pure(int x) {
    return x * 2;
}

proc main() {
    int a = pure(3);
    int b = bump(a);
    print(a + b);
}
"""
    effects = analyze_program(compile_program(source))
    assert effects.summaries["pure"] == LOCAL
    assert effects.summaries["bump"] == SHARED
    # A call to a SHARED function makes the calling statement SHARED.
    labels = by_label(effects)
    assert labels["s4"].effect == LOCAL  # a = pure(3)
    assert labels["s5"].effect == SHARED  # b = bump(a)


@pytest.mark.parametrize(
    "source",
    [
        bank_race(2, 2),
        bank_safe(2, 2),
        buggy_average(5),
        compute_heavy(3, 4),
        dining_philosophers(3),
        fig41_program(),
        fig61_program(),
        matrix_sum(4),
        producer_consumer(3, 1),
    ],
    ids=lambda s: s.strip().splitlines()[0][:24],
)
def test_shared_sites_superset_of_ast_access_sites(source):
    """Superset soundness: every shared access the AST race-candidate
    walk collects is also classified SHARED by the bytecode analysis."""
    _assert_shared_sites_cover_ast_walk(source)


@given(programs())
@settings(max_examples=30, deadline=None)
def test_fuzz_shared_sites_superset_of_ast_walk(source):
    _assert_shared_sites_cover_ast_walk(source)


def _assert_shared_sites_cover_ast_walk(source: str) -> None:
    compiled = compile_program(source)
    effects = analyze_program(compiled)
    ast_sites = {
        (site.proc, site.node_id, site.var, site.write)
        for site in collect_access_sites(compiled.program, compiled.table)
    }
    missing = ast_sites - set(effects.shared_sites)
    assert not missing, sorted(missing)


def test_analyze_program_emits_obs_counters():
    compiled = compile_program(SOURCE)
    with obs.capture() as registry:
        counts = analyze_program(compiled).counts()
    snapshot = registry.snapshot()
    assert snapshot["analysis.effects.programs"] == 1
    assert snapshot["analysis.effects.local"] == counts[LOCAL]
    assert snapshot["analysis.effects.shared"] == counts[SHARED]
    assert snapshot["analysis.effects.sync"] == counts[SYNC]


def test_only_the_diagnostics_run_the_effect_analysis(tmp_path, monkeypatch):
    """A compile, a plain and a logged run, save and load, ``ppd replay``
    and a debugging session never run the effect analysis; ``ppd analyze``
    and ``ppd disasm --effects`` run it once each."""
    calls = []
    original = effects_module.analyze_program

    def counted(compiled):
        calls.append(compiled)
        return original(compiled)

    monkeypatch.setattr(effects_module, "analyze_program", counted)
    source = bank_race(2, 2)
    compiled = compile_program(source)
    Machine(compiled, seed=0, mode="plain").run()
    record = Machine(compiled, seed=0).run()
    record_path = str(tmp_path / "bank_race.ppd.json")
    save_record(record, record_path)
    assert ppd_main(["replay", record_path]) == 0
    cli = PPDCommandLine(load_record(record_path))
    for line in ("why balance", "races", "candidates", "candidates balance", "lint"):
        cli.execute(line)
    assert calls == []

    program_path = tmp_path / "bank_race.pcl"
    program_path.write_text(source)
    assert ppd_main(["analyze", str(program_path)]) == 0
    assert len(calls) == 1
    assert ppd_main(["disasm", "--effects", str(program_path)]) == 0
    assert len(calls) == 2
