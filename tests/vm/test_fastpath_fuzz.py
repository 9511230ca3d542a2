"""Randomised fast-path differentials: on generated programs (reusing the
tests/test_fuzz program builder) the verified fast path must be invisible
— records, events, counters byte-identical on vs off — the verifier must
accept every generated lowering, and the bytecode shared-site set must
stay a superset of the AST access-site walk."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, compile_program
from repro.analysis.racecands import collect_access_sites
from repro.vm.verify import verify_code, verify_program

from tests.test_fuzz import programs
from tests.vm.util import surface


def _run(compiled, *, fastpath, inputs, mode="logged", trace=True):
    return Machine(
        compiled,
        seed=0,
        mode=mode,
        trace=trace,
        inputs=list(inputs),
        fastpath=fastpath,
    ).run()


@given(programs(), st.lists(st.integers(-50, 50), min_size=0, max_size=30))
@settings(max_examples=30, deadline=None)
def test_fuzz_fastpath_differential(source, inputs):
    compiled = compile_program(source)
    on = _run(compiled, fastpath=True, inputs=inputs)
    off = _run(compiled, fastpath=False, inputs=inputs)
    assert surface(on) == surface(off)


@given(programs(), st.lists(st.integers(-50, 50), min_size=0, max_size=30))
@settings(max_examples=30, deadline=None)
def test_fuzz_fastpath_differential_plain(source, inputs):
    compiled = compile_program(source)
    on = _run(compiled, fastpath=True, inputs=inputs, mode="plain", trace=False)
    off = _run(compiled, fastpath=False, inputs=inputs, mode="plain", trace=False)
    assert surface(on) == surface(off)


@given(programs())
@settings(max_examples=30, deadline=None)
def test_fuzz_verifier_accepts_raw_and_fused(source):
    compiled = compile_program(source)
    verify_program(compiled)
    program_code = compiled.vm_code()
    for proc in compiled.program.procs:
        verify_code(program_code.proc(proc.name, fast=True))


@given(programs())
@settings(max_examples=30, deadline=None)
def test_fuzz_shared_sites_superset_of_ast_walk(source):
    compiled = compile_program(source)
    effects = compiled.vm_code().effects()
    ast_sites = {
        (site.proc, site.node_id, site.var, site.write)
        for site in collect_access_sites(compiled.program, compiled.table)
    }
    missing = ast_sites - set(effects.shared_sites)
    assert not missing, sorted(missing)
