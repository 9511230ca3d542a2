"""Superinstruction fusion (repro.vm.fuse): the fused twin of every
shipped code is shorter, verifier-clean, preserves every statement
boundary, and — via the parity harness — observationally identical."""

from __future__ import annotations

import pytest

from repro.compiler.compile import compile_program
from repro.vm import bytecode as bc
from repro.vm.verify import _PRE_OPS, verify_code
from repro.workloads import (
    bank_race,
    buggy_average,
    compute_heavy,
    fib_recursive,
    matrix_sum,
    producer_consumer,
)

from tests.vm.util import surface
from repro import Machine

SOURCES = {
    "bank_race": bank_race(2, 2),
    "buggy_average": buggy_average(5),
    "compute_heavy": compute_heavy(3, 4),
    "fib_recursive": fib_recursive(6),
    "matrix_sum": matrix_sum(4),
    "producer_consumer": producer_consumer(3, 1),
}

FUSED_OPS = {
    bc.PRE_LOCAL,
    bc.PRE_LOCAL_R,
    bc.LOADL,
    bc.STOREL,
    bc.LOADL_CONST,
    bc.BINOP_STOREL,
    bc.BINOP_LL,
    bc.BINOP_LC,
    bc.BINOP_C,
    bc.BINOP_L,
    bc.PRED_JF,
    bc.LOAD_ELEML,
}


def codes(source):
    compiled = compile_program(source)
    program_code = compiled.vm_code()
    for proc in compiled.program.procs:
        yield program_code.proc(proc.name), program_code.proc(proc.name, fast=True)


@pytest.mark.parametrize("name", sorted(SOURCES), ids=sorted(SOURCES))
def test_fused_code_is_shorter_and_verifier_clean(name):
    raw_total = fused_total = 0
    for raw, fused in codes(SOURCES[name]):
        assert len(fused.instrs) <= len(raw.instrs), fused.name
        raw_total += len(raw.instrs)
        fused_total += len(fused.instrs)
        verify_code(fused)
    assert fused_total < raw_total


@pytest.mark.parametrize("name", sorted(SOURCES), ids=sorted(SOURCES))
def test_fusion_preserves_every_statement_boundary(name):
    """Each raw PRE survives as exactly one PRE/PRE_LOCAL/PRE_LOCAL_R
    carrying the same statement object, in the same order."""
    for raw, fused in codes(SOURCES[name]):
        raw_stmts = [id(ins[1]) for ins in raw.instrs if ins[0] == bc.PRE]
        fused_stmts = [id(ins[1]) for ins in fused.instrs if ins[0] in _PRE_OPS]
        assert raw_stmts == fused_stmts, fused.name


def test_matrix_sum_exercises_the_whole_fused_isa():
    opset = set()
    for _, fused in codes(matrix_sum(4)):
        opset |= {ins[0] for ins in fused.instrs}
    expected = {
        bc.PRE_LOCAL,
        bc.PRE_LOCAL_R,
        bc.LOADL,
        bc.STOREL,
        bc.BINOP_STOREL,
        bc.BINOP_LL,
        bc.BINOP_LC,
        bc.BINOP_C,
        bc.PRED_JF,
        bc.LOAD_ELEML,
    }
    assert expected <= opset, {bc.OPNAMES[op] for op in expected - opset}
    # LOADL_CONST + BINOP_L need a shape matrix_sum lacks; fib covers them.
    fib_ops = set()
    for _, fused in codes(fib_recursive(4)):
        fib_ops |= {ins[0] for ins in fused.instrs}
    assert bc.BINOP_LC in fib_ops


def test_fused_ops_only_replace_proven_local_sites():
    """Accesses to shared names never fuse: every LOADL/STOREL family
    operand is absent from the program's shared-variable table."""
    for name, source in SOURCES.items():
        compiled = compile_program(source)
        shared = set(compiled.table.shared)
        program_code = compiled.vm_code()
        for proc in compiled.program.procs:
            for ins in program_code.proc(proc.name, fast=True).instrs:
                op = ins[0]
                if op in (bc.LOADL, bc.STOREL, bc.LOADL_CONST):
                    assert ins[1] not in shared, (name, bc.OPNAMES[op])
                elif op in (bc.BINOP_LC, bc.BINOP_L):
                    assert ins[2] not in shared, (name, bc.OPNAMES[op])
                elif op == bc.BINOP_STOREL:
                    assert ins[2] not in shared, (name, bc.OPNAMES[op])
                elif op == bc.BINOP_LL:
                    assert ins[2] not in shared and ins[4] not in shared, name
                elif op == bc.LOAD_ELEML:
                    assert ins[1] not in shared and ins[3] not in shared, name


def test_jump_targets_remap_onto_instruction_heads():
    """No jump in any fused code lands inside a superinstruction: every
    target indexes a real instruction (verifier invariant 1 re-checked
    here against the remapped operands)."""
    from repro.vm.verify import _jump_operands

    for name, source in SOURCES.items():
        for _, fused in codes(source):
            n = len(fused.instrs)
            for ins in fused.instrs:
                for target in _jump_operands(ins):
                    assert 0 <= target < n, (name, fused.name)


@pytest.mark.parametrize("name", sorted(SOURCES), ids=sorted(SOURCES))
def test_fused_execution_matches_raw(name):
    """Record surfaces are byte-identical with fusion+elision on vs off
    (fastpath=False runs the raw code objects)."""
    source = SOURCES[name]
    inputs = [10, 20, 30, 40, 50] if name == "buggy_average" else None
    for mode, trace in (("plain", False), ("logged", True)):
        raw = Machine(
            compile_program(source), seed=0, mode=mode, trace=trace,
            inputs=list(inputs) if inputs else None, fastpath=False,
        ).run()
        fused = Machine(
            compile_program(source), seed=0, mode=mode, trace=trace,
            inputs=list(inputs) if inputs else None, fastpath=True,
        ).run()
        assert surface(raw) == surface(fused), (name, mode)
