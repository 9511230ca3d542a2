"""The bytecode verifier (repro.vm.verify): every shipped and every
generated lowering satisfies all four structural invariants, and each
invariant violation is rejected with its typed error."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.compiler.compile import compile_program
from repro.vm import bytecode as bc
from repro.vm.verify import (
    JumpTargetError,
    StackDepthError,
    UnreachableBlockError,
    YieldSiteError,
    verify_code,
    verify_program,
)
from repro.workloads import (
    bank_race,
    buggy_average,
    compute_heavy,
    dining_philosophers,
    fig41_program,
    fig61_program,
    matrix_sum,
    producer_consumer,
    rpc_server,
)

from tests.test_fuzz import programs

SHIPPED = [
    bank_race(2, 2),
    buggy_average(5),
    compute_heavy(3, 4),
    dining_philosophers(3),
    fig41_program(),
    fig61_program(),
    matrix_sum(4),
    producer_consumer(3, 1),
    rpc_server(2, 1),
]


class _Stmt:
    """Minimal statement stand-in for hand-built code objects."""

    def __init__(self, node_id: int = 1, stmt_label: str = "s1") -> None:
        self.node_id = node_id
        self.stmt_label = stmt_label


def code(instrs, stmt_at=None, name="synthetic"):
    return bc.Code(name, "proc", list(instrs), stmt_at or [None] * len(instrs))


@pytest.mark.parametrize("source", SHIPPED, ids=lambda s: s.strip().splitlines()[0][:24])
def test_accepts_every_shipped_program(source):
    verify_program(compile_program(source))


@given(programs())
@settings(max_examples=30, deadline=None)
def test_fuzz_verifier_accepts_raw(source):
    verify_program(compile_program(source))


def test_accepts_minimal_code():
    stmt = _Stmt()
    minimal = code([(bc.PRE, stmt), (bc.ROOT_RETURN,)], [stmt, None])
    assert verify_code(minimal) is minimal


# --- invariant 1: jump targets in bounds -------------------------------


def test_rejects_out_of_bounds_jump():
    with pytest.raises(JumpTargetError, match="out of bounds"):
        verify_code(code([(bc.JUMP, 5), (bc.ROOT_RETURN,)]))


def test_rejects_negative_jump():
    with pytest.raises(JumpTargetError, match="out of bounds"):
        verify_code(code([(bc.JUMP, -1), (bc.ROOT_RETURN,)]))


def test_rejects_fall_off_the_end():
    with pytest.raises(JumpTargetError, match="falls off the end"):
        verify_code(code([(bc.CONST, 1)]))


def test_rejects_empty_code():
    with pytest.raises(JumpTargetError, match="empty"):
        verify_code(code([]))


# --- invariant 2: stack-depth balance ----------------------------------


def test_rejects_stack_underflow():
    with pytest.raises(StackDepthError, match="pops"):
        verify_code(code([(bc.BINOP, "+"), (bc.ROOT_RETURN,)]))


def test_rejects_operand_leak_into_statement_boundary():
    stmt = _Stmt()
    leaky = code(
        [(bc.CONST, 1), (bc.PRE, stmt), (bc.ROOT_RETURN,)],
        [None, stmt, None],
    )
    with pytest.raises(StackDepthError, match="boundary at stack depth 1"):
        verify_code(leaky)


def test_rejects_predecessor_depth_disagreement():
    # Fallthrough reaches index 3 at depth 1, the branch at depth 0.
    bad = code(
        [
            (bc.CONST, 1),
            (bc.JUMP_IF_FALSE, 3),
            (bc.CONST, 2),
            (bc.ROOT_RETURN,),
        ]
    )
    with pytest.raises(StackDepthError, match="disagree"):
        verify_code(bad)


# --- invariant 3: e-block boundaries reachable -------------------------


def test_rejects_unreachable_block_boundary():
    with pytest.raises(UnreachableBlockError, match="unreachable"):
        verify_code(code([(bc.ROOT_RETURN,), (bc.LOOP_EXIT,)]))


# --- invariant 4: one yield site per preemption point ------------------


def test_rejects_duplicate_yield_site():
    stmt = _Stmt()
    doubled = code(
        [(bc.PRE, stmt), (bc.PRE, stmt), (bc.ROOT_RETURN,)],
        [stmt, stmt, None],
    )
    with pytest.raises(YieldSiteError, match="second"):
        verify_code(doubled)


def test_rejects_stmt_at_disagreement():
    stmt, other = _Stmt(1, "s1"), _Stmt(2, "s2")
    skewed = code([(bc.PRE, stmt), (bc.ROOT_RETURN,)], [other, None])
    with pytest.raises(YieldSiteError, match="disagrees"):
        verify_code(skewed)


def test_rejects_stmt_at_length_mismatch():
    with pytest.raises(YieldSiteError, match="entries"):
        verify_code(bc.Code("synthetic", "proc", [(bc.ROOT_RETURN,)], []))


def test_errors_name_the_code_and_index():
    with pytest.raises(JumpTargetError) as excinfo:
        verify_code(code([(bc.JUMP, 9), (bc.ROOT_RETURN,)], name="culprit"))
    assert excinfo.value.code_name == "culprit"
    assert excinfo.value.index == 0
    assert "culprit@0" in str(excinfo.value)
