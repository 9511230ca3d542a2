"""Code after a statement that cannot complete normally is not lowered.

A loop after a ``return``, or after a ``break`` inside a loop, or after
an ``if`` whose branches both return, is dead; so is an accept's exit
when its body returns.  The lowering leaves all of it out, so the
verifier's reachability invariant holds unchanged, the VM runs these
programs exactly as the test oracle walks them, and ``ppd disasm`` and
``ppd lint`` answer them normally.
"""

from __future__ import annotations

import pytest

from repro import Machine, compile_program
from repro.compiler import EBlockPolicy
from repro.ppd import main as ppd_main
from repro.vm import bytecode as bc
from repro.vm.verify import verify_program

from tests.oracle import oracle
from tests.vm.dead_code import DEAD_CODE_PROGRAMS
from tests.vm.test_parity import _replay_transcripts
from tests.vm.util import surface

POLICIES = {
    "default": None,
    "loop_blocks": EBlockPolicy(loop_block_min_stmts=1),
    # A chunk per statement: chunk entries follow the return barrier.
    "chunks": EBlockPolicy(split_proc_min_stmts=2, split_chunk_stmts=1),
}


def _compile(name: str, policy: str):
    chosen = POLICIES[policy]
    if chosen is None:
        return compile_program(DEAD_CODE_PROGRAMS[name])
    return compile_program(DEAD_CODE_PROGRAMS[name], policy=chosen)


def _reachable(code: bc.Code) -> set[int]:
    """Instruction indices reachable from entry, with the verifier's edges."""
    terminals = {
        bc.RETURN_VALUE,
        bc.RETURN_NONE,
        bc.BREAK,
        bc.CONTINUE,
        bc.PROC_RETURN,
        bc.ROOT_RETURN,
    }
    seen: set[int] = set()
    work = [0]
    while work:
        index = work.pop()
        if index in seen:
            continue
        seen.add(index)
        ins = code.instrs[index]
        op = ins[0]
        if op == bc.JUMP:
            work.append(ins[1])
        elif op in (bc.JUMP_IF_FALSE, bc.SC_AND, bc.SC_OR):
            work += [index + 1, ins[1]]
        elif op == bc.LOOP_ENTER:
            work += [index + 1, ins[3], ins[4]]
        elif op == bc.CHUNK_ENTER:
            work += [index + 1, ins[2]]
        elif op not in terminals:
            work.append(index + 1)
    return seen


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(DEAD_CODE_PROGRAMS))
def test_records_match_oracle(name, policy):
    for seed in range(3):
        with oracle():
            reference = Machine(_compile(name, policy), seed=seed, trace=True).run()
            replays = _replay_transcripts(reference)
        vm = Machine(_compile(name, policy), seed=seed, trace=True).run()
        assert reference.failure is None and reference.deadlock is None
        assert surface(vm) == surface(reference)
        assert _replay_transcripts(vm) == replays


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(DEAD_CODE_PROGRAMS))
def test_no_dead_statement_is_lowered(name, policy):
    codes = verify_program(_compile(name, policy))
    for code in codes.values():
        reachable = _reachable(code)
        dead = [
            index
            for index, ins in enumerate(code.instrs)
            if ins[0] in (bc.PRE, bc.POST, bc.ACCEPT_EXIT) and index not in reachable
        ]
        assert dead == [], (code.name, dead)


@pytest.mark.parametrize("name", sorted(DEAD_CODE_PROGRAMS))
def test_ppd_disasm_and_lint_exit_zero(name, tmp_path, capsys):
    path = tmp_path / f"{name}.pcl"
    path.write_text(DEAD_CODE_PROGRAMS[name])
    assert ppd_main(["disasm", str(path)]) == 0
    assert ppd_main(["disasm", "--effects", str(path)]) == 0
    assert ppd_main(["lint", str(path)]) == 0
    assert capsys.readouterr().err == ""
