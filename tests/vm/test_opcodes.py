"""Per-opcode units: for each language construct, (a) the compiler emits
the expected opcodes, and (b) the VM's dispatch of those opcodes is
observationally identical to the reference tree walker — including the error
paths, whose messages and attached failure sites must match byte for
byte."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.compiler.compile import compile_program
from repro.vm import bytecode as bc
from repro.vm import disassemble_program, executor

from tests.vm.util import assert_engines_agree

# (name, source, opcodes that must appear, inputs)
CASES = [
    (
        "scalar-arithmetic",
        """\
proc main() {
    int a = 6;
    int b = a * 7 - 2;
    b = b / 4;
    b = b % 3;
    print(0 - b, -b);
}
""",
        ["CONST", "DECL_INIT", "LOAD", "BINOP", "STORE", "UNOP", "PRINT"],
        None,
    ),
    (
        "bool-logic",
        """\
proc main() {
    bool t = 1 < 2 && 3 != 4;
    bool u = t || 1 > 2;
    bool v = !u;
    assert(u);
    print(t, u, v);
}
""",
        ["SC_AND", "SC_OR", "TO_BOOL", "UNOP", "ASSERT"],
        None,
    ),
    (
        "arrays",
        """\
proc main() {
    int m[4];
    for (i = 0; i < 4; i = i + 1) {
        m[i] = i * i;
    }
    int total = m[0] + m[1] + m[2] + m[3];
    print("total =", total, "len =", len(m));
}
""",
        ["DECL_ARRAY", "STORE_ELEM", "LOAD_ELEM", "CALL_PURE"],
        None,
    ),
    (
        "control-flow",
        """\
proc main() {
    int hits = 0;
    for (i = 0; i < 8; i = i + 1) {
        if (i == 5) {
            break;
        }
        if (i % 2 == 0) {
            continue;
        }
        hits = hits + 1;
    }
    int j = 0;
    while (1 == 1) {
        j = j + 1;
        if (j >= 3) {
            break;
        }
    }
    print(hits, j);
}
""",
        ["LOOP_ENTER", "LOOP_EXIT", "BREAK", "CONTINUE", "JUMP", "JUMP_IF_FALSE", "PRED"],
        None,
    ),
    (
        "functions",
        """\
func int helper(int n) {
    if (n <= 0) {
        return 0;
    }
    return n + helper(n - 1);
}

proc side() {
    return;
}

proc main() {
    print(helper(4));
    side();
}
""",
        [
            "CALL_BEGIN",
            "ARG_MARK",
            "ARG_CAPTURE",
            "CALL_USER",
            "RETURN_VALUE",
            "RETURN_NONE",
            "PROC_RETURN",
            "DISCARD",
        ],
        None,
    ),
    (
        "default-decl-and-input",
        """\
proc main() {
    int x;
    x = input();
    int y = input();
    int exhausted = input();
    print(x + y + exhausted, rand(3));
}
""",
        ["DECL_DEFAULT", "INPUT"],
        [7, 8],
    ),
    (
        "semaphores",
        """\
shared int n;
sem m = 1;
chan done;

proc bump() {
    P(m);
    n = n + 1;
    V(m);
    send(done, 1);
}

proc main() {
    spawn bump();
    int ack = recv(done);
    join();
    print(n);
}
""",
        ["SEM_P", "SEM_V", "SEND", "RECV", "SPAWN", "JOIN"],
        None,
    ),
    (
        "locks",
        """\
shared int n;
lockvar l;
proc work() {
    lock(l);
    n = n + 5;
    unlock(l);
}
proc main() {
    spawn work();
    join();
    print(n);
}
""",
        ["LOCK_ACQUIRE", "LOCK_RELEASE"],
        None,
    ),
    (
        "rendezvous",
        """\
entry ask;
proc server() {
    accept ask(int q) {
        reply q * 10;
    }
}
proc main() {
    spawn server();
    int answer = call ask(4);
    join();
    print(answer);
}
""",
        ["ACCEPT_ENTER", "ACCEPT_EXIT", "REPLY", "CALL_ENTRY"],
        None,
    ),
    (
        "builtins",
        """\
proc main() {
    float r = sqrt(2.0);
    print(floor(r * 100), abs(-4), min(2, 9), max(2, 9));
}
""",
        ["CALL_PURE"],
        None,
    ),
]

ERROR_CASES = [
    (
        "div-by-zero",
        """\
proc main() {
    int z = 0;
    print(7 / z);
}
""",
    ),
    (
        "mod-by-zero",
        """\
proc main() {
    int z = 0;
    print(7 % z);
}
""",
    ),
    (
        "assert-failure",
        """\
proc main() {
    int x = 3;
    assert(x > 5);
}
""",
    ),
    (
        "negative-sqrt",
        """\
proc main() {
    print(sqrt(0 - 9));
}
""",
    ),
    (
        "index-out-of-range",
        """\
proc main() {
    int m[2];
    m[5] = 1;
}
""",
    ),
    (
        "missing-return",
        """\
func int broken(int n) {
    int unused = n;
}
proc main() {
    print(broken(1));
}
""",
    ),
    (
        "recursion-overflow",
        """\
func int forever(int n) {
    return forever(n + 1);
}
proc main() {
    print(forever(0));
}
""",
    ),
]


def _opnames_in(listing: str) -> set[str]:
    return {
        line.split()[1]
        for line in listing.splitlines()
        if line and line.split()[0].isdigit()
    }


@pytest.mark.parametrize("name,source,opcodes,inputs", CASES, ids=[c[0] for c in CASES])
def test_compile_emits_expected_opcodes(name, source, opcodes, inputs):
    emitted = _opnames_in(disassemble_program(compile_program(source)))
    missing = set(opcodes) - emitted
    assert not missing, f"{name}: {sorted(missing)} missing from listing"


@pytest.mark.parametrize("name,source,opcodes,inputs", CASES, ids=[c[0] for c in CASES])
def test_dispatch_matches_interp(name, source, opcodes, inputs):
    reference, _vm = assert_engines_agree(source, inputs=inputs)
    assert reference.failure is None, (name, reference.failure)


@pytest.mark.parametrize("name,source", ERROR_CASES, ids=[c[0] for c in ERROR_CASES])
def test_error_paths_match_interp(name, source):
    reference, vm = assert_engines_agree(source)
    assert reference.failure is not None, name
    assert reference.failure.message == vm.failure.message


def test_opnames_name_the_constants():
    assert [getattr(bc, name) for name in bc.OPNAMES] == list(range(len(bc.OPNAMES)))


def test_dispatch_ladder_tests_opcodes_in_numeric_order():
    """The executor's if/elif ladder has one arm per opcode, in numeric
    order, each commented with the opcode's name."""
    arms = re.findall(r"(?:if|elif) op == (\d+):  # (\w+)", Path(executor.__file__).read_text())
    assert [(int(number), name) for number, name in arms] == list(enumerate(bc.OPNAMES))


def test_every_opcode_is_covered_somewhere():
    """The CASES + ERROR_CASES tables, together, exercise the full ISA
    except the e-block chunk ops (covered by the workload parity sweep —
    chunking needs an EBlockPolicy) and the replay-root op."""
    seen: set[str] = set()
    for _, source, _, _ in CASES:
        seen |= _opnames_in(disassemble_program(compile_program(source)))
    uncovered = set(bc.OPNAMES) - seen
    assert uncovered <= {"CHUNK_ENTER", "CHUNK_EXIT", "ROOT_RETURN", "POST"}, uncovered


def test_chunk_ops_emitted_under_split_policy():
    from repro.compiler import EBlockPolicy

    source = """\
proc main() {
    int a = 1;
    int b = 2;
    int c = 3;
    int d = 4;
    int e = 5;
    int f = 6;
    print(a + b + c + d + e + f);
}
"""
    compiled = compile_program(
        source, policy=EBlockPolicy(split_proc_min_stmts=3, split_chunk_stmts=2)
    )
    listing = disassemble_program(compiled)
    assert "CHUNK_ENTER" in listing and "CHUNK_EXIT" in listing
