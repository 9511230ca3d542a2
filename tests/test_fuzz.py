"""Randomised program fuzzing with hypothesis.

A generator for small, always-terminating sequential PCL programs (with
functions, branches, counted loops that may return from their function,
shared variables, and inputs) drives three whole-system properties:

* front-end stability — parse -> pretty -> parse is a fixpoint;
* instrumentation transparency — plain/logged/traced runs agree;
* replay fidelity — every closed interval replays without divergence and
  reproduces its recorded return value, under two e-block policies.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, compile_program
from repro.compiler import EBlockPolicy
from repro.core import EmulationPackage
from repro.lang import parse, program_to_str
from repro.runtime import Postlog, build_interval_index


class ProgramBuilder:
    """Deterministically unfolds hypothesis choices into a PCL program."""

    def __init__(self, draw) -> None:
        self.draw = draw
        self.counter = itertools.count()
        self.funcs: list[str] = []
        self.func_names: list[str] = []
        #: loop counters are readable but never assignment targets —
        #: clobbering one could make a generated loop diverge
        self.loop_counters: set[str] = set()
        #: set while a function body is generated: a loop there may return
        self.in_function = False

    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self.counter)}"

    def expr(self, vars_in_scope: list[str], depth: int = 0) -> str:
        choices = ["lit"]
        if vars_in_scope:
            choices.append("var")
        if depth < 2:
            choices.append("binop")
            if self.func_names:
                choices.append("callf")
        kind = self.draw(st.sampled_from(choices))
        if kind == "lit":
            return str(self.draw(st.integers(-9, 9)))
        if kind == "var":
            return self.draw(st.sampled_from(vars_in_scope))
        if kind == "callf":
            name = self.draw(st.sampled_from(self.func_names))
            arg = self.expr(vars_in_scope, depth + 1)
            return f"{name}({arg})"
        op = self.draw(st.sampled_from(["+", "-", "*"]))
        left = self.expr(vars_in_scope, depth + 1)
        right = self.expr(vars_in_scope, depth + 1)
        return f"({left} {op} {right})"

    def condition(self, vars_in_scope: list[str]) -> str:
        op = self.draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return f"{self.expr(vars_in_scope, 1)} {op} {self.expr(vars_in_scope, 1)}"

    def statements(
        self, vars_in_scope: list[str], depth: int, budget: int, in_loop: bool = False
    ) -> list[str]:
        lines: list[str] = []
        count = self.draw(st.integers(1, 3 if depth else 5))
        for _ in range(count):
            if budget <= 0:
                break
            kinds = (
                ["decl", "assign", "if", "loop", "input"]
                if depth < 2
                else ["decl", "assign", "input"]
            )
            if in_loop and self.in_function:
                kinds.append("return")
            kind = self.draw(st.sampled_from(kinds))
            if kind == "decl":
                name = self.fresh("v")
                lines.append(f"int {name} = {self.expr(vars_in_scope)};")
                vars_in_scope.append(name)
            elif kind == "assign" and vars_in_scope:
                assignable = [v for v in vars_in_scope if v not in self.loop_counters]
                if not assignable:
                    continue
                target = self.draw(st.sampled_from(assignable))
                lines.append(f"{target} = {self.expr(vars_in_scope)};")
            elif kind == "input":
                name = self.fresh("v")
                lines.append(f"int {name} = input();")
                vars_in_scope.append(name)
            elif kind == "return":
                cond = self.condition(vars_in_scope)
                lines.append(f"if ({cond}) {{ return {self.expr(vars_in_scope)}; }}")
            elif kind == "if":
                cond = self.condition(vars_in_scope)
                then_body = self.statements(
                    list(vars_in_scope), depth + 1, budget - 1, in_loop
                )
                lines.append(f"if ({cond}) {{")
                lines.extend("    " + s for s in then_body)
                if self.draw(st.booleans()):
                    else_body = self.statements(
                        list(vars_in_scope), depth + 1, budget - 1, in_loop
                    )
                    lines.append("} else {")
                    lines.extend("    " + s for s in else_body)
                lines.append("}")
            elif kind == "loop":
                counter = self.fresh("i")
                self.loop_counters.add(counter)
                bound = self.draw(st.integers(1, 4))
                body = self.statements(
                    list(vars_in_scope) + [counter], depth + 1, budget - 1, in_loop=True
                )
                lines.append(
                    f"for ({counter} = 0; {counter} < {bound}; "
                    f"{counter} = {counter} + 1) {{"
                )
                lines.extend("    " + s for s in body)
                lines.append("}")
        # PCL locals are function-scoped, so even fallback fillers must be
        # fresh across sibling blocks.
        return lines or [f"int {self.fresh('v')} = 0;"]

    def function(self) -> None:
        name = self.fresh("f")
        param = self.fresh("p")
        self.in_function = True
        body = self.statements([param], depth=1, budget=3)
        self.in_function = False
        result = self.expr([param], 1)
        self.funcs.append(
            f"func int {name}(int {param}) {{\n    "
            + "\n    ".join(body)
            + f"\n    return {result};\n}}"
        )
        self.func_names.append(name)

    def build(self) -> str:
        for _ in range(self.draw(st.integers(0, 2))):
            self.function()
        shared = "shared int S;\n" if self.draw(st.booleans()) else ""
        scope = ["S"] if shared else []
        main_body = self.statements(scope, depth=0, budget=6)
        printable = self.expr(scope or ["0"] if not scope else scope)
        return (
            shared
            + "\n".join(self.funcs)
            + "\nproc main() {\n    "
            + "\n    ".join(main_body)
            + f"\n    print({printable});\n}}\n"
        )


@st.composite
def programs(draw):
    return ProgramBuilder(draw).build()


@given(programs(), st.lists(st.integers(-50, 50), min_size=0, max_size=30))
@settings(max_examples=30, deadline=None)
def test_fuzz_front_end_roundtrip(source, inputs):
    printed = program_to_str(parse(source))
    assert program_to_str(parse(printed)) == printed


@given(programs(), st.lists(st.integers(-50, 50), min_size=0, max_size=30))
@settings(max_examples=30, deadline=None)
def test_fuzz_mode_equivalence(source, inputs):
    compiled = compile_program(source)
    plain = Machine(compiled, seed=0, mode="plain", inputs=list(inputs)).run()
    logged = Machine(compiled, seed=0, mode="logged", inputs=list(inputs)).run()
    traced = Machine(compiled, seed=0, mode="plain", trace=True, inputs=list(inputs)).run()
    assert plain.output == logged.output == traced.output
    assert plain.shared_final == logged.shared_final


@given(
    programs(),
    st.lists(st.integers(-50, 50), min_size=0, max_size=30),
    st.sampled_from(
        [
            None,
            EBlockPolicy(merge_leaf_max_stmts=8),
            EBlockPolicy(loop_block_min_stmts=1),
            EBlockPolicy(split_proc_min_stmts=3, split_chunk_stmts=2),
        ]
    ),
)
@settings(max_examples=30, deadline=None)
def test_fuzz_replay_fidelity(source, inputs, policy):
    compiled = compile_program(source, policy=policy)
    record = Machine(compiled, seed=0, mode="logged", inputs=list(inputs)).run()
    assert record.failure is None, record.failure
    emulation = EmulationPackage(record)
    index = build_interval_index(record.logs[0])
    base = 0
    for info in index.values():
        if info.is_open:
            continue
        result = emulation.replay(0, info.interval_id, uid_base=base)
        base += len(result.events) + 1
        assert not result.halted, (info.proc_name, result.diagnostics)
        assert not [d for d in result.diagnostics if "divergence" in d], result.diagnostics
        postlog = record.logs[0].entries[info.end_index]
        assert isinstance(postlog, Postlog)
        if postlog.has_retval:
            assert result.retval == postlog.retval
