"""AST helper tests: traversal, numbering, read-set extraction."""

import dataclasses

import pytest

from repro.lang import ast, parse
from tests.runtime.test_schedule_golden import PROGRAMS


SOURCE = """
shared int SV;
func int f(int x) {
    int y = x + SV;
    return y;
}
proc main() {
    int a = f(1);
    if (a > 0) { a = a - 1; }
    print(a);
}
"""


class TestTraversal:
    def test_walk_yields_every_node_once(self):
        program = parse(SOURCE)
        nodes = list(ast.walk(program))
        assert len({id(n) for n in nodes}) == len(nodes)
        assert program in nodes

    def test_iter_child_nodes_direct_only(self):
        program = parse(SOURCE)
        children = list(ast.iter_child_nodes(program))
        assert all(
            isinstance(c, (ast.SharedDecl, ast.ProcDef)) for c in children
        )

    def test_walk_statements_excludes_expressions(self):
        program = parse(SOURCE)
        stmts = list(ast.walk_statements(program.proc("main").body))
        assert all(isinstance(s, ast.Stmt) for s in stmts)
        kinds = {type(s).__name__ for s in stmts}
        assert "If" in kinds and "Print" in kinds

    def test_program_proc_lookup(self):
        program = parse(SOURCE)
        assert program.proc("f").is_func
        with pytest.raises(KeyError):
            program.proc("missing")


class TestNumbering:
    def test_labels_skip_blocks(self):
        program = parse(SOURCE)
        for proc in program.procs:
            for stmt in ast.walk_statements(proc.body):
                if isinstance(stmt, ast.Block):
                    assert stmt.stmt_label == ""
                else:
                    assert stmt.stmt_label.startswith("s")

    def test_numbering_is_dense_and_ordered(self):
        program = parse(SOURCE)
        labels = [
            int(s.stmt_label[1:])
            for proc in program.procs
            for s in ast.walk_statements(proc.body)
            if s.stmt_label
        ]
        assert labels == list(range(1, len(labels) + 1))

    def test_renumbering_is_stable(self):
        program = parse(SOURCE)
        before = {
            s.node_id: s.stmt_label
            for proc in program.procs
            for s in ast.walk_statements(proc.body)
        }
        ast.number_statements(program)
        after = {
            s.node_id: s.stmt_label
            for proc in program.procs
            for s in ast.walk_statements(proc.body)
        }
        assert before == after


class TestReadSets:
    def test_expr_reads_includes_index_bases(self):
        program = parse("proc main() { int m[2]; int i = 0; int x = m[i] + 1; }")
        stmt = program.proc("main").body.body[2]
        assert ast.expr_reads(stmt.init) == {"m", "i"}

    def test_expr_reads_through_calls(self):
        program = parse(SOURCE)
        assign = program.proc("main").body.body[0]
        # f(1) has no variable reads; only literals.
        assert ast.expr_reads(assign.init) == set()

    def test_lvalue_name(self):
        program = parse("proc main() { int a[2]; a[1] = 0; }")
        assign = program.proc("main").body.body[1]
        assert ast.lvalue_name(assign.target) == "a"
        with pytest.raises(TypeError):
            ast.lvalue_name(assign.value)  # an IntLit is not an lvalue


def _children_by_fields(node):
    """The definition ``iter_child_nodes`` caches: every dataclass field,
    looked up afresh on each node."""
    children = []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, ast.Node):
            children.append(value)
        elif isinstance(value, list):
            children.extend(item for item in value if isinstance(item, ast.Node))
    return children


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_iter_child_nodes_matches_dataclass_fields(name):
    """Every node of the schedule-golden programs and the examples."""
    stack = [parse(PROGRAMS[name])]
    visited = 0
    while stack:
        node = stack.pop()
        expected = _children_by_fields(node)
        assert [id(child) for child in ast.iter_child_nodes(node)] == [
            id(child) for child in expected
        ]
        stack.extend(expected)
        visited += 1
    assert visited > 10
