"""Instrumentation-plan tests (§3.2.1, §5.5)."""

from repro import compile_program
from repro.compiler import EBlockPolicy
from repro.workloads import fig53_program, nested_calls


class TestSyncUnitPrelogs:
    def test_p_site_snapshots_sv(self):
        compiled = compile_program(fig53_program())
        program = compiled.program
        # Find the P(mutex) statement in foo3.
        from repro.lang import ast

        p_stmt = next(
            s
            for s in ast.walk_statements(program.proc("foo3").body)
            if isinstance(s, ast.SemP)
        )
        assert compiled.plan.post_stmt_prelogs.get(p_stmt.node_id) == ("SV",)

    def test_v_site_has_no_prelog(self):
        compiled = compile_program(fig53_program())
        from repro.lang import ast

        v_stmt = next(
            s
            for s in ast.walk_statements(compiled.program.proc("foo3").body)
            if isinstance(s, ast.SemV)
        )
        # The unit after V reads no shared variables: no prelog site.
        assert v_stmt.node_id not in compiled.plan.post_stmt_prelogs

    def test_no_sync_prelogs_for_sequential_program(self):
        compiled = compile_program(nested_calls())
        assert not compiled.plan.post_stmt_prelogs

    def test_entry_unit_prelog_for_merged_proc(self):
        source = """
shared int SV;
func int reader(int x) { return SV + x; }
proc main() { int a = reader(1); print(a); }
"""
        compiled = compile_program(source, policy=EBlockPolicy(merge_leaf_max_stmts=10))
        assert "reader" in compiled.eblocks.merged_procs
        assert compiled.plan.entry_unit_prelogs.get("reader") == ("SV",)

    def test_plan_accessors(self):
        compiled = compile_program(fig53_program())
        assert compiled.plan.proc_block("foo3") is not None
        assert compiled.plan.proc_block("nonexistent") is None
        assert not compiled.plan.is_merged("foo3")

    def test_logging_site_count_positive(self):
        compiled = compile_program(fig53_program())
        assert compiled.plan.logging_site_count() >= 2 * len(compiled.eblocks.blocks)


class TestCompiledProgramBundle:
    def test_all_artifacts_present(self):
        compiled = compile_program(fig53_program())
        assert compiled.static_graph.procs
        assert compiled.simplified
        assert compiled.database.stmt_by_label
        assert compiled.cfgs.keys() == set(compiled.program.proc_names)

    def test_compile_accepts_parsed_program(self):
        from repro.lang import parse

        program = parse(nested_calls())
        compiled = compile_program(program)
        assert compiled.program is program
