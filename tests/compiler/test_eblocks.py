"""E-block construction policy tests (§5.4)."""

from repro import compile_program
from repro.compiler import EBlockPolicy
from repro.workloads import compute_heavy, fig53_program, nested_calls


class TestDefaultPolicy:
    def test_every_proc_is_an_eblock(self):
        compiled = compile_program(nested_calls())
        for name in compiled.program.proc_names:
            assert compiled.eblocks.is_proc_eblock(name)
        assert not compiled.eblocks.merged_procs

    def test_no_loop_blocks_by_default(self):
        compiled = compile_program(compute_heavy())
        assert not compiled.eblocks.loop_blocks

    def test_proc_block_carries_summary_sets(self):
        compiled = compile_program(fig53_program())
        block = compiled.eblocks.proc_blocks["foo3"]
        assert block.shared_ref == ("SV",)
        assert block.shared_mod == ("SV",)
        assert block.params == ("p", "q")
        assert block.returns_value

    def test_block_ids_unique(self):
        compiled = compile_program(nested_calls())
        ids = list(compiled.eblocks.blocks)
        assert len(ids) == len(set(ids))


class TestLeafMerging:
    def test_small_leaf_merged(self):
        compiled = compile_program(
            nested_calls(), policy=EBlockPolicy(merge_leaf_max_stmts=10)
        )
        # SubK is a small leaf: merged.  SubJ calls SubK: kept.
        assert "SubK" in compiled.eblocks.merged_procs
        assert compiled.eblocks.is_proc_eblock("SubJ")
        assert compiled.eblocks.is_proc_eblock("main")

    def test_threshold_respected(self):
        compiled = compile_program(
            nested_calls(), policy=EBlockPolicy(merge_leaf_max_stmts=2)
        )
        # SubK has more than 2 statements: not merged.
        assert "SubK" not in compiled.eblocks.merged_procs

    def test_main_never_merged(self):
        source = "proc main() { int a = 1; }"
        compiled = compile_program(source, policy=EBlockPolicy(merge_leaf_max_stmts=99))
        assert compiled.eblocks.is_proc_eblock("main")

    def test_spawn_targets_never_merged(self):
        source = """
proc tiny() { }
proc main() { spawn tiny(); join(); }
"""
        compiled = compile_program(source, policy=EBlockPolicy(merge_leaf_max_stmts=99))
        assert compiled.eblocks.is_proc_eblock("tiny")

    def test_sync_procs_kept_by_default(self):
        compiled = compile_program(
            fig53_program(), policy=EBlockPolicy(merge_leaf_max_stmts=99)
        )
        # foo3 contains P/V: keep_sync_procs protects it from merging.
        assert compiled.eblocks.is_proc_eblock("foo3")

    def test_sync_procs_merged_when_allowed(self):
        compiled = compile_program(
            fig53_program(),
            policy=EBlockPolicy(merge_leaf_max_stmts=99, keep_sync_procs=False),
        )
        assert "foo3" in compiled.eblocks.merged_procs


class TestLoopBlocks:
    def test_large_loops_become_eblocks(self):
        compiled = compile_program(
            compute_heavy(), policy=EBlockPolicy(loop_block_min_stmts=3)
        )
        assert compiled.eblocks.loop_blocks

    def test_loop_block_sets(self):
        source = """
shared int SV;
proc main() {
    int s = 0;
    int t = 2;
    for (i = 0; i < 10; i = i + 1) {
        s = s + t + SV;
    }
    print(s);
}
"""
        compiled = compile_program(source, policy=EBlockPolicy(loop_block_min_stmts=1))
        (block,) = compiled.eblocks.loop_blocks.values()
        assert block.kind == "loop"
        assert "s" in block.prelog_locals and "t" in block.prelog_locals
        assert "s" in block.postlog_locals
        assert block.shared_ref == ("SV",)
        assert block.shared_mod == ()

    def test_small_loops_skipped(self):
        source = "proc main() { int s = 0; while (s < 3) { s = s + 1; } }"
        compiled = compile_program(source, policy=EBlockPolicy(loop_block_min_stmts=50))
        assert not compiled.eblocks.loop_blocks

    def test_nested_loops_both_blocked(self):
        source = """
proc main() {
    int s = 0;
    for (i = 0; i < 3; i = i + 1) {
        for (j = 0; j < 3; j = j + 1) {
            s = s + i * j;
        }
    }
    print(s);
}
"""
        compiled = compile_program(source, policy=EBlockPolicy(loop_block_min_stmts=1))
        assert len(compiled.eblocks.loop_blocks) == 2
