"""Chunk e-blocks: splitting large subroutines (§5.4).

"Though the size of a subroutine has no direct relationship to the time
needed to execute it, we can act conservatively to construct several
e-blocks out of such a large subroutine."
"""

from repro import compile_program, Machine
from repro.compiler import EBlockPolicy
from repro.core import EmulationPackage, PPDSession
from repro.runtime import build_interval_index

BIG_PROC = """
shared int SV;
func int big(int n) {
    int a = n + 1;
    int b = a * 2;
    int c = b + a;
    int d = c * c;
    if (d > 10) {
        d = d - 10;
    }
    int e = d + 1;
    int f = e * 2;
    SV = f;
    if (f > 100) {
        return f;
    }
    int g = f + 3;
    int h = g - 1;
    return h;
}
proc main() {
    int r = big(4);
    print(r);
}
"""

POLICY = EBlockPolicy(split_proc_min_stmts=8, split_chunk_stmts=4)


def compiled_big():
    return compile_program(BIG_PROC, policy=POLICY)


class TestChunkConstruction:
    def test_large_proc_gets_chunks(self):
        compiled = compiled_big()
        assert len(compiled.eblocks.chunk_blocks) >= 2
        assert "big" in compiled.eblocks.chunk_plan

    def test_small_proc_not_split(self):
        compiled = compiled_big()
        assert all(
            block.proc_name != "main" for block in compiled.eblocks.chunk_blocks.values()
        )

    def test_return_statements_are_barriers(self):
        compiled = compiled_big()
        db = compiled.database
        for block, node_ids in compiled.eblocks.chunk_plan["big"]:
            if block is None:
                continue
            for node_id in node_ids:
                from repro.lang import ast

                stmt = db.stmt_by_id[node_id]
                returns = [
                    s for s in ast.walk_statements(stmt) if isinstance(s, ast.Return)
                ]
                assert not returns, "a chunk must never contain a return"

    def test_chunk_plan_covers_whole_body(self):
        compiled = compiled_big()
        planned = [
            node_id
            for _, node_ids in compiled.eblocks.chunk_plan["big"]
            for node_id in node_ids
        ]
        body = compiled.program.proc("big").body.body
        assert planned == [stmt.node_id for stmt in body]

    def test_chunk_logging_sets(self):
        compiled = compiled_big()
        first_chunk = min(
            compiled.eblocks.chunk_blocks.values(), key=lambda b: b.node_id
        )
        # The first chunk computes a..d from the parameter n.
        assert "n" in first_chunk.prelog_locals
        assert {"a", "b", "c", "d"} <= set(first_chunk.postlog_locals)
        assert first_chunk.shared_mod == ()


class TestChunkExecutionAndReplay:
    def test_output_unchanged_by_splitting(self):
        unsplit = Machine(compile_program(BIG_PROC), seed=0, mode="logged").run()
        split = Machine(compiled_big(), seed=0, mode="logged").run()
        assert unsplit.output == split.output

    def test_early_return_skips_later_chunks(self):
        record = Machine(compiled_big(), seed=0, mode="logged").run()
        index = build_interval_index(record.logs[0])
        chunk_intervals = [i for i in index.values() if i.block_kind == "chunk"]
        # big(4) returns at f > 100: the trailing g/h chunk never opened.
        assert len(chunk_intervals) == 2

    def test_proc_replay_skips_chunks_via_postlogs(self):
        record = Machine(compiled_big(), seed=0, mode="logged").run()
        index = build_interval_index(record.logs[0])
        big_info = next(
            i for i in index.values() if i.proc_name == "big" and i.block_kind == "proc"
        )
        result = EmulationPackage(record).replay(0, big_info.interval_id)
        assert not result.halted, result.diagnostics
        assert result.retval == 432
        assert len(result.subgraph_intervals) == 2  # both executed chunks

    def test_chunk_replay_regenerates_interior(self):
        record = Machine(compiled_big(), seed=0, mode="logged").run()
        index = build_interval_index(record.logs[0])
        emulation = EmulationPackage(record)
        for info in index.values():
            if info.block_kind != "chunk":
                continue
            result = emulation.replay(0, info.interval_id, uid_base=info.interval_id * 1000)
            assert not result.halted, result.diagnostics
            assert not [d for d in result.diagnostics if "divergence" in d]
            assert result.event_count >= 3

    def test_session_expands_chunk_subgraphs(self):
        record = Machine(compiled_big(), seed=0, mode="logged").run()
        session = PPDSession(record)
        session.start()
        # Expand big(), then the chunk sub-graph nodes inside it.
        big_node = next(
            n for n in session.graph.nodes.values() if n.label == "big()"
        )
        session.expand_subgraph(big_node.uid)
        chunk_nodes = [
            n
            for n in session.graph.nodes.values()
            if n.kind == "subgraph" and n.label.startswith("chunk")
        ]
        assert len(chunk_nodes) == 2
        before = len(session.graph.nodes)
        session.expand_subgraph(chunk_nodes[0].uid)
        assert len(session.graph.nodes) > before

    def test_no_return_proc_fully_chunked(self):
        source = """
proc main() {
    int a = 1;
    int b = a + 1;
    int c = b + 1;
    int d = c + 1;
    int e = d + 1;
    int f = e + 1;
    print(f);
}
"""
        policy = EBlockPolicy(split_proc_min_stmts=5, split_chunk_stmts=3)
        compiled = compile_program(source, policy=policy)
        record = Machine(compiled, seed=0, mode="logged").run()
        assert record.output[0][1] == "6"
        index = build_interval_index(record.logs[0])
        assert sum(1 for i in index.values() if i.block_kind == "chunk") >= 2
