"""Faulty-process localization: signatures, consensus, ranking, surfaces.

The contract under test: signatures are schedule-independent (identical
across scheduler seeds, and on the VM and the reference tree walker),
clean process groups localize as clean, a seeded deviant ranks first,
and the ``localize`` report is
byte-identical through the in-session command, the ``ppd localize`` CLI,
and the server verb.
"""

import json
import os
import tempfile

import pytest

from repro import Machine, compile_program, obs
from repro.analysis.localize import (
    MIN_GROUP,
    build_consensus,
    canonical_name,
    extract_signature,
    localize_record,
)
from repro.core.cli import PPDCommandLine
from repro.core.parallel_graph import ParallelDynamicGraph
from repro.runtime.persist import load_record, save_record
from repro.workloads.mpi import (
    broadcast_tree,
    master_worker,
    mpi_workload,
    ring_allreduce,
    scatter_gather,
)

from tests.oracle import oracle


def run(source, seed=0):
    return Machine(compile_program(source), seed=seed).run()


def signatures_of(record):
    graph = ParallelDynamicGraph.from_history(record.history)
    return {
        pid: extract_signature(graph, pid, name)
        for pid, name in record.process_names.items()
    }


class TestCanonicalization:
    def test_digits_fold_to_hash(self):
        assert canonical_name("res7") == "res#"
        assert canonical_name("rank12") == "rank#"
        assert canonical_name("link0") == canonical_name("link31")
        assert canonical_name("main") == "main"

    def test_replica_signatures_are_identical(self):
        # Clean scatter/gather ranks are behavioural replicas: after
        # canonicalization their signatures agree feature by feature.
        sigs = signatures_of(run(scatter_gather(5)))
        ranks = [s for s in sigs.values() if s.group == "rank#"]
        assert len(ranks) == 5
        first = ranks[0]
        for sig in ranks[1:]:
            assert sig.ops == first.ops
            assert sig.sends == first.sends
            assert sig.recvs == first.recvs
            assert sig.work == first.work

    def test_unblock_nodes_are_excluded(self):
        # Rendezvous-free traffic still produces unblock nodes when
        # buffers fill; none may leak into a signature's op sequence.
        sigs = signatures_of(run(ring_allreduce(5)))
        for sig in sigs.values():
            assert not any(op.startswith("unblock") for op in sig.ops), sig.ops


class TestConsensusAndRanking:
    @pytest.mark.parametrize(
        "family", ["scatter_gather", "ring_allreduce", "broadcast_tree", "master_worker"]
    )
    def test_clean_group_localizes_clean(self, family):
        result = localize_record(run(mpi_workload(family, 8)))
        assert result.is_clean, [(s.pid, s.score) for s in result.top(3)]

    @pytest.mark.parametrize(
        "family,fault,member",
        [
            ("scatter_gather", "wrong_op", "rank3"),
            ("scatter_gather", "skew", "rank3"),
            ("ring_allreduce", "wrong_op", "rank3"),
            ("broadcast_tree", "extra_ack", "rank3"),
            ("broadcast_tree", "wrong_op", "rank3"),
            ("master_worker", "drop_result", "worker3"),
            ("master_worker", "skew", "worker3"),
        ],
    )
    def test_seeded_deviant_ranks_first(self, family, fault, member):
        record = run(mpi_workload(family, 8, deviant=3, fault=fault))
        result = localize_record(record)
        top = result.top(3)
        assert top, "no suspect found"
        assert top[0].name == member, [(s.name, s.score) for s in top]

    def test_extra_ack_indicts_ops_and_shape(self):
        record = run(broadcast_tree(8, deviant=3, fault="extra_ack"))
        suspect = localize_record(record).top(1)[0]
        assert suspect.features["ops"] > 0
        assert suspect.features["shape"] > 0
        assert any("extra send(ack)" in line for line in suspect.diff)

    def test_skew_indicts_work(self):
        record = run(master_worker(8, deviant=3, fault="skew"))
        suspect = localize_record(record).top(1)[0]
        assert suspect.features["work"] > 0

    def test_small_groups_are_skipped_not_judged(self):
        # Two replicas cannot out-vote each other: the group is reported
        # as skipped rather than producing arbitrary suspects.
        source = """
chan c0[1];
chan c1[1];
proc echo0() { send(c0, 1); }
proc echo1() { send(c1, 1); }
proc main() {
    spawn echo0();
    spawn echo1();
    int a = recv(c0);
    int b = recv(c1);
    join();
    print(a + b);
}
"""
        result = localize_record(run(source))
        assert 2 < MIN_GROUP
        assert result.suspects == []
        assert result.skipped == {"echo#": [1, 2], "main": [0]}
        assert "too few for a consensus" in result.render()

    def test_consensus_out_votes_the_deviant(self):
        record = run(scatter_gather(8, deviant=3, fault="skew"))
        sigs = signatures_of(record)
        members = sorted(
            (s for s in sigs.values() if s.group == "rank#"), key=lambda s: s.pid
        )
        consensus = build_consensus("rank#", members)
        # the deviant's shorter reduce loop must not drag the median down
        healthy = [s for s in members if s.name != "rank3"]
        assert consensus.work == healthy[0].work


class TestDeterminism:
    def verdicts(self, source, seed):
        result = localize_record(run(source, seed=seed))
        return [(s.pid, s.name, round(s.score, 12)) for s in result.suspects]

    @pytest.mark.parametrize("family", ["scatter_gather", "master_worker"])
    def test_ranking_is_seed_independent(self, family):
        source = mpi_workload(family, 6, deviant=2)
        base = self.verdicts(source, 0)
        assert base == self.verdicts(source, 31)
        assert base == self.verdicts(source, 1234)

    @pytest.mark.parametrize("family", ["ring_allreduce", "broadcast_tree"])
    def test_ranking_is_engine_independent(self, family):
        """The VM ranks exactly like the reference tree walker."""
        source = mpi_workload(family, 6, deviant=2)
        with oracle():
            reference = self.verdicts(source, 0)
        assert self.verdicts(source, 0) == reference

    def test_ranking_survives_persistence(self):
        # Segment step counts are persisted, so a rehydrated record (the
        # server's save/load path) localizes identically.
        record = run(master_worker(6, deviant=4, fault="skew"))
        direct = localize_record(record)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "record.json")
            save_record(record, path)
            loaded = localize_record(load_record(path))
        assert [(s.pid, s.score) for s in direct.suspects] == [
            (s.pid, s.score) for s in loaded.suspects
        ]


class TestObsCounters:
    def test_counters_count_the_pipeline(self):
        record = run(scatter_gather(5))
        with obs.capture() as registry:
            localize_record(record)
        processes = len(record.process_names)
        assert registry.value("graph.subgraph_extractions") == processes
        assert registry.value("graph.signature_builds") == processes
        # only grouped processes are compared (main is a skipped singleton)
        assert registry.value("graph.consensus_compares") == processes - 1

    def test_zero_leak_when_disabled(self):
        record = run(scatter_gather(5))
        obs.reset()  # drop counters a prior capture() left behind
        assert not obs.is_enabled()
        localize_record(record)
        assert len(obs.registry()) == 0


class TestSurfaces:
    def test_in_session_command_formats(self):
        record = run(broadcast_tree(8, deviant=5, fault="extra_ack"))
        cli = PPDCommandLine(record, autostart=False)
        report = cli.execute("localize")
        assert "top 1 suspect(s):" in report
        assert "P6 (rank5)" in report
        body = json.loads(cli.execute("localize 2 json"))
        assert body["clean"] is False
        assert body["suspects"][0]["name"] == "rank5"
        diff = cli.execute("localize diff 6")
        assert "vs consensus of group 'rank#'" in diff
        assert "usage:" in cli.execute("localize nope")
        assert "usage:" in cli.execute("localize diff")

    def test_localize_in_help(self):
        record = run(scatter_gather(4))
        cli = PPDCommandLine(record, autostart=False)
        assert "localize" in cli.execute("help")

    def test_cli_and_session_and_server_agree(self):
        from repro.server import DebugClient, DebugService

        source = master_worker(6, deviant=1, fault="drop_result")
        record = run(source)
        local = PPDCommandLine(record, autostart=False).execute("localize 3")

        service = DebugService(port=0)
        service.start()
        try:
            with DebugClient.connect(f"{service.host}:{service.port}") as client:
                session = client.open_program(source, seed=0)
                remote = session.execute("localize 3")
                session.close()
        finally:
            service.shutdown()
        assert remote == local

    def test_ppd_localize_exit_codes(self, tmp_path, capsys):
        from repro.core.cli import main

        clean = tmp_path / "clean.pcl"
        clean.write_text(ring_allreduce(5))
        faulty = tmp_path / "faulty.pcl"
        faulty.write_text(ring_allreduce(5, deviant=2, fault="wrong_op"))

        assert main(["localize", str(clean)]) == 0
        assert "no behavioural deviant" in capsys.readouterr().out
        assert main(["localize", str(faulty), "--top", "1"]) == 1
        out = capsys.readouterr().out
        assert "rank2" in out

    def test_ppd_localize_on_record_with_json_and_diff(self, tmp_path, capsys):
        from repro.core.cli import main

        record = run(scatter_gather(6, deviant=4, fault="skew"))
        path = tmp_path / "record.json"
        save_record(record, str(path))

        assert main(["localize", str(path), "--record", "--json"]) == 1
        body = json.loads(capsys.readouterr().out)
        assert body["suspects"][0]["name"] == "rank4"

        assert main(["localize", str(path), "--record", "--diff", "5"]) == 1
        assert "rank4" in capsys.readouterr().out
