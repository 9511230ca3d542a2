"""The MPI-style workload family: generation, execution, and fault seeding.

Every family must compile and run to completion (no failure, no deadlock)
clean and under every supported fault — a seeded fault is a *behavioural*
deviation, never a hang — and the per-rank behaviour must be a pure
function of the program text (identical output for any scheduler seed is
covered by the vm-vs-oracle gate; here we check the family-level contract).
"""

import pytest

from repro import Machine, compile_program
from repro.workloads.mpi import (
    MPI_FAMILIES,
    broadcast_tree,
    master_worker,
    mpi_workload,
    ring_allreduce,
    scatter_gather,
)


def run(source, seed=0):
    return Machine(compile_program(source), seed=seed).run()


def text(record) -> str:
    return " ".join(line for _, line in record.output)


def assert_completed(record, context=""):
    assert record.failure is None, (context, record.failure)
    assert record.deadlock is None, (context, record.deadlock)


class TestRegistry:
    def test_all_four_families_registered(self):
        assert set(MPI_FAMILIES) == {
            "scatter_gather",
            "ring_allreduce",
            "broadcast_tree",
            "master_worker",
        }

    def test_generators_expose_their_faults(self):
        assert scatter_gather.FAULTS == {"wrong_op", "skew"}
        assert ring_allreduce.FAULTS == {"wrong_op"}
        assert broadcast_tree.FAULTS == {"extra_ack", "wrong_op"}
        assert master_worker.FAULTS == {"drop_result", "skew"}

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown MPI workload family"):
            mpi_workload("alltoall")

    def test_deviant_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            scatter_gather(4, deviant=4)
        with pytest.raises(ValueError, match="out of range"):
            ring_allreduce(4, deviant=-1)

    def test_unsupported_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            ring_allreduce(4, deviant=1, fault="drop_result")

    def test_dispatcher_defaults_to_first_fault(self):
        # fault=None with a deviant picks the lexically first supported kind.
        assert mpi_workload("master_worker", 4, deviant=1) == master_worker(
            4, deviant=1, fault="drop_result"
        )


class TestCleanRuns:
    @pytest.mark.parametrize("family", sorted(MPI_FAMILIES))
    def test_family_completes(self, family):
        record = run(mpi_workload(family, 6))
        assert_completed(record, family)
        assert record.output, family
        # one proc per rank plus main
        assert len(record.process_names) == 7

    def test_scatter_gather_total(self):
        # acc = 1 + sum of four chunk values (r+k) % 5 + 4 per rank.
        ranks, items = 5, 4
        expected = sum(
            1 + sum((r + k) % 5 + 4 for k in range(items)) for r in range(ranks)
        )
        record = run(scatter_gather(ranks, items))
        assert f"total = {expected}" in text(record)

    def test_ring_allreduce_is_an_allreduce(self):
        # Every rank ends with the same full sum of contributions 2..ranks+1.
        ranks = 5
        full = sum(r + 2 for r in range(ranks))
        record = run(ring_allreduce(ranks))
        assert f"total = {ranks * full}" in text(record)

    def test_broadcast_reaches_every_rank(self):
        # All ranks ack checksum(payload): popcount(21) = 3, 8 ranks -> 24.
        record = run(broadcast_tree(8, payload=21))
        assert "checks = 24" in text(record)

    def test_master_worker_progress_counts_tasks(self):
        record = run(master_worker(4, 3))
        assert "progress = 12" in text(record)


class TestFaultedRuns:
    @pytest.mark.parametrize(
        "family,fault",
        [(f, fault) for f in sorted(MPI_FAMILIES) for fault in sorted(MPI_FAMILIES[f][1])],
    )
    def test_every_fault_completes_without_deadlock(self, family, fault):
        record = run(mpi_workload(family, 6, deviant=2, fault=fault))
        assert_completed(record, (family, fault))

    def test_wrong_op_changes_the_answer(self):
        clean = run(scatter_gather(5)).output
        faulty = run(scatter_gather(5, deviant=2, fault="wrong_op")).output
        assert clean != faulty

    def test_drop_result_loses_exactly_one_result(self):
        clean = text(run(master_worker(4, 3)))
        faulty = text(run(master_worker(4, 3, deviant=1, fault="drop_result")))
        assert clean != faulty
        # the sentinel protocol still drains: progress is unaffected
        assert "progress = 12" in faulty

    def test_extra_ack_still_gathers(self):
        # main still collects exactly `ranks` acks; the extra one stays queued.
        record = run(broadcast_tree(6, deviant=3, fault="extra_ack"))
        assert_completed(record)


class TestScale:
    @pytest.mark.parametrize("family", sorted(MPI_FAMILIES))
    def test_tens_of_processes(self, family):
        record = run(mpi_workload(family, 24))
        assert_completed(record, family)
        assert len(record.process_names) == 25
        # real sync traffic for the graph layer, not a toy trace
        assert len(record.history.nodes) > 100

    def test_output_is_seed_independent(self):
        source = ring_allreduce(8)
        outputs = {tuple(run(source, seed=seed).output) for seed in (0, 7, 123)}
        assert len(outputs) == 1
