"""Lint smoke: the repo's own workloads and examples stay lint-clean.

Intentionally-buggy demo programs keep exactly their designed findings
(bank_race races, dining philosophers' lock cycle, fig 6.1's race); every
other shipped program must produce no error-severity findings.  CI runs
this file, so a new workload or example that introduces an unexplained
finding fails the build until it is fixed or ``// lint: ok``-annotated.
"""

import importlib.util
import pathlib

import pytest

from repro import compile_program
from repro.analysis.lint import lint_compiled
from repro.workloads import (
    bank_race,
    bank_safe,
    broadcast_tree,
    buggy_average,
    compute_heavy,
    dining_philosophers,
    fib_recursive,
    fig41_program,
    fig53_program,
    fig61_program,
    master_worker,
    matrix_sum,
    nested_calls,
    pipeline,
    producer_consumer,
    ring_allreduce,
    rpc_server,
    scatter_gather,
)

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

#: workload/example -> the error codes its design *requires* it to flag.
EXPECTED_ERRORS = {
    "bank_race": {"race"},
    "dining_philosophers": {"lock-cycle"},
    "fig61": {"race"},
}

WORKLOADS = {
    "bank_race": bank_race(2, 2),
    "bank_safe": bank_safe(2, 2),
    "buggy_average": buggy_average(5),
    "compute_heavy": compute_heavy(3, 4),
    "dining_philosophers": dining_philosophers(3),
    "dining_philosophers_courteous": dining_philosophers(3, courteous=True),
    "fib_recursive": fib_recursive(6),
    "fig41": fig41_program(),
    "fig53": fig53_program(),
    "fig61": fig61_program(),
    "matrix_sum": matrix_sum(3),
    "nested_calls": nested_calls(),
    "pipeline": pipeline(2, 3),
    "producer_consumer": producer_consumer(4, 1),
    "rpc_server": rpc_server(),
    "mpi_scatter_gather": scatter_gather(5),
    "mpi_scatter_gather_skew": scatter_gather(5, deviant=2, fault="skew"),
    "mpi_ring_allreduce": ring_allreduce(5),
    "mpi_ring_wrong_op": ring_allreduce(5, deviant=1, fault="wrong_op"),
    "mpi_broadcast_tree": broadcast_tree(6),
    "mpi_broadcast_extra_ack": broadcast_tree(6, deviant=3, fault="extra_ack"),
    "mpi_master_worker": master_worker(4, 2),
    "mpi_master_worker_drop": master_worker(4, 2, deviant=1, fault="drop_result"),
}


def example_source(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOURCE


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_lints_as_designed(name):
    result = lint_compiled(compile_program(WORKLOADS[name]))
    error_codes = {d.code for d in result.errors}
    assert error_codes == EXPECTED_ERRORS.get(name, set()), result.render()


@pytest.mark.parametrize("name", ["message_pipeline", "whatif_replay"])
def test_example_sources_are_error_free(name):
    result = lint_compiled(compile_program(example_source(name)))
    assert not result.errors, result.render()


PCL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.pcl"))


def test_pcl_examples_exist():
    """The vm-vs-oracle CI job runs every examples/*.pcl on the VM and the oracle."""
    assert len(PCL_EXAMPLES) >= 6, PCL_EXAMPLES


@pytest.mark.parametrize("path", PCL_EXAMPLES, ids=[p.stem for p in PCL_EXAMPLES])
def test_pcl_examples_are_error_free(path):
    result = lint_compiled(compile_program(path.read_text()))
    assert not result.errors, result.render()


def test_intended_races_not_suppressed_by_accident():
    """The designed findings stay visible — a regression that silences
    bank_race's race or dining's cycle would defeat the demos."""
    racy = lint_compiled(compile_program(bank_race(2, 2)))
    assert racy.by_code("race")
    cyclic = lint_compiled(compile_program(dining_philosophers(3)))
    assert cyclic.by_code("lock-cycle")
