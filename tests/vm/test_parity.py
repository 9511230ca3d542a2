"""Whole-system differential parity: every shipped workload and example
program is byte-identical on the VM and on the reference tree walker
(:mod:`tests.oracle`), and e-block replay agrees under both."""

from __future__ import annotations

import glob
import os

import pytest

from repro import Machine, compile_program
from repro.core import EmulationPackage
from repro.runtime import build_interval_index
from repro import workloads

from tests.oracle import oracle
from tests.vm.util import assert_engines_agree

WORKLOADS = {
    "bank_race": (workloads.bank_race(2, 2), None),
    "bank_safe": (workloads.bank_safe(2, 2), None),
    "buggy_average": (workloads.buggy_average(5), [10, 20, 30, 40, 50]),
    "compute_heavy": (workloads.compute_heavy(3, 4), None),
    "dining_philosophers": (workloads.dining_philosophers(3), None),
    "dining_courteous": (workloads.dining_philosophers(3, courteous=True), None),
    "fib_recursive": (workloads.fib_recursive(6), None),
    "fig41": (workloads.fig41_program(), None),
    "fig53": (workloads.fig53_program(), None),
    "fig61": (workloads.fig61_program(), None),
    "matrix_sum": (workloads.matrix_sum(3), None),
    "nested_calls": (workloads.nested_calls(), None),
    "pipeline": (workloads.pipeline(2, 3), None),
    "producer_consumer": (workloads.producer_consumer(4, 1), None),
    "rpc_server": (workloads.rpc_server(), None),
}

EXAMPLES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "..", "examples", "*.pcl"))
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_parity_logged(name):
    source, inputs = WORKLOADS[name]
    assert_engines_agree(source, inputs=inputs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_parity_plain_other_seed(name):
    source, inputs = WORKLOADS[name]
    assert_engines_agree(source, seed=3, mode="plain", trace=False, inputs=inputs)


@pytest.mark.parametrize("path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES])
def test_example_parity(path):
    with open(path) as handle:
        source = handle.read()
    reference, _ = assert_engines_agree(source)
    assert reference.failure is None and reference.deadlock is None, path


def test_examples_exist():
    """The vm-vs-oracle CI job globs examples/*.pcl — keep the set non-empty."""
    assert len(EXAMPLES) >= 6, EXAMPLES


def _replay_transcripts(record):
    package = EmulationPackage(record)
    transcripts = []
    for pid, log in sorted(record.logs.items()):
        for info in build_interval_index(log).values():
            if info.is_open:
                continue
            result = package.replay(pid, info.interval_id, uid_base=0)
            transcripts.append(
                (
                    pid,
                    info.interval_id,
                    result.halted,
                    result.failure_message,
                    [event.to_json() for event in result.events],
                    sorted(result.final_shared.items()),
                    result.diagnostics,
                )
            )
    return transcripts


def test_vm_replays_recorded_intervals():
    """A record produced by the oracle replays identically when the
    emulation package re-executes its e-blocks on the VM."""
    source, inputs = WORKLOADS["producer_consumer"]
    with oracle():
        record = Machine(compile_program(source), seed=0, mode="logged", inputs=inputs).run()
        reference = _replay_transcripts(record)
    assert _replay_transcripts(record) == reference


def test_engine_validation():
    """The engine selector is gone: passing one fails loudly instead of
    being silently ignored."""
    compiled = compile_program(WORKLOADS["fig41"][0])
    with pytest.raises(TypeError):
        Machine(compiled, engine="vm")
    with pytest.raises(TypeError):
        EmulationPackage(Machine(compiled, seed=0, mode="logged").run(), engine="vm")
