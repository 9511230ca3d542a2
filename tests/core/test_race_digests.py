"""Race-scan output pinned by digest.

Every race the scans report — variable, kind, segments, processes and
the first access sites of each side — and their work counters are hashed
per case: bank_race(32, 75) over five seeds (race_hunt's program) and
every shipped workload and example.  A change to how the scans find or
describe races must leave every digest unchanged.  Regenerate only for
an intended change in what a scan reports:
``PYTHONPATH=src python -m tests.core.test_race_digests``.
"""

import hashlib
import importlib.util
import pathlib

import pytest

from repro import compile_program
from repro.core import find_races_indexed, find_races_naive
from repro.core.cli import PPDCommandLine
from repro.runtime import Machine
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


def _example_source(name: str) -> str:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOURCE


def cases() -> dict[str, tuple[str, int]]:
    """Case name -> (PCL source, scheduler seed)."""
    table = {f"bank_race(32,75)@{seed}": (bank_race(32, 75), seed) for seed in range(5)}
    workloads = {
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
        "mpi_ring_allreduce": ring_allreduce(5),
        "mpi_broadcast_tree": broadcast_tree(6),
        "mpi_master_worker": master_worker(4, 2),
    }
    table.update({name: (source, 0) for name, source in workloads.items()})
    for path in sorted(EXAMPLES_DIR.glob("*.pcl")):
        table[path.name] = (path.read_text(), 0)
    for name in ("message_pipeline", "whatif_replay"):
        table[f"{name}.py"] = (_example_source(name), 0)
    return table


def scan_digest(source: str, seed: int) -> str:
    """SHA-256 prefix over the naive, indexed and candidate-pruned scans
    of one run, and the ``races`` command's text."""
    record = Machine(compile_program(source), seed=seed).run()
    cli = PPDCommandLine(record, autostart=False)
    digest = hashlib.sha256()
    for scan in (
        find_races_naive(record.history),
        find_races_indexed(record.history),
        cli.session.races(),
    ):
        digest.update(repr((scan.pairs_examined, scan.order_checks, scan.pairs_pruned)).encode())
        for race in scan.races:
            digest.update(repr(race).encode())
    digest.update(cli.execute("races").encode())
    return digest.hexdigest()[:16]


#: Generated with the scans as they stood before the per-pair work was
#: cut (the site index, the direct write-set test, the id comparison),
#: with ``order_checks`` counting one happened-before test per pair
#: tested in every scan.
DIGESTS = {
    'bank_race': '44577ebac4e15b62',
    'bank_race(32,75)@0': 'c274f4dff021207c',
    'bank_race(32,75)@1': 'c274f4dff021207c',
    'bank_race(32,75)@2': 'c274f4dff021207c',
    'bank_race(32,75)@3': 'c274f4dff021207c',
    'bank_race(32,75)@4': 'c274f4dff021207c',
    'bank_safe': '98ec0a6564795b1a',
    'buggy_average': '64e4e9d0851dfd93',
    'calc_service.pcl': '478489b0e47b0dc1',
    'compute_heavy': '64e4e9d0851dfd93',
    'dining_philosophers': '1a2b53f5a9283bae',
    'dining_philosophers_courteous': '1a2b53f5a9283bae',
    'fib_recursive': '64e4e9d0851dfd93',
    'fig41': '64e4e9d0851dfd93',
    'fig53': '08217061335043a9',
    'fig61': '30777d8b470e29e7',
    'float_math.pcl': '64e4e9d0851dfd93',
    'locked_counters.pcl': '020f896f1bb630f1',
    'matrix_sum': '64e4e9d0851dfd93',
    'message_pipeline.py': 'c41ca669ccacce49',
    'mpi_broadcast_tree': '4f4eda7cb0723e87',
    'mpi_master_worker': 'a921d3f200ea65e3',
    'mpi_ring_allreduce': '7379eb79e3bea161',
    'mpi_scatter_gather': '46eff5c3bf4976f8',
    'nested_calls': '64e4e9d0851dfd93',
    'pipeline': '4c3e8c66cb71524c',
    'producer_consumer': '21b2952ffe94b8cb',
    'ring_reduce.pcl': 'c7911a793c66a83a',
    'rpc_server': '5cb8d740ecd7a538',
    'semaphore_pipeline.pcl': '60c5b55982d03fb5',
    'sieve.pcl': '64e4e9d0851dfd93',
    'token_ring.pcl': '4c3e8c66cb71524c',
    'whatif_replay.py': 'dde1c473cde81265',
}


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_race_scan_digest(name):
    assert scan_digest(*CASES[name]) == DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case, (case_source, case_seed) in sorted(CASES.items()):
        print(f"    {case!r}: {scan_digest(case_source, case_seed)!r},")
