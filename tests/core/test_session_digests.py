"""Session answers pinned by digest.

Each case runs one program under one seed and opens a started debugging
session on it.  The case's digest hashes the text of every command in a
fixed script:

* ``expandable``;
* ``localize``, ``localize json`` and ``localize diff <pid>`` for every
  process;
* ``history <var>`` for every shared variable;
* ``why <var>`` for every shared variable and every local of ``main``.

The cases are bank_race(32, 75) over five seeds (race_hunt's program),
the four message-passing families at eight ranks, clean and with each
of their faults, ring_allreduce(32) with a deviant rank, and every
workload generator and example.  A change to how a session builds its
graphs or answers these questions must leave every digest unchanged.
Regenerate only for an intended change in what a command prints:
``PYTHONPATH=src python -m tests.core.test_session_digests``.
"""

import hashlib

import pytest

from repro import compile_program
from repro.core.cli import PPDCommandLine
from repro.runtime import Machine
from repro.workloads import MPI_FAMILIES, mpi_workload, ring_allreduce
from tests.core.test_race_digests import cases as race_cases

#: The rank each faulty message-passing case makes deviant.
DEVIANT = 3


def cases() -> dict[str, tuple[str, int]]:
    """Case name -> (PCL source, scheduler seed)."""
    table = dict(race_cases())
    for family, (_, faults) in sorted(MPI_FAMILIES.items()):
        table[f"{family}(8)"] = (mpi_workload(family, 8), 0)
        for fault in sorted(faults):
            table[f"{family}(8,{fault}@{DEVIANT})"] = (
                mpi_workload(family, 8, deviant=DEVIANT, fault=fault),
                0,
            )
    table["ring_allreduce(32,deviant=5)"] = (ring_allreduce(32, deviant=5), 0)
    return table


def script(cli: PPDCommandLine) -> list[str]:
    """The commands one case's digest covers, in the order they run."""
    record = cli.record
    table = record.compiled.table
    shared = sorted(table.shared)
    mains = sorted(table.locals.get("main", {}))
    lines = ["expandable", "localize", "localize json"]
    lines += [f"localize diff {pid}" for pid in sorted(record.process_names)]
    lines += [f"history {var}" for var in shared]
    lines += [f"why {var}" for var in shared + mains]
    return lines


def session_digest(source: str, seed: int) -> str:
    """SHA-256 prefix over every (command, answer) pair of :func:`script`."""
    record = Machine(compile_program(source), seed=seed).run()
    cli = PPDCommandLine(record)
    digest = hashlib.sha256()
    for line in script(cli):
        digest.update(repr((line, cli.execute(line))).encode())
    return digest.hexdigest()[:16]


#: Generated with the session as it stood before the localize signatures,
#: the dynamic graph's control dependence and ``history`` were reworked.
DIGESTS = {
    'bank_race': 'f193fa21d4c5f41b',
    'bank_race(32,75)@0': '58e80469d20ac300',
    'bank_race(32,75)@1': '16eeafce2c3937ad',
    'bank_race(32,75)@2': '2c951d50ab741101',
    'bank_race(32,75)@3': '16eeafce2c3937ad',
    'bank_race(32,75)@4': 'c3c0437607fa2b85',
    'bank_safe': '37f3aa12fba13edd',
    'broadcast_tree(8)': 'ece45286a6215866',
    'broadcast_tree(8,extra_ack@3)': 'd8b088100c0976e5',
    'broadcast_tree(8,wrong_op@3)': '7ec55dd25702f94c',
    'buggy_average': '2180812e63ac740c',
    'calc_service.pcl': 'ff33e39f95bd878e',
    'compute_heavy': 'e364bd01c74d57d8',
    'dining_philosophers': '72b3c7e718662182',
    'dining_philosophers_courteous': '568c717b9a1777b2',
    'fib_recursive': 'b0043fdae95d720e',
    'fig41': '18b725dde1cebb6b',
    'fig53': 'cc2946a20cbda8fb',
    'fig61': '8b24074bf863e906',
    'float_math.pcl': '10726dd132da7ebb',
    'locked_counters.pcl': 'eefc1aa4d7b21bb8',
    'master_worker(8)': 'fa17fc9c21c9a11e',
    'master_worker(8,drop_result@3)': '71697bdac56d776c',
    'master_worker(8,skew@3)': 'a2bc0c04cd98a990',
    'matrix_sum': '1dacbb5e64fbfbf1',
    'message_pipeline.py': '9b83f9c2b17115bf',
    'mpi_broadcast_tree': '0af9f6f6e0e1174a',
    'mpi_master_worker': '6fe8823cf23e85db',
    'mpi_ring_allreduce': '45e32b38232b6b9e',
    'mpi_scatter_gather': 'd495ebbc4bd7487c',
    'nested_calls': '94156cac35516240',
    'pipeline': '733ec602673b1f25',
    'producer_consumer': '91b54dcf7b102976',
    'ring_allreduce(32,deviant=5)': 'afa43dfa8ed81477',
    'ring_allreduce(8)': '31d6e440d530e404',
    'ring_allreduce(8,wrong_op@3)': '74ac6acbbe300825',
    'ring_reduce.pcl': 'f228387b281a1c77',
    'rpc_server': 'ce1662c642a047c6',
    'scatter_gather(8)': '0c3ed32b467abecb',
    'scatter_gather(8,skew@3)': 'e4e26038ba0526cc',
    'scatter_gather(8,wrong_op@3)': '745be4d24600279e',
    'semaphore_pipeline.pcl': '6568b0c330579051',
    'sieve.pcl': 'fc3584849eb2d73a',
    'token_ring.pcl': 'fc1db1fffa93b1e1',
    'whatif_replay.py': 'fc0f11f535d95df9',
}


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_session_digest(name):
    assert session_digest(*CASES[name]) == DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case, (case_source, case_seed) in sorted(CASES.items()):
        print(f"    {case!r}: {session_digest(case_source, case_seed)!r},")
