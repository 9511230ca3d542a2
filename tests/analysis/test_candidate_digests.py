"""The static race-candidate set pinned by digest.

For every race-digest case (bank_race(32, 75), every shipped workload and
example), E14's ring_counters(6, 3), master_worker(48) and
ring_allreduce(32), the candidate set's contents are hashed: the
variables, the pairs in order, the sites by variable (in order), the
conflict map and the known sites.  The ``refined`` leg first drops every
pair with an endpoint the bytecode effect analysis never classifies
SHARED, as the refinement the analysis once applied did, and hashes the
number dropped where the set's effect-pruned count stood (the
``unrefined`` leg hashes a literal 0 there).  Both legs pin the same
value, so they also pin that the deleted refinement would drop nothing.
A change to how the candidates are computed must leave every digest
unchanged.  Regenerate only for an intended change in what the analysis
reports:
``PYTHONPATH=src python -m tests.analysis.test_candidate_digests``.
"""

import hashlib

import pytest

from repro import compile_program
from repro.analysis.effects import analyze_program
from repro.analysis.racecands import candidates_from_compiled
from repro.workloads import master_worker, ring_allreduce
from tests.core.test_race_digests import cases as race_digest_cases
from tests.perf.test_order_index import _ring_counters


def cases() -> dict[str, str]:
    """Case name -> PCL source."""
    table = {name: source for name, (source, _seed) in race_digest_cases().items()}
    table["ring_counters(6,3)"] = _ring_counters(6, 3)
    table["master_worker(48)"] = master_worker(48)
    table["ring_allreduce(32)"] = ring_allreduce(32)
    return table


def candidate_digest(source: str, refine: bool) -> str:
    """SHA-256 prefix over every field of the candidate set that a scan,
    lint or ``candidates`` reads."""
    compiled = compile_program(source)
    cands = candidates_from_compiled(compiled)
    pairs = cands.pairs
    if refine:
        shared = analyze_program(compiled).shared_sites
        pairs = [
            pair
            for pair in pairs
            if all(
                (site.proc, site.node_id, site.var, site.write) in shared
                for site in (pair.site_a, pair.site_b)
            )
        ]
    digest = hashlib.sha256()
    for part in (
        sorted(cands.variables),
        [(p.variable, p.kind, p.site_a, p.site_b) for p in pairs],
        list(cands.sites_by_var.items()),
        sorted((key, sorted(nodes)) for key, nodes in cands.conflicts_by_node.items()),
        sorted(cands.known_sites),
        len(cands.pairs) - len(pairs),
        cands.site_cap,
    ):
        digest.update(repr(part).encode())
    return digest.hexdigest()[:16]


#: Generated with the analysis as it stood before it gathered its facts in
#: one walk per procedure (the oracle copy in tests/oracle/racecands.py).
DIGESTS = {
    ('bank_race', True): 'a67a05452608344c',
    ('bank_race', False): 'a67a05452608344c',
    ('bank_race(32,75)@0', True): 'c66792ddd9fabd0f',
    ('bank_race(32,75)@0', False): 'c66792ddd9fabd0f',
    ('bank_race(32,75)@1', True): 'c66792ddd9fabd0f',
    ('bank_race(32,75)@1', False): 'c66792ddd9fabd0f',
    ('bank_race(32,75)@2', True): 'c66792ddd9fabd0f',
    ('bank_race(32,75)@2', False): 'c66792ddd9fabd0f',
    ('bank_race(32,75)@3', True): 'c66792ddd9fabd0f',
    ('bank_race(32,75)@3', False): 'c66792ddd9fabd0f',
    ('bank_race(32,75)@4', True): 'c66792ddd9fabd0f',
    ('bank_race(32,75)@4', False): 'c66792ddd9fabd0f',
    ('bank_safe', True): 'e375bda7307de82d',
    ('bank_safe', False): 'e375bda7307de82d',
    ('buggy_average', True): '81b70e77e3104f74',
    ('buggy_average', False): '81b70e77e3104f74',
    ('calc_service.pcl', True): '81b70e77e3104f74',
    ('calc_service.pcl', False): '81b70e77e3104f74',
    ('compute_heavy', True): 'dafddbe6ec00aa36',
    ('compute_heavy', False): 'dafddbe6ec00aa36',
    ('dining_philosophers', True): '27cb639d0e32bcfe',
    ('dining_philosophers', False): '27cb639d0e32bcfe',
    ('dining_philosophers_courteous', True): '27cb639d0e32bcfe',
    ('dining_philosophers_courteous', False): '27cb639d0e32bcfe',
    ('fib_recursive', True): '81b70e77e3104f74',
    ('fib_recursive', False): '81b70e77e3104f74',
    ('fig41', True): '81b70e77e3104f74',
    ('fig41', False): '81b70e77e3104f74',
    ('fig53', True): '5dcb9ee06f15b482',
    ('fig53', False): '5dcb9ee06f15b482',
    ('fig61', True): 'a713b7b8ff886867',
    ('fig61', False): 'a713b7b8ff886867',
    ('float_math.pcl', True): '81b70e77e3104f74',
    ('float_math.pcl', False): '81b70e77e3104f74',
    ('locked_counters.pcl', True): '132e00bf5a9a0d3a',
    ('locked_counters.pcl', False): '132e00bf5a9a0d3a',
    ('master_worker(48)', True): '9365a1b4408b1fcd',
    ('master_worker(48)', False): '9365a1b4408b1fcd',
    ('matrix_sum', True): '36e919822ab8f35a',
    ('matrix_sum', False): '36e919822ab8f35a',
    ('message_pipeline.py', True): '6086955d5ee2c13d',
    ('message_pipeline.py', False): '6086955d5ee2c13d',
    ('mpi_broadcast_tree', True): '81b70e77e3104f74',
    ('mpi_broadcast_tree', False): '81b70e77e3104f74',
    ('mpi_master_worker', True): 'b1ae7ecdb7ade026',
    ('mpi_master_worker', False): 'b1ae7ecdb7ade026',
    ('mpi_ring_allreduce', True): '81b70e77e3104f74',
    ('mpi_ring_allreduce', False): '81b70e77e3104f74',
    ('mpi_scatter_gather', True): '81b70e77e3104f74',
    ('mpi_scatter_gather', False): '81b70e77e3104f74',
    ('nested_calls', True): '966a553961d770a4',
    ('nested_calls', False): '966a553961d770a4',
    ('pipeline', True): '81b70e77e3104f74',
    ('pipeline', False): '81b70e77e3104f74',
    ('producer_consumer', True): '74332391ab2d0235',
    ('producer_consumer', False): '74332391ab2d0235',
    ('ring_allreduce(32)', True): '81b70e77e3104f74',
    ('ring_allreduce(32)', False): '81b70e77e3104f74',
    ('ring_counters(6,3)', True): 'e6d7fb39daa4addc',
    ('ring_counters(6,3)', False): 'e6d7fb39daa4addc',
    ('ring_reduce.pcl', True): '81b70e77e3104f74',
    ('ring_reduce.pcl', False): '81b70e77e3104f74',
    ('rpc_server', True): '0f692682d888cbc2',
    ('rpc_server', False): '0f692682d888cbc2',
    ('semaphore_pipeline.pcl', True): '5fede28dc4105614',
    ('semaphore_pipeline.pcl', False): '5fede28dc4105614',
    ('sieve.pcl', True): '81b70e77e3104f74',
    ('sieve.pcl', False): '81b70e77e3104f74',
    ('token_ring.pcl', True): 'ccf12345edcb7edb',
    ('token_ring.pcl', False): 'ccf12345edcb7edb',
    ('whatif_replay.py', True): '96d7501000fef7c6',
    ('whatif_replay.py', False): '96d7501000fef7c6',
}


CASES = cases()


@pytest.mark.parametrize("refine", [True, False], ids=["refined", "unrefined"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_candidate_digest(name, refine):
    assert candidate_digest(CASES[name], refine) == DIGESTS[(name, refine)]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted((name, refine) for name in CASES for refine in (True, False))


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case, case_source in sorted(CASES.items()):
        for case_refine in (True, False):
            key = (case, case_refine)
            print(f"    {key!r}: {candidate_digest(case_source, case_refine)!r},")
