"""Property: a seeded deviant process is localized across the whole
configuration space — every family, every supported fault, any deviant
rank, any scheduler seed.

This is the paper-level claim behind ``ppd localize``: because
signatures exclude schedule artifacts, the suspect ranking is evidence
about the program, so the scheduler seed must never change the verdict.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, compile_program
from repro.analysis.localize import localize_record
from repro.workloads.mpi import MPI_FAMILIES, mpi_workload

RANKS = 6

#: (family, fault) pairs, with the group-member prefix of the proc name.
CASES = [
    (family, fault, "worker" if family == "master_worker" else "rank")
    for family in sorted(MPI_FAMILIES)
    for fault in sorted(MPI_FAMILIES[family][1])
]


def localize(family, fault, deviant, seed):
    source = mpi_workload(family, RANKS, deviant=deviant, fault=fault)
    record = Machine(compile_program(source), seed=seed).run()
    assert record.failure is None and record.deadlock is None
    return localize_record(record)


@given(
    case=st.sampled_from(CASES),
    deviant=st.integers(min_value=1, max_value=RANKS - 1),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_seeded_deviant_ranks_in_top_k(case, deviant, seed):
    family, fault, prefix = case
    result = localize(family, fault, deviant, seed)
    top = result.top(3)
    assert top, f"{family}/{fault}: no suspect at all"
    names = [suspect.name for suspect in top]
    assert f"{prefix}{deviant}" in names, (family, fault, deviant, seed, names)
    # and in fact the deviant leads the ranking at this scale
    assert names[0] == f"{prefix}{deviant}", (family, fault, deviant, seed, names)


@given(
    family=st.sampled_from(sorted(MPI_FAMILIES)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_clean_runs_stay_clean(family, seed):
    source = mpi_workload(family, RANKS)
    record = Machine(compile_program(source), seed=seed).run()
    result = localize_record(record)
    assert result.is_clean, [(s.name, s.score) for s in result.top(3)]
