"""Hypothesis differential fuzzing: random programs from the existing
fuzz generators must produce byte-identical records on the VM and on the
reference tree walker (:mod:`tests.oracle`).

Reuses :func:`tests.test_fuzz.programs` (sequential programs with
functions, branches, loops, inputs) and
:func:`tests.test_fuzz_parallel.parallel_programs` (random worker/counter
topologies with semaphores and channels) — the same distributions that
gate the runtime, pointed at the VM and the oracle."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_fuzz import programs
from tests.test_fuzz_parallel import parallel_programs
from tests.vm.util import assert_engines_agree


@given(programs(), st.lists(st.integers(-50, 50), min_size=0, max_size=30))
@settings(max_examples=40, deadline=None)
def test_differential_sequential(source, inputs):
    assert_engines_agree(source, inputs=inputs)


@given(programs(), st.lists(st.integers(-50, 50), min_size=0, max_size=10))
@settings(max_examples=20, deadline=None)
def test_differential_sequential_plain(source, inputs):
    assert_engines_agree(source, mode="plain", trace=True, inputs=inputs)


@given(parallel_programs(), st.integers(0, 25))
@settings(max_examples=30, deadline=None)
def test_differential_parallel(case, seed):
    source, _racy = case
    assert_engines_agree(source, seed=seed)
