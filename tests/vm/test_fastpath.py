"""The verified VM fast path (yield elision over proven-LOCAL spans):
byte-identical observable surfaces with the fast path on vs off, real
elision on compute-dense programs, replay fidelity, and clean obs
accounting (zero meta-counter leak when the fast path is off)."""

from __future__ import annotations

import pytest

from repro import Machine, obs, compile_program
from repro.analysis.racecands import candidates_from_compiled, refine_with_effects
from repro.core import EmulationPackage
from repro.runtime import Postlog, build_interval_index
from repro.workloads import (
    bank_race,
    buggy_average,
    compute_heavy,
    fib_recursive,
    matrix_sum,
    producer_consumer,
)

from tests.oracle import oracle
from tests.vm.util import surface

CASES = [
    ("bank_race", bank_race(2, 2), None),
    ("buggy_average", buggy_average(5), [10, 20, 30, 40, 50]),
    ("compute_heavy", compute_heavy(3, 4), None),
    ("fib_recursive", fib_recursive(6), None),
    ("matrix_sum", matrix_sum(4), None),
    ("producer_consumer", producer_consumer(3, 1), None),
]


def run(source, *, fastpath, seed=0, mode="logged", trace=True, inputs=None):
    return Machine(
        compile_program(source),
        seed=seed,
        mode=mode,
        trace=trace,
        inputs=list(inputs) if inputs else None,
        fastpath=fastpath,
    ).run()


@pytest.mark.parametrize("name,source,inputs", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("seed", [0, 7])
def test_surface_identical_on_vs_off(name, source, inputs, seed):
    on = run(source, fastpath=True, seed=seed, inputs=inputs)
    off = run(source, fastpath=False, seed=seed, inputs=inputs)
    assert surface(on) == surface(off)


def test_elision_actually_happens_on_compute_dense_code():
    machine = Machine(
        compile_program(compute_heavy(3, 4)),
        seed=0,
        mode="plain",
        fastpath=True,
    )
    record = machine.run()
    assert machine.fastpath_elided > 0
    # Elided steps still count: total_steps is fastpath-invariant.
    off = run(compute_heavy(3, 4), fastpath=False, mode="plain", trace=False)
    assert record.total_steps == off.total_steps


def test_elision_is_disabled_while_other_processes_are_ready():
    """With two runnable processes the schedule is never pre-committed,
    so the fast path must not elide a single yield."""
    machine = Machine(
        compile_program(bank_race(2, 2)),
        seed=0,
        mode="plain",
        fastpath=True,
    )
    record = machine.run()
    off = run(bank_race(2, 2), fastpath=False, mode="plain", trace=False)
    assert record.total_steps == off.total_steps
    assert surface(record)["shared_final"] == surface(off)["shared_final"]


def test_interp_engine_ignores_fastpath_flag():
    """The oracle has no fast path: the flag is inert under it."""
    machine = Machine(
        compile_program(compute_heavy(2, 2)),
        seed=0,
        mode="plain",
        fastpath=True,
    )
    with oracle():
        machine.run()
    assert machine.fastpath is False
    assert machine.fastpath_elided == 0


def test_replay_fidelity_under_fastpath():
    """Every closed interval of a fastpath-logged record replays without
    divergence and reproduces its recorded return value."""
    record = run(compute_heavy(3, 4), fastpath=True)
    assert record.failure is None
    emulation = EmulationPackage(record)
    index = build_interval_index(record.logs[0])
    base = 0
    for info in index.values():
        if info.is_open:
            continue
        result = emulation.replay(0, info.interval_id, uid_base=base)
        base += len(result.events) + 1
        assert not result.halted, (info.proc_name, result.diagnostics)
        assert not [d for d in result.diagnostics if "divergence" in d]
        postlog = record.logs[0].entries[info.end_index]
        assert isinstance(postlog, Postlog)
        if postlog.has_retval:
            assert result.retval == postlog.retval


def test_obs_counters_attribute_the_fast_path():
    with obs.capture() as registry:
        run(compute_heavy(3, 4), fastpath=True, mode="plain", trace=False)
    names = set(registry.snapshot())
    assert "vm.fastpath.elided" in names
    assert "vm.fastpath.fused_ops" in names


def test_no_meta_counter_leak_when_fastpath_off():
    with obs.capture() as registry:
        run(compute_heavy(3, 4), fastpath=False, mode="plain", trace=False)
    leaked = [n for n in registry.snapshot() if n.startswith("vm.fastpath.")]
    assert leaked == []


# --- effect-summary refinement of the race-candidate set ----------------


def test_refinement_is_a_sound_noop_on_shipped_programs():
    compiled = compile_program(bank_race(2, 2))
    refined = candidates_from_compiled(compiled)
    unrefined = candidates_from_compiled(compiled, refine=False)
    assert refined.effect_pruned == 0
    assert {(p.site_a, p.site_b) for p in refined.pairs} == {
        (p.site_a, p.site_b) for p in unrefined.pairs
    }


def test_refinement_prunes_pairs_absent_from_bytecode_sites():
    """Synthetic effects missing one endpoint: every pair touching it is
    dropped, the rest survive, and the prune is tallied."""
    compiled = compile_program(bank_race(2, 2))
    candidates = candidates_from_compiled(compiled, refine=False)
    assert candidates.pairs
    effects = compiled.vm_code().effects()
    victim = candidates.pairs[0].site_a
    victim_key = (victim.proc, victim.node_id, victim.var, victim.write)
    pruned_sites = frozenset(effects.shared_sites - {victim_key})

    class FakeEffects:
        shared_sites = pruned_sites

    refined = refine_with_effects(candidates, FakeEffects())
    assert refined.effect_pruned > 0
    assert len(refined.pairs) == len(candidates.pairs) - refined.effect_pruned
    for pair in refined.pairs:
        for site in (pair.site_a, pair.site_b):
            assert (site.proc, site.node_id, site.var, site.write) != victim_key
    # Bookkeeping the scans rely on is preserved.
    assert refined.known_sites == candidates.known_sites
    assert refined.site_cap == candidates.site_cap
