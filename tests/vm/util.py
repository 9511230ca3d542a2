"""Shared helpers for the VM differential tests: run a program on the VM
and on the reference tree walker (:mod:`tests.oracle`) and assert the
complete observable surface is identical."""

from __future__ import annotations

import json

from repro import Machine, compile_program
from repro.runtime.persist import record_to_json

from tests.oracle import oracle


def surface(record) -> dict:
    """Everything an ExecutionRecord exposes, in comparable form."""
    failure = None
    if record.failure:
        failure = (
            record.failure.message,
            record.failure.pid,
            record.failure.node_id,
            record.failure.kind,
            record.failure.timestamp,
        )
    deadlock = None
    if record.deadlock:
        deadlock = (record.deadlock.blocked, record.deadlock.timestamp)
    events = None
    if record.tracer:
        events = [event.to_json() for event in record.tracer.events]
    out = {
        "output": record.output,
        "shared_final": record.shared_final,
        "shared_initial": record.shared_initial,
        "failure": failure,
        "deadlock": deadlock,
        "total_steps": record.total_steps,
        "process_steps": sorted(record.process_steps.items()),
        "process_names": sorted(record.process_names.items()),
        "inputs_consumed": record.inputs_consumed,
        "trace_of_sync": sorted(record.trace_of_sync.items()),
        "events": events,
    }
    if record.mode == "logged":
        out["persisted"] = json.dumps(record_to_json(record), sort_keys=True)
    return out


def run_machine(source, *, seed=0, mode="logged", trace=True, inputs=None):
    return Machine(
        compile_program(source),
        seed=seed,
        mode=mode,
        trace=trace,
        inputs=list(inputs) if inputs else None,
    ).run()


def assert_engines_agree(source, **options):
    """Run under the oracle and the VM; fail on the first differing surface
    key.  Returns ``(oracle_record, vm_record)``."""
    with oracle():
        reference = run_machine(source, **options)
    vm = run_machine(source, **options)
    left, right = surface(reference), surface(vm)
    for key in left:
        assert left[key] == right[key], (key, left[key], right[key])
    return reference, vm
