"""CI gate: the replay/service stack must absorb injected faults.

Usage::

    python benchmarks/check_fault_tolerance.py [--seed N]

Representative workloads are run with each :mod:`repro.faults` fault
class injected, and the gate requires that every one either **recovers
byte-identically** (the faulty run's records/replays/transcripts equal
the fault-free run's) or **fails with a typed, documented error** (a
:class:`PersistError` subclass, a structured server error code) — never
a hang, never a wrong answer.

Checks:

* ``baseline``          — with injection off, every ``faults.*`` and
                          ``recovery.*`` counter stays zero (zero-leak);
* ``sched.slow``        — slow scheduler steps change wall time only:
                          the logged record is byte-identical;
* ``pool.crash``        — a worker killed mid-batch is respawned and the
                          pooled replays equal the serial ones;
* ``pool.hang``         — a wedged worker trips the watchdog, the batch
                          retries, and the replays equal the serial ones;
* ``pool.crash`` (exhausted budget)
                        — crashes past ``max_respawns`` degrade to inline
                          replay, still byte-identical; and after *every*
                          worker-killing scenario the shared-memory record
                          segment is unlinked (``/dev/shm`` ends clean);
* ``cache.spill_io``    — failed spill writes are absorbed (results
                          correct, ``spill_errors`` counted);
* ``persist.truncate``/``persist.bitflip``
                        — a corrupted record file fails its load with a
                          typed :class:`PersistError` subclass and is
                          quarantined next to the original path;
* ``socket.drop``/``socket.stall``
                        — a client with retries enabled sees the exact
                          fault-free transcript, and the service answers
                          zero structured errors along the way;
* ``session.rehydrate`` — an injected rehydration failure surfaces as a
                          typed error and leaves the session evicted but
                          intact: the retry succeeds byte-identically.

Exit status: 0 all checks hold, 1 any failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Machine, compile_program, obs, workloads  # noqa: E402
from repro import faults  # noqa: E402
from repro.core.emulation import interval_indexes  # noqa: E402
from repro.obs.report import deterministic_counters  # noqa: E402
from repro.perf import ReplayCache, ReplayPool, leaked_segments  # noqa: E402
from repro.runtime.persist import (  # noqa: E402
    PersistError,
    RecordCorruptError,
    RecordDigestError,
    RecordVersionError,
    load_record,
    record_to_json,
    save_record,
)
from repro.server import (  # noqa: E402
    DebugClient,
    DebugService,
    SessionManager,
)

#: workload name -> (source, inputs); a slice of the vm-vs-oracle set that
#: covers sync-heavy, race-y, and input-driven programs.
WORKLOADS: dict[str, tuple[str, list | None]] = {
    "buggy_average": (workloads.buggy_average(5), [10, 20, 30, 40, 50]),
    "bank_safe": (workloads.bank_safe(2, 2), None),
    "producer_consumer": (workloads.producer_consumer(4, 1), None),
}

#: Retry-safe query commands driven through the remote transcript checks.
REMOTE_COMMANDS = ["where", "output", "graph 5", "races", "why average"]


class Gate:
    """Tiny pass/fail ledger with the harness's print conventions."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures = 0

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks += 1
        if ok:
            print(f"ok {name}" + (f" ({detail})" if detail else ""))
        else:
            self.failures += 1
            print(f"FAILED {name}" + (f": {detail}" if detail else ""))


def run_logged(source: str, inputs: list | None, seed: int):
    return Machine(
        compile_program(source),
        seed=seed,
        mode="logged",
        inputs=list(inputs) if inputs else None,
    ).run()


def all_requests(record) -> list[tuple[int, int]]:
    return [
        (pid, interval_id)
        for pid, index in sorted(interval_indexes(record).items())
        for interval_id in sorted(index)
    ]


def replay_surface(result) -> tuple:
    """The byte-comparable surface of one base-0 replay result."""
    return (
        [event.to_json() for event in result.events],
        sorted(result.trace_of_sync.items()),
        sorted(result.final_shared.items()),
    )


def serial_surfaces(record, requests) -> list[tuple]:
    """Fault-free serial replays — the truth the faulty runs must match."""
    with ReplayPool(record, jobs=1, cache=ReplayCache()) as pool:
        return [replay_surface(r) for r in pool.replay_batch(requests)]


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_baseline_zero_leak(gate: Gate, records: dict, seed: int) -> None:
    """With injection off, the fault/recovery counters must stay zero."""
    with obs.capture() as registry:
        for name, (source, inputs) in WORKLOADS.items():
            record = records[name]
            requests = all_requests(record)
            with ReplayPool(record, jobs=2, cache=ReplayCache()) as pool:
                pool.replay_batch(requests)
            run_logged(source, inputs, seed)
        counters = deterministic_counters(registry)
    leaked = {
        name: value
        for name, value in counters.items()
        if (name.startswith("faults.") or name.startswith("recovery."))
        and value
    }
    gate.record(
        "baseline: faults.*/recovery.* all zero with injection off",
        not leaked,
        detail=str(leaked) if leaked else f"{len(counters)} counters clean",
    )


def check_sched_slow(gate: Gate, records: dict, seed: int) -> None:
    for name, (source, inputs) in WORKLOADS.items():
        baseline = record_to_json(records[name])
        with faults.inject("sched.slow:n=3,s=0.01", seed=seed) as plan:
            faulty = record_to_json(run_logged(source, inputs, seed))
        gate.record(
            f"sched.slow: {name} record byte-identical",
            faulty == baseline and plan.total_fired() > 0,
            detail=f"{plan.total_fired()} fault(s) fired",
        )


def check_pool_faults(gate: Gate, records: dict, seed: int) -> None:
    scenarios = [
        ("pool.crash", "pool.crash:n=2", dict(worker_timeout_s=30.0)),
        ("pool.hang", "pool.hang:n=1,s=1.5", dict(worker_timeout_s=0.3)),
        # Crash on every attempt: exhausts the respawn budget and degrades
        # inline — the worst case for stranding the record segment.
        ("pool.crash-exhausted", "pool.crash:n=100", dict(max_respawns=1)),
    ]
    for name in WORKLOADS:
        record = records[name]
        requests = all_requests(record)
        if len(requests) < 2:
            continue
        expected = serial_surfaces(record, requests)
        for label, spec, options in scenarios:
            with faults.inject(spec, seed=seed) as plan:
                with ReplayPool(
                    record,
                    jobs=2,
                    cache=ReplayCache(),
                    retry_backoff_s=0.01,
                    **options,
                ) as pool:
                    results = pool.replay_batch(requests)
                    info = pool.describe()
            surfaces = [replay_surface(r) for r in results]
            gate.record(
                f"{label}: {name} pooled replay byte-identical after recovery",
                surfaces == expected and plan.total_fired() > 0,
                detail=(
                    f"{plan.total_fired()} fault(s), respawns={info['respawns']} "
                    f"fallbacks={info['fallback_causes']}"
                ),
            )
            # Killed workers must never strand the shared-memory record
            # segment: every exit path (respawn, degradation, close) ends
            # with /dev/shm clean.
            leaked = leaked_segments()
            gate.record(
                f"{label}: {name} no shm segments leaked",
                not leaked,
                detail=str(leaked) if leaked else "",
            )


def check_cache_spill(gate: Gate, records: dict, seed: int) -> None:
    for name in WORKLOADS:
        record = records[name]
        requests = all_requests(record)
        if len(requests) < 2:
            continue
        expected = serial_surfaces(record, requests)
        with tempfile.TemporaryDirectory(prefix="ppd-chaos-spill-") as spill_dir:
            cache = ReplayCache(max_events=1, spill_dir=spill_dir)
            with faults.inject("cache.spill_io:n=100", seed=seed) as plan:
                with ReplayPool(record, jobs=1, cache=cache) as pool:
                    surfaces = [
                        replay_surface(r) for r in pool.replay_batch(requests)
                    ]
        gate.record(
            f"cache.spill_io: {name} replays correct, errors absorbed",
            surfaces == expected
            and plan.total_fired() > 0
            and cache.stats.spill_errors > 0,
            detail=f"spill_errors={cache.stats.spill_errors}",
        )


def check_persist_faults(gate: Gate, records: dict, seed: int) -> None:
    record = records["buggy_average"]
    typed = (RecordCorruptError, RecordVersionError, RecordDigestError)
    for point in ("persist.truncate", "persist.bitflip"):
        with tempfile.TemporaryDirectory(prefix="ppd-chaos-persist-") as root:
            path = os.path.join(root, "run.ppd.json")
            with faults.inject(f"{point}:n=1", seed=seed) as plan:
                save_record(record, path)
            try:
                load_record(path)
            except PersistError as error:
                quarantined = error.quarantined
                gate.record(
                    f"{point}: load fails typed and quarantines",
                    isinstance(error, typed)
                    and plan.total_fired() == 1
                    and quarantined is not None
                    and os.path.exists(quarantined)
                    and not os.path.exists(path),
                    detail=f"{type(error).__name__} -> {os.path.basename(quarantined or '')}",
                )
            else:
                gate.record(
                    f"{point}: load fails typed and quarantines",
                    False,
                    detail="corrupted record loaded without error",
                )


def check_socket_faults(gate: Gate, seed: int) -> None:
    source, inputs = WORKLOADS["buggy_average"]
    service = DebugService(port=0, request_timeout_s=30.0)
    host, port = service.start()
    try:
        with obs.capture() as registry:
            client = DebugClient(
                host, port, timeout=10.0, max_retries=4, retry_backoff_s=0.02
            )
            with client:
                session = client.open_program(source, seed=seed, inputs=inputs)
                expected = [session.execute(line) for line in REMOTE_COMMANDS]
                for point, spec in (
                    ("socket.drop", "socket.drop:n=2"),
                    ("socket.stall", "socket.stall:n=2,s=0.2"),
                ):
                    with faults.inject(spec, seed=seed) as plan:
                        seen = [session.execute(line) for line in REMOTE_COMMANDS]
                    gate.record(
                        f"{point}: remote transcript identical with retries",
                        seen == expected and plan.total_fired() > 0,
                        detail=(
                            f"{plan.total_fired()} fault(s), "
                            f"retries={client.retries} reconnects={client.reconnects}"
                        ),
                    )
                session.close()
            counters = deterministic_counters(registry)
    finally:
        service.shutdown()
    errors = counters.get("server.request_errors", 0)
    gate.record(
        "socket faults: server.request_errors bounded",
        errors == 0,
        detail=f"request_errors={errors}",
    )


def check_session_rehydrate(gate: Gate, seed: int) -> None:
    source, inputs = WORKLOADS["buggy_average"]
    other = WORKLOADS["bank_safe"][0]
    manager = SessionManager(max_live=1)
    try:
        sid, _info = manager.open_program(source, seed=seed, inputs=inputs)
        expected = manager.execute(sid, "where")
        manager.open_program(other, seed=seed)  # LRU-evicts sid
        if manager.is_live(sid):
            gate.record("session.rehydrate: setup", False, "eviction did not happen")
            return
        with faults.inject("session.rehydrate:n=1", seed=seed) as plan:
            try:
                manager.execute(sid, "where")
            except PersistError:
                failed_typed = True
            else:
                failed_typed = False
            still_evicted = not manager.is_live(sid)
            retry = manager.execute(sid, "where")
        gate.record(
            "session.rehydrate: typed failure, intact session, identical retry",
            failed_typed
            and still_evicted
            and retry == expected
            and plan.total_fired() == 1,
            detail="failure surfaced, then retry rehydrated",
        )
    finally:
        manager.close_all()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit:
        return 2
    gate = Gate()
    records = {
        name: run_logged(source, inputs, args.seed)
        for name, (source, inputs) in WORKLOADS.items()
    }
    check_baseline_zero_leak(gate, records, args.seed)
    check_sched_slow(gate, records, args.seed)
    check_pool_faults(gate, records, args.seed)
    check_cache_spill(gate, records, args.seed)
    check_persist_faults(gate, records, args.seed)
    check_socket_faults(gate, args.seed)
    check_session_rehydrate(gate, args.seed)
    verdict = "FAIL" if gate.failures else "PASS"
    print(
        f"\nfault tolerance gate: {verdict} — "
        f"{gate.checks - gate.failures}/{gate.checks} checks held "
        f"(seed={args.seed})"
    )
    return 1 if gate.failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
