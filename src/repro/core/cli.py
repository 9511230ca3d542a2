"""A line-oriented debugger interface over a PPD session.

Section 7: "A debugger that can provide a rich body of information needs
an easy-to-use interface."  This is the text-mode instantiation: a small
command language over :class:`~repro.core.controller.PPDSession`, suitable
for interactive use (``examples/ppd_cli.py``) and for scripting in tests.

Commands
--------
``where``            the failure/deadlock that ended the run
``output``           the program's output
``graph [n]``        the most recent *n* nodes of the dynamic graph
``view <uid> [n]``   the backward dependence cone of a node, budgeted
``why <var>``        flowback from the last assignment to *var*
``back <uid> [d]``   flowback from a node, depth *d*
``forward <uid>``    forward flow from a node
``expand <uid>``     replay the e-block behind a sub-graph node
``races``            run race detection
``lint [json] [error|warning]`` static diagnostics (repro.analysis.lint);
                     ``json`` is machine-readable, a severity filters
``localize [k] [json]`` rank the processes of each behavioural peer
                     group by deviation from the group consensus
                     (repro.analysis.localize), top *k* suspects;
                     ``localize diff <pid>`` one process vs consensus
``candidates [var]`` why a shared variable is a static race candidate
``history <var>``    every access to a shared variable, ordered (§6.3)
``deadlock``         deadlock-cause analysis
``parallel``         render the parallel dynamic graph
``restore <t>``      shared memory restored at timestamp *t*
``slice <uid>``      dynamic slice (statement labels) from a node
``stats [obs|json|cache]`` session + observability report (see repro.obs);
                     ``obs`` adds hook counters, ``json`` is machine-readable,
                     ``cache`` shows replay-engine cache/pool statistics
``save <path>``      persist this execution record (runtime/persist.py JSON)
``load <path>``      load a persisted record, restarting the session over it
``help`` / ``quit``

The same command set is served over TCP by :mod:`repro.server`; run
``ppd serve <host:port>`` and ``ppd connect <host:port>`` (see
:func:`main`) — a proxied session's transcript is byte-identical to a
local one.  ``ppd replay <record> --jobs N`` re-executes every logged
e-block interval of a persisted record through the process pool
(:mod:`repro.perf`).  ``ppd lint <file> [--json] [--severity S]`` runs
the static analyzer (:mod:`repro.analysis.lint`) without executing the
program, exiting non-zero on error-severity findings.  ``ppd localize
<file> [--top K] [--json] [--diff PID]`` runs a program (or loads
``--record``) and ranks faulty-process suspects against their peer
group's consensus (:mod:`repro.analysis.localize`), exiting non-zero
when a suspect is found.  ``ppd disasm
<file> [--proc NAME]`` prints the :mod:`repro.vm` bytecode lowering that
every run and replay executes.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..runtime.machine import ExecutionRecord
from .controller import PPDSession
from .deadlock import analyze_deadlock
from .dynamic_graph import SUBGRAPH
from .flowback import slice_statements
from .render import render_dynamic_fragment, render_flowback, render_parallel
from .replay import restore_shared_at


class PPDCommandLine:
    """Executes debugger commands against one recorded execution."""

    def __init__(
        self,
        record: ExecutionRecord,
        autostart: bool = True,
        cache=None,
        pool=None,
    ) -> None:
        self.record = record
        self.session = PPDSession(record, cache=cache, pool=pool)
        if autostart:
            self.session.start()

    # ------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line, returning the text to show the user."""
        parts = line.strip().split()
        if not parts:
            return ""
        command, args = parts[0].lower(), parts[1:]
        handler: Optional[Callable[[list[str]], str]] = getattr(
            self, f"_cmd_{command}", None
        )
        if handler is None:
            return f"unknown command {command!r} (try 'help')"
        try:
            return handler(args)
        except (KeyError, ValueError, IndexError) as error:
            return f"error: {error}"

    def run_script(self, lines: list[str]) -> list[tuple[str, str]]:
        """Execute a list of commands, returning (command, output) pairs."""
        transcript = []
        for line in lines:
            output = self.execute(line)
            transcript.append((line, output))
            if line.strip() == "quit":
                break
        return transcript

    # ------------------------------------------------------------------

    def _cmd_help(self, args: list[str]) -> str:
        return __doc__.split("Commands\n--------\n", 1)[1].rstrip()

    def _cmd_quit(self, args: list[str]) -> str:
        return "bye"

    def _cmd_where(self, args: list[str]) -> str:
        if self.record.failure is not None:
            failure = self.record.failure
            text = self.record.compiled.database.statement_text(failure.node_id)
            label = self.record.compiled.database.statement_label(failure.node_id)
            return (
                f"P{failure.pid} stopped: {failure.message}\n"
                f"  at {label}: {text}"
            )
        if self.record.breakpoint_hit is not None:
            hit = self.record.breakpoint_hit
            text = self.record.compiled.database.statement_text(hit.node_id)
            return (
                f"breakpoint: P{hit.pid} ({hit.proc_name}) stopped before "
                f"{hit.stmt_label}: {text}\n"
                "  (all co-operating processes halted)"
            )
        if self.record.deadlock is not None:
            return analyze_deadlock(self.record).describe()
        return "the program completed normally"

    def _cmd_output(self, args: list[str]) -> str:
        if not self.record.output:
            return "(no output)"
        return "\n".join(f"P{pid}: {text}" for pid, text in self.record.output)

    def _cmd_graph(self, args: list[str]) -> str:
        count = int(args[0]) if args else 12
        uids = sorted(
            (u for u in self.session.graph.nodes if 0 <= u < 10**9)
        )[-count:]
        return render_dynamic_fragment(self.session.graph, uids)

    def _cmd_why(self, args: list[str]) -> str:
        (var,) = args[:1] or [""]
        if not var:
            return "usage: why <variable>"
        result = self.session.why_value(var)
        if result is None:
            return f"no assignment to {var!r} in the graph yet (try 'expand')"
        return render_flowback(result)

    def _cmd_back(self, args: list[str]) -> str:
        uid = int(args[0])
        depth = int(args[1]) if len(args) > 1 else 8
        return render_flowback(self.session.flowback(uid, max_depth=depth))

    def _cmd_forward(self, args: list[str]) -> str:
        uid = int(args[0])
        return render_flowback(self.session.flow_forward(uid))

    def _cmd_expand(self, args: list[str]) -> str:
        uid = int(args[0])
        result = self.session.expand_subgraph(uid)
        return (
            f"replayed interval {result.interval_id}: "
            f"{result.event_count} events regenerated"
        )

    def _cmd_expandable(self, args: list[str]) -> str:
        nodes = [
            n
            for n in self.session.graph.nodes.values()
            if n.kind == SUBGRAPH
            and n.interval_id is not None
            and n.uid not in self.session.graph.expansions
        ]
        if not nodes:
            return "(nothing to expand)"
        return "\n".join(f"#{n.uid}: {n.label}" for n in nodes)

    def _cmd_races(self, args: list[str]) -> str:
        scan = self.session.races()
        if scan.is_race_free:
            return "this execution instance is race-free (Def 6.4)"
        lines = [f"{len(scan.races)} race(s) detected:"]
        for race in scan.races:
            lines.append(
                f"  {race.kind} on {race.variable!r}: "
                f"P{race.pid_a} (edge {race.seg_id_a}) vs "
                f"P{race.pid_b} (edge {race.seg_id_b})"
            )
        return "\n".join(lines)

    def _cmd_lint(self, args: list[str]) -> str:
        """``lint [json] [error|warning]``: static diagnostics for the
        debugged program — race candidates, lock-order cycles, possible
        uninitialized reads, unsynchronized shared accesses, dead stores,
        unreachable statements, unused variables."""
        from ..analysis.lint import ERROR, WARNING

        as_json = False
        severity = None
        for arg in args:
            token = arg.lower()
            if token == "json":
                as_json = True
            elif token in (ERROR, WARNING):
                severity = token
            else:
                return f"usage: lint [json] [error|warning] (got {arg!r})"
        result = self.session.lint()
        if as_json:
            return result.to_json(severity=severity)
        return result.render(severity=severity)

    def _cmd_localize(self, args: list[str]) -> str:
        """``localize [k] [json]`` / ``localize diff <pid>``: faulty-process
        localization — rank each peer group's processes by deviation from
        the group's consensus signature (repro.analysis.localize)."""
        if args and args[0].lower() == "diff":
            if len(args) != 2 or not args[1].lstrip("P").isdigit():
                return "usage: localize diff <pid>"
            return self.session.localize().render_diff(int(args[1].lstrip("P")))
        top_k = 3
        as_json = False
        for arg in args:
            token = arg.lower()
            if token == "json":
                as_json = True
            elif token.isdigit():
                top_k = int(token)
            else:
                return f"usage: localize [k] [json] | localize diff <pid> (got {arg!r})"
        result = self.session.localize()
        return result.to_json(top_k) if as_json else result.render(top_k)

    def _cmd_candidates(self, args: list[str]) -> str:
        """``candidates [var]``: the static race-candidate report.

        Without a variable, lists every candidate variable and its pair
        count; with one, shows the statically-concurrent site pairs that
        make it a candidate (resolved through the program database)."""
        cands = self.session.race_candidates()
        if not args:
            if not cands.variables:
                return "no static race candidates"
            lines = ["static race candidates:"]
            for var in sorted(cands.variables):
                lines.append(f"  {var}: {cands.pair_count(var)} site pair(s)")
            return "\n".join(lines)
        (var,) = args[:1]
        return self.session.why_candidate(var)

    def _cmd_deadlock(self, args: list[str]) -> str:
        return analyze_deadlock(self.record).describe()

    def _cmd_parallel(self, args: list[str]) -> str:
        return render_parallel(self.record.history, self.record.process_names)

    def _cmd_restore(self, args: list[str]) -> str:
        timestamp = int(args[0]) if args else 10**9
        state = restore_shared_at(self.record, timestamp)
        lines = [f"shared memory at t={timestamp}:"]
        for name, value in sorted(state.shared.items()):
            lines.append(f"  {name} = {value}")
        return "\n".join(lines)

    def _cmd_view(self, args: list[str]) -> str:
        from .views import focused_view

        uid = int(args[0])
        budget = int(args[1]) if len(args) > 1 else 15
        return focused_view(self.session.graph, uid, budget=budget).render()

    def _cmd_history(self, args: list[str]) -> str:
        (var,) = args[:1] or [""]
        if not var:
            return "usage: history <shared variable>"
        from .queries import access_history

        history = access_history(self.record.history, var)
        if not history.accesses:
            return f"no recorded accesses to {var!r}"
        return history.describe()

    def _cmd_slice(self, args: list[str]) -> str:
        uid = int(args[0])
        result = self.session.flowback(uid, max_depth=50)
        labels = slice_statements(result)
        return "dynamic slice: " + ", ".join(labels)

    def _cmd_save(self, args: list[str]) -> str:
        (path,) = args[:1] or [""]
        if not path:
            return "usage: save <path>"
        from ..runtime.persist import save_record

        try:
            save_record(self.record, path)
        except OSError as error:
            return f"error: {error}"
        return f"saved record to {path}"

    def _cmd_load(self, args: list[str]) -> str:
        (path,) = args[:1] or [""]
        if not path:
            return "usage: load <path>"
        from ..runtime.persist import load_record

        try:
            record = load_record(path)
        except OSError as error:
            return f"error: {error}"
        self.record = record
        self.session = PPDSession(record, cache=self.session.cache)
        self.session.start()
        return (
            f"loaded record from {path} "
            f"({len(record.process_names)} process(es), {record.total_steps} steps)"
        )

    def _cmd_stats(self, args: list[str]) -> str:
        """``stats``: the observability report for this session.

        Default output covers what the paper's costs are made of: per-
        process log bytes (§3.2), e-block replays (§5.2), and scheduler
        preemptions.  ``stats obs`` adds the live hook counters when
        :mod:`repro.obs` is enabled; ``stats json`` emits the whole
        report machine-readably.
        """
        from .. import obs

        mode = args[0].lower() if args else ""
        if mode == "cache":
            return self._render_cache_stats()
        registry = obs.registry() if (mode in ("obs", "json") or obs.is_enabled()) else None
        report = obs.build_report(self.record, self.session, registry)
        if mode == "json":
            return obs.report_to_json(report)
        if mode not in ("", "obs"):
            return f"usage: stats [obs|json|cache] (got {mode!r})"
        summary = (
            f"session: {self.session.replay_count()} replay(s), "
            f"{self.session.events_generated} events generated"
        )
        if mode != "obs":
            report.pop("counters", None)
        text = summary + "\n" + obs.render_report(report)
        if mode == "obs" and not report.get("counters"):
            text += "\nobs counters: (none recorded -- enable with repro.obs.enable())"
        return text

    def _render_cache_stats(self) -> str:
        """``stats cache``: the replay engine's cache/pool counters.

        A separate mode (not part of plain ``stats``) because the shared
        cache is process-wide state: its numbers depend on every session
        in the process, while plain ``stats`` must stay a deterministic
        function of this session's record + command history (the server's
        rehydration-transparency contract relies on that).
        """
        info = self.session.cache_stats()
        lines = [f"session replays: {info['session_replays']}"]
        shared = info.get("shared") or {}
        if shared:
            lines.append(
                "shared cache: "
                f"hits={shared['hits']} misses={shared['misses']} "
                f"evictions={shared['evictions']} spills={shared['spills']} "
                f"spill_hits={shared['spill_hits']} entries={shared['entries']} "
                f"events={shared['events']}/{shared['max_events']}"
            )
        else:
            lines.append("shared cache: (detached)")
        pool = info.get("pool")
        if pool:
            lines.append(
                f"pool: jobs={pool['jobs']} batches={pool['batches']} "
                f"chunks={pool.get('chunks', 0)} "
                f"submitted={pool['submitted']} executed={pool['executed']} "
                f"fallbacks={pool['fallbacks']} respawns={pool.get('respawns', 0)} "
                f"bytes_shipped={pool.get('bytes_shipped', 0)}"
            )
            if pool.get("adaptive"):
                policy = pool.get("policy") or {}
                lines.append(
                    f"pool policy: auto serial={policy.get('serial', 0)} "
                    f"pooled={policy.get('pooled', 0)} "
                    f"(last: {policy.get('last') or '-'})"
                )
            causes = pool.get("fallback_causes") or {}
            if causes:
                summary = " ".join(
                    f"{cause}={count}" for cause, count in sorted(causes.items())
                )
                lines.append(
                    f"pool fallbacks: {summary} "
                    f"(last: {pool.get('last_fallback_cause')})"
                )
        shm = self._shm_counters()
        if shm is not None:
            lines.append(shm)
        return "\n".join(lines)

    @staticmethod
    def _shm_counters() -> Optional[str]:
        """The ``perf.shm.*`` counters (zero-copy record segments), when
        observability is recording them."""
        from .. import obs

        if not obs.is_enabled():
            return None
        snapshot = obs.registry().snapshot()
        shm = {
            name.split(".")[-1]: value
            for name, value in snapshot.items()
            if name.startswith("perf.shm.") and "{" not in name
        }
        if not shm:
            return None
        return "shm: " + " ".join(
            f"{name}={value}" for name, value in sorted(shm.items())
        )


def _repl(execute: Callable[[str], str], banner: str) -> None:  # pragma: no cover
    """The stdin/stdout loop shared by local and proxied sessions: the
    *same* commands go in, the *same* text comes out, whether ``execute``
    runs in-process or round-trips the debug-service protocol."""
    print(banner)
    print(execute("where"))
    while True:
        try:
            line = input("(ppd) ")
        except EOFError:
            break
        output = execute(line)
        if output:
            print(output)
        if line.strip() == "quit":
            break


def interactive_loop(record: ExecutionRecord) -> None:  # pragma: no cover
    """A stdin/stdout REPL over one execution record."""
    cli = PPDCommandLine(record)
    _repl(cli.execute, "PPD debugging session.  'help' lists commands.")


# ----------------------------------------------------------------------
# The ``ppd`` executable: serve / connect
# ----------------------------------------------------------------------


def _add_fault_flags(sub) -> None:  # pragma: no cover - exercised via main()
    """Deterministic fault-injection flags shared by serve/replay (see
    :mod:`repro.faults`; also honoured as the ``PPD_FAULTS`` env var)."""
    sub.add_argument("--faults", default=None, metavar="SPEC",
                     help="deterministic fault-injection spec, e.g. "
                          "'pool.crash:n=1;socket.stall:p=0.5,s=0.2'")
    sub.add_argument("--faults-seed", type=int, default=0, metavar="N",
                     help="seed for probabilistic fault points (default 0)")


def _install_faults(args) -> None:  # pragma: no cover - exercised via main()
    if getattr(args, "faults", None):
        from .. import faults

        faults.install(faults.FaultPlan.parse(args.faults, seed=args.faults_seed))


def _jobs_arg(value: str):
    """``--jobs``/``--pool-jobs`` value: a worker count or ``auto`` (CPU-
    sized pool with the adaptive serial-vs-pooled dispatch policy)."""
    if value == "auto":
        return "auto"
    return int(value)


def _build_parser():  # pragma: no cover - exercised via main()
    import argparse

    parser = argparse.ArgumentParser(
        prog="ppd",
        description="PPD debug service (Miller & Choi's debugging phase, served over TCP)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a multi-session debug service")
    serve.add_argument("addr", help="host:port to listen on (port 0 picks one)")
    serve.add_argument("--max-sessions", type=int, default=8, metavar="N",
                       help="live sessions kept in memory before LRU eviction")
    serve.add_argument("--idle-timeout", type=float, default=None, metavar="SECONDS",
                       help="evict sessions idle longer than this")
    serve.add_argument("--request-timeout", type=float, default=30.0, metavar="SECONDS",
                       help="per-request deadline (structured 'timeout' error after)")
    serve.add_argument("--max-connections", type=int, default=32, metavar="N",
                       help="refuse connections beyond this with a server-busy error")
    serve.add_argument("--no-obs", action="store_true",
                       help="do not enable repro.obs server counters")
    serve.add_argument("--pool-jobs", type=_jobs_arg, default=None, metavar="N|auto",
                       help="attach an N-worker replay pool to every session "
                            "('auto' sizes it per CPU and dispatches adaptively; "
                            "shed to inline mode when the circuit breaker opens)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent replay cache: write-through spill every "
                            "replay to DIR (keyed by record digest), so a "
                            "restarted daemon serves previously-seen records "
                            "warm (env: PPD_CACHE_DIR)")
    _add_fault_flags(serve)

    replay = sub.add_parser(
        "replay",
        help="re-execute every logged e-block interval of a record "
             "through the process pool (repro.perf)",
    )
    replay.add_argument("record", help="persisted record path (runtime/persist.py JSON)")
    replay.add_argument("--jobs", type=_jobs_arg, default=None, metavar="N|auto",
                        help="worker processes (default: one per available CPU; "
                             "'auto' additionally picks serial vs pooled per "
                             "batch from interval step mass)")
    replay.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="replay the full interval set K times (cache warmth demo)")
    replay.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent replay cache directory: a re-run over "
                             "the same record starts warm (env: PPD_CACHE_DIR)")
    _add_fault_flags(replay)

    disasm = sub.add_parser(
        "disasm",
        help="compile a PCL source file and print its repro.vm bytecode listing",
    )
    disasm.add_argument("program", help="PCL source file to lower")
    disasm.add_argument("--proc", default=None, metavar="NAME",
                        help="only list this procedure/function")
    disasm.add_argument("--fast", action="store_true",
                        help="list the verified fast-path form (PRE_LOCAL / "
                             "fused superinstructions) instead of the raw lowering")
    disasm.add_argument("--effects", action="store_true",
                        help="annotate statement boundaries with their "
                             "local/shared/sync effect classification")
    disasm.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the listing plus effect analysis as a "
                             "JSON document")

    analyze = sub.add_parser(
        "analyze",
        help="static effect analysis of a PCL source file "
             "(repro.analysis.effects): per-statement local/shared/sync "
             "classification, per-procedure summaries, shared access sites",
    )
    analyze.add_argument("program", help="PCL source file to analyze")
    analyze.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the analysis as a JSON document")

    lint = sub.add_parser(
        "lint",
        help="static analysis of a PCL source file (repro.analysis.lint); "
             "exits 1 when any error-severity finding remains",
    )
    lint.add_argument("program", help="PCL source file to analyze")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit diagnostics as a JSON document")
    lint.add_argument("--severity", choices=("error", "warning"), default=None,
                      help="only report findings of this severity")

    localize = sub.add_parser(
        "localize",
        help="run a PCL program (or load a record) and rank faulty-process "
             "suspects against their peer group's consensus "
             "(repro.analysis.localize); exits 1 when a suspect is found",
    )
    localize.add_argument("target",
                          help="PCL source file to run, or with --record a "
                               "persisted record (runtime/persist.py JSON)")
    localize.add_argument("--record", action="store_true", dest="is_record",
                          help="treat TARGET as a persisted execution record")
    localize.add_argument("--seed", type=int, default=0,
                          help="scheduler seed for program runs")
    localize.add_argument("--inputs", default=None, metavar="A,B,...",
                          help="comma-separated integer inputs for program runs")
    localize.add_argument("--top", type=int, default=3, metavar="K",
                          help="suspects to report (default 3)")
    localize.add_argument("--json", action="store_true", dest="as_json",
                          help="emit the suspect ranking as a JSON document")
    localize.add_argument("--diff", type=int, default=None, metavar="PID",
                          help="show one process's diff against its consensus "
                               "instead of the ranking")

    connect = sub.add_parser(
        "connect", help="interactive REPL proxied to a running debug service"
    )
    connect.add_argument("addr", help="host:port of a running 'ppd serve'")
    group = connect.add_mutually_exclusive_group(required=True)
    group.add_argument("--record", metavar="PATH",
                       help="persisted record to upload and debug")
    group.add_argument("--program", metavar="PATH",
                       help="PCL source file to run (logged) on the server and debug")
    connect.add_argument("--seed", type=int, default=0, help="scheduler seed for --program")
    connect.add_argument("--inputs", default=None, metavar="A,B,...",
                         help="comma-separated integer inputs for --program")
    return parser


def _main_serve(args) -> int:  # pragma: no cover - exercised by CI server-smoke
    import os
    import signal

    from .. import obs
    from ..server import DebugService, parse_addr

    if not args.no_obs:
        obs.enable()
    host, port = parse_addr(args.addr)
    service = DebugService(
        host,
        port,
        max_sessions=args.max_sessions,
        idle_timeout_s=args.idle_timeout,
        request_timeout_s=args.request_timeout,
        max_connections=args.max_connections,
        pool_jobs=args.pool_jobs,
        cache_dir=args.cache_dir or os.environ.get("PPD_CACHE_DIR") or None,
    )
    host, port = service.start()
    print(f"ppd debug service listening on {host}:{port}", flush=True)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: service.request_shutdown())
    service.wait_for_shutdown()
    print("ppd debug service drained", flush=True)
    return 0


def _main_replay(args) -> int:
    """``ppd replay``: pooled re-execution of a record's whole interval set."""
    import os
    import time

    from ..core.emulation import interval_indexes
    from ..perf import ReplayCache, ReplayPool
    from ..runtime.persist import load_record

    record = load_record(args.record)
    requests = [
        (pid, interval_id)
        for pid, index in sorted(interval_indexes(record).items())
        for interval_id in sorted(index)
    ]
    if not requests:
        print("record has no logged intervals to replay")
        return 1
    cache = ReplayCache(spill_dir=args.cache_dir or os.environ.get("PPD_CACHE_DIR") or None)
    with ReplayPool(record, jobs=args.jobs, cache=cache) as pool:
        for round_number in range(max(1, args.repeat)):
            started = time.perf_counter()
            results = pool.replay_batch(requests)
            elapsed = time.perf_counter() - started
            events = sum(result.event_count for result in results)
            print(
                f"round {round_number + 1}: replayed {len(requests)} interval(s) "
                f"with --jobs {pool.jobs}: {events} events in {elapsed:.3f}s"
            )
        info = pool.describe()
        cache_info = pool.cache.describe()
    policy = ""
    if info["adaptive"]:
        policy = (
            f" policy(auto): serial={info['policy']['serial']} "
            f"pooled={info['policy']['pooled']};"
        )
    print(
        f"pool: executed={info['executed']} chunks={info['chunks']} "
        f"bytes_shipped={info['bytes_shipped']} "
        f"fallbacks={info['fallbacks']} "
        f"worker_seconds={info['worker_seconds']};{policy} "
        f"cache: hits={cache_info['hits']} misses={cache_info['misses']} "
        f"spill_hits={cache_info['spill_hits']}"
    )
    return 0


def _main_lint(args) -> int:
    """``ppd lint``: run the static analyzer over one PCL source file.

    Prints the lint report (text or ``--json``) and exits 1 when any
    error-severity diagnostic survives the ``--severity`` filter — the
    shape CI hooks expect from a linter."""
    from ..analysis.lint import lint_compiled
    from ..compiler.compile import compile_program

    with open(args.program) as handle:
        source = handle.read()
    result = lint_compiled(compile_program(source))
    print(result.to_json(severity=args.severity) if args.as_json
          else result.render(severity=args.severity))
    failing = result.errors if args.severity != "warning" else []
    return 1 if failing else 0


def _main_localize(args) -> int:
    """``ppd localize``: faulty-process localization over one execution.

    Runs the program (or loads ``--record``), then routes the report
    through :class:`PPDCommandLine` — the exact command the in-session
    ``localize`` and the server's ``localize`` verb execute, so all three
    surfaces print identical suspect rankings.  Exits 1 when any
    significant suspect is found (clean groups exit 0)."""
    if args.is_record:
        from ..runtime.persist import load_record

        record = load_record(args.target)
    else:
        from ..compiler.compile import compile_program
        from ..runtime.machine import Machine

        with open(args.target) as handle:
            source = handle.read()
        inputs = (
            [int(part) for part in args.inputs.split(",")] if args.inputs else None
        )
        record = Machine(compile_program(source), seed=args.seed, inputs=inputs).run()
    cli = PPDCommandLine(record, autostart=False)
    if args.diff is not None:
        print(cli.execute(f"localize diff {args.diff}"))
    else:
        line = f"localize {args.top}" + (" json" if args.as_json else "")
        print(cli.execute(line))
    return 0 if cli.session.localize().is_clean else 1


def _main_analyze(args) -> int:
    """``ppd analyze``: static effect analysis of one PCL source file.

    Prints each procedure's interprocedural summary, its per-statement
    local/shared/sync classification (with elidability), and the shared
    access-site table racecands refinement consumes."""
    import json

    from ..analysis.effects import analyze_program
    from ..compiler.compile import compile_program

    with open(args.program) as handle:
        source = handle.read()
    effects = analyze_program(compile_program(source))
    counts = effects.counts()
    if args.as_json:
        document = {
            "counts": counts,
            "procs": [
                {
                    "name": name,
                    "kind": proc.kind,
                    "summary": effects.summaries[name],
                    "counts": proc.counts(),
                    "stmts": [
                        {
                            "label": stmt.stmt_label,
                            "node_id": stmt.node_id,
                            "effect": stmt.effect,
                            "elidable": stmt.elidable,
                        }
                        for stmt in proc.stmts
                    ],
                }
                for name, proc in effects.procs.items()
            ],
            "shared_sites": [list(site) for site in sorted(effects.shared_sites)],
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    total = sum(counts.values())
    elidable = sum(
        1 for proc in effects.procs.values() for stmt in proc.stmts if stmt.elidable
    )
    print(
        f"effects: {len(effects.procs)} procedure(s), {total} statement(s) — "
        f"{counts['local']} local ({elidable} elidable), "
        f"{counts['shared']} shared, {counts['sync']} sync"
    )
    for name, proc in effects.procs.items():
        print(f"\n{proc.kind} {name}  [summary={effects.summaries[name]}]")
        for stmt in proc.stmts:
            label = stmt.stmt_label or f"n{stmt.node_id}"
            note = stmt.effect + (" elidable" if stmt.elidable else "")
            print(f"  {label:<8} {note}")
    if effects.shared_sites:
        print("\nshared sites:")
        for proc_name, node_id, var, write in sorted(effects.shared_sites):
            kind = "write" if write else "read"
            print(f"  {proc_name:<12} {var:<12} {kind} @n{node_id}")
    return 0


def _main_disasm(args) -> int:
    """``ppd disasm``: print the bytecode lowering of a PCL program.

    ``--fast`` shows the verified fast-path form the VM actually runs,
    ``--effects`` annotates statement boundaries with their effect
    classification, and ``--json`` emits both plus the shared-site table
    as one machine-readable document."""
    import json

    from ..compiler.compile import compile_program
    from ..vm import disasm_json, disassemble_program

    with open(args.program) as handle:
        source = handle.read()
    compiled = compile_program(source)
    try:
        if args.as_json:
            print(json.dumps(disasm_json(compiled, proc=args.proc, fast=args.fast),
                             indent=2, sort_keys=True))
        else:
            print(disassemble_program(compiled, proc=args.proc,
                                      fast=args.fast, annotate=args.effects))
    except KeyError as error:
        print(f"error: {error.args[0]}")
        return 1
    except BrokenPipeError:
        # Listing piped into a pager/head that closed early; not an error.
        import os
        import sys

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


def _main_connect(args) -> int:  # pragma: no cover - interactive
    import sys

    from ..server import DebugClient, ServerError

    client = DebugClient.connect(args.addr, retries=10)
    with client:
        try:
            if args.record:
                session = client.open_record(args.record)
            else:
                with open(args.program) as handle:
                    source = handle.read()
                inputs = (
                    [int(part) for part in args.inputs.split(",")] if args.inputs else None
                )
                session = client.open_program(source, seed=args.seed, inputs=inputs)
        except ServerError as error:
            # The server rejected the upload: a corrupt record or bad PCL.
            print(f"error: {error}", file=sys.stderr)
            return 2

        def execute(line: str) -> str:
            if line.strip() == "quit":
                return "bye"
            try:
                return session.execute(line)
            except ServerError as error:
                return f"server error: {error}"

        try:
            _repl(
                execute,
                f"PPD remote session {session.sid} @ {args.addr}.  'help' lists commands.",
            )
        finally:
            try:
                session.close()
            except (ServerError, ConnectionError, OSError):
                pass
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``ppd`` / ``python -m repro``.

    Bad input — a file that cannot be read, a corrupt or tampered record
    (quarantined as :func:`~repro.runtime.persist.load_record` does it),
    or malformed PCL — prints one ``error:`` line to stderr and exits 2
    instead of a traceback; 1 stays "found something" for ``lint`` and
    ``localize``."""
    import sys

    from .. import faults
    from ..lang.errors import PCLError
    from ..runtime.persist import PersistError

    try:
        faults.activate_from_env()
    except faults.FaultSpecError as error:
        print(f"error: bad {faults.ENV_SPEC} spec: {error}", file=sys.stderr)
        return 2
    args = _build_parser().parse_args(argv)
    try:
        _install_faults(args)
    except faults.FaultSpecError as error:
        print(f"error: bad --faults spec: {error}", file=sys.stderr)
        return 2
    try:
        if args.command == "serve":
            return _main_serve(args)
        if args.command == "replay":
            return _main_replay(args)
        if args.command == "disasm":
            return _main_disasm(args)
        if args.command == "analyze":
            return _main_analyze(args)
        if args.command == "lint":
            return _main_lint(args)
        if args.command == "localize":
            return _main_localize(args)
        return _main_connect(args)
    except (OSError, PersistError, PCLError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
