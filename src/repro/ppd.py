"""The ``ppd`` executable (``python -m repro``).

Subcommands: ``serve`` runs the multi-session debug service
(:mod:`repro.server`), ``connect`` opens a REPL proxied to one,
``replay`` re-executes a record's logged e-blocks through the replay
cache (:mod:`repro.perf`), ``lint`` and ``analyze`` run the static
analyses, ``localize`` ranks faulty-process suspects, and ``disasm``
prints the bytecode lowering.  The debugger's own commands are
:class:`repro.core.cli.PPDCommandLine`.

At module level this file imports only the standard library, and each
subcommand imports what it runs.  So ``ppd --help`` loads none of the
debugger, and a ``ppd serve`` daemon loads the engine (parser, compiler,
VM, runtime, emulation) when it opens its first session, not before it
listens.
"""

from __future__ import annotations

from typing import Callable


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


def _add_fault_flags(sub) -> None:  # pragma: no cover - exercised via main()
    """Deterministic fault-injection flags shared by serve/replay (see
    :mod:`repro.faults`; also honoured as the ``PPD_FAULTS`` env var)."""
    sub.add_argument("--faults", default=None, metavar="SPEC",
                     help="deterministic fault-injection spec, e.g. "
                          "'cache.spill_io:n=1;socket.stall:p=0.5,s=0.2'")
    sub.add_argument("--faults-seed", type=int, default=0, metavar="N",
                     help="seed for probabilistic fault points (default 0)")


def _install_faults(args) -> None:  # pragma: no cover - exercised via main()
    if getattr(args, "faults", None):
        from . import faults

        faults.install(faults.FaultPlan.parse(args.faults, seed=args.faults_seed))


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
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent replay cache: write-through spill every "
                            "replay to DIR (keyed by record digest), so a "
                            "restarted daemon serves previously-seen records "
                            "warm (env: PPD_CACHE_DIR)")
    _add_fault_flags(serve)

    replay = sub.add_parser(
        "replay",
        help="re-execute every logged e-block interval of a record "
             "through the replay cache (repro.perf)",
    )
    replay.add_argument("record", help="persisted record path (runtime/persist.py JSON)")
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

    from . import obs
    from .server import DebugService, parse_addr

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
    """``ppd replay``: serial re-execution of a record's whole interval
    set, each interval through the replay cache as a session replays it."""
    import os
    import time

    from .core.emulation import EmulationPackage
    from .perf import ReplayCache
    from .runtime.persist import load_record

    package = EmulationPackage(load_record(args.record))
    requests = [
        (pid, interval_id)
        for pid, index in sorted(package.indexes.items())
        for interval_id in sorted(index)
    ]
    if not requests:
        print("record has no logged intervals to replay")
        return 1
    cache = ReplayCache(spill_dir=args.cache_dir or os.environ.get("PPD_CACHE_DIR") or None)
    for round_number in range(max(1, args.repeat)):
        started = time.perf_counter()
        events = sum(
            cache.replay(package, pid, interval_id).event_count for pid, interval_id in requests
        )
        elapsed = time.perf_counter() - started
        print(
            f"round {round_number + 1}: replayed {len(requests)} interval(s): "
            f"{events} events in {elapsed:.3f}s"
        )
    info = cache.describe()
    print(f"cache: hits={info['hits']} misses={info['misses']} spill_hits={info['spill_hits']}")
    return 0


def _main_lint(args) -> int:
    """``ppd lint``: run the static analyzer over one PCL source file.

    Prints the lint report (text or ``--json``) and exits 1 when any
    error-severity diagnostic survives the ``--severity`` filter — the
    shape CI hooks expect from a linter."""
    from .analysis.lint import lint_compiled
    from .compiler.compile import compile_program

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
    from .core.cli import PPDCommandLine

    if args.is_record:
        from .runtime.persist import load_record

        record = load_record(args.target)
    else:
        from .compiler.compile import compile_program
        from .runtime.machine import Machine

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
    local/shared/sync classification, and the shared access-site table."""
    import json

    from .analysis.effects import analyze_program
    from .compiler.compile import compile_program

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
    print(
        f"effects: {len(effects.procs)} procedure(s), {total} statement(s) — "
        f"{counts['local']} local, {counts['shared']} shared, {counts['sync']} sync"
    )
    for name, proc in effects.procs.items():
        print(f"\n{proc.kind} {name}  [summary={effects.summaries[name]}]")
        for stmt in proc.stmts:
            label = stmt.stmt_label or f"n{stmt.node_id}"
            print(f"  {label:<8} {stmt.effect}")
    if effects.shared_sites:
        print("\nshared sites:")
        for proc_name, node_id, var, write in sorted(effects.shared_sites):
            kind = "write" if write else "read"
            print(f"  {proc_name:<12} {var:<12} {kind} @n{node_id}")
    return 0


def _main_disasm(args) -> int:
    """``ppd disasm``: print the bytecode lowering of a PCL program.

    ``--effects`` annotates statement boundaries with their effect
    classification, and ``--json`` emits the listing, the effects and the
    shared-site table as one machine-readable document."""
    import json

    from .compiler.compile import compile_program
    from .vm import disasm_json, disassemble_program

    with open(args.program) as handle:
        source = handle.read()
    compiled = compile_program(source)
    try:
        if args.as_json:
            print(json.dumps(disasm_json(compiled, proc=args.proc),
                             indent=2, sort_keys=True))
        else:
            print(disassemble_program(compiled, proc=args.proc,
                                      annotate=args.effects))
    except KeyError as error:
        print(f"error: {error.args[0]}")
        return 1
    return 0


def _main_connect(args) -> int:  # pragma: no cover - interactive
    import sys

    from .server import DebugClient, ServerError

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
    ``localize``.  A reader that closes stdout early (``| head``) is not
    an error: the command stops and exits 0."""
    import os
    import sys

    from . import faults
    from .lang.errors import PCLError
    from .runtime.errors import PersistError

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
    except BrokenPipeError:
        # Later writes, and the flush at exit, go nowhere instead of failing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, PersistError, PCLError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
