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
                     ``cache`` shows replay-cache statistics
``save <path>``      persist this execution record (runtime/persist.py JSON)
``load <path>``      load a persisted record, restarting the session over it
``help`` / ``quit``

The same command set is served over TCP by :mod:`repro.server`; run
``ppd serve <host:port>`` and ``ppd connect <host:port>`` (see
:func:`main`) — a proxied session's transcript is byte-identical to a
local one.  ``ppd replay <record>`` re-executes every logged e-block
interval of a persisted record through the replay cache
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

# The ``ppd`` executable is :mod:`repro.ppd`; ``main`` stays importable
# from here for scripts that call ``repro.core.cli.main``.
from ..ppd import _repl, main  # noqa: F401


class PPDCommandLine:
    """Executes debugger commands against one recorded execution."""

    def __init__(
        self,
        record: ExecutionRecord,
        autostart: bool = True,
        cache=None,
    ) -> None:
        self.record = record
        self.session = PPDSession(record, cache=cache)
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

        history = access_history(self.session.parallel_graph, var)
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
            # The file belongs to whoever named it (a served client, say):
            # a bad one gets a typed answer and stays where it is.
            record = load_record(path, quarantine=False)
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
        """``stats cache``: the replay cache's counters.

        A separate mode (not part of plain ``stats``) because the shared
        cache is process-wide state: its numbers depend on every session
        in the process, while plain ``stats`` must stay a deterministic
        function of this session's record + command history (the server's
        rehydration-transparency contract relies on that).
        """
        info = self.session.cache_stats()
        shared = info["shared"]
        return (
            f"session replays: {info['session_replays']}\n"
            "shared cache: "
            f"hits={shared['hits']} misses={shared['misses']} "
            f"evictions={shared['evictions']} spills={shared['spills']} "
            f"spill_hits={shared['spill_hits']} entries={shared['entries']} "
            f"events={shared['events']}/{shared['max_events']}"
        )


def interactive_loop(record: ExecutionRecord) -> None:  # pragma: no cover
    """A stdin/stdout REPL over one execution record."""
    cli = PPDCommandLine(record)
    _repl(cli.execute, "PPD debugging session.  'help' lists commands.")
