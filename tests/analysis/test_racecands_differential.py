"""The race-candidate analysis against the analysis it replaced.

``repro.analysis.racecands`` gathers its facts in one walk per procedure
and runs each later step only for the pairs that need it;
``tests/oracle/racecands.py`` is the analysis as it was before, which
walked each procedure once per fact and ran every step.  On generated
programs both must give the same candidate set (the oracle's with and
without its effect refinement, which must drop nothing), the same access
sites, the same concurrency answers and the same lockset information,
the one lint's lock-cycle check reads.

Besides the two shared fuzz generators, :func:`race_programs` builds
programs that reach every step: shared variables touched by main, by
spawned workers and by helper functions; locks and binary and counting
semaphores, used with and without P/V discipline; calls made while a
token is held and helpers that release one or spawn; spawns inside loops
and from spawned procedures; and ``join()``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_program
from repro.analysis import racecands
from tests.oracle import racecands as oracle
from tests.test_fuzz import programs
from tests.test_fuzz_parallel import parallel_programs


def _site(site) -> tuple:
    return (site.proc, site.node_id, site.var, site.write, site.line)


def candidate_view(cands) -> tuple:
    return (
        cands.variables,
        [(p.variable, p.kind, _site(p.site_a), _site(p.site_b)) for p in cands.pairs],
        [(var, [_site(s) for s in sites]) for var, sites in cands.sites_by_var.items()],
        cands.conflicts_by_node,
        cands.known_sites,
        cands.site_cap,
    )


def lockset_view(info) -> tuple:
    return (info.tokens, info.entry, info.at_node, info.may_release)


def assert_same_analysis(source: str) -> None:
    compiled = compile_program(source)
    program, table, graph, cfgs = (
        compiled.program,
        compiled.table,
        compiled.call_graph,
        compiled.cfgs,
    )
    new = racecands.candidates_from_compiled(compiled)
    for refine in (True, False):
        old = oracle.candidates_from_compiled(compiled, refine=refine)
        assert candidate_view(new) == candidate_view(old)
        assert old.effect_pruned == 0
    assert [_site(s) for s in racecands.collect_access_sites(program, table)] == [
        _site(s) for s in oracle.collect_access_sites(program, table)
    ]

    old_concurrency = oracle.analyze_concurrency(program, graph)
    new_concurrency = racecands.analyze_concurrency(program, graph)
    assert new_concurrency.procs_under_root == old_concurrency.procs_under_root
    assert new_concurrency.multi_instance_roots == old_concurrency.multi_instance_roots
    for p1 in program.proc_names:
        for p2 in program.proc_names:
            assert new_concurrency.concurrent_procs(p1, p2) == (
                old_concurrency.concurrent_procs(p1, p2)
            )

    roots = set(old_concurrency.procs_under_root)
    old_locksets = oracle.analyze_locksets(program, table, graph, cfgs, roots)
    facts = racecands.ProgramFacts(program, table, graph, cfgs)
    assert lockset_view(facts.locksets()) == lockset_view(old_locksets)
    assert lockset_view(racecands.analyze_locksets(program, table, graph, cfgs, roots)) == (
        lockset_view(old_locksets)
    )


@st.composite
def race_programs(draw) -> str:
    """A program that reaches the concurrency, lockset and join steps."""
    n_shared = draw(st.integers(1, 3))
    shared = [f"s{i}" for i in range(n_shared)]
    tokens: list[tuple[str, str]] = []  # (name, "lock" | "sem")
    decls = [f"shared int {name};" for name in shared]
    if draw(st.booleans()):
        decls.append("lockvar L;")
        tokens.append(("L", "lock"))
    for i in range(draw(st.integers(0, 2))):
        initial = draw(st.sampled_from([1, 1, 2]))
        decls.append(f"sem m{i} = {initial};")
        tokens.append((f"m{i}", "sem"))
    n_helpers = draw(st.integers(0, 2))
    n_workers = draw(st.integers(1, 3))
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def take(token: tuple[str, str]) -> str:
        return f"lock({token[0]});" if token[1] == "lock" else f"P({token[0]});"

    def give(token: tuple[str, str]) -> str:
        return f"unlock({token[0]});" if token[1] == "lock" else f"V({token[0]});"

    def statements(depth: int, callable_helpers: int, spawnable: list[str]) -> list[str]:
        lines: list[str] = []
        choices = ["write", "read", "write"]
        if tokens:
            choices += ["guarded", "guarded", "stray"]
        if callable_helpers:
            choices += ["call", "call"]
        if spawnable:
            choices += ["spawn", "join"]
        if depth < 2:
            choices += ["loop", "branch"]
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(choices))
            var = draw(st.sampled_from(shared))
            if kind == "write":
                lines.append(f"{var} = {var} + 1;")
            elif kind == "read":
                lines.append(f"int {fresh('t')} = {var};")
            elif kind == "guarded":
                token = draw(st.sampled_from(tokens))
                lines.append(take(token))
                lines.extend(statements(depth + 1, callable_helpers, []))
                if draw(st.integers(0, 4)):
                    lines.append(give(token))
            elif kind == "stray":
                token = draw(st.sampled_from(tokens))
                lines.append(draw(st.sampled_from([take(token), give(token)])))
            elif kind == "call":
                helper = draw(st.integers(0, callable_helpers - 1))
                lines.append(f"int {fresh('r')} = h{helper}();")
            elif kind == "spawn":
                lines.append(f"spawn {draw(st.sampled_from(spawnable))}();")
            elif kind == "join":
                lines.append("join();")
            elif kind == "loop":
                index = fresh("k")
                lines.append(f"for ({index} = 0; {index} < 2; {index} = {index} + 1) {{")
                lines.extend(statements(depth + 1, callable_helpers, spawnable))
                lines.append("}")
            else:
                lines.append(f"if ({var} > 0) {{")
                lines.extend(statements(depth + 1, callable_helpers, spawnable))
                lines.append("} else {")
                lines.extend(statements(depth + 1, callable_helpers, []))
                lines.append("}")
        return lines

    workers = [f"w{w}" for w in range(n_workers)]
    procs = []
    for h in range(n_helpers):
        # A helper may call the helpers defined before it, and spawn.
        body = statements(1, h, workers)
        procs.append(f"func int h{h}() {{\n" + "\n".join(body) + "\nreturn 0;\n}")
    # Helpers only main calls can spawn direct children of main.
    workers_call = n_helpers if draw(st.booleans()) else 0
    for w in range(n_workers):
        # A worker may spawn the workers after it (no spawn cycle).
        body = statements(0, workers_call, workers[w + 1:])
        procs.append(f"proc w{w}() {{\n" + "\n".join(body) + "\n}")
    main = statements(0, n_helpers, workers)
    main.insert(draw(st.integers(0, len(main))), f"spawn {draw(st.sampled_from(workers))}();")
    procs.append("proc main() {\n" + "\n".join(main) + "\n}")
    return "\n".join(decls) + "\n" + "\n\n".join(procs) + "\n"


@given(race_programs())
@settings(max_examples=150, deadline=None)
def test_matches_oracle_on_race_programs(source):
    assert_same_analysis(source)


@given(parallel_programs())
@settings(max_examples=40, deadline=None)
def test_matches_oracle_on_parallel_programs(case):
    source, _racy = case
    assert_same_analysis(source)


@given(programs())
@settings(max_examples=40, deadline=None)
def test_matches_oracle_on_sequential_programs(source):
    assert_same_analysis(source)


def test_race_programs_reach_every_step(monkeypatch):
    """The generator is worth its keep only if it reaches the lockset and
    join steps and makes both candidates and exclusions."""
    reached = {"locksets": 0, "join": 0, "pairs": 0, "excluded": 0}
    for step, name in (("locksets", "_locksets"), ("join", "_main_quiescent_nodes")):
        original = getattr(racecands, name)

        def counted(*args, _step=step, _original=original):
            reached[_step] += 1
            return _original(*args)

        monkeypatch.setattr(racecands, name, counted)

    @given(race_programs())
    @settings(max_examples=60, deadline=None, database=None)
    def sample(source):
        compiled = compile_program(source)
        cands = racecands.candidates_from_compiled(compiled)
        reached["pairs"] += bool(cands.pairs)
        sites = racecands.collect_access_sites(compiled.program, compiled.table)
        reached["excluded"] += bool({s.var for s in sites if s.write} - cands.variables)

    sample()
    assert all(count > 0 for count in reached.values()), reached
