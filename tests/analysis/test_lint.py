"""Golden tests for the PCL lint driver (repro.analysis.lint).

One fixture program per diagnostic code, exercised through every surface:
the library API, the debugger's ``lint``/``candidates`` commands, and the
``ppd lint`` executable (text, ``--json``, ``--severity``, exit status).
"""

import json

import pytest

from repro import Machine, compile_program
from repro.analysis.lint import CODES, ERROR, WARNING, lint_compiled
from repro.core.cli import PPDCommandLine, main
from tests.vm.dead_code import DEAD_CODE_PROGRAMS

#: One program per code, each constructed to trigger *that* diagnostic.
FIXTURES = {
    "race": """
shared int total;
proc worker(int k) { total = total + k; }
proc main() { spawn worker(1); spawn worker(2); }
""",
    "lock-cycle": """
shared int x;
sem a = 1;
sem b = 1;
proc p1() { P(a); P(b); x = 1; V(b); V(a); }
proc p2() { P(b); P(a); x = 2; V(a); V(b); }
proc main() { spawn p1(); spawn p2(); }
""",
    "uninit": """
proc main() {
    int c = input();
    if (c > 0) { int x = 1; }
    print(x);
}
""",
    "unsync": """
shared int total;
proc worker(int k) { total = total + k; }
proc main() { spawn worker(1); spawn worker(2); }
""",
    "dead-store": """
proc main() {
    int y = 1;
    y = 2;
    print(y);
}
""",
    "unreachable": """
func int f() {
    return 1;
    int z = 9;
}
proc main() { print(f()); }
""",
    "unused": """
proc helper(int k) { print(1); }
proc main() { spawn helper(3); }
""",
}


def lint_source(source):
    return lint_compiled(compile_program(source))


class TestEveryCodeFires:
    @pytest.mark.parametrize("code", CODES)
    def test_fixture_triggers_code(self, code):
        result = lint_source(FIXTURES[code])
        assert result.by_code(code), f"{code} not reported:\n{result.render()}"

    @pytest.mark.parametrize("code", CODES)
    def test_diagnostics_carry_positions(self, code):
        for diag in lint_source(FIXTURES[code]).by_code(code):
            assert diag.proc
            assert diag.line > 0
            assert diag.severity in (ERROR, WARNING)


class TestDeadRegions:
    """Each dead region is reported once, at its first statement in
    source order, a dead loop (whose head its own body enters) included."""

    @pytest.mark.parametrize(
        "source,line,text",
        [
            (
                "proc main() { int i = 0; return; while (i < 3) { i = i + 1; } }",
                1,
                "while",
            ),
            (DEAD_CODE_PROGRAMS["return_then_loop"], 10, "while"),
            (DEAD_CODE_PROGRAMS["break_then_loop"], 8, "while"),
            ("proc main() { int i = 0; return; i = 1; print(i); }", 1, "i = 1"),
        ],
        ids=["loop", "return_then_loop", "break_then_loop", "tail"],
    )
    def test_one_warning_per_region(self, source, line, text):
        compiled = compile_program(source)
        found = [d for d in lint_compiled(compiled).diagnostics if d.code == "unreachable"]
        assert [d.line for d in found] == [line]
        statement = compiled.database.statement_text(found[0].node_id)
        assert statement.startswith(text)

    def test_two_regions_two_warnings(self):
        source = """
proc main() {
    int i = 0;
    while (i < 3) {
        i = i + 1;
        break;
        print(i);
    }
    return;
    while (i < 9) { i = i + 2; }
}
"""
        found = [
            d for d in lint_compiled(compile_program(source)).diagnostics if d.code == "unreachable"
        ]
        assert [d.line for d in found] == [7, 10]


class TestRendering:
    def test_race_text_golden(self):
        result = lint_source(FIXTURES["race"])
        text = result.render()
        assert "error[race]" in text
        assert "potential data race on shared 'total'" in text
        assert text.rstrip().endswith("error(s), 1 warning(s)") or "error(s)" in text

    def test_clean_program_reports_no_findings(self):
        result = lint_source("proc main() { print(1); }")
        assert result.render() == "no findings"
        assert result.render(severity=ERROR) == "no error findings"

    def test_severity_filter(self):
        result = lint_source(FIXTURES["dead-store"])
        assert result.filtered(WARNING)
        assert not result.filtered(ERROR)

    def test_json_round_trips(self):
        result = lint_source(FIXTURES["race"])
        payload = json.loads(result.to_json())
        assert payload
        for entry in payload:
            assert set(entry) == {
                "code", "severity", "proc", "node_id", "line", "message", "related",
            }
        errors_only = json.loads(result.to_json(severity=ERROR))
        assert all(e["severity"] == ERROR for e in errors_only)

    def test_diagnostics_sorted_and_deterministic(self):
        source = FIXTURES["race"]
        first = lint_source(source)
        second = lint_source(source)
        assert [d.to_dict() for d in first.diagnostics] == [
            d.to_dict() for d in second.diagnostics
        ]
        keys = [(d.proc, d.line, d.code) for d in first.diagnostics]
        assert keys == sorted(keys)


class TestSuppression:
    def test_same_line_marker_silences(self):
        source = """
shared int total;
proc worker(int k) { total = total + k; } // lint: ok
proc main() { spawn worker(1); spawn worker(2); }
"""
        result = lint_source(source)
        assert not result.by_code("race")
        assert result.suppressed > 0

    def test_preceding_line_marker_silences(self):
        source = """
proc main() {
    // lint: ok
    int y = 1;
    y = 2;
    print(y);
}
"""
        assert not lint_source(source).by_code("dead-store")

    def test_unrelated_lines_unaffected(self):
        source = FIXTURES["dead-store"].replace(
            "print(y);", "print(y); // lint: ok"
        )
        assert lint_source(source).by_code("dead-store")


class TestDebuggerCommands:
    def _cli(self, source, seed=3):
        record = Machine(compile_program(source), seed=seed, mode="logged").run()
        return PPDCommandLine(record)

    def test_lint_command_matches_library(self):
        cli = self._cli(FIXTURES["race"])
        expected = lint_compiled(
            cli.session.compiled, candidates=cli.session.race_candidates()
        )
        assert cli.execute("lint") == expected.render()
        assert cli.execute("lint json") == expected.to_json()
        assert cli.execute("lint error") == expected.render(severity=ERROR)
        assert cli.execute("lint json warning") == expected.to_json(severity=WARNING)

    def test_lint_rejects_bad_argument(self):
        cli = self._cli(FIXTURES["race"])
        assert cli.execute("lint frobnicate").startswith("usage:")

    def test_candidates_listing_and_explain(self):
        cli = self._cli(FIXTURES["race"])
        listing = cli.execute("candidates")
        assert "total" in listing
        detail = cli.execute("candidates total")
        assert "candidate site pair" in detail
        assert "worker" in detail
        assert "not a race candidate" in cli.execute("candidates nothing")

    def test_candidates_on_clean_program(self):
        cli = self._cli("proc main() { print(1); }", seed=0)
        assert cli.execute("candidates") == "no static race candidates"


class TestPpdLintExecutable:
    def _write(self, tmp_path, source):
        path = tmp_path / "program.pcl"
        path.write_text(source)
        return str(path)

    def test_exit_one_on_errors(self, tmp_path, capsys):
        path = self._write(tmp_path, FIXTURES["race"])
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "error[race]" in out

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        path = self._write(tmp_path, "proc main() { print(1); }")
        assert main(["lint", path]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_exit_zero_on_warnings_only(self, tmp_path, capsys):
        path = self._write(tmp_path, FIXTURES["dead-store"])
        assert main(["lint", path]) == 0
        assert "warning[dead-store]" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        path = self._write(tmp_path, FIXTURES["race"])
        assert main(["lint", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert any(entry["code"] == "race" for entry in payload)

    def test_severity_warning_filter_masks_errors(self, tmp_path, capsys):
        path = self._write(tmp_path, FIXTURES["race"])
        # Asking only for warnings: errors are not *shown* and must not
        # fail the run either.
        assert main(["lint", path, "--severity", "warning"]) == 0
        out = capsys.readouterr().out
        assert "error[race]" not in out


class TestObsCounters:
    def test_lint_counters_recorded(self):
        from repro import obs

        compiled = compile_program(FIXTURES["race"])
        with obs.capture() as registry:
            result = lint_compiled(compiled)
        snapshot = registry.snapshot()
        assert snapshot.get("analysis.lint.diagnostics") == len(result.diagnostics)
        assert snapshot.get("analysis.lint.errors") == len(result.errors)


class TestReusesTheCompile:
    def test_lint_computes_no_use_def_sets(self, monkeypatch):
        """lint_compiled reads the reaching definitions the compile's static
        graph holds, so it computes no statement's USE/DEF sets again."""
        from repro.analysis import dataflow
        from repro.workloads import ring_allreduce

        compiled = compile_program(ring_allreduce(32, deviant=5))
        original = dataflow.stmt_use_def
        computed = []

        def counted(stmt, summaries):
            computed.append(stmt.node_id)
            return original(stmt, summaries)

        monkeypatch.setattr(dataflow, "stmt_use_def", counted)
        lint_compiled(compiled)
        assert computed == []

    def test_lint_walks_each_procedure_a_bounded_number_of_times(self, monkeypatch):
        """Lint walks each procedure a constant number of times (six on
        this program: the uninit and unused checks, and four in the race
        candidates and lock-cycle analyses), not once per use of a local."""
        from repro.lang import ast
        from repro.workloads import ring_allreduce

        compiled = compile_program(ring_allreduce(32, deviant=5))
        original = ast.walk_statements
        walks = []

        def counted(node):
            walks.append(node)
            return original(node)

        monkeypatch.setattr(ast, "walk_statements", counted)
        lint_compiled(compiled)
        assert len(walks) <= 8 * len(compiled.program.procs)

    @pytest.mark.parametrize("code", CODES)
    def test_standalone_lint_agrees(self, code):
        """run_lint, which builds its own analyses, finds what
        lint_compiled finds over the compile's."""
        from repro.analysis.lint import run_lint
        from repro.analysis.symbols import check_program
        from repro.lang import parse

        program = parse(FIXTURES[code])
        standalone = run_lint(program, check_program(program))
        assert standalone.to_json() == lint_source(FIXTURES[code]).to_json()
