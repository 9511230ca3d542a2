"""Command-line interface tests (§7's user-interface goal)."""

import pytest

from repro import compile_program, Machine
from repro.core import PPDCommandLine
from repro.runtime import run_program
from repro.workloads import bank_race, buggy_average, dining_philosophers, nested_calls


@pytest.fixture()
def cli():
    compiled = compile_program(buggy_average(5))
    record = Machine(
        compiled, seed=0, mode="logged", inputs=[10, 20, 30, 40, 50]
    ).run()
    return PPDCommandLine(record)


class TestBasicCommands:
    def test_where_reports_failure_site(self, cli):
        out = cli.execute("where")
        assert "assertion failed" in out
        assert "s11" in out

    def test_output(self, cli):
        assert "average = 20" in cli.execute("output")

    def test_stats(self, cli):
        out = cli.execute("stats")
        assert "1 replay(s)" in out
        assert "e-block replay(s)" in out
        assert "preemptions" in out
        assert "bytes" in out  # per-process log bytes line

    def test_stats_json(self, cli):
        import json

        report = json.loads(cli.execute("stats json"))
        assert report["debugging"]["replays"] == 1
        assert "0" in report["log"]["per_process"] or 0 in report["log"]["per_process"]
        assert report["execution"]["preemptions"] >= 0

    def test_stats_obs_counters(self, cli):
        from repro import obs

        with obs.capture():
            cli.execute("why average")
            out = cli.execute("stats obs")
        assert "obs counters:" in out
        assert "debug.flowback.queries" in out

    def test_graph_limits_nodes(self, cli):
        out = cli.execute("graph 3")
        assert out.count("[singular]") + out.count("[subgraph]") <= 3

    def test_why_variable(self, cli):
        out = cli.execute("why average")
        assert "total" in out
        assert "[data:" in out

    def test_why_unknown_variable(self, cli):
        out = cli.execute("why nonexistent")
        assert "no assignment" in out

    def test_expandable_then_expand(self, cli):
        listing = cli.execute("expandable")
        assert "readings_sum()" in listing
        uid = int(listing.split(":")[0].lstrip("#"))
        out = cli.execute(f"expand {uid}")
        assert "events regenerated" in out
        assert cli.execute("expandable") == "(nothing to expand)"

    def test_back_and_slice(self, cli):
        failure = cli.session.failure_event()
        out = cli.execute(f"back {failure.uid} 4")
        assert "average" in out
        slice_out = cli.execute(f"slice {failure.uid}")
        assert "s9" in slice_out

    def test_forward(self, cli):
        n_node = cli.session.graph.find_assignments("n")[0]
        out = cli.execute(f"forward {n_node.uid}")
        assert "average" in out

    def test_restore(self, cli):
        out = cli.execute("restore 9999")
        assert "shared memory" in out

    def test_races_on_sequential_program(self, cli):
        assert "race-free" in cli.execute("races")

    def test_help_and_unknown(self, cli):
        assert "flowback" in cli.execute("help")
        assert "unknown command" in cli.execute("bogus")
        assert cli.execute("") == ""

    def test_error_handling(self, cli):
        assert "error:" in cli.execute("back notanumber")
        assert "usage" in cli.execute("why")

    def test_run_script_stops_at_quit(self, cli):
        transcript = cli.run_script(["where", "quit", "output"])
        assert len(transcript) == 2
        assert transcript[-1] == ("quit", "bye")


class TestSaveLoad:
    def test_save_then_load_round_trip(self, cli, tmp_path):
        path = tmp_path / "session.ppd.json"
        why_before = cli.execute("why average")
        assert cli.execute(f"save {path}") == f"saved record to {path}"
        assert path.exists()

        other = PPDCommandLine(run_program(nested_calls(), seed=0))
        out = other.execute(f"load {path}")
        assert out.startswith(f"loaded record from {path}")
        # The loaded session debugs the averaging record now.
        assert "assertion failed" in other.execute("where")
        assert other.execute("why average") == why_before

    def test_save_usage_and_io_error(self, cli, tmp_path):
        assert cli.execute("save") == "usage: save <path>"
        out = cli.execute(f"save {tmp_path}/no/such/dir/x.json")
        assert out.startswith("error:")

    def test_load_usage_and_errors(self, cli, tmp_path):
        assert cli.execute("load") == "usage: load <path>"
        assert cli.execute(f"load {tmp_path}/missing.json").startswith("error:")
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        out = cli.execute(f"load {broken}")
        assert out.startswith("error:")
        assert "corrupt" in out

    def test_help_mentions_save_load(self, cli):
        help_text = cli.execute("help")
        assert "save <path>" in help_text
        assert "load <path>" in help_text


class TestParallelCommands:
    def test_races_detected(self):
        record = run_program(bank_race(2, 2), seed=3)
        cli = PPDCommandLine(record)
        out = cli.execute("races")
        assert "balance" in out

    def test_deadlock_command(self):
        compiled = compile_program(dining_philosophers(3))
        for seed in range(40):
            record = Machine(compiled, seed=seed, mode="logged").run()
            if record.deadlock is not None:
                break
        cli = PPDCommandLine(record, autostart=False)
        out = cli.execute("deadlock")
        assert "circular wait" in out
        assert "DEADLOCK" in cli.execute("where")

    def test_parallel_render(self):
        record = run_program(bank_race(2, 1), seed=0)
        cli = PPDCommandLine(record)
        out = cli.execute("parallel")
        assert "parallel dynamic graph" in out

    def test_completed_run_where(self):
        record = run_program(nested_calls(), seed=0)
        cli = PPDCommandLine(record)
        assert "completed normally" in cli.execute("where")


class TestPpdBadInput:
    """``ppd`` subcommands answer bad input with one ``error:`` line on
    stderr and exit 2, never a traceback."""

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_file(self, tmp_path, capsys):
        from repro.core.cli import main

        assert main(["lint", str(tmp_path / "missing.pcl")]) == 2
        self.assert_one_error_line(capsys)

    def test_corrupt_record_is_quarantined(self, cli, tmp_path, capsys):
        from repro.core.cli import main
        from repro.runtime.persist import save_record

        path = tmp_path / "run.ppd.json"
        save_record(cli.session.record, str(path))
        path.write_text(path.read_text()[:200])
        assert main(["replay", str(path)]) == 2
        self.assert_one_error_line(capsys)
        assert not path.exists()
        assert (tmp_path / "run.ppd.json.quarantined").exists()

    def test_record_that_is_not_utf8_is_quarantined(self, tmp_path, capsys):
        from repro.core.cli import main

        path = tmp_path / "bin.ppd.json"
        path.write_bytes(bytes(range(128, 256)))
        assert main(["replay", str(path)]) == 2
        self.assert_one_error_line(capsys)
        assert not path.exists()
        assert (tmp_path / "bin.ppd.json.quarantined").exists()

    def test_record_with_tampered_source_is_quarantined(self, cli, tmp_path, capsys):
        from repro.core.cli import main
        from repro.runtime.persist import save_record

        path = tmp_path / "run.ppd.json"
        save_record(cli.session.record, str(path))
        text = path.read_text()
        index = text.index("proc", text.index('"source":"'))
        path.write_text(text[:index] + "`" + text[index + 1 :])
        assert main(["replay", str(path)]) == 2
        self.assert_one_error_line(capsys)
        assert not path.exists()
        assert (tmp_path / "run.ppd.json.quarantined").exists()

    def test_malformed_pcl(self, tmp_path, capsys):
        from repro.core.cli import main

        path = tmp_path / "bad.pcl"
        path.write_text("proc main(\n  x := ;\n")
        assert main(["localize", str(path)]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["lint", "localize"])
    @pytest.mark.parametrize(
        "text", ["proc main() { int x = ²; }\n", 'proc main() { print("abc\\']
    )
    def test_pcl_the_scanner_rejects(self, tmp_path, capsys, command, text):
        from repro.core.cli import main

        path = tmp_path / "bad.pcl"
        path.write_text(text, encoding="utf-8")
        assert main([command, str(path)]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["lint", "disasm"])
    def test_overlong_integer_literal(self, tmp_path, capsys, command):
        """Past Python's int-conversion limit (4,300 digits by default) a
        literal is a parse error at its position, not a ``ValueError``."""
        from repro.core.cli import main

        path = tmp_path / "long.pcl"
        path.write_text("proc main() { int x = " + "9" * 5000 + "; }\n")
        assert main([command, str(path)]) == 2
        self.assert_one_error_line(capsys)


class TestClosedStdout:
    """A reader that closes ``ppd``'s stdout early (``| head -1``) is not an
    error: the command stops quietly and exits 0."""

    @pytest.mark.parametrize("verb", ["analyze", "replay"])
    def test_closing_the_pipe_after_one_line(self, tmp_path, verb):
        import subprocess
        import sys

        from repro.runtime import save_record
        from repro.workloads import fib_recursive, ring_allreduce
        from tests.test_cold_start import _env

        # Each command writes more than a pipe holds, so it is still
        # writing when the reader goes away.
        if verb == "analyze":
            path = tmp_path / "ring384.pcl"
            path.write_text(ring_allreduce(384))
            argv = ["analyze", str(path)]
        else:
            path = tmp_path / "fib15.ppd.json"
            save_record(run_program(fib_recursive(15), seed=0), str(path))
            argv = ["replay", str(path), "--repeat", "3000"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0, err
        assert first.startswith(b"effects:" if verb == "analyze" else b"round 1:")
        assert err == b""
