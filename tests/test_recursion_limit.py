"""Every entry point accepts the same programs at the default recursion limit.

No engine module raises the interpreter's recursion limit: replay runs
user calls on the logged run's trampoline, the parser refuses a program
nested deeper than :data:`~repro.lang.parser.MAX_NESTING` with a typed
error, and queries whose depth follows the record keep their own
stacks.  Importing the test oracle raises the limit for this process, so
the checks run in fresh interpreters (:mod:`tests.nesting`, and a fresh
``ppd serve`` daemon).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lang.parser import MAX_NESTING
from repro.server import DebugClient, ServerError
from tests import nesting
from tests.test_cold_start import _daemon, _env

ROOT = Path(__file__).resolve().parents[1]

#: What ``back``, ``deadlock`` and ``ppd lint`` print for the deep records
#: of :mod:`tests.nesting`, as the build before this check printed them
#: with its recursion limit raised to 24,000 (at the default limit, that
#: build raised ``RecursionError`` on each).
DEEP = {
    "back": "6089940ea1cbe281d48b5bfda8cc34f1045b5c2246aa0cf9e71fd2da361491cf",
    "deadlock": "fd6eb38d49cbad506724ce9e6e2d985b6d7b4f9fb58eec5b9489c1eea725bd90",
    "lint": [1, "b389724d0a26fda8edcd33696fe53fc53d9052a95b287dc0bf6e8a437e1622ea", ""],
}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    result = subprocess.run(
        [sys.executable, "-m", "tests.nesting", str(tmp_path_factory.mktemp("pcl"))],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_no_import_raises_the_limit(report):
    before, after = report["limit"]
    assert after == before


@pytest.mark.parametrize("shape", sorted(nesting.SHAPES))
def test_every_pass_runs_at_the_bound(report, shape):
    case = report["shapes"][shape]
    assert case["deepest"] >= MAX_NESTING // 2 - 1
    failed = {name: outcome for name, outcome in case["at"].items() if outcome != "ok"}
    assert not failed


@pytest.mark.parametrize("shape", sorted(nesting.SHAPES))
def test_one_level_past_the_bound_is_a_typed_error(report, shape):
    past = report["shapes"][shape]["past"]
    message, line, column = past["parse"]
    assert f"nesting deeper than {MAX_NESTING} levels" in message
    assert line >= 1 and column >= 1
    for command in ("lint", "disasm"):
        code, err = past[command]
        assert code == 2, (command, err)
        assert err.startswith("error:") and err.count("\n") == 1, (command, err)
        assert "Traceback" not in err


def test_served_open_past_the_bound_is_open_failed(tmp_path):
    with _daemon(tmp_path) as addr, DebugClient.connect(addr) as client:
        for shape, make in sorted(nesting.SHAPES.items()):
            source = make(nesting.deepest(make) + 1)
            with pytest.raises(ServerError) as raised:
                client.call("open", program=source, seed=0)
            assert raised.value.code == "open-failed", shape
            assert f"nesting deeper than {MAX_NESTING}" in str(raised.value), shape


@pytest.mark.parametrize("query", sorted(DEEP))
def test_deep_records_answer_as_before(report, query):
    assert report["deep"][query] == DEEP[query]
