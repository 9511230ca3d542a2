"""Tests of the end-to-end benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from harness import (
    BENCH_DIR,
    REF_ELASTICITY,
    REF_NOMINAL_S,
    ROOT,
    high_quantile,
    load_spec,
    paired,
    quantile,
)

sys.path.insert(0, str(ROOT / "src"))

SPEC = load_spec()


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_emits_every_e2e_metric_for_every_workload(tmp_path):
    out = tmp_path / "out.jsonl"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60
    summary = _last_json(proc.stdout)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    results = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["workload"] for r in results] == [w["name"] for w in SPEC["workloads"]]
    for result in results:
        for metric in SPEC["end_to_end"]:
            measured = result["metrics"][metric["name"]]
            assert measured["unit"] == metric["unit"]
            assert measured["value"] > 0


def test_wrong_expected_answer_fails_the_run(monkeypatch, capsys):
    import local
    import run
    import worker

    wrong = dataclasses.replace(local.WORKLOADS["deep_flowback"], expect="fib() = 611")
    monkeypatch.setitem(local.WORKLOADS, "deep_flowback", wrong)
    # In process, and unpinned so the test process keeps all its CPUs.
    monkeypatch.setattr(run, "run_child", lambda config, env: worker.main({**config, "cpu": None}))
    assert run.main(["--workload", "deep_flowback", "--smoke"]) == 1
    summary = _last_json(capsys.readouterr().out)
    assert not summary["correct"]
    assert summary["failed"] >= 1 and summary["attempted"] > summary["failed"]


def test_pairing_math():
    nominal = REF_NOMINAL_S
    # At nominal speed a sample reads as measured.
    assert paired([(0.5, nominal, "")])["value"] == pytest.approx(0.5)
    samples = [(0.2, nominal, ""), (0.5, 2 * nominal, ""), (0.9, 3 * nominal, "")]
    summary = paired(samples)
    assert summary["value"] == pytest.approx(0.5 * 2 ** -REF_ELASTICITY)
    assert summary["raw_median"] == 0.5
    assert summary["n"] == 3 and "q" not in summary
    assert paired(samples, q=100)["value"] == pytest.approx(max(
        t * (nominal / r) ** REF_ELASTICITY for t, r, _ in samples
    ))
    # A machine twice as slow doubles T and R: the value moves by 2**(1 - elasticity).
    slower = [(2 * t, 2 * r, g) for t, r, g in samples]
    assert paired(slower)["value"] == pytest.approx(summary["value"] * 2 ** (1 - REF_ELASTICITY))
    # Groups are summarised apart, then averaged.
    grouped = [(1.0, nominal, "a"), (1.0, nominal, "a"), (5.0, nominal, "a"), (10.0, nominal, "b")]
    assert paired(grouped)["value"] == pytest.approx(5.5)
    assert [high_quantile(n) for n in (19, 20, 40, 100, 200, 1000)] == [None, 50, 75, 90, 95, 99]
    assert quantile(list(range(1, 101)), 90) == 90
    many = paired([(float(i), nominal, "") for i in range(1, 101)])
    assert many["q"] == 90 and many["q_value"] == pytest.approx(90.0)


def test_sidecar_never_imports_repro():
    source = (BENCH_DIR / "sidecar.py").read_text()
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in getattr(node, "names", [])
    }
    assert imported <= {"sys", "time"}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-I", "-X", "importtime", str(BENCH_DIR / "sidecar.py")],
        input="\n", env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert float(proc.stdout) > 0
    assert "repro" not in proc.stderr


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "served"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_classifies_rows():
    import compare

    assert compare.classify([1.0, 1.0, 1.0], [1.05, 1.05, 1.05], "lower", 0.1)[0] == "within bound"
    assert compare.classify([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower", 0.1)[0] == "worse"
    assert compare.classify([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "higher", 0.1)[0] == "better"
    noisy = [0.5, 1.0, 1.5, 2.0]
    assert compare.classify(noisy, [1.0, 1.2, 1.4, 1.6], "lower", 0.1)[0] == "unresolved"
    assert compare.classify(noisy, [3.0, 3.1, 3.2, 3.3], "lower", 0.1)[0] == "worse"
