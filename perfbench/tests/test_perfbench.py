"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The smoke tests drive every workload at ``--size tiny`` through exactly the
code path a full-size run takes (about a minute in total).
"""

from __future__ import annotations

import io
import itertools
import json
import pathlib
import shutil
import subprocess
import sys
import time
import types
from contextlib import redirect_stdout

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    return result


def test_benchmark_json_names_every_workload_and_metric():
    assert [item["name"] for item in SPEC["workloads"]] == list(WORKLOADS)
    assert {item["name"]: item["unit"] for item in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {item["name"]: item["unit"] for item in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(
        bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0", "--size", "tiny")
    )
    metrics = result["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} == run.END_TO_END_UNITS
    assert all(metric["value"] > 0 for metric in metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result = result_of(
        bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--size", "tiny")
    )
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == run.PER_LAYER_UNITS
    # Every workload simulates; only report runs the runner, only the
    # telemetry twin runs obs.
    assert metrics["simcore.events"] > 0 and metrics["netem.packets"] > 0
    runner = [value for name, value in metrics.items() if name.startswith("runner.")]
    obs = [value for name, value in metrics.items() if name.startswith("obs.")]
    assert all(runner) if workload == "report" else not any(runner)
    assert all(obs) if workload == "ddos-H-telemetry" else not any(obs)


def _fake_launch(digests):
    """A stand-in for ``run.launch`` returning canned run records."""
    queue = iter(digests)

    def launch(workload, seed, size, workdir, index, trace=False, setup_only=False):
        record = {"setup_s": 0.2, "setup_mark": 1.0}
        if setup_only:
            return record
        record.update(
            digest=next(queue), problems=[], wall_s=1.0 + index / 100, process_s=0.0,
            raw_wall_s=1.0, speed=1.0,
            queries_per_s=1000.0, peak_rss_mb=40.0, paper_gap_pp=3.0, environment={},
        )
        return record

    return launch


def test_a_corrupted_digest_is_reported_as_a_failure(monkeypatch):
    # warm-up, then three timed runs (each followed by two set-up-only
    # launches) of which the second is corrupted.
    monkeypatch.setattr(run, "launch", _fake_launch(["a", "b", "X", "b"]))
    clock = types.SimpleNamespace(perf_counter=itertools.count().__next__)
    monkeypatch.setattr(run, "time", clock)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        status = run.main(["--workload", "ddos-H", "--seed", "3", "--seconds", "6"])
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 10
    assert "digest X" in stdout.getvalue()


def test_agreeing_digests_pass():
    runs = [{"digest": "a", "problems": []} for _ in range(3)]
    assert run.judge(runs) == []
    assert not any(item["failed"] for item in runs)


def test_pace_samples_cpu_time_and_scales_to_the_reference():
    from pace import REFERENCE_LOOP_S, Pace, speed

    pace = Pace()
    pace.start()
    deadline = time.process_time() + 0.2
    while time.process_time() < deadline:
        pass
    samples = pace.stop()
    assert len(samples) >= 5
    assert speed([REFERENCE_LOOP_S] * 3) == 1.0
    assert speed([2 * REFERENCE_LOOP_S]) == 0.5
    assert speed([]) == 0.0


def test_simulation_checks_catch_a_lost_answer():
    from repro import DDOS_EXPERIMENTS, run_ddos

    result = run_ddos(DDOS_EXPERIMENTS["H"], probe_count=8, seed=5)
    assert checks.check_simulation(result.answers, result.testbed, rounds=18) == []
    assert checks.check_simulation(result.answers[1:], result.testbed, rounds=18)
    result.testbed.network.counters.delivered += 1
    assert any("network sent" in problem for problem in
               checks.check_simulation(result.answers, result.testbed, rounds=18))


def test_report_check_matches_experiments_md_and_catches_a_missing_row():
    reference = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    report = checks.strip_report(reference)
    assert "Layered authoritative defenses" not in report
    assert checks.check_report(report, reference, reference_seed=True) == []
    broken = report.replace("| TTL 60 | 0.0% | 0.0% |\n", "")
    assert checks.check_report(broken, reference, reference_seed=False)
    # A changed number passes the masked comparison, but not the exact one
    # of a scale-free section at the reference seed.
    drifted = report.replace("| NS answers with child TTL | 94.4% | 99.1% |",
                             "| NS answers with child TTL | 94.4% | 99.2% |")
    assert drifted != report
    assert checks.check_report(drifted, reference, reference_seed=False) == []
    assert checks.check_report(drifted, reference, reference_seed=True)
    # Mean of |measured - paper| over the PAPER_MISS and PAPER_FAIL rows.
    rows = checks.report_paper_rows(reference)
    assert [row[0] for row in rows][:5] == ["TTL 60", "TTL 1800", "TTL 3600", "TTL 86400", "TTL 3600-10m"]
    assert checks.report_paper_gap(reference) > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "ddos-H", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
