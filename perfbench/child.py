"""Run one workload once, in a fresh interpreter, and write what happened.

``run.py`` launches this script once per workload run, so every run pays
interpreter start and imports the way a user of ``python -m repro`` does.
The workload is driven through the program's public entry points only:
``run_ddos``, ``run_baseline`` and ``python -m repro report`` (called as
``repro.__main__.main``). The script writes a JSON record with its
timestamps (``time.perf_counter``, which is system-wide monotonic on
Linux, so the parent can subtract its launch time), output digests, check
results, the headline gap to the paper, peak memory, the host-speed
samples of every process (``pace.py``) and, with ``--trace``, the per-layer
probe tables.

Usage::

    PYTHONPATH=src python perfbench/child.py --workload ddos-H --seed 42 \
        --out RESULT.json --workdir DIR [--size tiny] [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pathlib
import resource
import shutil
import sys
import time
from typing import Any, Dict, List

import checks
from layers import Probes, merge_tables
from pace import Pace
from workloads import REFERENCE_SEED, REPORT_JOBS, TINY, WORKLOADS, Workload

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _write_json(path: pathlib.Path, record: Dict[str, Any]) -> None:
    temp = path.with_suffix(".tmp")
    temp.write_text(json.dumps(record), encoding="utf-8")
    os.replace(temp, path)


def _paper_percent(table: Dict[str, str], key: str) -> float:
    return float(table[key].lstrip("~").rstrip("%"))


def install_worker_hook(probes: Probes, pace: Pace, workdir: pathlib.Path) -> None:
    """Make every pool worker report its peak RSS, speed samples and tables.

    The pool forks after this runs, so the wrapped ``execute_request`` is
    what the workers execute; before its first request a worker resets the
    tables and samples it inherited from the parent at fork and starts its
    own speed sampling.
    """
    parent = os.getpid()
    fresh = {"pid": parent}

    def make(execute):
        @functools.wraps(execute)
        def execute_request(request):
            pid = os.getpid()
            if pid == parent:
                return execute(request)
            if fresh["pid"] != pid:
                fresh["pid"] = pid
                probes.reset()
                pace.start()
            try:
                return execute(request)
            finally:
                _write_json(
                    workdir / f"worker-{pid}.json",
                    {"maxrss_kb": _maxrss_kb(), "tables": probes.tables(),
                     "pace": list(pace.samples)},
                )

        return execute_request

    probes.patch("repro.runner.executor", "execute_request", make)


def worker_records(workdir: pathlib.Path) -> List[Dict[str, Any]]:
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(workdir.glob("worker-*.json"))
    ]


def run_simulation(workload: Workload, seed: int, probes: Probes, pace: Pace,
                   workdir: pathlib.Path) -> Dict[str, Any]:
    from repro.analysis.report import PAPER_FAIL, PAPER_MISS
    from repro.core.experiments import (
        BASELINE_EXPERIMENTS,
        DDOS_EXPERIMENTS,
        run_baseline,
        run_ddos,
    )

    exports: List[str] = []
    if workload.kind == "ddos":
        spec = DDOS_EXPERIMENTS[workload.experiment]
        obs = None
        if workload.telemetry:
            from repro.obs import ObsSpec, TimelineSpec

            obs = ObsSpec(trace=True, metrics=True, timeline=TimelineSpec(interval=60.0))
        result = run_ddos(spec, probe_count=workload.probes, seed=seed, obs=obs)
        testbed = result.testbed
        headline = result.failure_fraction_during_attack() * 100
        paper = _paper_percent(PAPER_FAIL, workload.experiment)
        rounds = int(spec.total_duration_min / spec.probe_interval_min)
        if workload.telemetry:
            # The same exports ``repro ddos H --trace --metrics-out
            # --timeline`` writes.
            import repro.obs as obs_module

            run = f"ddos-{workload.experiment}"
            for name, export, rows in (
                ("spans.jsonl", obs_module.export_spans, testbed.spans),
                ("metrics.jsonl", obs_module.export_metrics, testbed.metric_snapshots),
                ("timeline.jsonl", obs_module.export_timeline, result.timeline_points),
            ):
                path = workdir / name
                with open(path, "w", encoding="utf-8") as stream:
                    export(rows, stream, run=run)
                exports.append(str(path))
    else:
        spec = BASELINE_EXPERIMENTS[workload.experiment]
        result = run_baseline(spec, probe_count=workload.probes, seed=seed)
        [testbed] = probes.testbeds
        headline = result.miss_rate * 100
        paper = _paper_percent(PAPER_MISS, workload.experiment)
        rounds = spec.rounds
    t_output = time.perf_counter()
    samples = pace.stop()
    maxrss_kb = _maxrss_kb()  # before the benchmark's own checks allocate

    problems = checks.check_simulation(result.answers, testbed, rounds)
    digest = checks.simulation_digest(result.answers, testbed)
    if exports:
        digest = checks.text_digest(json.dumps([digest, checks.file_digest(exports)]))
    return {
        "t_output": t_output,
        "setup_mark": probes.marks.get("first_event"),
        "maxrss_kb": maxrss_kb,
        "pace": samples,
        "queries": len(result.answers),
        "paper_gap_pp": abs(headline - paper),
        "digest": digest,
        "problems": problems,
        "export_bytes": sum(os.path.getsize(path) for path in exports),
    }


def run_report(workload: Workload, seed: int, probes: Probes, pace: Pace,
               workdir: pathlib.Path) -> Dict[str, Any]:
    from repro.__main__ import main as repro_main

    cache_dir = workdir / "cache"  # fresh and empty: never time cached results
    output = workdir / "report.md"
    argv = [
        "--seed", str(seed), "report",
        "--baseline-probes", str(workload.baseline_probes),
        "--ddos-probes", str(workload.probes),
        "--jobs", str(REPORT_JOBS),
        "--cache-dir", str(cache_dir),
        "--output", str(output),
    ]
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        status = repro_main(argv)
    t_output = time.perf_counter()
    samples = pace.stop()
    maxrss_kb = _maxrss_kb()

    problems = [] if status == 0 else [f"repro report exited with {status}"]
    text = output.read_text(encoding="utf-8")
    reference_path = ROOT / "EXPERIMENTS.md"
    reference = reference_path.read_text(encoding="utf-8") if reference_path.is_file() else None
    problems += checks.check_report(text, reference, seed == REFERENCE_SEED)
    try:
        gap = checks.report_paper_gap(text)
    except ValueError as error:
        problems.append(str(error))
        gap = 0.0
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "t_output": t_output,
        "setup_mark": probes.marks.get("run_many"),
        "maxrss_kb": maxrss_kb,
        "pace": samples,
        "queries": probes.run_many_answers,
        "paper_gap_pp": gap,
        "digest": checks.text_digest(checks.strip_report(text)),
        "problems": problems,
        "export_bytes": 0,
    }


def environment() -> Dict[str, Any]:
    from repro.runner.cache import code_fingerprint
    from repro.simcore import events

    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "queue_backend": events.resolve_queue_backend("auto"),
        "ckernel_built": events._ckernel is not None,
        "code_fingerprint": code_fingerprint()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--workdir", required=True, type=pathlib.Path)
    args = parser.parse_args(argv)
    workload = (TINY if args.size == "tiny" else WORKLOADS)[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    pace = Pace()
    pace.start()

    probes = Probes(trace=args.trace)
    setup_mark = "run_many" if workload.kind == "report" else "first_event"
    if args.setup_only:

        def stop_at_setup(name: str) -> None:
            if name == setup_mark:
                _write_json(args.out, {"setup_mark": probes.marks[name], "pace": pace.stop()})
                os._exit(0)

        probes.on_mark = stop_at_setup
    probes.install()
    install_worker_hook(probes, pace, args.workdir)

    run = run_report if workload.kind == "report" else run_simulation
    record = run(workload, args.seed, probes, pace, args.workdir)
    workers = worker_records(args.workdir)
    record["maxrss_kb"] += sum(worker["maxrss_kb"] for worker in workers)
    record["pace"] += [sample for worker in workers for sample in worker["pace"]]
    if args.trace:
        record["tables"] = merge_tables([probes.tables()] + [w["tables"] for w in workers])
    record["environment"] = environment()
    _write_json(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
