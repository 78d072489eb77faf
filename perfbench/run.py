"""The repository benchmark: end-to-end and per-layer metrics per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ddos-H --seed 1 --seconds 24 --trace 0

Each workload run is a fresh interpreter (``child.py``) driven through a
public entry point. One run of this script does:

1. a warm-up run at the paper-reference seed 42, discarded from the
   timings; it gives ``paper_gap_pp`` and warms the OS file cache;
2. timed runs at ``--seed`` for ``--seconds`` seconds (at least one); with
   ``--trace 0`` each is followed by set-up-only launches (stopped at the
   first simulated event, or when the report enters ``run_many``) that
   take about SETUP_SHARE of the time, for ``setup_s``;
3. with ``--trace 1``, one more run with every per-layer probe installed,
   whose digest must equal the untraced runs' digest.

Every timing is of a run's host seconds scaled by the host speed sampled
during that run (``pace.py``), so that it reads as seconds on a host of
the reference speed and does not drift with a shared host's speed.

Every run's output is checked (see ``checks.py``); a run that raises,
exits non-zero, fails a check, or disagrees with the run set's digest
counts as failed. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
Lines before it give the quartiles, run counts and the environment.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import layer_metrics  # noqa: E402
from pace import speed  # noqa: E402
from workloads import REFERENCE_SEED, REPORT_JOBS, WORKLOADS  # noqa: E402

#: Share of the measuring time spent on set-up-only launches (``--trace 0``).
SETUP_SHARE = 0.15
#: No single workload run may take longer than this.
RUN_TIMEOUT_S = 90

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "paper_gap_pp": "pp",
}

PER_LAYER_UNITS = {
    "simcore.self_s": "s",
    "simcore.events": "count",
    "simcore.cancel_ratio": "ratio",
    "netem.send_s": "s",
    "netem.packets": "count",
    "netem.drop_ratio": "ratio",
    "resolvers.stub_s": "s",
    "resolvers.recursive_s": "s",
    "resolvers.forwarder_s": "s",
    "resolvers.pool_s": "s",
    "resolvers.cache_s": "s",
    "resolvers.cache_hit_ratio": "ratio",
    "resolvers.upstream_per_query": "ratio",
    "resolvers.timeout_ratio": "ratio",
    "fsm.dispatch_s": "s",
    "fsm.dispatches": "count",
    "servers.self_s": "s",
    "servers.served_ratio": "ratio",
    "dnscore.aaaa_s": "s",
    "dnscore.aaaa_calls": "count",
    "dnscore.with_ttl_calls": "count",
    "dnscore.name_from_text_calls": "count",
    "clients.build_s": "s",
    "core.testbed_s": "s",
    "core.classify_s": "s",
    "core.metrics_s": "s",
    "runner.run_many_s": "s",
    "runner.cache_put_s": "s",
    "runner.result_mb": "MB",
    "runner.longest_run_s": "s",
    "runner.parallel_efficiency": "ratio",
    "analysis.render_s": "s",
    "workloads.gen_s": "s",
    "obs.spans": "count",
    "obs.emit_s": "s",
    "obs.snapshot_s": "s",
    "obs.sketch_s": "s",
    "obs.export_s": "s",
    "obs.export_mb": "MB",
    "trace.overhead_s": "s",
}


class RunError(Exception):
    """A workload run that did not produce a result record."""


def kill_tree(pid: int) -> None:
    """SIGKILL a process and its descendants (a hung report's pool too)."""
    try:
        children = pathlib.Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:
        children = []
    for child in children:
        kill_tree(int(child))
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(workload: str, seed: int, size: str, workdir: pathlib.Path, index: int,
           trace: bool = False, setup_only: bool = False) -> Dict[str, Any]:
    """One workload run in a fresh interpreter; returns its record."""
    rundir = workdir / f"run-{index}"
    out = workdir / f"run-{index}.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--out", str(out), "--workdir", str(rundir),
    ]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    launched = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    try:
        _, stderr = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_tree(process.pid)
        process.communicate()
        raise RunError(f"{workload} run {index} timed out after {RUN_TIMEOUT_S} s")
    finished = time.perf_counter()
    shutil.rmtree(rundir, ignore_errors=True)
    if process.returncode != 0:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        raise RunError(f"{workload} run {index} exited {process.returncode}: {' | '.join(tail)}")
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    setup_mark = record.get("setup_mark")
    if setup_mark is None:
        raise RunError(f"{workload} run {index} never reached its first simulated event")
    record["speed"] = speed(record.pop("pace"))
    if record["speed"] <= 0:
        raise RunError(f"{workload} run {index} took no host-speed sample")
    record["setup_s"] = (setup_mark - launched) * record["speed"]
    if not setup_only:
        record["raw_wall_s"] = record["t_output"] - launched
        record["wall_s"] = record["raw_wall_s"] * record["speed"]
        record["process_s"] = finished - launched
        simulated = (record["t_output"] - setup_mark) * record["speed"]
        record["queries_per_s"] = record["queries"] / simulated if simulated > 0 else 0.0
        record["peak_rss_mb"] = record["maxrss_kb"] / 1024
    return record


def judge(runs: List[Dict[str, Any]]) -> List[str]:
    """Mark each run ``failed``; returns the run set's problems.

    A run fails if its own checks failed or if its digest differs from the
    digest most runs of the set agree on.
    """
    problems: List[str] = []
    digests = Counter(run["digest"] for run in runs if "digest" in run)
    consensus = digests.most_common(1)[0][0] if digests else None
    for index, run in enumerate(runs):
        reasons = list(run.get("problems", ()))
        if run.get("digest") != consensus:
            reasons.append(f"digest {str(run.get('digest'))[:12]} != {str(consensus)[:12]}")
        run["failed"] = bool(reasons)
        problems += [f"run {index}: {reason}" for reason in reasons]
    return problems


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 2 else (
        min(values), statistics.median(values), max(values))
    return f"median {median:.6g}, quartiles {q1:.6g}..{q3:.6g} (n={len(values)})"


def end_to_end(warmup: Dict[str, Any], timed: List[Dict[str, Any]],
               setups: List[float]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(run["wall_s"] for run in timed),
        "setup_s": statistics.median(setups),
        "queries_per_s": statistics.median(run["queries_per_s"] for run in timed),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in timed),
        "paper_gap_pp": warmup["paper_gap_pp"],
    }


def measure(args: argparse.Namespace, workdir: pathlib.Path) -> Dict[str, Any]:
    counter = itertools.count()

    def one(seed: int, **kwargs: Any) -> Dict[str, Any]:
        try:
            return launch(args.workload, seed, args.size, workdir, next(counter), **kwargs)
        except RunError as error:
            return {"problems": [str(error)], "crashed": True}

    warmup = one(REFERENCE_SEED)
    timed: List[Dict[str, Any]] = []
    setup_runs: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        timed.append(one(args.seed))
        if not args.trace and "wall_s" in timed[-1]:
            # Set-up-only launches fill SETUP_SHARE of every cycle, so they
            # spread over the whole window like the timed runs do.
            count = round(SETUP_SHARE * timed[-1]["wall_s"] / timed[-1]["setup_s"])
            setup_runs += [one(args.seed, setup_only=True) for _ in range(max(2, count))]
        now = time.perf_counter()
        if timed[-1].get("crashed") or (now - started) + (now - cycle) > args.seconds:
            break
    traced = one(args.seed, trace=True) if args.trace else None

    measured = timed + ([traced] if traced is not None else [])
    problems = judge(measured)
    problems += [f"warm-up {problem}" for problem in judge([warmup])]
    if args.seed == REFERENCE_SEED and warmup.get("digest") not in (None, timed[0].get("digest")):
        warmup["failed"] = True
        problems.append("warm-up digest differs from the timed runs at the same seed")
    for index, run in enumerate(setup_runs):
        run["failed"] = bool(run.get("problems"))
        problems += [f"set-up launch {index}: {problem}" for problem in run.get("problems", ())]
    runs = [warmup] + measured + setup_runs
    failed = sum(1 for run in runs if run["failed"])
    summary: Dict[str, Any] = {
        "attempted": len(runs),
        "failed": failed,
        "problems": problems,
        "environment": next((run["environment"] for run in runs if "environment" in run), {}),
    }
    if failed:
        return summary
    setups = [run["setup_s"] for run in setup_runs + timed]
    summary["end_to_end"] = end_to_end(warmup, timed, setups)
    summary["spread"] = {
        "wall_s": quartiles([run["wall_s"] for run in timed]),
        "setup_s": quartiles(setups),
        "queries_per_s": quartiles([run["queries_per_s"] for run in timed]),
        "peak_rss_mb": quartiles([run["peak_rss_mb"] for run in timed]),
        "wall_s of every timed run": " ".join(f"{run['wall_s']:.3f}" for run in timed),
        "unscaled host wall_s of every timed run": " ".join(
            f"{run['raw_wall_s']:.3f}" for run in timed),
        "host speed of every timed run": " ".join(f"{run['speed']:.3f}" for run in timed),
    }
    if traced is not None:
        layers = layer_metrics(traced["tables"], REPORT_JOBS, traced["export_bytes"])
        layers["trace.overhead_s"] = traced["wall_s"] - summary["end_to_end"]["wall_s"]
        summary["per_layer"] = layers
    return summary


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: smoke-test sizes through the same code path",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Compile bytecode before anything is timed, so no run pays for it.
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: the program source does not compile", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        summary = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    environment = dict(summary["environment"], seed=args.seed, commit=git_commit(),
                       workload=args.workload, seconds=args.seconds, size=args.size)
    print(f"# environment {json.dumps(environment, sort_keys=True)}")
    for problem in summary["problems"]:
        print(f"# FAILED {problem}")
    for name, text in summary.get("spread", {}).items():
        print(f"# {name}: {text}")
    correct = summary["failed"] == 0
    if args.trace:
        units = PER_LAYER_UNITS
        values = summary.get("per_layer", {})
    else:
        units = END_TO_END_UNITS
        values = summary.get("end_to_end", {})
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
