#!/usr/bin/env python
"""Assert the simulation kernel stays within budget of its recorded pace.

The observability layer promises to be zero-cost when disabled; this
script enforces that promise twice over. First structurally: a testbed
built without an ``ObsSpec`` must hold no registry, recorder, or
per-source sketch and must record no telemetry after a short run
(:func:`assert_zero_cost_disabled`). Then by pace: it re-runs the kernel micro-benchmark
workloads from ``benchmarks/test_bench_kernel.py`` (tracing and
profiling off, best of ``--rounds``) and compares the throughput against
the committed numbers in ``benchmarks/output/kernel_burst.txt``,
``kernel_retry.txt``, and ``kernel_attack.txt`` (the attack-traffic
event path: attacker timer chains through the defense hot path),
failing if any workload falls below its floor: the committed pace
times ``BUDGET`` times ``1 - --tolerance``.

Usage::

    PYTHONPATH=src python scripts/check_kernel_budget.py --tolerance 0.10
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import time

BASELINE_PATTERN = re.compile(r"\(([\d,]+) (?:events|timers)/s\)")

#: Fraction of the committed pace the kernel must sustain: the slack
#: for a CI host slower than the one that recorded the baselines.
BUDGET = 0.55


def read_baseline(path: pathlib.Path) -> float:
    text = path.read_text(encoding="utf-8")
    match = BASELINE_PATTERN.search(text)
    if match is None:
        raise SystemExit(
            f"check_kernel_budget: no throughput figure in {path}"
        )
    return float(match.group(1).replace(",", ""))


def best_rate(workload, operations: int, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - start)
    return operations / best


def assert_zero_cost_disabled() -> None:
    """Structurally verify the zero-cost-when-disabled promise.

    The throughput floors below catch observability overhead only when
    it is large enough to show up as a slowdown. This check pins the
    mechanism itself: with no ``ObsSpec``, a testbed must hold *no*
    observability objects at all — no metrics registry, no flight
    recorder, no per-source sketch — so the hot paths capture ``None``
    sinks at construction and skip every telemetry branch.
    """
    from repro.clients.population import PopulationConfig
    from repro.core.testbed import Testbed, TestbedConfig

    testbed = Testbed(
        TestbedConfig(
            seed=1, population=PopulationConfig(probe_count=2)
        )
    )
    problems = []
    if testbed.obs.registry is not None:
        problems.append("metrics registry built without an ObsSpec")
    if testbed.obs.recorder is not None:
        problems.append("flight recorder built without a TimelineSpec")
    if testbed.source_sketch is not None:
        problems.append("source sketch built without a TimelineSpec")
    testbed.schedule_probing(0.0, 30.0, 2)
    testbed.run(60.0, grace=5.0)
    if testbed.timeline_points:
        problems.append(
            f"{len(testbed.timeline_points)} timeline points recorded "
            "with telemetry disabled"
        )
    if testbed.metric_snapshots:
        problems.append(
            f"{len(testbed.metric_snapshots)} metric snapshots recorded "
            "with telemetry disabled"
        )
    if problems:
        raise SystemExit(
            "check_kernel_budget: zero-cost-when-disabled violated: "
            + "; ".join(problems)
        )
    print("check_kernel_budget: zero-cost-when-disabled: ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional slowdown vs the budgeted floor",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="timing rounds (best is used)"
    )
    args = parser.parse_args(argv)

    # Reuse the exact benchmark workloads so the comparison is
    # apples-to-apples with the committed output files.
    bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
    sys.path.insert(0, str(bench_dir))
    from test_bench_kernel import (
        ATTACK_EVENTS,
        BURST_EVENTS,
        RETRY_TIMERS,
        attack_flood,
        drain_burst,
        retry_storm,
    )

    assert_zero_cost_disabled()

    checks = [
        ("burst", drain_burst, BURST_EVENTS, bench_dir / "output" / "kernel_burst.txt"),
        ("retry-storm", retry_storm, 2 * RETRY_TIMERS, bench_dir / "output" / "kernel_retry.txt"),
        ("attack-flood", attack_flood, ATTACK_EVENTS, bench_dir / "output" / "kernel_attack.txt"),
    ]
    failed = False
    for name, workload, operations, baseline_path in checks:
        baseline = read_baseline(baseline_path)
        measured = best_rate(workload, operations, args.rounds)
        floor = baseline * BUDGET * (1.0 - args.tolerance)
        verdict = "ok" if measured >= floor else "TOO SLOW"
        print(
            f"check_kernel_budget: {name}: {measured:,.0f}/s "
            f"vs baseline {baseline:,.0f}/s x budget {BUDGET:.2f} "
            f"(floor {floor:,.0f}/s) {verdict}"
        )
        if measured < floor:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
