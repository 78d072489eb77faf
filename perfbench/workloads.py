"""The benchmark's fixed workload definitions.

Each workload is one end-to-end run of the simulator driven through a
public entry point: ``run_ddos``, ``run_baseline`` or ``python -m repro
report``. Sizes are fixed here so numbers compare across commits; the
``tiny`` sizes exist only for the benchmark's own smoke tests and run
through exactly the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

#: Seed of the paper-reference configuration (the one ``EXPERIMENTS.md``
#: is generated with). ``paper_gap_pp`` is always measured at this seed so
#: that the accuracy metric is exact and comparable across benchmark seeds.
REFERENCE_SEED = 42

#: Worker processes for the ``report`` workload (parent plus this many).
REPORT_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "ddos", "baseline" or "report"
    experiment: str  # DDOS_EXPERIMENTS / BASELINE_EXPERIMENTS key; "" for report
    probes: int  # probe count (DDoS probes for ``report``)
    baseline_probes: int = 0  # ``report`` only
    telemetry: bool = False  # tracing + metrics + timeline, exported to JSONL


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("ddos-H", "ddos", "H", probes=500),
        Workload("baseline-10m", "baseline", "3600-10m", probes=1000),
        Workload("report", "report", "", probes=100, baseline_probes=150),
        Workload("ddos-H-telemetry", "ddos", "H", probes=500, telemetry=True),
    )
}

#: Smoke-test sizes: every workload, same code path, a few seconds each.
TINY: Dict[str, Workload] = {
    name: (
        replace(workload, probes=16, baseline_probes=24)
        if workload.kind == "report"
        else replace(workload, probes=24)
    )
    for name, workload in WORKLOADS.items()
}
