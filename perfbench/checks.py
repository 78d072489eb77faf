"""Output checks and digests for one workload run.

The digests are those of ``scripts/capture_fsm_goldens.py`` (one
``|``-joined row per stub observation or query-log entry, SHA-256 over the
rows), loaded from that script, so a benchmark digest and an FSM golden
agree on what "the same output" means. Every check returns a list of
problems; an empty list means the run's output is correct.
"""

from __future__ import annotations

import hashlib
import importlib.util
import pathlib
import re
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

#: Every status a settled ``StubAnswer`` may carry.
STUB_STATUSES = ("ok", "servfail", "nxdomain", "nodata", "no-answer")


def _load_golden_scheme():
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "capture_fsm_goldens.py"
    spec = importlib.util.spec_from_file_location("capture_fsm_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_golden = _load_golden_scheme()
_digest = _golden._digest
answers_digest = _golden.answers_digest
querylog_digest = _golden.querylog_digest


def simulation_digest(answers, testbed) -> str:
    """One digest over the answer stream and all three query logs."""
    return _digest(
        (
            answers_digest(answers),
            querylog_digest(testbed.query_log),
            querylog_digest(testbed.parent_query_log),
            querylog_digest(testbed.offered_query_log),
        )
    )


def check_simulation(answers, testbed, rounds: int) -> List[str]:
    """Stub outcomes reconcile with queries issued; packets are conserved."""
    problems: List[str] = []
    probes = testbed.population.probes
    issued = rounds * sum(probe.vp_count for probe in probes)
    if len(answers) != issued:
        problems.append(f"{len(answers)} stub answers for {issued} queries issued")
    per_probe_round = Counter((answer.probe_id, answer.round_index) for answer in answers)
    vps = {probe.probe_id: probe.vp_count for probe in probes}
    skewed = [key for key, count in per_probe_round.items() if count != vps.get(key[0])]
    if skewed:
        problems.append(f"{len(skewed)} (probe, round) pairs with the wrong answer count")
    unsettled = sum(len(probe.stub._pending) for probe in probes)
    if unsettled:
        problems.append(f"{unsettled} stub queries never settled")
    statuses = Counter(answer.status for answer in answers)
    unknown = set(statuses) - set(STUB_STATUSES)
    if unknown:
        problems.append(f"unknown stub statuses {sorted(unknown)}")
    if sum(statuses.values()) != len(answers):
        problems.append("stub outcomes do not partition the answers")
    unanswered_ok = sum(
        1 for answer in answers if answer.status == "ok" and answer.answered_at is None
    )
    if unanswered_ok:
        problems.append(f"{unanswered_ok} ok answers without an answer time")
    counters = testbed.network.counters
    accounted = counters.delivered + counters.dropped_attack + counters.dropped_baseline
    if counters.sent != accounted:
        problems.append(
            f"network sent {counters.sent} != delivered + dropped {accounted}"
        )
    return problems


# ----------------------------------------------------------------------
# report workload
# ----------------------------------------------------------------------
FOOTER_PREFIX = "_Full battery regenerated in"
_NUMBER = re.compile(r"\d+(?:\.\d+)?")


#: Sections whose runs do not depend on the report's probe counts: at the
#: reference seed they must equal ``EXPERIMENTS.md`` line for line.
SCALE_FREE_SECTIONS = (
    "Glue vs authoritative TTL",
    "Software retries",
    "Single-probe drill-down",
    "Production-zone caching",
)
DEFENSE_SECTION = "Layered authoritative defenses"


def report_sections(text: str) -> Dict[str, str]:
    """``{heading: body}`` of a report, the preamble under ``""``, without
    the wall-clock footer."""
    sections: Dict[str, List[str]] = {"": []}
    current = ""
    for line in text.splitlines():
        if line.startswith("## "):
            current = line[3:]
            sections[current] = []
        elif not line.startswith(FOOTER_PREFIX):
            sections[current].append(line)
    return {title: "\n".join(lines).strip() for title, lines in sections.items()}


def strip_report(text: str) -> str:
    """The report minus its wall-clock footer and defense section."""
    return "\n\n".join(
        (f"## {title}\n\n{body}" if title else body)
        for title, body in report_sections(text).items()
        if not title.startswith(DEFENSE_SECTION)
    ) + "\n"


def report_skeleton(text: str) -> str:
    """The report with every number masked: its tables, rows and labels."""
    return _NUMBER.sub("#", text)


def check_report(text: str, reference: Optional[str], reference_seed: bool) -> List[str]:
    """The report has the same sections, tables and rows as the reference.

    ``reference`` is ``EXPERIMENTS.md`` without its defense section (off in
    the default report) and footer. Numbers are masked, because the
    benchmark runs the battery at its own seed and scale; at the reference
    seed the scale-free sections must match exactly.
    """
    problems: List[str] = []
    if "## Failure ledger" in text or "_Section omitted" in text:
        problems.append("report lists failed runs")
    if reference is None:
        return problems + ["EXPERIMENTS.md is missing"]
    got = report_skeleton(strip_report(text)).splitlines()
    expected = report_skeleton(strip_report(reference)).splitlines()
    for index, (have, want) in enumerate(zip(got, expected)):
        if have != want:
            problems.append(f"report line {index + 1}: {have!r} != {want!r}")
            break
    else:
        if len(got) != len(expected):
            problems.append(f"report has {len(got)} lines, EXPERIMENTS.md {len(expected)}")
    if reference_seed:
        sections, reference_sections = report_sections(text), report_sections(reference)
        for title, body in sections.items():
            if title.startswith(SCALE_FREE_SECTIONS) and body != reference_sections.get(title):
                problems.append(f"section {title!r} differs from EXPERIMENTS.md")
    return problems


def _percent(cell: str) -> Optional[float]:
    match = re.fullmatch(r"~?(\d+(?:\.\d+)?)%", cell.strip())
    return float(match.group(1)) if match else None


def report_paper_rows(text: str) -> List[Tuple[str, float, float]]:
    """``(row, paper %, measured %)`` for every percentage row of the
    report's miss-rate (``PAPER_MISS``) and DDoS-failure (``PAPER_FAIL``)
    tables."""
    rows: List[Tuple[str, float, float]] = []
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("TTL "):
            paper, measured = _percent(cells[1]), _percent(cells[2])
        elif len(cells) == 6 and re.fullmatch(r"[A-I]", cells[0]):
            paper, measured = _percent(cells[3]), _percent(cells[4])
        else:
            continue
        if paper is not None and measured is not None:
            rows.append((cells[0], paper, measured))
    return rows


def report_paper_gap(text: str) -> float:
    rows = report_paper_rows(text)
    if not rows:
        raise ValueError("report has no paper-vs-measured percentage rows")
    return sum(abs(measured - paper) for _, paper, measured in rows) / len(rows)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(paths: Sequence[str]) -> Dict[str, str]:
    digests = {}
    for path in paths:
        with open(path, "rb") as stream:
            digests[path.rsplit("/", 1)[-1]] = hashlib.sha256(stream.read()).hexdigest()
    return digests
