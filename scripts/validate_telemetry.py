#!/usr/bin/env python
"""Validate an exported telemetry JSONL file (spans or timelines).

One acceptance gate for both observability export formats:

- ``spans`` — per-query lifecycle traces from ``--trace``. Every row is
  schema-checked and every trace is checked for chain completeness
  (exactly one ``issue`` span first, exactly one terminal outcome span,
  no orphans).
- ``timeline`` — flight-recorder samples from ``--timeline``. Every row
  is schema-checked and every run's series is checked for contiguous
  sample indexes, strictly increasing sim time, and monotone cumulative
  (``*_total``) series.

``--kind auto`` (the default) sniffs the first line: span rows carry a
``"kind"`` field, timeline rows carry ``"values"``. CI runs this against
both the traced smoke run and the timeline smoke run.

Usage::

    PYTHONPATH=src python scripts/validate_telemetry.py spans.jsonl
    PYTHONPATH=src python scripts/validate_telemetry.py --kind timeline tl.jsonl
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)


def sniff_kind(path: str) -> str:
    """Guess the telemetry kind from the first non-empty JSONL row."""
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                return "spans"  # let the strict importer report the error
            if isinstance(row, dict) and "values" in row:
                return "timeline"
            return "spans"
    return "spans"


def check_spans(path: str) -> str:
    """Validate a span trace; returns a summary line or raises."""
    from repro.obs import import_spans, validate_span_chains

    with open(path, "r", encoding="utf-8") as stream:
        spans = import_spans(stream)
    if not spans:
        raise ValueError("no spans")
    chains = validate_span_chains(spans)
    return f"{len(spans)} spans, {len(chains)} complete query lifecycles"


def check_timeline(path: str) -> str:
    """Validate a timeline export; returns a summary line or raises."""
    from repro.obs import import_timeline, validate_timeline

    with open(path, "r", encoding="utf-8") as stream:
        runs = import_timeline(stream)
    if not runs:
        raise ValueError("no timeline points")
    for label, points in sorted(runs.items()):
        validate_timeline(points)
    total = sum(len(points) for points in runs.values())
    return f"{total} timeline points across {len(runs)} run(s)"


CHECKERS = {"spans": check_spans, "timeline": check_timeline}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="telemetry JSONL file")
    parser.add_argument(
        "--kind",
        choices=("auto", "spans", "timeline"),
        default="auto",
        help="telemetry format (default: sniff the first row)",
    )
    args = parser.parse_args(argv)

    from repro.obs import SpanFormatError

    kind = args.kind if args.kind != "auto" else sniff_kind(args.path)
    try:
        summary = CHECKERS[kind](args.path)
    except (SpanFormatError, ValueError, OSError) as exc:
        print(f"validate_telemetry: {args.path}: {exc}", file=sys.stderr)
        return 1
    print(f"validate_telemetry: {args.path}: {kind}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
