"""The flight recorder: streaming sim-time telemetry timelines.

Per-round metric snapshots (PR 2) only see the world at probing-round
boundaries — everything between probes, which is where the paper's
cache/retry/loss interactions actually play out, is invisible. The
flight recorder samples the metrics registry (instruments plus pull
collectors, including the exact per-source counter from
:mod:`repro.obs.sketch`) on a configurable *sim-time* cadence,
independent of probing rounds, driven by a self-rescheduling simulator
timer. Each sample is distilled into a typed
:class:`~repro.obs.records.TimelinePoint` whose series cover both
cumulative totals (exactly reconcilable against the final metrics
snapshot and the offered query log) and interval rates/ratios (the
rolling view online detection needs).

Sampling cadence vs. event cost: one tick costs one registry read
(``O(instruments + collector state)``) and one kernel event, so a 60 s
cadence over a 3-hour run adds ~180 events to the millions the
experiments process — negligible. The per-*packet* cost lives elsewhere:
the per-source tap adds one dict increment per offered query. With no
``TimelineSpec`` at all, nothing is scheduled, no collector runs, no
per-source counter exists, and the hot path is byte-for-byte the
None-sink code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.records import TimelinePoint

#: Series rendered by ``repro timeline`` when no filter is given.
DEFAULT_SERIES = (
    "offered_qps",
    "served_qps",
    "dropped_qps",
    "client_ok_ratio",
    "cache_hit_ratio",
    "queue_depth",
)


@dataclass(frozen=True)
class TimelineSpec:
    """Flight-recorder configuration (rides ``ObsSpec`` into the cache key).

    ``interval`` is the sim-time sampling cadence in seconds. A spec
    always arms exact per-source counting at the measurement-zone
    authoritatives (the ``sketch.*`` series).
    """

    interval: float = 60.0


class TimelineRecorder:
    """Samples the registry into :class:`TimelinePoint` rows at sim-time.

    Wired by :class:`~repro.obs.config.Observability` when the spec
    carries a :class:`TimelineSpec`; ``None`` otherwise, so components
    and the testbed guard once at construction (the same discipline as
    the tracer and registry).
    """

    __slots__ = ("spec", "sim", "registry", "points", "_prev", "_armed")

    def __init__(self, spec: TimelineSpec, sim, registry) -> None:
        self.spec = spec
        self.sim = sim
        self.registry = registry
        self.points: List[TimelinePoint] = []
        # Previous cumulative reading for interval rates; carries the
        # last computed ratios forward across empty intervals.
        self._prev: Dict[str, float] = {}
        self._armed = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, until: float) -> None:
        """Arm the self-rescheduling sampler to cover ``[0, until]``.

        Samples land at ``interval, 2*interval, ...`` and exactly at
        ``until`` (the experiment's duration + grace), so the final point
        reads the same world state as the final metrics snapshot —
        that's what makes the timeline reconcile exactly. Idempotent;
        the first arming wins.
        """
        if self._armed:
            return
        self._armed = True
        remaining = until - self.sim.now
        if remaining <= 0:
            return
        self.sim.call_later(min(self.spec.interval, remaining), self._tick, until)

    def _tick(self, until: float) -> None:
        self.sample()
        remaining = until - self.sim.now
        if remaining > 1e-9:
            self.sim.call_later(
                min(self.spec.interval, remaining), self._tick, until
            )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self) -> TimelinePoint:
        """Read the registry now and append one derived timeline point."""
        raw = self.registry.read_values()
        point = TimelinePoint(
            self.sim.now, len(self.points), self._derive(self.sim.now, raw)
        )
        self.points.append(point)
        return point

    def _derive(self, now: float, raw: Dict[str, float]) -> Dict[str, float]:
        """Distill a flat registry reading into the typed series."""
        prev = self._prev
        values: Dict[str, float] = {}

        offered = _sum_prefix(raw, "auth.offered.")
        served = _sum_prefix(raw, "auth.served.")
        dropped_attack = raw.get("net.dropped_attack", 0)
        dropped_baseline = raw.get("net.dropped_baseline", 0)
        dropped = dropped_attack + dropped_baseline
        outcomes = _stub_outcomes(raw)
        answered = sum(outcomes.values())
        ok = outcomes.get("ok", 0)
        cache_hits = (
            raw.get("recursive.cache_hits", 0)
            + raw.get("recursive.negcache_hits", 0)
            + raw.get("forwarder.cache_hits", 0)
        )
        cache_lookups = (
            cache_hits
            + raw.get("recursive.cache_misses", 0)
            + raw.get("forwarder.upstream_queries", 0)
        )
        retries = raw.get("recursive.upstream_timeouts", 0) + raw.get(
            "forwarder.timeouts", 0
        )

        values["offered_total"] = offered
        values["served_total"] = served
        values["dropped_attack_total"] = dropped_attack
        values["dropped_baseline_total"] = dropped_baseline
        values["client_ok_total"] = ok
        values["client_answered_total"] = answered
        values["retry_total"] = retries
        # ``live`` (non-cancelled pending events) is a property of the
        # simulation state; ``dead`` is lazy-deletion bookkeeping that
        # depends on the queue's internals, so it stays out of the
        # timeline.
        values["queue_depth"] = raw.get("queue.live", 0)

        span = now - prev.get("time", 0.0)
        if span > 0:
            values["offered_qps"] = _rate(offered, prev.get("offered_total"), span)
            values["served_qps"] = _rate(served, prev.get("served_total"), span)
            values["dropped_qps"] = _rate(
                dropped,
                _maybe_sum(
                    prev.get("dropped_attack_total"),
                    prev.get("dropped_baseline_total"),
                ),
                span,
            )
            values["retry_qps"] = _rate(retries, prev.get("retry_total"), span)
        else:
            values["offered_qps"] = 0.0
            values["served_qps"] = 0.0
            values["dropped_qps"] = 0.0
            values["retry_qps"] = 0.0

        values["cache_hit_ratio"] = _interval_ratio(
            cache_hits,
            cache_lookups,
            prev.get("_cache_hits"),
            prev.get("_cache_lookups"),
            prev.get("cache_hit_ratio"),
        )
        values["client_ok_ratio"] = _interval_ratio(
            ok,
            answered,
            prev.get("client_ok_total"),
            prev.get("client_answered_total"),
            prev.get("client_ok_ratio"),
        )

        # Defense/attack/sketch collectors pass through under their own
        # prefixes when those subsystems are wired.
        for key, number in raw.items():
            if key.startswith(("defense.", "attack.", "sketch.")):
                values[key] = number

        self._prev = dict(values)
        self._prev["time"] = now
        self._prev["_cache_hits"] = cache_hits
        self._prev["_cache_lookups"] = cache_lookups
        return values


def _sum_prefix(raw: Dict[str, float], prefix: str) -> float:
    return sum(number for key, number in raw.items() if key.startswith(prefix))


def _stub_outcomes(raw: Dict[str, float]) -> Dict[str, float]:
    """Total ``stub.outcome.<outcome>.<round>`` counts by outcome."""
    outcomes: Dict[str, float] = {}
    for key, number in raw.items():
        if key.startswith("stub.outcome."):
            outcome = key.split(".")[2]
            outcomes[outcome] = outcomes.get(outcome, 0) + number
    return outcomes


def _maybe_sum(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None or b is None:
        return None
    return a + b


def _rate(current: float, previous: Optional[float], span: float) -> float:
    delta = current - (previous if previous is not None else 0.0)
    return round(delta / span, 6)


def _interval_ratio(
    numerator: float,
    denominator: float,
    prev_numerator: Optional[float],
    prev_denominator: Optional[float],
    carry: Optional[float],
) -> float:
    """Ratio over the last interval, carrying forward when it was empty."""
    num = numerator - (prev_numerator if prev_numerator is not None else 0.0)
    den = denominator - (
        prev_denominator if prev_denominator is not None else 0.0
    )
    if den <= 0:
        return carry if carry is not None else 0.0
    return round(num / den, 6)


# ---------------------------------------------------------------------------
# Rendering (shared with the per-hop breakdown in spanio.summarize_spans)
# ---------------------------------------------------------------------------
def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    aligns: Optional[Sequence[str]] = None,
) -> str:
    """Fixed-width text table: headers, a rule, one line per row.

    ``aligns`` holds ``"l"``/``"r"`` per column (default: first column
    left, the rest right — the shape every numeric summary here uses).
    """
    if aligns is None:
        aligns = ["l"] + ["r"] * (len(headers) - 1)
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for cell, width, align in zip(cells, widths, aligns):
            parts.append(cell.ljust(width) if align == "l" else cell.rjust(width))
        return "  ".join(parts).rstrip()

    lines = [fmt(headers), "  ".join("-" * width for width in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _format_value(number: float) -> str:
    if isinstance(number, float) and not number.is_integer():
        return f"{number:.3f}"
    return f"{number:g}"


def select_series(
    points: Sequence[TimelinePoint], series: Optional[Sequence[str]] = None
) -> List[str]:
    """The series names to render: requested ones, or the defaults that
    exist in the data plus any sketch series."""
    available: Dict[str, bool] = {}
    for point in points:
        for key in point.values:
            available[key] = True
    if series:
        missing = [name for name in series if name not in available]
        if missing:
            raise KeyError(
                f"series not in timeline: {', '.join(sorted(missing))} "
                f"(available: {', '.join(sorted(available))})"
            )
        return list(series)
    chosen = [name for name in DEFAULT_SERIES if name in available]
    chosen.extend(
        sorted(name for name in available if name.startswith("sketch."))
    )
    return chosen


def render_timeline(
    points: Sequence[TimelinePoint],
    series: Optional[Sequence[str]] = None,
    attack_window: Optional[Tuple[float, float]] = None,
    title: Optional[str] = None,
) -> str:
    """Text rendering: one row per sample, one column per series.

    Samples inside ``attack_window`` carry a ``*`` marker (the paper's
    attack-shading convention from the round tables).
    """
    names = select_series(points, series)
    headers = ["t(s)", *names] + (["atk"] if attack_window else [])
    rows = []
    for point in points:
        row = [f"{point.time:.0f}"]
        row.extend(
            _format_value(point.values[name]) if name in point.values else "-"
            for name in names
        )
        if attack_window is not None:
            start, end = attack_window
            row.append("*" if start <= point.time < end else "")
        rows.append(row)
    table = render_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def render_timeline_csv(
    points: Sequence[TimelinePoint], series: Optional[Sequence[str]] = None
) -> str:
    """CSV rendering with a ``time,index,<series...>`` header."""
    names = select_series(points, series)
    lines = [",".join(["time", "index", *names])]
    for point in points:
        cells = [f"{point.time:g}", str(point.index)]
        cells.extend(
            _format_value(point.values[name]) if name in point.values else ""
            for name in names
        )
        lines.append(",".join(cells))
    return "\n".join(lines)
