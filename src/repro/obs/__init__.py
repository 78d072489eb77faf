"""Observability: query-lifecycle tracing, metrics, timelines, profiling.

Four independent layers, all zero-cost when disabled:

- :class:`Tracer` — per-query span events (``repro ddos H --trace out.jsonl``)
- :class:`MetricsRegistry` — counters/gauges/histograms snapshotted per round
- :class:`TimelineRecorder` — the flight recorder: sim-time telemetry
  timelines with exact per-source accounting
  (``repro ddos H --timeline out.jsonl``)
- simulator profiling — see :meth:`repro.simcore.Simulator.enable_profiling`

:class:`ObsSpec` selects layers per run and travels on runner requests.
"""

from repro.obs.config import Observability, ObsSpec
from repro.obs.metrics import (
    Counter,
    CounterFamily,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.records import (
    SPAN_KINDS,
    TERMINAL_KINDS,
    MetricsSnapshot,
    SpanEvent,
    TimelinePoint,
)
from repro.obs.sketch import SourceSketch
from repro.obs.spanio import (
    SpanFormatError,
    export_metrics,
    export_spans,
    export_timeline,
    import_metrics,
    import_spans,
    import_timeline,
    summarize_spans,
    validate_span_chains,
    validate_timeline,
)
from repro.obs.timeline import (
    DEFAULT_SERIES,
    TimelineRecorder,
    TimelineSpec,
    render_table,
    render_timeline,
    render_timeline_csv,
)
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "CounterFamily",
    "DEFAULT_SERIES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Observability",
    "ObsSpec",
    "SPAN_KINDS",
    "SourceSketch",
    "SpanEvent",
    "SpanFormatError",
    "TERMINAL_KINDS",
    "TimelinePoint",
    "TimelineRecorder",
    "TimelineSpec",
    "Tracer",
    "export_metrics",
    "export_spans",
    "export_timeline",
    "import_metrics",
    "import_spans",
    "import_timeline",
    "render_table",
    "render_timeline",
    "render_timeline_csv",
    "summarize_spans",
    "validate_span_chains",
    "validate_timeline",
]
