"""Observability for the study pipeline: tracing, metrics, provenance.

Three layers, all opt-in, each agreeing across shard counts on every
shape-independent aggregate:

- :mod:`repro.obs.trace` — a span-based :class:`Tracer` recording the
  hierarchy study → phase → shard → record → backend call on both the
  wall clock and the simulation's virtual clock, serialized to an
  append-only JSONL event log;
- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bound histograms that
  :class:`~repro.exec.stats.StudyStats` is a thin view over; every
  shard counts straight into the run's registry;
- :mod:`repro.obs.provenance` — a :class:`RecordProvenance` attached
  to every record outcome: span id, Figure-4 bucket, and the
  fetch/CDX/retry deltas that record cost.

The service tier adds three more, still deterministic end to end:

- :mod:`repro.obs.slo` — declarative :class:`SloSpec` objectives
  (availability / latency / shed rate) graded on the virtual clock
  with exact error-budget accounting, Google-SRE multi-window
  burn-rate alerts, and chaos budget-burn attribution over the
  service audit log;
- :class:`~repro.obs.metrics.Histogram` exemplars — a bounded,
  hash-ranked reservoir per bucket linking latency buckets back to
  concrete request/replica ids, plus
  :func:`~repro.obs.metrics.histogram_quantile` estimation;
- :mod:`repro.obs.export` — Prometheus-text and canonical-JSON
  exposition of any registry, with exact snapshot diffing.

``scripts/trace_report.py`` (over :mod:`repro.obs.traceview`) answers
the audit questions from the JSONL that ``python -m repro study
--trace`` or ``python -m repro serve --trace`` writes, alone: top-N most expensive URLs,
failure attribution by bucket, per-phase latency histograms, and the
cluster's shard/replica/redispatch geometry. ``scripts/slo_report.py``
joins the audit log, trace, and metrics snapshot into SLO verdicts.
"""

from .export import (
    diff_snapshots,
    prometheus_text,
    render_diff,
    render_json,
    sanitize_metric_name,
)
from .metrics import (
    DEFAULT_EXEMPLAR_CAPACITY,
    DEFAULT_LATENCY_BOUNDS_MS,
    DEFAULT_LATENCY_BOUNDS_S,
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)
from .provenance import BackendSnapshot, RecordProvenance, backend_snapshot
from .slo import (
    DEFAULT_BURN_WINDOWS,
    DEFAULT_SERVICE_SLOS,
    SLO_KINDS,
    BurnAlert,
    BurnWindow,
    SloEvent,
    SloOutcome,
    SloReport,
    SloSpec,
    burn_attribution,
    evaluate,
    events_from_audit,
    events_from_reconfigs,
    events_from_responses,
    render_attribution,
)
from .trace import Span, Tracer, read_jsonl
from .traceview import (
    bucket_attribution,
    kind_counts,
    phase_latency_histograms,
    phase_totals,
    redispatch_attribution,
    replica_attribution,
    top_records,
)

__all__ = [
    "BackendSnapshot",
    "BurnAlert",
    "BurnWindow",
    "Counter",
    "DEFAULT_BURN_WINDOWS",
    "DEFAULT_EXEMPLAR_CAPACITY",
    "DEFAULT_LATENCY_BOUNDS_MS",
    "DEFAULT_LATENCY_BOUNDS_S",
    "DEFAULT_SERVICE_SLOS",
    "Exemplar",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RecordProvenance",
    "SLO_KINDS",
    "SloEvent",
    "SloOutcome",
    "SloReport",
    "SloSpec",
    "Span",
    "Tracer",
    "backend_snapshot",
    "bucket_attribution",
    "burn_attribution",
    "diff_snapshots",
    "evaluate",
    "events_from_audit",
    "events_from_reconfigs",
    "events_from_responses",
    "histogram_quantile",
    "kind_counts",
    "phase_latency_histograms",
    "phase_totals",
    "prometheus_text",
    "read_jsonl",
    "redispatch_attribution",
    "render_attribution",
    "render_diff",
    "render_json",
    "replica_attribution",
    "sanitize_metric_name",
    "top_records",
]
