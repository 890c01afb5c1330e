"""Metrics exposition: Prometheus text, JSON snapshots, and diffs.

A :class:`~repro.obs.metrics.MetricsRegistry` is an in-process object;
this module is how its contents leave the process in formats the rest
of the observability world speaks:

- :func:`prometheus_text` — the Prometheus/OpenMetrics text format
  (``# TYPE`` headers, ``_total`` counter suffix, cumulative
  ``_bucket{le="…"}`` histogram series with OpenMetrics-style
  exemplar annotations). Per-replica families published by
  a prefixed :meth:`~repro.obs.metrics.MetricsRegistry.merge` render as
  their own sanitized families (``service_replica_s0r1_…``) next to
  the fleet rollup.
- :func:`render_json` — a canonical, byte-stable JSON snapshot
  (sorted keys, compact separators) of the same data.
- :func:`diff_snapshots` / :func:`render_diff` — exact deltas between
  two snapshots: what a new index version, a chaos arm, or a config
  change did to every counter, gauge, and histogram. Counters and
  histogram buckets subtract; gauges report (before, after).

Everything is deterministic: the same registry state renders to the
same bytes, which is what lets tests pin exposition output and lets a
snapshot diff between two seeded runs be meaningful at all.
"""

from __future__ import annotations

import json
import re

from .metrics import MetricsRegistry

__all__ = [
    "diff_snapshots",
    "prometheus_text",
    "render_diff",
    "render_json",
    "sanitize_metric_name",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Map a registry name onto the Prometheus grammar.

    Dots (the registry's namespace separator) and any other illegal
    characters become underscores; a leading digit gets a guard
    underscore. The map is stable, so equal registry names always
    collide with themselves and never with a distinct sanitized name
    in practice (registry names are dot-and-word only).
    """
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render bare, floats as repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    return _format_value(float(bound))


def _exemplar_annotation(exemplar: dict) -> str:
    """OpenMetrics exemplar suffix for one bucket sample line."""
    labels = f'key="{exemplar["key"]}"'
    if "at_ms" in exemplar:
        labels += f',at_ms="{_format_value(float(exemplar["at_ms"]))}"'
    return f" # {{{labels}}} {_format_value(float(exemplar['value']))}"


def prometheus_text(
    source: MetricsRegistry | dict, exemplars: bool = True
) -> str:
    """Render a registry (or a snapshot dict) as Prometheus text.

    Families are sorted by sanitized name; counters get the
    conventional ``_total`` suffix; histograms render cumulative
    ``le`` buckets plus ``_sum``/``_count``. With ``exemplars`` (the
    default), each bucket that retained exemplars carries its
    rank-first exemplar as an OpenMetrics annotation — the link from
    a latency bucket back to a concrete request id.
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    lines: list[str] = []

    for name, value in sorted(
        snapshot.get("counters", {}).items(),
        key=lambda item: sanitize_metric_name(item[0]),
    ):
        family = sanitize_metric_name(name) + "_total"
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family} {_format_value(value)}")

    for name, value in sorted(
        snapshot.get("gauges", {}).items(),
        key=lambda item: sanitize_metric_name(item[0]),
    ):
        family = sanitize_metric_name(name)
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_format_value(value)}")

    for name, data in sorted(
        snapshot.get("histograms", {}).items(),
        key=lambda item: sanitize_metric_name(item[0]),
    ):
        family = sanitize_metric_name(name)
        lines.append(f"# TYPE {family} histogram")
        bounds = list(data["bounds"])
        counts = list(data["counts"])
        kept = data.get("exemplars", {}) if exemplars else {}
        cumulative = 0
        for index, count in enumerate(counts):
            cumulative += count
            le = (
                _format_bound(bounds[index])
                if index < len(bounds)
                else "+Inf"
            )
            line = f'{family}_bucket{{le="{le}"}} {cumulative}'
            bucket_exemplars = kept.get(str(index), ())
            if bucket_exemplars:
                line += _exemplar_annotation(bucket_exemplars[0])
            lines.append(line)
        lines.append(f"{family}_sum {_format_value(data['sum'])}")
        lines.append(f"{family}_count {data['count']}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_json(source: MetricsRegistry | dict) -> str:
    """Canonical JSON snapshot: sorted keys, compact, newline-final.

    Byte-stable for equal registry state — two seeded runs diff
    empty, and a file of this is what :func:`diff_snapshots` eats.
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    return (
        json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n"
    )


def diff_snapshots(before: dict, after: dict) -> dict:
    """Exact instrument-level deltas between two snapshots.

    Returns only what moved:

    - ``counters``: name → after − before (new counters diff from 0);
    - ``gauges``: name → ``[before, after]`` where the value changed
      (absent-before renders as ``None``);
    - ``histograms``: name → per-bucket count deltas plus count/sum
      deltas, or ``{"bounds_changed": [...]}`` when the bucket layout
      itself changed between versions (bounds are identity — a
      numeric diff across different bounds would be a lie).
    """
    diff: dict = {"counters": {}, "gauges": {}, "histograms": {}}

    before_counters = before.get("counters", {})
    after_counters = after.get("counters", {})
    for name in sorted(set(before_counters) | set(after_counters)):
        delta = after_counters.get(name, 0.0) - before_counters.get(name, 0.0)
        if delta:
            diff["counters"][name] = delta

    before_gauges = before.get("gauges", {})
    after_gauges = after.get("gauges", {})
    for name in sorted(set(before_gauges) | set(after_gauges)):
        old = before_gauges.get(name)
        new = after_gauges.get(name)
        if old != new:
            diff["gauges"][name] = [old, new]

    before_hists = before.get("histograms", {})
    after_hists = after.get("histograms", {})
    for name in sorted(set(before_hists) | set(after_hists)):
        old = before_hists.get(name)
        new = after_hists.get(name)
        if old is None or new is None:
            present = new if old is None else old
            empty = {
                "bounds": present["bounds"],
                "counts": [0] * len(present["counts"]),
                "count": 0,
                "sum": 0.0,
            }
            old = old or empty
            new = new or empty
        if list(old["bounds"]) != list(new["bounds"]):
            diff["histograms"][name] = {
                "bounds_changed": [list(old["bounds"]), list(new["bounds"])]
            }
            continue
        bucket_deltas = [
            int(b) - int(a) for a, b in zip(old["counts"], new["counts"])
        ]
        count_delta = new["count"] - old["count"]
        sum_delta = new["sum"] - old["sum"]
        if count_delta or sum_delta or any(bucket_deltas):
            diff["histograms"][name] = {
                "counts": bucket_deltas,
                "count": count_delta,
                "sum": sum_delta,
            }

    return diff


def render_diff(diff: dict) -> str:
    """Human-readable rendering of :func:`diff_snapshots` output."""
    lines: list[str] = []
    counters = diff.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, delta in counters.items():
            lines.append(f"  {name:<44} {delta:+g}")
    gauges = diff.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, (old, new) in gauges.items():
            lines.append(f"  {name:<44} {old} -> {new}")
    histograms = diff.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name, data in histograms.items():
            if "bounds_changed" in data:
                lines.append(f"  {name:<44} (bucket bounds changed)")
            else:
                lines.append(
                    f"  {name:<44} count {data['count']:+d}, "
                    f"sum {data['sum']:+g}"
                )
    if not lines:
        return "(no differences)"
    return "\n".join(lines)
