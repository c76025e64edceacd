"""Render a merged campaign telemetry summary (``repro telemetry-report``).

Reads the campaign root a parallel run synced through: the merged
``metrics.json`` the orchestrator wrote (falling back to merging the
per-worker ``worker-NNN/metrics.json`` snapshots when only those
survived, e.g. after a killed supervisor) plus the merged
``events.jsonl`` when one exists. Everything is computed into a plain
dict first (:func:`campaign_summary`) so tests — and the benchmark
export — consume numbers, not formatted text.
"""

from __future__ import annotations

from pathlib import Path

from repro.telemetry import (
    METRICS_NAME,
    MetricsRegistry,
    load_metrics,
    read_events,
)
from repro.telemetry.events import merged_events_path


def load_campaign_metrics(root: Path) -> MetricsRegistry | None:
    """The merged registry for one campaign root, or ``None``.

    Prefers the orchestrator's merged snapshot; otherwise folds
    whatever per-worker snapshots are readable.
    """
    root = Path(root)
    merged = load_metrics(root / METRICS_NAME)
    if merged is not None:
        return merged
    registry = MetricsRegistry()
    found = False
    for path in sorted(root.glob("worker-*/" + METRICS_NAME)):
        worker = load_metrics(path)
        if worker is not None:
            registry.merge_snapshot(worker.snapshot())
            found = True
    return registry if found else None


def campaign_summary(root: Path) -> dict:
    """Structured summary: spans, counters, per-shard skew, events."""
    registry = load_campaign_metrics(root)
    if registry is None:
        raise FileNotFoundError(
            f"no telemetry snapshots under {root} (was the campaign run "
            f"with --telemetry off, or without a persistent --sync-dir?)")
    spans = {}
    for name in registry.span_names():
        hist = registry.merged_histogram(name)
        spans[name] = {
            "count": hist.count,
            "total_seconds": hist.sum,
            "mean_seconds": hist.mean,
            "max_seconds": hist.max,
        }
    counters = {name: registry.counter_total(name)
                for name in registry.counter_names()}
    gauges = {name: registry.gauge_max(name)
              for name in registry.gauge_names()}
    skew = _shard_skew(registry)
    events_path = merged_events_path(root)
    events = read_events(events_path) if events_path.exists() else []
    return {"root": str(root), "spans": spans, "counters": counters,
            "gauges": gauges, "scheduler": _scheduler_summary(registry),
            "shards": skew, "event_count": len(events)}


#: The work-stealing scheduler's own counters (DESIGN.md §13), pulled
#: into their own report block so lease churn is visible at a glance.
_SCHED_COUNTERS = ("sched.leases_issued", "sched.steals", "sched.reclaims")


def _scheduler_summary(registry: MetricsRegistry) -> dict:
    """Scheduler block: the lease counters; empty (section omitted)
    when no lease was issued."""
    return {name: total for name in _SCHED_COUNTERS
            if (total := registry.counter_total(name))}


def _shard_skew(registry: MetricsRegistry) -> dict:
    """Per-shard span totals, plus a max/min skew ratio per span."""
    shards: dict = {}
    for shard, metrics in registry.shards.items():
        if shard is None:
            continue
        shards[shard] = {
            "span_seconds": {name: hist.sum
                             for name, hist in metrics.histograms.items()},
            "counters": dict(metrics.counters),
        }
    skew: dict = {}
    for name in registry.span_names():
        totals = [m["span_seconds"][name] for m in shards.values()
                  if name in m["span_seconds"]]
        if len(totals) >= 2 and min(totals) > 0:
            skew[name] = max(totals) / min(totals)
    return {"per_shard": {str(k): v for k, v in sorted(shards.items())},
            "skew_ratio": skew}


def render_report(root: Path, *, top: int = 12) -> str:
    """Human-readable report for one campaign root."""
    summary = campaign_summary(root)
    lines = [f"telemetry report — {summary['root']}", ""]

    spans = sorted(summary["spans"].items(),
                   key=lambda kv: -kv[1]["total_seconds"])
    lines.append(f"top spans (by total time, {len(spans)} recorded)")
    lines.append(f"  {'span':<28} {'count':>8} {'total':>10} "
                 f"{'mean':>10} {'max':>10}")
    for name, data in spans[:top]:
        lines.append(
            f"  {name:<28} {data['count']:>8} "
            f"{data['total_seconds']:>9.3f}s "
            f"{1e3 * data['mean_seconds']:>8.2f}ms "
            f"{1e3 * data['max_seconds']:>8.2f}ms")
    lines.append("")

    counters = sorted(summary["counters"].items())
    lines.append(f"counters ({len(counters)})")
    for name, value in counters:
        lines.append(f"  {name:<40} {value:>12}")
    lines.append("")

    scheduler = summary.get("scheduler") or {}
    if scheduler:
        lines.append("scheduler")
        for name, value in sorted(scheduler.items()):
            rendered = (f"{value:g}" if isinstance(value, float)
                        else f"{value}")
            lines.append(f"  {name:<40} {rendered:>12}")
        lines.append("")

    per_shard = summary["shards"]["per_shard"]
    if per_shard:
        lines.append(f"per-shard skew ({len(per_shard)} shard(s))")
        for shard, data in per_shard.items():
            busiest = sorted(data["span_seconds"].items(),
                             key=lambda kv: -kv[1])[:3]
            detail = ", ".join(f"{n} {s:.3f}s" for n, s in busiest)
            lines.append(f"  shard {shard}: {detail or '(no spans)'}")
        for name, ratio in sorted(summary["shards"]["skew_ratio"].items(),
                                  key=lambda kv: -kv[1])[:top]:
            lines.append(f"  skew {name}: max/min {ratio:.2f}x")
    if summary["event_count"]:
        lines.append("")
        lines.append(f"{summary['event_count']} event(s) in events.jsonl")
    return "\n".join(lines)
