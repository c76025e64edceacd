"""Telemetry overhead gate and mode-equivalence pins (DESIGN.md §11).

Telemetry must be *observationally free*: turning it on may cost a
little wall clock but must not change anything a campaign finds. Two
properties are pinned here and exported to ``BENCH_throughput.json``:

* ``--telemetry metrics`` vs ``--telemetry off`` on an identical inline
  campaign costs at most ``MAX_OVERHEAD`` relative wall clock (each
  mode measured best-of-``REPEATS`` to keep the gate off the noise
  floor);
* the campaign fingerprint is bit-for-bit identical across all three
  modes, for the VMX (Intel) and SVM (AMD) stacks both.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from common import BenchReport, PhaseDeadline, bench_budget, run_provenance
from repro import Vendor
from repro.parallel import ParallelCampaign
from repro.resilience import campaign_fingerprint

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"
DEFAULT_BUDGET = 200
BUDGET = bench_budget(DEFAULT_BUDGET)
SEED = 7
#: Relative wall-clock overhead allowed for ``metrics`` over ``off``.
MAX_OVERHEAD = 0.05
#: Best-of-N timing per mode; a single inline campaign is short enough
#: that scheduler noise would otherwise dominate a 5% gate.
REPEATS = 3


def _update_json(section: str, payload: dict) -> None:
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data[section] = {**run_provenance(BUDGET, DEFAULT_BUDGET), **payload}
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _campaign(vendor: Vendor, mode: str) -> ParallelCampaign:
    return ParallelCampaign(hypervisor="kvm", vendor=vendor, seed=SEED,
                            workers=2, sync_every=50, mode="inline",
                            telemetry_mode=mode)


def _timed(mode: str, iterations: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(REPEATS):
        campaign = _campaign(Vendor.INTEL, mode)
        start = time.perf_counter()
        result = campaign.run(iterations, sample_every=100)
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.benchmark(group="perf-telemetry")
def test_telemetry_overhead_gate(capsys):
    deadline = PhaseDeadline()
    off_s, _ = _timed("off", BUDGET)
    metrics_s, observed = _timed("metrics", BUDGET)
    truncated = deadline.expired()
    overhead = metrics_s / off_s - 1.0

    registry_spans = observed.telemetry["shards"] if observed.telemetry else {}
    span_totals: dict = {}
    counter_totals: dict = {}
    for shard in registry_spans.values():
        for name, hist in shard.get("histograms", {}).items():
            span_totals[name] = round(
                span_totals.get(name, 0.0) + hist["sum"], 4)
        for name, value in shard.get("counters", {}).items():
            counter_totals[name] = counter_totals.get(name, 0) + value

    _update_json("telemetry_overhead", {
        "iterations": BUDGET,
        "off_seconds": round(off_s, 3),
        "metrics_seconds": round(metrics_s, 3),
        "overhead_fraction": round(overhead, 4),
        "max_overhead_fraction": MAX_OVERHEAD,
        "span_total_seconds": span_totals,
        "counters": counter_totals,
        "deadline_truncated": truncated,
    })

    report = BenchReport("Telemetry overhead (inline, 2 workers)")
    report.add(f"off      {off_s:6.3f}s  (best of {REPEATS})")
    report.add(f"metrics  {metrics_s:6.3f}s  (best of {REPEATS})")
    report.add(f"overhead {100 * overhead:+6.2f}%  "
               f"(gate {100 * MAX_OVERHEAD:.0f}%)"
               + ("  [deadline truncated]" if truncated else ""))
    report.emit(capsys)

    if not truncated:
        assert overhead <= MAX_OVERHEAD, (
            f"telemetry 'metrics' mode costs {100 * overhead:.1f}% over "
            f"'off' (gate {100 * MAX_OVERHEAD:.0f}%)")


@pytest.mark.benchmark(group="perf-telemetry")
@pytest.mark.parametrize("vendor", (Vendor.INTEL, Vendor.AMD),
                         ids=("vmx", "svm"))
def test_fingerprints_identical_across_modes(vendor, capsys):
    iterations = min(BUDGET, 120)
    prints = {mode: campaign_fingerprint(
                  _campaign(vendor, mode).run(iterations, sample_every=50))
              for mode in ("off", "metrics", "full")}

    report = BenchReport(f"Telemetry fingerprint pin ({vendor.value})")
    for mode, digest in prints.items():
        report.add(f"{mode:<8} {digest[:16]}…")
    report.emit(capsys)

    assert prints["off"] == prints["metrics"] == prints["full"], (
        f"telemetry mode changed the {vendor.value} campaign fingerprint: "
        f"{prints}")
