"""Throughput benchmark: serial hot path and sharded campaigns.

Measures campaign throughput and writes the numbers to
``BENCH_throughput.json`` at the repo root:

* serial kvm/intel cases/sec (recorded; ``src/`` has no slower mode
  to set a floor against);
* process-mode ``ParallelCampaign`` wall-clock vs. serial for the same
  budget, with the per-phase sync-overhead breakdown (export / manifest
  scan / subsumption filter / import execution seconds) recorded so a
  regression in the corpus protocol shows up as a number, not a vibe —
  inline fallback (mode recorded) on single-core CI, next to a probe
  of the host's usable parallelism at the time of the run;
* static sharding vs. the work-stealing lease schedule on the same
  forked-worker budget, with lease/steal/reclaim counts recorded
  (logged null stage on single-CPU runners);
* the ``VirginMap.merge_from`` no-change fast path vs. a forced full
  merge on identical payloads.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
from pathlib import Path

import pytest

from common import BenchReport, PhaseDeadline, bench_budget, run_provenance
from repro import NecoFuzz, Vendor
from repro.coverage.bitmap import CoverageBitmap, VirginMap
from repro.parallel import ParallelCampaign

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"
DEFAULT_BUDGET = 400
#: ``NECOFUZZ_BENCH_BUDGET`` shrinks the budget for CI smoke runs and
#: doubles as a hard per-phase wall-clock deadline (seconds); the
#: speedup floors are only asserted at the full, untruncated budget.
BUDGET = bench_budget(DEFAULT_BUDGET)
SEED = 7


def _spin(loops: int) -> None:
    total = 0
    for i in range(loops):
        total += i


def _parallelism_probe(loops: int = 3_000_000) -> float:
    """Throughput of two forked pure-Python loops over one.

    1.0 means the second CPU gave nothing while this stage ran, 2.0 two
    fully usable CPUs; a failing wall-clock floor is read against it.
    """
    ctx = multiprocessing.get_context("fork")

    def timed(n: int) -> float:
        procs = [ctx.Process(target=_spin, args=(loops,)) for _ in range(n)]
        start = time.perf_counter()
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        return time.perf_counter() - start

    one = timed(1)
    return round(2 * one / timed(2), 2)


def _update_json(section: str, payload: dict) -> None:
    """Replace one section, stamped with the provenance of this run.

    A payload key wins over a provenance key of the same name (the
    delta stage records the budget it actually ran). Sections this run
    did not write keep their numbers and stamps.
    """
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data[section] = {**run_provenance(BUDGET, DEFAULT_BUDGET), **payload}
    data["config"] = {"hypervisor": "kvm", "vendor": "intel",
                      "seed": SEED, "iterations": BUDGET}
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.mark.benchmark(group="perf-throughput")
def test_serial_throughput(capsys):
    """One serial campaign, stepped manually so the phase deadline is a
    hard stop mid-campaign, not a post-hoc observation."""
    campaign = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED)
    deadline = PhaseDeadline()
    start = time.perf_counter()
    ran = deadline.run(BUDGET, campaign.engine.step)
    cps = ran / (time.perf_counter() - start)
    coverage = campaign.agent.coverage_fraction

    _update_json("serial", {
        "cases_per_sec": round(cps, 1),
        "coverage": round(coverage, 4),
        "deadline_truncated": deadline.hit,
    })

    report = BenchReport("Serial throughput")
    report.add(f"kcov tracer {cps:7.1f} cases/s ({100 * coverage:.1f}% coverage)"
               + ("  [deadline truncated]" if deadline.hit else ""))
    report.emit(capsys)


@pytest.mark.benchmark(group="perf-throughput")
def test_parallel_wall_clock(capsys):
    cpus = os.cpu_count() or 1
    # With a single CPU the process-pool numbers are meaningless, but the
    # sharded-campaign machinery still deserves a recorded data point:
    # fall back to inline (in-process) workers instead of skipping, and
    # report the mode so the JSON says what the numbers mean.
    mode = "process" if cpus >= 2 else "inline"
    probe = _parallelism_probe() if cpus >= 2 else None

    serial_campaign = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL,
                               seed=SEED)
    serial_deadline = PhaseDeadline()
    start = time.perf_counter()
    ran = serial_deadline.run(BUDGET, serial_campaign.engine.step)
    serial_s = time.perf_counter() - start
    if ran == 0:
        pytest.skip("serial phase deadline left no budget to compare")

    # The parallel phase runs the budget the serial phase actually
    # completed, so a deadline-truncated comparison stays one-to-one.
    # The pool itself cannot be stopped mid-flight; its own deadline is
    # observed post hoc and reported per sub-phase.
    workers = min(4, cpus) if mode == "process" else 2
    parallel_deadline = PhaseDeadline()
    start = time.perf_counter()
    merged = ParallelCampaign(hypervisor="kvm", vendor=Vendor.INTEL,
                              seed=SEED, workers=workers, sync_every=50,
                              mode=mode).run(ran, sample_every=100)
    parallel_s = time.perf_counter() - start
    parallel_deadline.expired()

    overhead = merged.sync_overhead
    sync_seconds = (overhead.export_seconds + overhead.scan_seconds
                    + overhead.filter_seconds + overhead.execute_seconds)
    serial_covered = serial_campaign.agent.covered_lines()
    # On a single CPU the inline fallback time-slices both "workers" on
    # one core, so a wall-clock "speedup" below 1.0 is an artifact of
    # the runner, not a regression. Report null + a flag instead of a
    # misleading number; the CI gate skips (with a logged reason) on it.
    single_cpu = cpus < 2
    _update_json("parallel", {
        "mode": mode,
        "schedule": "static",
        "cpus": cpus,
        "single_cpu": single_cpu,
        "usable_parallelism": probe,
        "workers": workers,
        "iterations_run": ran,
        "serial_seconds": round(serial_s, 2),
        "parallel_seconds": round(parallel_s, 2),
        "wall_clock_speedup": (None if single_cpu
                               else round(serial_s / parallel_s, 2)),
        "serial_covered": len(serial_covered),
        "merged_covered": len(merged.covered_lines),
        "shared_virgin_map": merged.shared_virgin_map,
        "imports_skipped_subsumed":
            merged.engine_stats.imports_skipped_subsumed,
        "sync_overhead_seconds": {
            "export": round(overhead.export_seconds, 4),
            "scan": round(overhead.scan_seconds, 4),
            "filter": round(overhead.filter_seconds, 4),
            "execute": round(overhead.execute_seconds, 4),
            "total": round(sync_seconds, 4),
        },
        "deadline_truncated": {"serial": serial_deadline.hit,
                               "parallel": parallel_deadline.hit},
    })

    report = BenchReport(
        f"Parallel wall clock ({workers} {mode} workers, {cpus} CPUs)")
    report.add(f"serial      {serial_s:6.2f}s  "
               f"({len(serial_covered)} lines)")
    if probe is not None:
        report.add(f"probe       {probe:6.2f}x  (two forked loops vs one)")
    report.add(f"parallel    {parallel_s:6.2f}s  "
               f"({len(merged.covered_lines)} lines)")
    if single_cpu:
        report.add("speedup       n/a  (single-CPU runner: inline "
                   "workers time-slice one core)")
    else:
        report.add(f"speedup     {serial_s / parallel_s:6.2f}x"
                   + ("  [deadline truncated]" if serial_deadline.hit
                      else ""))
    report.add(f"sync        {sync_seconds:6.2f}s  "
               f"(export {overhead.export_seconds:.2f} / "
               f"scan {overhead.scan_seconds:.2f} / "
               f"filter {overhead.filter_seconds:.2f} / "
               f"execute {overhead.execute_seconds:.2f}), "
               f"{merged.engine_stats.imports_skipped_subsumed} subsumed")
    report.emit(capsys)

    assert merged.engine_stats.iterations == ran
    if (mode == "process" and BUDGET >= DEFAULT_BUDGET
            and not serial_deadline.hit):
        # Near-linear scaling floor (DESIGN.md §13): 0.7x per usable
        # core, so 2 workers on 2+ CPUs must clear 1.4x, 4 workers on
        # 4+ CPUs must clear 2.8x. Mirrored by the CI gate script.
        assert serial_s / parallel_s >= 0.7 * min(workers, cpus)


@pytest.mark.benchmark(group="perf-throughput")
def test_stealing_wall_clock(capsys):
    """Work-stealing vs. static sharding, same forked-worker budget.

    Static splits the budget up front, so the campaign's wall clock is
    its slowest shard; stealing lets fast workers drain a straggler's
    backlog. On an idle symmetric runner the two should be within noise
    of each other — the stage exists to catch the stealing machinery
    *costing* wall clock, and to put lease/steal counts in the JSON.
    Either way a lease is one sync round of ``sync_every`` cases.
    """
    sync_every = 50
    cpus = os.cpu_count() or 1
    if cpus < 2:
        _update_json("stealing", {
            "cpus": cpus,
            "single_cpu": True,
            "schedule": "stealing",
            "workers": None,
            "sync_every": sync_every,
            "static_seconds": None,
            "stealing_seconds": None,
            "wall_clock_speedup": None,
            "leases": None,
            "steals": None,
            "reclaims": None,
            "deadline_truncated": {"static": False, "stealing": False},
        })
        report = BenchReport("Work-stealing wall clock")
        report.add(f"SKIP: {cpus} CPU(s) — forked workers would "
                   "time-slice one core, so static vs. stealing would "
                   "measure the runner, not the scheduler. Recorded a "
                   "null stage in BENCH_throughput.json instead.")
        report.emit(capsys)
        pytest.skip("work-stealing comparison needs >= 2 CPUs")

    workers = min(4, cpus)

    def _sharded(schedule: str, root: Path):
        deadline = PhaseDeadline()
        start = time.perf_counter()
        merged = ParallelCampaign(
            hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED,
            workers=workers, sync_every=sync_every, mode="process",
            schedule=schedule, sync_dir=root).run(BUDGET, sample_every=100)
        elapsed = time.perf_counter() - start
        deadline.expired()
        return merged, elapsed, deadline.hit

    with tempfile.TemporaryDirectory() as tmp:
        static, static_s, static_cut = _sharded("static",
                                                Path(tmp) / "static")
        stolen, stolen_s, stolen_cut = _sharded("stealing",
                                                Path(tmp) / "stealing")
    truncated = static_cut or stolen_cut
    speedup = static_s / stolen_s

    _update_json("stealing", {
        "cpus": cpus,
        "single_cpu": False,
        "schedule": "stealing",
        "workers": workers,
        "sync_every": sync_every,
        "static_seconds": round(static_s, 2),
        "stealing_seconds": round(stolen_s, 2),
        "wall_clock_speedup": round(speedup, 2),
        "leases": len(stolen.lease_log),
        "steals": stolen.steals,
        "reclaims": stolen.reclaims,
        "deadline_truncated": {"static": static_cut,
                               "stealing": stolen_cut},
    })

    report = BenchReport(
        f"Work-stealing wall clock ({workers} process workers)")
    report.add(f"static      {static_s:6.2f}s")
    report.add(f"stealing    {stolen_s:6.2f}s  "
               f"({len(stolen.lease_log)} leases, {stolen.steals} "
               f"steals, {stolen.reclaims} reclaims)")
    report.add(f"ratio       {speedup:6.2f}x"
               + ("  [deadline truncated]" if truncated else ""))
    report.emit(capsys)

    assert static.engine_stats.iterations == BUDGET
    assert stolen.engine_stats.iterations == BUDGET
    assert sum(r.size for r in stolen.lease_log) == BUDGET
    if BUDGET >= DEFAULT_BUDGET and not truncated:
        # Stealing must not cost meaningful wall clock on even load.
        assert stolen_s <= 1.5 * static_s


@pytest.mark.benchmark(group="perf-throughput")
def test_virgin_merge_fast_path(capsys):
    """`merge_from` with nothing to contribute must be near-free."""
    rounds = max(50, BUDGET)
    populated = VirginMap()
    run = CoverageBitmap()
    for i in range(3000):
        run.record_edge(i * 5, i * 5 + 1)
    populated.has_new_bits(run)
    empty = VirginMap()

    start = time.perf_counter()
    for _ in range(rounds):
        assert not populated.merge_from(empty)
    skip_s = time.perf_counter() - start

    # Forced full merges: payload differs every round, no early-out.
    # (Built outside the timed region so only merge_from is measured.)
    contributors = []
    for i in range(rounds):
        fresh = VirginMap()
        probe = CoverageBitmap()
        probe.record_edge(i, i + 1)
        fresh.has_new_bits(probe)
        contributors.append(fresh)
    start = time.perf_counter()
    for fresh in contributors:
        populated.merge_from(fresh)
    full_s = time.perf_counter() - start

    _update_json("bitmap", {
        "merge_rounds": rounds,
        "merge_skip_seconds": round(skip_s, 4),
        "merge_full_seconds": round(full_s, 4),
        "skip_speedup": round(full_s / max(skip_s, 1e-9), 1),
    })

    report = BenchReport("VirginMap.merge_from fast path")
    report.add(f"no-change skip  {1e6 * skip_s / rounds:8.1f} us/merge")
    report.add(f"full merge      {1e6 * full_s / rounds:8.1f} us/merge")
    report.add(f"speedup         {full_s / max(skip_s, 1e-9):8.1f}x")
    report.emit(capsys)

    assert full_s > skip_s
