"""The fuzzer's benchmark: one workload per call, metrics as JSON.

    python3 perfbench/run.py --workload kvm-intel-steady --seed 1 \\
        --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/repro``. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it carries run provenance and detail (``{"perfbench": ...}``); the same
record is written to ``.perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from tracing import Probe, clock  # noqa: E402
from workloads import (  # noqa: E402
    HUNT_BY_NAME,
    NOMINAL_SECONDS,
    REPEATS,
    WORKLOADS,
    plan,
    run_pass,
)

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5


class SetupSampler:
    """Times ``SETUP_PROBES`` set-ups, each in a fresh interpreter.

    A probe's time is the CPU time of its process (user plus system,
    interpreter start included), so time the core spends on other work
    does not count. The probes are spread over the pass (called before
    unit runs) and bracketed by calibrations, so a slow spell of the
    machine touches at most one or two of them and is scaled out of
    those. One uncounted warm-up probe first fills the bytecode cache.
    """

    def __init__(self, workload: str, slots: int) -> None:
        self.command = [sys.executable, str(HERE / "setup_probe.py"), workload]
        self.at = {round(i * slots / SETUP_PROBES) for i in range(SETUP_PROBES)}
        self.calls = 0
        #: (clock stamp, CPU seconds) of each timed probe.
        self.samples: list[tuple[float, float]] = []
        self._run()

    def _run(self) -> None:
        # No timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run(self.command, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)

    def _probe(self, probe: Probe) -> None:
        probe.calibrate()
        before = children_cpu_s()
        self._run()
        self.samples.append((clock(), children_cpu_s() - before))
        probe.calibrate()

    def __call__(self, probe: Probe) -> None:
        if self.calls in self.at:
            self._probe(probe)
        self.calls += 1

    def finish(self, probe: Probe) -> list[float]:
        """Seconds of every probe at reference speed."""
        while len(self.samples) < SETUP_PROBES:
            self._probe(probe)
        normalizer = probe.normalizer()
        return [normalizer.factor_at(stamp) * seconds
                for stamp, seconds in self.samples]


def children_cpu_s() -> float:
    """CPU seconds of every child process that has been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, round(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def bug_metrics(result) -> dict:
    """Seconds and cases to each expected bug, misses charged in full."""
    iterations = sum(b.iterations if b.iterations is not None
                     else HUNT_BY_NAME[b.hunt].budget for b in result.bugs)
    found = sum(b.iterations is not None for b in result.bugs)
    seconds = sum(b.seconds for b in result.bugs)
    return {"time_to_bugs_s": seconds, "iters_to_bugs": iterations,
            "bugs_found": found / len(result.bugs)}


def end_to_end(result, setup: list[float]) -> dict:
    ordered = sorted(result.durations)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "cases_per_s": (result.cases / result.wall_s, "cases/s"),
        "case_ms_p50": (1e3 * percentile(ordered, 0.50), "ms"),
        "case_ms_p99": (1e3 * percentile(ordered, 0.99), "ms"),
        "coverage_pct": (statistics.fmean(result.coverage), "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    units = {"time_to_bugs_s": "s", "iters_to_bugs": "cases",
             "bugs_found": "fraction"}
    for name, value in bug_metrics(result).items():
        values[name] = (value, units[name])
    return values


def per_layer(result, traced, probe: Probe, table: dict) -> dict:
    """The per-layer split of the traced pass (see README.md)."""
    cases = max(1, table.get("agent.run_case", {}).get("calls", 0))
    counts = probe.counts

    def total_us(*names):
        return 1e6 * sum(table.get(n, {}).get("total_s", 0.0) for n in names) / cases

    def self_us(*names):
        return 1e6 * sum(table.get(n, {}).get("self_s", 0.0) for n in names) / cases

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    hits = traced.counters.get("perf.memo_hits", 0)
    misses = traced.counters.get("perf.memo_misses", 0)
    builds = calls("agent.generator_build")
    sync = result.sync
    values = {
        "fuzzer.input_us": (total_us("fuzzer.input"), "us"),
        "fuzzer.fold_us": (total_us("fuzzer.fold.virgin", "fuzzer.fold.queue"), "us"),
        "fuzzer.find_rate": (calls("fuzzer.fold.queue") / cases, "1/case"),
        "fuzzer.case_error_rate": (ratio(result.case_exceptions, result.cases),
                                   "fraction"),
        "agent.configure_us": (total_us("agent.configure"), "us"),
        "agent.generator_builds": (builds, "count"),
        "agent.generator_hit_rate": (1 - ratio(builds, calls("agent.generator_lookup")),
                                     "fraction"),
        "agent.generator_build_us": (total_us("agent.generator_build"), "us"),
        "stategen.generate_us": (self_us("stategen.generate"), "us"),
        "validator.round_us": (total_us("validator.round"), "us"),
        "validator.oracle_us": (total_us("validator.oracle"), "us"),
        "validator.corrections_per_case": (counts["validator.corrections"] / cases,
                                           "1/case"),
        "validator.oracle_entered_frac": (
            ratio(counts["validator.oracle_entered"], counts["validator.oracle_runs"]),
            "fraction"),
        "perf.memo_hit_rate": (ratio(hits, hits + misses), "fraction"),
        "harness.init_us": (self_us("harness.init"), "us"),
        "harness.vmwrite_us": (total_us("harness.vmwrite_storm"), "us"),
        "harness.vmwrites_per_case": (counts["harness.vmwrites"] / cases, "1/case"),
        "harness.runtime_us": (total_us("harness.runtime"), "us"),
        "harness.instructions_per_case": (counts["harness.instructions"] / cases,
                                          "1/case"),
        "harness.l2_entry_frac": (calls("harness.runtime") / cases, "fraction"),
        "hypervisors.build_us": (total_us("hypervisors.build"), "us"),
        "hypervisors.execute_us": (self_us("hypervisors.execute",
                                           "hypervisors.execute.entry"), "us"),
        "hypervisors.entry_us": (total_us("hypervisors.execute.entry"), "us"),
        "cpu.entry_us": (total_us("cpu.entry"), "us"),
        "cpu.entry_fail_frac": (ratio(counts["cpu.entry_failures"], counts["cpu.entries"]),
                                "fraction"),
        "coverage.drain_us": (total_us("coverage.drain"), "us"),
        "coverage.bitmap_us": (total_us("coverage.bitmap"), "us"),
        "coverage.edges_per_case": (counts["coverage.edges"] / cases, "1/case"),
        "detectors.scan_us": (total_us("detectors.scan"), "us"),
        "parallel.export_s": (sync.get("export_seconds", 0.0), "s"),
        "parallel.scan_s": (sync.get("scan_seconds", 0.0), "s"),
        "parallel.filter_s": (sync.get("filter_seconds", 0.0), "s"),
        "parallel.import_exec_s": (sync.get("execute_seconds", 0.0), "s"),
        "parallel.imports": (sync.get("imports", 0), "count"),
        "parallel.import_skip_frac": (ratio(sync.get("imports_subsumed", 0),
                                            sync.get("imports", 0)), "fraction"),
        "parallel.delta_rejects": (result.counters.get("sync.delta_rejects", 0),
                                   "count"),
        "tracing.overhead_frac": (
            (traced.wall_s / traced.cases) / (result.wall_s / result.cases) - 1,
            "fraction"),
        "tracing.spans_per_case": (len(probe.starts) / cases, "1/case"),
    }
    return values


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              text=True, capture_output=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def pin_to_current_cpu() -> None:
    """Keep the run and its set-up probes on the CPU it started on:
    calibrations then time the core the work runs on, and nothing
    migrates mid-measurement. Best effort; unpinned where not allowed."""
    try:
        stat = Path("/proc/self/stat").read_text()
        cpu = int(stat.rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        pass


def timed_pass(workload: str, seed: int, scale: float, traced: bool,
               before_unit=None):
    probe = Probe(traced)
    probe.install()
    try:
        result = run_pass(workload, seed, scale, probe,
                          OUT / f"sync-{os.getpid()}", before_unit)
    finally:
        probe.uninstall()
    return result, probe


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no fuzzer sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_current_cpu()
    scale = args.seconds / NOMINAL_SECONDS
    workload = WORKLOADS[args.workload]

    sampler = None
    if not args.trace:
        units, _ = plan(args.workload, args.seed, scale)
        sampler = SetupSampler(args.workload, REPEATS * len(units))
    result, clock = timed_pass(args.workload, args.seed, scale,
                               traced=False, before_unit=sampler)
    errors = list(result.errors)
    detail: dict = {}
    if args.trace:
        traced, probe = timed_pass(args.workload, args.seed, scale, traced=True)
        errors += traced.errors
        if traced.deterministic() != result.deterministic():
            errors.append("the traced pass diverged from the untraced pass")
        table = probe.span_table()
        probe.write(OUT / "traces" / f"{args.workload}.spans")
        cases = max(1, table.get("agent.run_case", {}).get("calls", 0))
        detail["span_us_per_case"] = {
            name: {"calls": row["calls"],
                   "self": round(1e6 * row["self_s"] / cases, 3),
                   "total": round(1e6 * row["total_s"] / cases, 3)}
            for name, row in sorted(table.items(),
                                    key=lambda kv: -kv[1]["self_s"])}
        metrics = per_layer(result, traced, probe, table)
    else:
        setup = sampler.finish(clock)
        metrics = end_to_end(result, setup)
        detail["setup_s"] = setup
        loops = sorted(b - a for a, b in zip(clock.cal_starts, clock.cal_ends))
        detail["calibration_ms"] = {
            "loops": len(loops), "min": 1e3 * loops[0],
            "median": 1e3 * statistics.median(loops), "max": 1e3 * loops[-1]}

    smoke = args.seconds < NOMINAL_SECONDS
    held_out = args.seed == workload.held_out_seed
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": smoke, "held_out": held_out,
        "baseline_eligible": not (smoke or held_out),
        "budget": result.budget, "cases": result.cases,
        "case_samples": len(result.durations),
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "git_revision": git_revision(), "src_sha256": src_digest(),
        "coverage_pct": result.coverage, "line_digests": result.digests,
        "bugs": [{key: getattr(b, key) for key in
                  ("hunt", "seed", "signature", "iterations", "channel", "seconds")}
                 for b in result.bugs],
        "errors": errors,
    })
    report = {
        "correct": not errors,
        "attempted": result.cases,
        "failed": result.case_exceptions,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"perfbench": detail, "result": report},
                                 indent=1, sort_keys=True) + "\n")
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
