"""The four benchmark workloads and the campaigns they drive.

A workload is a list of *units* — serial campaigns, parallel campaigns
or Table 6 hunts — driven through the public campaign APIs
(``NecoFuzz.run`` and ``ParallelCampaign.run``). A pass runs the whole
list ``REPEATS`` times, interleaved, and keeps each unit's faster run:
every unit is deterministic per seed, so its runs do identical work and
differ only by interference from other tenants of the machine, which
only ever adds time. ``run.py`` turns the pass into metrics.

Work is fixed, not timed: budgets are sized so a pass takes about
``NOMINAL_SECONDS`` on a 2-CPU x86-64 container, and scale linearly
with ``--seconds``. Coverage, iteration counts and bug finds are
therefore deterministic per seed; only times vary between runs.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from tracing import clock

#: Seconds one pass of any workload takes at scale 1.0 on the reference
#: container. ``--seconds`` divided by this is the budget scale.
NOMINAL_SECONDS = 20

#: Runs of every unit per pass; the faster one counts.
REPEATS = 2
#: Runs of the known-bug canary per pass, spread over it; each bug
#: keeps its median time.
CANARY_RUNS = 5

#: Table 6 of the paper: report signature -> (bug id, detection channel).
TABLE6 = {
    "UBSAN@nested_vmx.load_pdptrs": ("#1", "UBSAN"),
    "VM Crash@virtualbox": ("#2", "VM Crash"),
    "Assertion@nested_ept_load_root": ("#3", "Assertion"),
    "Assertion@nested_svm_load_ncr3": ("#3", "Assertion"),
    "Host Crash@xen": ("#4", "Host Crash"),
    "Assertion@nsvm_vmexit_handler": ("#5", "Assertion"),
    "Assertion@nsvm_vcpu_vmexit_inject": ("#6", "Assertion"),
}


@dataclass(frozen=True)
class Hunt:
    """One Table 6 hunt: a target, its expected bugs and its seed pools.

    ``seeds`` were picked because each finds every expected bug within a
    few hundred cases, so the hunt set stays short and its per-run sum
    steady. The set is fixed: one hunt seeded from the benchmark seed per
    target found its bug after anywhere from 1 to 534 cases, which spread
    ``iters_to_bugs`` by half its bound over ten benchmark seeds.
    ``held_out`` seeds run only under the workload's held-out benchmark
    seed.
    """

    name: str
    hypervisor: str
    vendor: str
    expected: tuple[str, ...]
    budget: int
    seeds: tuple[int, ...]
    held_out: tuple[int, ...]


HUNTS = (
    Hunt("kvm-intel", "kvm", "intel",
         ("UBSAN@nested_vmx.load_pdptrs", "Assertion@nested_ept_load_root"),
         1500, (22, 30, 38, 23), (21, 31, 28)),
    Hunt("kvm-amd", "kvm", "amd", ("Assertion@nested_svm_load_ncr3",),
         600, (3, 4, 7), (14, 17, 19)),
    Hunt("xen-intel", "xen", "intel", ("Host Crash@xen",),
         600, (1, 2, 4), (14, 16, 19)),
    Hunt("xen-amd", "xen", "amd",
         ("Assertion@nsvm_vmexit_handler", "Assertion@nsvm_vcpu_vmexit_inject"),
         600, (1, 2, 7), (15, 16, 17)),
    Hunt("vbox", "virtualbox", "intel", ("VM Crash@virtualbox",),
         600, (8, 13, 16), (4, 6, 14)),
)
HUNT_BY_NAME = {hunt.name: hunt for hunt in HUNTS}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Steady and sync workloads run one campaign per seed of ``pool``,
    ``cases`` cases each at scale 1.0, in an order the benchmark seed
    sets. The pool is fixed because the case mix moves with the campaign
    seed: one campaign's cases/s depends on its seed by about ±15 %.
    kvm/amd case times are bimodal (cases that never reach L2 take a
    quarter of the time of those that do), and the share of short cases
    runs from 0.2 to 0.6 by seed. With a share near one half the median
    lands in the sparse gap between the modes, where it moved by 24 %
    between two sets of runs of the same code; the kvm/amd pools hold
    seeds whose share is about 0.2 to 0.3, so the median lies well
    inside the upper mode.

    ``canary`` names a hunt and the seeds whose cold hunts give non-hunt
    workloads their seconds-to-bug figures (about 0.6 s of hunting either
    way). ``workers > 0`` selects an inline ``ParallelCampaign``.
    """

    name: str
    hypervisor: str = "kvm"
    vendor: str = "intel"
    pool: tuple[int, ...] = ()
    held_out_pool: tuple[int, ...] = ()
    cases: int = 0
    canary: tuple[str, tuple[int, ...]] | None = None
    workers: int = 0
    sync_every: int = 0
    #: Benchmark seed kept out of every baseline (re-check seed).
    held_out_seed: int = 0


WORKLOADS = {
    "kvm-intel-steady": Workload(
        "kvm-intel-steady", "kvm", "intel", pool=(7, 11, 19, 29),
        held_out_pool=(41, 43, 47, 53), cases=350,
        canary=("kvm-intel", (22,)), held_out_seed=90001),
    "kvm-amd-steady": Workload(
        "kvm-amd-steady", "kvm", "amd", pool=(7, 26, 33, 34),
        held_out_pool=(32, 36, 35, 9), cases=600,
        canary=("kvm-amd", (4, 9, 17)), held_out_seed=90002),
    "bug-hunt": Workload("bug-hunt", held_out_seed=90003),
    "sync-2w": Workload(
        "sync-2w", "kvm", "intel", pool=(7, 11, 19), held_out_pool=(41, 43, 47),
        cases=400, canary=("kvm-intel", (22,)), workers=2, sync_every=25,
        held_out_seed=90004),
}


def vendor_of(name: str):
    from repro import Vendor

    return Vendor.INTEL if name == "intel" else Vendor.AMD


def _src_dir() -> Path:
    return Path(__file__).resolve().parent.parent / "src"


def line_digest(lines) -> str:
    """Digest of a covered-line set, independent of the checkout path."""
    src = _src_dir()
    h = hashlib.sha256()
    for name, line in sorted((os.path.relpath(f, src), n) for f, n in lines):
        h.update(f"{name}:{line}\n".encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Unit:
    """One campaign of a pass."""

    kind: str  # "campaign", "parallel" or "hunt"
    seed: int
    hunt: Hunt | None = None

    @property
    def label(self) -> str:
        return f"{self.hunt.name if self.hunt else self.kind}:{self.seed}"


@dataclass
class BugFind:
    """One expected (hunt, seed, bug) and when it was found.

    ``started`` and ``found_at`` are raw clock stamps (``found_at`` is
    the hunt's end for a miss); ``seconds`` is their reference-speed
    distance, filled in once the pass is over.
    """

    hunt: str
    seed: int
    signature: str
    iterations: int | None
    channel: str | None
    started: float
    found_at: float
    seconds: float = 0.0


@dataclass
class UnitRun:
    """What one run of one unit measured.

    ``started``/``finished`` and the per-case ``ends`` are raw clock
    stamps; ``wall_s`` and ``durations`` are reference-speed seconds,
    filled in by :func:`_normalize` once the pass is over.
    """

    started: float = 0.0
    finished: float = 0.0
    ends: list[float] = field(default_factory=list)
    raw_durations: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    cases: int = 0
    case_exceptions: int = 0
    coverage: float = 0.0
    digest: str = ""
    #: Per-case step seconds, in case order.
    durations: list[float] = field(default_factory=list)
    bugs: list[BugFind] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: ``SyncStats`` fields and import counts (parallel units).
    sync: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def deterministic(self) -> tuple:
        return (self.cases, self.coverage, self.digest,
                tuple((b.signature, b.iterations, b.channel) for b in self.bugs))


@dataclass
class PassResult:
    """One pass of a workload: each unit's fastest times, combined."""

    cases: int = 0
    wall_s: float = 0.0
    case_exceptions: int = 0
    durations: list[float] = field(default_factory=list)
    coverage: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    bugs: list[BugFind] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    sync: dict = field(default_factory=dict)
    #: Program telemetry counters over every run of the pass.
    counters: dict = field(default_factory=dict)
    budget: dict = field(default_factory=dict)

    def deterministic(self) -> tuple:
        """Everything a pass must reproduce exactly, seed for seed."""
        return (self.cases, tuple(self.coverage), tuple(self.digests),
                tuple((b.hunt, b.seed, b.signature, b.iterations, b.channel)
                      for b in self.bugs))


def _sum_into(total: dict, counters: dict) -> None:
    for name, value in counters.items():
        total[name] = total.get(name, 0) + value


def _add_counters(total: dict, snapshot: dict | None) -> None:
    """Sum a telemetry snapshot's counters over its shards into *total*."""
    for shard in (snapshot or {}).get("shards", {}).values():
        _sum_into(total, shard.get("counters", {}))


def _check_outcome(run: UnitRun, outcome, budget: int | None) -> None:
    """Output checks every campaign result must pass."""
    stats = outcome.engine_stats
    if budget is not None and stats.iterations != budget:
        run.errors.append(f"campaign ran {stats.iterations} of {budget} cases")
    if not outcome.covered_lines <= outcome.instrumented_lines:
        run.errors.append("covered lines outside the instrumented universe")
    if not 0.0 < outcome.coverage_percent <= 100.0:
        run.errors.append(f"coverage {outcome.coverage_percent} out of range")
    for report in outcome.reports:
        signature = report.anomaly.signature()
        channel = report.anomaly.method.value
        if signature in TABLE6 and TABLE6[signature][1] != channel:
            run.errors.append(f"{signature} reported through {channel}, "
                              f"Table 6 says {TABLE6[signature][1]}")
    run.cases += stats.iterations
    run.case_exceptions += stats.case_exceptions
    run.coverage = outcome.coverage_percent
    run.digest = line_digest(outcome.covered_lines)


# --- units -----------------------------------------------------------------


def run_hunt(hunt: Hunt, seed: int, probe, run: UnitRun) -> None:
    """One cold Table 6 hunt: a fresh campaign stepped until every
    expected bug is reported or the budget runs out.

    The campaign runs through ``NecoFuzz.run`` ten cases at a time; a
    bug's time is read from the step clock at the exact case that
    reported it, so chunking does not blur it. A miss is charged the
    hunt's whole time.
    """
    from repro import NecoFuzz

    chunk = 10
    first_step = len(probe.ends)
    started = clock()
    campaign = NecoFuzz(hypervisor=hunt.hypervisor,
                        vendor=vendor_of(hunt.vendor), seed=seed)
    expected = set(hunt.expected)
    while True:
        outcome = campaign.run(
            min(chunk, hunt.budget - campaign.engine.stats.iterations),
            sample_every=chunk)
        if (expected <= campaign.agent.reports.unique_locations()
                or campaign.engine.stats.iterations >= hunt.budget):
            break
    finished = clock()
    _check_outcome(run, outcome, None)
    found = {r.anomaly.signature(): r for r in outcome.reports}
    for signature in hunt.expected:
        report = found.get(signature)
        if report is None:
            run.bugs.append(BugFind(hunt.name, seed, signature, None, None,
                                    started, finished))
        else:
            run.bugs.append(BugFind(
                hunt.name, seed, signature, report.iteration,
                report.anomaly.method.value, started,
                probe.ends[first_step + report.iteration - 1]))


def run_campaign(workload: Workload, seed: int, budget: int, run: UnitRun) -> None:
    from repro import NecoFuzz

    campaign = NecoFuzz(hypervisor=workload.hypervisor,
                        vendor=vendor_of(workload.vendor), seed=seed)
    _check_outcome(run, campaign.run(budget, sample_every=budget), budget)


SYNC_FIELDS = ("export_seconds", "scan_seconds", "filter_seconds",
               "execute_seconds", "import_rounds", "batches_delta_rejected")


def run_parallel(workload: Workload, seed: int, budget: int, scratch: Path,
                 run: UnitRun) -> None:
    from repro.parallel import ParallelCampaign

    shutil.rmtree(scratch, ignore_errors=True)
    try:
        outcome = ParallelCampaign(
            hypervisor=workload.hypervisor, vendor=vendor_of(workload.vendor),
            seed=seed, workers=workload.workers,
            sync_every=workload.sync_every, mode="inline",
            sync_dir=scratch).run(budget, sample_every=budget)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    _check_outcome(run, outcome, budget)
    run.sync = {name: getattr(outcome.sync_overhead, name) for name in SYNC_FIELDS}
    run.sync["imports"] = outcome.engine_stats.imported
    run.sync["imports_subsumed"] = outcome.engine_stats.imports_skipped_subsumed
    _add_counters(run.counters, outcome.telemetry)
    if not (run.sync["import_rounds"] and run.sync["imports"]):
        run.errors.append("no sync round imported a partner entry")


def run_unit(unit: Unit, workload: Workload, budget: int, probe,
             scratch: Path) -> UnitRun:
    run = UnitRun()
    probe.calibrate()
    first_case = len(probe.durations)
    run.started = clock()
    if unit.kind == "hunt":
        run_hunt(unit.hunt, unit.seed, probe, run)
    elif unit.kind == "parallel":
        run_parallel(workload, unit.seed, budget, scratch, run)
    else:
        run_campaign(workload, unit.seed, budget, run)
    run.finished = clock()
    run.raw_durations = list(probe.durations[first_case:])
    run.ends = list(probe.ends[first_case:])
    return run


def _normalize(run: UnitRun, normalizer) -> None:
    """Turn a run's raw stamps into reference-speed seconds."""
    run.wall_s = normalizer.span(run.started, run.finished)
    run.durations = [normalizer.span(end - duration, end)
                     for duration, end in zip(run.raw_durations, run.ends)]
    for bug in run.bugs:
        bug.seconds = normalizer.span(bug.started, bug.found_at)


# --- passes ------------------------------------------------------------------


def plan(name: str, seed: int, scale: float) -> tuple[list[Unit], int]:
    """The units of one pass and the per-campaign case budget.

    The benchmark seed sets the order the units run in. Below scale 1.0 ``bug-hunt`` runs a prefix of each pool; the
    other workloads shrink their campaigns.
    """
    workload = WORKLOADS[name]
    held_out = seed == workload.held_out_seed
    units: list[Unit] = []
    if name == "bug-hunt":
        for hunt in HUNTS:
            pool = hunt.held_out if held_out else hunt.seeds
            count = max(1, min(len(pool), round(len(pool) * scale)))
            units += [Unit("hunt", s, hunt) for s in pool[:count]]
        budget = 0
    else:
        kind = "parallel" if workload.workers else "campaign"
        pool = workload.held_out_pool if held_out else workload.pool
        units = [Unit(kind, s) for s in pool]
        budget = max(20, round(workload.cases * scale))
    random.Random(seed).shuffle(units)
    return units, budget


def run_canary(workload: Workload, probe) -> UnitRun:
    """One run of the known-bug canary: cold hunts of the workload's own
    target at pinned seeds. Its cases and spans are dropped from the
    probe so they count toward no other metric."""
    name, seeds = workload.canary
    run = UnitRun()
    probe.calibrate()
    mark = probe.mark()
    for seed in seeds:
        run_hunt(HUNT_BY_NAME[name], seed, probe, run)
    probe.rewind(mark)
    return run


def run_pass(name: str, seed: int, scale: float, probe, scratch: Path,
             before_unit=None) -> PassResult:
    """One pass of workload *name* with *probe* installed.

    *before_unit* is called with the probe before every unit run (the
    set-up sampler uses it to spread its probes over the pass).
    """
    from repro import telemetry

    workload = WORKLOADS[name]
    units, budget = plan(name, seed, scale)
    runs: list[list[UnitRun]] = [[] for _ in units]
    canaries: list[UnitRun] = []
    slots = REPEATS * len(units)
    canary_at = ({round(i * slots / CANARY_RUNS) for i in range(CANARY_RUNS)}
                 if workload.canary else set())
    result = PassResult()
    with telemetry.campaign_scope("metrics", None):
        for slot in range(slots):
            if slot in canary_at:
                canaries.append(run_canary(workload, probe))
            if before_unit is not None:
                before_unit(probe)
            index = slot % len(units)
            runs[index].append(run_unit(units[index], workload, budget,
                                        probe, scratch))
        _add_counters(result.counters, telemetry.snapshot())
    probe.calibrate()
    normalizer = probe.normalizer()
    for run in canaries + [run for unit_runs in runs for run in unit_runs]:
        _normalize(run, normalizer)

    result.budget = {"units": [unit.label for unit in units],
                     "cases_per_campaign": budget or None,
                     "repeats": REPEATS}
    for unit, unit_runs in zip(units, runs):
        if len({run.deterministic() for run in unit_runs}) > 1:
            result.errors.append(f"{unit.label} did not reproduce itself")
        best = min(unit_runs, key=lambda run: run.wall_s)
        result.cases += best.cases
        result.case_exceptions += best.case_exceptions
        # The runs did identical work case for case: keep each case's,
        # each bug's and the rest of the unit's (construction, campaign
        # bookkeeping) fastest time.
        durations = [min(times) for times in
                     zip(*(run.durations for run in unit_runs))]
        result.durations += durations
        result.wall_s += sum(durations) + min(
            run.wall_s - sum(run.durations) for run in unit_runs)
        for bugs in zip(*(run.bugs for run in unit_runs)):
            bugs[0].seconds = min(bug.seconds for bug in bugs)
            result.bugs.append(bugs[0])
        result.coverage.append(best.coverage)
        result.digests.append(best.digest)
        _sum_into(result.sync, best.sync)
        for run in unit_runs:
            result.errors += run.errors
            _sum_into(result.counters, run.counters)
    if canaries:
        if len({run.deterministic() for run in canaries}) > 1:
            result.errors.append("the canary hunt did not reproduce itself")
        # Each bug keeps the median of its times over the runs, not the
        # fastest: the first run is cold, and a short hunt's calibrated
        # time errs either way by about 5 %, so the fastest run is the
        # one whose calibration erred lowest.
        for bugs in zip(*(run.bugs for run in canaries)):
            bugs[0].seconds = statistics.median(bug.seconds for bug in bugs)
        result.bugs = canaries[0].bugs
        for run in canaries:
            result.errors += run.errors
    return result
