"""The parallel campaign orchestrator.

``ParallelCampaign`` shards one iteration budget across N workers and
merges their results. Every campaign runs on a lease board
(:mod:`repro.parallel.scheduler`) whose leases are one sync round
(``sync_every`` cases) each; the schedule only decides whether each
worker has a pool of its own (static) or all share one (stealing). Two
execution modes share all of the sharding, sync, and merge machinery:

* ``mode="inline"`` runs the workers round-robin in this process —
  fully deterministic under either schedule (lease sizes, lease order
  and sync order are fixed), the mode the determinism tests and
  single-core CI use;
* ``mode="process"`` forks one OS process per worker for real
  parallelism; workers sync through the filesystem at their own pace,
  so merged trajectories are only reproducible in the aggregate
  (superset semantics), exactly like AFL++ primary/secondary instances.

In both modes each worker's report carries its full virgin map and the
merge ORs them into :attr:`ParallelCampaignResult.virgin`; a report
without a full map fails the merge instead of dropping that worker's
bits.

The determinism contract: with ``workers=1`` the (single) worker uses
the campaign seed verbatim, never imports anything, and reproduces the
serial ``NecoFuzz.run`` result bit for bit. With N workers the merged
covered-line set is a superset-style union — not bit-for-bit comparable
to any serial run, but measured over the same instrumented universe.

Resilience (off by default, see DESIGN.md §9): inline mode restores a
killed worker from an in-memory snapshot and replays its lease, process
mode delegates to :class:`repro.parallel.supervisor.Supervisor`, and
``checkpoint_interval``/``resume`` give interrupted inline campaigns a
bit-for-bit continuation from the last round boundary.
"""

from __future__ import annotations

import logging
import pickle
import tempfile
from dataclasses import astuple, dataclass, field
from pathlib import Path

from repro import faults, telemetry
from repro.analysis.timeline import CoverageTimeline
from repro.arch.cpuid import Vendor
from repro.core.executor import ComponentToggles
from repro.core.necofuzz import CampaignResult
from repro.coverage.bitmap import VirginMap
from repro.fuzzer.crashes import atomic_write_bytes
from repro.fuzzer.engine import EngineStats
from repro.parallel.scheduler import (
    SCHEDULES,
    FileLeaseBoard,
    LeaseBoard,
    LeaseRecord,
    split_budget,
)
from repro.parallel.supervisor import (
    CampaignAborted,
    FailureKind,
    Supervisor,
    SupervisorConfig,
    SupervisorEvent,
)
from repro.parallel.sync import SyncDirectory, SyncStats
from repro.parallel.worker import (
    CampaignWorker,
    WorkerReport,
    WorkerSpec,
    worker_seed,
)

log = logging.getLogger("repro.parallel")


@dataclass
class ParallelCampaignResult(CampaignResult):
    """A merged campaign result plus the per-worker breakdown."""

    #: Workers that ran, which can be fewer than requested: shards with
    #: no cases are never spawned, and stealing caps the count at the
    #: number of leases the budget divides into.
    workers: int
    per_worker: list[CampaignResult]
    #: OR-merge of every worker's virgin map: the campaign-global
    #: "behaviour already seen" map.
    virgin: VirginMap
    #: Per-worker final-corpus digests, in shard order — the corpus
    #: half of :func:`repro.resilience.campaign_fingerprint`.
    corpus_digests: list[str] = field(default_factory=list)
    #: Every failure the runtime observed and what it did about it.
    events: list[SupervisorEvent] = field(default_factory=list)
    #: Cases that overran the per-case deadline, summed across workers.
    deadline_overruns: int = 0
    #: Per-phase sync wall-clock, summed across workers (where the
    #: parallel overhead actually goes; exported to the bench JSON).
    sync_overhead: SyncStats = field(default_factory=SyncStats)
    #: Merged telemetry snapshot (campaign scope + every worker), the
    #: same payload ``<root>/metrics.json`` persists. ``None`` when the
    #: campaign ran with ``telemetry_mode="off"``.
    telemetry: dict | None = None
    #: Which scheduler ran the campaign: "static" or "stealing".
    schedule: str = "static"
    #: Completion-ordered lease ledger, one record per sync round a
    #: worker ran.
    lease_log: list[LeaseRecord] = field(default_factory=list)
    #: Leases claimed beyond a worker's static fair share (or re-issued
    #: after a reclaim) — the work the stealing schedule actually moved.
    steals: int = 0
    #: Leases taken back from dead or retired workers and re-issued.
    reclaims: int = 0

    def summary(self) -> str:
        text = (super().summary()
                + f", {self.workers} worker(s), "
                  f"{self.engine_stats.imported} synced import(s)")
        skipped = self.engine_stats.imports_skipped_subsumed
        if skipped:
            text += f" ({skipped} subsumed, not re-executed)"
        if self.schedule == "stealing":
            text += (f", {len(self.lease_log)} lease(s) "
                     f"({self.steals} stolen, {self.reclaims} reclaimed)")
        if self.events:
            restarted = sum(1 for e in self.events if e.action == "restart")
            text += (f", {len(self.events)} fault event(s) "
                     f"({restarted} restart(s))")
        return text


def _merge_stats(stats: list[EngineStats]) -> EngineStats:
    return EngineStats(
        iterations=sum(s.iterations for s in stats),
        queue_adds=sum(s.queue_adds for s in stats),
        crashes=sum(s.crashes for s in stats),
        anomalies=sum(s.anomalies for s in stats),
        last_find=max((s.last_find for s in stats), default=0),
        imported=sum(s.imported for s in stats),
        case_exceptions=sum(s.case_exceptions for s in stats),
        import_skipped=sum(s.import_skipped for s in stats),
        imports_skipped_subsumed=sum(s.imports_skipped_subsumed
                                     for s in stats))


def _merge_virgin(reports: list[WorkerReport]) -> VirginMap:
    """OR every worker's virgin map together.

    Every report must carry its full ``MAP_SIZE``-byte map: one that
    does not raises :class:`ValueError` rather than silently leaving
    its worker's bits out of the merge.
    """
    merged = VirginMap()
    for report in reports:
        merged.merge_bits(report.virgin_bits)
    return merged


def _merge_sync_overhead(reports: list[WorkerReport]) -> SyncStats:
    merged = SyncStats()
    for report in reports:
        if report.sync_stats is not None:
            merged = merged.merged_with(report.sync_stats)
    return merged


def _merge_timeline(reports: list[WorkerReport], instrumented_total: int,
                    label: str, iterations_per_hour: float) -> CoverageTimeline:
    """Union coverage over a lockstep global-iteration axis.

    At local sample iteration ``i`` the campaign as a whole has executed
    ``sum(min(i, share_w))`` cases (workers advance round-robin), and
    covers the union of every worker's lines up to ``i`` — monotone and
    deterministic given the workers' sample deltas.
    """
    merged = CoverageTimeline(label, iterations_per_hour)
    if not instrumented_total:
        return merged
    grid = sorted({i for report in reports for i, _ in report.samples})
    union: set = set()
    positions = {report.index: 0 for report in reports}
    for sample_iter in grid:
        for report in reports:
            pos = positions[report.index]
            samples = report.samples
            while pos < len(samples) and samples[pos][0] <= sample_iter:
                union |= samples[pos][1]
                pos += 1
            positions[report.index] = pos
        global_iter = sum(min(sample_iter, report.share) for report in reports)
        merged.record(global_iter, len(union) / instrumented_total)
    return merged


@dataclass
class ParallelCampaign:
    """One logical campaign sharded across N workers."""

    hypervisor: str = "kvm"
    vendor: Vendor = Vendor.INTEL
    seed: int = 1
    workers: int = 1
    #: Iterations each worker runs between corpus-sync points.
    sync_every: int = 100
    mode: str = "inline"  # "inline" (deterministic) or "process" (forked)
    #: Sync-directory root; a temporary directory when None.
    sync_dir: Path | None = None
    toggles: ComponentToggles = field(default_factory=ComponentToggles)
    coverage_guided: bool = True
    patched: frozenset = frozenset()
    runtime_iterations: int = 24
    async_events: bool = False
    iterations_per_hour: float = 10.0
    # --- resilience ---------------------------------------------------
    #: Per-case wall-clock deadline. Enforced by the supervisor in
    #: process mode (a stale heartbeat gets the worker killed and
    #: restarted); bookkeeping-only in inline mode.
    case_timeout: float | None = None
    #: Consecutive failures per shard before the circuit breaker opens.
    max_restarts: int = 3
    #: Sync rounds between campaign checkpoints in inline mode
    #: (0 disables). Process-mode workers checkpoint every round
    #: regardless — their snapshots live under the sync root.
    checkpoint_interval: int = 0
    #: Continue an interrupted campaign from its checkpoints. Requires
    #: a persistent ``sync_dir``. Inline resume is bit-for-bit; process
    #: resume keeps superset semantics.
    resume: bool = False
    #: Deterministic fault plan for chaos testing; also picked up from
    #: :func:`repro.faults.install` when None.
    fault_plan: faults.FaultPlan | None = None
    #: Observability level: ``off`` | ``metrics`` | ``full`` (DESIGN.md
    #: §11). Purely observational — excluded from the campaign
    #: fingerprint, and results are bit-for-bit identical across modes.
    telemetry_mode: str = "metrics"
    # --- scheduling (DESIGN.md §13) -----------------------------------
    #: How the lease board is pooled. Either way a lease is one sync
    #: round (``sync_every`` cases) and a dead worker's leases are
    #: reclaimed and re-issued. "static" — one pool per worker, the
    #: fixed divmod split, claimed by its owner only; "stealing" — one
    #: shared pool that any idle worker pulls from.
    schedule: str = "static"

    def __post_init__(self) -> None:
        if not isinstance(self.vendor, Vendor):
            raise TypeError(f"vendor must be a Vendor, not "
                            f"{type(self.vendor).__name__} {self.vendor!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode not in ("inline", "process"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.telemetry_mode not in telemetry.MODES:
            raise ValueError(
                f"unknown telemetry_mode {self.telemetry_mode!r}")
        if self.sync_every < 1:
            raise ValueError("sync_every must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.case_timeout is not None and self.case_timeout <= 0:
            raise ValueError("case_timeout must be > 0")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.resume and self.sync_dir is None:
            raise ValueError("resume requires a persistent sync_dir")
        self.events: list[SupervisorEvent] = []

    # ------------------------------------------------------------------

    def _campaign_kwargs(self) -> dict:
        """NecoFuzz construction arguments shared by every worker."""
        return dict(
            hypervisor=self.hypervisor,
            vendor=self.vendor,
            toggles=self.toggles,
            coverage_guided=self.coverage_guided,
            patched=self.patched,
            runtime_iterations=self.runtime_iterations,
            async_events=self.async_events,
            iterations_per_hour=self.iterations_per_hour)

    def _config_key(self) -> tuple:
        """The worker construction arguments, comparable across runs.

        Part of the checkpoint manifest: a checkpoint built under
        another config is not this campaign.
        """
        kwargs = self._campaign_kwargs()
        kwargs["vendor"] = self.vendor.value
        kwargs["toggles"] = astuple(self.toggles)
        kwargs["patched"] = tuple(sorted(self.patched))
        return tuple(sorted(kwargs.items()))

    def _stealing_worker_count(self, iterations: int) -> int:
        """How many workers a stealing campaign actually spawns.

        A worker with no lease to claim would only cost a build and an
        empty report, so the count is capped at the number of leases
        (sync rounds) the budget divides into.
        """
        leases = -(-iterations // self.sync_every) if iterations else 1
        return max(1, min(self.workers, leases))

    def _specs(self, iterations: int) -> list[WorkerSpec]:
        if self.schedule == "stealing":
            # Shares are claimed lease by lease; specs start empty and
            # grow (WorkerSpec.iterations tracks the claimed total).
            shares = [0] * self._stealing_worker_count(iterations)
        else:
            # With iterations < workers the tail shards get zero cases;
            # spawning them would cost a process + an empty report
            # each. Keeping the non-empty prefix (shares are monotone
            # non-increasing) preserves contiguous worker indices,
            # which partner scans and derived seeds both rely on. The
            # pinned board re-splits the budget over the kept workers,
            # which gives these same shares.
            shares = [share for share in split_budget(iterations,
                                                      self.workers)
                      if share] or [0]
        return [WorkerSpec(index=i, seed=worker_seed(self.seed, i),
                           iterations=share)
                for i, share in enumerate(shares)]

    def _board_shape(self) -> dict:
        """How the lease board is carved: one sync round per lease, and
        static pins one pool per worker."""
        return {"lease_size": self.sync_every,
                "pinned": self.schedule == "static"}

    def run(self, iterations: int, *,
            sample_every: int = 10) -> ParallelCampaignResult:
        """Run the sharded campaign for *iterations* total test cases."""
        if self.sync_dir is not None:
            root = Path(self.sync_dir)
            root.mkdir(parents=True, exist_ok=True)
            return self._run_in(root, iterations, sample_every)
        with tempfile.TemporaryDirectory(prefix="necofuzz-sync-") as tmp:
            return self._run_in(Path(tmp), iterations, sample_every)

    def _run_in(self, root: Path, iterations: int,
                sample_every: int) -> ParallelCampaignResult:
        specs = self._specs(iterations)
        with telemetry.campaign_scope(self.telemetry_mode, root):
            if self.fault_plan is not None and faults.active() is None:
                # A plan passed as a field behaves exactly like one
                # already installed around run() — both modes consult
                # the global.
                with faults.injected(self.fault_plan):
                    return self._dispatch(root, specs, iterations,
                                          sample_every)
            return self._dispatch(root, specs, iterations, sample_every)

    def _dispatch(self, root: Path, specs: list[WorkerSpec],
                  iterations: int,
                  sample_every: int) -> ParallelCampaignResult:
        with telemetry.span("campaign.run"):
            if self.mode == "process" and len(specs) > 1:
                reports, sched = self._run_processes(
                    root, specs, iterations, sample_every)
            else:
                reports, sched = self._run_inline(
                    root, specs, iterations, sample_every)
        result = self._merge(reports, sched)
        result.telemetry = self._finish_telemetry(root, reports)
        return result

    def _finish_telemetry(self, root: Path,
                          reports: list[WorkerReport]) -> dict | None:
        """Fold worker registries in, persist the campaign aggregate.

        Process-mode workers ship their registry snapshot inside their
        report; inline workers already recorded into the campaign
        registry. The merged snapshot is written to
        ``<root>/metrics.json`` and, in ``full`` mode, the per-worker
        event streams are merged into ``<root>/events.jsonl``.
        """
        if self.telemetry_mode == "off":
            return None
        registry = telemetry.registry()
        for report in reports:
            if report.telemetry is not None:
                registry.merge_snapshot(report.telemetry)
        telemetry.save_metrics(root / telemetry.METRICS_NAME)
        if self.telemetry_mode == "full":
            telemetry.flush()
            telemetry.merge_events(root)
        return telemetry.snapshot()

    # --- inline mode --------------------------------------------------------

    def _campaign_checkpoint_path(self, root: Path) -> Path:
        return root / "campaign.ckpt"

    def _manifest(self, specs: list[WorkerSpec], sample_every: int,
                  iterations: int) -> tuple:
        shares = tuple(spec.iterations for spec in specs)
        return (self.seed, self.workers, iterations, shares, sample_every,
                self.sync_every, self.schedule, self._config_key())

    def _save_campaign_checkpoint(self, path: Path, manifest: tuple,
                                  workers: list[CampaignWorker],
                                  rounds: int, extra: dict | None = None
                                  ) -> None:
        payload = {"manifest": manifest, "rounds": rounds, "workers": workers}
        if extra:
            payload.update(extra)
        atomic_write_bytes(path, pickle.dumps(payload))

    def _load_campaign_checkpoint(self, path: Path, manifest: tuple):
        """The checkpoint payload dict if it matches, else ``None``."""
        try:
            payload = pickle.loads(path.read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError) as exc:
            log.warning("ignoring checkpoint %s: unreadable (%s: %s)",
                        path, type(exc).__name__, exc)
            return None
        if (not isinstance(payload, dict)
                or payload.get("manifest") != manifest):
            log.warning("ignoring checkpoint %s: campaign shape changed",
                        path)
            return None
        return payload

    def _run_lease_isolated(self, worker: CampaignWorker, lease, board,
                            restarts: dict[int, int]) -> bool:
        """Run one lease, surviving injected deaths; False = retired.

        A killed worker is rolled back to the pre-lease snapshot and the
        lease replayed — deterministic because exports only happen after
        a lease completes, and the one-shot fault stays consumed. The
        snapshot is taken only when a fault plan is live, keeping the
        plain path allocation-free. Past ``max_restarts`` the worker is
        **retired** instead: rolled back, and its lease reclaimed (same
        id and size, so the ledger still records it exactly once) for
        the next claimant of its pool.
        """
        while True:
            snapshot = (pickle.dumps(worker)
                        if faults.active() is not None else None)
            try:
                worker.run_lease(lease.size)
                return True
            except faults.WorkerKilled as death:
                index = worker.spec.index
                restarts[index] = restarts.get(index, 0) + 1
                if snapshot is None:
                    self.events.append(SupervisorEvent(
                        index, FailureKind.WORKER_CRASH, str(death),
                        "abort"))
                    raise CampaignAborted(
                        f"worker {index} died without a snapshot to "
                        f"restore") from death
                restored = pickle.loads(snapshot)
                worker.__dict__.clear()
                worker.__dict__.update(restored.__dict__)
                if restarts[index] > self.max_restarts:
                    board.reclaim_lease(lease.id)
                    log.warning(
                        "worker %d died %d time(s), exceeding "
                        "max_restarts=%d; retiring it and re-issuing "
                        "lease %d", index, restarts[index],
                        self.max_restarts, lease.id)
                    self.events.append(SupervisorEvent(
                        index, FailureKind.WORKER_CRASH, str(death),
                        "circuit-open"))
                    return False
                log.warning("worker %d died inline (%s); restart %d/%d "
                            "from pre-lease snapshot", index, death,
                            restarts[index], self.max_restarts)
                self.events.append(SupervisorEvent(
                    index, FailureKind.WORKER_CRASH, str(death), "restart"))

    def _run_inline(self, root: Path, specs: list[WorkerSpec],
                    iterations: int, sample_every: int
                    ) -> tuple[list[WorkerReport], dict]:
        """Round-robin the workers over the lease board.

        Each round every live worker claims at most one lease, runs it
        and exports; then every live worker imports its partners'
        finds, so everyone sees every partner's finds from the round.
        """
        syncing = len(specs) > 1
        checkpointing = self.checkpoint_interval > 0 or self.resume
        ckpt = self._campaign_checkpoint_path(root) if checkpointing else None
        manifest = self._manifest(specs, sample_every, iterations)
        payload = None
        if self.resume and ckpt is not None and ckpt.exists():
            payload = self._load_campaign_checkpoint(ckpt, manifest)
        if payload is not None:
            workers, rounds = payload["workers"], payload["rounds"]
            board, retired = payload["board"], payload["retired"]
            log.info("resuming inline campaign from round %d "
                     "(%d lease(s) completed)", rounds, len(board.log))
        else:
            workers = [CampaignWorker(
                spec, self._campaign_kwargs(), sample_every=sample_every,
                sync=SyncDirectory(root, spec.index, len(specs))
                if syncing else None,
                case_timeout=self.case_timeout) for spec in specs]
            board = LeaseBoard(total=iterations, workers=len(specs),
                               **self._board_shape())
            rounds, retired = 0, set()
        restarts: dict[int, int] = {}
        while not board.drained():
            for worker in workers:
                index = worker.spec.index
                if index in retired:
                    continue
                lease = board.claim(index)
                if lease is None:
                    continue
                if self._run_lease_isolated(worker, lease, board, restarts):
                    board.complete(lease.id, index, round_no=rounds)
                    worker.export()
                    continue
                retired.add(index)
                live = [w.spec.index for w in workers
                        if w.spec.index not in retired]
                if board.stranded(live):
                    detail = (f"{board.total - board.completed_total()}"
                              f" case(s) unexecuted, no live worker "
                              f"can claim them")
                    self.events.append(SupervisorEvent(
                        index, FailureKind.WORKER_CRASH, detail, "abort"))
                    raise CampaignAborted(
                        f"worker {index} retired after "
                        f"{restarts[index]} death(s), exceeding "
                        f"max_restarts={self.max_restarts}: {detail}")
            if syncing:
                for worker in workers:
                    if worker.spec.index not in retired:
                        worker.import_new()
            rounds += 1
            if (ckpt is not None and self.checkpoint_interval
                    and rounds % self.checkpoint_interval == 0):
                self._save_campaign_checkpoint(
                    ckpt, manifest, workers, rounds,
                    {"board": board, "retired": retired})
        return [worker.report() for worker in workers], board.summary()

    # --- process mode -------------------------------------------------------

    def _run_processes(self, root: Path, specs: list[WorkerSpec],
                       iterations: int, sample_every: int
                       ) -> tuple[list[WorkerReport], dict]:
        from repro.parallel import supervisor as sup

        if not self.resume:
            # A fresh campaign in a persistent sync root must not pick
            # up a previous run's shard snapshots.
            for spec in specs:
                sup.checkpoint_path(root, spec.index).unlink(missing_ok=True)
                sup.report_path(root, spec.index).unlink(missing_ok=True)
        board = FileLeaseBoard(root)
        if self.resume and board.exists():
            # The interrupted campaign's workers are all dead: hand their
            # unfinished leases back, or nobody could ever claim them.
            for spec in specs:
                board.reclaim(spec.index)
        else:
            board = FileLeaseBoard.create(root, iterations, len(specs),
                                          **self._board_shape())
        config = SupervisorConfig(max_restarts=self.max_restarts)
        if self.case_timeout is not None:
            config.case_timeout = self.case_timeout
        supervisor = Supervisor(
            root=root, specs=specs, campaign_kwargs=self._campaign_kwargs(),
            sample_every=sample_every,
            config=config, fault_plan=self.fault_plan or faults.active(),
            telemetry_mode=self.telemetry_mode, lease_board=board)
        try:
            return supervisor.run(), board.summary()
        finally:
            self.events.extend(supervisor.events)

    # --- merge --------------------------------------------------------------

    def _merge(self, reports: list[WorkerReport],
               sched: dict) -> ParallelCampaignResult:
        """Merge worker reports; *sched* is the lease board's summary."""
        reports = sorted(reports, key=lambda r: r.index)
        instrumented = reports[0].result.instrumented_lines
        for report in reports[1:]:
            if report.result.instrumented_lines != instrumented:
                raise RuntimeError(
                    f"workers disagree on the instrumented universe: "
                    f"worker {report.index} instruments "
                    f"{len(report.result.instrumented_lines)} line(s), "
                    f"worker {reports[0].index} "
                    f"{len(instrumented)}")
        covered: set = set()
        merged_reports = []
        for report in reports:
            covered |= report.result.covered_lines
            merged_reports.extend(report.result.reports)
        label = f"NecoFuzz/{self.hypervisor}/{self.vendor.value}"
        timeline = _merge_timeline(reports, len(instrumented), label,
                                   self.iterations_per_hour)
        return ParallelCampaignResult(
            timeline=timeline,
            covered_lines=covered,
            instrumented_lines=set(instrumented),
            reports=merged_reports,
            engine_stats=_merge_stats([r.result.engine_stats for r in reports]),
            watchdog_restarts=sum(r.result.watchdog_restarts for r in reports),
            workers=len(reports),
            per_worker=[r.result for r in reports],
            virgin=_merge_virgin(reports),
            corpus_digests=[r.corpus_digest for r in reports],
            events=list(self.events),
            deadline_overruns=sum(r.deadline_overruns for r in reports),
            sync_overhead=_merge_sync_overhead(reports),
            schedule=self.schedule,
            lease_log=list(sched["log"]),
            steals=sched["steals"],
            reclaims=sched["reclaims"])
