"""The parallel campaign orchestrator.

``ParallelCampaign`` shards one iteration budget across N workers and
merges their results. Two execution modes share all of the sharding,
sync, and merge machinery:

* ``mode="inline"`` runs the workers round-robin in this process —
  fully deterministic (chunk order and sync order are fixed), the mode
  the determinism tests and single-core CI use;
* ``mode="process"`` forks one OS process per worker for real
  parallelism; workers sync through the filesystem at their own pace,
  so merged trajectories are only reproducible in the aggregate
  (superset semantics), exactly like AFL++ primary/secondary instances.

The determinism contract: with ``workers=1`` the (single) worker uses
the campaign seed verbatim, never imports anything, and reproduces the
serial ``NecoFuzz.run`` result bit for bit. With N workers the merged
covered-line set is a superset-style union — not bit-for-bit comparable
to any serial run, but measured over the same instrumented universe.

Resilience (off by default, see DESIGN.md §9): inline mode restores a
killed worker from an in-memory snapshot and replays its chunk, process
mode delegates to :class:`repro.parallel.supervisor.Supervisor`, and
``checkpoint_interval``/``resume`` give interrupted inline campaigns a
bit-for-bit continuation from the last round boundary.
"""

from __future__ import annotations

import logging
import pickle
import tempfile
from dataclasses import dataclass, field
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
    LEASE_MIN,
    SCHEDULES,
    AdaptiveSync,
    FileLeaseBoard,
    LeaseBoard,
    LeaseRecord,
    WorkerPool,
)
from repro.parallel.supervisor import (
    CampaignAborted,
    FailureKind,
    Supervisor,
    SupervisorConfig,
    SupervisorEvent,
)
from repro.parallel.sync import SYNC_FORMATS, SyncDirectory, SyncStats
from repro.schedule import SCHEDULE_MODES
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
    #: Whether process-mode workers merged through a shared-memory
    #: virgin map instead of pickled report snapshots.
    shared_virgin_map: bool = False
    #: Merged telemetry snapshot (campaign scope + every worker), the
    #: same payload ``<root>/metrics.json`` persists. ``None`` when the
    #: campaign ran with ``telemetry_mode="off"``.
    telemetry: dict | None = None
    #: Which scheduler ran the campaign: "static" or "stealing".
    schedule: str = "static"
    #: Completion-ordered lease ledger (stealing only). Feeding it back
    #: as ``ParallelCampaign(lease_log=...)`` replays the identical
    #: lease assignment, pinning the fingerprint of an adaptively sized
    #: run.
    lease_log: list[LeaseRecord] = field(default_factory=list)
    #: Leases claimed beyond a worker's static fair share (or re-issued
    #: after a reclaim) — the work the stealing schedule actually moved.
    steals: int = 0
    #: Leases taken back from dead or retired workers and re-issued.
    reclaims: int = 0
    #: Warm workers this run continued from the ``pool=`` handle
    #: instead of rebuilding.
    pool_reuse: int = 0

    def summary(self) -> str:
        text = (super().summary()
                + f", {self.workers} worker(s), "
                  f"{self.engine_stats.imported} synced import(s)")
        skipped = self.engine_stats.imports_skipped_subsumed
        if skipped:
            text += f" ({skipped} subsumed, not re-executed)"
        if self.schedule in ("stealing", "federated"):
            text += (f", {len(self.lease_log)} lease(s) "
                     f"({self.steals} stolen, {self.reclaims} reclaimed)")
        if self.pool_reuse:
            text += f", {self.pool_reuse} warm worker(s) reused"
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


def _merge_virgin(reports: list[WorkerReport],
                  shared_bits: bytes | None = None) -> VirginMap:
    """OR worker snapshots (and the shared-map state, if any) together.

    Workers that published into a shared-memory map ship empty
    ``virgin_bits``; their contribution arrives through *shared_bits*.
    """
    merged = VirginMap()
    if shared_bits:
        merged.merge_bits(shared_bits)
    for report in reports:
        if report.virgin_bits:
            merged.merge_bits(bytes(report.virgin_bits))
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
    #: Corpus wire format: "v2" (binary append-only, default) or "v1"
    #: (legacy per-entry files) for pre-existing sync roots.
    sync_format: str = "v2"
    #: Let v2 imports skip executing entries whose shipped coverage is
    #: already subsumed locally. Off isolates the wire format from the
    #: filter (equivalence pins, debugging).
    subsumption_filter: bool = True
    #: Publish per-worker coverage sidecars so importers can reject a
    #: partner's whole fresh batch from one virgin-map delta before
    #: scanning its queue file (DESIGN.md §15). Fingerprint-neutral.
    sync_delta: bool = True
    toggles: ComponentToggles = field(default_factory=ComponentToggles)
    coverage_guided: bool = True
    patched: frozenset = frozenset()
    runtime_iterations: int = 24
    async_events: bool = False
    iterations_per_hour: float = 10.0
    reuse_hypervisor: bool = False
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
    #: "static" — the classic fixed divmod split; "stealing" — workers
    #: pull adaptively sized leases off a shared board, and a dead
    #: worker's leases are reclaimed and re-issued.
    schedule: str = "static"
    #: Fixed cases per lease (stealing). 0 sizes each lease from the
    #: claimant's measured cases/sec; a fixed size makes inline
    #: stealing fully deterministic.
    lease_size: int = 0
    #: Back off the sync interval geometrically while the subsumption
    #: filter absorbs >=90% of imports; snap back on new virgin bits.
    sync_adaptive: bool = False
    #: Warm worker pool (inline only). Pass the same ``WorkerPool``
    #: to successive campaigns with the same shape and each ``run()``
    #: continues the pooled workers — cumulative stats, no respawn.
    pool: WorkerPool | None = None
    #: Replay a previous stealing run's ``result.lease_log`` verbatim
    #: (inline only): same seed + same lease log => identical
    #: fingerprint, even when the original sizing was adaptive.
    lease_log: list[LeaseRecord] | None = None
    #: Seed scheduling inside every worker (DESIGN.md §16): ``flat``
    #: keeps the historical uniform draw (fingerprint-pinned), ``fast``
    #: enables energy weighting + the operator bandit + distillation.
    #: Schedule/bandit state rides worker checkpoints but — like
    #: telemetry — never enters the campaign fingerprint.
    power_schedule: str = "flat"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode not in ("inline", "process"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.lease_size < 0:
            raise ValueError("lease_size must be >= 0")
        if self.lease_log is not None and self.schedule != "stealing":
            raise ValueError("lease_log replay requires schedule='stealing'")
        if self.lease_log is not None and self.mode != "inline":
            raise ValueError("lease_log replay requires mode='inline'")
        if self.lease_log is not None and self.resume:
            raise ValueError("lease_log replay and resume are exclusive")
        if self.pool is not None and self.mode != "inline":
            raise ValueError("a worker pool requires mode='inline' "
                             "(process workers already persist for the "
                             "campaign's lifetime)")
        if self.telemetry_mode not in telemetry.MODES:
            raise ValueError(
                f"unknown telemetry_mode {self.telemetry_mode!r}")
        if self.sync_format not in SYNC_FORMATS:
            raise ValueError(f"unknown sync_format {self.sync_format!r}")
        if self.power_schedule not in SCHEDULE_MODES:
            raise ValueError(
                f"unknown power_schedule {self.power_schedule!r}")
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
            iterations_per_hour=self.iterations_per_hour,
            reuse_hypervisor=self.reuse_hypervisor,
            power_schedule=self.power_schedule)

    def _stealing_worker_count(self, iterations: int) -> int:
        """How many workers a stealing campaign actually spawns.

        There is no point holding a worker hostage for fewer cases than
        one minimum lease, so the count is capped at the number of
        minimum-sized leases the budget divides into. The formula is a
        pure function of (workers, iterations, lease_size): a lease-log
        replay rebuilds the identical worker set — every worker
        contributes its corpus digest to the fingerprint, claimant or
        not.
        """
        floor = self.lease_size if self.lease_size > 0 else LEASE_MIN
        leases = -(-iterations // floor) if iterations else 1
        return max(1, min(self.workers, leases))

    def _specs(self, iterations: int) -> list[WorkerSpec]:
        if self.schedule == "stealing":
            # Shares are claimed lease by lease; specs start empty and
            # grow (WorkerSpec.iterations tracks the claimed total).
            return [WorkerSpec(index=i, seed=worker_seed(self.seed, i),
                               iterations=0)
                    for i in range(self._stealing_worker_count(iterations))]
        base, remainder = divmod(iterations, self.workers)
        specs = [
            WorkerSpec(index=i,
                       seed=worker_seed(self.seed, i),
                       iterations=base + (1 if i < remainder else 0))
            for i in range(self.workers)
        ]
        # With iterations < workers the tail shards get zero cases;
        # spawning them would cost a process + an empty report each.
        # Keeping the non-empty prefix (shares are monotone
        # non-increasing) preserves contiguous worker indices, which
        # partner scans and derived seeds both rely on.
        active = [spec for spec in specs if spec.iterations > 0]
        return active or specs[:1]

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
        shared_bits = None
        sched: dict = {}
        with telemetry.span("campaign.run"):
            if self.mode == "process" and len(specs) > 1:
                reports, shared_bits, sched = self._run_processes(
                    root, specs, iterations, sample_every)
            elif self.schedule == "stealing":
                reports, sched = self._run_inline_stealing(
                    root, specs, iterations, sample_every)
            else:
                reports, sched = self._run_inline(root, specs, sample_every)
        result = self._merge(reports, shared_bits, sched)
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
                  iterations: int | None = None) -> tuple:
        shares = (tuple(spec.iterations for spec in specs)
                  if self.schedule == "static" else (iterations or 0,))
        return (self.seed, self.workers, self.hypervisor, self.vendor.value,
                shares, sample_every, self.sync_every, self.schedule,
                self.lease_size, self.sync_adaptive, self.power_schedule)

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
                ImportError, IndexError):
            return None
        if (not isinstance(payload, dict)
                or payload.get("manifest") != manifest):
            log.warning("ignoring checkpoint %s: campaign shape changed",
                        path)
            return None
        return payload

    def _run_chunk_isolated(self, worker: CampaignWorker,
                            restarts: dict[int, int]) -> None:
        """One chunk, surviving injected worker deaths.

        A killed worker is rolled back to the pre-chunk snapshot and the
        chunk replayed — deterministic because exports only happen after
        a chunk completes, and the one-shot fault stays consumed. The
        snapshot is taken only when a fault plan is live, keeping the
        plain path allocation-free.
        """
        while True:
            snapshot = (pickle.dumps(worker)
                        if faults.active() is not None else None)
            try:
                worker.run_chunk(self.sync_every)
                return
            except faults.WorkerKilled as death:
                index = worker.spec.index
                restarts[index] = restarts.get(index, 0) + 1
                if snapshot is None or restarts[index] > self.max_restarts:
                    self.events.append(SupervisorEvent(
                        index, FailureKind.WORKER_CRASH, str(death),
                        "abort"))
                    raise CampaignAborted(
                        f"worker {index} died {restarts[index]} time(s), "
                        f"exceeding max_restarts={self.max_restarts}"
                    ) from death
                log.warning("worker %d died inline (%s); restart %d/%d "
                            "from pre-chunk snapshot", index, death,
                            restarts[index], self.max_restarts)
                self.events.append(SupervisorEvent(
                    index, FailureKind.WORKER_CRASH, str(death), "restart"))
                # Replace, don't merge: attributes still at their class
                # defaults when the snapshot was taken (e.g. ``done``)
                # are absent from the pickled __dict__ and must revert.
                restored = pickle.loads(snapshot)
                worker.__dict__.clear()
                worker.__dict__.update(restored.__dict__)

    def _pool_key(self, specs: list[WorkerSpec]) -> tuple:
        return (self.hypervisor, self.vendor.value, self.seed, len(specs),
                self.schedule, self.sync_format, self.power_schedule)

    def _build_inline_workers(self, root: Path, specs: list[WorkerSpec],
                              sample_every: int, syncing: bool
                              ) -> tuple[list[CampaignWorker], int]:
        """Build (or warm-acquire) the inline worker set.

        A pooled worker carries its engine, corpus, and virgin map from
        the previous ``run()``; this run *continues* it — its share is
        extended by the new spec's budget and its stats stay cumulative.
        Pooled workers are re-bound to this run's sync root when it
        changed: the fresh ``SyncDirectory``'s zeroed export cursor
        fails the tail-intact check against the new (empty) queue dir,
        which rewrites the full live queue there — nothing is lost.
        """
        key = self._pool_key(specs)
        workers: list[CampaignWorker] = []
        reused = 0
        for spec in specs:
            warm = (self.pool.acquire(key, spec.index)
                    if self.pool is not None else None)
            if warm is not None:
                warm.spec.iterations += spec.iterations
                if not syncing:
                    warm.sync = None
                elif (warm.sync is None
                        or Path(warm.sync.root) != Path(root)):
                    warm.sync = SyncDirectory(
                        root, spec.index, len(specs),
                        sync_format=self.sync_format,
                        subsumption_filter=self.subsumption_filter,
                        delta_plane=self.sync_delta)
                workers.append(warm)
                reused += 1
                continue
            workers.append(CampaignWorker(
                spec, self._campaign_kwargs(), sample_every=sample_every,
                sync=SyncDirectory(
                    root, spec.index, len(specs),
                    sync_format=self.sync_format,
                    subsumption_filter=self.subsumption_filter,
                    delta_plane=self.sync_delta)
                if syncing else None,
                case_timeout=self.case_timeout))
        return workers, reused

    def _adaptives(self, specs: list[WorkerSpec]) -> dict:
        return {spec.index: (AdaptiveSync(base=self.sync_every)
                             if self.sync_adaptive else None)
                for spec in specs}

    def _run_inline(self, root: Path, specs: list[WorkerSpec],
                    sample_every: int) -> tuple[list[WorkerReport], dict]:
        syncing = len(specs) > 1
        checkpointing = self.checkpoint_interval > 0 or self.resume
        ckpt = self._campaign_checkpoint_path(root) if checkpointing else None
        manifest = self._manifest(specs, sample_every)
        workers, rounds, adaptives, pool_reuse = None, 0, None, 0
        if self.resume and ckpt is not None and ckpt.exists():
            payload = self._load_campaign_checkpoint(ckpt, manifest)
            if payload is not None:
                workers = payload["workers"]
                rounds = payload["rounds"]
                adaptives = payload.get("adaptives")
                log.info("resuming inline campaign from round %d", rounds)
        if workers is None:
            workers, pool_reuse = self._build_inline_workers(
                root, specs, sample_every, syncing)
        if adaptives is None:
            adaptives = self._adaptives(specs)
        restarts: dict[int, int] = {}
        while any(not worker.finished for worker in workers):
            for worker in workers:
                if not worker.finished:
                    self._run_chunk_isolated(worker, restarts)
                    worker.export()
            if syncing:
                # Bidirectional round: everyone has published, so every
                # worker sees every partner's finds from this round.
                for worker in workers:
                    worker.maybe_import(adaptives[worker.spec.index])
            rounds += 1
            if (ckpt is not None and self.checkpoint_interval
                    and rounds % self.checkpoint_interval == 0):
                self._save_campaign_checkpoint(ckpt, manifest, workers,
                                               rounds,
                                               {"adaptives": adaptives})
        if self.pool is not None:
            self.pool.park(self._pool_key(specs), workers)
        return ([worker.report() for worker in workers],
                {"schedule": "static", "pool_reuse": pool_reuse})

    # --- inline stealing (DESIGN.md §13) ------------------------------------

    def _run_lease_isolated(self, worker: CampaignWorker, lease, board,
                            restarts: dict[int, int]) -> bool:
        """Run one lease, surviving injected deaths; False = retired.

        Same snapshot-and-replay contract as the static chunk path, with
        one stealing-specific twist past ``max_restarts``: instead of
        aborting the campaign, the worker is **retired** — rolled back
        to its pre-lease snapshot and its lease reclaimed for a
        surviving partner to pick up (with the same id and size, so the
        ledger still records that lease exactly once).
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

    def _replay_leases(self, board, workers: list[CampaignWorker],
                       adaptives: dict, syncing: bool) -> None:
        """Re-drive a recorded lease log verbatim (fingerprint replay)."""
        by_index = {worker.spec.index: worker for worker in workers}
        by_round: dict[int, list[LeaseRecord]] = {}
        for record in self.lease_log or []:
            by_round.setdefault(record.round, []).append(record)
        for round_no in sorted(by_round):
            for record in by_round[round_no]:
                worker = by_index.get(record.worker)
                if worker is None:
                    raise ValueError(
                        f"lease log names worker {record.worker}, but "
                        f"this campaign builds {len(workers)} worker(s)")
                board.claim_replay(record, record.worker)
                worker.run_lease(record.size)
                board.complete(record.id, record.worker,
                               round_no=record.round)
                worker.export()
            if syncing:
                for worker in workers:
                    worker.maybe_import(adaptives[worker.spec.index])
        if not board.drained():
            raise ValueError(
                f"lease log is short of the budget: {board.remaining} "
                f"case(s) left unassigned")

    def _run_inline_stealing(self, root: Path, specs: list[WorkerSpec],
                             iterations: int, sample_every: int
                             ) -> tuple[list[WorkerReport], dict]:
        syncing = len(specs) > 1
        checkpointing = self.checkpoint_interval > 0 or self.resume
        ckpt = self._campaign_checkpoint_path(root) if checkpointing else None
        manifest = self._manifest(specs, sample_every, iterations)
        workers = board = adaptives = None
        rounds, pool_reuse = 0, 0
        retired: set[int] = set()
        if self.resume and ckpt is not None and ckpt.exists():
            payload = self._load_campaign_checkpoint(ckpt, manifest)
            if payload is not None:
                workers = payload["workers"]
                rounds = payload["rounds"]
                board = payload.get("board")
                adaptives = payload.get("adaptives")
                retired = payload.get("retired", set())
                log.info("resuming stealing campaign from round %d "
                         "(%d lease(s) completed)", rounds,
                         len(board.log) if board is not None else 0)
        if workers is None:
            workers, pool_reuse = self._build_inline_workers(
                root, specs, sample_every, syncing)
        if board is None:
            board = LeaseBoard(total=iterations, workers=len(specs),
                               lease_size=self.lease_size)
        if adaptives is None:
            adaptives = self._adaptives(specs)
        if self.lease_log is not None:
            self._replay_leases(board, workers, adaptives, syncing)
        else:
            restarts: dict[int, int] = {}
            while not board.drained():
                for worker in workers:
                    index = worker.spec.index
                    if index in retired:
                        continue
                    lease = board.claim(index, rate=worker.rate)
                    if lease is None:
                        continue
                    if self._run_lease_isolated(worker, lease, board,
                                                restarts):
                        board.complete(lease.id, index, round_no=rounds)
                        worker.export()
                    else:
                        retired.add(index)
                if syncing:
                    for worker in workers:
                        if worker.spec.index not in retired:
                            worker.maybe_import(adaptives[worker.spec.index])
                rounds += 1
                if len(retired) == len(workers) and not board.drained():
                    raise CampaignAborted(
                        f"all {len(workers)} worker(s) retired with "
                        f"{board.total - board.completed_total()} case(s) "
                        f"unexecuted")
                if (ckpt is not None and self.checkpoint_interval
                        and rounds % self.checkpoint_interval == 0):
                    self._save_campaign_checkpoint(
                        ckpt, manifest, workers, rounds,
                        {"board": board, "adaptives": adaptives,
                         "retired": retired})
        if self.pool is not None:
            self.pool.park(self._pool_key(specs), workers)
        summary = board.summary()
        return ([worker.report() for worker in workers],
                {"schedule": "stealing", "lease_log": summary["log"],
                 "steals": summary["steals"],
                 "reclaims": summary["reclaims"],
                 "pool_reuse": pool_reuse})

    # --- process mode -------------------------------------------------------

    def _run_processes(self, root: Path, specs: list[WorkerSpec],
                       iterations: int, sample_every: int
                       ) -> tuple[list[WorkerReport], bytes | None, dict]:
        from repro.parallel import supervisor as sup

        if not self.resume:
            # A fresh campaign in a persistent sync root must not pick
            # up a previous run's shard snapshots.
            for spec in specs:
                sup.checkpoint_path(root, spec.index).unlink(missing_ok=True)
                sup.report_path(root, spec.index).unlink(missing_ok=True)
        board = None
        if self.schedule == "stealing":
            board = FileLeaseBoard(root)
            if not (self.resume and board.exists()):
                board = FileLeaseBoard.create(
                    root, iterations, len(specs),
                    lease_size=self.lease_size)
        config = SupervisorConfig(max_restarts=self.max_restarts)
        if self.case_timeout is not None:
            config.case_timeout = self.case_timeout
        supervisor = Supervisor(
            root=root, specs=specs, campaign_kwargs=self._campaign_kwargs(),
            sample_every=sample_every, sync_every=self.sync_every,
            config=config, fault_plan=self.fault_plan or faults.active(),
            sync_format=self.sync_format,
            subsumption_filter=self.subsumption_filter,
            sync_delta=self.sync_delta,
            telemetry_mode=self.telemetry_mode,
            schedule=self.schedule, sync_adaptive=self.sync_adaptive,
            lease_board=board)
        try:
            reports = supervisor.run()
            sched = {"schedule": self.schedule, "pool_reuse": 0}
            if board is not None:
                summary = board.summary()
                sched.update(lease_log=summary["log"],
                             steals=summary["steals"],
                             reclaims=summary["reclaims"])
            return reports, supervisor.merged_virgin_bits, sched
        finally:
            self.events.extend(supervisor.events)

    # --- merge --------------------------------------------------------------

    def _merge(self, reports: list[WorkerReport],
               shared_bits: bytes | None = None,
               sched: dict | None = None) -> ParallelCampaignResult:
        sched = sched or {}
        reports = sorted(reports, key=lambda r: r.index)
        instrumented = reports[0].result.instrumented_lines
        for report in reports[1:]:
            assert report.result.instrumented_lines == instrumented, \
                "workers disagree on the instrumented universe"
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
            workers=self.workers,
            per_worker=[r.result for r in reports],
            virgin=_merge_virgin(reports, shared_bits),
            corpus_digests=[r.corpus_digest for r in reports],
            events=list(self.events),
            deadline_overruns=sum(r.deadline_overruns for r in reports),
            sync_overhead=_merge_sync_overhead(reports),
            shared_virgin_map=shared_bits is not None,
            schedule=sched.get("schedule", self.schedule),
            lease_log=list(sched.get("lease_log", [])),
            steals=sched.get("steals", 0),
            reclaims=sched.get("reclaims", 0),
            pool_reuse=sched.get("pool_reuse", 0))
