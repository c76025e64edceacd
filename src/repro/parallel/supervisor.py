"""Process-pool supervision: heartbeats, deadlines, restarts, breakers.

The supervisor is what makes a process-mode campaign outlive the
failures it provokes. Each worker process stamps a heartbeat file
before every case; the supervisor polls process liveness and heartbeat
freshness, classifies what it sees (see :class:`FailureKind`), and
responds:

* a dead or hung worker is killed (if needed) and **restarted from its
  last checkpoint** with capped exponential backoff, so at most one
  sync round of work is replayed and no corpus entries are lost;
* after ``max_restarts`` consecutive failures on the same shard the
  **circuit breaker** opens and the shard's remainder runs inline in
  the supervisor process — the slow-but-sure path;
* if the process pool is unusable at all (``Process.start`` raising on
  a broken spawn context), the whole campaign falls back to inline
  execution, loudly.

Once started, a worker talks to the supervisor only through files
under the sync root: heartbeats, checkpoints, the lease board, and one
pickled report per worker that carries its full virgin map.

Failure taxonomy
----------------

=============   ===========================================================
CASE_CRASH      exception inside one test case; absorbed *in-process* by
                the engine's case-boundary isolation, never seen here
WORKER_CRASH    the worker OS process died (crash, injected kill, OOM…)
HANG            the heartbeat went stale past the per-case deadline
SYNC_ERROR      the worker exited cleanly but its report/sync artifacts
                were missing or unreadable
=============   ===========================================================
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from repro import faults, telemetry
from repro.parallel.backoff import expo_backoff
from repro.parallel.scheduler import FileLeaseBoard, LeaseBoardError
from repro.parallel.worker import CampaignWorker, WorkerReport, WorkerSpec

log = logging.getLogger("repro.parallel")


class CampaignAborted(RuntimeError):
    """A shard failed beyond every recovery path the runtime has."""


class FailureKind(Enum):
    """What the supervisor decided went wrong with a worker."""

    CASE_CRASH = "case-crash"
    WORKER_CRASH = "worker-crash"
    HANG = "hang"
    SYNC_ERROR = "sync-error"


@dataclass(frozen=True)
class SupervisorEvent:
    """One observed failure and the action taken on it."""

    worker: int
    kind: FailureKind
    detail: str
    action: str  # "restart" | "circuit-open" | "inline-fallback" | "abort"


@dataclass
class SupervisorConfig:
    """Tunables for the monitoring loop."""

    #: Per-case wall-clock deadline; a heartbeat older than this means
    #: the current case hung.
    case_timeout: float = 30.0
    #: Consecutive failures per shard before the circuit breaker opens.
    max_restarts: int = 3
    #: Exponential-backoff schedule for restarts: base * 2^(n-1), capped.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    poll_interval: float = 0.05
    #: Extra allowance before the first heartbeat (worker startup
    #: instruments modules and builds the agent).
    startup_grace: float = 10.0


def mp_context():
    """A usable multiprocessing context, preferring ``fork``.

    Fork is the fast path (no re-import, arguments shared by COW);
    platforms without it — and platforms where building the context
    itself fails — fall back to the default start method. The chosen
    mode is always logged: silently degrading to spawn (or to inline,
    one level up) has burned enough debugging hours already.
    """
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
        log.debug("process mode: using the fork start method")
        return ctx
    except (ValueError, OSError, RuntimeError) as exc:
        ctx = multiprocessing.get_context()
        log.warning("process mode: fork unavailable (%s); using %r",
                    exc, ctx.get_start_method())
        return ctx


def worker_dir(root: Path, index: int) -> Path:
    return Path(root) / f"worker-{index:03d}"


def heartbeat_path(root: Path, index: int) -> Path:
    return worker_dir(root, index) / "heartbeat"


def checkpoint_path(root: Path, index: int) -> Path:
    return worker_dir(root, index) / "state.pkl"


def report_path(root: Path, index: int) -> Path:
    return Path(root) / f"report-{index:03d}.pkl"


def process_worker_main(spec: WorkerSpec, campaign_kwargs: dict,
                        sample_every: int, root: str,
                        total_workers: int, case_timeout: float | None,
                        fault_plan: faults.FaultPlan | None,
                        telemetry_mode: str = "metrics") -> None:
    """Child-process entry point: run leases off the board, write the
    report.

    Resumes from the shard checkpoint when one exists (this is how a
    restarted replacement avoids redoing the whole share), installs the
    fault plan scoped to this worker, and converts an injected
    :class:`~repro.faults.WorkerKilled` into an abrupt ``os._exit`` —
    no cleanup, no report, exactly like a real worker death.
    """
    rootp = Path(root)
    shard_dir = worker_dir(rootp, spec.index)
    shard_dir.mkdir(parents=True, exist_ok=True)
    telemetry.init_worker(telemetry_mode, rootp, spec.index)
    if fault_plan is not None:
        faults.install(fault_plan)
        faults.set_current_worker(spec.index)
    worker = CampaignWorker.load_checkpoint(checkpoint_path(rootp, spec.index))
    if worker is None:
        from repro.parallel.sync import SyncDirectory

        worker = CampaignWorker(
            spec, campaign_kwargs, sample_every=sample_every,
            sync=SyncDirectory(rootp, spec.index, total_workers),
            heartbeat_path=heartbeat_path(rootp, spec.index),
            checkpoint_path=checkpoint_path(rootp, spec.index),
            case_timeout=case_timeout)
    try:
        report = worker.run_leases(FileLeaseBoard(rootp))
    except faults.WorkerKilled:
        os._exit(faults.KILL_EXIT_CODE)
    report.telemetry = telemetry.snapshot()
    if telemetry_mode != "off":
        telemetry.save_metrics(shard_dir / telemetry.METRICS_NAME)
        telemetry.flush()
    from repro.fuzzer.crashes import atomic_write_bytes

    atomic_write_bytes(report_path(rootp, spec.index), pickle.dumps(report))


@dataclass
class Supervisor:
    """Runs process-mode workers to completion, whatever it takes."""

    root: Path
    specs: list[WorkerSpec]
    campaign_kwargs: dict
    sample_every: int
    config: SupervisorConfig = field(default_factory=SupervisorConfig)
    fault_plan: faults.FaultPlan | None = None
    telemetry_mode: str = "metrics"
    #: The campaign's lease board under ``root`` — the supervisor
    #: reclaims a confirmed-dead worker's claims from it before
    #: restarting, so stragglers' leases are re-issued instead of lost.
    lease_board: FileLeaseBoard | None = None
    events: list[SupervisorEvent] = field(default_factory=list)
    restarts: dict[int, int] = field(default_factory=dict)
    #: Heartbeat-staleness tracking: index -> ((mtime_ns, size),
    #: monotonic time that token was first observed). Hang detection
    #: compares monotonic now against monotonic first-seen — file
    #: mtimes are only ever compared with other mtimes, never with the
    #: (NTP-steppable) wall clock.
    _beat_seen: dict = field(default_factory=dict, init=False, repr=False)

    def run(self) -> list[WorkerReport]:
        """Supervise every shard to a report; raises CampaignAborted
        only when even the inline last resort fails."""
        ctx = mp_context()
        reports: dict[int, WorkerReport] = {}
        running: dict[int, tuple] = {}  # index -> (process, started_at)
        pending = list(self.specs)
        by_index = {spec.index: spec for spec in self.specs}

        while len(reports) < len(self.specs):
            # Launch (or relaunch) pending shards.
            while pending:
                spec = pending.pop(0)
                # A dead incarnation's last heartbeat is stale by
                # definition; left in place it would flag the fresh
                # process as hung before it stamps its first case.
                try:
                    heartbeat_path(self.root, spec.index).unlink()
                except OSError:
                    pass
                self._beat_seen.pop(spec.index, None)
                try:
                    proc = ctx.Process(
                        target=process_worker_main,
                        args=(spec, self.campaign_kwargs, self.sample_every,
                              str(self.root),
                              len(self.specs), self.config.case_timeout,
                              self.fault_plan, self.telemetry_mode),
                        daemon=False)
                    proc.start()
                except (OSError, RuntimeError, pickle.PicklingError) as exc:
                    # The pool itself is unusable: run this shard inline.
                    log.warning("worker %d: process start failed (%s); "
                                "falling back to inline execution",
                                spec.index, exc)
                    self.events.append(SupervisorEvent(
                        spec.index, FailureKind.WORKER_CRASH,
                        f"process start failed: {exc}", "inline-fallback"))
                    telemetry.counter("supervisor.inline_fallbacks")
                    telemetry.event("supervisor.inline-fallback",
                                    worker=spec.index, detail=str(exc))
                    reports[spec.index] = self._run_shard_inline(spec)
                    continue
                running[spec.index] = (proc, time.monotonic())

            # Poll the herd.
            progressed = False
            for index, (proc, started) in list(running.items()):
                if proc.is_alive():
                    if self._hung(index, started):
                        proc.terminate()
                        proc.join(timeout=self.config.case_timeout)
                        if proc.is_alive():
                            proc.kill()
                            proc.join()
                        running.pop(index)
                        self._disarm_after(index, FailureKind.HANG)
                        self._handle_failure(
                            index, FailureKind.HANG,
                            "heartbeat stale past the case deadline",
                            pending, reports, by_index)
                        progressed = True
                    continue
                proc.join()
                running.pop(index)
                progressed = True
                if proc.exitcode == 0:
                    report = self._load_report(index)
                    if report is not None:
                        reports[index] = report
                        self.restarts.pop(index, None)
                    else:
                        self._handle_failure(
                            index, FailureKind.SYNC_ERROR,
                            "worker exited cleanly but left no readable "
                            "report", pending, reports, by_index)
                else:
                    self._disarm_after(index, FailureKind.WORKER_CRASH)
                    self._handle_failure(
                        index, FailureKind.WORKER_CRASH,
                        f"exit code {proc.exitcode}",
                        pending, reports, by_index)
            if not progressed and running:
                time.sleep(self.config.poll_interval)
        return [reports[spec.index] for spec in self.specs]

    # --- classification helpers ----------------------------------------

    def _hung(self, index: int, started: float) -> bool:
        """Stale-heartbeat detection on the monotonic clock only.

        The obvious ``time.time() - st_mtime > budget`` check is wrong:
        an NTP step (or any wall-clock skew between the clock that
        stamps mtimes and the one ``time.time`` reads) makes a healthy
        worker look hung — while ``started`` was already monotonic, so
        the two branches disagreed about what a second even was. A
        heartbeat's *mtime* is therefore only compared against other
        observations of the same file: the supervisor remembers the
        last (mtime_ns, size) token per worker and the monotonic
        instant it first saw that token; the worker is hung when the
        token has not changed for ``case_timeout`` monotonic seconds.
        """
        beat = heartbeat_path(self.root, index)
        try:
            stat = beat.stat()
        except OSError:
            # No heartbeat yet: measure from process start, with grace
            # for agent construction and module instrumentation.
            self._beat_seen.pop(index, None)
            return (time.monotonic() - started
                    > self.config.case_timeout + self.config.startup_grace)
        token = (stat.st_mtime_ns, stat.st_size)
        now = time.monotonic()
        seen = self._beat_seen.get(index)
        if seen is None or seen[0] != token:
            self._beat_seen[index] = (token, now)
            return False
        return now - seen[1] > self.config.case_timeout

    def _load_report(self, index: int) -> WorkerReport | None:
        try:
            report = pickle.loads(report_path(self.root, index).read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None
        return report if isinstance(report, WorkerReport) else None

    def _disarm_after(self, index: int, kind: FailureKind) -> None:
        """Consume the injected fault a dead child fired in-memory.

        A child that died took its copy of the plan's ``consumed`` set
        with it; without this, the replacement worker would replay the
        same case and die on the same spec forever.
        """
        if self.fault_plan is None:
            return
        kinds = (("kill_worker",) if kind is FailureKind.WORKER_CRASH
                 else ("delay_case",))
        self.fault_plan.disarm(index, kinds)

    # --- recovery -------------------------------------------------------

    def _handle_failure(self, index: int, kind: FailureKind, detail: str,
                        pending: list, reports: dict, by_index: dict) -> None:
        if self.lease_board is not None:
            # Every path into here has confirmed the worker process
            # dead (exited, or terminated after a stale heartbeat), so
            # its unfinished leases are safe to re-issue: the partial
            # work died unrecorded with the process, and the restarted
            # replacement resumes from its last checkpoint and claims
            # fresh — a lease is only ever *executed to completion*
            # once.
            reclaimed = self.lease_board.reclaim(index)
            if reclaimed:
                log.warning("worker %d: reclaimed %d unfinished lease(s) "
                            "for re-issue", index, reclaimed)
                telemetry.event("sched.reclaim", worker=index,
                                leases=reclaimed)
        count = self.restarts.get(index, 0) + 1
        self.restarts[index] = count
        telemetry.counter(f"supervisor.failures.{kind.value}")
        if count > self.config.max_restarts:
            log.error("worker %d: %s (%s); circuit breaker open after "
                      "%d failures, finishing the shard inline",
                      index, kind.value, detail, count - 1)
            self.events.append(SupervisorEvent(index, kind, detail,
                                               "circuit-open"))
            telemetry.counter("supervisor.circuit_opens")
            telemetry.event("supervisor.circuit-open", worker=index,
                            kind=kind.value, detail=detail)
            reports[index] = self._run_shard_inline(by_index[index])
            return
        delay = expo_backoff(self.config.backoff_base,
                             self.config.backoff_cap, count)
        log.warning("worker %d: %s (%s); restart %d/%d after %.2fs",
                    index, kind.value, detail, count,
                    self.config.max_restarts, delay)
        self.events.append(SupervisorEvent(index, kind, detail, "restart"))
        telemetry.counter("supervisor.restarts")
        telemetry.event("supervisor.restart", worker=index, kind=kind.value,
                        attempt=count, detail=detail)
        time.sleep(delay)
        pending.append(by_index[index])

    def _run_shard_inline(self, spec: WorkerSpec) -> WorkerReport:
        """Last resort: finish one shard in the supervisor process."""
        from repro.parallel.sync import SyncDirectory

        worker = CampaignWorker.load_checkpoint(
            checkpoint_path(self.root, spec.index))
        if worker is None:
            worker = CampaignWorker(
                spec, self.campaign_kwargs, sample_every=self.sample_every,
                sync=SyncDirectory(self.root, spec.index, len(self.specs)),
                heartbeat_path=heartbeat_path(self.root, spec.index),
                checkpoint_path=checkpoint_path(self.root, spec.index),
                case_timeout=self.config.case_timeout)
        previous_worker = faults.current_worker()
        if self.fault_plan is not None:
            faults.install(self.fault_plan)
        try:
            return worker.run_leases(self.lease_board)
        except faults.WorkerKilled as death:
            self.events.append(SupervisorEvent(
                spec.index, FailureKind.WORKER_CRASH, str(death), "abort"))
            raise CampaignAborted(
                f"shard {spec.index} failed inline after the circuit "
                f"breaker opened: {death}") from death
        except LeaseBoardError as damage:
            # The inline fallback shares the board file with everyone
            # else; if the board itself is the casualty there is no
            # schedule left to run, and the operator needs the board
            # path, not a JSON traceback.
            self.events.append(SupervisorEvent(
                spec.index, FailureKind.SYNC_ERROR, str(damage), "abort"))
            raise CampaignAborted(
                f"shard {spec.index} cannot continue: {damage}") from damage
        finally:
            faults.set_current_worker(previous_worker)
