"""One shard of a parallel campaign: a full agent + engine pair.

Worker 0 always receives the campaign seed verbatim, which is what makes
a one-worker parallel campaign reproduce the serial ``NecoFuzz.run``
bit for bit; workers 1..N-1 get seeds derived through the same
multiplier :meth:`repro.fuzzer.rng.Rng.fork` uses, with a salt space
disjoint from the campaign's own seed-corpus salts.

A worker runs its share one lease at a time: each lease is one sync
round, after which it exports its finds and imports its partners'.

Resilience plumbing (all optional, off in the plain fast path):

* ``heartbeat_path`` — the worker stamps its case counter there before
  every case, so the supervisor can tell a hung case from a live one;
* ``checkpoint_path`` — after every sync round the worker pickles its
  complete state (engine, agent, RNG, queue, timeline) atomically, so a
  restarted replacement resumes from the last round instead of redoing
  the whole share;
* an installed :mod:`repro.faults` plan is consulted before each case
  for injected kills and delays.
"""

from __future__ import annotations

import hashlib
import logging
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import faults, telemetry
from repro.analysis.timeline import CoverageTimeline
from repro.core.necofuzz import CampaignResult, NecoFuzz
from repro.fuzzer.crashes import atomic_write_bytes
from repro.parallel.sync import SyncDirectory, SyncStats
from repro.parallel.wire import LineCodec

log = logging.getLogger("repro.parallel")

#: Salt base for derived worker seeds (disjoint from the small corpus
#: salts NecoFuzz.__post_init__ forks off the campaign RNG).
_WORKER_SALT = 0x9E3779B9


def worker_seed(campaign_seed: int, index: int) -> int:
    """Deterministic per-worker engine seed.

    Index 0 is the campaign seed itself (serial == 1-worker contract);
    other indices reuse the ``Rng.fork`` mixing so derived seeds are
    decorrelated from the campaign seed and from each other.
    """
    if index == 0:
        return campaign_seed
    return (campaign_seed * 1_000_003 + _WORKER_SALT + index) & 0xFFFFFFFFFFFFFFFF


@dataclass
class WorkerSpec:
    """Static description of one worker's shard."""

    index: int
    seed: int
    iterations: int  # this worker's share of the campaign budget


@dataclass
class WorkerReport:
    """Everything the orchestrator needs back from one worker."""

    index: int
    share: int
    result: CampaignResult
    #: Per-sample newly covered lines: (local iteration, line delta).
    samples: list[tuple[int, frozenset]]
    #: Snapshot of the worker's virgin map for the merged map — empty
    #: when the worker published into a shared-memory map instead.
    virgin_bits: bytes
    #: Order-sensitive digest of the final seed queue (entry data +
    #: provenance flags) — the corpus half of the campaign fingerprint.
    corpus_digest: str = ""
    #: Cases whose wall-clock time exceeded the per-case deadline
    #: (observed post hoc in inline mode, enforced by the supervisor in
    #: process mode).
    deadline_overruns: int = 0
    #: Per-phase sync wall-clock breakdown (None when not syncing).
    sync_stats: SyncStats | None = None
    #: Process-mode only: the worker process's final metrics-registry
    #: snapshot (:meth:`repro.telemetry.MetricsRegistry.snapshot`), so
    #: the orchestrator can merge without touching the filesystem.
    #: ``None`` in inline mode, where metrics land in the campaign
    #: registry directly.
    telemetry: dict | None = None


@dataclass
class CampaignWorker:
    """Drives one shard in chunks, sampling like the serial loop does."""

    spec: WorkerSpec
    campaign_kwargs: dict
    sample_every: int = 10
    sync: SyncDirectory | None = None
    #: Supervisor liveness file; stamped before every case.
    heartbeat_path: Path | None = None
    #: Atomic whole-worker snapshot written after every sync round.
    checkpoint_path: Path | None = None
    #: Per-case wall-clock deadline (bookkeeping only in-process; the
    #: supervisor is what actually preempts a hung process worker).
    case_timeout: float | None = None
    #: Shared-memory virgin-map publisher (process mode). Process-local:
    #: dropped from checkpoints and re-injected by whichever process
    #: restores the worker.
    virgin_publisher: Callable[[bytes], None] | None = None
    done: int = field(default=0, init=False)
    deadline_overruns: int = field(default=0, init=False)
    _published_generation: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.campaign = NecoFuzz(seed=self.spec.seed, **self.campaign_kwargs)
        label = (f"NecoFuzz/{self.campaign.hypervisor}/"
                 f"{self.campaign.vendor.value}")
        if self.spec.index:
            label += f"[w{self.spec.index}]"
        self.timeline = CoverageTimeline(label, self.campaign.iterations_per_hour)
        self.samples: list[tuple[int, frozenset]] = []
        self._seen_lines: set = set()
        #: Shared line-index table for wire records; identical
        #: across workers because they instrument the same modules.
        self.line_codec = LineCodec(self.campaign.agent.tracer.instrumented)

    @property
    def finished(self) -> bool:
        return self.done >= self.spec.iterations

    def _heartbeat(self) -> None:
        if self.heartbeat_path is not None:
            try:
                self.heartbeat_path.write_text(f"{self.done}\n")
            except OSError:
                pass  # liveness reporting must never kill the worker

    def run_chunk(self, budget: int) -> int:
        """Run up to *budget* engine steps of the remaining share.

        Sampling follows the exact serial rule (`i % sample_every == 0
        or i == share`) over the worker's local iteration counter, so a
        one-worker campaign produces the serial timeline.
        """
        steps = min(budget, self.spec.iterations - self.done)
        agent = self.campaign.agent
        engine = self.campaign.engine
        plan = faults.active()
        # Tag hook firings — and telemetry — with this worker for the
        # chunk only: inline mode interleaves workers in one process,
        # so the tag must not leak to the next worker (or outlive the
        # campaign).
        previous_worker = faults.current_worker()
        faults.set_current_worker(self.spec.index)
        previous_shard = telemetry.current_shard()
        telemetry.set_shard(self.spec.index)
        timeout = self.case_timeout
        try:
            for _ in range(steps):
                self.done += 1
                self._heartbeat()
                if plan is not None:
                    spec = plan.take_case_fault(self.spec.index, self.done)
                    if spec is not None:
                        plan.record(spec.kind, self.spec.index,
                                    f"case {self.done}")
                        if spec.kind == "kill_worker":
                            raise faults.WorkerKilled(
                                f"worker {self.spec.index} killed at "
                                f"case {self.done}")
                        time.sleep(spec.seconds)
                started = time.monotonic() if timeout else 0.0
                engine.step()
                if timeout and time.monotonic() - started > timeout:
                    self.deadline_overruns += 1
                i = self.done
                if i % self.sample_every == 0 or i == self.spec.iterations:
                    self._sample(i, agent)
        finally:
            faults.set_current_worker(previous_worker)
            telemetry.set_shard(previous_shard)
        return steps

    def run_lease(self, size: int) -> int:
        """Run one lease of *size* cases, extending the share to cover it.

        A static worker's share is preset, and its pinned leases fall
        inside it, so the spec keeps the share (and the serial closing
        sample at ``i == share``). A stealing worker's share is whatever
        it has claimed so far: its spec grows lease by lease, so
        ``finished``, sampling, and reports all see the claimed total.
        """
        self.spec.iterations = max(self.spec.iterations, self.done + size)
        return self.run_chunk(size)

    def _sample(self, i: int, agent) -> None:
        """Record one timeline sample and its newly covered lines."""
        self.timeline.record(i, agent.coverage_fraction)
        covered = agent.covered_lines()
        delta = frozenset(covered - self._seen_lines)
        self._seen_lines |= delta
        self.samples.append((i, delta))

    # --- corpus sync -------------------------------------------------------

    def export(self) -> int:
        """Publish locally found queue entries to the sync directory."""
        if self.sync is None:
            return 0
        with telemetry.shard_scope(self.spec.index):
            return self.sync.export(self.campaign.engine,
                                    codec=self.line_codec)

    def import_new(self) -> int:
        """Consume partners' new entries; keep the locally novel ones."""
        if self.sync is None:
            return 0
        with telemetry.shard_scope(self.spec.index):
            return self.sync.import_new(
                self.campaign.engine, codec=self.line_codec,
                absorb_lines=self.campaign.agent.absorb_lines)

    def publish_virgin(self) -> None:
        """OR local virgin bits into the shared map, if one is attached.

        Free when nothing changed since the last publish (the map's
        generation counter). A failing publisher — the segment vanished
        under us — is dropped for good: reports then carry the full
        snapshot again, so no bits are ever lost.
        """
        publisher = self.virgin_publisher
        if publisher is None:
            return
        virgin = self.campaign.engine.virgin
        if virgin.generation == self._published_generation:
            return
        try:
            with telemetry.shard_scope(self.spec.index):
                publisher(bytes(virgin.bits))
        except Exception as exc:
            log.warning("worker %d: shared virgin-map publish failed (%s); "
                        "falling back to report snapshots",
                        self.spec.index, exc)
            self.virgin_publisher = None
            return
        self._published_generation = virgin.generation

    def run_leases(self, board, *, idle_poll: float = 0.01) -> "WorkerReport":
        """Self-paced process-mode loop: claim, run, sync.

        The worker pulls leases off the shared board until nothing is
        left for it: a static worker stops once its own pool is empty,
        a stealing worker once the board has drained.
        ``board.complete`` runs **before** the checkpoint, so
        the ledger — not the snapshot — is authoritative: a lease can
        never be re-executed because its completion record survives any
        crash that follows it (the converse window, a crash between
        completion and checkpoint, costs at most one lease's engine
        state and is documented in DESIGN.md §13). An idle worker — the
        board is empty but partners still hold leases that may yet be
        reclaimed — keeps stamping its heartbeat so the supervisor does
        not mistake patience for a hang.
        """
        rounds = 0
        while True:
            lease = board.claim(self.spec.index)
            if lease is None:
                if board.exhausted(self.spec.index):
                    break
                self._heartbeat()
                time.sleep(idle_poll)
                continue
            self.run_lease(lease.size)
            board.complete(lease.id, self.spec.index, round_no=rounds)
            self.export()
            self.import_new()
            self.publish_virgin()
            rounds += 1
            with telemetry.shard_scope(self.spec.index):
                telemetry.event("worker.lease", round=rounds,
                                lease=lease.id, size=lease.size,
                                done=self.done)
                telemetry.flush()
            self.save_checkpoint()
        self.export()
        return self.report()

    # --- checkpointing ------------------------------------------------------

    def __getstate__(self) -> dict:
        # The shared-memory publisher is a process-local handle; the
        # restoring process re-injects its own. Dropping the published
        # generation with it forces a full republish after restore — a
        # restarted supervisor may own a brand-new (empty) segment.
        state = self.__dict__.copy()
        state.pop("virgin_publisher", None)
        state.pop("_published_generation", None)
        return state

    def save_checkpoint(self) -> None:
        """Atomically snapshot this worker's complete state, if enabled."""
        if self.checkpoint_path is not None:
            atomic_write_bytes(self.checkpoint_path, pickle.dumps(self))

    @classmethod
    def load_checkpoint(cls, path: Path) -> "CampaignWorker | None":
        """Restore a worker from its snapshot; ``None`` if unreadable."""
        try:
            worker = pickle.loads(Path(path).read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        return worker if isinstance(worker, cls) else None

    # --- results -----------------------------------------------------------

    def corpus_digest(self) -> str:
        """Order-sensitive digest of the current seed queue."""
        digest = hashlib.sha256()
        for entry in self.campaign.engine.queue.entries:
            digest.update(entry.data)
            digest.update(bytes((entry.new_bits, entry.imported)))
            digest.update(entry.found_at.to_bytes(8, "little"))
        return digest.hexdigest()

    def result(self) -> CampaignResult:
        """This worker's own view, shaped exactly like a serial result."""
        agent = self.campaign.agent
        return CampaignResult(
            timeline=self.timeline,
            covered_lines=agent.covered_lines(),
            instrumented_lines=set(agent.tracer.instrumented),
            reports=list(agent.reports.reports),
            engine_stats=self.campaign.engine.stats,
            watchdog_restarts=agent.watchdog.restarts)

    def report(self) -> WorkerReport:
        # With a live shared map the final publish lands there and the
        # report ships an empty snapshot instead of 64 KiB of pickle.
        self.publish_virgin()
        virgin_bits = (b"" if self.virgin_publisher is not None
                       else bytes(self.campaign.engine.virgin.bits))
        return WorkerReport(
            index=self.spec.index,
            share=self.spec.iterations,
            result=self.result(),
            samples=list(self.samples),
            virgin_bits=virgin_bits,
            corpus_digest=self.corpus_digest(),
            deadline_overruns=self.deadline_overruns,
            sync_stats=self.sync.stats if self.sync is not None else None)
