"""Work-stealing shard scheduler, warm pools, adaptive sync (DESIGN.md §13).

The static split in :meth:`ParallelCampaign._specs` fixes every worker's
share up front, so the slowest (or most-restarted) shard defines the
campaign's critical path. This module replaces that with a **lease
queue**: the campaign budget is carved into chunks ("leases") that idle
workers pull on demand, adaptively sized from each worker's measured
cases/sec, and reclaimed for re-issue when their owner dies or stalls.

Three pieces live here, all shared by inline and process mode:

* :class:`LeaseBoard` — the in-memory queue driving inline stealing
  campaigns (and the accounting core the tests pin: every lease id
  completes exactly once, completed sizes sum to the budget).
* :class:`FileLeaseBoard` — the same contract over one flock-guarded
  JSON state file, for process-mode workers that share nothing but the
  sync directory. Claims, completions, and reclaims are read-modify-
  write transactions under an exclusive lock.
* :class:`AdaptiveSync` — the sync-interval controller: back off
  geometrically while the subsumption filter absorbs >90% of imports
  (syncing is pure overhead then), snap back to the base interval the
  moment an import lights a new virgin bit.

Determinism: the board appends one :class:`LeaseRecord` per *completed*
lease. Inline stealing with a fixed ``lease_size`` is fully
deterministic; with adaptive sizing the lease log is the one
nondeterministic input, and replaying a recorded log
(``ParallelCampaign(lease_log=...)``) reproduces the campaign
fingerprint bit for bit (pinned by
``tests/parallel/test_stealing_campaign.py``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.fuzzer.crashes import atomic_write_bytes

try:  # POSIX; process mode already depends on fork-style semantics.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None

#: Adaptive lease-size bounds (cases per lease) and the wall-clock a
#: lease should roughly take: size ~= measured cases/sec * target.
LEASE_MIN = 64
LEASE_MAX = 256
LEASE_TARGET_SECONDS = 0.5

SCHEDULES = ("static", "stealing")


class LeaseBoardError(RuntimeError):
    """The shared lease board is unreadable or corrupt.

    Raised instead of a raw ``JSONDecodeError`` escaping from inside a
    worker: the message names the board file and the failure shape, and
    the supervisor treats the resulting worker death as a restartable
    failure (the board file is written atomically, so corruption means
    external damage, not a mid-write race — a restart surfaces the same
    clear error instead of an opaque traceback).
    """


@dataclass(frozen=True)
class Lease:
    """One claimable chunk of the campaign budget."""

    id: int
    size: int


@dataclass
class LeaseRecord:
    """One completed lease, as the lease log records it."""

    id: int
    worker: int
    size: int
    #: Inline sync-round number the lease completed in (0 in process
    #: mode, where rounds are per-worker and unordered).
    round: int = 0
    #: Claimed past the claimant's static fair share — work that a
    #: static split would have assigned to somebody else.
    steal: bool = False
    #: Previously claimed by a worker that died; re-issued.
    reissued: bool = False

    def to_dict(self) -> dict:
        return {"id": self.id, "worker": self.worker, "size": self.size,
                "round": self.round, "steal": self.steal,
                "reissued": self.reissued}

    @classmethod
    def from_dict(cls, data: dict) -> "LeaseRecord":
        return cls(id=int(data["id"]), worker=int(data["worker"]),
                   size=int(data["size"]), round=int(data.get("round", 0)),
                   steal=bool(data.get("steal", False)),
                   reissued=bool(data.get("reissued", False)))


def _cut(remaining: int, fixed: int, lo: int, hi: int, rate: float) -> int:
    """Next lease size: fixed, or sized from the claimant's rate.

    A fixed size is honoured exactly (it is the determinism knob — only
    the remainder lease may be shorter). Adaptive sizing targets
    ``rate * LEASE_TARGET_SECONDS`` cases so a fast worker amortizes
    claim overhead over bigger leases while a slow one never holds more
    than ~half a second of work hostage — clamped into [lo, hi], and
    never more than what is left.
    """
    if fixed > 0:
        return max(1, min(remaining, fixed))
    size = int(round(rate * LEASE_TARGET_SECONDS)) if rate > 0 else lo
    return max(1, min(remaining, max(lo, min(hi, size))))


def _fair_share(total: int, workers: int) -> int:
    return -(-total // max(1, workers))  # ceil


@dataclass
class LeaseBoard:
    """In-memory lease queue for inline stealing campaigns.

    Invariants (the accounting contract the property tests pin):

    * ``remaining + issued + completed`` iteration counts always sum to
      ``total``;
    * a lease id is completed at most once, and :meth:`drained` is true
      exactly when every carved lease has completed;
    * a reclaimed lease keeps its id and size and is served to the next
      claimant before any fresh budget is carved.
    """

    total: int
    workers: int = 1
    lease_size: int = 0  # fixed cases per lease; 0 = adaptive
    lease_min: int = LEASE_MIN
    lease_max: int = LEASE_MAX
    remaining: int = field(init=False)
    next_id: int = field(default=0, init=False)
    #: id -> (worker, size) for claimed-but-unfinished leases.
    issued: dict = field(default_factory=dict, init=False)
    #: id -> size for finished leases.
    completed: dict = field(default_factory=dict, init=False)
    #: Reclaimed leases awaiting re-issue, FIFO.
    reissue: list = field(default_factory=list, init=False)
    #: worker -> iterations claimed so far (steal classification).
    claimed_by: dict = field(default_factory=dict, init=False)
    log: list = field(default_factory=list, init=False)
    steals: int = 0
    reclaims: int = 0

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ValueError("total must be >= 0")
        self.remaining = self.total

    # --- claim / complete / reclaim ------------------------------------

    def claim(self, worker: int, *, rate: float = 0.0) -> Lease | None:
        """The next lease for *worker*, or ``None`` when nothing is
        claimable (the board may still have issued leases in flight)."""
        reissued = False
        if self.reissue:
            lease_id, size = self.reissue.pop(0)
            reissued = True
        elif self.remaining > 0:
            size = _cut(self.remaining, self.lease_size, self.lease_min,
                        self.lease_max, rate)
            lease_id = self.next_id
            self.next_id += 1
            self.remaining -= size
        else:
            return None
        prior = self.claimed_by.get(worker, 0)
        steal = reissued or prior >= _fair_share(self.total, self.workers)
        self.claimed_by[worker] = prior + size
        self.issued[lease_id] = (worker, size, steal, reissued)
        with telemetry.shard_scope(worker):
            telemetry.counter("sched.leases_issued")
            if steal:
                telemetry.counter("sched.steals")
        if steal:
            self.steals += 1
        return Lease(lease_id, size)

    def complete(self, lease_id: int, worker: int, *, round_no: int = 0) -> None:
        """Retire one issued lease and append it to the lease log."""
        issued_to, size, steal, reissued = self.issued.pop(lease_id)
        assert lease_id not in self.completed, \
            f"lease {lease_id} completed twice"
        self.completed[lease_id] = size
        self.log.append(LeaseRecord(id=lease_id, worker=worker, size=size,
                                    round=round_no, steal=steal,
                                    reissued=reissued))

    def reclaim_lease(self, lease_id: int) -> None:
        """Return one issued lease to the queue (its owner died)."""
        worker, size, _steal, _re = self.issued.pop(lease_id)
        self.claimed_by[worker] = self.claimed_by.get(worker, 0) - size
        self.reissue.append((lease_id, size))
        self.reclaims += 1
        telemetry.counter("sched.reclaims")

    def claim_replay(self, record: LeaseRecord, worker: int) -> Lease:
        """Claim exactly *record* (lease-log replay mode)."""
        if record.size > self.remaining:
            raise ValueError(
                f"lease log does not fit the budget: lease {record.id} "
                f"needs {record.size}, {self.remaining} remaining")
        self.remaining -= record.size
        prior = self.claimed_by.get(worker, 0)
        self.claimed_by[worker] = prior + record.size
        self.issued[record.id] = (worker, record.size, record.steal,
                                  record.reissued)
        if record.steal:
            self.steals += 1
        with telemetry.shard_scope(worker):
            telemetry.counter("sched.leases_issued")
            if record.steal:
                telemetry.counter("sched.steals")
        return Lease(record.id, record.size)

    # --- progress -------------------------------------------------------

    def drained(self) -> bool:
        """Every carved lease has completed and no budget is left."""
        return (self.remaining == 0 and not self.issued
                and not self.reissue)

    def completed_total(self) -> int:
        return sum(self.completed.values())

    def summary(self) -> dict:
        return {"log": list(self.log), "steals": self.steals,
                "reclaims": self.reclaims,
                "completed": self.completed_total()}


# --- process-mode board ----------------------------------------------------


@contextmanager
def _locked(lock_path: Path):
    """Exclusive advisory lock around one board transaction.

    ``flock`` where available (held for the life of the open fd, so a
    crashed holder releases it automatically); a create-exclusive spin
    lock elsewhere.
    """
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is not None:
        with open(lock_path, "a+b") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
        return
    sidecar = lock_path.with_suffix(".claim")  # pragma: no cover
    while True:  # pragma: no cover
        try:
            fd = sidecar.open("x")
        except FileExistsError:
            time.sleep(0.005)
            continue
        try:
            yield
        finally:
            fd.close()
            sidecar.unlink(missing_ok=True)
        return


class FileLeaseBoard:
    """The lease queue as one flock-guarded JSON file (process mode).

    Workers in separate processes share nothing but the sync root, so
    every board operation is a read-modify-write transaction on
    ``<root>/leases/board.json`` under an exclusive lock on
    ``<root>/leases/board.lock``. The state file is written atomically;
    a worker crashing mid-transaction leaves the previous state intact
    and its issued leases reclaimable by the supervisor.
    """

    DIR = "leases"
    STATE = "board.json"
    LOCK = "board.lock"

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.dir = self.root / self.DIR
        self.state_path = self.dir / self.STATE
        self.lock_path = self.dir / self.LOCK

    # --- state plumbing -------------------------------------------------

    @classmethod
    def create(cls, root: Path, total: int, workers: int, *,
               lease_size: int = 0, lease_min: int = LEASE_MIN,
               lease_max: int = LEASE_MAX) -> "FileLeaseBoard":
        """Write a fresh board (clobbering any previous campaign's)."""
        board = cls(root)
        board.dir.mkdir(parents=True, exist_ok=True)
        board._write({
            "total": total, "workers": workers, "lease_size": lease_size,
            "lease_min": lease_min, "lease_max": lease_max,
            "next_id": 0, "remaining": total,
            "issued": {}, "completed": {}, "reissue": [],
            "claimed_by": {}, "steals": 0, "reclaims": 0, "log": [],
        })
        return board

    def exists(self) -> bool:
        return self.state_path.exists()

    def _read(self) -> dict:
        try:
            raw = self.state_path.read_text()
        except OSError as exc:
            raise LeaseBoardError(
                f"lease board {self.state_path} is unreadable: {exc}"
            ) from exc
        try:
            state = json.loads(raw)
        except ValueError as exc:
            raise LeaseBoardError(
                f"lease board {self.state_path} is corrupt "
                f"({exc}); a fresh campaign must recreate it"
            ) from exc
        if not isinstance(state, dict) or "remaining" not in state:
            raise LeaseBoardError(
                f"lease board {self.state_path} has unexpected shape "
                f"({type(state).__name__}); a fresh campaign must "
                f"recreate it")
        return state

    def _write(self, state: dict) -> None:
        payload = json.dumps(state, sort_keys=True).encode()
        atomic_write_bytes(self.state_path, payload)

    # --- transactions ---------------------------------------------------

    @staticmethod
    def _carve(state: dict, worker: int, rate: float
               ) -> tuple[int, int, bool] | None:
        """Cut (or re-issue) the next lease for *worker* inside *state*.

        Mutates *state*; the caller persists it. Returns
        ``(lease_id, size, steal)`` or ``None`` when nothing is
        claimable.
        """
        reissued = False
        if state["reissue"]:
            lease_id, size = state["reissue"].pop(0)
            reissued = True
        elif state["remaining"] > 0:
            size = _cut(state["remaining"], state["lease_size"],
                        state["lease_min"], state["lease_max"], rate)
            lease_id = state["next_id"]
            state["next_id"] += 1
            state["remaining"] -= size
        else:
            return None
        prior = state["claimed_by"].get(str(worker), 0)
        steal = (reissued
                 or prior >= _fair_share(state["total"],
                                         state["workers"]))
        state["claimed_by"][str(worker)] = prior + size
        state["issued"][str(lease_id)] = [worker, size, steal, reissued]
        if steal:
            state["steals"] += 1
        return lease_id, size, steal

    def claim(self, worker: int, *, rate: float = 0.0) -> Lease | None:
        with _locked(self.lock_path):
            state = self._read()
            carved = self._carve(state, worker, rate)
            if carved is None:
                return None
            lease_id, size, steal = carved
            self._write(state)
        with telemetry.shard_scope(worker):
            telemetry.counter("sched.leases_issued")
            if steal:
                telemetry.counter("sched.steals")
        return Lease(lease_id, size)

    def complete(self, lease_id: int, worker: int, *,
                 round_no: int = 0) -> None:
        with _locked(self.lock_path):
            state = self._read()
            entry = state["issued"].pop(str(lease_id), None)
            if entry is None or str(lease_id) in state["completed"]:
                # Already retired (a reclaim raced our completion);
                # never double-count.
                return
            _owner, size, steal, reissued = entry
            state["completed"][str(lease_id)] = size
            state["log"].append(LeaseRecord(
                id=lease_id, worker=worker, size=size, round=round_no,
                steal=bool(steal), reissued=bool(reissued)).to_dict())
            self._write(state)

    def reclaim(self, worker: int) -> int:
        """Re-queue every unfinished lease *worker* holds; returns how
        many were reclaimed. Only safe once the owner is known dead."""
        with _locked(self.lock_path):
            state = self._read()
            mine = [(int(lease_id), entry)
                    for lease_id, entry in state["issued"].items()
                    if entry[0] == worker]
            for lease_id, entry in mine:
                del state["issued"][str(lease_id)]
                size = entry[1]
                state["claimed_by"][str(worker)] = (
                    state["claimed_by"].get(str(worker), 0) - size)
                state["reissue"].append([lease_id, size])
                state["reclaims"] += 1
            if mine:
                self._write(state)
        telemetry.counter("sched.reclaims", len(mine))
        return len(mine)

    def finished(self) -> bool:
        """No budget left, nothing issued, nothing awaiting re-issue.

        A corrupt board raises :class:`LeaseBoardError` (it used to
        return ``False``, which left idle process workers spinning on a
        board that could never drain — a silent hang; crashing is
        restartable, spinning is not).
        """
        state = self._read()
        return (state["remaining"] == 0 and not state["issued"]
                and not state["reissue"])

    def summary(self) -> dict:
        state = self._read()
        return {
            "log": [LeaseRecord.from_dict(raw) for raw in state["log"]],
            "steals": state["steals"],
            "reclaims": state["reclaims"],
            "completed": sum(state["completed"].values()),
        }


# --- adaptive sync ---------------------------------------------------------


@dataclass
class AdaptiveSync:
    """Geometric back-off controller for the corpus-sync interval.

    The worker consults :attr:`interval` (in cases) before scanning
    partners and reports back what each scan round yielded:

    * a round where imports lit **new virgin bits**, or where fewer
      than ``absorb_threshold`` of the consumed entries were absorbed
      by the subsumption filter, snaps the interval back to ``base`` —
      partners are finding things we do not have, sync eagerly;
    * any other round (everything absorbed, or nothing to import at
      all) doubles the interval, capped at ``base * max_factor`` —
      scanning is pure overhead while the filter eats everything.
    """

    base: int
    growth: int = 2
    max_factor: int = 8
    absorb_threshold: float = 0.9
    interval: int = 0

    def __post_init__(self) -> None:
        if self.base < 1:
            raise ValueError("base must be >= 1")
        if self.growth < 2:
            raise ValueError("growth must be >= 2")
        if self.interval <= 0:
            self.interval = self.base

    @property
    def cap(self) -> int:
        return self.base * self.max_factor

    def record_round(self, *, executed: int, subsumed: int,
                     new_bits: bool) -> int:
        """Feed one scan round's outcome; returns the next interval."""
        consumed = executed + subsumed
        productive = new_bits or (
            consumed > 0 and subsumed < self.absorb_threshold * consumed)
        if productive:
            self.interval = self.base
        else:
            self.interval = min(self.interval * self.growth, self.cap)
        return self.interval


# --- warm worker pool ------------------------------------------------------


class PoolMismatch(ValueError):
    """The pooled workers were built for a different campaign shape."""


class WorkerPool:
    """Warm inline workers reused across ``ParallelCampaign.run()`` calls.

    Worker construction is the expensive part of starting a campaign
    (module instrumentation, agent + hypervisor build, bitmap
    allocation). A pool keeps the finished workers — engines, corpora,
    virgin maps and all — so the next ``run()`` on a campaign carrying
    ``pool=`` continues them instead of rebuilding: subsequent runs are
    *continuations* of the same logical campaign (cumulative stats,
    like a corpus resume), which is exactly what long-lived fuzzing
    services want between budget grants.

    The pool is inline-only: process-mode workers already live for the
    whole campaign in their own processes (that is their warm pool),
    and their state dies with them by design.
    """

    def __init__(self) -> None:
        self.workers: dict[int, object] = {}
        self.key: tuple | None = None
        self.runs: int = 0
        self.reused: int = 0

    def compatible(self, key: tuple) -> bool:
        return self.key is None or self.key == key

    def acquire(self, key: tuple, index: int):
        """The warm worker for shard *index*, or ``None`` (cold)."""
        if not self.compatible(key):
            raise PoolMismatch(
                f"pool was built for campaign shape {self.key}, "
                f"requested {key}")
        worker = self.workers.get(index)
        if worker is not None:
            self.reused += 1
            with telemetry.shard_scope(index):
                telemetry.counter("pool.worker_reuse")
        return worker

    def park(self, key: tuple, workers: list) -> None:
        """Keep *workers* warm for the next run."""
        self.key = key
        self.runs += 1
        for worker in workers:
            self.workers[worker.spec.index] = worker
