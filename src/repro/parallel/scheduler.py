"""Lease-board scheduling, warm pools, adaptive sync (DESIGN.md §13).

Every parallel campaign runs on a **lease board**: the budget is carved
into chunks ("leases") that workers claim, run, and complete one sync
round at a time, and a dead worker's leases are reclaimed for re-issue.
The schedule only decides how the board is carved:

* ``static`` pins one pool per worker, sized by the fixed divmod split
  (:func:`split_budget`), and cuts it into ``sync_every``-sized leases
  that only the owner may claim;
* ``stealing`` shares one pool, cut into fixed or adaptively sized
  leases (from each claimant's measured cases/sec) that any idle
  worker may pull.

Three pieces live here, all shared by inline and process mode:

* :class:`LeaseBoard` — the in-memory board and the one accounting core
  (every lease id completes exactly once, completed sizes sum to the
  budget);
* :class:`FileLeaseBoard` — the same board persisted as one
  flock-guarded JSON file, for process-mode workers that share nothing
  but the sync directory. Each operation loads a :class:`LeaseBoard`,
  runs it, and writes it back under an exclusive lock.
* :class:`AdaptiveSync` — the sync-interval controller: back off
  geometrically while the subsumption filter absorbs >90% of imports
  (syncing is pure overhead then), snap back to the base interval the
  moment an import lights a new virgin bit.

Determinism: the board appends one :class:`LeaseRecord` per *completed*
lease. Inline campaigns with fixed lease sizes (static always, stealing
with a fixed ``lease_size``) are fully deterministic; with adaptive
sizing the lease log is the one nondeterministic input, and replaying a
recorded log (``ParallelCampaign(lease_log=...)``) reproduces the
campaign fingerprint bit for bit (pinned by
``tests/parallel/test_stealing_campaign.py``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field
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
    #: Inline sync-round number the lease completed in (in process
    #: mode, the claimant's own round counter).
    round: int = 0
    #: Claimed past the claimant's fair share of a shared pool, or
    #: re-issued to a worker other than the one that lost it — work
    #: that a static split would have assigned to somebody else.
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


def split_budget(total: int, workers: int) -> list[int]:
    """The static divmod split: the first ``total % workers`` shares
    get one extra case."""
    base, remainder = divmod(total, workers)
    return [base + (1 if i < remainder else 0) for i in range(workers)]


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
    """The lease queue and its accounting, for both schedules.

    The budget not yet carved sits in pools (:attr:`remaining`). One
    pool is shared by every worker (stealing); with ``pinned=True``
    there is one pool per worker, sized by :func:`split_budget`, and
    pool ``w`` belongs to worker ``w`` alone (static).

    Invariants (the accounting contract the property tests pin):

    * ``remaining + issued + completed`` iteration counts always sum to
      ``total``;
    * a lease id is completed at most once, and :meth:`drained` is true
      exactly when every carved lease has completed;
    * a reclaimed lease keeps its id and size, returns to its pool, and
      is served to that pool's next claimant before any fresh budget is
      carved. Handing it back to the worker that lost it is not a steal.
    """

    total: int
    workers: int = 1
    lease_size: int = 0  # fixed cases per lease; 0 = adaptive
    lease_min: int = LEASE_MIN
    lease_max: int = LEASE_MAX
    pinned: InitVar[bool] = False
    #: Cases not yet carved, per pool.
    remaining: list = field(init=False)
    next_id: int = field(default=0, init=False)
    #: id -> (worker, size, steal, reissued) for claimed-but-unfinished
    #: leases.
    issued: dict = field(default_factory=dict, init=False)
    #: id -> size for finished leases.
    completed: dict = field(default_factory=dict, init=False)
    #: Reclaimed leases awaiting re-issue, FIFO: (id, size, last owner).
    reissue: list = field(default_factory=list, init=False)
    #: worker -> iterations claimed so far (steal classification).
    claimed_by: dict = field(default_factory=dict, init=False)
    log: list = field(default_factory=list, init=False)
    steals: int = 0
    reclaims: int = 0

    def __post_init__(self, pinned: bool) -> None:
        if self.total < 0:
            raise ValueError("total must be >= 0")
        self.remaining = (split_budget(self.total, self.workers) if pinned
                          else [self.total])

    def _pool(self, worker: int) -> int:
        return worker if len(self.remaining) > 1 else 0

    # --- claim / complete / reclaim ------------------------------------

    def claim(self, worker: int, *, rate: float = 0.0) -> Lease | None:
        """The next lease for *worker*, or ``None`` when nothing is
        claimable (the board may still have issued leases in flight)."""
        pool = self._pool(worker)
        back = next((entry for entry in self.reissue
                     if self._pool(entry[2]) == pool), None)
        if back is not None:
            self.reissue.remove(back)
            lease_id, size, owner = back
        elif pool < len(self.remaining) and self.remaining[pool] > 0:
            size = _cut(self.remaining[pool], self.lease_size,
                        self.lease_min, self.lease_max, rate)
            lease_id = self.next_id
            self.next_id += 1
            self.remaining[pool] -= size
            owner = worker
        else:
            return None
        steal = (owner != worker or self.claimed_by.get(worker, 0)
                 >= _fair_share(self.total, self.workers))
        return self._issue(worker, lease_id, size, steal, back is not None)

    def _issue(self, worker: int, lease_id: int, size: int, steal: bool,
               reissued: bool) -> Lease:
        self.claimed_by[worker] = self.claimed_by.get(worker, 0) + size
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
        """Return one issued lease to its pool (its owner died)."""
        worker, size, _steal, _re = self.issued.pop(lease_id)
        self.claimed_by[worker] = self.claimed_by.get(worker, 0) - size
        self.reissue.append((lease_id, size, worker))
        self.reclaims += 1
        telemetry.counter("sched.reclaims")

    def reclaim(self, worker: int) -> int:
        """Reclaim every unfinished lease *worker* holds; returns how
        many. Only safe once the owner is known dead."""
        mine = sorted(lease_id for lease_id, entry in self.issued.items()
                      if entry[0] == worker)
        for lease_id in mine:
            self.reclaim_lease(lease_id)
        return len(mine)

    def claim_replay(self, record: LeaseRecord, worker: int) -> Lease:
        """Claim exactly *record* (lease-log replay of a shared pool)."""
        if record.size > self.remaining[0]:
            raise ValueError(
                f"lease log does not fit the budget: lease {record.id} "
                f"needs {record.size}, {self.remaining[0]} remaining")
        self.remaining[0] -= record.size
        return self._issue(worker, record.id, record.size, record.steal,
                           record.reissued)

    # --- progress -------------------------------------------------------

    def drained(self) -> bool:
        """Every carved lease has completed and no budget is left."""
        return (not any(self.remaining) and not self.issued
                and not self.reissue)

    def exhausted(self, worker: int) -> bool:
        """Nothing in *worker*'s pool is left, waiting, or in flight.

        The worker may stop polling then: an in-flight lease of its pool
        could still be reclaimed and re-issued, nothing else can.
        """
        pool = self._pool(worker)
        return pool >= len(self.remaining) or (
            self.remaining[pool] == 0
            and not any(self._pool(owner) == pool
                        for _id, _size, owner in self.reissue)
            and not any(self._pool(entry[0]) == pool
                        for entry in self.issued.values()))

    def stranded(self, live) -> bool:
        """Whether some unclaimed work has no claimant among *live*
        workers (a pinned pool whose owner retired, or a shared pool
        with nobody left)."""
        waiting = {pool for pool, left in enumerate(self.remaining) if left}
        waiting.update(self._pool(owner) for _id, _size, owner in self.reissue)
        return bool(waiting - {self._pool(worker) for worker in live})

    def completed_total(self) -> int:
        return sum(self.completed.values())

    def summary(self) -> dict:
        return {"log": list(self.log), "steals": self.steals,
                "reclaims": self.reclaims,
                "completed": self.completed_total()}

    # --- persistence ----------------------------------------------------

    def to_state(self) -> dict:
        """The board as a JSON-ready dict (``board.json``)."""
        return {
            "total": self.total, "workers": self.workers,
            "lease_size": self.lease_size, "lease_min": self.lease_min,
            "lease_max": self.lease_max, "next_id": self.next_id,
            "remaining": list(self.remaining),
            "issued": {str(k): list(v) for k, v in self.issued.items()},
            "completed": {str(k): v for k, v in self.completed.items()},
            "reissue": [list(entry) for entry in self.reissue],
            "claimed_by": {str(k): v for k, v in self.claimed_by.items()},
            "steals": self.steals, "reclaims": self.reclaims,
            "log": [record.to_dict() for record in self.log],
        }

    @classmethod
    def from_state(cls, state: dict) -> "LeaseBoard":
        """Inverse of :meth:`to_state`."""
        board = cls(total=state["total"], workers=state["workers"],
                    lease_size=state["lease_size"],
                    lease_min=state["lease_min"],
                    lease_max=state["lease_max"],
                    steals=state["steals"], reclaims=state["reclaims"])
        board.remaining = list(state["remaining"])
        board.next_id = state["next_id"]
        board.issued = {int(k): tuple(v) for k, v in state["issued"].items()}
        board.completed = {int(k): v for k, v in state["completed"].items()}
        board.reissue = [tuple(entry) for entry in state["reissue"]]
        board.claimed_by = {int(k): v
                            for k, v in state["claimed_by"].items()}
        board.log = [LeaseRecord.from_dict(raw) for raw in state["log"]]
        return board


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
    """A :class:`LeaseBoard` kept in one flock-guarded JSON file.

    Workers in separate processes share nothing but the sync root, so
    every board operation loads the board from
    ``<root>/leases/board.json`` under an exclusive lock on
    ``<root>/leases/board.lock``, runs the in-memory operation, and
    writes the board back atomically; a worker crashing
    mid-transaction leaves the previous state intact and its issued
    leases reclaimable by the supervisor.
    """

    DIR = "leases"
    STATE = "board.json"
    LOCK = "board.lock"

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.dir = self.root / self.DIR
        self.state_path = self.dir / self.STATE
        self.lock_path = self.dir / self.LOCK

    @classmethod
    def create(cls, root: Path, total: int, workers: int, *,
               lease_size: int = 0, lease_min: int = LEASE_MIN,
               lease_max: int = LEASE_MAX,
               pinned: bool = False) -> "FileLeaseBoard":
        """Write a fresh board (clobbering any previous campaign's)."""
        board = cls(root)
        board.dir.mkdir(parents=True, exist_ok=True)
        board._save(LeaseBoard(total=total, workers=workers,
                               lease_size=lease_size, lease_min=lease_min,
                               lease_max=lease_max, pinned=pinned))
        return board

    def exists(self) -> bool:
        return self.state_path.exists()

    def _load(self) -> LeaseBoard:
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
        try:
            return LeaseBoard.from_state(state)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise LeaseBoardError(
                f"lease board {self.state_path} has unexpected shape "
                f"({type(state).__name__}: {exc!r}); a fresh campaign "
                f"must recreate it") from exc

    def _save(self, board: LeaseBoard) -> None:
        payload = json.dumps(board.to_state(), sort_keys=True).encode()
        atomic_write_bytes(self.state_path, payload)

    # --- transactions ---------------------------------------------------

    def claim(self, worker: int, *, rate: float = 0.0) -> Lease | None:
        with _locked(self.lock_path):
            board = self._load()
            lease = board.claim(worker, rate=rate)
            if lease is not None:
                self._save(board)
        return lease

    def complete(self, lease_id: int, worker: int, *,
                 round_no: int = 0) -> None:
        """Retire *lease_id*; a no-op when a reclaim already took it back
        (a worker presumed dead racing its own completion must never be
        double-counted)."""
        with _locked(self.lock_path):
            board = self._load()
            if lease_id in board.issued:
                board.complete(lease_id, worker, round_no=round_no)
                self._save(board)

    def reclaim(self, worker: int) -> int:
        """Re-queue every unfinished lease *worker* holds; returns how
        many were reclaimed. Only safe once the owner is known dead."""
        with _locked(self.lock_path):
            board = self._load()
            reclaimed = board.reclaim(worker)
            if reclaimed:
                self._save(board)
        return reclaimed

    def exhausted(self, worker: int) -> bool:
        """:meth:`LeaseBoard.exhausted` on the current file state."""
        return self._load().exhausted(worker)

    def finished(self) -> bool:
        """No budget left, nothing issued, nothing awaiting re-issue.

        A corrupt board raises :class:`LeaseBoardError` (it used to
        return ``False``, which left idle process workers spinning on a
        board that could never drain — a silent hang; crashing is
        restartable, spinning is not).
        """
        return self._load().drained()

    def summary(self) -> dict:
        return self._load().summary()


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
