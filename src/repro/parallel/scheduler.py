"""Lease-board scheduling (DESIGN.md §13).

Every parallel campaign runs on a **lease board**: the budget is carved
into leases of one sync round each (``sync_every`` cases, only the last
lease of a pool may be shorter) that workers claim, run, and complete,
and a dead worker's leases are reclaimed for re-issue. The schedule
only decides how the board is pooled:

* ``static`` pins one pool per worker, sized by the fixed divmod split
  (:func:`split_budget`), that only the owner may claim from;
* ``stealing`` shares one pool that any idle worker may pull from.

Two pieces live here, both shared by inline and process mode:

* :class:`LeaseBoard` — the in-memory board and the one accounting core
  (every lease id completes exactly once, completed sizes sum to the
  budget);
* :class:`FileLeaseBoard` — the same board persisted as one
  flock-guarded JSON file, for process-mode workers that share nothing
  but the sync directory. Each operation loads a :class:`LeaseBoard`,
  runs it, and writes it back under an exclusive lock.

Determinism: the board appends one :class:`LeaseRecord` per *completed*
lease. Lease sizes never depend on timing, so every inline campaign,
static or stealing, is fully deterministic.
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
    #: Cases per lease (one sync round); only a pool's last lease may
    #: be shorter.
    lease_size: int = 1
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
        if self.lease_size < 1:
            raise ValueError("lease_size must be >= 1")
        self.remaining = (split_budget(self.total, self.workers) if pinned
                          else [self.total])

    def _pool(self, worker: int) -> int:
        return worker if len(self.remaining) > 1 else 0

    # --- claim / complete / reclaim ------------------------------------

    def claim(self, worker: int) -> Lease | None:
        """The next lease for *worker*, or ``None`` when nothing is
        claimable (the board may still have issued leases in flight)."""
        pool = self._pool(worker)
        back = next((entry for entry in self.reissue
                     if self._pool(entry[2]) == pool), None)
        if back is not None:
            self.reissue.remove(back)
            lease_id, size, owner = back
        elif pool < len(self.remaining) and self.remaining[pool] > 0:
            size = min(self.remaining[pool], self.lease_size)
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
            "lease_size": self.lease_size, "next_id": self.next_id,
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
               lease_size: int = 1,
               pinned: bool = False) -> "FileLeaseBoard":
        """Write a fresh board (clobbering any previous campaign's)."""
        board = cls(root)
        board.dir.mkdir(parents=True, exist_ok=True)
        board._save(LeaseBoard(total=total, workers=workers,
                               lease_size=lease_size, pinned=pinned))
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

    def claim(self, worker: int) -> Lease | None:
        with _locked(self.lock_path):
            board = self._load()
            lease = board.claim(worker)
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
