"""Unit and property tests for the work-stealing scheduler layer.

The accounting contract (DESIGN.md §13) pinned here, independent of any
campaign: every carved lease completes exactly once, completed sizes
always sum to the requested budget, and reclaimed leases keep their
identity.
"""

import json
import pickle
import random

import pytest

from repro.parallel.scheduler import (
    FileLeaseBoard,
    LeaseBoard,
    LeaseBoardError,
    split_budget,
)


def _churn(rng, board, workers, mirror=None):
    """Drive *board* until drained with random claims, completions and
    reclaims, with up to three leases in flight; every step is repeated
    on *mirror* (a :class:`FileLeaseBoard`), which must hand out the
    same leases."""
    held = []  # (worker, lease) in flight
    while not board.drained():
        if held and (len(held) >= 3 or rng.random() < 0.5):
            worker, lease = held.pop(rng.randrange(len(held)))
            if rng.random() < 0.2:
                # The worker died: everything it holds goes back.
                held = [(w, other) for w, other in held if w != worker]
                assert board.reclaim(worker) >= 1
                if mirror is not None:
                    mirror.reclaim(worker)
            else:
                board.complete(lease.id, worker)
                if mirror is not None:
                    mirror.complete(lease.id, worker)
            continue
        worker = rng.randrange(workers)
        lease = board.claim(worker)
        if mirror is not None:
            assert mirror.claim(worker) == lease
        if lease is not None:
            held.append((worker, lease))


class TestLeaseBoard:
    def test_fixed_lease_size_is_honoured_exactly(self):
        board = LeaseBoard(total=60, workers=3, lease_size=10)
        lease = board.claim(0)
        assert lease.size == 10

    def test_remainder_lease_is_short(self):
        board = LeaseBoard(total=25, workers=1, lease_size=10)
        sizes = []
        while (lease := board.claim(0)) is not None:
            sizes.append(lease.size)
            board.complete(lease.id, 0)
        assert sizes == [10, 10, 5]
        assert board.drained()

    def test_reclaimed_lease_keeps_identity_and_is_reissued_first(self):
        board = LeaseBoard(total=300, workers=2, lease_size=100)
        lease = board.claim(0)
        board.reclaim_lease(lease.id)
        reissued = board.claim(1)
        assert (reissued.id, reissued.size) == (lease.id, lease.size)
        assert board.reclaims == 1
        board.complete(reissued.id, 1)
        record = board.log[-1]
        assert record.reissued and record.steal
        assert record.worker == 1

    def test_claim_beyond_fair_share_counts_as_steal(self):
        board = LeaseBoard(total=200, workers=2, lease_size=50)
        for _ in range(2):  # worker 0 claims its full 100-case share
            lease = board.claim(0)
            board.complete(lease.id, 0)
        assert board.steals == 0
        lease = board.claim(0)  # third claim crosses ceil(200/2)
        board.complete(lease.id, 0)
        assert board.steals == 1
        assert board.log[-1].steal

    @pytest.mark.parametrize("lease_size", [0, -5])
    def test_leases_smaller_than_one_case_are_rejected(self, lease_size):
        with pytest.raises(ValueError, match="lease_size must be >= 1"):
            LeaseBoard(total=10, workers=1, lease_size=lease_size)

    def test_double_complete_asserts(self):
        board = LeaseBoard(total=10, workers=1, lease_size=10)
        lease = board.claim(0)
        board.complete(lease.id, 0)
        with pytest.raises(KeyError):
            board.complete(lease.id, 0)

    def test_accounting_invariant_under_random_churn(self):
        rng = random.Random(1234)
        for trial in range(25):
            total = rng.randrange(1, 2000)
            workers = rng.randrange(1, 6)
            board = LeaseBoard(total=total, workers=workers,
                               lease_size=rng.choice([1, 7, 64]))
            _churn(rng, board, workers)
            assert board.completed_total() == total
            ids = [record.id for record in board.log]
            assert len(ids) == len(set(ids)), "a lease completed twice"

    def test_pinned_churn_completes_exactly_the_divmod_shares(self):
        rng = random.Random(4321)
        for trial in range(25):
            total = rng.randrange(0, 2000)
            workers = rng.randrange(1, 6)
            board = LeaseBoard(total=total, workers=workers,
                               lease_size=rng.choice([1, 7, 64]),
                               pinned=True)
            _churn(rng, board, workers)
            done = [0] * workers
            for record in board.log:
                done[record.worker] += record.size
            assert done == split_budget(total, workers)
            assert board.steals == 0
            assert not any(record.steal for record in board.log)
            ids = [record.id for record in board.log]
            assert len(ids) == len(set(ids)), "a lease completed twice"

    @pytest.mark.parametrize("pinned", [False, True],
                             ids=["shared", "pinned"])
    def test_file_board_matches_in_memory_board_under_churn(self, tmp_path,
                                                            pinned):
        rng = random.Random(77)
        for trial in range(6):
            total = rng.randrange(0, 400)
            workers = rng.randrange(1, 5)
            lease_size = rng.choice([1, 7, 64]) if not pinned else 9
            board = LeaseBoard(total=total, workers=workers,
                               lease_size=lease_size, pinned=pinned)
            mirror = FileLeaseBoard.create(
                tmp_path / str(trial), total, workers,
                lease_size=lease_size, pinned=pinned)
            _churn(rng, board, workers, mirror)
            assert mirror.finished()
            assert mirror.summary() == board.summary()
            assert (json.loads(mirror.state_path.read_text())
                    == board.to_state())

    def test_board_pickles_for_checkpoints(self):
        board = LeaseBoard(total=50, workers=2, lease_size=10)
        lease = board.claim(0)
        board.complete(lease.id, 0)
        clone = pickle.loads(pickle.dumps(board))
        assert clone.completed_total() == 10
        assert clone.log[0].id == lease.id

class TestPinnedLeaseBoard:
    """The static schedule's board: one pool per worker."""

    def test_pools_are_the_divmod_shares(self):
        board = LeaseBoard(total=50, workers=3, lease_size=10, pinned=True)
        assert board.remaining == [17, 17, 16] == split_budget(50, 3)

    def test_pinned_leases_are_claimed_only_by_their_owner(self):
        board = LeaseBoard(total=30, workers=2, lease_size=10, pinned=True)
        sizes = []
        while (lease := board.claim(0)) is not None:
            sizes.append(lease.size)
            board.complete(lease.id, 0)
        assert sizes == [10, 5]
        # Worker 1's pool is untouched, and nobody else can draw on it.
        assert board.remaining == [0, 15]
        assert board.claim(2) is None
        assert not board.drained()
        lease = board.claim(1)
        assert lease.size == 10
        assert board.claim(0) is None

    def test_reclaimed_pinned_lease_returns_to_its_owner(self):
        board = LeaseBoard(total=40, workers=2, lease_size=10, pinned=True)
        lost = board.claim(0)
        board.reclaim_lease(lost.id)
        # Worker 1 carves from its own pool; the lost lease waits for 0.
        other = board.claim(1)
        assert other.id != lost.id
        board.complete(other.id, 1)
        again = board.claim(0)
        assert (again.id, again.size) == (lost.id, lost.size)
        board.complete(again.id, 0)
        record = board.log[-1]
        assert record.reissued and not record.steal
        assert (board.steals, board.reclaims) == (0, 1)

    def test_reissue_to_the_owner_is_not_a_steal_on_a_shared_pool(self):
        board = LeaseBoard(total=40, workers=2, lease_size=10)
        lost = board.claim(0)
        board.reclaim_lease(lost.id)
        again = board.claim(0)
        board.complete(again.id, 0)
        assert board.log[-1].reissued and not board.log[-1].steal
        assert board.steals == 0

    def test_exhausted_is_per_pool(self):
        pinned = LeaseBoard(total=20, workers=2, lease_size=10, pinned=True)
        held = pinned.claim(1)
        lease = pinned.claim(0)
        pinned.complete(lease.id, 0)
        # Worker 0 has nothing left to wait for; worker 1 still holds a
        # lease of its own pool that could be reclaimed.
        assert pinned.exhausted(0)
        assert not pinned.exhausted(1)
        shared = LeaseBoard(total=20, workers=2, lease_size=10)
        held = shared.claim(1)
        lease = shared.claim(0)
        shared.complete(lease.id, 0)
        assert not shared.exhausted(0)  # worker 1's lease may come back
        shared.complete(held.id, 1)
        assert shared.exhausted(0) and shared.exhausted(1)

    def test_stranded_work_has_no_live_claimant(self):
        pinned = LeaseBoard(total=20, workers=2, lease_size=10, pinned=True)
        lease = pinned.claim(0)
        pinned.complete(lease.id, 0)
        lost = pinned.claim(1)
        pinned.reclaim_lease(lost.id)
        assert pinned.stranded([0])
        assert not pinned.stranded([1])
        shared = LeaseBoard(total=20, workers=2, lease_size=10)
        assert not shared.stranded([1])
        assert shared.stranded([])
        assert not LeaseBoard(total=0, workers=2).stranded([])

    def test_pinned_file_board_lets_the_owner_stop_polling(self, tmp_path):
        board = FileLeaseBoard.create(tmp_path, 20, 2, lease_size=10,
                                      pinned=True)
        board.claim(1)
        lease = board.claim(0)
        board.complete(lease.id, 0)
        assert board.claim(0) is None
        assert board.exhausted(0)
        assert not board.exhausted(1)
        assert not board.finished()


class TestFileLeaseBoard:
    def test_claim_complete_roundtrip(self, tmp_path):
        board = FileLeaseBoard.create(tmp_path, total=30, workers=2,
                                      lease_size=10)
        sizes = []
        while (lease := board.claim(0)) is not None:
            sizes.append(lease.size)
            board.complete(lease.id, 0)
        assert sizes == [10, 10, 10]
        assert board.finished()
        summary = board.summary()
        assert summary["completed"] == 30
        assert [record.id for record in summary["log"]] == [0, 1, 2]

    def test_reclaim_requeues_a_dead_workers_claims(self, tmp_path):
        board = FileLeaseBoard.create(tmp_path, total=40, workers=2,
                                      lease_size=10)
        dead = board.claim(0)
        board.claim(1)
        assert board.reclaim(0) == 1
        assert not board.finished()
        reissued = board.claim(1)
        assert (reissued.id, reissued.size) == (dead.id, dead.size)
        summary = board.summary()
        assert summary["reclaims"] == 1

    def test_complete_after_reclaim_is_a_noop(self, tmp_path):
        # A worker presumed dead that races its own completion against
        # the supervisor's reclaim must not double-count the lease.
        board = FileLeaseBoard.create(tmp_path, total=20, workers=2,
                                      lease_size=10)
        lease = board.claim(0)
        board.reclaim(0)
        board.complete(lease.id, 0)  # late completion: ignored
        assert board.summary()["completed"] == 0
        reissued = board.claim(1)
        board.complete(reissued.id, 1)
        assert board.summary()["completed"] == 10

    def test_fresh_create_clobbers_previous_campaign(self, tmp_path):
        board = FileLeaseBoard.create(tmp_path, total=10, workers=1,
                                      lease_size=10)
        lease = board.claim(0)
        board.complete(lease.id, 0)
        board = FileLeaseBoard.create(tmp_path, total=20, workers=1,
                                      lease_size=10)
        assert not board.finished()
        assert board.summary()["completed"] == 0


def _scribbled_board(tmp_path, garbage: str) -> FileLeaseBoard:
    board = FileLeaseBoard.create(tmp_path, 16, 2, lease_size=8)
    board.state_path.write_text(garbage)
    return board


@pytest.mark.parametrize("garbage", ["{truncated", "", "[1, 2, 3]", "42"])
def test_corrupt_board_raises_lease_board_error(tmp_path, garbage):
    """A scribbled ``board.json`` raises a clear :class:`LeaseBoardError`,
    not a raw JSON traceback."""
    board = _scribbled_board(tmp_path, garbage)
    for operation in (lambda: board.claim(0), board.finished,
                      board.summary):
        with pytest.raises(LeaseBoardError) as excinfo:
            operation()
        # The message must name the file so the operator can act on it.
        assert str(board.state_path) in str(excinfo.value)


def test_corrupt_board_error_is_restartable(tmp_path):
    """A fresh create() over the scribbled file recovers the board —
    the supervisor's restart path after a LeaseBoardError death."""
    board = _scribbled_board(tmp_path, "{nope")
    with pytest.raises(LeaseBoardError):
        board.finished()
    recreated = FileLeaseBoard.create(tmp_path, 16, 2, lease_size=8)
    assert recreated.claim(0).size == 8
    assert not recreated.finished()


def test_adaptive_era_board_raises_lease_board_error(tmp_path):
    """A ``board.json`` written by an adaptively sized campaign
    (``lease_size: 0`` plus its size bounds) is not run as 1-case
    leases: loading it names the file."""
    board = FileLeaseBoard.create(tmp_path, 16, 2, lease_size=8)
    state = json.loads(board.state_path.read_text())
    state.update(lease_size=0, lease_min=64, lease_max=256)
    board.state_path.write_text(json.dumps(state))
    with pytest.raises(LeaseBoardError) as excinfo:
        board.claim(0)
    assert str(board.state_path) in str(excinfo.value)
    assert "lease_size must be >= 1" in str(excinfo.value)


def test_unreadable_board_raises_lease_board_error(tmp_path):
    board = FileLeaseBoard.create(tmp_path, 16, 2)
    board.state_path.unlink()
    with pytest.raises(LeaseBoardError, match="unreadable"):
        board.finished()
