"""Chaos suite, work-stealing schedule: injected deaths against the
lease board.

The accounting contract pinned here (DESIGN.md §13): no matter which
workers die, every carved lease lands in the completion ledger exactly
once, completed sizes sum to the budget, and a retired worker's lease
is re-issued — same id, same size — to a survivor. With restarts in
budget the run is additionally bit-identical to a clean one, because
the killed worker replays its lease from the pre-lease snapshot.
"""

import random

import pytest

from repro import Vendor, faults
from repro.faults import FaultPlan, FaultSpec
from repro.resilience import (
    CampaignAborted,
    ParallelCampaign,
    campaign_fingerprint,
)

SEED = 11
BUDGET = 60
SYNC_EVERY = 10


def _campaign(**overrides):
    kwargs = dict(hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED,
                  workers=3, schedule="stealing", sync_every=SYNC_EVERY,
                  mode="inline")
    kwargs.update(overrides)
    return ParallelCampaign(**kwargs)


def _ledger_is_sound(result, budget=BUDGET):
    assert result.engine_stats.iterations == budget
    assert sum(record.size for record in result.lease_log) == budget
    ids = [record.id for record in result.lease_log]
    assert len(ids) == len(set(ids)), "a lease completed twice"


class TestKillWithRestartBudget:
    def test_killed_worker_replays_lease_bit_for_bit(self):
        clean = _campaign().run(BUDGET)
        plan = FaultPlan([FaultSpec("kill_worker", worker=1, at_case=7)])
        with faults.injected(plan):
            faulted = _campaign().run(BUDGET)
        assert plan.exhausted
        _ledger_is_sound(faulted)
        assert faulted.reclaims == 0
        assert campaign_fingerprint(faulted) == campaign_fingerprint(clean)

    def test_accounting_survives_randomised_kills(self):
        # Property sweep: a handful of seeded kill schedules, each
        # scattering deaths across workers and case indices. Restarts
        # stay in budget, so the ledger must balance every time.
        rng = random.Random(99)
        for _ in range(5):
            plan = FaultPlan([
                FaultSpec("kill_worker", worker=rng.randrange(3),
                          at_case=rng.randrange(1, 20))
                for _ in range(rng.randrange(1, 4))])
            with faults.injected(plan):
                result = _campaign(max_restarts=10).run(BUDGET)
            _ledger_is_sound(result)


class TestRetireAndReclaim:
    def test_reclaimed_lease_is_executed_exactly_once(self):
        # max_restarts=0: the first death retires worker 1 outright.
        # Its in-flight lease must come back with the same identity,
        # flagged as re-issued, and the survivors must drain the board.
        plan = FaultPlan([FaultSpec("kill_worker", worker=1, at_case=7)])
        campaign = _campaign(max_restarts=0)
        with faults.injected(plan):
            result = campaign.run(BUDGET)
        assert plan.exhausted
        _ledger_is_sound(result)
        assert result.reclaims == 1
        reissued = [r for r in result.lease_log if r.reissued]
        assert len(reissued) == 1
        assert reissued[0].worker != 1
        assert any(e.action == "circuit-open" and e.worker == 1
                   for e in campaign.events)
        # The retired worker keeps its pre-lease progress; partners
        # absorb the rest of the budget.
        assert sum(r.engine_stats.iterations
                   for r in result.per_worker) == BUDGET

    def test_all_workers_retired_aborts(self):
        plan = FaultPlan([
            FaultSpec("kill_worker", worker=0, at_case=2),
            FaultSpec("kill_worker", worker=1, at_case=2),
            FaultSpec("kill_worker", worker=2, at_case=2)])
        campaign = _campaign(max_restarts=0)
        with faults.injected(plan):
            with pytest.raises(CampaignAborted):
                campaign.run(BUDGET)
        circuit = [e for e in campaign.events if e.action == "circuit-open"]
        assert len(circuit) == 3


class TestProcessKillReclaim:
    def test_supervisor_reclaims_a_dead_workers_lease(self, tmp_path):
        # Forked worker 1 dies mid-lease; the supervisor must reclaim
        # its lease for the replacement (or a partner) so the board
        # still drains to exactly the budget.
        plan = FaultPlan([FaultSpec("kill_worker", worker=1, at_case=7)])
        result = ParallelCampaign(
            hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED, workers=2,
            schedule="stealing", sync_every=25,
            mode="process", sync_dir=tmp_path,
            fault_plan=plan).run(100, sample_every=25)
        _ledger_is_sound(result, budget=100)
        assert result.reclaims >= 1
