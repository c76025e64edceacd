"""Work-stealing campaign acceptance tests (DESIGN.md §13).

The determinism contract pinned here: inline stealing with a fixed
``lease_size`` is bit-for-bit reproducible; adaptively sized runs are
not, but replaying their recorded lease log is — same seed + same lease
log ⇒ identical campaign fingerprint. Plus the empty-shard fix: a
budget smaller than the worker count must not spawn (or report)
zero-iteration shards in either schedule.
"""

import pytest

from repro import __main__ as cli
from repro.arch.cpuid import Vendor
from repro.parallel import ParallelCampaign, WorkerPool
from repro.parallel.scheduler import PoolMismatch
from repro.resilience import campaign_fingerprint

SEED = 11


def _campaign(**overrides):
    kwargs = dict(hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED,
                  workers=3, schedule="stealing", lease_size=10,
                  sync_every=20, mode="inline")
    kwargs.update(overrides)
    return ParallelCampaign(**kwargs)


class TestInlineStealing:
    @pytest.fixture(scope="class")
    def result(self):
        return _campaign().run(60, sample_every=10)

    def test_budget_conserved_through_leases(self, result):
        assert result.engine_stats.iterations == 60
        assert sum(record.size for record in result.lease_log) == 60
        ids = [record.id for record in result.lease_log]
        assert len(ids) == len(set(ids))

    def test_result_carries_scheduler_fields(self, result):
        assert result.schedule == "stealing"
        assert len(result.lease_log) == 6
        assert result.reclaims == 0

    def test_every_worker_claims_under_even_load(self, result):
        shares = [r.engine_stats.iterations for r in result.per_worker]
        assert all(share > 0 for share in shares)
        assert sum(shares) == 60

    def test_fixed_lease_size_is_deterministic(self, result):
        again = _campaign().run(60, sample_every=10)
        assert campaign_fingerprint(again) == campaign_fingerprint(result)
        assert [(r.id, r.worker, r.size) for r in again.lease_log] \
            == [(r.id, r.worker, r.size) for r in result.lease_log]

    def test_sched_telemetry_counters_recorded(self, result):
        counters = {}
        for shard in (result.telemetry or {}).get("shards", {}).values():
            for name, value in shard.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
        assert counters.get("sched.leases_issued") == 6


class TestLeaseLogReplay:
    def test_adaptive_run_replays_to_identical_fingerprint(self):
        # Adaptive sizing keys off wall-clock rates — the one
        # nondeterministic input. Feeding the recorded log back pins it.
        original = _campaign(workers=2, lease_size=0).run(150,
                                                          sample_every=25)
        assert len(original.lease_log) >= 2
        replay = _campaign(workers=2, lease_size=0,
                           lease_log=original.lease_log).run(
                               150, sample_every=25)
        assert campaign_fingerprint(replay) == campaign_fingerprint(original)
        assert replay.lease_log == original.lease_log

    def test_short_log_rejected(self):
        original = _campaign(workers=2).run(60, sample_every=10)
        with pytest.raises(ValueError):
            _campaign(workers=2,
                      lease_log=original.lease_log[:-1]).run(
                          60, sample_every=10)


class TestAdaptiveSyncCampaign:
    def test_adaptive_sync_completes_and_skips_rounds(self):
        eager = _campaign(lease_size=5).run(60, sample_every=10)
        lazy = _campaign(lease_size=5, sync_adaptive=True).run(
            60, sample_every=10)
        assert lazy.engine_stats.iterations == 60
        # Small leases force many rounds; the controller must have
        # elided some scans the eager run paid for.
        assert lazy.sync_overhead.rounds_skipped_adaptive > 0
        assert (lazy.sync_overhead.import_rounds
                < eager.sync_overhead.import_rounds)


class TestEmptyShardSkip:
    def test_static_inline_skips_zero_iteration_shards(self):
        result = ParallelCampaign(hypervisor="kvm", vendor=Vendor.INTEL,
                                  seed=3, workers=4, mode="inline").run(2)
        assert result.engine_stats.iterations == 2
        assert len(result.per_worker) == 2
        assert all(r.engine_stats.iterations == 1
                   for r in result.per_worker)

    def test_static_process_skips_zero_iteration_shards(self, tmp_path):
        result = ParallelCampaign(
            hypervisor="kvm", vendor=Vendor.INTEL, seed=3, workers=4,
            sync_every=5, mode="process", sync_dir=tmp_path).run(2)
        assert result.engine_stats.iterations == 2
        assert len(result.per_worker) == 2

    def test_stealing_caps_workers_at_lease_count(self):
        result = _campaign(workers=3, lease_size=30).run(60, sample_every=10)
        assert len(result.per_worker) == 2
        assert result.engine_stats.iterations == 60


class TestProcessStealing:
    def test_forked_workers_drain_the_board(self, tmp_path):
        result = ParallelCampaign(
            hypervisor="kvm", vendor=Vendor.AMD, seed=5, workers=2,
            schedule="stealing", lease_size=25, sync_every=50,
            mode="process", sync_dir=tmp_path).run(100, sample_every=25)
        assert result.engine_stats.iterations == 100
        assert sum(record.size for record in result.lease_log) == 100
        ids = [record.id for record in result.lease_log]
        assert len(ids) == len(set(ids))
        assert (tmp_path / "leases" / "board.json").exists()


class TestWarmPool:
    def test_pool_reuses_workers_across_runs(self):
        pool = WorkerPool()
        campaign = ParallelCampaign(hypervisor="kvm", vendor=Vendor.INTEL,
                                    seed=3, workers=2, sync_every=10,
                                    mode="inline", pool=pool)
        first = campaign.run(40)
        second = campaign.run(40)
        assert first.pool_reuse == 0
        assert second.pool_reuse == 2
        # The second run continues the pooled engines: cumulative stats.
        assert second.engine_stats.iterations == 80

    def test_pool_rejects_a_changed_campaign_config(self):
        # A warm worker carries its agent, so a pool built for one
        # campaign config must not serve another.
        pool = WorkerPool()
        shape = dict(hypervisor="kvm", vendor=Vendor.INTEL, seed=3,
                     workers=2, sync_every=10, mode="inline", pool=pool)
        ParallelCampaign(**shape).run(20)
        changed = ParallelCampaign(
            **shape, patched=frozenset({"cr4_pae_consistency"}),
            coverage_guided=False)
        with pytest.raises(PoolMismatch):
            changed.run(20)

    def test_pooled_continuation_extends_coverage_monotonically(self):
        pool = WorkerPool()
        campaign = ParallelCampaign(hypervisor="kvm", vendor=Vendor.INTEL,
                                    seed=3, workers=2, sync_every=10,
                                    mode="inline", pool=pool)
        first = campaign.run(40)
        second = campaign.run(40)
        assert second.covered_lines >= first.covered_lines


class TestValidation:
    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            ParallelCampaign(schedule="round-robin")

    def test_negative_lease_size_rejected(self):
        with pytest.raises(ValueError):
            ParallelCampaign(schedule="stealing", lease_size=-1)

    def test_lease_log_requires_stealing_inline(self):
        with pytest.raises(ValueError):
            ParallelCampaign(lease_log=[])
        with pytest.raises(ValueError):
            ParallelCampaign(schedule="stealing", mode="process",
                             lease_log=[])

    def test_pool_requires_inline_mode(self):
        with pytest.raises(ValueError):
            ParallelCampaign(mode="process", pool=WorkerPool())


class TestCli:
    def test_stealing_needs_two_workers(self, capsys):
        assert cli.main(["--schedule", "stealing", "--workers", "1"]) == 2
        assert "--workers >= 2" in capsys.readouterr().err

    def test_lease_size_needs_stealing(self, capsys):
        assert cli.main(["--workers", "2", "--lease-size", "50"]) == 2
        assert "--schedule stealing" in capsys.readouterr().err
