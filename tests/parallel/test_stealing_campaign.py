"""Work-stealing campaign acceptance tests (DESIGN.md §13).

The determinism contract pinned here: inline stealing, one sync round
per lease, is bit-for-bit reproducible. Plus the empty-shard fix: a
budget smaller than the worker count must not spawn (or report)
zero-iteration shards in either schedule.
"""

import pytest

from repro import __main__ as cli
from repro.arch.cpuid import Vendor
from repro.parallel import ParallelCampaign
from repro.resilience import campaign_fingerprint

SEED = 11


def _campaign(**overrides):
    kwargs = dict(hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED,
                  workers=3, schedule="stealing", sync_every=10,
                  mode="inline")
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
        result = _campaign(workers=3, sync_every=30).run(60, sample_every=10)
        assert len(result.per_worker) == 2
        assert result.engine_stats.iterations == 60


class TestProcessStealing:
    def test_forked_workers_drain_the_board(self, tmp_path):
        result = ParallelCampaign(
            hypervisor="kvm", vendor=Vendor.AMD, seed=5, workers=2,
            schedule="stealing", sync_every=25,
            mode="process", sync_dir=tmp_path).run(100, sample_every=25)
        assert result.engine_stats.iterations == 100
        assert sum(record.size for record in result.lease_log) == 100
        ids = [record.id for record in result.lease_log]
        assert len(ids) == len(set(ids))
        assert (tmp_path / "leases" / "board.json").exists()


class TestValidation:
    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            ParallelCampaign(schedule="round-robin")


class TestCli:
    def test_stealing_needs_two_workers(self, capsys):
        assert cli.main(["--schedule", "stealing", "--workers", "1"]) == 2
        assert "--workers >= 2" in capsys.readouterr().err
