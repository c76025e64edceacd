"""One parallel runtime: every schedule runs on the lease board, with one
corpus wire format.

Pins that the static schedule is the lease board with one pinned pool
per worker (no second loop), that a lease is one sync round under either
schedule (adaptive lease sizing, lease-log replay, adaptive sync and the
warm worker pool are gone), and that the per-entry-file corpus format
and the sync switches only tests used to set are gone.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import fields

import pytest

import repro.parallel
from repro import Vendor, faults
from repro.__main__ import main
from repro.analysis.timeline import CoverageTimeline
from repro.core.necofuzz import CampaignResult
from repro.faults import FaultPlan, FaultSpec
from repro.fuzzer.engine import EngineStats
from repro.parallel import (
    CampaignWorker,
    FileLeaseBoard,
    LeaseBoard,
    ParallelCampaign,
    Supervisor,
    SyncDirectory,
    WorkerSpec,
    scheduler,
    sync,
)
from repro.parallel.supervisor import process_worker_main
from repro.parallel.worker import WorkerReport
from repro.resilience import CampaignAborted, campaign_fingerprint

SEED = 3


def _static(**overrides):
    kwargs = dict(hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED,
                  workers=3, sync_every=10, mode="inline")
    kwargs.update(overrides)
    return ParallelCampaign(**kwargs)


def _per_worker(lease_log, workers):
    sizes = [[] for _ in range(workers)]
    for record in lease_log:
        sizes[record.worker].append(record.size)
    return sizes


class TestStaticIsPinnedLeases:
    def test_inline_static_runs_one_sync_round_per_lease(self):
        result = _static().run(50)
        assert result.schedule == "static"
        assert _per_worker(result.lease_log, 3) == [[10, 7], [10, 7],
                                                   [10, 6]]
        assert [r.engine_stats.iterations for r in result.per_worker] \
            == [17, 17, 16]
        assert (result.steals, result.reclaims) == (0, 0)
        # One lease per worker per round, the rounds in lockstep.
        assert [record.round for record in result.lease_log] \
            == [0, 0, 0, 1, 1, 1]

    def test_inline_static_summary_names_no_leases(self):
        assert "lease" not in _static().run(20).summary()

    def test_process_static_drains_its_pinned_board(self, tmp_path):
        result = _static(workers=2, sync_every=15, mode="process",
                         sync_dir=tmp_path).run(30)
        assert result.engine_stats.iterations == 30
        assert _per_worker(result.lease_log, 2) == [[15], [15]]
        assert result.steals == 0
        state = json.loads((tmp_path / "leases" / "board.json").read_text())
        assert state["remaining"] == [0, 0]

    def test_process_resume_reissues_the_dead_campaigns_leases(self,
                                                                tmp_path):
        # An interrupted campaign left worker 0's lease issued on the
        # board; its process is gone, so the resumed campaign must hand
        # the lease back rather than wait for it forever.
        board = FileLeaseBoard.create(tmp_path, 20, 2, lease_size=10,
                                      pinned=True)
        board.claim(0)
        result = _static(workers=2, mode="process", sync_dir=tmp_path,
                         resume=True).run(20)
        assert result.engine_stats.iterations == 20
        assert result.reclaims == 1
        assert [r.reissued for r in result.lease_log].count(True) == 1

    def test_retired_static_worker_strands_its_lease(self):
        # max_restarts=0: the first death retires worker 1. Nobody else
        # may claim its pinned pool, so the campaign aborts.
        plan = FaultPlan([FaultSpec("kill_worker", worker=1, at_case=3)])
        campaign = _static(workers=2, max_restarts=0)
        with faults.injected(plan):
            with pytest.raises(CampaignAborted, match="max_restarts=0"):
                campaign.run(40)
        assert [(e.worker, e.action) for e in campaign.events] \
            == [(1, "circuit-open"), (1, "abort")]

    def test_pinned_worker_exits_without_polling(self, tmp_path,
                                                 monkeypatch):
        # A partner still holds a lease of its own pool; a pinned worker
        # whose pool is empty has nothing to wait for.
        board = FileLeaseBoard.create(tmp_path, 8, 2, lease_size=4,
                                      pinned=True)
        board.claim(1)
        worker = CampaignWorker(WorkerSpec(index=0, seed=SEED, iterations=4),
                                dict(hypervisor="kvm", vendor=Vendor.INTEL))

        def no_polling(seconds):
            raise AssertionError("a pinned worker idle-polled the board")

        monkeypatch.setattr("repro.parallel.worker.time.sleep", no_polling)
        report = worker.run_leases(board)
        assert report.share == 4
        assert report.result.engine_stats.iterations == 4


class TestOneLeasePerSyncRound:
    @pytest.mark.parametrize("keyword,value", [
        ("lease_size", 10), ("sync_adaptive", True), ("pool", None),
        ("lease_log", [])])
    def test_removed_campaign_keywords_are_type_errors(self, keyword, value):
        with pytest.raises(TypeError):
            ParallelCampaign(**{keyword: value})

    @pytest.mark.parametrize("name", [
        "AdaptiveSync", "WorkerPool", "PoolMismatch", "LEASE_MIN",
        "LEASE_MAX", "LEASE_TARGET_SECONDS"])
    def test_adaptive_names_are_gone(self, name):
        assert name not in repro.parallel.__all__
        assert not hasattr(repro.parallel, name)
        assert not hasattr(scheduler, name)

    @pytest.mark.parametrize("argv", [
        ["--workers", "2", "--schedule", "stealing", "--lease-size", "50"],
        ["--workers", "2", "--sync-adaptive"],
    ], ids=["lease-size", "sync-adaptive"])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_stealing_leases_are_sync_rounds(self):
        result = _static(schedule="stealing").run(45)
        assert sorted(record.size for record in result.lease_log) \
            == [5, 10, 10, 10, 10]

    def test_inline_stealing_is_deterministic(self):
        first = _static(schedule="stealing", workers=2).run(60)
        second = _static(schedule="stealing", workers=2).run(60)
        assert campaign_fingerprint(first) == campaign_fingerprint(second)
        assert first.lease_log == second.lease_log

    @pytest.mark.parametrize("make_board", [
        lambda root: LeaseBoard(total=20, workers=2, lease_size=10),
        lambda root: FileLeaseBoard.create(root, 20, 2, lease_size=10),
    ], ids=["memory", "file"])
    def test_claim_takes_no_rate(self, tmp_path, make_board):
        board = make_board(tmp_path)
        with pytest.raises(TypeError):
            board.claim(0, rate=1000.0)
        assert board.claim(0).size == 10

    def test_board_state_has_no_adaptive_bounds(self, tmp_path):
        board = LeaseBoard(total=20, workers=2, lease_size=10)
        state = board.to_state()
        assert "lease_min" not in state and "lease_max" not in state
        assert LeaseBoard.from_state(state).to_state() == state
        with pytest.raises(TypeError):
            FileLeaseBoard.create(tmp_path, 20, 2, lease_size=10,
                                  lease_min=8)

    @pytest.mark.parametrize("iterations,sync_every,workers,spawned", [
        (45, 10, 3, 3), (15, 10, 3, 2), (10, 10, 4, 1), (0, 10, 3, 1)])
    def test_stealing_spawns_at_most_one_worker_per_sync_round(
            self, iterations, sync_every, workers, spawned):
        campaign = _static(schedule="stealing", workers=workers,
                           sync_every=sync_every)
        assert campaign._stealing_worker_count(iterations) == spawned
        assert len(campaign._specs(iterations)) == spawned

    def test_short_stealing_budget_runs_only_the_capped_workers(self):
        result = _static(schedule="stealing", workers=3).run(15)
        assert len(result.per_worker) == 2
        assert sorted(record.size for record in result.lease_log) == [5, 10]
        assert result.engine_stats.iterations == 15

    @pytest.mark.parametrize("name", ["maybe_import", "rate",
                                      "_since_import"])
    def test_worker_has_no_adaptive_hooks(self, name):
        assert not hasattr(CampaignWorker, name)
        assert name not in {f.name for f in fields(CampaignWorker)}

    def test_run_leases_takes_no_controller(self):
        assert list(inspect.signature(CampaignWorker.run_leases).parameters) \
            == ["self", "board", "idle_poll"]

    @pytest.mark.parametrize("target", [process_worker_main, Supervisor])
    def test_process_entry_points_take_no_sync_interval(self, target):
        params = inspect.signature(target).parameters
        for name in ("sync_every", "sync_adaptive"):
            assert name not in params

    def test_sync_stats_count_no_adaptive_skips(self):
        assert "rounds_skipped_adaptive" not in {
            f.name for f in fields(sync.SyncStats)}

    def test_result_reports_no_pool_reuse(self):
        result = _static(workers=2).run(20)
        assert not hasattr(result, "pool_reuse")
        assert "pool" not in result.summary()

    def test_workers_disagreeing_on_the_universe_is_a_runtime_error(self):
        def report(index, instrumented):
            result = CampaignResult(
                timeline=CoverageTimeline("w", 10.0), covered_lines=set(),
                instrumented_lines=instrumented, reports=[],
                engine_stats=EngineStats(), watchdog_restarts=0)
            return WorkerReport(index=index, share=0, result=result,
                                samples=[], virgin_bits=b"")

        sched = {"log": [], "steals": 0, "reclaims": 0}
        with pytest.raises(RuntimeError, match="instrumented universe"):
            _static(workers=2)._merge([report(0, {1, 2}), report(1, {1})],
                                      None, sched)


class TestOneWireFormat:
    @pytest.mark.parametrize("keyword,value", [
        ("sync_format", "v1"), ("sync_format", "v2"),
        ("subsumption_filter", False)])
    def test_removed_campaign_keywords_are_type_errors(self, keyword, value):
        with pytest.raises(TypeError):
            ParallelCampaign(**{keyword: value})

    @pytest.mark.parametrize("keyword,value", [
        ("sync_format", "v2"), ("subsumption_filter", False)])
    def test_removed_sync_directory_keywords_are_type_errors(
            self, tmp_path, keyword, value):
        with pytest.raises(TypeError):
            SyncDirectory(tmp_path, 0, 2, **{keyword: value})

    def test_sync_formats_is_gone(self):
        assert "SYNC_FORMATS" not in repro.parallel.__all__
        assert not hasattr(repro.parallel, "SYNC_FORMATS")
        assert not hasattr(sync, "SYNC_FORMATS")

    def test_filter_predicate_has_no_switch(self):
        assert list(inspect.signature(sync.record_subsumed).parameters) \
            == ["engine", "record"]

    @pytest.mark.parametrize("owner,name", [
        (SyncDirectory, "_import_v1"), (SyncDirectory, "seen"),
        (CampaignWorker, "run_share"),
        (ParallelCampaign, "_run_chunk_isolated"),
        (ParallelCampaign, "_run_inline_stealing"),
        (FileLeaseBoard, "_carve")])
    def test_second_code_paths_are_gone(self, owner, name):
        assert not hasattr(owner, name)

    @pytest.mark.parametrize("target", [process_worker_main, Supervisor])
    def test_process_entry_points_take_no_schedule_or_format(self, target):
        params = inspect.signature(target).parameters
        for name in ("schedule", "sync_format", "subsumption_filter"):
            assert name not in params
