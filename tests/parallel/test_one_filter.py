"""One import filter, one virgin-map path.

Pins that corpus sync's per-record subsumption filter is the only
import shortcut (the ``coverage.bin`` sidecar, its NCD1 codec and the
shared CRC helpers are gone), and that every worker report carries its
full virgin map in both execution modes (the shared-memory map is
gone): the merge ORs the reports' maps and fails loudly on a report
without one.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import fields

import pytest

from repro import Vendor
from repro.analysis.timeline import CoverageTimeline
from repro.core.necofuzz import CampaignResult
from repro.coverage.bitmap import MAP_SIZE, VirginMap
from repro.fuzzer.engine import EngineStats, FuzzEngine
from repro.parallel import (
    CampaignWorker,
    ParallelCampaign,
    ParallelCampaignResult,
    Supervisor,
    SyncDirectory,
    campaign,
    sync,
    wire,
)
from repro.parallel.supervisor import process_worker_main
from repro.parallel.worker import WorkerReport, WorkerSpec

SEED = 7


def _report(index: int, virgin_bits: bytes) -> WorkerReport:
    result = CampaignResult(
        timeline=CoverageTimeline("w", 10.0), covered_lines=set(),
        instrumented_lines={1, 2}, reports=[], engine_stats=EngineStats(),
        watchdog_restarts=0)
    return WorkerReport(index=index, share=0, result=result, samples=[],
                        virgin_bits=virgin_bits)


_SCHED = {"log": [], "steals": 0, "reclaims": 0}


@pytest.fixture
def merged_reports(monkeypatch):
    """Every worker report the campaigns of one test hand to the merge."""
    seen = []
    real = campaign._merge_virgin

    def spy(reports):
        seen.extend(reports)
        return real(reports)

    monkeypatch.setattr(campaign, "_merge_virgin", spy)
    return seen


def _assert_virgin_is_their_or(result, reports) -> None:
    assert all(len(report.virgin_bits) == MAP_SIZE for report in reports)
    union = 0
    for report in reports:
        union |= int.from_bytes(report.virgin_bits, "little")
    assert union  # the workers found something to merge
    assert bytes(result.virgin.bits) == union.to_bytes(MAP_SIZE, "little")


class TestNoCoverageSidecar:
    @pytest.mark.parametrize("value", [True, False])
    def test_sync_delta_keyword_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            ParallelCampaign(sync_delta=value)

    def test_sync_directory_has_no_delta_plane(self, tmp_path):
        assert "delta_plane" not in {f.name for f in fields(SyncDirectory)}
        assert not hasattr(SyncDirectory(tmp_path, 0, 2), "delta_plane")
        with pytest.raises(TypeError):
            SyncDirectory(tmp_path, 0, 2, delta_plane=True)

    @pytest.mark.parametrize("module", [
        "repro.coverage.delta", "repro.parallel.shared_map",
        "repro.parallel.checksum"])
    def test_removed_modules_do_not_import(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("owner,name", [
        (wire, "summarize_record"), (wire, "pack_line_indices"),
        (wire, "RecordSummary"), (wire, "checksum"),
        (sync, "COVERAGE_SIDECAR"),
        (SyncDirectory, "_delta_reject"),
        (SyncDirectory, "_accumulate_sidecar"),
        (SyncDirectory, "_write_sidecar"),
        (FuzzEngine, "import_subsumed_batch")])
    def test_sidecar_code_paths_are_gone(self, owner, name):
        assert not hasattr(owner, name)

    def test_sync_stats_keep_a_zero_batch_reject_count(self, tmp_path):
        # perfbench still reads the field; nothing increments it.
        assert SyncDirectory(tmp_path, 0, 2).stats.batches_delta_rejected \
            == 0


class TestReportsCarryTheirMap:
    def test_result_has_no_shared_virgin_map(self):
        assert "shared_virgin_map" not in {
            f.name for f in fields(ParallelCampaignResult)}

    @pytest.mark.parametrize("name", [
        "virgin_publisher", "_published_generation", "publish_virgin",
        "__getstate__"])
    def test_worker_has_no_publisher(self, name):
        assert name not in {f.name for f in fields(CampaignWorker)}
        assert name not in vars(CampaignWorker)

    @pytest.mark.parametrize("name", ["merged_virgin_bits", "_shared",
                                      "sync_delta"])
    def test_supervisor_owns_no_segment(self, name):
        assert name not in {f.name for f in fields(Supervisor)}

    def test_process_entry_point_takes_no_segment(self):
        params = inspect.signature(process_worker_main).parameters
        for name in ("sync_delta", "shm_name", "shm_lock"):
            assert name not in params

    def test_virgin_map_has_no_generation(self):
        assert not hasattr(VirginMap(), "generation")

    def test_merge_without_a_full_map_raises(self):
        campaign_ = ParallelCampaign(workers=2)
        full = bytes(MAP_SIZE)
        with pytest.raises(ValueError, match="virgin-map payload"):
            campaign_._merge([_report(0, full), _report(1, b"")], _SCHED)

    def test_merge_ors_every_reports_map(self):
        left, right = bytearray(MAP_SIZE), bytearray(MAP_SIZE)
        left[3], right[3], right[MAP_SIZE - 1] = 0x01, 0x80, 0x02
        merged = ParallelCampaign(workers=2)._merge(
            [_report(0, bytes(left)), _report(1, bytes(right))], _SCHED)
        assert merged.virgin.bits[3] == 0x81
        assert merged.virgin.bits[MAP_SIZE - 1] == 0x02
        assert merged.virgin.bits.count(0) == MAP_SIZE - 2

    def test_process_reports_carry_full_maps(self, tmp_path,
                                             merged_reports):
        result = ParallelCampaign(
            hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED, workers=2,
            sync_every=20, mode="process", sync_dir=tmp_path).run(40)
        assert sorted(report.index for report in merged_reports) == [0, 1]
        _assert_virgin_is_their_or(result, merged_reports)


class TestVirginMerge:
    """The merge ORs every report's map and accepts nothing less than a
    full map from each."""

    @pytest.mark.parametrize("size", [1, MAP_SIZE - 1, MAP_SIZE + 1])
    def test_partial_map_raises(self, size):
        with pytest.raises(ValueError):
            campaign._merge_virgin([_report(0, bytes(MAP_SIZE)),
                                    _report(1, bytes(size))])

    def test_one_report_merges_to_its_own_map(self):
        bits = bytearray(MAP_SIZE)
        bits[100] = 0x10
        assert campaign._merge_virgin([_report(0, bytes(bits))]).bits == bits

    def test_merge_is_order_independent(self):
        maps = []
        for k in range(3):
            bits = bytearray(MAP_SIZE)
            bits[k * 7] = 1 << k
            bits[5] = 1 << (k + 3)
            maps.append(_report(k, bytes(bits)))
        forward = campaign._merge_virgin(maps)
        backward = campaign._merge_virgin(list(reversed(maps)))
        assert forward.bits == backward.bits
        assert forward.bits[5] == 0b111000

    @pytest.mark.parametrize("schedule", ["static", "stealing"])
    def test_inline_reports_carry_full_maps(self, merged_reports, schedule):
        result = ParallelCampaign(
            hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED, workers=2,
            sync_every=10, schedule=schedule).run(40)
        assert len(merged_reports) == 2
        _assert_virgin_is_their_or(result, merged_reports)

    def test_one_worker_map_is_its_engines(self):
        serial = ParallelCampaign(hypervisor="kvm", vendor=Vendor.INTEL,
                                  seed=SEED).run(20)
        worker = CampaignWorker(WorkerSpec(index=0, seed=SEED, iterations=20),
                                dict(hypervisor="kvm", vendor=Vendor.INTEL))
        worker.run_chunk(20)
        assert serial.virgin.bits == worker.campaign.engine.virgin.bits

    def test_report_map_is_a_copy(self):
        worker = CampaignWorker(WorkerSpec(index=0, seed=SEED, iterations=20),
                                dict(hypervisor="kvm", vendor=Vendor.INTEL))
        worker.run_chunk(10)
        report = worker.report()
        assert isinstance(report.virgin_bits, bytes)
        frozen = bytes(report.virgin_bits)
        worker.campaign.engine.virgin.bits[0] ^= 0xFF
        assert report.virgin_bits == frozen

    def test_checkpoint_round_trip_keeps_the_map(self, tmp_path):
        worker = CampaignWorker(
            WorkerSpec(index=1, seed=SEED, iterations=20),
            dict(hypervisor="kvm", vendor=Vendor.INTEL),
            sync=SyncDirectory(tmp_path, 1, 2),
            checkpoint_path=tmp_path / "state.pkl")
        worker.run_chunk(10)
        worker.save_checkpoint()
        restored = CampaignWorker.load_checkpoint(tmp_path / "state.pkl")
        assert restored.done == 10
        assert restored.report().virgin_bits == worker.report().virgin_bits
        assert restored.corpus_digest() == worker.corpus_digest()

    def test_sync_overhead_merge_skips_reports_without_stats(self):
        with_stats = _report(0, bytes(MAP_SIZE))
        with_stats.sync_stats = sync.SyncStats(entries_scanned=4,
                                               import_rounds=2)
        merged = campaign._merge_sync_overhead(
            [with_stats, _report(1, bytes(MAP_SIZE))])
        assert (merged.entries_scanned, merged.import_rounds) == (4, 2)

    def test_process_entry_point_parameters(self):
        assert list(inspect.signature(process_worker_main).parameters) == [
            "spec", "campaign_kwargs", "sample_every", "root",
            "total_workers", "case_timeout", "fault_plan", "telemetry_mode"]
