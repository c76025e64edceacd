"""Campaign-fingerprint pins: the subsumption filter changes nothing.

Letting corpus sync absorb partner entries whose shipped coverage is
already known, instead of executing them, must change *nothing* a
campaign can observe. Covered lines, virgin map, corpus digests, and
every fingerprinted stat are bit-for-bit identical to the reference
that executes every import (:func:`tests.reference.execute_every_import`)
for both vendors; only ``imports_skipped_subsumed`` (deliberately
outside the fingerprint) reveals which path ran.
"""

from contextlib import nullcontext

import pytest

from repro import Vendor, faults
from repro.faults import FaultPlan, FaultSpec
from repro.resilience import (
    CampaignAborted,
    ParallelCampaign,
    campaign_fingerprint,
)
from tests.reference import execute_every_import

SEED = 11
BUDGET = 40
SYNC_EVERY = 10

VENDORS = [("kvm", Vendor.INTEL), ("xen", Vendor.AMD)]


def run(hypervisor, vendor, **overrides):
    kwargs = dict(hypervisor=hypervisor, vendor=vendor, seed=SEED,
                  workers=2, sync_every=SYNC_EVERY, mode="inline")
    kwargs.update(overrides)
    return ParallelCampaign(**kwargs).run(BUDGET)


class TestFilterEquivalence:
    @pytest.mark.parametrize("hypervisor,vendor", VENDORS,
                             ids=["vmx", "svm"])
    def test_filter_matches_executing_every_import(self, hypervisor, vendor):
        with execute_every_import():
            reference = run(hypervisor, vendor)
        filtered = run(hypervisor, vendor)
        assert campaign_fingerprint(filtered) == campaign_fingerprint(reference)
        # The filter really did elide executions — same outcome, less work.
        assert filtered.engine_stats.imports_skipped_subsumed > 0
        assert reference.engine_stats.imports_skipped_subsumed == 0

    @pytest.mark.parametrize("hypervisor,vendor", VENDORS,
                             ids=["vmx", "svm"])
    def test_filtered_run_is_self_deterministic(self, hypervisor, vendor):
        first = run(hypervisor, vendor)
        second = run(hypervisor, vendor)
        assert campaign_fingerprint(first) == campaign_fingerprint(second)
        assert (first.engine_stats.imports_skipped_subsumed
                == second.engine_stats.imports_skipped_subsumed)

    def test_merged_result_reports_subsumed_imports(self):
        result = run("kvm", Vendor.INTEL)
        assert result.engine_stats.imports_skipped_subsumed > 0
        assert str(result.engine_stats.imports_skipped_subsumed) \
            in result.summary()

    def test_sync_overhead_breakdown_is_populated(self):
        result = run("kvm", Vendor.INTEL)
        overhead = result.sync_overhead
        assert overhead.export_seconds > 0
        assert overhead.scan_seconds > 0
        assert overhead.entries_exported > 0
        assert overhead.entries_scanned > 0
        # Filter time only accrues when candidates carried coverage.
        assert overhead.filter_seconds >= 0


class TestResumeEquivalence:
    """Kill-and-resume reproduces the clean filtered run's fingerprint,
    with the filter on and with every import executed."""

    @pytest.mark.parametrize("reference", [False, True],
                             ids=["filtered", "every-import"])
    def test_checkpointed_resume_is_fingerprint_equal(self, tmp_path,
                                                      reference):
        def campaign(sync_dir, **overrides):
            kwargs = dict(hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED,
                          workers=2, sync_every=SYNC_EVERY, mode="inline",
                          sync_dir=sync_dir, checkpoint_interval=1)
            kwargs.update(overrides)
            return ParallelCampaign(**kwargs)

        clean = campaign(tmp_path / "clean").run(BUDGET)

        crashed_dir = tmp_path / "crashed"
        plan = FaultPlan([FaultSpec("kill_worker", worker=0, at_case=15)])
        with execute_every_import() if reference else nullcontext():
            with faults.injected(plan):
                with pytest.raises(CampaignAborted):
                    campaign(crashed_dir, max_restarts=0).run(BUDGET)
            assert (crashed_dir / "campaign.ckpt").exists()
            resumed = campaign(crashed_dir, resume=True).run(BUDGET)
        assert resumed.engine_stats.iterations == BUDGET
        assert campaign_fingerprint(resumed) == campaign_fingerprint(clean)
        assert (resumed.engine_stats.imports_skipped_subsumed == 0) \
            == reference
