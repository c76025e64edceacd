"""Chaos suite: the checkpoint/resume determinism contract.

An inline campaign killed mid-run and ``--resume``'d from its last
checkpoint must reproduce the uninterrupted run's fingerprint bit for
bit — on both nesting stacks (VMX/Intel and SVM/AMD), since the
checkpoint pickles vendor-specific state (VMCS vs VMCB images, the
per-vendor correction rules) that each has its own pickling hazards.
"""

import pytest

from repro import Vendor, faults
from repro.faults import FaultPlan, FaultSpec
from repro.resilience import (
    CampaignAborted,
    ParallelCampaign,
    campaign_fingerprint,
)

SEED = 11
BUDGET = 40
SYNC_EVERY = 10

STACKS = [
    pytest.param("kvm", Vendor.INTEL, id="vmx-intel"),
    pytest.param("kvm", Vendor.AMD, id="svm-amd"),
]


def _campaign(hypervisor, vendor, sync_dir, **overrides):
    kwargs = dict(hypervisor=hypervisor, vendor=vendor, seed=SEED,
                  workers=2, sync_every=SYNC_EVERY, mode="inline",
                  sync_dir=sync_dir, checkpoint_interval=1)
    kwargs.update(overrides)
    return ParallelCampaign(**kwargs)


class TestResumeDeterminism:
    @pytest.mark.parametrize("hypervisor,vendor", STACKS)
    def test_resumed_campaign_reproduces_fingerprint(self, tmp_path,
                                                     hypervisor, vendor):
        clean = _campaign(hypervisor, vendor, tmp_path / "clean").run(BUDGET)

        # Interrupt: an unrecoverable worker death (max_restarts=0) in
        # the second chunk, after round 1 has been checkpointed.
        crashed_dir = tmp_path / "crashed"
        plan = FaultPlan([FaultSpec("kill_worker", worker=0, at_case=15)])
        with faults.injected(plan):
            with pytest.raises(CampaignAborted):
                _campaign(hypervisor, vendor, crashed_dir,
                          max_restarts=0).run(BUDGET)
        assert (crashed_dir / "campaign.ckpt").exists()

        resumed = _campaign(hypervisor, vendor, crashed_dir,
                            resume=True).run(BUDGET)
        assert resumed.engine_stats.iterations == BUDGET
        assert campaign_fingerprint(resumed) == campaign_fingerprint(clean)

    def test_resume_without_checkpoint_is_a_fresh_run(self, tmp_path):
        # Nothing to resume from: the campaign must simply run clean.
        clean = _campaign("kvm", Vendor.INTEL, tmp_path / "a").run(BUDGET)
        fresh = _campaign("kvm", Vendor.INTEL, tmp_path / "b",
                          resume=True).run(BUDGET)
        assert campaign_fingerprint(fresh) == campaign_fingerprint(clean)

    def test_checkpoint_from_other_campaign_shape_is_ignored(self, tmp_path,
                                                             caplog):
        # A checkpoint from a different campaign shape (here: another
        # seed) must not be resumed into: the manifest mismatch is
        # detected, logged, and the campaign starts over from round 0.
        sync_dir = tmp_path / "shared"
        plan = FaultPlan([FaultSpec("kill_worker", worker=0, at_case=15)])
        with faults.injected(plan):
            with pytest.raises(CampaignAborted):
                _campaign("kvm", Vendor.INTEL, sync_dir,
                          max_restarts=0).run(BUDGET)

        with caplog.at_level("WARNING", logger="repro.parallel"):
            resumed = _campaign("kvm", Vendor.INTEL, sync_dir, seed=SEED + 1,
                                resume=True).run(BUDGET)
        assert any("campaign shape changed" in r.message
                   for r in caplog.records)
        # A fresh full run, not a continuation of the 15 crashed cases.
        assert resumed.engine_stats.iterations == BUDGET

    def test_checkpoint_from_other_campaign_config_is_ignored(self, tmp_path,
                                                              caplog):
        # Same seed and shape, but another worker config: the checkpoint
        # holds agents built under the old config and must not resume.
        sync_dir = tmp_path / "shared"
        plan = FaultPlan([FaultSpec("kill_worker", worker=0, at_case=15)])
        with faults.injected(plan):
            with pytest.raises(CampaignAborted):
                _campaign("kvm", Vendor.INTEL, sync_dir,
                          max_restarts=0).run(BUDGET)

        with caplog.at_level("WARNING", logger="repro.parallel"):
            resumed = _campaign("kvm", Vendor.INTEL, sync_dir,
                                coverage_guided=False,
                                resume=True).run(BUDGET)
        assert any("campaign shape changed" in r.message
                   for r in caplog.records)
        assert resumed.engine_stats.iterations == BUDGET
        fresh = _campaign("kvm", Vendor.INTEL, tmp_path / "fresh",
                          coverage_guided=False).run(BUDGET)
        assert campaign_fingerprint(resumed) == campaign_fingerprint(fresh)

    def test_unreadable_checkpoint_is_logged_and_ignored(self, tmp_path,
                                                          caplog):
        # A checkpoint that no longer unpickles (truncated, or pickled
        # by a build whose classes have since been removed) must not
        # turn --resume into a silent restart: the failure is logged
        # with its exception type, then the campaign runs from round 0.
        sync_dir = tmp_path / "sync"
        sync_dir.mkdir()
        (sync_dir / "campaign.ckpt").write_bytes(b"not a pickle")
        with caplog.at_level("WARNING", logger="repro.parallel"):
            resumed = _campaign("kvm", Vendor.INTEL, sync_dir,
                                resume=True).run(BUDGET)
        assert any("unreadable" in r.message and "UnpicklingError" in r.message
                   for r in caplog.records)
        clean = _campaign("kvm", Vendor.INTEL, tmp_path / "clean").run(BUDGET)
        assert campaign_fingerprint(resumed) == campaign_fingerprint(clean)
