"""Tests for the top-level NecoFuzz campaign API."""

import pytest

from repro import ComponentToggles, NecoFuzz, Vendor
from repro.core.necofuzz import golden_seed
from repro.fuzzer.input import INPUT_SIZE, VM_STATE_REGION
from repro.fuzzer.rng import Rng
from repro.parallel import ParallelCampaign


class TestVendorType:
    """A vendor given as a string is rejected at construction, naming
    the parameter, instead of building an image for the wrong vendor
    and failing far from the cause."""

    @pytest.mark.parametrize("make", [
        lambda vendor: NecoFuzz(vendor=vendor),
        lambda vendor: ParallelCampaign(vendor=vendor, workers=2),
    ], ids=["NecoFuzz", "ParallelCampaign"])
    @pytest.mark.parametrize("vendor", ["intel", "amd"])
    def test_string_vendor_is_a_type_error(self, make, vendor):
        with pytest.raises(TypeError, match="vendor must be a Vendor"):
            make(vendor)


class TestGoldenSeed:
    def test_size(self):
        assert len(golden_seed(Vendor.INTEL)) == INPUT_SIZE
        assert len(golden_seed(Vendor.AMD)) == INPUT_SIZE

    def test_vm_state_region_is_golden(self):
        from repro.validator.golden import golden_vmcs
        from repro.vmx.msr_caps import default_capabilities

        seed = golden_seed(Vendor.INTEL)
        start, end = VM_STATE_REGION
        assert seed[start:end] == golden_vmcs(default_capabilities()).serialize()

    def test_directive_regions_vary_with_rng(self):
        a = golden_seed(Vendor.INTEL, Rng(1))
        b = golden_seed(Vendor.INTEL, Rng(2))
        start, end = VM_STATE_REGION
        assert a[start:end] == b[start:end]       # same golden state
        assert a[end:] != b[end:]                 # different directives


class TestCampaign:
    def test_short_campaign_runs(self):
        campaign = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=2)
        result = campaign.run(iterations=30)
        assert result.engine_stats.iterations == 30
        assert 0.3 < result.coverage_fraction < 1.0
        assert result.timeline.points

    def test_campaign_deterministic(self):
        a = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=5).run(20)
        b = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=5).run(20)
        assert a.covered_lines == b.covered_lines
        assert a.coverage_percent == b.coverage_percent

    def test_amd_campaign(self):
        result = NecoFuzz(hypervisor="kvm", vendor=Vendor.AMD, seed=2).run(30)
        assert result.coverage_fraction > 0.3

    def test_xen_campaign(self):
        result = NecoFuzz(hypervisor="xen", vendor=Vendor.INTEL, seed=2).run(30)
        assert result.coverage_fraction > 0.2

    def test_vbox_campaign(self):
        result = NecoFuzz(hypervisor="virtualbox", vendor=Vendor.INTEL,
                          seed=2).run(30)
        assert result.coverage_fraction > 0.2

    def test_ablated_campaign_covers_less(self):
        full = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=4).run(60)
        bare = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=4,
                        toggles=ComponentToggles.none()).run(60)
        assert bare.coverage_fraction < full.coverage_fraction

    def test_blackbox_mode(self):
        campaign = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=3,
                            coverage_guided=False)
        result = campaign.run(30)
        assert result.engine_stats.queue_adds == 0
        assert result.coverage_fraction > 0.3

    def test_summary_format(self):
        result = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=2).run(10)
        summary = result.summary()
        assert "coverage" in summary and "iterations" in summary

    def test_timeline_sampling(self):
        campaign = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=2)
        result = campaign.run(25, sample_every=5)
        assert len(result.timeline.points) == 5

    def test_coverage_monotone_over_time(self):
        campaign = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=6)
        result = campaign.run(40, sample_every=5)
        coverages = [p.coverage for p in result.timeline.points]
        assert coverages == sorted(coverages)


class TestCorpusResume:
    def test_resumed_campaign_deterministic(self, tmp_path):
        corpus = tmp_path / "corpus"
        first = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=6)
        first.run(30)
        first.engine.save_corpus(corpus)

        def resume():
            campaign = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL,
                                seed=9, corpus_dir=corpus)
            return campaign, campaign.run(20)

        camp_a, a = resume()
        camp_b, b = resume()
        assert a.covered_lines == b.covered_lines
        assert a.engine_stats == b.engine_stats
        assert a.timeline.series() == b.timeline.series()
        # The saved corpus actually seeded the resumed queue.
        assert len(camp_a.engine.queue) > len(first.engine.queue) - 30

    def test_resume_starts_from_saved_queue(self, tmp_path):
        corpus = tmp_path / "corpus"
        first = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=6)
        first.run(30)
        saved = first.engine.save_corpus(corpus)
        resumed = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=6,
                           corpus_dir=corpus)
        # 5 built-in seeds + every saved entry.
        assert len(resumed.engine.queue) == 5 + saved
