"""Unit tests for the VMX capability-MSR model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cpuid import Vendor, default_feature_map
from repro.vmx.controls import PinBased, ProcBased, Secondary
from repro.vmx.msr_caps import (
    CAPABILITY_FEATURES,
    ControlCaps,
    _derive_capabilities,
    capabilities_for_features,
    default_capabilities,
)


class TestControlCaps:
    def test_permits_requires_allowed0(self):
        caps = ControlCaps(allowed0=0b11, allowed1=0xFF)
        assert caps.permits(0b11)
        assert not caps.permits(0b01)

    def test_permits_rejects_disallowed1(self):
        caps = ControlCaps(allowed0=0, allowed1=0b1111)
        assert caps.permits(0b1010)
        assert not caps.permits(0b10000)

    def test_round_produces_permitted(self):
        caps = ControlCaps(allowed0=0b11, allowed1=0b111)
        assert caps.permits(caps.round(0))
        assert caps.permits(caps.round(0xFFFFFFFF))

    def test_round_idempotent(self):
        caps = ControlCaps(allowed0=0x16, allowed1=0xFFFF)
        value = caps.round(0xDEAD)
        assert caps.round(value) == value

    def test_msr_value_packs_halves(self):
        caps = ControlCaps(allowed0=0x16, allowed1=0xFF)
        assert caps.msr_value == 0x16 | (0xFF << 32)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_always_permitted(self, value):
        caps = default_capabilities().proc_based
        assert caps.permits(caps.round(value))


class TestFeatureDerivation:
    def test_default_allows_ept(self):
        caps = default_capabilities()
        assert caps.secondary.allowed1 & Secondary.ENABLE_EPT

    def test_disabling_ept_strips_dependents(self):
        features = default_feature_map(Vendor.INTEL)
        features["ept"] = False
        caps = capabilities_for_features(features)
        assert not caps.secondary.allowed1 & Secondary.ENABLE_EPT
        assert not caps.secondary.allowed1 & Secondary.UNRESTRICTED_GUEST
        assert not caps.secondary.allowed1 & Secondary.ENABLE_PML

    def test_disabling_apicv_strips_posted_interrupts(self):
        features = default_feature_map(Vendor.INTEL)
        features["apicv"] = False
        caps = capabilities_for_features(features)
        assert not caps.pin_based.allowed1 & PinBased.POSTED_INTERRUPTS
        assert not caps.secondary.allowed1 & Secondary.VIRTUAL_INTR_DELIVERY

    def test_disabling_flexpriority_strips_tpr_shadow(self):
        features = default_feature_map(Vendor.INTEL)
        features["flexpriority"] = False
        caps = capabilities_for_features(features)
        assert not caps.proc_based.allowed1 & ProcBased.USE_TPR_SHADOW

    def test_default1_bits_always_required(self):
        caps = default_capabilities()
        assert caps.pin_based.allowed0 == PinBased.DEFAULT1
        assert not caps.pin_based.permits(0)

    def test_vmfunc_off_by_default(self):
        caps = default_capabilities()
        assert not caps.secondary.allowed1 & Secondary.ENABLE_VMFUNC


class TestCrFixedBits:
    def test_cr0_requires_pe_pg_ne(self):
        caps = default_capabilities()
        assert caps.cr0_valid_for_vmx(0x80000021 | 0x10)
        assert not caps.cr0_valid_for_vmx(0x21)  # PG missing

    def test_unrestricted_guest_exempts_pe_pg(self):
        caps = default_capabilities()
        assert caps.cr0_valid_for_vmx(0x20, unrestricted_guest=True)
        assert not caps.cr0_valid_for_vmx(0x20, unrestricted_guest=False)

    def test_cr4_requires_vmxe(self):
        caps = default_capabilities()
        assert caps.cr4_valid_for_vmx(0x2020)
        assert not caps.cr4_valid_for_vmx(0x20)

    def test_cr4_rejects_out_of_range(self):
        caps = default_capabilities()
        assert not caps.cr4_valid_for_vmx(0x2000 | (1 << 30))


_NAMES = [name for name, _ in CAPABILITY_FEATURES]
feature_maps = st.dictionaries(
    st.sampled_from(_NAMES + ["nested", "x2apic", "pcid"]),
    st.one_of(st.booleans(), st.integers(0, 2)))


class TestInterning:
    """Capability sets are interned: one shared object per set, equal and
    hash-equal to a freshly derived one."""

    @given(feature_maps)
    @settings(max_examples=200, deadline=None)
    def test_interned_equals_fresh(self, features):
        fresh = _derive_capabilities(features)
        caps = capabilities_for_features(features)
        assert caps == fresh
        assert hash(caps) == hash(fresh)
        assert capabilities_for_features(dict(features)) is caps

    @given(feature_maps, feature_maps)
    @settings(max_examples=200, deadline=None)
    def test_equal_sets_share_one_object(self, a, b):
        if _derive_capabilities(a) == _derive_capabilities(b):
            assert capabilities_for_features(a) is capabilities_for_features(b)
        else:
            assert capabilities_for_features(a) != capabilities_for_features(b)

    def test_key_covers_every_feature_read(self):
        read: dict[str, bool] = {}

        class Recording(dict):
            def get(self, name, default=None):
                read[name] = default
                return super().get(name, default)

        _derive_capabilities(Recording())
        assert read == dict(CAPABILITY_FEATURES)

    def test_default_is_shared(self):
        caps = default_capabilities()
        assert default_capabilities() is caps
        assert caps == _derive_capabilities(default_feature_map(Vendor.INTEL))
        assert capabilities_for_features(default_feature_map(Vendor.INTEL)) is caps
