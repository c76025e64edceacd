"""Tests for the Bochs-derived validator's rounding (incl. properties)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cpuid import Vendor, default_feature_map, features_for
from repro.arch.registers import Cr4, Efer
from repro.cpu.entry_checks import check_host_state, check_vm_controls
from repro.hypervisors.base import VcpuConfig
from repro.hypervisors.kvm.module import KvmModuleParams
from repro.validator.base import Rounder
from repro.validator.golden import golden_vmcs
from repro.validator.rounding import VmStateValidator
from repro.vmx import fields as F
from repro.vmx.controls import ActivityState, EntryControls, ProcBased
from repro.vmx.msr_caps import capabilities_for_features, default_capabilities
from repro.vmx.vmcs import _LOG_MAX, Vmcs
from tests.reference import group_rounder, per_field_rounder

raw_vmcs = st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES)


@pytest.fixture
def validator():
    return VmStateValidator()


class TestGroupOrder:
    def test_golden_is_near_fixed_point(self, validator):
        """Rounding the golden state changes only gated-field padding."""
        vmcs = golden_vmcs()
        report = validator.round_to_valid(vmcs)
        # Second pass is a strict fixed point.
        assert validator.is_fixed_point(vmcs)
        assert report.total >= 0

    def test_report_groups_ordered(self, validator):
        vmcs = Vmcs.deserialize(bytes(range(256)) * 4)
        report = validator.round_to_valid(vmcs)
        assert report.all == report.controls + report.host + report.guest

    def test_paper_example_lme_forces_pae(self, validator):
        """§4.3's worked example: IA-32e requested while CR4.PAE unset —
        the validator forces the bit to 1."""
        vmcs = golden_vmcs()
        vmcs.write(F.GUEST_CR4, vmcs.read(F.GUEST_CR4) & ~Cr4.PAE)
        validator.round_to_valid(vmcs)
        assert vmcs.read(F.GUEST_CR4) & Cr4.PAE

    def test_controls_rounded_before_guest(self, validator):
        """The guest group reads the already-rounded entry controls."""
        vmcs = golden_vmcs()
        # Corrupt entry controls so that reserved bits force rounding;
        # IA-32e remains set and the guest group must still see it.
        vmcs.write(F.VM_ENTRY_CONTROLS, 0xFFFFFFFF)
        vmcs.write(F.GUEST_IA32_EFER, 0)
        validator.round_to_valid(vmcs)
        entry = vmcs.read(F.VM_ENTRY_CONTROLS)
        if entry & EntryControls.IA32E_MODE_GUEST:
            assert vmcs.read(F.GUEST_IA32_EFER) & Efer.LMA


class TestControlsRounding:
    def test_read_only_fields_zeroed(self, validator):
        vmcs = Vmcs.deserialize(b"\xa5" * F.LAYOUT_BYTES)
        validator.round_to_valid(vmcs)
        assert vmcs.read(F.VM_EXIT_REASON) == 0
        assert vmcs.read(F.EXIT_QUALIFICATION) == 0

    def test_reserved_bits_fixed(self, validator):
        vmcs = Vmcs()
        validator.round_to_valid(vmcs)
        caps = default_capabilities()
        assert caps.pin_based.permits(vmcs.read(F.PIN_BASED_VM_EXEC_CONTROL))
        assert caps.proc_based.permits(vmcs.read(F.CPU_BASED_VM_EXEC_CONTROL))

    def test_gated_fields_normalised(self, validator):
        vmcs = Vmcs()
        vmcs.write(F.IO_BITMAP_A, 0xDEADBEEF000)
        vmcs.write(F.TSC_MULTIPLIER, 77)
        validator.round_to_valid(vmcs)
        assert vmcs.read(F.IO_BITMAP_A) == 0   # I/O bitmaps unused
        assert vmcs.read(F.TSC_MULTIPLIER) == 0

    def test_addresses_rounded_into_guest_ram(self, validator):
        vmcs = Vmcs()
        vmcs.write(F.CPU_BASED_VM_EXEC_CONTROL,
                   ProcBased.DEFAULT1 | ProcBased.USE_MSR_BITMAPS)
        vmcs.write(F.MSR_BITMAP, 0xFFFF_FFFF_F123)
        validator.round_to_valid(vmcs)
        bitmap = vmcs.read(F.MSR_BITMAP)
        assert bitmap < 0x1000_0000 and not bitmap & 0xFFF

    def test_smm_controls_cleared(self, validator):
        vmcs = golden_vmcs()
        vmcs.write(F.VM_ENTRY_CONTROLS,
                   vmcs.read(F.VM_ENTRY_CONTROLS) | EntryControls.ENTRY_TO_SMM)
        validator.round_to_valid(vmcs)
        assert not vmcs.read(F.VM_ENTRY_CONTROLS) & EntryControls.ENTRY_TO_SMM


class TestGuestRounding:
    def test_activity_state_bounded(self, validator):
        vmcs = golden_vmcs()
        vmcs.write(F.GUEST_ACTIVITY_STATE, 0xFF)
        validator.round_to_valid(vmcs)
        assert vmcs.read(F.GUEST_ACTIVITY_STATE) in ActivityState.ALL

    def test_wait_for_sipi_survives_rounding(self, validator):
        """Near-boundary states like WAIT_FOR_SIPI must *survive*
        rounding — they are valid, just dangerous (Xen bug #4)."""
        vmcs = golden_vmcs()
        vmcs.write(F.GUEST_ACTIVITY_STATE, ActivityState.WAIT_FOR_SIPI)
        validator.round_to_valid(vmcs)
        assert vmcs.read(F.GUEST_ACTIVITY_STATE) == ActivityState.WAIT_FOR_SIPI

    def test_tr_forced_usable(self, validator):
        vmcs = golden_vmcs()
        vmcs.write(F.GUEST_TR_AR_BYTES, 1 << 16)
        validator.round_to_valid(vmcs)
        assert not vmcs.read(F.GUEST_TR_AR_BYTES) & (1 << 16)

    def test_rip_canonicalised(self, validator):
        vmcs = golden_vmcs()
        vmcs.write(F.GUEST_RIP, 0x8000_0000_0000)  # non-canonical
        validator.round_to_valid(vmcs)
        rip = vmcs.read(F.GUEST_RIP)
        assert rip in (0xFFFF_8000_0000_0000, 0x8000_0000_0000 & 0xFFFFFFFF)


class TestRoundingProperties:
    @given(raw_vmcs)
    @settings(max_examples=40, deadline=None)
    def test_rounding_is_idempotent(self, raw):
        validator = VmStateValidator()
        vmcs = Vmcs.deserialize(raw)
        validator.round_to_valid(vmcs)
        assert validator.is_fixed_point(vmcs)

    @given(raw_vmcs)
    @settings(max_examples=40, deadline=None)
    def test_rounded_controls_pass_hardware(self, raw):
        validator = VmStateValidator()
        vmcs = Vmcs.deserialize(raw)
        validator.round_to_valid(vmcs)
        caps = default_capabilities()
        # Controls may still trip the deliberate modelling gaps; filter
        # those out — everything else must pass hardware checks.
        gaps = ("acknowledge",)
        violations = [v for v in check_vm_controls(vmcs, caps)
                      if not any(g in v.reason for g in gaps)]
        assert violations == []

    @given(raw_vmcs)
    @settings(max_examples=40, deadline=None)
    def test_rounded_host_state_passes_hardware_except_gap(self, raw):
        validator = VmStateValidator()
        vmcs = Vmcs.deserialize(raw)
        validator.round_to_valid(vmcs)
        violations = [v for v in check_host_state(vmcs, default_capabilities())
                      if v.field != "host_tr_selector"]  # the documented gap
        assert violations == []

    @given(raw_vmcs)
    @settings(max_examples=20, deadline=None)
    def test_restricted_caps_respected(self, raw):
        features = default_feature_map(Vendor.INTEL)
        features["ept"] = False
        caps = capabilities_for_features(features)
        validator = VmStateValidator(caps)
        vmcs = Vmcs.deserialize(raw)
        validator.round_to_valid(vmcs)
        assert caps.secondary.permits(vmcs.read(F.SECONDARY_VM_EXEC_CONTROL))

    @given(raw_vmcs)
    @settings(max_examples=20, deadline=None)
    def test_predicted_violations_does_not_mutate(self, raw):
        validator = VmStateValidator()
        vmcs = Vmcs.deserialize(raw)
        image = vmcs.serialize()
        validator.predicted_violations(vmcs)
        assert vmcs.serialize() == image


def _l1_caps(hypervisor: str, bits: int):
    """The capabilities a campaign's Intel state generator rounds with:
    the vCPU configuration bits *bits* turned into a feature map (as
    ``VcpuConfigurator`` does), then into KVM's L1 capabilities or, for
    Xen and VirtualBox, the feature-derived ones (as the agent does)."""
    if hypervisor == "default":
        return default_capabilities()
    features = default_feature_map(Vendor.INTEL)
    for position, feature in enumerate(features_for(Vendor.INTEL)):
        if feature.name != "nested":
            features[feature.name] = bool(bits >> position & 1)
    if hypervisor == "kvm":
        config = VcpuConfig(Vendor.INTEL, features)
        return KvmModuleParams.from_config(config).l1_vmx_capabilities()
    return capabilities_for_features(features)


class TestOverlayMatchesPerFieldRounder:
    """The rounder corrects one private copy of the values and commits
    all three groups at once; the per-field reference runs the group
    routines of tests/reference/group_rounder.py and writes every
    correction as it happens. Both must leave the same VMCS, generation
    and journal, and report the same corrections."""

    @pytest.mark.parametrize("hypervisor", ["default", "kvm", "xen", "vbox"])
    @given(raw_vmcs, st.integers(0, (1 << 64) - 1),
           st.one_of(st.integers(0, 3), st.integers(_LOG_MAX - 120, _LOG_MAX - 1)))
    @settings(max_examples=40, deadline=None)
    def test_equal_reports_values_and_journal(self, hypervisor, raw, bits,
                                              churn):
        caps = _l1_caps(hypervisor, bits)
        validator = VmStateValidator(caps)
        vmcs = Vmcs.deserialize(raw, caps.vmcs_revision_id)
        for _ in range(churn):
            vmcs.write(F.GUEST_RSP, vmcs.read(F.GUEST_RSP) ^ 1)
        ref = vmcs.copy()
        g0 = vmcs.generation
        for _ in range(2):  # the rounding pass, then its fixed point
            report = validator.round_to_valid(vmcs)
            with per_field_rounder() as rounders:
                group_rounder.round_to_valid(ref, caps)
            controls, host, guest = (r.corrections for r in rounders)
            assert report.controls == controls
            assert report.host == host
            assert report.guest == guest
            assert report.all == controls + host + guest
            assert report.total == len(controls + host + guest)
            assert vmcs == ref
            assert vmcs.generation == ref.generation
            assert (vmcs._log, vmcs._log_base) == (ref._log, ref._log_base)
            assert vmcs.changes_since(g0) == ref.changes_since(g0)
        assert report.total == 0


class TestRounder:
    def test_corrections_reach_the_vmcs_on_commit(self):
        vmcs = Vmcs()
        r = Rounder(vmcs)
        r.force(F.GUEST_ES_SELECTOR, 0x12345, "16-bit field")
        r.set_bits(F.GUEST_RIP, 0x10, "set")
        r.force(F.GUEST_RSP, 0, "unchanged")
        assert r.values[F.GUEST_ES_SELECTOR] == 0x2345
        assert vmcs == Vmcs() and vmcs.generation == 0
        assert r.commit() == [(F.GUEST_ES_SELECTOR, 0, 0x2345, "16-bit field"),
                              (F.GUEST_RIP, 0, 0x10, "set")]
        assert vmcs.read(F.GUEST_ES_SELECTOR) == 0x2345
        assert vmcs.read(F.GUEST_RIP) == 0x10
        assert vmcs.generation == 2
