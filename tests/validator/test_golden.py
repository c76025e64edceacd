"""Tests for the golden (default-initialised) VM states."""

import pytest

from repro.arch.registers import Cr0, Cr4, Efer, Rflags
from repro.cpu.entry_checks import (
    _MEMO_KEY,
    UNITS,
    CheckStage,
    IncrementalChecker,
    _run_unit,
    check_all,
)
from repro.cpu.svm_cpu import check_vmcb
from repro.hypervisors import (
    KvmHypervisor,
    VboxHypervisor,
    VcpuConfig,
    XenHypervisor,
)
from repro.validator.golden import golden_vmcb, golden_vmcs
from repro.vmx import fields as F
from repro.vmx.controls import EntryControls, Secondary
from repro.vmx.msr_caps import capabilities_for_features, default_capabilities
from repro.arch.cpuid import Vendor, default_feature_map


class TestGoldenVmcs:
    def test_passes_all_hardware_checks(self):
        assert check_all(golden_vmcs(), default_capabilities()) == []

    def test_is_64bit_guest(self):
        vmcs = golden_vmcs()
        assert vmcs.read(F.VM_ENTRY_CONTROLS) & EntryControls.IA32E_MODE_GUEST
        assert vmcs.read(F.GUEST_IA32_EFER) & Efer.LMA
        assert vmcs.read(F.GUEST_CR0) & Cr0.PG
        assert vmcs.read(F.GUEST_CR4) & Cr4.PAE

    def test_respects_restricted_capabilities(self):
        features = default_feature_map(Vendor.INTEL)
        features["ept"] = False
        caps = capabilities_for_features(features)
        vmcs = golden_vmcs(caps)
        assert not vmcs.read(F.SECONDARY_VM_EXEC_CONTROL) & Secondary.ENABLE_EPT
        assert check_all(vmcs, caps) == []

    def test_interrupts_enabled(self):
        # IF is deliberately set so event-injection mutations stay valid.
        assert golden_vmcs().read(F.GUEST_RFLAGS) & Rflags.IF

    def test_cs_is_long_mode_code(self):
        ar = golden_vmcs().read(F.GUEST_CS_AR_BYTES)
        assert ar & (1 << 13)      # L
        assert not ar & (1 << 14)  # not D/B
        assert ar & 0x8            # code

    def test_link_pointer_all_ones(self):
        assert golden_vmcs().read(F.VMCS_LINK_POINTER) == (1 << 64) - 1


def _caps_sets():
    """Default caps and the L1 caps each Intel model exposes."""
    caps = {"default": default_capabilities()}
    for name, cls in (("kvm", KvmHypervisor), ("xen", XenHypervisor),
                      ("vbox", VboxHypervisor)):
        caps[name] = cls(VcpuConfig.default(Vendor.INTEL)).nested_vmx.caps
    return caps


CAPS = _caps_sets()


@pytest.mark.parametrize("caps", list(CAPS.values()), ids=list(CAPS))
class TestWarmTemplate:
    """Golden VMCS copies carry a warm entry-check memo that is exactly
    what a cold pass over the same copy computes."""

    def test_copy_carries_memo_for_its_caps(self, caps):
        vmcs = golden_vmcs(caps)
        entry = vmcs.memo_get(_MEMO_KEY)
        assert entry is not None
        gen, _, memo_caps = entry
        assert gen == vmcs.generation
        assert memo_caps == caps

    def test_memo_equals_fresh_unit_pass(self, caps):
        vmcs = golden_vmcs(caps)
        fresh = tuple(_run_unit(unit, vmcs, caps) for unit in UNITS)
        assert vmcs.memo_get(_MEMO_KEY)[1] == fresh
        assert IncrementalChecker(caps).results(vmcs) == fresh

    @pytest.mark.parametrize("encoding,stage", [
        (None, None),
        (F.CPU_BASED_VM_EXEC_CONTROL, CheckStage.CONTROLS),
        (F.HOST_CR0, CheckStage.HOST_STATE),
        (F.GUEST_RFLAGS, CheckStage.GUEST_STATE),
    ], ids=["untouched", "controls", "host", "guest"])
    def test_incremental_check_equals_full(self, caps, encoding, stage):
        vmcs = golden_vmcs(caps)
        if encoding is not None:
            vmcs.write(encoding, 0)
        expected = check_all(vmcs, caps)
        assert {v.stage for v in expected} == ({stage} if stage else set())
        assert IncrementalChecker(caps).check_all(vmcs) == expected


class TestGoldenVmcb:
    def test_passes_vmrun_checks(self):
        assert check_vmcb(golden_vmcb()) == []

    def test_is_64bit_guest(self):
        vmcb = golden_vmcb()
        assert vmcb.long_mode_active
        assert vmcb.paging_enabled

    def test_nested_paging_toggle(self):
        assert golden_vmcb(nested_paging=True).nested_paging
        no_np = golden_vmcb(nested_paging=False)
        assert not no_np.nested_paging
        assert check_vmcb(no_np) == []

    def test_vmrun_intercept_set(self):
        from repro.svm import fields as SF

        assert golden_vmcb().read(SF.INTERCEPT_MISC2) & SF.Misc2Intercept.VMRUN

    def test_asid_nonzero(self):
        from repro.svm import fields as SF

        assert golden_vmcb().read(SF.GUEST_ASID) == 1
