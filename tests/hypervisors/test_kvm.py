"""Tests for the simulated KVM hypervisor (nested VMX/SVM emulation)."""

from contextlib import nullcontext

import pytest

from repro.arch.cpuid import Vendor
from repro.arch.msr import IA32_EFER, IA32_KERNEL_GS_BASE, MsrEntry
from repro.arch.registers import Cr4, Efer
from repro.hypervisors import GuestInstruction, KvmHypervisor, VcpuConfig
from repro.hypervisors.base import SanitizerKind
from repro.hypervisors.kvm.nested_vmx import VMCS01_HPA
from repro.svm import fields as SF
from repro.validator.golden import golden_vmcb, golden_vmcs
from repro.vmx import fields as F
from repro.vmx.controls import ActivityState
from repro.vmx.exit_reasons import ExitReason
from tests.reference import full_recompute

VMXON = 0x1000
VMCS12 = 0x3000
VMCB12 = 0x3000


def run(hv, vcpu, mnemonic, level=1, **operands):
    return hv.execute(vcpu, GuestInstruction(mnemonic, operands, level=level))


def write_vmcs12(hv, vcpu, vmcs):
    for spec, value in vmcs.fields():
        if spec.group is not F.FieldGroup.READ_ONLY:
            run(hv, vcpu, "vmwrite", field=spec.encoding, value=value)


@pytest.fixture
def intel():
    hv = KvmHypervisor(VcpuConfig.default(Vendor.INTEL))
    return hv, hv.create_vcpu()


@pytest.fixture
def amd():
    hv = KvmHypervisor(VcpuConfig.default(Vendor.AMD))
    vcpu = hv.create_vcpu()
    run(hv, vcpu, "wrmsr", msr=IA32_EFER, value=Efer.SVME)
    return hv, vcpu


def launch_l2(hv, vcpu, vmcs=None):
    run(hv, vcpu, "vmxon", addr=VMXON)
    run(hv, vcpu, "vmclear", addr=VMCS12)
    run(hv, vcpu, "vmptrld", addr=VMCS12)
    write_vmcs12(hv, vcpu, vmcs or golden_vmcs(hv.nested_vmx.caps))
    return run(hv, vcpu, "vmlaunch")


class TestNestedVmxLifecycle:
    def test_full_launch_reaches_l2(self, intel):
        hv, vcpu = intel
        result = launch_l2(hv, vcpu)
        assert result.ok and result.level == 2
        assert vcpu.level == 2

    def test_vmxon_requires_cr4_vmxe(self, intel):
        hv, vcpu = intel
        vcpu.vmx.cr4 = 0
        assert not run(hv, vcpu, "vmxon", addr=VMXON).ok

    def test_vmlaunch_without_vmxon_faults(self, intel):
        hv, vcpu = intel
        assert not run(hv, vcpu, "vmlaunch").ok

    def test_double_launch_vmfails(self, intel):
        hv, vcpu = intel
        launch_l2(hv, vcpu)
        result = run(hv, vcpu, "vmlaunch")
        assert "VMfail" in result.detail

    def test_l2_exit_reflects_to_l1(self, intel):
        hv, vcpu = intel
        launch_l2(hv, vcpu)
        result = run(hv, vcpu, "cpuid", level=2)
        assert result.level == 1
        assert result.exit_reason == int(ExitReason.CPUID)
        vmcs12 = hv.memory.get_vmcs(VMCS12)
        assert vmcs12.read(F.VM_EXIT_REASON) == int(ExitReason.CPUID)

    def test_vmresume_reenters_l2(self, intel):
        hv, vcpu = intel
        launch_l2(hv, vcpu)
        run(hv, vcpu, "cpuid", level=2)
        result = run(hv, vcpu, "vmresume")
        assert result.level == 2

    def test_msr_bitmap_decides_reflection(self, intel):
        hv, vcpu = intel
        from repro.vmx.controls import ProcBased

        vmcs = golden_vmcs(hv.nested_vmx.caps)
        vmcs.write(F.CPU_BASED_VM_EXEC_CONTROL,
                   vmcs.read(F.CPU_BASED_VM_EXEC_CONTROL)
                   | ProcBased.USE_MSR_BITMAPS)
        vmcs.write(F.MSR_BITMAP, 0x12000)
        launch_l2(hv, vcpu, vmcs)
        # Even-indexed MSR -> not in the modelled bitmap -> L0 handles.
        result = run(hv, vcpu, "rdmsr", level=2, msr=0x10)
        assert result.level == 2
        # Odd-indexed MSR -> trapped by L1.
        result = run(hv, vcpu, "rdmsr", level=2, msr=0x11)
        assert result.level == 1

    def test_l2_vmx_instruction_always_reflects(self, intel):
        hv, vcpu = intel
        launch_l2(hv, vcpu)
        result = run(hv, vcpu, "vmxon", level=2, addr=VMXON)
        assert result.level == 1
        assert result.exit_reason == int(ExitReason.VMXON)

    def test_activity_state_sanitized(self, intel):
        """KVM rejects auxiliary activity states (unlike Xen, bug #4)."""
        hv, vcpu = intel
        vmcs = golden_vmcs(hv.nested_vmx.caps)
        vmcs.write(F.GUEST_ACTIVITY_STATE, ActivityState.WAIT_FOR_SIPI)
        result = launch_l2(hv, vcpu, vmcs)
        assert "entry failed" in result.detail
        assert result.exit_reason & (1 << 31)

    def test_isolation_rule_rejects_l0_pointers(self, intel):
        hv, vcpu = intel
        from repro.vmx.controls import ProcBased

        vmcs = golden_vmcs(hv.nested_vmx.caps)
        vmcs.write(F.CPU_BASED_VM_EXEC_CONTROL,
                   vmcs.read(F.CPU_BASED_VM_EXEC_CONTROL)
                   | ProcBased.USE_MSR_BITMAPS)
        vmcs.write(F.MSR_BITMAP, 0xF0000000)  # L0-reserved window
        result = launch_l2(hv, vcpu, vmcs)
        assert "VMfailValid" in result.detail


class TestVmcs01Relaunch:
    """``nested_vmx_vmexit`` relaunches L1 on a copy of the golden
    VMCS01, whose entry-check memo is warm; the outcome must be the one
    a full recompute gives."""

    @staticmethod
    def _relaunches(incremental):
        with nullcontext() if incremental else full_recompute():
            hv = KvmHypervisor(VcpuConfig.default(Vendor.INTEL))
            vcpu = hv.create_vcpu()
            phys = hv.nested_vmx.phys
            launch = phys.vmlaunch
            outcomes = []

            def recording_vmlaunch(*args, **kwargs):
                outcome = launch(*args, **kwargs)
                if phys.current_vmcs_ptr == VMCS01_HPA:
                    outcomes.append((outcome.entered, outcome.fixups,
                                     outcome.violations))
                return outcome

            phys.vmlaunch = recording_vmlaunch
            launch_l2(hv, vcpu)
            for _ in range(3):
                assert run(hv, vcpu, "cpuid", level=2).level == 1
                assert run(hv, vcpu, "vmresume").level == 2
        return outcomes

    def test_outcome_equal_in_both_modes(self):
        incremental = self._relaunches(True)
        assert len(incremental) == 3
        assert all(entered for entered, _, _ in incremental)
        assert incremental == self._relaunches(False)


class TestKvmCanonicalMsrCheck:
    def test_non_canonical_msr_load_fails_entry(self, intel):
        """KVM validates canonicality correctly (§5.5.3's contrast with
        VirtualBox): entry fails cleanly with reason 34."""
        hv, vcpu = intel
        vmcs = golden_vmcs(hv.nested_vmx.caps)
        vmcs.write(F.VM_ENTRY_MSR_LOAD_COUNT, 1)
        vmcs.write(F.VM_ENTRY_MSR_LOAD_ADDR, 0x15000)
        hv.memory.put_msr_area(0x15000, [
            MsrEntry(IA32_KERNEL_GS_BASE, 0x8000_0000_0000_0000)])
        result = launch_l2(hv, vcpu, vmcs)
        assert result.exit_reason & 0xFFFF == int(ExitReason.MSR_LOAD_FAIL)
        assert not hv.sanitizer_events  # no crash, clean rejection

    def test_unreadable_msr_area_fails_entry(self, intel):
        hv, vcpu = intel
        vmcs = golden_vmcs(hv.nested_vmx.caps)
        vmcs.write(F.VM_ENTRY_MSR_LOAD_COUNT, 1)
        # Outside guest RAM but not in the L0-reserved window (that
        # would trip the isolation check first).
        vmcs.write(F.VM_ENTRY_MSR_LOAD_ADDR, 0x20000000)
        result = launch_l2(hv, vcpu, vmcs)
        assert "not readable" in result.detail

    def test_l0_reserved_msr_area_hits_isolation_check(self, intel):
        hv, vcpu = intel
        vmcs = golden_vmcs(hv.nested_vmx.caps)
        vmcs.write(F.VM_ENTRY_MSR_LOAD_COUNT, 1)
        vmcs.write(F.VM_ENTRY_MSR_LOAD_ADDR, 0xF0000000)
        result = launch_l2(hv, vcpu, vmcs)
        assert "VMfailValid" in result.detail


class TestBug1Cve202330456:
    def _cve_state(self, hv):
        vmcs = golden_vmcs(hv.nested_vmx.caps)
        vmcs.write(F.GUEST_CR4, vmcs.read(F.GUEST_CR4) & ~Cr4.PAE)
        vmcs.write(F.GUEST_RIP, 0x7FFF_FFFF_F000)  # large walk address
        return vmcs

    def test_triggers_with_ept_disabled(self):
        config = VcpuConfig.default(Vendor.INTEL)
        config.features["ept"] = False
        hv = KvmHypervisor(config)
        vcpu = hv.create_vcpu()
        result = launch_l2(hv, vcpu, self._cve_state(hv))
        assert result.ok
        ubsan = [e for e in hv.sanitizer_events
                 if e.kind is SanitizerKind.UBSAN]
        assert ubsan and "out-of-bounds" in ubsan[0].message

    def test_l2_page_walk_also_triggers(self):
        config = VcpuConfig.default(Vendor.INTEL)
        config.features["ept"] = False
        hv = KvmHypervisor(config)
        vcpu = hv.create_vcpu()
        vmcs = self._cve_state(hv)
        vmcs.write(F.GUEST_RIP, 0x1000)  # small RIP: entry walk is clean
        launch_l2(hv, vcpu, vmcs)
        hv.sanitizer_events.clear()
        run(hv, vcpu, "memaccess", level=2, value=0x7FFF_0000_0000)
        assert any(e.kind is SanitizerKind.UBSAN for e in hv.sanitizer_events)

    def test_not_triggered_with_ept_enabled(self, intel):
        hv, vcpu = intel
        launch_l2(hv, vcpu, self._cve_state(hv))
        assert not any(e.kind is SanitizerKind.UBSAN
                       for e in hv.sanitizer_events)

    def test_patched_kvm_rejects_state(self):
        config = VcpuConfig.default(Vendor.INTEL)
        config.features["ept"] = False
        hv = KvmHypervisor(config, patched=frozenset({"cr4_pae_consistency"}))
        vcpu = hv.create_vcpu()
        result = launch_l2(hv, vcpu, self._cve_state(hv))
        assert "entry failed" in result.detail
        assert not hv.sanitizer_events


class TestBug3ShadowRoot:
    def _bad_eptp_state(self, hv):
        vmcs = golden_vmcs(hv.nested_vmx.caps)
        # Format-valid EPTP pointing at unbacked memory.
        vmcs.write(F.EPT_POINTER, 0xF0000000 | 6 | (3 << 3))
        return vmcs

    def test_spurious_triple_fault(self, intel):
        hv, vcpu = intel
        result = launch_l2(hv, vcpu, self._bad_eptp_state(hv))
        assert result.exit_reason == int(ExitReason.TRIPLE_FAULT)
        assert any(e.kind is SanitizerKind.ASSERTION
                   for e in hv.sanitizer_events)

    def test_dummy_root_patch_fixes_it(self):
        hv = KvmHypervisor(VcpuConfig.default(Vendor.INTEL),
                           patched=frozenset({"dummy_root"}))
        vcpu = hv.create_vcpu()
        result = launch_l2(hv, vcpu, self._bad_eptp_state(hv))
        assert result.level == 2  # L2 runs on the zero-page dummy root
        assert not hv.sanitizer_events
        assert hv.nested_vmx.mmu.root.dummy


class TestNestedSvm:
    def test_vmrun_reaches_l2(self, amd):
        hv, vcpu = amd
        hv.memory.put_vmcb(VMCB12, golden_vmcb())
        result = run(hv, vcpu, "vmrun", addr=VMCB12)
        assert result.level == 2

    def test_vmrun_requires_svme(self):
        hv = KvmHypervisor(VcpuConfig.default(Vendor.AMD))
        vcpu = hv.create_vcpu()
        hv.memory.put_vmcb(VMCB12, golden_vmcb())
        assert not run(hv, vcpu, "vmrun", addr=VMCB12).ok

    def test_invalid_vmcb_fails_with_exit_code(self, amd):
        hv, vcpu = amd
        vmcb = golden_vmcb()
        vmcb.write(SF.GUEST_ASID, 0)
        hv.memory.put_vmcb(VMCB12, vmcb)
        result = run(hv, vcpu, "vmrun", addr=VMCB12)
        assert "vmrun failed" in result.detail
        from repro.svm.exit_codes import SvmExitCode
        assert vmcb.read(SF.EXIT_CODE) == int(SvmExitCode.INVALID)

    def test_l2_exit_reflection(self, amd):
        hv, vcpu = amd
        hv.memory.put_vmcb(VMCB12, golden_vmcb())
        run(hv, vcpu, "vmrun", addr=VMCB12)
        result = run(hv, vcpu, "cpuid", level=2)
        assert result.level == 1

    def test_bug3_amd_invalid_ncr3(self, amd):
        hv, vcpu = amd
        vmcb = golden_vmcb()
        vmcb.write(SF.N_CR3, 0xF0000000)  # unbacked
        hv.memory.put_vmcb(VMCB12, vmcb)
        result = run(hv, vcpu, "vmrun", addr=VMCB12)
        assert "spurious shutdown" in result.detail
        assert any(e.kind is SanitizerKind.ASSERTION
                   for e in hv.sanitizer_events)

    def test_bug3_amd_dummy_root_patch(self):
        hv = KvmHypervisor(VcpuConfig.default(Vendor.AMD),
                           patched=frozenset({"dummy_root"}))
        vcpu = hv.create_vcpu()
        run(hv, vcpu, "wrmsr", msr=IA32_EFER, value=Efer.SVME)
        vmcb = golden_vmcb()
        vmcb.write(SF.N_CR3, 0xF0000000)
        hv.memory.put_vmcb(VMCB12, vmcb)
        result = run(hv, vcpu, "vmrun", addr=VMCB12)
        assert result.level == 2
        assert not hv.sanitizer_events

    def test_vmrun_works_under_clgi(self, amd):
        """The canonical clgi; vmrun; stgi sequence: GIF masks interrupt
        delivery but does not gate vmrun itself."""
        hv, vcpu = amd
        hv.memory.put_vmcb(VMCB12, golden_vmcb())
        run(hv, vcpu, "clgi")
        assert not vcpu.svm.gif
        assert run(hv, vcpu, "vmrun", addr=VMCB12).level == 2


class TestHostIoctlSurface:
    def test_nested_state_roundtrip(self, intel):
        hv, vcpu = intel
        launch_l2(hv, vcpu)
        blob = hv.nested_vmx.vmx_get_nested_state(vcpu.vmx)
        assert blob["vmxon"] and blob["guest_mode"]
        fresh = hv.create_vcpu()
        assert hv.nested_vmx.vmx_set_nested_state(fresh.vmx, blob) == 0
        assert fresh.vmx.guest_mode

    def test_set_nested_state_rejects_bad_blob(self, intel):
        hv, vcpu = intel
        assert hv.nested_vmx.vmx_set_nested_state(vcpu.vmx, {"format": "svm"}) == -22
        assert hv.nested_vmx.vmx_set_nested_state(
            vcpu.vmx, {"format": "vmx", "guest_mode": True}) == -22

    def test_hardware_setup(self, intel):
        hv, _ = intel
        assert hv.nested_vmx.nested_vmx_hardware_setup()

    def test_svm_nested_state_roundtrip(self, amd):
        hv, vcpu = amd
        hv.memory.put_vmcb(VMCB12, golden_vmcb())
        run(hv, vcpu, "vmrun", addr=VMCB12)
        blob = hv.nested_svm.svm_get_nested_state(vcpu.svm)
        fresh = hv.create_vcpu()
        assert hv.nested_svm.svm_set_nested_state(fresh.svm, blob) == 0
        assert fresh.svm.guest_mode


class TestModuleParams:
    def test_disabling_nested_blocks_vmx(self):
        config = VcpuConfig.default(Vendor.INTEL)
        config.features["nested"] = False
        hv = KvmHypervisor(config)
        vcpu = hv.create_vcpu()
        assert not run(hv, vcpu, "vmxon", addr=VMXON).ok

    def test_ept_param_shapes_l1_caps(self):
        from repro.vmx.controls import Secondary

        config = VcpuConfig.default(Vendor.INTEL)
        config.features["ept"] = False
        hv = KvmHypervisor(config)
        assert not hv.nested_vmx.caps.secondary.allowed1 & Secondary.ENABLE_EPT

    def test_cmdline_rendering(self):
        from repro.hypervisors.kvm.module import KvmModuleParams

        params = KvmModuleParams(ept=False)
        line = params.cmdline(Vendor.INTEL)
        assert "ept=0" in line and "nested=1" in line
