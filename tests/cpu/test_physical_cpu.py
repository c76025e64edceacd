"""Unit tests for the simulated VMX CPU (instruction state machine)."""

import pytest

from repro.cpu import physical_cpu
from repro.cpu.physical_cpu import VmxCpu, VmxResultKind
from repro.validator.golden import golden_vmcs
from repro.vmx import fields as F
from repro.vmx.exit_reasons import ExitReason, VmInstructionError
from repro.vmx.vmcs import Vmcs

VMXON = 0x1000
VMCS = 0x2000


@pytest.fixture
def cpu():
    return VmxCpu()


@pytest.fixture
def ready_cpu():
    """A CPU in VMX root operation with a current golden VMCS."""
    cpu = VmxCpu()
    cpu.vmxon(VMXON)
    cpu.vmclear(VMCS)
    image = golden_vmcs(cpu.caps)
    image.clear()
    cpu.install_vmcs(VMCS, image)
    cpu.vmptrld(VMCS)
    return cpu


class TestVmxon:
    def test_vmxon_succeeds(self, cpu):
        assert cpu.vmxon(VMXON).ok
        assert cpu.vmx_on

    def test_double_vmxon_fails_valid(self, cpu):
        cpu.vmxon(VMXON)
        result = cpu.vmxon(VMXON)
        assert result.kind is VmxResultKind.FAIL_VALID
        assert result.error is VmInstructionError.VMXON_IN_VMX_ROOT

    def test_misaligned_region_fails_invalid(self, cpu):
        assert cpu.vmxon(0x1234).kind is VmxResultKind.FAIL_INVALID

    def test_vmxoff(self, cpu):
        cpu.vmxon(VMXON)
        assert cpu.vmxoff().ok
        assert not cpu.vmx_on

    def test_vmxoff_outside_vmx_fails(self, cpu):
        assert cpu.vmxoff().kind is VmxResultKind.FAIL_INVALID


class TestVmclearVmptrld:
    def test_vmclear_creates_clear_vmcs(self, cpu):
        cpu.vmxon(VMXON)
        assert cpu.vmclear(VMCS).ok
        assert not cpu.memory[VMCS].launched

    def test_vmclear_vmxon_pointer_rejected(self, cpu):
        cpu.vmxon(VMXON)
        result = cpu.vmclear(VMXON)
        assert result.error is VmInstructionError.VMCLEAR_VMXON_POINTER

    def test_vmclear_clears_current_pointer(self, cpu):
        cpu.vmxon(VMXON)
        cpu.vmclear(VMCS)
        cpu.vmptrld(VMCS)
        cpu.vmclear(VMCS)
        assert cpu.current_vmcs_ptr is None

    def test_vmclear_keeps_existing_vmcs(self, cpu):
        cpu.vmxon(VMXON)
        image = golden_vmcs(cpu.caps)
        image.mark_launched()
        cpu.install_vmcs(VMCS, image)
        values, memo = image.serialize(), dict(image._memo)
        assert memo
        assert cpu.vmclear(VMCS).ok
        assert cpu.memory[VMCS] is image
        assert not image.launched
        assert image.serialize() == values
        assert image._memo == memo

    def test_vmclear_allocates_only_when_empty(self, cpu, monkeypatch):
        built = []

        def counting_vmcs(*args, **kwargs):
            built.append(args)
            return Vmcs(*args, **kwargs)

        monkeypatch.setattr(physical_cpu, "Vmcs", counting_vmcs)
        cpu.vmxon(VMXON)
        cpu.vmclear(VMCS)
        assert built == [(cpu.caps.vmcs_revision_id,)]
        fresh = cpu.memory[VMCS]
        assert fresh == Vmcs(cpu.caps.vmcs_revision_id)
        cpu.vmclear(VMCS)
        cpu.install_vmcs(VMCS + 0x1000, golden_vmcs(cpu.caps))
        cpu.vmclear(VMCS + 0x1000)
        assert len(built) == 1
        assert cpu.memory[VMCS] is fresh

    def test_vmptrld_requires_matching_revision(self, cpu):
        cpu.vmxon(VMXON)
        cpu.install_vmcs(VMCS, Vmcs(revision_id=0x99))
        result = cpu.vmptrld(VMCS)
        assert result.error is VmInstructionError.VMPTRLD_INCORRECT_REVISION_ID

    def test_vmptrld_vmxon_pointer_rejected(self, cpu):
        cpu.vmxon(VMXON)
        result = cpu.vmptrld(VMXON)
        assert result.error is VmInstructionError.VMPTRLD_VMXON_POINTER

    def test_vmptrst_reports_pointer(self, cpu):
        cpu.vmxon(VMXON)
        assert cpu.vmptrst().value == (1 << 64) - 1
        cpu.vmclear(VMCS)
        cpu.vmptrld(VMCS)
        assert cpu.vmptrst().value == VMCS


class TestVmreadVmwrite:
    def test_roundtrip(self, ready_cpu):
        assert ready_cpu.vmwrite(F.GUEST_RIP, 0x1234).ok
        assert ready_cpu.vmread(F.GUEST_RIP).value == 0x1234

    def test_unsupported_component(self, ready_cpu):
        assert (ready_cpu.vmread(0xDEAD).error
                is VmInstructionError.UNSUPPORTED_VMCS_COMPONENT)

    def test_read_only_component(self, ready_cpu):
        result = ready_cpu.vmwrite(F.VM_EXIT_REASON, 1)
        assert result.error is VmInstructionError.VMWRITE_READ_ONLY_COMPONENT

    def test_no_current_vmcs(self, cpu):
        cpu.vmxon(VMXON)
        assert cpu.vmread(F.GUEST_RIP).kind is VmxResultKind.FAIL_INVALID


class TestVmEntry:
    def test_golden_state_enters(self, ready_cpu):
        outcome = ready_cpu.vmlaunch()
        assert outcome.entered
        assert ready_cpu.in_guest
        assert ready_cpu.current_vmcs.launched

    def test_launch_of_launched_vmcs_fails(self, ready_cpu):
        ready_cpu.vmlaunch()
        result = ready_cpu.vmlaunch()
        assert result.vmx_result.error is VmInstructionError.VMLAUNCH_NONCLEAR_VMCS

    def test_resume_of_clear_vmcs_fails(self, ready_cpu):
        result = ready_cpu.vmresume()
        assert (result.vmx_result.error
                is VmInstructionError.VMRESUME_NONLAUNCHED_VMCS)

    def test_resume_after_launch(self, ready_cpu):
        ready_cpu.vmlaunch()
        ready_cpu.vm_exit(ExitReason.CPUID)
        assert ready_cpu.vmresume().entered

    def test_zero_vmcs_fails_controls(self, cpu):
        cpu.vmxon(VMXON)
        cpu.vmclear(VMCS)
        cpu.vmptrld(VMCS)
        outcome = cpu.vmlaunch()
        assert not outcome.entered
        assert (outcome.vmx_result.error
                is VmInstructionError.ENTRY_INVALID_CONTROL_FIELDS)

    def test_bad_host_state_error_8(self, ready_cpu):
        ready_cpu.vmwrite(F.HOST_CS_SELECTOR, 0)
        outcome = ready_cpu.vmlaunch()
        assert (outcome.vmx_result.error
                is VmInstructionError.ENTRY_INVALID_HOST_STATE)

    def test_bad_guest_state_failed_entry(self, ready_cpu):
        ready_cpu.vmwrite(F.GUEST_RFLAGS, 0)  # fixed-1 bit clear
        outcome = ready_cpu.vmlaunch()
        assert not outcome.entered
        assert outcome.failed_entry
        assert outcome.exit_reason & (1 << 31)
        assert outcome.exit_reason & 0xFFFF == int(ExitReason.INVALID_GUEST_STATE)

    def test_entry_without_vmcs_fails_invalid(self, cpu):
        cpu.vmxon(VMXON)
        assert cpu.vmlaunch().vmx_result.kind is VmxResultKind.FAIL_INVALID

    def test_entry_applies_silent_fixups(self, ready_cpu):
        # Activity-state truncation is one of the modelled quirks.
        ready_cpu.current_vmcs.write(F.GUEST_ACTIVITY_STATE, 1)
        outcome = ready_cpu.vmlaunch()
        assert outcome.entered

    def test_vm_exit_records_reason(self, ready_cpu):
        ready_cpu.vmlaunch()
        ready_cpu.vm_exit(ExitReason.HLT, qualification=0x55, guest_rip=0x999)
        vmcs = ready_cpu.current_vmcs
        assert vmcs.read(F.VM_EXIT_REASON) == int(ExitReason.HLT)
        assert vmcs.read(F.EXIT_QUALIFICATION) == 0x55
        assert vmcs.read(F.GUEST_RIP) == 0x999
        assert not ready_cpu.in_guest

    def test_vm_exit_without_vmcs_raises(self, cpu):
        with pytest.raises(RuntimeError):
            cpu.vm_exit(ExitReason.HLT)
