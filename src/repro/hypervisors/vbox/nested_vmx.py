"""VirtualBox nested VMX emulation — analogue of VBox's IEM/HM VMX code.

VirtualBox 7.0.12 emulates nested VT-x largely in its instruction
emulator (IEM). The structure below mirrors that: one ``iemVmx*``
handler per instruction and a monolithic ``vmentry`` that performs the
checks VirtualBox implements.

Seeded bug (Table 6 #2, CVE-2024-21106): the VM-entry MSR-load
processing validates neither canonicality nor the forbidden-MSR list.
Loading a non-canonical value (e.g. ``0x8000000000000000``) into
``MSR_K8_KERNEL_GS_BASE`` raises a general-protection fault *on the
host* when the value is written to the real MSR during the world switch
— the guest VM dies and the host logs the #GP. Patched by
``canonical_msr_check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import perf
from repro.arch.msr import CANONICAL_MSRS, is_canonical
from repro.arch.registers import Cr0, Cr4, Efer, Rflags
from repro.cpu.physical_cpu import VmxCpu
from repro.hypervisors.base import ExecResult, GuestInstruction, VmCrash
from repro.hypervisors.memory import GuestMemory
from repro.validator.golden import golden_vmcs
from repro.vmx import fields as F
from repro.vmx.controls import EntryControls, ExitControls, PinBased, ProcBased, Secondary
from repro.vmx.exit_reasons import ENTRY_FAILURE_BIT, ExitReason, VmInstructionError
from repro.vmx.msr_caps import VmxCapabilities, default_capabilities
from repro.vmx.vmcs import Vmcs

SHADOW_VMCS_HPA = 0x140000
VBOX_VMXON_HPA = 0x141000
VMPTR_INVALID = (1 << 64) - 1

#: Guest-group field specs, precomputed for the merge.
_GUEST_SPECS: tuple = tuple(
    spec for spec in F.ALL_FIELDS if spec.group is F.FieldGroup.GUEST)
_GUEST_ENCODINGS: frozenset[int] = frozenset(s.encoding for s in _GUEST_SPECS)

#: VMCS12 fields read by the control section of merge_vmcs.
_MERGE_CONTROL_INPUTS: frozenset[int] = frozenset({
    F.PIN_BASED_VM_EXEC_CONTROL, F.CPU_BASED_VM_EXEC_CONTROL,
    F.SECONDARY_VM_EXEC_CONTROL, F.VM_ENTRY_CONTROLS, F.EXCEPTION_BITMAP,
})


@dataclass
class VboxNestedState:
    """Per-vCPU nested VMX state (VMXVVMCS bookkeeping analogue)."""

    vmxon: bool = False
    vmxon_ptr: int = VMPTR_INVALID
    current_vmptr: int = VMPTR_INVALID
    guest_mode: bool = False
    vmcs02: Vmcs = field(default_factory=Vmcs)
    #: (vmcs12, generation, merged vmcs02) from the last merge_vmcs.
    merge_cache: tuple | None = None
    cr4: int = Cr4.PAE | Cr4.VMXE
    #: MSRs loaded into the *host* CPU during the world switch.
    host_loaded_msrs: dict[int, int] = field(default_factory=dict)


class VboxNestedVmx:
    """VirtualBox's nested VT-x emulation for one VM."""

    def __init__(self, hypervisor, memory: GuestMemory,
                 caps: VmxCapabilities | None = None,
                 patched: frozenset[str] = frozenset()) -> None:
        self.hv = hypervisor
        self.memory = memory
        self.caps = caps or default_capabilities()
        self.patched = patched
        self.phys = VmxCpu(default_capabilities())
        self.phys.vmxon(VBOX_VMXON_HPA)
        self._vmcs02_proto = golden_vmcs(self.phys.caps)

    HANDLERS = {
        "vmxon": "iem_vmxon",
        "vmxoff": "iem_vmxoff",
        "vmclear": "iem_vmclear",
        "vmptrld": "iem_vmptrld",
        "vmptrst": "iem_vmptrst",
        "vmread": "iem_vmread",
        "vmwrite": "iem_vmwrite",
        "vmlaunch": "iem_vmlaunch",
        "vmresume": "iem_vmresume",
        "invept": "iem_invept",
        "invvpid": "iem_invvpid",
        "vmcall": "iem_vmcall",
    }

    def handle(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate one VMX instruction from the L1 guest (IEM path)."""
        handler_name = self.HANDLERS.get(instr.mnemonic)
        if handler_name is None:
            return ExecResult.fault(f"#UD: {instr.mnemonic}")
        return getattr(self, handler_name)(state, instr)

    # ------------------------------------------------------------------
    # Instruction emulation
    # ------------------------------------------------------------------

    def iem_vmxon(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmxon` instruction."""
        if not state.cr4 & Cr4.VMXE:
            return ExecResult.fault("#UD: CR4.VMXE clear")
        if state.vmxon:
            return self._vmfail(state, VmInstructionError.VMXON_IN_VMX_ROOT)
        ptr = instr.op("addr")
        if ptr & 0xFFF or not self.memory.in_guest_ram(ptr):
            return ExecResult.success("VMfailInvalid", value=-1)
        state.vmxon = True
        state.vmxon_ptr = ptr
        state.current_vmptr = VMPTR_INVALID
        return ExecResult.success("vmxon ok")

    def iem_vmxoff(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmxoff` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        state.vmxon = False
        return ExecResult.success("vmxoff ok")

    def iem_vmclear(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmclear` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        ptr = instr.op("addr")
        if ptr & 0xFFF or not self.memory.in_guest_ram(ptr):
            return self._vmfail(state, VmInstructionError.VMCLEAR_INVALID_ADDRESS)
        if ptr == state.vmxon_ptr:
            return self._vmfail(state, VmInstructionError.VMCLEAR_VMXON_POINTER)
        self.memory.ensure_vmcs(ptr, self.caps.vmcs_revision_id).clear()
        if state.current_vmptr == ptr:
            state.current_vmptr = VMPTR_INVALID
        return ExecResult.success("vmclear ok")

    def iem_vmptrld(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmptrld` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        ptr = instr.op("addr")
        if ptr & 0xFFF or not self.memory.in_guest_ram(ptr):
            return self._vmfail(state, VmInstructionError.VMPTRLD_INVALID_ADDRESS)
        if ptr == state.vmxon_ptr:
            return self._vmfail(state, VmInstructionError.VMPTRLD_VMXON_POINTER)
        vmcs12 = self.memory.get_vmcs(ptr)
        if vmcs12 is None or vmcs12.revision_id != self.caps.vmcs_revision_id:
            return self._vmfail(state,
                                VmInstructionError.VMPTRLD_INCORRECT_REVISION_ID)
        state.current_vmptr = ptr
        return ExecResult.success("vmptrld ok")

    def iem_vmptrst(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmptrst` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        return ExecResult.success("vmptrst ok", value=state.current_vmptr)

    def iem_vmread(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmread` instruction."""
        vmcs12 = self.get_vmcs12(state)
        if vmcs12 is None:
            return ExecResult.success("VMfailInvalid", value=-1)
        encoding = instr.op("field")
        if encoding not in F.SPEC_BY_ENCODING:
            return self._vmfail(state, VmInstructionError.UNSUPPORTED_VMCS_COMPONENT)
        return ExecResult.success("vmread ok", value=vmcs12.read(encoding))

    def iem_vmwrite(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmwrite` instruction."""
        vmcs12 = self.get_vmcs12(state)
        if vmcs12 is None:
            return ExecResult.success("VMfailInvalid", value=-1)
        encoding = instr.op("field")
        spec = F.SPEC_BY_ENCODING.get(encoding)
        if spec is None:
            return self._vmfail(state, VmInstructionError.UNSUPPORTED_VMCS_COMPONENT)
        if spec.group is F.FieldGroup.READ_ONLY:
            return self._vmfail(state, VmInstructionError.VMWRITE_READ_ONLY_COMPONENT)
        vmcs12.write(encoding, instr.op("value"))
        return ExecResult.success("vmwrite ok")

    def iem_vmlaunch(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmlaunch` instruction."""
        return self.vmentry(state, launch=True)

    def iem_vmresume(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmresume` instruction."""
        return self.vmentry(state, launch=False)

    def iem_invept(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `invept` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        return ExecResult.success("invept ok")

    def iem_invvpid(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `invvpid` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        return ExecResult.success("invvpid ok")

    def iem_vmcall(self, state: VboxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmcall` instruction."""
        return ExecResult.success("vmcall ok")

    def get_vmcs12(self, state: VboxNestedState) -> Vmcs | None:
        """The VMCS12 currently selected by L1, if any."""
        if not state.vmxon or state.current_vmptr == VMPTR_INVALID:
            return None
        return self.memory.get_vmcs(state.current_vmptr)

    def _vmfail(self, state: VboxNestedState, error: VmInstructionError) -> ExecResult:
        vmcs12 = self.get_vmcs12(state)
        if vmcs12 is not None:
            vmcs12.write(F.VM_INSTRUCTION_ERROR, int(error))
        return ExecResult.success(f"VMfailValid({int(error)})", value=int(error))

    # ------------------------------------------------------------------
    # Nested VM entry (iemVmxVmentry analogue)
    # ------------------------------------------------------------------

    def vmentry(self, state: VboxNestedState, *, launch: bool) -> ExecResult:
        """iemVmxVmentry: checks, MSR loading (the CVE), merge, run."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        vmcs12 = self.get_vmcs12(state)
        if vmcs12 is None:
            return ExecResult.success("VMfailInvalid", value=-1)
        if launch and vmcs12.launched:
            return self._vmfail(state, VmInstructionError.VMLAUNCH_NONCLEAR_VMCS)
        if not launch and not vmcs12.launched:
            return self._vmfail(state, VmInstructionError.VMRESUME_NONLAUNCHED_VMCS)

        # All three checks are pure in the VMCS12 fields and capability
        # MSRs, so the results are memoized on the VMCS12 and revalidated
        # via its dirty journal. (The MSR-load loop below reads guest
        # memory, so it is never memoized.)
        if perf.memoized_check(vmcs12, ("vbox_vmx", id(self), "controls"),
                               lambda: self.check_exec_controls(vmcs12)):
            return self._vmfail(state, VmInstructionError.ENTRY_INVALID_CONTROL_FIELDS)
        if perf.memoized_check(vmcs12, ("vbox_vmx", id(self), "host"),
                               lambda: self.check_host_state(vmcs12)):
            return self._vmfail(state, VmInstructionError.ENTRY_INVALID_HOST_STATE)
        guest_problems = perf.memoized_check(
            vmcs12, ("vbox_vmx", id(self), "guest"),
            lambda: self.check_guest_state(vmcs12))
        if guest_problems:
            reason = int(ExitReason.INVALID_GUEST_STATE) | ENTRY_FAILURE_BIT
            vmcs12.write(F.VM_EXIT_REASON, reason)
            return ExecResult.success(f"entry failed: {guest_problems[0]}",
                                      exit_reason=reason, level=1)

        # VM-entry MSR loading — CVE-2024-21106's home. VirtualBox walks
        # the area and programs the host MSRs for the world switch
        # WITHOUT checking canonicality or the forbidden list.
        count = vmcs12.read(F.VM_ENTRY_MSR_LOAD_COUNT)
        if count:
            addr = vmcs12.read(F.VM_ENTRY_MSR_LOAD_ADDR)
            entries = self.memory.get_msr_area(addr, count)
            for entry in entries:
                if "canonical_msr_check" in self.patched:
                    if entry.index in CANONICAL_MSRS and not is_canonical(entry.value):
                        reason = int(ExitReason.MSR_LOAD_FAIL) | ENTRY_FAILURE_BIT
                        vmcs12.write(F.VM_EXIT_REASON, reason)
                        return ExecResult.success("entry failed: msr load",
                                                  exit_reason=reason, level=1)
                state.host_loaded_msrs[entry.index] = entry.value
                if (entry.index in CANONICAL_MSRS
                        and not is_canonical(entry.value)):
                    # The wrmsr to the physical MSR faults on the host.
                    self.hv.log.write(
                        "general protection fault, probably for non-canonical "
                        f"address {entry.value:#x}: 0000 [#1] SMP")
                    self.hv.log.write(
                        f"VBoxHeadless: MSR {entry.index:#x} load during "
                        "nested VM entry")
                    raise VmCrash(
                        f"host #GP loading MSR {entry.index:#x} with "
                        f"non-canonical value {entry.value:#x} "
                        "(CVE-2024-21106)")

        vmcs02 = self.merge_vmcs(vmcs12, state)
        self.phys.vmclear(SHADOW_VMCS_HPA)
        image = vmcs02.copy()
        image.clear()
        self.phys.install_vmcs(SHADOW_VMCS_HPA, image)
        self.phys.vmptrld(SHADOW_VMCS_HPA)
        outcome = self.phys.vmlaunch()
        if not outcome.entered:
            reason = int(ExitReason.INVALID_GUEST_STATE) | ENTRY_FAILURE_BIT
            vmcs12.write(F.VM_EXIT_REASON, reason)
            return ExecResult.success("entry failed on hardware",
                                      exit_reason=reason, level=1)
        state.vmcs02 = image
        if launch:
            vmcs12.mark_launched()
        state.guest_mode = True
        return ExecResult.success("nested VM entry", level=2)

    # ------------------------------------------------------------------
    # Checks (VirtualBox's own; middle ground between KVM and Xen)
    # ------------------------------------------------------------------

    def check_exec_controls(self, vmcs12: Vmcs) -> list[str]:
        """VirtualBox's execution-control checks."""
        problems: list[str] = []
        if not self.caps.pin_based.permits(vmcs12.read(F.PIN_BASED_VM_EXEC_CONTROL)):
            problems.append("pin controls")
        proc = vmcs12.read(F.CPU_BASED_VM_EXEC_CONTROL)
        if not self.caps.proc_based.permits(proc):
            problems.append("proc controls")
        if proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS:
            proc2 = vmcs12.read(F.SECONDARY_VM_EXEC_CONTROL)
            if not self.caps.secondary.permits(proc2):
                problems.append("secondary controls")
        if not self.caps.entry.permits(vmcs12.read(F.VM_ENTRY_CONTROLS)):
            problems.append("entry controls")
        if not self.caps.exit.permits(vmcs12.read(F.VM_EXIT_CONTROLS)):
            problems.append("exit controls")
        if vmcs12.read(F.CR3_TARGET_COUNT) > 4:
            problems.append("cr3 target count")
        if proc & ProcBased.USE_MSR_BITMAPS:
            if vmcs12.read(F.MSR_BITMAP) & 0xFFF:
                problems.append("MSR bitmap alignment")
        count = vmcs12.read(F.VM_ENTRY_MSR_LOAD_COUNT)
        if count and vmcs12.read(F.VM_ENTRY_MSR_LOAD_ADDR) & 0xF:
            problems.append("MSR-load area alignment")
        return problems

    def check_host_state(self, vmcs12: Vmcs) -> list[str]:
        """VirtualBox's host-state checks."""
        problems: list[str] = []
        if not self.caps.cr0_valid_for_vmx(vmcs12.read(F.HOST_CR0)):
            problems.append("host CR0")
        if not self.caps.cr4_valid_for_vmx(vmcs12.read(F.HOST_CR4)):
            problems.append("host CR4")
        if not vmcs12.read(F.HOST_CS_SELECTOR):
            problems.append("host CS null")
        if not vmcs12.read(F.HOST_TR_SELECTOR):
            problems.append("host TR null")
        if not is_canonical(vmcs12.read(F.HOST_RIP)):
            problems.append("host RIP not canonical")
        return problems

    def check_guest_state(self, vmcs12: Vmcs) -> list[str]:
        """VirtualBox's guest-state checks (note: it DOES check IA-32e/PAE)."""
        problems: list[str] = []
        cr0 = vmcs12.read(F.GUEST_CR0)
        cr4 = vmcs12.read(F.GUEST_CR4)
        proc = vmcs12.read(F.CPU_BASED_VM_EXEC_CONTROL)
        proc2 = vmcs12.read(F.SECONDARY_VM_EXEC_CONTROL)
        unrestricted = bool(proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS
                            and proc2 & Secondary.UNRESTRICTED_GUEST)
        if not self.caps.cr0_valid_for_vmx(cr0, unrestricted_guest=unrestricted):
            problems.append("guest CR0")
        if not self.caps.cr4_valid_for_vmx(cr4):
            problems.append("guest CR4")
        entry = vmcs12.read(F.VM_ENTRY_CONTROLS)
        if entry & EntryControls.IA32E_MODE_GUEST:
            if not cr0 & Cr0.PG:
                problems.append("IA-32e without paging")
            if not cr4 & Cr4.PAE:
                problems.append("IA-32e without PAE")  # VBox *does* check this
        if entry & EntryControls.LOAD_EFER:
            efer = vmcs12.read(F.GUEST_IA32_EFER)
            if efer & Efer.RESERVED:
                problems.append("guest EFER reserved")
        if not vmcs12.read(F.GUEST_RFLAGS) & Rflags.FIXED_1:
            problems.append("guest RFLAGS bit 1")
        return problems

    def merge_vmcs(self, vmcs12: Vmcs,
                   state: VboxNestedState | None = None) -> Vmcs:
        """Build the hardware VMCS for the nested guest.

        When *state* is given, the last merge
        is cached per vCPU and only dirty VMCS12 fields are re-applied
        (perf.merge_state replays the skipped sections' kcov event
        slices, so line coverage equals a full merge); the caller copies the
        result before installing it, so hardware write-backs never touch
        the cached master.
        """
        vmcs02 = perf.merge_state(
            state, vmcs12,
            build=lambda: self._vmcs02_base(vmcs12),
            controls=lambda merged: self._vmcs02_controls(vmcs12, merged),
            state_fields=_GUEST_ENCODINGS,
            control_inputs=_MERGE_CONTROL_INPUTS)

        vmcs02.write(F.VMCS_LINK_POINTER, VMPTR_INVALID)
        # VirtualBox, like KVM, sanitizes the activity state. Always
        # re-applied: the write is change-detecting and depends only on
        # the (possibly just re-copied) VMCS12 field.
        activity = vmcs12.read(F.GUEST_ACTIVITY_STATE)
        if activity > 1:
            vmcs02.write(F.GUEST_ACTIVITY_STATE, 0)
        # Pre-warm the entry-check memo so the installed image copy
        # revalidates from the journal instead of re-running checks.
        self.phys.checker.check_all(vmcs02)
        return vmcs02

    def _vmcs02_base(self, vmcs12: Vmcs) -> Vmcs:
        """Prototype copy with vmcs12's guest-state fields applied."""
        vmcs02 = self._vmcs02_proto.copy()
        for spec in _GUEST_SPECS:
            vmcs02.write(spec.encoding, vmcs12.read(spec.encoding))
        return vmcs02

    def _vmcs02_controls(self, vmcs12: Vmcs, vmcs02: Vmcs) -> None:
        """Control merge — a pure function of the _MERGE_CONTROL_INPUTS
        fields of vmcs12 plus the constant capability MSRs."""
        vmcs02.write(F.PIN_BASED_VM_EXEC_CONTROL, self.phys.caps.pin_based.round(
            vmcs12.read(F.PIN_BASED_VM_EXEC_CONTROL)))
        vmcs02.write(F.CPU_BASED_VM_EXEC_CONTROL, self.phys.caps.proc_based.round(
            vmcs12.read(F.CPU_BASED_VM_EXEC_CONTROL)
            | ProcBased.ACTIVATE_SECONDARY_CONTROLS))
        vmcs02.write(F.SECONDARY_VM_EXEC_CONTROL, self.phys.caps.secondary.round(
            vmcs12.read(F.SECONDARY_VM_EXEC_CONTROL) | Secondary.ENABLE_EPT))
        vmcs02.write(F.VM_ENTRY_CONTROLS, self.phys.caps.entry.round(
            vmcs12.read(F.VM_ENTRY_CONTROLS)))
        vmcs02.write(F.VM_EXIT_CONTROLS, self.phys.caps.exit.round(
            ExitControls.HOST_ADDR_SPACE_SIZE | ExitControls.LOAD_EFER
            | ExitControls.SAVE_EFER))
        vmcs02.write(F.EXCEPTION_BITMAP, vmcs12.read(F.EXCEPTION_BITMAP))

    # ------------------------------------------------------------------
    # Nested VM exit
    # ------------------------------------------------------------------

    def vmexit_to_l1(self, state: VboxNestedState, vmcs12: Vmcs, reason: int,
                     *, qualification: int = 0) -> None:
        """iemVmxVmexit analogue."""
        for spec in F.ALL_FIELDS:
            if spec.group is F.FieldGroup.GUEST:
                vmcs12.write(spec.encoding, state.vmcs02.read(spec.encoding))
        vmcs12.write(F.VM_EXIT_REASON, reason)
        vmcs12.write(F.EXIT_QUALIFICATION, qualification)
        state.guest_mode = False

    def l1_wants_exit(self, vmcs12: Vmcs, reason: ExitReason,
                      instr: GuestInstruction) -> bool:
        """Reflection policy (close to the SDM defaults)."""
        pin = vmcs12.read(F.PIN_BASED_VM_EXEC_CONTROL)
        proc = vmcs12.read(F.CPU_BASED_VM_EXEC_CONTROL)
        if reason == ExitReason.EXCEPTION_NMI:
            return bool(vmcs12.read(F.EXCEPTION_BITMAP)
                        & (1 << (instr.op("vector") & 31)))
        if reason == ExitReason.EXTERNAL_INTERRUPT:
            return bool(pin & PinBased.EXT_INTR_EXITING)
        if reason in (ExitReason.TRIPLE_FAULT, ExitReason.CPUID,
                      ExitReason.INVD, ExitReason.VMCALL, ExitReason.XSETBV):
            return True
        if reason == ExitReason.HLT:
            return bool(proc & ProcBased.HLT_EXITING)
        if reason in (ExitReason.RDTSC, ExitReason.RDTSCP):
            return bool(proc & ProcBased.RDTSC_EXITING)
        if reason == ExitReason.IO_INSTRUCTION:
            if proc & ProcBased.USE_IO_BITMAPS:
                return bool(instr.op("port") & 1)
            return bool(proc & ProcBased.UNCOND_IO_EXITING)
        if reason in (ExitReason.MSR_READ, ExitReason.MSR_WRITE):
            if proc & ProcBased.USE_MSR_BITMAPS:
                return bool(instr.op("msr") & 1)
            return True
        if reason == ExitReason.CR_ACCESS:
            mask = vmcs12.read(F.CR0_GUEST_HOST_MASK)
            shadow = vmcs12.read(F.CR0_READ_SHADOW)
            value = instr.op("value")
            return bool(mask and (value & mask) != (shadow & mask))
        if reason == ExitReason.DR_ACCESS:
            return bool(proc & ProcBased.MOV_DR_EXITING)
        if reason == ExitReason.PAUSE_INSTRUCTION:
            return bool(proc & ProcBased.PAUSE_EXITING)
        if reason in (ExitReason.VMCLEAR, ExitReason.VMLAUNCH,
                      ExitReason.VMPTRLD, ExitReason.VMPTRST,
                      ExitReason.VMREAD, ExitReason.VMRESUME,
                      ExitReason.VMWRITE, ExitReason.VMXOFF, ExitReason.VMXON):
            return True
        return True
