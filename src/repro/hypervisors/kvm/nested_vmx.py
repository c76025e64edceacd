"""KVM nested VMX emulation — the analogue of ``arch/x86/kvm/vmx/nested.c``.

This file is the Intel-side *coverage target*: the paper restricts KVM
coverage measurement to ``{vmx,svm}/nested.c``, and every L2-to-L0 and
nested L1-to-L0 VM exit eventually dispatches into the handlers here.

Structure mirrors the real file: one handler per VMX instruction
(`handle_vmxon` ... `handle_invvpid`), the VM-entry consistency checks
KVM re-implements in software (`check_vm_controls`, `check_host_state`,
`check_guest_state`, `check_msr_entries`), VMCS12→VMCS02 merging
(`prepare_vmcs02`), the nested exit path (`nested_vmx_vmexit`), and the
exit-reflection policy (`l1_wants_exit`).

Seeded bugs (controlled by the ``patched`` set, default unpatched):

* ``cr4_pae_consistency`` — CVE-2023-30456: the guest-state checks do
  not reject "IA-32e mode guest" with ``CR4.PAE = 0``; with EPT disabled
  the shadow page walk then indexes the PDPTE cache out of bounds.
* ``dummy_root`` — invalid EPTP: ``mmu_check_root()`` failure triggers a
  triple-fault exit to L1 although L2 never ran; the fix loads a dummy
  root backed by the zero page.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import perf
from repro.arch.registers import Cr0, Cr4, Efer, Rflags
from repro.cpu.physical_cpu import VmxCpu
from repro.hypervisors.base import ExecResult, GuestInstruction, SanitizerKind
from repro.hypervisors.kvm.mmu import KvmMmu
from repro.hypervisors.kvm.module import KvmModuleParams
from repro.hypervisors.memory import GuestMemory
from repro.validator.golden import golden_vmcs
from repro.vmx import fields as F
from repro.vmx.controls import (
    ActivityState,
    EntryControls,
    ExitControls,
    PinBased,
    ProcBased,
    Secondary,
)
from repro.vmx.exit_reasons import ENTRY_FAILURE_BIT, ExitReason, VmInstructionError
from repro.vmx.msr_caps import default_capabilities
from repro.vmx.vmcs import Vmcs
from repro.arch.msr import CANONICAL_MSRS, MSR_LOAD_FORBIDDEN, is_canonical
from repro.arch.paging import MAX_PHYSADDR_WIDTH, EptPointer

#: "current VMCS pointer is invalid" sentinel (KVM's INVALID_GPA).
VMPTR_INVALID = (1 << 64) - 1

#: Host-physical addresses where the L0 hypervisor keeps its VMCSs.
VMCS01_HPA = 0x100000
VMCS02_HPA = 0x101000
L0_VMXON_HPA = 0x102000

#: Guest-state field specs, precomputed for the VMCS12->VMCS02 merge.
_GUEST_SPECS: tuple = tuple(
    spec for spec in F.ALL_FIELDS if spec.group is F.FieldGroup.GUEST)
_GUEST_ENCODINGS: frozenset[int] = frozenset(s.encoding for s in _GUEST_SPECS)

#: VMCS12 fields feeding the control section of prepare_vmcs02; when
#: none of these changed since the cached merge, that section is skipped.
_MERGE_CONTROL_INPUTS: frozenset[int] = frozenset({
    F.PIN_BASED_VM_EXEC_CONTROL, F.CPU_BASED_VM_EXEC_CONTROL,
    F.SECONDARY_VM_EXEC_CONTROL, F.VM_ENTRY_CONTROLS, F.EXCEPTION_BITMAP,
    F.VM_ENTRY_INTR_INFO_FIELD, F.VM_ENTRY_EXCEPTION_ERROR_CODE,
})


@dataclass
class VmxNestedState:
    """Per-vCPU nested VMX state (struct nested_vmx analogue)."""

    vmxon: bool = False
    vmxon_ptr: int = VMPTR_INVALID
    current_vmptr: int = VMPTR_INVALID
    guest_mode: bool = False          # True while L2 is active
    l2_ever_ran: bool = False
    prev_l2_long_mode: bool = False
    vmcs02: Vmcs = field(default_factory=Vmcs)
    #: Incremental-merge cache: (vmcs12, vmcs12 generation, merged vmcs02).
    merge_cache: tuple | None = None
    #: L1 architectural state KVM tracks for the vCPU.
    cr0: int = Cr0.PE | Cr0.PG | Cr0.NE | Cr0.ET
    cr4: int = Cr4.PAE | Cr4.VMXE
    efer: int = Efer.LME | Efer.LMA


class NestedVmx:
    """The nested-virtualization half of kvm-intel, for one VM."""

    def __init__(self, hypervisor, params: KvmModuleParams,
                 memory: GuestMemory, patched: frozenset[str] = frozenset()) -> None:
        self.hv = hypervisor
        self.params = params
        self.memory = memory
        self.patched = patched
        #: Capabilities exposed to L1 (shaped by module parameters).
        self.caps = params.l1_vmx_capabilities()
        #: The physical CPU under L0 (full capabilities).
        self.phys = VmxCpu(default_capabilities())
        self.phys.vmxon(L0_VMXON_HPA)
        self.mmu = KvmMmu(memory)
        self._vmcs01 = golden_vmcs(self.phys.caps)
        # Prototype for vmcs02 construction — building the golden image
        # field by field on every nested entry would dominate runtime.
        self._vmcs02_proto = golden_vmcs(self.phys.caps)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    HANDLERS = {
        "vmxon": "handle_vmxon",
        "vmxoff": "handle_vmxoff",
        "vmclear": "handle_vmclear",
        "vmptrld": "handle_vmptrld",
        "vmptrst": "handle_vmptrst",
        "vmread": "handle_vmread",
        "vmwrite": "handle_vmwrite",
        "vmlaunch": "handle_vmlaunch",
        "vmresume": "handle_vmresume",
        "invept": "handle_invept",
        "invvpid": "handle_invvpid",
        "vmcall": "handle_vmcall",
    }

    def handle(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate one VMX instruction executed by L1."""
        if not self.params.nested:
            return ExecResult.fault("#UD: nested virtualization disabled")
        handler_name = self.HANDLERS.get(instr.mnemonic)
        if handler_name is None:
            return ExecResult.fault(f"#UD: unknown VMX instruction {instr.mnemonic}")
        return getattr(self, handler_name)(state, instr)

    # --- VMfail helpers ----------------------------------------------------

    @staticmethod
    def _vmfail_invalid() -> ExecResult:
        return ExecResult.success("VMfailInvalid", value=-1)

    def _vmfail_valid(self, state: VmxNestedState,
                      error: VmInstructionError) -> ExecResult:
        vmcs12 = self.get_vmcs12(state)
        if vmcs12 is not None:
            vmcs12.write(F.VM_INSTRUCTION_ERROR, int(error))
        return ExecResult.success(f"VMfailValid({int(error)})", value=int(error))

    def get_vmcs12(self, state: VmxNestedState) -> Vmcs | None:
        """The VMCS12 currently selected by L1, if any."""
        if state.current_vmptr == VMPTR_INVALID:
            return None
        return self.memory.get_vmcs(state.current_vmptr)

    # ------------------------------------------------------------------
    # Instruction handlers
    # ------------------------------------------------------------------

    def handle_vmxon(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmxon` instruction."""
        if not state.cr4 & Cr4.VMXE:
            return ExecResult.fault("#UD: CR4.VMXE clear")
        if state.vmxon:
            return self._vmfail_valid(state, VmInstructionError.VMXON_IN_VMX_ROOT)
        ptr = instr.op("addr")
        if ptr & 0xFFF or not self.memory.in_guest_ram(ptr):
            return self._vmfail_invalid()
        region = self.memory.ensure_vmcs(ptr, self.caps.vmcs_revision_id)
        if region.revision_id != self.caps.vmcs_revision_id:
            return self._vmfail_invalid()
        state.vmxon = True
        state.vmxon_ptr = ptr
        state.current_vmptr = VMPTR_INVALID
        return ExecResult.success("vmxon ok")

    def handle_vmxoff(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmxoff` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        state.vmxon = False
        state.current_vmptr = VMPTR_INVALID
        return ExecResult.success("vmxoff ok")

    def handle_vmclear(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmclear` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        ptr = instr.op("addr")
        if ptr & 0xFFF or not self.memory.in_guest_ram(ptr):
            return self._vmfail_valid(state, VmInstructionError.VMCLEAR_INVALID_ADDRESS)
        if ptr == state.vmxon_ptr:
            return self._vmfail_valid(state, VmInstructionError.VMCLEAR_VMXON_POINTER)
        vmcs12 = self.memory.ensure_vmcs(ptr, self.caps.vmcs_revision_id)
        vmcs12.clear()
        if state.current_vmptr == ptr:
            state.current_vmptr = VMPTR_INVALID
        return ExecResult.success("vmclear ok")

    def handle_vmptrld(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmptrld` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        ptr = instr.op("addr")
        if ptr & 0xFFF or not self.memory.in_guest_ram(ptr):
            return self._vmfail_valid(state, VmInstructionError.VMPTRLD_INVALID_ADDRESS)
        if ptr == state.vmxon_ptr:
            return self._vmfail_valid(state, VmInstructionError.VMPTRLD_VMXON_POINTER)
        vmcs12 = self.memory.get_vmcs(ptr)
        if vmcs12 is None or vmcs12.revision_id != self.caps.vmcs_revision_id:
            return self._vmfail_valid(
                state, VmInstructionError.VMPTRLD_INCORRECT_REVISION_ID)
        state.current_vmptr = ptr
        return ExecResult.success("vmptrld ok")

    def handle_vmptrst(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmptrst` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        return ExecResult.success("vmptrst ok", value=state.current_vmptr)

    def handle_vmread(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmread` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        vmcs12 = self.get_vmcs12(state)
        if vmcs12 is None:
            return self._vmfail_invalid()
        encoding = instr.op("field")
        spec = F.SPEC_BY_ENCODING.get(encoding)
        if spec is None:
            return self._vmfail_valid(
                state, VmInstructionError.UNSUPPORTED_VMCS_COMPONENT)
        return ExecResult.success("vmread ok", value=vmcs12.read(encoding))

    def handle_vmwrite(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmwrite` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        vmcs12 = self.get_vmcs12(state)
        if vmcs12 is None:
            return self._vmfail_invalid()
        encoding = instr.op("field")
        spec = F.SPEC_BY_ENCODING.get(encoding)
        if spec is None:
            return self._vmfail_valid(
                state, VmInstructionError.UNSUPPORTED_VMCS_COMPONENT)
        if spec.group is F.FieldGroup.READ_ONLY:
            return self._vmfail_valid(
                state, VmInstructionError.VMWRITE_READ_ONLY_COMPONENT)
        vmcs12.write(encoding, instr.op("value"))
        return ExecResult.success("vmwrite ok")

    def handle_vmlaunch(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmlaunch` instruction."""
        return self.nested_vmx_run(state, launch=True)

    def handle_vmresume(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmresume` instruction."""
        return self.nested_vmx_run(state, launch=False)

    def handle_invept(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `invept` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        if not self.params.ept:
            return ExecResult.fault("#UD: INVEPT unsupported without EPT")
        ept_type = instr.op("type")
        if ept_type not in (1, 2):  # single-context, all-context
            return self._vmfail_valid(
                state, VmInstructionError.INVALID_OPERAND_TO_INVEPT_INVVPID)
        if ept_type == 1:
            eptp = EptPointer(instr.op("eptp"))
            if not eptp.valid():
                return self._vmfail_valid(
                    state, VmInstructionError.INVALID_OPERAND_TO_INVEPT_INVVPID)
        return ExecResult.success("invept ok")

    def handle_invvpid(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `invvpid` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        if not self.params.vpid:
            return ExecResult.fault("#UD: INVVPID unsupported without VPID")
        vpid_type = instr.op("type")
        if vpid_type > 3:
            return self._vmfail_valid(
                state, VmInstructionError.INVALID_OPERAND_TO_INVEPT_INVVPID)
        vpid = instr.op("vpid")
        if vpid_type != 2 and vpid == 0:  # non-all-context needs VPID != 0
            return self._vmfail_valid(
                state, VmInstructionError.INVALID_OPERAND_TO_INVEPT_INVVPID)
        if vpid_type == 0 and not is_canonical(instr.op("linear_addr")):
            return self._vmfail_valid(
                state, VmInstructionError.INVALID_OPERAND_TO_INVEPT_INVVPID)
        return ExecResult.success("invvpid ok")

    def handle_vmcall(self, state: VmxNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmcall` instruction."""
        if state.vmxon and state.current_vmptr != VMPTR_INVALID:
            vmcs12 = self.get_vmcs12(state)
            if vmcs12 is not None and not vmcs12.launched:
                return self._vmfail_valid(
                    state, VmInstructionError.VMCALL_NONCLEAR_VMCS)
        return ExecResult.success("vmcall ok (hypercall nop)")

    # ------------------------------------------------------------------
    # Nested VM entry (nested_vmx_run analogue)
    # ------------------------------------------------------------------

    def nested_vmx_run(self, state: VmxNestedState, *, launch: bool) -> ExecResult:
        """The nested VM entry path (vmlaunch/vmresume from L1)."""
        if not state.vmxon:
            return ExecResult.fault("#UD: not in VMX operation")
        vmcs12 = self.get_vmcs12(state)
        if vmcs12 is None:
            return self._vmfail_invalid()
        if launch and vmcs12.launched:
            return self._vmfail_valid(
                state, VmInstructionError.VMLAUNCH_NONCLEAR_VMCS)
        if not launch and not vmcs12.launched:
            return self._vmfail_valid(
                state, VmInstructionError.VMRESUME_NONLAUNCHED_VMCS)

        # Software re-implementation of the hardware checks (§2.2). The
        # three pure-VMCS12 checks are memoized on the structure (keyed
        # by this instance — a VMCS12 belongs to exactly one hypervisor,
        # whose caps/patches are constant for its lifetime) and re-run
        # only when fields they read changed; check_msr_entries reads
        # guest memory, so it is never memoized.
        if perf.memoized_check(vmcs12, ("kvm_vmx", id(self), "controls"),
                               lambda: self.check_vm_controls(vmcs12)):
            return self._vmfail_valid(
                state, VmInstructionError.ENTRY_INVALID_CONTROL_FIELDS)
        if perf.memoized_check(vmcs12, ("kvm_vmx", id(self), "host"),
                               lambda: self.check_host_state(vmcs12)):
            return self._vmfail_valid(
                state, VmInstructionError.ENTRY_INVALID_HOST_STATE)
        guest_problems = perf.memoized_check(
            vmcs12, ("kvm_vmx", id(self), "guest"),
            lambda: self.check_guest_state(vmcs12))
        if guest_problems:
            return self._fail_entry(state, vmcs12,
                                    ExitReason.INVALID_GUEST_STATE,
                                    detail=guest_problems[0])

        msr_problem = self.check_msr_entries(vmcs12)
        if msr_problem is not None:
            return self._fail_entry(state, vmcs12, ExitReason.MSR_LOAD_FAIL,
                                    detail=msr_problem)

        prep = self.prepare_vmcs02(state, vmcs12)
        if prep is not None:
            return prep

        outcome = self._enter_l2(state, launch=launch)
        if outcome is not None:
            return outcome

        if launch:
            vmcs12.mark_launched()
        state.guest_mode = True
        state.l2_ever_ran = True
        entry = vmcs12.read(F.VM_ENTRY_CONTROLS)
        state.prev_l2_long_mode = bool(entry & EntryControls.IA32E_MODE_GUEST)
        return ExecResult.success("nested VM entry", level=2)

    def _fail_entry(self, state: VmxNestedState, vmcs12: Vmcs,
                    reason: ExitReason, detail: str) -> ExecResult:
        """A VM entry that fails with an exit back to L1 (reason bit 31)."""
        full = int(reason) | ENTRY_FAILURE_BIT
        vmcs12.write(F.VM_EXIT_REASON, full)
        vmcs12.write(F.EXIT_QUALIFICATION, 0)
        return ExecResult.success(f"entry failed: {detail}",
                                  exit_reason=full, level=1)

    def _enter_l2(self, state: VmxNestedState, *, launch: bool) -> ExecResult | None:
        """Run VMCS02 on the physical CPU; None means success."""
        self.phys.vmclear(VMCS02_HPA)
        image = state.vmcs02.copy()
        image.clear()
        self.phys.install_vmcs(VMCS02_HPA, image)
        self.phys.vmptrld(VMCS02_HPA)
        outcome = self.phys.vmlaunch()
        if not outcome.entered:
            # KVM WARNs when the hardware rejects a vmcs02 it built.
            self.hv.report_sanitizer(
                SanitizerKind.WARN, "nested_vmx_run",
                f"hardware rejected vmcs02: "
                f"{outcome.violations[0] if outcome.violations else outcome.vmx_result.kind}")
            vmcs12 = self.get_vmcs12(state)
            assert vmcs12 is not None
            return self._fail_entry(state, vmcs12,
                                    ExitReason.INVALID_GUEST_STATE,
                                    detail="vmcs02 rejected by hardware")
        state.vmcs02 = image
        return None

    # ------------------------------------------------------------------
    # Consistency checks (KVM's software re-implementation)
    # ------------------------------------------------------------------

    def check_vm_controls(self, vmcs12: Vmcs) -> list[str]:
        """nested_vmx_check_controls() analogue; returns problems."""
        problems: list[str] = []
        pin = vmcs12.read(F.PIN_BASED_VM_EXEC_CONTROL)
        proc = vmcs12.read(F.CPU_BASED_VM_EXEC_CONTROL)
        proc2 = vmcs12.read(F.SECONDARY_VM_EXEC_CONTROL)
        entry = vmcs12.read(F.VM_ENTRY_CONTROLS)
        exit_ = vmcs12.read(F.VM_EXIT_CONTROLS)

        if not self.caps.pin_based.permits(pin):
            problems.append("pin-based controls violate MSR capabilities")
        if not self.caps.proc_based.permits(proc):
            problems.append("proc-based controls violate MSR capabilities")
        secondary_on = bool(proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS)
        if secondary_on and not self.caps.secondary.permits(proc2):
            problems.append("secondary controls violate MSR capabilities")
        if not self.caps.entry.permits(entry):
            problems.append("entry controls violate MSR capabilities")
        if not self.caps.exit.permits(exit_):
            problems.append("exit controls violate MSR capabilities")
        effective2 = proc2 if secondary_on else 0

        if vmcs12.read(F.CR3_TARGET_COUNT) > 4:
            problems.append("cr3 target count > 4")

        if proc & ProcBased.USE_IO_BITMAPS:
            for enc in (F.IO_BITMAP_A, F.IO_BITMAP_B):
                if not self._gpa_ok(vmcs12.read(enc), 4096):
                    problems.append("bad I/O bitmap address")
        if proc & ProcBased.USE_MSR_BITMAPS:
            if not self._gpa_ok(vmcs12.read(F.MSR_BITMAP), 4096):
                problems.append("bad MSR bitmap address")
        if proc & ProcBased.USE_TPR_SHADOW:
            if not self._gpa_ok(vmcs12.read(F.VIRTUAL_APIC_PAGE_ADDR), 4096):
                problems.append("bad virtual-APIC page")
        else:
            if effective2 & (Secondary.VIRTUALIZE_X2APIC
                             | Secondary.APIC_REGISTER_VIRT
                             | Secondary.VIRTUAL_INTR_DELIVERY):
                problems.append("APIC virtualization without TPR shadow")

        if pin & PinBased.VIRTUAL_NMIS and not pin & PinBased.NMI_EXITING:
            problems.append("virtual NMIs without NMI exiting")
        if proc & ProcBased.NMI_WINDOW_EXITING and not pin & PinBased.VIRTUAL_NMIS:
            problems.append("NMI-window exiting without virtual NMIs")

        if pin & PinBased.POSTED_INTERRUPTS:
            if not effective2 & Secondary.VIRTUAL_INTR_DELIVERY:
                problems.append("posted interrupts without vintr delivery")
            if not exit_ & ExitControls.ACK_INTR_ON_EXIT:
                problems.append("posted interrupts without ack-on-exit")
            if not self._gpa_ok(vmcs12.read(F.POSTED_INTR_DESC_ADDR), 64):
                problems.append("bad posted-interrupt descriptor")

        if effective2 & Secondary.ENABLE_EPT:
            if not self._check_eptp(vmcs12.read(F.EPT_POINTER)):
                problems.append("invalid EPT pointer format")
        if effective2 & Secondary.UNRESTRICTED_GUEST and not effective2 & Secondary.ENABLE_EPT:
            problems.append("unrestricted guest without EPT")
        if effective2 & Secondary.ENABLE_VPID and not vmcs12.read(F.VIRTUAL_PROCESSOR_ID):
            problems.append("VPID zero with enable-VPID")
        if effective2 & Secondary.ENABLE_PML:
            if not effective2 & Secondary.ENABLE_EPT:
                problems.append("PML without EPT")
            if not self._gpa_ok(vmcs12.read(F.PML_ADDRESS), 4096):
                problems.append("bad PML address")
        if effective2 & Secondary.SHADOW_VMCS:
            if not self._gpa_ok(vmcs12.read(F.VMREAD_BITMAP), 4096):
                problems.append("bad vmread bitmap")
            if not self._gpa_ok(vmcs12.read(F.VMWRITE_BITMAP), 4096):
                problems.append("bad vmwrite bitmap")
        if effective2 & Secondary.ENABLE_VMFUNC:
            if vmcs12.read(F.VM_FUNCTION_CONTROL) & ~1:
                problems.append("unsupported VM functions")

        # Isolation rule (§2.2): VMCS12 structures must not point at L0.
        for enc in (F.IO_BITMAP_A, F.IO_BITMAP_B, F.MSR_BITMAP,
                    F.VIRTUAL_APIC_PAGE_ADDR, F.APIC_ACCESS_ADDR,
                    F.PML_ADDRESS, F.VM_ENTRY_MSR_LOAD_ADDR,
                    F.VM_EXIT_MSR_STORE_ADDR, F.VM_EXIT_MSR_LOAD_ADDR):
            if self.memory.in_l0_reserved(vmcs12.read(enc)):
                problems.append("guest structure points into L0 memory")
                break

        info = vmcs12.read(F.VM_ENTRY_INTR_INFO_FIELD)
        if info >> 31:
            from repro.arch.exceptions import InterruptionInfo
            if not InterruptionInfo.decode(info).consistent():
                problems.append("inconsistent event injection")
        return problems

    def check_host_state(self, vmcs12: Vmcs) -> list[str]:
        """nested_vmx_check_host_state() analogue."""
        problems: list[str] = []
        cr0 = vmcs12.read(F.HOST_CR0)
        cr4 = vmcs12.read(F.HOST_CR4)
        if not self.caps.cr0_valid_for_vmx(cr0):
            problems.append("host CR0 fixed-bit violation")
        if not self.caps.cr4_valid_for_vmx(cr4):
            problems.append("host CR4 fixed-bit violation")
        if vmcs12.read(F.HOST_CR3) >> MAX_PHYSADDR_WIDTH:
            problems.append("host CR3 out of range")
        for enc in (F.HOST_RIP, F.HOST_GDTR_BASE, F.HOST_IDTR_BASE,
                    F.HOST_TR_BASE, F.HOST_FS_BASE, F.HOST_GS_BASE,
                    F.HOST_IA32_SYSENTER_ESP, F.HOST_IA32_SYSENTER_EIP):
            if not is_canonical(vmcs12.read(enc)):
                problems.append("host address not canonical")
                break
        if not vmcs12.read(F.HOST_CS_SELECTOR):
            problems.append("host CS selector null")
        if not vmcs12.read(F.HOST_TR_SELECTOR):
            problems.append("host TR selector null")
        for name, enc in F.HOST_SELECTOR_FIELDS.items():
            if vmcs12.read(enc) & 7:
                problems.append(f"host {name} selector TI/RPL set")
                break
        exit_ = vmcs12.read(F.VM_EXIT_CONTROLS)
        if exit_ & ExitControls.LOAD_EFER:
            efer = vmcs12.read(F.HOST_IA32_EFER)
            if efer & Efer.RESERVED:
                problems.append("host EFER reserved bits")
            host64 = bool(exit_ & ExitControls.HOST_ADDR_SPACE_SIZE)
            if bool(efer & Efer.LMA) != host64 or bool(efer & Efer.LME) != host64:
                problems.append("host EFER.LMA/LME mismatch")
        return problems

    def check_guest_state(self, vmcs12: Vmcs) -> list[str]:
        """nested_vmx_check_guest_state() analogue.

        The CVE-2023-30456 omission lives here: without the
        ``cr4_pae_consistency`` patch, the IA-32e/CR4.PAE rule is not
        enforced — matching pre-fix KVM, which deferred to hardware that
        silently tolerates the combination.
        """
        problems: list[str] = []
        entry = vmcs12.read(F.VM_ENTRY_CONTROLS)
        ia32e = bool(entry & EntryControls.IA32E_MODE_GUEST)
        cr0 = vmcs12.read(F.GUEST_CR0)
        cr4 = vmcs12.read(F.GUEST_CR4)

        proc = vmcs12.read(F.CPU_BASED_VM_EXEC_CONTROL)
        proc2 = vmcs12.read(F.SECONDARY_VM_EXEC_CONTROL)
        effective2 = proc2 if proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS else 0
        unrestricted = bool(effective2 & Secondary.UNRESTRICTED_GUEST)

        if not self.caps.cr0_valid_for_vmx(cr0, unrestricted_guest=unrestricted):
            problems.append("guest CR0 fixed-bit violation")
        if not self.caps.cr4_valid_for_vmx(cr4):
            problems.append("guest CR4 fixed-bit violation")
        if cr0 & Cr0.PG and not cr0 & Cr0.PE:
            problems.append("guest PG without PE")
        if ia32e:
            if not cr0 & Cr0.PG:
                problems.append("IA-32e guest without paging")
            if "cr4_pae_consistency" in self.patched and not cr4 & Cr4.PAE:
                # The 2023 fix: reject the state hardware would silently
                # tolerate but KVM's software walker cannot handle.
                problems.append("IA-32e guest requires CR4.PAE")
        if vmcs12.read(F.GUEST_CR3) >> MAX_PHYSADDR_WIDTH:
            problems.append("guest CR3 out of range")

        if entry & EntryControls.LOAD_EFER:
            efer = vmcs12.read(F.GUEST_IA32_EFER)
            if efer & Efer.RESERVED:
                problems.append("guest EFER reserved bits")
            if bool(efer & Efer.LMA) != ia32e:
                problems.append("guest EFER.LMA != IA-32e control")
            if cr0 & Cr0.PG and bool(efer & Efer.LMA) != bool(efer & Efer.LME):
                problems.append("guest EFER.LMA != LME with paging")

        rflags = vmcs12.read(F.GUEST_RFLAGS)
        if not rflags & Rflags.FIXED_1 or rflags & Rflags.RESERVED:
            problems.append("guest RFLAGS fixed bits")
        if rflags & Rflags.VM and ia32e:
            problems.append("v8086 in IA-32e mode")

        activity = vmcs12.read(F.GUEST_ACTIVITY_STATE)
        # KVM sanitizes: only ACTIVE and HLT are accepted from L1 (the
        # contrast with Xen's blind copy, paper §5.5.2).
        if activity not in (ActivityState.ACTIVE, ActivityState.HLT):
            problems.append(f"unsupported guest activity state {activity}")

        interruptibility = vmcs12.read(F.GUEST_INTERRUPTIBILITY_INFO)
        if interruptibility & ~0x1F:
            problems.append("guest interruptibility reserved bits")
        if (interruptibility & 1) and (interruptibility & 2):
            problems.append("STI and MOV-SS blocking both set")

        link = vmcs12.read(F.VMCS_LINK_POINTER)
        if link != VMPTR_INVALID and not self._gpa_ok(link, 4096):
            problems.append("bad VMCS link pointer")
        return problems

    def check_msr_entries(self, vmcs12: Vmcs) -> str | None:
        """Validate the VM-entry MSR-load area (KVM does this *correctly*;
        the missing analogue in VirtualBox is CVE-2024-21106)."""
        count = vmcs12.read(F.VM_ENTRY_MSR_LOAD_COUNT)
        if not count:
            return None
        if count > self.memory.MSR_AREA_MAX:
            return f"msr-load count {count} exceeds the architectural limit"
        addr = vmcs12.read(F.VM_ENTRY_MSR_LOAD_ADDR)
        if not self.memory.in_guest_ram(addr):
            return f"msr-load area {addr:#x} not readable guest memory"
        entries = self.memory.get_msr_area(addr, count)
        for slot, entry in enumerate(entries):
            if entry.reserved:
                return f"msr-load[{slot}] reserved dword set"
            if entry.index in MSR_LOAD_FORBIDDEN:
                return f"msr-load[{slot}] loads forbidden MSR {entry.index:#x}"
            if entry.index in CANONICAL_MSRS and not is_canonical(entry.value):
                return (f"msr-load[{slot}] non-canonical value "
                        f"{entry.value:#x} for MSR {entry.index:#x}")
        return None

    def _gpa_ok(self, gpa: int, alignment: int) -> bool:
        return not gpa & (alignment - 1) and gpa < (1 << MAX_PHYSADDR_WIDTH)

    def _check_eptp(self, eptp: int) -> bool:
        """nested_vmx_check_eptp(): format only — visibility is the MMU's
        problem (which is exactly where bug #3 hides)."""
        return EptPointer(eptp).valid()

    # ------------------------------------------------------------------
    # VMCS12 -> VMCS02 merge (prepare_vmcs02 analogue)
    # ------------------------------------------------------------------

    def prepare_vmcs02(self, state: VmxNestedState, vmcs12: Vmcs) -> ExecResult | None:
        """Build VMCS02 from VMCS12 (guest half) and VMCS01 (host half).

        Returns an ExecResult on failure (bug #3's early exit), else None.

        The last merged vmcs02 is cached per vCPU
        keyed by (vmcs12 identity, generation): only dirty guest fields
        are re-copied, and the control section re-runs only when one of
        its input fields changed (perf.merge_state replays the skipped
        sections' kcov event slices, so line coverage equals a full merge).
        Sections with side effects outside the vmcs02 (paging/MMU setup
        and the sanitizer probes in it) always run, so bug behaviour and
        early-exit paths are identical to a full merge. The cached
        structure also carries the warm entry-check memo into the copy
        installed for the hardware entry.
        """
        vmcs02 = perf.merge_state(
            state, vmcs12,
            build=lambda: self._vmcs02_base(vmcs12),
            controls=lambda merged: self._vmcs02_controls(vmcs12, merged),
            state_fields=_GUEST_ENCODINGS,
            control_inputs=_MERGE_CONTROL_INPUTS)

        # KVM sanitizes the activity state on the way through (checked
        # above, enforced here for defence in depth). The clamps are
        # change-detecting writes, so re-applying them on a cached merge
        # is free and keeps them correct without dependency tracking.
        activity = vmcs12.read(F.GUEST_ACTIVITY_STATE)
        if activity not in (ActivityState.ACTIVE, ActivityState.HLT):
            vmcs02.write(F.GUEST_ACTIVITY_STATE, ActivityState.ACTIVE)
        # The vmcs02 link pointer never inherits vmcs12's.
        vmcs02.write(F.VMCS_LINK_POINTER, VMPTR_INVALID)

        # Paging: nested EPT when L1 asked for it; a direct shadow-EPT
        # map when it did not; legacy shadow paging (the PDPTE-cache
        # walker, CVE-2023-30456's home) only when the module itself
        # runs with ept=0.
        proc = vmcs12.read(F.CPU_BASED_VM_EXEC_CONTROL)
        proc2 = vmcs12.read(F.SECONDARY_VM_EXEC_CONTROL)
        secondary_on = bool(proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS)
        nested_ept = bool(secondary_on and proc2 & Secondary.ENABLE_EPT)
        if self.params.ept:
            if nested_ept:
                result = self._load_nested_ept_root(state, vmcs12, vmcs02)
                if result is not None:
                    return result
            else:
                # Direct map: L0's own EPT root backs the whole of L2.
                vmcs02.write(F.EPT_POINTER, 0x20000 | 6 | (3 << 3))
        else:
            result = self._prepare_shadow_paging(state, vmcs12, vmcs02)
            if result is not None:
                return result

        proc2_merged = proc2 | Secondary.ENABLE_EPT | Secondary.ENABLE_VPID
        vmcs02.write(F.SECONDARY_VM_EXEC_CONTROL,
                     self.phys.caps.secondary.round(proc2_merged))
        if not vmcs02.read(F.VIRTUAL_PROCESSOR_ID):
            vmcs02.write(F.VIRTUAL_PROCESSOR_ID, 2)  # vpid02

        # Publish a fast copy on the incremental path (never the cached
        # master: a later *failed* prepare re-copies dirty fields into
        # the master before bailing out, and must not scribble over the
        # last successfully published vmcs02). The entry-check memo is
        # pre-warmed first so the copy inherits it and re-validates
        # from the journal.
        state.vmcs02 = perf.publish_merged(
            vmcs02, lambda: self.phys.checker.check_all(vmcs02))
        return None

    def _vmcs02_base(self, vmcs12: Vmcs) -> Vmcs:
        """Prototype copy with vmcs12's guest-state fields applied."""
        vmcs02 = self._vmcs02_proto.copy()
        for spec in _GUEST_SPECS:
            vmcs02.write(spec.encoding, vmcs12.read(spec.encoding))
        return vmcs02

    def _vmcs02_controls(self, vmcs12: Vmcs, vmcs02: Vmcs) -> None:
        """Merge control fields: L1's requests plus L0's own requirements.

        A pure function of the _MERGE_CONTROL_INPUTS fields of vmcs12
        (plus the constant capability MSRs) — the contract that lets
        perf.merge_state skip it while those fields are clean.
        """
        pin = vmcs12.read(F.PIN_BASED_VM_EXEC_CONTROL)
        proc = vmcs12.read(F.CPU_BASED_VM_EXEC_CONTROL)
        entry = vmcs12.read(F.VM_ENTRY_CONTROLS)
        vmcs02.write(F.PIN_BASED_VM_EXEC_CONTROL,
                     self.phys.caps.pin_based.round(pin | PinBased.NMI_EXITING))
        vmcs02.write(F.CPU_BASED_VM_EXEC_CONTROL,
                     self.phys.caps.proc_based.round(
                         proc | ProcBased.USE_MSR_BITMAPS
                         | ProcBased.ACTIVATE_SECONDARY_CONTROLS))
        vmcs02.write(F.VM_ENTRY_CONTROLS, self.phys.caps.entry.round(entry))
        vmcs02.write(F.VM_EXIT_CONTROLS, self.phys.caps.exit.round(
            ExitControls.HOST_ADDR_SPACE_SIZE | ExitControls.LOAD_EFER
            | ExitControls.SAVE_EFER | ExitControls.ACK_INTR_ON_EXIT))
        vmcs02.write(F.EXCEPTION_BITMAP,
                     vmcs12.read(F.EXCEPTION_BITMAP) | (1 << 14))  # L0 traps #PF
        vmcs02.write(F.VM_ENTRY_INTR_INFO_FIELD,
                     vmcs12.read(F.VM_ENTRY_INTR_INFO_FIELD))
        vmcs02.write(F.VM_ENTRY_EXCEPTION_ERROR_CODE,
                     vmcs12.read(F.VM_ENTRY_EXCEPTION_ERROR_CODE))

    def _load_nested_ept_root(self, state: VmxNestedState, vmcs12: Vmcs,
                              vmcs02: Vmcs) -> ExecResult | None:
        """Install the shadow-EPT root for L2 — bug #3's home."""
        eptp12 = vmcs12.read(F.EPT_POINTER)
        root_gpa = EptPointer(eptp12).pml4_address
        if not self.mmu.load_root(root_gpa,
                                  dummy_root_patch="dummy_root" in self.patched):
            # BUG (pre-patch): the root is invisible, and KVM responds by
            # synthesizing a triple-fault exit to L1 — but L2 never ran.
            self.hv.bug_assert(
                state.l2_ever_ran and False, "nested_ept_load_root",
                "triple-fault VM exit synthesized before L2 ever entered "
                f"(invisible EPT root {root_gpa:#x})")
            return self._triple_fault_without_entry(state, vmcs12)
        assert self.mmu.root is not None
        vmcs02.write(F.EPT_POINTER, self.mmu.root.hpa | 6 | (3 << 3))
        return None

    def _triple_fault_without_entry(self, state: VmxNestedState,
                                    vmcs12: Vmcs) -> ExecResult:
        vmcs12.write(F.VM_EXIT_REASON, int(ExitReason.TRIPLE_FAULT))
        vmcs12.write(F.EXIT_QUALIFICATION, 0)
        state.guest_mode = False
        return ExecResult.success("spurious triple fault (bug)",
                                  exit_reason=int(ExitReason.TRIPLE_FAULT),
                                  level=1)

    def _prepare_shadow_paging(self, state: VmxNestedState, vmcs12: Vmcs,
                               vmcs02: Vmcs) -> ExecResult | None:
        """Shadow-paging setup for L2 when EPT is unavailable.

        This is where CVE-2023-30456 detonates: the PDPTE load trusts
        CR4.PAE literally while the entry control says IA-32e.
        """
        entry = vmcs12.read(F.VM_ENTRY_CONTROLS)
        ia32e = bool(entry & EntryControls.IA32E_MODE_GUEST)
        cr4 = vmcs12.read(F.GUEST_CR4)
        cr0 = vmcs12.read(F.GUEST_CR0)
        cr3 = vmcs12.read(F.GUEST_CR3)
        if not cr0 & Cr0.PG:
            return None  # unpaged guest: identity shadow, nothing to walk
        pae = bool(cr4 & Cr4.PAE)
        oob_index = self.mmu.load_pdptrs(
            cr3,
            believed_long_mode=ia32e,
            pae_enabled=pae,
            walk_address=vmcs12.read(F.GUEST_RIP))
        if oob_index is not None:
            self.hv.report_sanitizer(
                SanitizerKind.UBSAN, "nested_vmx.load_pdptrs",
                f"array-index-out-of-bounds: index {oob_index} of 4-entry "
                f"pdptrs (CVE-2023-30456 condition: IA-32e guest with "
                f"CR4.PAE=0 and ept=0)")
        vmcs02.write(F.GUEST_CR3, cr3)
        return None

    # ------------------------------------------------------------------
    # L2 shadow page walks (!EPT) — CVE-2023-30456's corruption site
    # ------------------------------------------------------------------

    def handle_l2_shadow_fault(self, state: VmxNestedState, vmcs12: Vmcs,
                               address: int) -> None:
        """Resolve an L2 page fault under shadow paging.

        Every L2 memory access KVM resolves walks the guest page tables
        with the mode KVM *believes* the guest is in; the literal
        CR4.PAE interpretation corrupts the PDPTE cache here.
        """
        if self.params.ept:
            # With ept=1 the L2 is always backed by two-dimensional
            # paging (nested EPT or a direct shadow-EPT map); KVM never
            # walks the guest's legacy structures. The PDPTE-cache walk
            # exists only when the module was loaded with ept=0 — which
            # is why the paper credits the vCPU configurator for bug #1.
            return
        entry = vmcs12.read(F.VM_ENTRY_CONTROLS)
        cr0 = vmcs12.read(F.GUEST_CR0)
        if not cr0 & Cr0.PG:
            return  # real-mode shadow: identity map, no walk
        ia32e = bool(entry & EntryControls.IA32E_MODE_GUEST)
        pae = bool(vmcs12.read(F.GUEST_CR4) & Cr4.PAE)
        oob_index = self.mmu.load_pdptrs(
            vmcs12.read(F.GUEST_CR3),
            believed_long_mode=ia32e,
            pae_enabled=pae,
            walk_address=address)
        if oob_index is not None:
            self.hv.report_sanitizer(
                SanitizerKind.UBSAN, "nested_vmx.load_pdptrs",
                f"array-index-out-of-bounds: index {oob_index} of 4-entry "
                f"pdptrs during L2 page walk (CVE-2023-30456)")

    # ------------------------------------------------------------------
    # Host-side ioctl surface (KVM_{GET,SET}_NESTED_STATE, module setup)
    #
    # Reachable only through host ioctls — live migration and module
    # load/unload — which the threat model excludes (paper §3.1/§5.2:
    # "functions that can only be invoked by host-side operations ...
    # accounts for approximately 4.8% on Intel"). They are instrumented
    # like the rest of the file but no guest instruction reaches them.
    # ------------------------------------------------------------------

    def vmx_get_nested_state(self, state: VmxNestedState) -> dict:
        """KVM_GET_NESTED_STATE: snapshot nested state for migration."""
        blob: dict = {
            "format": "vmx",
            "vmxon": state.vmxon,
            "vmxon_ptr": state.vmxon_ptr,
            "current_vmptr": state.current_vmptr,
            "guest_mode": state.guest_mode,
        }
        vmcs12 = self.get_vmcs12(state)
        if vmcs12 is not None:
            blob["vmcs12"] = vmcs12.serialize()
        if state.guest_mode:
            blob["vmcs02_launch_state"] = state.vmcs02.launch_state
        return blob

    def vmx_set_nested_state(self, state: VmxNestedState, blob: dict) -> int:
        """KVM_SET_NESTED_STATE: restore nested state after migration."""
        if blob.get("format") != "vmx":
            return -22  # -EINVAL
        if blob.get("guest_mode") and not blob.get("vmxon"):
            return -22
        vmxon_ptr = blob.get("vmxon_ptr", VMPTR_INVALID)
        if blob.get("vmxon"):
            if vmxon_ptr == VMPTR_INVALID or vmxon_ptr & 0xFFF:
                return -22
            state.vmxon = True
            state.vmxon_ptr = vmxon_ptr
        current = blob.get("current_vmptr", VMPTR_INVALID)
        if current != VMPTR_INVALID:
            if current & 0xFFF or not self.memory.in_guest_ram(current):
                return -22
            state.current_vmptr = current
            raw = blob.get("vmcs12")
            if raw is not None:
                self.memory.put_vmcs(current, Vmcs.deserialize(
                    raw, self.caps.vmcs_revision_id))
        state.guest_mode = bool(blob.get("guest_mode"))
        return 0

    def nested_vmx_hardware_setup(self) -> bool:
        """Module-load-time setup of the nested MSR set."""
        if not self.params.nested:
            return False
        for control_caps in (self.caps.pin_based, self.caps.proc_based,
                             self.caps.entry, self.caps.exit):
            if control_caps.allowed0 & ~control_caps.allowed1:
                return False  # inconsistent capability advertisement
        return True

    def nested_vmx_hardware_unsetup(self) -> None:
        """Module-unload-time teardown: drop cached shadow state."""
        self.memory.vmcs_pages.clear()
        self.mmu.root = None

    def nested_enable_evmcs(self, state: VmxNestedState, version: int) -> int:
        """Hyper-V enlightened-VMCS negotiation (hypervisor-specific
        support the evaluation lists among rarely-exercised residue)."""
        if version not in (1, 2):
            return -22
        if state.vmxon:
            return -16  # -EBUSY: must negotiate before vmxon
        return 0

    # ------------------------------------------------------------------
    # Nested VM exit (nested_vmx_vmexit analogue)
    # ------------------------------------------------------------------

    def nested_vmx_vmexit(self, state: VmxNestedState, vmcs12: Vmcs,
                          reason: int, *, qualification: int = 0,
                          intr_info: int = 0) -> None:
        """Reflect an exit to L1: sync vmcs02 -> vmcs12, restore vmcs01."""
        # Guest state written back from vmcs02.
        for spec in F.ALL_FIELDS:
            if spec.group is F.FieldGroup.GUEST:
                vmcs12.write(spec.encoding, state.vmcs02.read(spec.encoding))
        vmcs12.write(F.VMCS_LINK_POINTER, VMPTR_INVALID)
        # Exit information fields.
        vmcs12.write(F.VM_EXIT_REASON, reason)
        vmcs12.write(F.EXIT_QUALIFICATION, qualification)
        vmcs12.write(F.VM_EXIT_INTR_INFO, intr_info)
        vmcs12.write(F.VM_EXIT_INSTRUCTION_LEN, 3)
        vmcs12.write(F.IDT_VECTORING_INFO_FIELD, 0)
        # L1 resumes from the vmcs12 host state.
        state.guest_mode = False
        self.phys.vmclear(VMCS01_HPA)
        image = self._vmcs01.copy()
        image.clear()
        self.phys.install_vmcs(VMCS01_HPA, image)
        self.phys.vmptrld(VMCS01_HPA)
        self.phys.vmlaunch()

    # ------------------------------------------------------------------
    # Exit reflection policy (nested_vmx_l1_wants_exit analogue)
    # ------------------------------------------------------------------

    def l1_wants_exit(self, vmcs12: Vmcs, reason: ExitReason,
                      instr: GuestInstruction) -> bool:
        """Decide whether an L2 exit is forwarded to L1 or handled by L0."""
        pin = vmcs12.read(F.PIN_BASED_VM_EXEC_CONTROL)
        proc = vmcs12.read(F.CPU_BASED_VM_EXEC_CONTROL)
        proc2 = vmcs12.read(F.SECONDARY_VM_EXEC_CONTROL)
        if not proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS:
            proc2 = 0

        if reason == ExitReason.EXCEPTION_NMI:
            vector = instr.op("vector")
            return bool(vmcs12.read(F.EXCEPTION_BITMAP) & (1 << (vector & 31)))
        if reason == ExitReason.EXTERNAL_INTERRUPT:
            return bool(pin & PinBased.EXT_INTR_EXITING)
        if reason == ExitReason.TRIPLE_FAULT:
            return True
        if reason in (ExitReason.INTERRUPT_WINDOW, ExitReason.NMI_WINDOW):
            return bool(proc & (ProcBased.INTR_WINDOW_EXITING
                                if reason == ExitReason.INTERRUPT_WINDOW
                                else ProcBased.NMI_WINDOW_EXITING))
        if reason in (ExitReason.CPUID, ExitReason.GETSEC, ExitReason.INVD,
                      ExitReason.XSETBV):
            return True  # unconditional exits
        if reason == ExitReason.TASK_SWITCH:
            return True
        if reason == ExitReason.HLT:
            return bool(proc & ProcBased.HLT_EXITING)
        if reason == ExitReason.INVLPG:
            return bool(proc & ProcBased.INVLPG_EXITING)
        if reason == ExitReason.RDPMC:
            return bool(proc & ProcBased.RDPMC_EXITING)
        if reason in (ExitReason.RDTSC, ExitReason.RDTSCP):
            return bool(proc & ProcBased.RDTSC_EXITING)
        if reason in (ExitReason.VMCLEAR, ExitReason.VMLAUNCH,
                      ExitReason.VMPTRLD, ExitReason.VMPTRST,
                      ExitReason.VMREAD, ExitReason.VMRESUME,
                      ExitReason.VMWRITE, ExitReason.VMXOFF,
                      ExitReason.VMXON, ExitReason.INVEPT,
                      ExitReason.INVVPID, ExitReason.VMCALL):
            return True  # VMX instructions in L2 always go to L1
        if reason == ExitReason.CR_ACCESS:
            return self._cr_access_reflects(vmcs12, instr)
        if reason == ExitReason.DR_ACCESS:
            return bool(proc & ProcBased.MOV_DR_EXITING)
        if reason == ExitReason.IO_INSTRUCTION:
            return self._io_reflects(vmcs12, proc, instr)
        if reason in (ExitReason.MSR_READ, ExitReason.MSR_WRITE):
            return self._msr_reflects(vmcs12, proc, instr)
        if reason == ExitReason.MWAIT_INSTRUCTION:
            return bool(proc & ProcBased.MWAIT_EXITING)
        if reason == ExitReason.MONITOR_TRAP_FLAG:
            return bool(proc & ProcBased.MONITOR_TRAP_FLAG)
        if reason == ExitReason.MONITOR_INSTRUCTION:
            return bool(proc & ProcBased.MONITOR_EXITING)
        if reason == ExitReason.PAUSE_INSTRUCTION:
            return bool(proc & ProcBased.PAUSE_EXITING
                        or proc2 & Secondary.PAUSE_LOOP_EXITING)
        if reason == ExitReason.APIC_ACCESS:
            return bool(proc2 & Secondary.VIRTUALIZE_APIC_ACCESSES)
        if reason == ExitReason.APIC_WRITE:
            return bool(proc2 & Secondary.APIC_REGISTER_VIRT)
        if reason == ExitReason.VIRTUALIZED_EOI:
            return bool(proc2 & Secondary.VIRTUAL_INTR_DELIVERY)
        if reason == ExitReason.TPR_BELOW_THRESHOLD:
            return bool(proc & ProcBased.USE_TPR_SHADOW)
        if reason in (ExitReason.GDTR_IDTR_ACCESS, ExitReason.LDTR_TR_ACCESS):
            return bool(proc2 & Secondary.DESC_TABLE_EXITING)
        if reason in (ExitReason.EPT_VIOLATION, ExitReason.EPT_MISCONFIG):
            # With nested EPT the violation belongs to L1; with shadow
            # paging L0 resolves it invisibly.
            return bool(proc2 & Secondary.ENABLE_EPT)
        if reason == ExitReason.PREEMPTION_TIMER:
            return bool(pin & PinBased.PREEMPTION_TIMER)
        if reason == ExitReason.RDRAND:
            return bool(proc2 & Secondary.RDRAND_EXITING)
        if reason == ExitReason.RDSEED:
            return bool(proc2 & Secondary.RDSEED_EXITING)
        if reason == ExitReason.INVPCID:
            return bool(proc2 & Secondary.ENABLE_INVPCID
                        and proc & ProcBased.INVLPG_EXITING)
        if reason == ExitReason.WBINVD:
            return bool(proc2 & Secondary.WBINVD_EXITING)
        if reason == ExitReason.VMFUNC:
            return True
        if reason == ExitReason.ENCLS:
            return bool(proc2 & Secondary.ENCLS_EXITING)
        if reason == ExitReason.PML_FULL:
            return False  # L0 manages the PML buffer
        if reason in (ExitReason.XSAVES, ExitReason.XRSTORS):
            return bool(proc2 & Secondary.ENABLE_XSAVES)
        return True

    def _cr_access_reflects(self, vmcs12: Vmcs, instr: GuestInstruction) -> bool:
        """MOV CR intercept policy from CR masks and target lists."""
        cr = instr.op("cr")
        write = bool(instr.op("write", 1))
        value = instr.op("value")
        proc = vmcs12.read(F.CPU_BASED_VM_EXEC_CONTROL)
        if cr == 0:
            mask = vmcs12.read(F.CR0_GUEST_HOST_MASK)
            shadow = vmcs12.read(F.CR0_READ_SHADOW)
            return bool(mask and (value & mask) != (shadow & mask))
        if cr == 3:
            if write:
                if not proc & ProcBased.CR3_LOAD_EXITING:
                    return False
                count = min(vmcs12.read(F.CR3_TARGET_COUNT), 4)
                targets = (F.CR3_TARGET_VALUE0, F.CR3_TARGET_VALUE1,
                           F.CR3_TARGET_VALUE2, F.CR3_TARGET_VALUE3)
                for idx in range(count):
                    if vmcs12.read(targets[idx]) == value:
                        return False  # whitelisted target
                return True
            return bool(proc & ProcBased.CR3_STORE_EXITING)
        if cr == 4:
            mask = vmcs12.read(F.CR4_GUEST_HOST_MASK)
            shadow = vmcs12.read(F.CR4_READ_SHADOW)
            return bool(mask and (value & mask) != (shadow & mask))
        if cr == 8:
            if write:
                return bool(proc & ProcBased.CR8_LOAD_EXITING)
            return bool(proc & ProcBased.CR8_STORE_EXITING)
        return True

    def _io_reflects(self, vmcs12: Vmcs, proc: int,
                     instr: GuestInstruction) -> bool:
        """IN/OUT intercept policy from the I/O bitmaps."""
        if proc & ProcBased.USE_IO_BITMAPS:
            port = instr.op("port") & 0xFFFF
            # Modelled bitmap: L1 typically traps the low half of the
            # port space it populated; an unpopulated bitmap traps all.
            bitmap_gpa = vmcs12.read(F.IO_BITMAP_A if port < 0x8000
                                     else F.IO_BITMAP_B)
            if bitmap_gpa and self.memory.in_guest_ram(bitmap_gpa):
                return bool(port & 1)  # odd ports trapped in the model
            return True
        return bool(proc & ProcBased.UNCOND_IO_EXITING)

    def _msr_reflects(self, vmcs12: Vmcs, proc: int,
                      instr: GuestInstruction) -> bool:
        """RDMSR/WRMSR intercept policy from the MSR bitmap."""
        if not proc & ProcBased.USE_MSR_BITMAPS:
            return True
        bitmap_gpa = vmcs12.read(F.MSR_BITMAP)
        if not bitmap_gpa or not self.memory.in_guest_ram(bitmap_gpa):
            return True
        index = instr.op("msr")
        if index >= 0xC0000000 and index < 0xC0002000:
            return bool(index & 1)  # modelled high-range bitmap
        if index < 0x2000:
            return bool(index & 1)  # modelled low-range bitmap
        return True  # out-of-range MSRs always exit
