"""Xen nested VMX emulation — the analogue of ``xen/arch/x86/hvm/vmx/vvmx.c``.

Xen's nested VMX ("nvmx") is structured around a *virtual VMCS* that L1
manipulates with vmread/vmwrite, shadowed into a hardware VMCS at
virtual VM entry. The implementation is historically less complete than
KVM's — fewer software consistency checks, more reliance on hardware to
reject bad states — which is visible in the branch structure below.

Seeded bug (Table 6 #4, fixed by [11]): ``virtual_vmentry`` copies the
guest activity state from VMCS12 into VMCS02 *blindly*. The auxiliary
states SHUTDOWN and WAIT-FOR-SIPI are intended for Intel TXT processor
management; running an L2 with WAIT-FOR-SIPI hangs the whole host, and
SHUTDOWN triggers a platform reset. The ``activity_state_sanitize``
patch gates the fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import perf
from repro.arch.exceptions import HostCrash
from repro.arch.registers import Cr0, Cr4, Efer, Rflags
from repro.cpu.physical_cpu import VmxCpu
from repro.hypervisors.base import ExecResult, GuestInstruction, SanitizerKind
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
from repro.vmx.msr_caps import VmxCapabilities, default_capabilities

VVMCS_INVALID = (1 << 64) - 1
XEN_VMCS02_HPA = 0x120000
XEN_VMXON_HPA = 0x121000

#: Guest-group field specs, precomputed for the shadow load.
_GUEST_SPECS: tuple = tuple(
    spec for spec in F.ALL_FIELDS if spec.group is F.FieldGroup.GUEST)
_GUEST_ENCODINGS: frozenset[int] = frozenset(s.encoding for s in _GUEST_SPECS)

#: VMCS12 fields read by the control section of load_shadow_guest_state.
_SHADOW_CONTROL_INPUTS: frozenset[int] = frozenset({
    F.PIN_BASED_VM_EXEC_CONTROL, F.CPU_BASED_VM_EXEC_CONTROL,
    F.SECONDARY_VM_EXEC_CONTROL, F.VM_ENTRY_CONTROLS, F.EXCEPTION_BITMAP,
})


@dataclass
class NvmxState:
    """Per-vCPU nvmx state (struct nestedvmx analogue)."""

    vmxon: bool = False
    vmxon_region: int = VVMCS_INVALID
    vvmcs_addr: int = VVMCS_INVALID  # current virtual VMCS (vmcs12)
    guest_mode: bool = False
    l2_ever_ran: bool = False
    vmcs02: "object" = None
    #: (vvmcs, generation, shadow vmcs02) from the last shadow load.
    merge_cache: tuple | None = None
    cr4: int = Cr4.PAE | Cr4.VMXE


class XenNestedVmx:
    """Xen's nvmx for one HVM guest."""

    def __init__(self, hypervisor, memory: GuestMemory,
                 caps: VmxCapabilities | None = None,
                 patched: frozenset[str] = frozenset()) -> None:
        self.hv = hypervisor
        self.memory = memory
        self.caps = caps or default_capabilities()
        self.patched = patched
        self.phys = VmxCpu(default_capabilities())
        self.phys.vmxon(XEN_VMXON_HPA)
        self._vmcs02_proto = golden_vmcs(self.phys.caps)

    HANDLERS = {
        "vmxon": "nvmx_handle_vmxon",
        "vmxoff": "nvmx_handle_vmxoff",
        "vmclear": "nvmx_handle_vmclear",
        "vmptrld": "nvmx_handle_vmptrld",
        "vmptrst": "nvmx_handle_vmptrst",
        "vmread": "nvmx_handle_vmread",
        "vmwrite": "nvmx_handle_vmwrite",
        "vmlaunch": "nvmx_handle_vmlaunch",
        "vmresume": "nvmx_handle_vmresume",
        "invept": "nvmx_handle_invept",
        "invvpid": "nvmx_handle_invvpid",
        "vmcall": "nvmx_handle_vmcall",
    }

    def handle(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate one VMX instruction from the L1 HVM guest."""
        handler_name = self.HANDLERS.get(instr.mnemonic)
        if handler_name is None:
            return ExecResult.fault(f"#UD: {instr.mnemonic}")
        return getattr(self, handler_name)(state, instr)

    # ------------------------------------------------------------------
    # Instruction emulation
    # ------------------------------------------------------------------

    def nvmx_handle_vmxon(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmxon` instruction."""
        if not state.cr4 & Cr4.VMXE:
            return ExecResult.fault("#UD: CR4.VMXE clear")
        if state.vmxon:
            return self._vmfail(state, VmInstructionError.VMXON_IN_VMX_ROOT)
        gpa = instr.op("addr")
        if gpa & 0xFFF or not self.memory.in_guest_ram(gpa):
            return ExecResult.success("VMfailInvalid", value=-1)
        state.vmxon = True
        state.vmxon_region = gpa
        state.vvmcs_addr = VVMCS_INVALID
        return ExecResult.success("vmxon ok")

    def nvmx_handle_vmxoff(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmxoff` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: VMX not enabled")
        state.vmxon = False
        state.vvmcs_addr = VVMCS_INVALID
        return ExecResult.success("vmxoff ok")

    def nvmx_handle_vmclear(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmclear` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: VMX not enabled")
        gpa = instr.op("addr")
        if gpa & 0xFFF or not self.memory.in_guest_ram(gpa):
            return self._vmfail(state, VmInstructionError.VMCLEAR_INVALID_ADDRESS)
        vvmcs = self.memory.ensure_vmcs(gpa, self.caps.vmcs_revision_id)
        vvmcs.clear()
        if state.vvmcs_addr == gpa:
            state.vvmcs_addr = VVMCS_INVALID
        return ExecResult.success("vmclear ok")

    def nvmx_handle_vmptrld(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmptrld` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: VMX not enabled")
        gpa = instr.op("addr")
        if gpa & 0xFFF or not self.memory.in_guest_ram(gpa):
            return self._vmfail(state, VmInstructionError.VMPTRLD_INVALID_ADDRESS)
        if gpa == state.vmxon_region:
            return self._vmfail(state, VmInstructionError.VMPTRLD_VMXON_POINTER)
        vvmcs = self.memory.get_vmcs(gpa)
        if vvmcs is None:
            return self._vmfail(state,
                                VmInstructionError.VMPTRLD_INCORRECT_REVISION_ID)
        state.vvmcs_addr = gpa
        return ExecResult.success("vmptrld ok")

    def nvmx_handle_vmptrst(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmptrst` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: VMX not enabled")
        return ExecResult.success("vmptrst ok", value=state.vvmcs_addr)

    def nvmx_handle_vmread(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmread` instruction."""
        vvmcs = self._vvmcs(state)
        if vvmcs is None:
            return ExecResult.success("VMfailInvalid", value=-1)
        encoding = instr.op("field")
        if encoding not in F.SPEC_BY_ENCODING:
            return self._vmfail(state, VmInstructionError.UNSUPPORTED_VMCS_COMPONENT)
        return ExecResult.success("vmread ok", value=vvmcs.read(encoding))

    def nvmx_handle_vmwrite(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmwrite` instruction."""
        vvmcs = self._vvmcs(state)
        if vvmcs is None:
            return ExecResult.success("VMfailInvalid", value=-1)
        encoding = instr.op("field")
        spec = F.SPEC_BY_ENCODING.get(encoding)
        if spec is None:
            return self._vmfail(state, VmInstructionError.UNSUPPORTED_VMCS_COMPONENT)
        if spec.group is F.FieldGroup.READ_ONLY:
            return self._vmfail(state, VmInstructionError.VMWRITE_READ_ONLY_COMPONENT)
        vvmcs.write(encoding, instr.op("value"))
        return ExecResult.success("vmwrite ok")

    def nvmx_handle_vmlaunch(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmlaunch` instruction."""
        return self.virtual_vmentry(state, launch=True)

    def nvmx_handle_vmresume(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmresume` instruction."""
        return self.virtual_vmentry(state, launch=False)

    def nvmx_handle_invept(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `invept` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: VMX not enabled")
        if instr.op("type") not in (1, 2):
            return self._vmfail(state,
                                VmInstructionError.INVALID_OPERAND_TO_INVEPT_INVVPID)
        return ExecResult.success("invept ok")

    def nvmx_handle_invvpid(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `invvpid` instruction."""
        if not state.vmxon:
            return ExecResult.fault("#UD: VMX not enabled")
        if instr.op("type") > 3:
            return self._vmfail(state,
                                VmInstructionError.INVALID_OPERAND_TO_INVEPT_INVVPID)
        return ExecResult.success("invvpid ok")

    def nvmx_handle_vmcall(self, state: NvmxState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmcall` instruction."""
        return ExecResult.success("vmcall ok")

    def _vvmcs(self, state: NvmxState):
        if not state.vmxon or state.vvmcs_addr == VVMCS_INVALID:
            return None
        return self.memory.get_vmcs(state.vvmcs_addr)

    def _vmfail(self, state: NvmxState, error: VmInstructionError) -> ExecResult:
        vvmcs = self._vvmcs(state)
        if vvmcs is not None:
            vvmcs.write(F.VM_INSTRUCTION_ERROR, int(error))
        return ExecResult.success(f"VMfailValid({int(error)})", value=int(error))

    # ------------------------------------------------------------------
    # Virtual VM entry (virtual_vmentry analogue)
    # ------------------------------------------------------------------

    def virtual_vmentry(self, state: NvmxState, *, launch: bool) -> ExecResult:
        """Xen's virtual VM entry: checks, shadow load, run, bug #4."""
        if not state.vmxon:
            return ExecResult.fault("#UD: VMX not enabled")
        vvmcs = self._vvmcs(state)
        if vvmcs is None:
            return ExecResult.success("VMfailInvalid", value=-1)
        if launch and vvmcs.launched:
            return self._vmfail(state, VmInstructionError.VMLAUNCH_NONCLEAR_VMCS)
        if not launch and not vvmcs.launched:
            return self._vmfail(state, VmInstructionError.VMRESUME_NONLAUNCHED_VMCS)

        # All three checks are pure in the virtual-VMCS fields (caps and
        # the memory-window predicate are constant per instance), so the
        # results are memoized on the vVMCS and revalidated via its
        # dirty journal between entries.
        problems = perf.memoized_check(
            vvmcs, ("xen_vmx", id(self), "controls"),
            lambda: self.check_controls(vvmcs))
        if problems:
            return self._vmfail(state, VmInstructionError.ENTRY_INVALID_CONTROL_FIELDS)
        problems = perf.memoized_check(
            vvmcs, ("xen_vmx", id(self), "host"),
            lambda: self.check_host_state(vvmcs))
        if problems:
            return self._vmfail(state, VmInstructionError.ENTRY_INVALID_HOST_STATE)
        problems = perf.memoized_check(
            vvmcs, ("xen_vmx", id(self), "guest"),
            lambda: self.check_guest_state(vvmcs))
        if problems:
            reason = int(ExitReason.INVALID_GUEST_STATE) | ENTRY_FAILURE_BIT
            vvmcs.write(F.VM_EXIT_REASON, reason)
            return ExecResult.success(f"entry failed: {problems[0]}",
                                      exit_reason=reason, level=1)

        vmcs02 = self.load_shadow_guest_state(state, vvmcs)

        self.phys.vmclear(XEN_VMCS02_HPA)
        image = vmcs02.copy()
        image.clear()
        self.phys.install_vmcs(XEN_VMCS02_HPA, image)
        self.phys.vmptrld(XEN_VMCS02_HPA)
        outcome = self.phys.vmlaunch()
        if not outcome.entered:
            self.hv.report_sanitizer(
                SanitizerKind.WARN, "virtual_vmentry",
                "hardware rejected shadow VMCS")
            reason = int(ExitReason.INVALID_GUEST_STATE) | ENTRY_FAILURE_BIT
            vvmcs.write(F.VM_EXIT_REASON, reason)
            return ExecResult.success("entry failed on hardware",
                                      exit_reason=reason, level=1)
        state.vmcs02 = image

        # BUG #4: the activity state was copied blindly. Running an L2
        # vCPU parked in WAIT-FOR-SIPI blocks every event except SIPIs —
        # nothing will ever deliver one, and the pCPU spins in non-root
        # mode forever: the host is gone. SHUTDOWN resets the platform.
        activity = image.read(F.GUEST_ACTIVITY_STATE)
        if "activity_state_sanitize" not in self.patched:
            if activity == ActivityState.WAIT_FOR_SIPI:
                self.hv.crashed = True
                raise HostCrash(
                    "host unresponsive: L2 entered wait-for-SIPI activity "
                    "state (VMCS12 activity state copied unsanitized)",
                    hang=True)
            if activity == ActivityState.SHUTDOWN:
                self.hv.crashed = True
                raise HostCrash(
                    "platform reset: L2 entered SHUTDOWN activity state",
                    hang=False)

        if launch:
            vvmcs.mark_launched()
        state.guest_mode = True
        state.l2_ever_ran = True
        return ExecResult.success("virtual vmentry", level=2)

    # ------------------------------------------------------------------
    # Checks — deliberately sparser than KVM's (matching Xen's nvmx)
    # ------------------------------------------------------------------

    def check_controls(self, vvmcs) -> list[str]:
        """Xen's software control checks (a subset of the SDM's)."""
        problems: list[str] = []
        pin = vvmcs.read(F.PIN_BASED_VM_EXEC_CONTROL)
        proc = vvmcs.read(F.CPU_BASED_VM_EXEC_CONTROL)
        proc2 = vvmcs.read(F.SECONDARY_VM_EXEC_CONTROL)
        if not self.caps.pin_based.permits(pin):
            problems.append("pin controls")
        if not self.caps.proc_based.permits(proc):
            problems.append("proc controls")
        if proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS:
            if not self.caps.secondary.permits(proc2):
                problems.append("secondary controls")
            if proc2 & Secondary.UNRESTRICTED_GUEST and not proc2 & Secondary.ENABLE_EPT:
                problems.append("unrestricted guest without EPT")
        if not self.caps.entry.permits(vvmcs.read(F.VM_ENTRY_CONTROLS)):
            problems.append("entry controls")
        if not self.caps.exit.permits(vvmcs.read(F.VM_EXIT_CONTROLS)):
            problems.append("exit controls")
        if proc & ProcBased.USE_MSR_BITMAPS:
            if vvmcs.read(F.MSR_BITMAP) & 0xFFF:
                problems.append("MSR bitmap alignment")
        if self.memory.in_l0_reserved(vvmcs.read(F.MSR_BITMAP)):
            problems.append("MSR bitmap in Xen memory")
        return problems

    def check_host_state(self, vvmcs) -> list[str]:
        """Xen's host-state checks."""
        problems: list[str] = []
        if not self.caps.cr0_valid_for_vmx(vvmcs.read(F.HOST_CR0)):
            problems.append("host CR0")
        if not self.caps.cr4_valid_for_vmx(vvmcs.read(F.HOST_CR4)):
            problems.append("host CR4")
        if not vvmcs.read(F.HOST_CS_SELECTOR):
            problems.append("host CS null")
        return problems

    def check_guest_state(self, vvmcs) -> list[str]:
        """Xen's guest-state checks — note: no activity-state rule here;
        that is exactly bug #4."""
        problems: list[str] = []
        cr0 = vvmcs.read(F.GUEST_CR0)
        cr4 = vvmcs.read(F.GUEST_CR4)
        proc = vvmcs.read(F.CPU_BASED_VM_EXEC_CONTROL)
        proc2 = vvmcs.read(F.SECONDARY_VM_EXEC_CONTROL)
        unrestricted = bool(proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS
                            and proc2 & Secondary.UNRESTRICTED_GUEST)
        if not self.caps.cr0_valid_for_vmx(cr0, unrestricted_guest=unrestricted):
            problems.append("guest CR0")
        if not self.caps.cr4_valid_for_vmx(cr4):
            problems.append("guest CR4")
        entry = vvmcs.read(F.VM_ENTRY_CONTROLS)
        if entry & EntryControls.IA32E_MODE_GUEST and not cr0 & Cr0.PG:
            problems.append("IA-32e without paging")
        if entry & EntryControls.LOAD_EFER:
            efer = vvmcs.read(F.GUEST_IA32_EFER)
            if efer & Efer.RESERVED:
                problems.append("guest EFER reserved")
        rflags = vvmcs.read(F.GUEST_RFLAGS)
        if not rflags & Rflags.FIXED_1:
            problems.append("RFLAGS bit 1")
        return problems

    # ------------------------------------------------------------------
    # VMCS12 -> VMCS02 shadow load
    # ------------------------------------------------------------------

    def load_shadow_guest_state(self, state: NvmxState, vvmcs):
        """Build the shadow VMCS02 from the virtual VMCS (vmcs12).

        The last shadow load is cached per vCPU and
        only dirty vVMCS fields are re-applied (perf.merge_state replays
        the skipped sections' kcov event slices, so line coverage is
        that of a full load); the caller copies the result before
        installing it, so hardware write-backs never touch the cached
        master.
        """
        vmcs02 = perf.merge_state(
            state, vvmcs,
            build=lambda: self._shadow_base(vvmcs),
            controls=lambda merged: self._shadow_controls(vvmcs, merged),
            state_fields=_GUEST_ENCODINGS,
            control_inputs=_SHADOW_CONTROL_INPUTS)

        vmcs02.write(F.VMCS_LINK_POINTER, VVMCS_INVALID)
        if not vmcs02.read(F.VIRTUAL_PROCESSOR_ID):
            vmcs02.write(F.VIRTUAL_PROCESSOR_ID, 3)
        # The blind activity-state copy (bug #4) — or the fixed version.
        # Always re-applied: the write is change-detecting, and the value
        # depends only on the (possibly just re-copied) vVMCS field.
        activity = vvmcs.read(F.GUEST_ACTIVITY_STATE)
        if "activity_state_sanitize" in self.patched:
            if activity not in (ActivityState.ACTIVE, ActivityState.HLT):
                activity = ActivityState.ACTIVE
        vmcs02.write(F.GUEST_ACTIVITY_STATE, activity)
        # Pre-warm the entry-check memo so the installed image copy
        # revalidates from the journal instead of re-running checks.
        self.phys.checker.check_all(vmcs02)
        return vmcs02

    def _shadow_base(self, vvmcs) -> Vmcs:
        """Prototype copy with the vVMCS guest-state fields applied."""
        vmcs02 = self._vmcs02_proto.copy()
        for spec in _GUEST_SPECS:
            vmcs02.write(spec.encoding, vvmcs.read(spec.encoding))
        return vmcs02

    def _shadow_controls(self, vvmcs, vmcs02: Vmcs) -> None:
        """Controls: Xen ORs in its own requirements.

        A pure function of the _SHADOW_CONTROL_INPUTS fields of the
        vVMCS plus the constant capability MSRs.
        """
        vmcs02.write(F.PIN_BASED_VM_EXEC_CONTROL, self.phys.caps.pin_based.round(
            vvmcs.read(F.PIN_BASED_VM_EXEC_CONTROL) | PinBased.EXT_INTR_EXITING))
        vmcs02.write(F.CPU_BASED_VM_EXEC_CONTROL, self.phys.caps.proc_based.round(
            vvmcs.read(F.CPU_BASED_VM_EXEC_CONTROL)
            | ProcBased.ACTIVATE_SECONDARY_CONTROLS))
        vmcs02.write(F.SECONDARY_VM_EXEC_CONTROL, self.phys.caps.secondary.round(
            vvmcs.read(F.SECONDARY_VM_EXEC_CONTROL)
            | Secondary.ENABLE_EPT | Secondary.ENABLE_VPID))
        vmcs02.write(F.VM_ENTRY_CONTROLS, self.phys.caps.entry.round(
            vvmcs.read(F.VM_ENTRY_CONTROLS)))
        vmcs02.write(F.VM_EXIT_CONTROLS, self.phys.caps.exit.round(
            ExitControls.HOST_ADDR_SPACE_SIZE | ExitControls.LOAD_EFER
            | ExitControls.SAVE_EFER))
        vmcs02.write(F.EXCEPTION_BITMAP, vvmcs.read(F.EXCEPTION_BITMAP))

    # ------------------------------------------------------------------
    # Host-side toolstack surface (domctl / save-restore / setup)
    #
    # Reachable only through xl/libxl operations on the control domain —
    # outside the paper's threat model, so fuzzing never dispatches
    # here. Instrumented like the rest of the file (the Table-4 totals
    # include such code; the paper's NecoFuzz tops out at 83.4%/79.0%).
    # ------------------------------------------------------------------

    def nvmx_domctl_get_state(self, state: NvmxState) -> dict:
        """XEN_DOMCTL_get_nvmx_state: snapshot for live migration."""
        blob: dict = {
            "vmxon": state.vmxon,
            "vmxon_region": state.vmxon_region,
            "vvmcs_addr": state.vvmcs_addr,
            "guest_mode": state.guest_mode,
        }
        vvmcs = self._vvmcs(state)
        if vvmcs is not None:
            blob["vvmcs"] = vvmcs.serialize()
        return blob

    def nvmx_domctl_set_state(self, state: NvmxState, blob: dict) -> int:
        """XEN_DOMCTL_set_nvmx_state: restore after migration."""
        if blob.get("guest_mode") and not blob.get("vmxon"):
            return -22  # -EINVAL
        region = blob.get("vmxon_region", VVMCS_INVALID)
        if blob.get("vmxon"):
            if region == VVMCS_INVALID or region & 0xFFF:
                return -22
            state.vmxon = True
            state.vmxon_region = region
        addr = blob.get("vvmcs_addr", VVMCS_INVALID)
        if addr != VVMCS_INVALID:
            if addr & 0xFFF or not self.memory.in_guest_ram(addr):
                return -22
            raw = blob.get("vvmcs")
            if raw is not None:
                from repro.vmx.vmcs import Vmcs

                self.memory.put_vmcs(addr, Vmcs.deserialize(
                    raw, self.caps.vmcs_revision_id))
            state.vvmcs_addr = addr
        state.guest_mode = bool(blob.get("guest_mode"))
        return 0

    def nvmx_vcpu_initialise(self, state: NvmxState) -> int:
        """Per-vCPU nvmx setup at domain creation (nestedhvm=1)."""
        if state.vmxon:
            return -16  # -EBUSY: already initialised
        state.vmxon_region = VVMCS_INVALID
        state.vvmcs_addr = VVMCS_INVALID
        state.guest_mode = False
        state.cr4 = Cr4.PAE | Cr4.VMXE
        return 0

    def nvmx_vcpu_destroy(self, state: NvmxState) -> None:
        """Per-vCPU teardown: drop the virtual VMCS mapping."""
        if state.vvmcs_addr != VVMCS_INVALID:
            self.memory.vmcs_pages.pop(state.vvmcs_addr & ~0xFFF, None)
        state.vmxon = False
        state.vvmcs_addr = VVMCS_INVALID
        state.guest_mode = False

    # ------------------------------------------------------------------
    # Virtual VM exit
    # ------------------------------------------------------------------

    def virtual_vmexit(self, state: NvmxState, vvmcs, reason: int, *,
                       qualification: int = 0) -> None:
        """Reflect an L2 exit into the virtual VMCS and resume L1."""
        if state.vmcs02 is not None:
            for spec in F.ALL_FIELDS:
                if spec.group is F.FieldGroup.GUEST:
                    vvmcs.write(spec.encoding, state.vmcs02.read(spec.encoding))
        vvmcs.write(F.VM_EXIT_REASON, reason)
        vvmcs.write(F.EXIT_QUALIFICATION, qualification)
        vvmcs.write(F.VM_EXIT_INSTRUCTION_LEN, 3)
        state.guest_mode = False

    def l1_wants_exit(self, vvmcs, reason: ExitReason,
                      instr: GuestInstruction) -> bool:
        """nvmx_n2_vmexit_handler() routing decision (abridged)."""
        pin = vvmcs.read(F.PIN_BASED_VM_EXEC_CONTROL)
        proc = vvmcs.read(F.CPU_BASED_VM_EXEC_CONTROL)
        if reason == ExitReason.EXCEPTION_NMI:
            return bool(vvmcs.read(F.EXCEPTION_BITMAP)
                        & (1 << (instr.op("vector") & 31)))
        if reason == ExitReason.EXTERNAL_INTERRUPT:
            return bool(pin & PinBased.EXT_INTR_EXITING)
        if reason in (ExitReason.TRIPLE_FAULT, ExitReason.CPUID,
                      ExitReason.INVD, ExitReason.XSETBV, ExitReason.VMCALL):
            return True
        if reason == ExitReason.HLT:
            return bool(proc & ProcBased.HLT_EXITING)
        if reason == ExitReason.INVLPG:
            return bool(proc & ProcBased.INVLPG_EXITING)
        if reason in (ExitReason.RDTSC, ExitReason.RDTSCP):
            return bool(proc & ProcBased.RDTSC_EXITING)
        if reason == ExitReason.RDPMC:
            return bool(proc & ProcBased.RDPMC_EXITING)
        if reason in (ExitReason.VMCLEAR, ExitReason.VMLAUNCH,
                      ExitReason.VMPTRLD, ExitReason.VMPTRST,
                      ExitReason.VMREAD, ExitReason.VMRESUME,
                      ExitReason.VMWRITE, ExitReason.VMXOFF, ExitReason.VMXON,
                      ExitReason.INVEPT, ExitReason.INVVPID):
            return True
        if reason == ExitReason.CR_ACCESS:
            mask = vvmcs.read(F.CR0_GUEST_HOST_MASK)
            shadow = vvmcs.read(F.CR0_READ_SHADOW)
            value = instr.op("value")
            return bool(mask and (value & mask) != (shadow & mask))
        if reason == ExitReason.DR_ACCESS:
            return bool(proc & ProcBased.MOV_DR_EXITING)
        if reason == ExitReason.IO_INSTRUCTION:
            if proc & ProcBased.USE_IO_BITMAPS:
                return bool(instr.op("port") & 1)
            return bool(proc & ProcBased.UNCOND_IO_EXITING)
        if reason in (ExitReason.MSR_READ, ExitReason.MSR_WRITE):
            if proc & ProcBased.USE_MSR_BITMAPS:
                return bool(instr.op("msr") & 1)
            return True
        if reason == ExitReason.PAUSE_INSTRUCTION:
            return bool(proc & ProcBased.PAUSE_EXITING)
        if reason in (ExitReason.EPT_VIOLATION, ExitReason.EPT_MISCONFIG):
            proc2 = vvmcs.read(F.SECONDARY_VM_EXEC_CONTROL)
            return bool(proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS
                        and proc2 & Secondary.ENABLE_EPT)
        return True
