"""KVM nested SVM emulation — the analogue of ``arch/x86/kvm/svm/nested.c``.

The AMD-side coverage target. Noticeably smaller than the VMX twin (the
paper instruments 387 AMD lines against 1,681 Intel lines): AMD-V has no
vmread/vmwrite indirection, so "emulation" is mostly VMCB12 consistency
checking, VMCB02 construction, and the intercept-vector reflection
policy.

Bug #3 (Table 6) affects this side too: an invalid nested CR3 fails
``mmu_check_root()`` and pre-patch KVM synthesizes a shutdown exit to L1
although L2 never ran; the ``dummy_root`` patch fixes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import perf
from repro.arch.registers import Cr0, Cr4, Efer
from repro.cpu.svm_cpu import SvmCpu
from repro.hypervisors.base import ExecResult, GuestInstruction, SanitizerKind
from repro.hypervisors.kvm.mmu import KvmMmu
from repro.hypervisors.kvm.module import KvmModuleParams
from repro.hypervisors.memory import GuestMemory
from repro.svm import fields as SF
from repro.svm.exit_codes import SvmExitCodes as SvmExitCode
from repro.svm.fields import Misc1Intercept, Misc2Intercept, VintrControl
from repro.svm.vmcb import Vmcb
from repro.validator.golden import golden_vmcb

VMCB02_HPA = 0x110000
HSAVE_HPA = 0x111000

#: SAVE-area field names, for the incremental merge.
_SAVE_NAMES: frozenset[str] = frozenset(SF.SAVE_NAMES)

#: VMCB12 fields the control-merge section of prepare_vmcb02 reads.
#: (DBGCTL/BR_FROM/BR_TO are SAVE-area: the save-area copy already refreshes
#: them with the same values the conditional LBR writes would use.)
_MERGE_CONTROL_INPUTS: frozenset[str] = frozenset({
    SF.INTERCEPT_MISC1, SF.INTERCEPT_MISC2, SF.INTERCEPT_EXCEPTIONS,
    SF.TSC_OFFSET, SF.EVENT_INJECTION, SF.VINTR_CONTROL,
    SF.AVIC_APIC_BAR, SF.AVIC_BACKING_PAGE,
    SF.PAUSE_FILTER_COUNT, SF.PAUSE_FILTER_THRESHOLD, SF.LBR_VIRT_ENABLE,
})

#: CONTROL-area fields the merge writes only conditionally; on an
#: incremental control refresh they are reset to the prototype values so
#: a branch not taken leaves exactly what a full merge would.
_CONDITIONAL_CONTROL_FIELDS: tuple[str, ...] = (
    SF.AVIC_APIC_BAR, SF.AVIC_BACKING_PAGE,
)


@dataclass
class SvmNestedState:
    """Per-vCPU nested SVM state (struct svm_nested_state analogue)."""

    svme: bool = False
    gif: bool = True
    hsave_pa: int = 0
    guest_mode: bool = False
    l2_ever_ran: bool = False
    prev_l2_long_mode: bool = False
    current_vmcb12_pa: int = 0
    vmcb02: Vmcb = field(default_factory=Vmcb)
    #: (vmcb12, generation, merged vmcb02) from the last prepare_vmcb02.
    merge_cache: tuple | None = None
    efer: int = Efer.SVME | Efer.LME | Efer.LMA


class NestedSvm:
    """The nested-virtualization half of kvm-amd, for one VM."""

    def __init__(self, hypervisor, params: KvmModuleParams,
                 memory: GuestMemory, patched: frozenset[str] = frozenset()) -> None:
        self.hv = hypervisor
        self.params = params
        self.memory = memory
        self.patched = patched
        self.phys = SvmCpu()
        self.phys.set_svme(True)
        self.phys.set_hsave(HSAVE_HPA)
        self.mmu = KvmMmu(memory)
        self._vmcb02_proto = golden_vmcb(nested_paging=params.npt)

    HANDLERS = {
        "vmrun": "handle_vmrun",
        "vmload": "handle_vmload",
        "vmsave": "handle_vmsave",
        "stgi": "handle_stgi",
        "clgi": "handle_clgi",
        "invlpga": "handle_invlpga",
        "skinit": "handle_skinit",
        "vmmcall": "handle_vmmcall",
    }

    def handle(self, state: SvmNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate one SVM instruction executed by L1."""
        if not self.params.nested:
            return ExecResult.fault("#UD: nested virtualization disabled")
        if not state.svme and instr.mnemonic != "skinit":
            return ExecResult.fault("#UD: EFER.SVME clear")
        handler_name = self.HANDLERS.get(instr.mnemonic)
        if handler_name is None:
            return ExecResult.fault(f"#UD: unknown SVM instruction {instr.mnemonic}")
        return getattr(self, handler_name)(state, instr)

    # ------------------------------------------------------------------
    # Instruction handlers
    # ------------------------------------------------------------------

    def handle_vmrun(self, state: SvmNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmrun` instruction."""
        return self.nested_svm_vmrun(state, instr.op("addr"))

    def handle_vmload(self, state: SvmNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmload` instruction."""
        vmcb = self.memory.get_vmcb(instr.op("addr"))
        if vmcb is None or instr.op("addr") & 0xFFF:
            return ExecResult.fault("#GP: bad VMCB address for vmload")
        # Loads the hidden-state MSR images from the VMCB into the vCPU.
        state.efer = vmcb.read(SF.EFER) or state.efer
        return ExecResult.success("vmload ok")

    def handle_vmsave(self, state: SvmNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmsave` instruction."""
        addr = instr.op("addr")
        if addr & 0xFFF or not self.memory.in_guest_ram(addr):
            return ExecResult.fault("#GP: bad VMCB address for vmsave")
        vmcb = self.memory.get_vmcb(addr)
        if vmcb is None:
            vmcb = Vmcb()
            self.memory.put_vmcb(addr, vmcb)
        vmcb.write(SF.EFER, state.efer)
        return ExecResult.success("vmsave ok")

    def handle_stgi(self, state: SvmNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `stgi` instruction."""
        state.gif = True
        return ExecResult.success("stgi ok")

    def handle_clgi(self, state: SvmNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `clgi` instruction."""
        state.gif = False
        return ExecResult.success("clgi ok")

    def handle_invlpga(self, state: SvmNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `invlpga` instruction."""
        asid = instr.op("asid")
        if asid == 0:
            return ExecResult.success("invlpga host asid ignored")
        return ExecResult.success("invlpga ok")

    def handle_skinit(self, state: SvmNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `skinit` instruction."""
        return ExecResult.fault("#UD: SKINIT not supported by KVM")

    def handle_vmmcall(self, state: SvmNestedState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmmcall` instruction."""
        return ExecResult.success("vmmcall ok (hypercall nop)")

    # ------------------------------------------------------------------
    # Nested vmrun (nested_svm_vmrun analogue)
    # ------------------------------------------------------------------

    def nested_svm_vmrun(self, state: SvmNestedState, vmcb12_pa: int) -> ExecResult:
        """The nested vmrun path for one VMCB12."""
        if vmcb12_pa & 0xFFF or not self.memory.in_guest_ram(vmcb12_pa):
            return ExecResult.fault("#GP: misaligned VMCB12 address")
        vmcb12 = self.memory.get_vmcb(vmcb12_pa)
        if vmcb12 is None:
            return ExecResult.fault("#GP: no VMCB at address")
        # Note: GIF does not gate vmrun — the canonical sequence is
        # clgi; vmrun; stgi, with GIF only masking interrupt delivery.
        state.current_vmcb12_pa = vmcb12_pa
        # Both checks are pure in the VMCB12 fields and cheap enough to
        # run on every vmrun: a memo on the VMCB cost more than the checks
        # it skipped.
        problems = self.check_controls(vmcb12)
        # The save area is checked only behind valid controls, as
        # nested_vmcb_check_controls/_save order them.
        if not problems:
            problems = self.check_save_area(vmcb12)
        # The first problem fails vmrun with VMEXIT_INVALID, before any
        # VMCB02 state is built.
        if problems:
            return self._fail_vmrun(state, vmcb12, problems[0])

        prep = self.prepare_vmcb02(state, vmcb12)
        if prep is not None:
            return prep

        self.phys.install_vmcb(VMCB02_HPA, state.vmcb02)
        outcome = self.phys.vmrun(VMCB02_HPA)
        if not outcome.entered:
            self.hv.report_sanitizer(
                SanitizerKind.WARN, "nested_svm_vmrun",
                f"hardware rejected vmcb02: "
                f"{outcome.violations[0] if outcome.violations else 'unknown'}")
            return self._fail_vmrun(state, vmcb12, "vmcb02 rejected")

        state.guest_mode = True
        state.l2_ever_ran = True
        state.prev_l2_long_mode = vmcb12.long_mode_active or bool(
            vmcb12.read(SF.EFER) & Efer.LME and vmcb12.read(SF.CR0) & Cr0.PG)
        return ExecResult.success("nested vmrun", level=2)

    def _fail_vmrun(self, state: SvmNestedState, vmcb12: Vmcb,
                    detail: str) -> ExecResult:
        """Fail vmrun with VMEXIT_INVALID written back to VMCB12."""
        vmcb12.write(SF.EXIT_CODE, int(SvmExitCode.INVALID))
        vmcb12.write(SF.EXIT_INFO_1, 0)
        vmcb12.write(SF.EXIT_INFO_2, 0)
        return ExecResult.success(f"vmrun failed: {detail}",
                                  exit_reason=int(SvmExitCode.INVALID), level=1)

    # ------------------------------------------------------------------
    # Consistency checks
    # ------------------------------------------------------------------

    def check_controls(self, vmcb12: Vmcb) -> list[str]:
        """nested_vmcb_check_controls() analogue."""
        problems: list[str] = []
        if not vmcb12.read(SF.INTERCEPT_MISC2) & Misc2Intercept.VMRUN:
            problems.append("VMRUN intercept clear")
        if not vmcb12.read(SF.GUEST_ASID):
            problems.append("ASID zero")
        if vmcb12.nested_paging and not self.params.npt:
            problems.append("nested paging requested without npt")
        io_pa = vmcb12.read(SF.IOPM_BASE_PA)
        if io_pa and self.memory.in_l0_reserved(io_pa):
            problems.append("IOPM points into L0 memory")
        msr_pa = vmcb12.read(SF.MSRPM_BASE_PA)
        if msr_pa and self.memory.in_l0_reserved(msr_pa):
            problems.append("MSRPM points into L0 memory")
        return problems

    def check_save_area(self, vmcb12: Vmcb) -> list[str]:
        """nested_vmcb_check_save() analogue."""
        problems: list[str] = []
        efer = vmcb12.read(SF.EFER)
        cr0 = vmcb12.read(SF.CR0)
        cr4 = vmcb12.read(SF.CR4)
        if efer & Efer.RESERVED:
            problems.append("EFER reserved bits")
        if cr0 >> 32:
            problems.append("CR0 high bits")
        if not cr0 & Cr0.CD and cr0 & Cr0.NW:
            problems.append("CR0 CD/NW combination")
        if cr4 & Cr4.RESERVED:
            problems.append("CR4 reserved bits")
        if efer & Efer.LME and cr0 & Cr0.PG:
            if not cr4 & Cr4.PAE:
                problems.append("long mode without PAE")
            if not cr0 & Cr0.PE:
                problems.append("long mode without PE")
        if vmcb12.read(SF.DR6) >> 32 or vmcb12.read(SF.DR7) >> 32:
            problems.append("DR6/DR7 high bits")
        return problems

    # ------------------------------------------------------------------
    # VMCB12 -> VMCB02 merge
    # ------------------------------------------------------------------

    def prepare_vmcb02(self, state: SvmNestedState, vmcb12: Vmcb) -> ExecResult | None:
        """Build VMCB02; returns an ExecResult on the bug-#3 failure path.

        The master merge result is cached per vCPU
        and only dirty VMCB12 fields are re-applied (perf.merge_state
        replays the skipped sections' kcov event slices, so line coverage is
        that of a full merge); the installed VMCB02 is a copy of the master,
        so hardware write-backs (quirk fixups, exit codes) never
        contaminate the cache. The paging section always re-runs for its
        MMU side effects and early exits.
        """
        vmcb02 = perf.merge_state(
            state, vmcb12,
            build=lambda: self._vmcb02_base(vmcb12),
            controls=lambda merged: self._vmcb02_controls(vmcb12, merged),
            state_fields=_SAVE_NAMES,
            control_inputs=_MERGE_CONTROL_INPUTS)
        return self._finish_vmcb02(state, vmcb12, vmcb02)

    def _vmcb02_base(self, vmcb12: Vmcb) -> Vmcb:
        """Prototype copy with vmcb12's save area applied."""
        vmcb02 = self._vmcb02_proto.copy()
        vmcb02.copy_fields(vmcb12, SF.SAVE_NAMES)
        return vmcb02

    def _vmcb02_controls(self, vmcb12: Vmcb, vmcb02: Vmcb) -> None:
        """Merge the control area: L1's requests plus L0's intercepts.

        A pure function of the _MERGE_CONTROL_INPUTS fields of vmcb12
        (the save-area fields it copies under LBR gating are re-applied
        by the save-area copy anyway) plus constant module parameters — the
        contract that lets perf.merge_state skip it while those fields
        are clean.
        """
        # Branch-not-taken writes must land on prototype values, as
        # they would after a full merge from a fresh prototype copy.
        for name in _CONDITIONAL_CONTROL_FIELDS:
            vmcb02.write(name, self._vmcb02_proto.read(name))

        # Controls merged with L0's own intercepts.
        vmcb02.write(SF.INTERCEPT_MISC1,
                     vmcb12.read(SF.INTERCEPT_MISC1) | Misc1Intercept.INTR
                     | Misc1Intercept.NMI | Misc1Intercept.SHUTDOWN
                     | Misc1Intercept.CPUID | Misc1Intercept.MSR_PROT
                     | Misc1Intercept.IOIO_PROT)
        vmcb02.write(SF.INTERCEPT_MISC2,
                     vmcb12.read(SF.INTERCEPT_MISC2) | Misc2Intercept.VMRUN
                     | Misc2Intercept.VMLOAD | Misc2Intercept.VMSAVE
                     | Misc2Intercept.STGI | Misc2Intercept.CLGI
                     | Misc2Intercept.SKINIT)
        vmcb02.write(SF.INTERCEPT_EXCEPTIONS, vmcb12.read(SF.INTERCEPT_EXCEPTIONS))
        vmcb02.write(SF.GUEST_ASID, 2)  # L0 assigns its own ASID
        vmcb02.write(SF.TSC_OFFSET, vmcb12.read(SF.TSC_OFFSET))
        vmcb02.write(SF.EVENT_INJECTION, vmcb12.read(SF.EVENT_INJECTION))

        # vGIF: only with module support; KVM gates the bits correctly
        # (contrast with Xen bug #6).
        vintr12 = vmcb12.read(SF.VINTR_CONTROL)
        vintr02 = vintr12 & (VintrControl.V_TPR_MASK | VintrControl.V_IRQ
                             | VintrControl.V_IGN_TPR | VintrControl.V_INTR_MASKING)
        if self.params.vgif and vintr12 & VintrControl.V_GIF_ENABLE:
            vintr02 |= VintrControl.V_GIF_ENABLE | (vintr12 & VintrControl.V_GIF)
        if self.params.avic:
            vintr02 |= vintr12 & VintrControl.AVIC_ENABLE
            if vintr02 & VintrControl.AVIC_ENABLE:
                vmcb02.write(SF.AVIC_APIC_BAR, vmcb12.read(SF.AVIC_APIC_BAR))
                vmcb02.write(SF.AVIC_BACKING_PAGE,
                             vmcb12.read(SF.AVIC_BACKING_PAGE))
        vmcb02.write(SF.VINTR_CONTROL, vintr02)

        # Module-parameter-gated merges, as in nested_vmcb02_prepare_control:
        # each feature L0 was loaded without is stripped from what L2 sees.
        if self.params.pause_filter:
            vmcb02.write(SF.PAUSE_FILTER_COUNT,
                         vmcb12.read(SF.PAUSE_FILTER_COUNT))
            vmcb02.write(SF.PAUSE_FILTER_THRESHOLD,
                         vmcb12.read(SF.PAUSE_FILTER_THRESHOLD))
        else:
            vmcb02.write(SF.PAUSE_FILTER_COUNT, 0)
            vmcb02.write(SF.PAUSE_FILTER_THRESHOLD, 0)
        lbr12 = vmcb12.read(SF.LBR_VIRT_ENABLE)
        lbr02 = 0
        if self.params.lbrv and lbr12 & 1:
            lbr02 |= 1  # LBR virtualization
            vmcb02.write(SF.DBGCTL, vmcb12.read(SF.DBGCTL))
            vmcb02.write(SF.BR_FROM, vmcb12.read(SF.BR_FROM))
            vmcb02.write(SF.BR_TO, vmcb12.read(SF.BR_TO))
        if self.params.vls and lbr12 & 2:
            lbr02 |= 2  # virtual VMLOAD/VMSAVE
        vmcb02.write(SF.LBR_VIRT_ENABLE, lbr02)

    def _finish_vmcb02(self, state: SvmNestedState, vmcb12: Vmcb,
                       vmcb02: Vmcb) -> ExecResult | None:
        """Paging root + install: the always-run tail of the merge."""
        # Paging root for L2.
        if vmcb12.nested_paging and self.params.npt:
            ncr3 = vmcb12.read(SF.N_CR3)
            if not self.mmu.load_root(ncr3,
                                      dummy_root_patch="dummy_root" in self.patched):
                self.hv.bug_assert(
                    state.l2_ever_ran and False, "nested_svm_load_ncr3",
                    f"shutdown exit synthesized before L2 entered "
                    f"(invisible nCR3 {ncr3:#x})")
                vmcb12.write(SF.EXIT_CODE, int(SvmExitCode.SHUTDOWN))
                state.guest_mode = False
                return ExecResult.success("spurious shutdown (bug)",
                                          exit_reason=int(SvmExitCode.SHUTDOWN),
                                          level=1)
            assert self.mmu.root is not None
            vmcb02.write(SF.NP_CONTROL, SF.NpControl.NP_ENABLE)
            vmcb02.write(SF.N_CR3, self.mmu.root.hpa)
        else:
            vmcb02.write(SF.NP_CONTROL, SF.NpControl.NP_ENABLE)
            vmcb02.write(SF.N_CR3, 0x20000)  # L0 shadow root

        # vmrun writes back into the installed VMCB (quirk fixups, exit
        # codes), so publish_merged installs a copy and keeps the master
        # pristine; the same copy is reused while neither side has
        # changed.
        state.vmcb02 = perf.publish_merged(vmcb02)
        # The hardware consistency check runs in phys.vmrun, on the
        # installed copy.
        return None

    # ------------------------------------------------------------------
    # Host-side ioctl surface (KVM_{GET,SET}_NESTED_STATE, module setup)
    #
    # Host-only: live migration and module lifecycle. The paper measures
    # ~9.8% of the AMD nested file as ioctl-reachable-only (§5.2); no
    # guest instruction dispatches here.
    # ------------------------------------------------------------------

    def svm_get_nested_state(self, state: SvmNestedState) -> dict:
        """KVM_GET_NESTED_STATE: snapshot nested SVM state."""
        blob: dict = {
            "format": "svm",
            "svme": state.svme,
            "gif": state.gif,
            "hsave_pa": state.hsave_pa,
            "guest_mode": state.guest_mode,
            "vmcb12_pa": state.current_vmcb12_pa,
        }
        vmcb12 = self.memory.get_vmcb(state.current_vmcb12_pa)
        if vmcb12 is not None:
            blob["vmcb12"] = vmcb12.serialize()
        return blob

    def svm_set_nested_state(self, state: SvmNestedState, blob: dict) -> int:
        """KVM_SET_NESTED_STATE: restore nested SVM state."""
        if blob.get("format") != "svm":
            return -22  # -EINVAL
        if blob.get("guest_mode") and not blob.get("svme"):
            return -22
        hsave = blob.get("hsave_pa", 0)
        if hsave & 0xFFF:
            return -22
        state.svme = bool(blob.get("svme"))
        state.gif = bool(blob.get("gif", True))
        state.hsave_pa = hsave
        vmcb12_pa = blob.get("vmcb12_pa", 0)
        if blob.get("guest_mode"):
            if vmcb12_pa & 0xFFF or not self.memory.in_guest_ram(vmcb12_pa):
                return -22
            raw = blob.get("vmcb12")
            if raw is not None:
                self.memory.put_vmcb(vmcb12_pa, Vmcb.deserialize(raw))
            vmcb12 = self.memory.get_vmcb(vmcb12_pa)
            if vmcb12 is None or self.check_controls(vmcb12):
                return -22
            state.current_vmcb12_pa = vmcb12_pa
            state.guest_mode = True
        return 0

    def svm_leave_nested(self, state: SvmNestedState) -> None:
        """Force-exit guest mode (vCPU reset / ioctl path)."""
        if state.guest_mode:
            vmcb12 = self.memory.get_vmcb(state.current_vmcb12_pa)
            if vmcb12 is not None:
                vmcb12.write(SF.EXIT_CODE, int(SvmExitCode.INVALID))
            state.guest_mode = False
        state.gif = True

    def nested_svm_hardware_setup(self) -> bool:
        """Module-load-time nested SVM feature resolution."""
        if not self.params.nested:
            return False
        if self.params.avic and not self.params.npt:
            return False  # AVIC depends on nested paging
        return True

    def nested_svm_hardware_unsetup(self) -> None:
        """Module-unload-time teardown."""
        self.memory.vmcb_pages.clear()
        self.mmu.root = None

    # ------------------------------------------------------------------
    # Nested #VMEXIT (nested_svm_vmexit analogue)
    # ------------------------------------------------------------------

    def nested_svm_vmexit(self, state: SvmNestedState, vmcb12: Vmcb,
                          code: int, *, info1: int = 0,
                          info2: int = 0) -> None:
        """Reflect a #VMEXIT to L1: sync VMCB02 save area back to VMCB12."""
        vmcb12.copy_fields(state.vmcb02, SF.SAVE_NAMES)
        vmcb12.write(SF.EXIT_CODE, int(code))
        vmcb12.write(SF.EXIT_INFO_1, info1)
        vmcb12.write(SF.EXIT_INFO_2, info2)
        vmcb12.write(SF.EXIT_INT_INFO, 0)
        state.guest_mode = False

    # ------------------------------------------------------------------
    # Exit reflection policy
    # ------------------------------------------------------------------

    def l1_wants_exit(self, vmcb12: Vmcb, code: int,
                      instr: GuestInstruction) -> bool:
        """Decide whether an L2 #VMEXIT is forwarded to L1."""
        misc1 = vmcb12.read(SF.INTERCEPT_MISC1)
        misc2 = vmcb12.read(SF.INTERCEPT_MISC2)

        if SvmExitCode.EXCP_BASE <= code < SvmExitCode.INTR:
            vector = int(code) - int(SvmExitCode.EXCP_BASE)
            return bool(vmcb12.read(SF.INTERCEPT_EXCEPTIONS) & (1 << vector))
        if code == SvmExitCode.INTR:
            return bool(misc1 & Misc1Intercept.INTR)
        if code == SvmExitCode.NMI:
            return bool(misc1 & Misc1Intercept.NMI)
        if code == SvmExitCode.SMI:
            return bool(misc1 & Misc1Intercept.SMI)
        if code == SvmExitCode.INIT:
            return bool(misc1 & Misc1Intercept.INIT)
        if code == SvmExitCode.VINTR:
            return bool(misc1 & Misc1Intercept.VINTR)
        if code == SvmExitCode.SHUTDOWN:
            return bool(misc1 & Misc1Intercept.SHUTDOWN)
        if code == SvmExitCode.CPUID:
            return bool(misc1 & Misc1Intercept.CPUID)
        if code == SvmExitCode.HLT:
            return bool(misc1 & Misc1Intercept.HLT)
        if code == SvmExitCode.INVLPG:
            return bool(misc1 & Misc1Intercept.INVLPG)
        if code == SvmExitCode.INVLPGA:
            return bool(misc1 & Misc1Intercept.INVLPGA)
        if code == SvmExitCode.IOIO:
            if misc1 & Misc1Intercept.IOIO_PROT:
                return bool(instr.op("port") & 1)  # modelled IOPM
            return False
        if code == SvmExitCode.MSR:
            if misc1 & Misc1Intercept.MSR_PROT:
                return bool(instr.op("msr") & 1)  # modelled MSRPM
            return False
        if code == SvmExitCode.RDTSC:
            return bool(misc1 & Misc1Intercept.RDTSC)
        if code == SvmExitCode.RDPMC:
            return bool(misc1 & Misc1Intercept.RDPMC)
        if code == SvmExitCode.PAUSE:
            return bool(misc1 & Misc1Intercept.PAUSE)
        if code == SvmExitCode.TASK_SWITCH:
            return bool(misc1 & Misc1Intercept.TASK_SWITCH)
        if code in (SvmExitCode.VMRUN, SvmExitCode.VMLOAD, SvmExitCode.VMSAVE,
                    SvmExitCode.STGI, SvmExitCode.CLGI, SvmExitCode.SKINIT,
                    SvmExitCode.VMMCALL):
            mapping = {
                SvmExitCode.VMRUN: Misc2Intercept.VMRUN,
                SvmExitCode.VMLOAD: Misc2Intercept.VMLOAD,
                SvmExitCode.VMSAVE: Misc2Intercept.VMSAVE,
                SvmExitCode.STGI: Misc2Intercept.STGI,
                SvmExitCode.CLGI: Misc2Intercept.CLGI,
                SvmExitCode.SKINIT: Misc2Intercept.SKINIT,
                SvmExitCode.VMMCALL: Misc2Intercept.VMMCALL,
            }
            return bool(misc2 & mapping[code])
        if code == SvmExitCode.NPF:
            return vmcb12.nested_paging
        if code in (SvmExitCode.MONITOR, SvmExitCode.MWAIT):
            return bool(misc2 & (Misc2Intercept.MONITOR | Misc2Intercept.MWAIT))
        if code == SvmExitCode.WBINVD:
            return bool(misc2 & Misc2Intercept.WBINVD)
        if code == SvmExitCode.XSETBV:
            return bool(misc2 & Misc2Intercept.XSETBV)
        if code == SvmExitCode.RDTSCP:
            return bool(misc2 & Misc2Intercept.RDTSCP)
        return True
