"""Xen nested SVM emulation — the analogue of ``xen/arch/x86/hvm/svm/nestedsvm.c``.

Two seeded bugs from the paper (Table 6 #5/#6, Xen issues 215/216):

* **LME/!PG corruption (#5).** An L1 sets ``CR0.PG = 0`` in VMCB12 after
  previously running a 64-bit L2. The APM permits this transitional
  state but leaves vmrun behaviour ambiguous; Xen's merge path corrupts
  the virtual-interrupt control word, erroneously enabling AVIC in
  VMCB02. The next L2 exit is ``AVIC_NOACCEL`` on a host without AVIC —
  an assertion in the exit handler. Patched by ``avic_sanitize``.

* **VGIF injection assertion (#6).** An invalid CR4 in VMCB12 makes the
  vmrun correctly fail back to L1, but the failure-injection path
  ``nsvm_vcpu_vmexit_inject()`` assumes the virtual GIF is set whenever
  VGIF is enabled. After ``clgi`` (the standard pre-vmrun step) the
  virtual GIF is clear, and the assertion fires. Patched by
  ``vgif_inject``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.registers import Cr0, Cr4, Efer
from repro.cpu.svm_cpu import SvmCpu
from repro.hypervisors.base import ExecResult, GuestInstruction
from repro.hypervisors.memory import GuestMemory
from repro.svm import fields as SF
from repro.svm.exit_codes import SvmExitCode
from repro.svm.fields import (Misc1Intercept, Misc2Intercept,
                              VintrControl)
from repro.svm.vmcb import Vmcb
from repro.validator.golden import golden_vmcb

XEN_VMCB02_HPA = 0x130000
XEN_HSAVE_HPA = 0x131000


@dataclass
class NsvmState:
    """Per-vCPU nested SVM state (struct nestedsvm analogue)."""

    svme: bool = False
    gif: bool = True
    guest_mode: bool = False
    l2_ever_ran: bool = False
    prev_l2_long_mode: bool = False
    current_vmcb12_pa: int = 0
    vmcb02: Vmcb = field(default_factory=Vmcb)
    #: vGIF configuration of the host VMCB for this vCPU.
    vgif_enabled: bool = False


class XenNestedSvm:
    """Xen's nested SVM for one HVM guest."""

    def __init__(self, hypervisor, memory: GuestMemory, *,
                 vgif_supported: bool,
                 patched: frozenset[str] = frozenset()) -> None:
        self.hv = hypervisor
        self.memory = memory
        self.vgif_supported = vgif_supported
        self.avic_supported = False  # the paper's host has no AVIC in Xen
        self.patched = patched
        self.phys = SvmCpu()
        self.phys.set_svme(True)
        self.phys.set_hsave(XEN_HSAVE_HPA)
        self._vmcb02_proto = golden_vmcb(nested_paging=True)

    HANDLERS = {
        "vmrun": "nsvm_handle_vmrun",
        "vmload": "nsvm_handle_vmload",
        "vmsave": "nsvm_handle_vmsave",
        "stgi": "nsvm_handle_stgi",
        "clgi": "nsvm_handle_clgi",
        "invlpga": "nsvm_handle_invlpga",
        "skinit": "nsvm_handle_skinit",
        "vmmcall": "nsvm_handle_vmmcall",
    }

    def handle(self, state: NsvmState, instr: GuestInstruction) -> ExecResult:
        """Emulate one SVM instruction from the L1 HVM guest."""
        if not state.svme and instr.mnemonic not in ("skinit",):
            return ExecResult.fault("#UD: EFER.SVME clear")
        handler_name = self.HANDLERS.get(instr.mnemonic)
        if handler_name is None:
            return ExecResult.fault(f"#UD: {instr.mnemonic}")
        return getattr(self, handler_name)(state, instr)

    # ------------------------------------------------------------------
    # Instruction emulation
    # ------------------------------------------------------------------

    def nsvm_handle_vmrun(self, state: NsvmState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmrun` instruction."""
        return self.nsvm_vcpu_vmrun(state, instr.op("addr"))

    def nsvm_handle_vmload(self, state: NsvmState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmload` instruction."""
        addr = instr.op("addr")
        if addr & 0xFFF or not self.memory.in_guest_ram(addr):
            return ExecResult.fault("#GP: bad vmload address")
        return ExecResult.success("vmload ok")

    def nsvm_handle_vmsave(self, state: NsvmState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmsave` instruction."""
        addr = instr.op("addr")
        if addr & 0xFFF or not self.memory.in_guest_ram(addr):
            return ExecResult.fault("#GP: bad vmsave address")
        return ExecResult.success("vmsave ok")

    def nsvm_handle_stgi(self, state: NsvmState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `stgi` instruction."""
        state.gif = True
        return ExecResult.success("stgi ok")

    def nsvm_handle_clgi(self, state: NsvmState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `clgi` instruction."""
        state.gif = False
        return ExecResult.success("clgi ok")

    def nsvm_handle_invlpga(self, state: NsvmState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `invlpga` instruction."""
        return ExecResult.success("invlpga ok")

    def nsvm_handle_skinit(self, state: NsvmState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `skinit` instruction."""
        return ExecResult.fault("#UD: SKINIT not supported")

    def nsvm_handle_vmmcall(self, state: NsvmState, instr: GuestInstruction) -> ExecResult:
        """Emulate the guest's `vmmcall` instruction."""
        return ExecResult.success("vmmcall ok")

    # ------------------------------------------------------------------
    # Nested vmrun
    # ------------------------------------------------------------------

    def nsvm_vcpu_vmrun(self, state: NsvmState, vmcb12_pa: int) -> ExecResult:
        """Xen's nested vmrun path (checks, merge, bug #5)."""
        if vmcb12_pa & 0xFFF or not self.memory.in_guest_ram(vmcb12_pa):
            return ExecResult.fault("#GP: bad VMCB12 address")
        vmcb12 = self.memory.get_vmcb(vmcb12_pa)
        if vmcb12 is None:
            return ExecResult.fault("#GP: no VMCB at address")
        state.current_vmcb12_pa = vmcb12_pa

        # Pure in the VMCB12 fields and run directly on every vmrun.
        # (The merge below is not cached either — it depends on
        # prev_l2_long_mode and the vgif/bug-#5 state.)
        problems = self.nsvm_vmcb_check(vmcb12)
        # The first problem is reflected to L1 as VMEXIT_INVALID, before
        # any VMCB02 state is built.
        if problems:
            return self.nsvm_vcpu_vmexit_inject(state, vmcb12, problems[0])

        self.nsvm_prepare_vmcb02(state, vmcb12)
        self.phys.install_vmcb(XEN_VMCB02_HPA, state.vmcb02)
        outcome = self.phys.vmrun(XEN_VMCB02_HPA)
        if not outcome.entered:
            return self.nsvm_vcpu_vmexit_inject(
                state, vmcb12,
                str(outcome.violations[0]) if outcome.violations else "vmrun fail")

        state.guest_mode = True
        state.l2_ever_ran = True
        efer12 = vmcb12.read(SF.EFER)
        cr0_12 = vmcb12.read(SF.CR0)
        state.prev_l2_long_mode = bool(efer12 & Efer.LME and cr0_12 & Cr0.PG)

        # BUG #5 visible side: with the vintr word corrupted, the very
        # next exit is AVIC_NOACCEL although the host has no AVIC.
        if state.vmcb02.avic_enabled and not self.avic_supported:
            self.hv.bug_assert(
                False, "nsvm_vmexit_handler",
                "VMEXIT_AVIC_NOACCEL on a host without AVIC support "
                "(vintr control corrupted by LME/!PG merge)")
            self.nsvm_vmexit(state, vmcb12, int(SvmExitCode.AVIC_NOACCEL))
            return ExecResult.success("AVIC_NOACCEL exit (bug)",
                                      exit_reason=int(SvmExitCode.AVIC_NOACCEL),
                                      level=1)
        return ExecResult.success("nested vmrun", level=2)

    def nsvm_vmcb_check(self, vmcb12: Vmcb) -> list[str]:
        """Xen's VMCB12 consistency checks (abridged, like the original)."""
        problems: list[str] = []
        efer = vmcb12.read(SF.EFER)
        cr0 = vmcb12.read(SF.CR0)
        cr4 = vmcb12.read(SF.CR4)
        if efer & Efer.RESERVED:
            problems.append("EFER reserved bits")
        if cr0 >> 32:
            problems.append("CR0 high bits")
        if cr4 & Cr4.RESERVED:
            problems.append("CR4 reserved bits set")
        if not vmcb12.read(SF.GUEST_ASID):
            problems.append("ASID zero")
        if not vmcb12.read(SF.INTERCEPT_MISC2) & Misc2Intercept.VMRUN:
            problems.append("VMRUN intercept clear")
        if efer & Efer.LME and cr0 & Cr0.PG and not cr4 & Cr4.PAE:
            problems.append("long mode without PAE")
        return problems

    def nsvm_prepare_vmcb02(self, state: NsvmState, vmcb12: Vmcb) -> None:
        """Merge VMCB12 into VMCB02 — bug #5's corruption site."""
        vmcb02 = self._vmcb02_proto.copy()
        vmcb02.copy_fields(vmcb12, SF.SAVE_NAMES)
        vmcb02.write(SF.INTERCEPT_MISC1,
                     vmcb12.read(SF.INTERCEPT_MISC1) | Misc1Intercept.INTR
                     | Misc1Intercept.NMI | Misc1Intercept.SHUTDOWN
                     | Misc1Intercept.MSR_PROT | Misc1Intercept.IOIO_PROT)
        vmcb02.write(SF.INTERCEPT_MISC2,
                     vmcb12.read(SF.INTERCEPT_MISC2) | Misc2Intercept.VMRUN)
        vmcb02.write(SF.INTERCEPT_EXCEPTIONS, vmcb12.read(SF.INTERCEPT_EXCEPTIONS))
        vmcb02.write(SF.GUEST_ASID, 2)
        vmcb02.write(SF.EVENT_INJECTION, vmcb12.read(SF.EVENT_INJECTION))
        vmcb02.write(SF.NP_CONTROL, SF.NpControl.NP_ENABLE)
        vmcb02.write(SF.N_CR3, 0x20000)

        vintr12 = vmcb12.read(SF.VINTR_CONTROL)
        vintr02 = vintr12 & (VintrControl.V_TPR_MASK | VintrControl.V_IRQ
                             | VintrControl.V_IGN_TPR
                             | VintrControl.V_INTR_MASKING)
        if self.vgif_supported and state.vgif_enabled:
            vintr02 |= VintrControl.V_GIF_ENABLE
            if state.gif:
                vintr02 |= VintrControl.V_GIF

        efer12 = vmcb12.read(SF.EFER)
        cr0_12 = vmcb12.read(SF.CR0)
        if (efer12 & Efer.LME and not cr0_12 & Cr0.PG
                and state.prev_l2_long_mode
                and "avic_sanitize" not in self.patched):
            # BUG #5: the inconsistent long-mode transition state makes
            # Xen's EFER/paging bookkeeping scribble over the adjacent
            # vintr word; the stray bit lands on AVIC-enable.
            vintr02 |= VintrControl.AVIC_ENABLE
            self.hv.log.write(
                "nestedsvm: inconsistent LME/PG state during VMCB merge")

        vmcb02.write(SF.VINTR_CONTROL, vintr02)
        state.vmcb02 = vmcb02

    # ------------------------------------------------------------------
    # Nested #VMEXIT and failure injection
    # ------------------------------------------------------------------

    def nsvm_vmexit(self, state: NsvmState, vmcb12: Vmcb, code: int, *,
                    info1: int = 0, info2: int = 0) -> None:
        """Reflect a #VMEXIT into VMCB12 and resume L1."""
        vmcb12.copy_fields(state.vmcb02, SF.SAVE_NAMES)
        vmcb12.write(SF.EXIT_CODE, code)
        vmcb12.write(SF.EXIT_INFO_1, info1)
        vmcb12.write(SF.EXIT_INFO_2, info2)
        state.guest_mode = False

    def nsvm_vcpu_vmexit_inject(self, state: NsvmState, vmcb12: Vmcb,
                                detail: str) -> ExecResult:
        """Inject VMEXIT_INVALID for a failed vmrun — bug #6's home.

        Pre-patch, the function assumes that with VGIF enabled the
        virtual GIF must be set. The standard ``clgi; vmrun`` sequence
        leaves GIF clear when vmrun fails, so the assumption is wrong.
        """
        if self.vgif_supported and state.vgif_enabled:
            if "vgif_inject" not in self.patched:
                self.hv.bug_assert(
                    state.gif, "nsvm_vcpu_vmexit_inject",
                    "vmcb_vintr.fields.vgif unexpectedly zero while VGIF "
                    "is enabled (failed vmrun injection path)")
        vmcb12.write(SF.EXIT_CODE, int(SvmExitCode.INVALID))
        vmcb12.write(SF.EXIT_INFO_1, 0)
        vmcb12.write(SF.EXIT_INFO_2, 0)
        state.guest_mode = False
        return ExecResult.success(f"vmrun failed: {detail}",
                                  exit_reason=int(SvmExitCode.INVALID), level=1)

    # ------------------------------------------------------------------
    # Host-side toolstack surface (domctl / save-restore / setup)
    #
    # Outside the threat model; never dispatched by fuzzing (see the
    # matching block in xen/nested_vmx.py).
    # ------------------------------------------------------------------

    def nsvm_domctl_get_state(self, state: NsvmState) -> dict:
        """XEN_DOMCTL_get_nsvm_state: snapshot for live migration."""
        blob: dict = {
            "svme": state.svme,
            "gif": state.gif,
            "guest_mode": state.guest_mode,
            "vmcb12_pa": state.current_vmcb12_pa,
            "vgif_enabled": state.vgif_enabled,
        }
        vmcb12 = self.memory.get_vmcb(state.current_vmcb12_pa)
        if vmcb12 is not None:
            blob["vmcb12"] = vmcb12.serialize()
        return blob

    def nsvm_domctl_set_state(self, state: NsvmState, blob: dict) -> int:
        """XEN_DOMCTL_set_nsvm_state: restore after migration."""
        if blob.get("guest_mode") and not blob.get("svme"):
            return -22  # -EINVAL
        state.svme = bool(blob.get("svme"))
        state.gif = bool(blob.get("gif", True))
        state.vgif_enabled = bool(blob.get("vgif_enabled"))
        pa = blob.get("vmcb12_pa", 0)
        if blob.get("guest_mode"):
            if pa & 0xFFF or not self.memory.in_guest_ram(pa):
                return -22
            raw = blob.get("vmcb12")
            if raw is not None:
                self.memory.put_vmcb(pa, Vmcb.deserialize(raw))
            vmcb12 = self.memory.get_vmcb(pa)
            if vmcb12 is None or self.nsvm_vmcb_check(vmcb12):
                return -22
            state.current_vmcb12_pa = pa
            state.guest_mode = True
        return 0

    def nsvm_vcpu_initialise(self, state: NsvmState) -> int:
        """Per-vCPU nested-SVM setup at domain creation."""
        if state.guest_mode:
            return -16  # -EBUSY
        state.svme = False
        state.gif = True
        state.current_vmcb12_pa = 0
        state.prev_l2_long_mode = False
        state.vgif_enabled = self.vgif_supported
        return 0

    def nsvm_vcpu_destroy(self, state: NsvmState) -> None:
        """Per-vCPU teardown: drop the cached VMCB12 mapping."""
        if state.current_vmcb12_pa:
            self.memory.vmcb_pages.pop(state.current_vmcb12_pa & ~0xFFF, None)
        state.guest_mode = False
        state.svme = False

    def nsvm_hap_walk_l1_p2m(self, gpa: int) -> int | None:
        """Host-side nested p2m walk used by the toolstack's dirty-page
        tracking during live migration of a nested guest."""
        if not self.memory.in_guest_ram(gpa):
            return None
        # Identity mapping in our model: L1 gpa == host-visible frame.
        return gpa & ~0xFFF

    # ------------------------------------------------------------------
    # Exit reflection policy
    # ------------------------------------------------------------------

    def l1_wants_exit(self, vmcb12: Vmcb, code: int,
                      instr: GuestInstruction) -> bool:
        """nsvm_vmexit routing (abridged relative to KVM's)."""
        misc1 = vmcb12.read(SF.INTERCEPT_MISC1)
        misc2 = vmcb12.read(SF.INTERCEPT_MISC2)
        if SvmExitCode.EXCP_BASE <= code < SvmExitCode.INTR:
            vector = int(code) - int(SvmExitCode.EXCP_BASE)
            return bool(vmcb12.read(SF.INTERCEPT_EXCEPTIONS) & (1 << vector))
        simple = {
            SvmExitCode.INTR: Misc1Intercept.INTR,
            SvmExitCode.NMI: Misc1Intercept.NMI,
            SvmExitCode.SHUTDOWN: Misc1Intercept.SHUTDOWN,
            SvmExitCode.CPUID: Misc1Intercept.CPUID,
            SvmExitCode.HLT: Misc1Intercept.HLT,
            SvmExitCode.INVLPG: Misc1Intercept.INVLPG,
            SvmExitCode.INVLPGA: Misc1Intercept.INVLPGA,
            SvmExitCode.RDTSC: Misc1Intercept.RDTSC,
            SvmExitCode.RDPMC: Misc1Intercept.RDPMC,
            SvmExitCode.PAUSE: Misc1Intercept.PAUSE,
            SvmExitCode.INVD: Misc1Intercept.INVD,
            SvmExitCode.TASK_SWITCH: Misc1Intercept.TASK_SWITCH,
        }
        if code in simple:
            return bool(misc1 & simple[code])
        if code == SvmExitCode.IOIO:
            if misc1 & Misc1Intercept.IOIO_PROT:
                return bool(instr.op("port") & 1)
            return False
        if code == SvmExitCode.MSR:
            if misc1 & Misc1Intercept.MSR_PROT:
                return bool(instr.op("msr") & 1)
            return False
        vmx_map = {
            SvmExitCode.VMRUN: Misc2Intercept.VMRUN,
            SvmExitCode.VMMCALL: Misc2Intercept.VMMCALL,
            SvmExitCode.VMLOAD: Misc2Intercept.VMLOAD,
            SvmExitCode.VMSAVE: Misc2Intercept.VMSAVE,
            SvmExitCode.STGI: Misc2Intercept.STGI,
            SvmExitCode.CLGI: Misc2Intercept.CLGI,
            SvmExitCode.SKINIT: Misc2Intercept.SKINIT,
        }
        if code in vmx_map:
            return bool(misc2 & vmx_map[code])
        if code == SvmExitCode.NPF:
            return vmcb12.nested_paging
        return True
