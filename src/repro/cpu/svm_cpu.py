"""Simulated AMD-V processor: vmrun consistency checks and quirks.

AMD-V has no vmread/vmwrite indirection — ``vmrun`` takes the physical
address of a VMCB and performs the consistency checks of APM Vol. 2,
15.5.1 ("Canonicalization and Consistency Checks"). A failed check exits
immediately with ``VMEXIT_INVALID``.

The model includes the specification ambiguity behind Xen bugs #5/#6:
the APM *permits* a VMCB with ``EFER.LME=1, CR0.PG=0`` (legal during a
mode transition) without saying how vmrun should treat it; hardware
accepts it, and a nested hypervisor that "corrects" it corrupts state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.bits import is_aligned
from repro.arch.registers import Cr0, Cr4, Efer
from repro.svm import fields as SF
from repro.svm.exit_codes import SvmExitCode
from repro.svm.vmcb import Vmcb

PAGE_SIZE = 4096


@dataclass(frozen=True)
class SvmViolation:
    """One failed vmrun consistency check."""

    field: str
    reason: str

    def __str__(self) -> str:
        return f"{self.field}: {self.reason}"


@dataclass
class VmrunOutcome:
    """Result of a vmrun attempt."""

    entered: bool
    exit_code: SvmExitCode | None = None
    violations: list[SvmViolation] = field(default_factory=list)
    fixups: list[str] = field(default_factory=list)

    @property
    def invalid(self) -> bool:
        """True when vmrun failed with VMEXIT_INVALID."""
        return self.exit_code is SvmExitCode.INVALID


#: Bits outside these in np_control are reserved.
_NP_CONTROL_DEFINED = (SF.NpControl.NP_ENABLE | SF.NpControl.SEV_ENABLE
                       | SF.NpControl.SEV_ES_ENABLE)
#: cs_attrib bits 9 (L) and 10 (D/B).
_CS_L = 1 << 9
_CS_DB = 1 << 10

#: ``SvmExitCode.INVALID`` bound once: on Python 3.11 every
#: ``SvmExitCode.X`` lookup goes through ``EnumType.__getattr__``.
_INVALID = SvmExitCode.INVALID


def check_vmcb(vmcb: Vmcb) -> list[SvmViolation]:
    """APM 15.5.1 consistency checks, in hardware order.

    Reads the VMCB's value table directly rather than through
    ``Vmcb.read``, as the VM-entry check units read the VMCS's
    (repro.cpu.entry_checks); ``tests.reference.svm`` keeps the
    ``read``-based original this is pinned equal to.
    """
    v: list[SvmViolation] = []
    values = vmcb._values

    def bad(name: str, reason: str) -> None:
        v.append(SvmViolation(name, reason))

    efer = values[SF.EFER]
    cr0 = values[SF.CR0]
    cr4 = values[SF.CR4]

    if not efer & Efer.SVME:
        bad("efer", "EFER.SVME must be set")
    if efer & Efer.RESERVED:
        bad("efer", "reserved bits set")
    if cr0 & Cr0.CD == 0 and cr0 & Cr0.NW:
        bad("cr0", "CR0.CD=0 with CR0.NW=1")
    if cr0 >> 32:
        bad("cr0", "bits 63:32 must be zero")
    if cr4 & Cr4.RESERVED:
        bad("cr4", "reserved bits set")

    # Long-mode consistency. NOTE the deliberate asymmetry that mirrors
    # the APM: LME=1 with PG=0 is *permitted* (mode-transition state),
    # but entering long mode (LME & PG) requires PAE and a sane CS.
    if efer & Efer.LME and cr0 & Cr0.PG:
        if not cr4 & Cr4.PAE:
            bad("cr4", "long mode with paging requires CR4.PAE")
        if not cr0 & Cr0.PE:
            bad("cr0", "long mode requires protected mode")
        cs_attrib = values["cs_attrib"]
        if cs_attrib & _CS_L and cs_attrib & _CS_DB:
            bad("cs_attrib", "CS.L and CS.D may not both be set in long mode")

    if values[SF.DR7] >> 32:
        bad("dr7", "bits 63:32 must be zero")
    if values[SF.DR6] >> 32:
        bad("dr6", "bits 63:32 must be zero")

    if not values[SF.INTERCEPT_MISC2] & SF.Misc2Intercept.VMRUN:
        bad("intercept_misc2", "VMRUN intercept must be set")

    if values[SF.GUEST_ASID] == 0:
        bad("guest_asid", "ASID 0 is reserved for the host")

    np = values[SF.NP_CONTROL]
    if np & SF.NpControl.NP_ENABLE:
        ncr3 = values[SF.N_CR3]
        if ncr3 & 0xFFF or ncr3 >> 52:
            bad("n_cr3", f"invalid nested CR3 {ncr3:#x}")

    if np & ~_NP_CONTROL_DEFINED:
        bad("np_control", "reserved bits set")

    return v


def apply_vmrun_quirks(vmcb: Vmcb) -> list[str]:
    """Silent VMCB adjustments hardware applies at vmrun."""
    fixups: list[str] = []
    # EFER.LMA is computed, not stored: hardware sets it from
    # LME & PG and ignores the value software wrote.
    values = vmcb._values
    efer = values[SF.EFER]
    lma = bool(efer & Efer.LME) and bool(values[SF.CR0] & Cr0.PG)
    new_efer = efer | Efer.LMA if lma else efer & ~Efer.LMA
    if new_efer != efer:
        vmcb.write(SF.EFER, new_efer)
        fixups.append("efer.lma recomputed from LME & PG")
    # With VGIF enabled, vmrun sets the virtual GIF so the guest
    # starts with interrupts logically enabled.
    vintr = values[SF.VINTR_CONTROL]
    if vintr & SF.VintrControl.V_GIF_ENABLE and not vintr & SF.VintrControl.V_GIF:
        vmcb.write(SF.VINTR_CONTROL, vintr | SF.VintrControl.V_GIF)
        fixups.append("v_gif set at vmrun when VGIF enabled")
    return fixups


class SvmCpu:
    """One logical processor with AMD-V."""

    def __init__(self) -> None:
        self.efer_svme = False
        self.hsave_pa: int | None = None
        self.gif = True
        self.memory: dict[int, Vmcb] = {}
        self.in_guest = False

    def set_svme(self, enabled: bool) -> None:
        """Model a wrmsr to EFER.SVME."""
        self.efer_svme = enabled

    def set_hsave(self, pa: int) -> None:
        """Model a wrmsr to VM_HSAVE_PA."""
        if not is_aligned(pa, PAGE_SIZE):
            raise ValueError(f"VM_HSAVE_PA {pa:#x} must be page-aligned")
        self.hsave_pa = pa

    def install_vmcb(self, addr: int, vmcb: Vmcb) -> None:
        """Place a VMCB image at a physical address."""
        self.memory[addr] = vmcb

    def stgi(self) -> None:
        """Set the global interrupt flag."""
        self.gif = True

    def clgi(self) -> None:
        """Clear the global interrupt flag."""
        self.gif = False

    def vmrun(self, vmcb_pa: int) -> VmrunOutcome:
        """Attempt to run the guest described by the VMCB at *vmcb_pa*."""
        if not self.efer_svme:
            return VmrunOutcome(False, _INVALID,
                                [SvmViolation("efer", "host EFER.SVME clear")])
        if not is_aligned(vmcb_pa, PAGE_SIZE) or vmcb_pa == 0:
            return VmrunOutcome(False, _INVALID,
                                [SvmViolation("vmcb_pa", "misaligned VMCB")])
        vmcb = self.memory.get(vmcb_pa)
        if vmcb is None:
            return VmrunOutcome(False, _INVALID,
                                [SvmViolation("vmcb_pa", "no VMCB present")])
        violations = check_vmcb(vmcb)
        if violations:
            vmcb.write(SF.EXIT_CODE, int(_INVALID))
            return VmrunOutcome(False, _INVALID, violations)

        fixups = self._apply_quirks(vmcb)
        self.in_guest = True
        return VmrunOutcome(True, fixups=fixups)

    def _apply_quirks(self, vmcb: Vmcb) -> list[str]:
        """Silent VMCB adjustments hardware applies at vmrun."""
        return apply_vmrun_quirks(vmcb)

    def vm_exit(self, vmcb_pa: int, code: SvmExitCode, *,
                info1: int = 0, info2: int = 0) -> None:
        """Record a #VMEXIT into the VMCB (hardware write-back)."""
        vmcb = self.memory.get(vmcb_pa)
        if vmcb is None:
            raise RuntimeError("VM exit with no VMCB")
        vmcb.write(SF.EXIT_CODE, int(code))
        vmcb.write(SF.EXIT_INFO_1, info1)
        vmcb.write(SF.EXIT_INFO_2, info2)
        self.in_guest = False
