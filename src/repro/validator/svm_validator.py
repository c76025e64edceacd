"""VMCB validator/rounder for AMD-V.

AMD-V's consistency checks (APM 15.5.1) are far fewer than VT-x's, which
is why the paper's AMD coverage story leans more on the execution
harness than on the validator. The rounding below fixes exactly what
``vmrun`` would reject — and deliberately leaves alone the
states the APM *permits* but nested hypervisors mishandle, such as
``EFER.LME=1, CR0.PG=0`` (Xen bugs #5/#6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.arch.registers import Cr0, Cr4, Efer
from repro.cpu.svm_cpu import SvmCpu, check_vmcb
from repro.svm import fields as SF
from repro.svm.vmcb import Vmcb


@dataclass(frozen=True)
class VmcbCorrection:
    """One rounding step applied to a VMCB."""

    field: str
    before: int
    after: int
    rule: str

    def __str__(self) -> str:
        return f"{self.field}: {self.before:#x} -> {self.after:#x} ({self.rule})"


class VmcbValidator:
    """Round VMCBs toward vmrun-accepted states."""

    def round_to_valid(self, vmcb: Vmcb) -> list[VmcbCorrection]:
        """Mutate *vmcb* so that APM consistency checks pass.

        A handful of fields, rounded in place; a second pass over the
        result is a fixed point that writes nothing.
        """
        corrections: list[VmcbCorrection] = []

        def force(name: str, value: int, rule: str) -> None:
            before = vmcb.read(name)
            vmcb.write(name, value)
            after = vmcb.read(name)
            if before != after:
                corrections.append(VmcbCorrection(name, before, after, rule))

        efer = vmcb.read(SF.EFER) & ~Efer.RESERVED
        efer |= Efer.SVME
        force(SF.EFER, efer, "EFER.SVME set, reserved clear")

        cr0 = vmcb.read(SF.CR0) & 0xFFFFFFFF
        if not cr0 & Cr0.CD:
            cr0 &= ~Cr0.NW
        force(SF.CR0, cr0, "CR0 width and CD/NW rule")

        cr4 = vmcb.read(SF.CR4) & ~Cr4.RESERVED
        force(SF.CR4, cr4, "CR4 reserved bits clear")

        # Entering long mode (LME & PG) needs PAE/PE and a sane CS; the
        # transitional LME=1/PG=0 state is intentionally left untouched.
        efer = vmcb.read(SF.EFER)
        cr0 = vmcb.read(SF.CR0)
        if efer & Efer.LME and cr0 & Cr0.PG:
            force(SF.CR4, vmcb.read(SF.CR4) | Cr4.PAE,
                  "long mode with paging requires CR4.PAE")
            force(SF.CR0, cr0 | Cr0.PE, "long mode requires protected mode")
            cs_attrib = vmcb.read("cs_attrib")
            if cs_attrib & (1 << 9) and cs_attrib & (1 << 10):
                force("cs_attrib", cs_attrib & ~(1 << 10),
                      "CS.L and CS.D may not both be set")

        force(SF.DR6, vmcb.read(SF.DR6) & 0xFFFFFFFF, "DR6 bits 63:32 zero")
        force(SF.DR7, vmcb.read(SF.DR7) & 0xFFFFFFFF, "DR7 bits 63:32 zero")

        force(SF.INTERCEPT_MISC2,
              vmcb.read(SF.INTERCEPT_MISC2) | SF.Misc2Intercept.VMRUN,
              "VMRUN intercept must be set")

        if not vmcb.read(SF.GUEST_ASID):
            force(SF.GUEST_ASID, 1, "ASID 0 reserved for host")

        np = vmcb.read(SF.NP_CONTROL) & (SF.NpControl.NP_ENABLE
                                         | SF.NpControl.SEV_ENABLE
                                         | SF.NpControl.SEV_ES_ENABLE)
        # SEV needs platform setup our harness never performs; round away.
        np &= ~(SF.NpControl.SEV_ENABLE | SF.NpControl.SEV_ES_ENABLE)
        force(SF.NP_CONTROL, np, "NP control reserved/SEV bits clear")
        if np & SF.NpControl.NP_ENABLE:
            force(SF.N_CR3, vmcb.read(SF.N_CR3) & ((1 << 52) - 1) & ~0xFFF,
                  "nested CR3 aligned in range")

        return corrections

    def is_fixed_point(self, vmcb: Vmcb) -> bool:
        """True when another rounding pass would change nothing."""
        return not self.round_to_valid(vmcb.copy())

    def predicted_violations(self, vmcb: Vmcb):
        """The APM violations this VMCB would trigger (without mutating)."""
        return check_vmcb(vmcb)


class SvmHardwareOracle:
    """vmrun-based oracle for VMCB states (the AMD side of §3.4)."""

    VMCB_PA = 0x2000

    def __init__(self, max_attempts: int = 4) -> None:
        self.max_attempts = max_attempts
        self.rejections = 0
        self.entries = 0
        #: field -> (set_mask, clear_mask) from vmrun's silent fixups.
        self.fixup_masks: dict[str, tuple[int, int]] = {}

    def verify(self, vmcb: Vmcb) -> bool:
        """Run *vmcb* on a fresh SVM CPU; learn and fix on rejection."""
        with telemetry.span("oracle.verify"):
            entered = self._verify(vmcb)
        if entered:
            telemetry.counter("oracle.entries")
        else:
            telemetry.counter("oracle.failures")
        return entered

    def _verify(self, vmcb: Vmcb) -> bool:
        validator = VmcbValidator()
        for _ in range(self.max_attempts):
            telemetry.counter("oracle.attempts")
            cpu = SvmCpu()
            cpu.set_svme(True)
            cpu.set_hsave(0x3000)
            image = vmcb.copy()
            cpu.install_vmcb(self.VMCB_PA, image)
            outcome = cpu.vmrun(self.VMCB_PA)
            if outcome.entered:
                self.entries += 1
                self._learn_fixups(vmcb, image)
                return True
            self.rejections += 1
            validator.round_to_valid(vmcb)
        return False

    def _learn_fixups(self, original: Vmcb, post_entry: Vmcb) -> None:
        for spec, before, after in original.diff(post_entry):
            set_mask, clear_mask = self.fixup_masks.get(spec.name, (0, 0))
            set_mask |= after & ~before
            clear_mask |= before & ~after
            self.fixup_masks[spec.name] = (set_mask, clear_mask)
