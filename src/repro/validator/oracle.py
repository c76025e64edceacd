"""Physical-CPU-as-oracle verification of the validator (paper §3.4).

"The validator sets the generated VMCS on the actual CPU, attempts a VM
entry, and compares the resulting VMCS state with the expected one. By
using the physical CPU as an oracle, this approach not only checks the
correctness of the VMCS but also validates the implementation of the VM
state validator itself."

Two learning channels are modelled:

* **Rejection signatures.** When hardware rejects a validator-approved
  state, the oracle matches the violation against a library of candidate
  correction rules (the things a developer would patch into the
  validator); a matching rule is *activated* and applied to every future
  state. Unmatched rejections fall back to copying the offending field —
  then its whole group — from the golden template, which converges
  because the full golden state always enters.

* **Silent roundings.** When hardware *accepts* a state but rewrites
  fields during entry (see :mod:`repro.cpu.quirks`), the oracle records
  per-field set/clear masks so it can predict post-entry state, closing
  the "internal emulation state must remain consistent with the actual
  hardware VMCS state" gap of §2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import faults, telemetry
from repro.cpu.entry_checks import CheckStage, IncrementalChecker, Violation
from repro.cpu.physical_cpu import VmxCpu
from repro.validator.golden import golden_vmcs
from repro.vmx import fields as F
from repro.vmx.controls import ExitControls, PinBased
from repro.vmx.msr_caps import VmxCapabilities, default_capabilities
from repro.vmx.vmcs import Vmcs

VMXON_PA = 0x1000
VMCS_PA = 0x2000


@dataclass(frozen=True)
class CorrectionRule:
    """A candidate validator patch, activated by a hardware rejection."""

    name: str
    matches: Callable[[Violation], bool]
    apply: Callable[[Vmcs, VmxCapabilities], None]

    def __reduce__(self):
        # The matcher/applier are closures, which pickle refuses; every
        # rule lives in the fixed CANDIDATE_RULES library, so a rule
        # pickles as its name and unpickles by lookup (worker
        # checkpoints carry oracles with activated rules).
        return (_rule_by_name, (self.name,))


def _rule_by_name(name: str) -> CorrectionRule:
    for rule in CANDIDATE_RULES:
        if rule.name == name:
            return rule
    raise LookupError(f"unknown correction rule {name!r}")


def _ack_on_exit_rule() -> CorrectionRule:
    """Posted interrupts require the ack-interrupt-on-exit VM-exit control.

    This is the deliberate modelling gap in
    :mod:`repro.validator.vm_controls`; hardware flags it against the
    exit-controls field with an "acknowledge" reason.
    """

    def matches(v: Violation) -> bool:
        return "acknowledge" in v.reason

    def apply(vmcs: Vmcs, caps: VmxCapabilities) -> None:
        if vmcs.read(F.PIN_BASED_VM_EXEC_CONTROL) & PinBased.POSTED_INTERRUPTS:
            vmcs.write(F.VM_EXIT_CONTROLS,
                       vmcs.read(F.VM_EXIT_CONTROLS) | ExitControls.ACK_INTR_ON_EXIT)

    return CorrectionRule("posted-interrupts-require-ack-on-exit", matches, apply)


def _host_tr_rule() -> CorrectionRule:
    """The host TR selector must not be null (missed by the extraction)."""

    def matches(v: Violation) -> bool:
        return v.field == "host_tr_selector"

    def apply(vmcs: Vmcs, caps: VmxCapabilities) -> None:
        if not vmcs.read(F.HOST_TR_SELECTOR):
            vmcs.write(F.HOST_TR_SELECTOR, 0x40)

    return CorrectionRule("host-tr-selector-not-null", matches, apply)


def _efer_lma_rule() -> CorrectionRule:
    """Guest EFER.LMA/LME must track the IA-32e-mode-guest entry control.

    The rounding pass handles this for in-place states, but a golden
    guest-field fallback can reintroduce the mismatch when the fuzzed
    entry controls disagree with the golden (64-bit) guest image.
    """

    def matches(v: Violation) -> bool:
        return v.field == "guest_ia32_efer" and "LMA" in v.reason

    def apply(vmcs: Vmcs, caps: VmxCapabilities) -> None:
        from repro.arch.registers import Efer
        from repro.vmx.controls import EntryControls

        efer = vmcs.read(F.GUEST_IA32_EFER)
        if vmcs.read(F.VM_ENTRY_CONTROLS) & EntryControls.IA32E_MODE_GUEST:
            efer |= Efer.LMA | Efer.LME
        else:
            efer &= ~(Efer.LMA | Efer.LME)
        vmcs.write(F.GUEST_IA32_EFER, efer)

    return CorrectionRule("guest-efer-lma-tracks-ia32e-control", matches, apply)


#: The library of candidate corrections the oracle can activate.
CANDIDATE_RULES: tuple[CorrectionRule, ...] = (
    _ack_on_exit_rule(),
    _host_tr_rule(),
    _efer_lma_rule(),
)


@dataclass
class OracleReport:
    """Result of one oracle verification."""

    entered: bool
    attempts: int
    activated_rules: list[str] = field(default_factory=list)
    golden_fallbacks: list[str] = field(default_factory=list)
    silent_fixup_fields: list[str] = field(default_factory=list)
    final_violations: list[Violation] = field(default_factory=list)


class HardwareOracle:
    """Runs validated states on the simulated physical CPU and learns."""

    def __init__(self, caps: VmxCapabilities | None = None,
                 max_attempts: int = 8) -> None:
        self.caps = caps or default_capabilities()
        self.max_attempts = max_attempts
        self.active_rules: list[CorrectionRule] = []
        #: field name -> (set_mask, clear_mask) learned from silent fixups.
        self.fixup_masks: dict[str, tuple[int, int]] = {}
        self.rejections = 0
        self.entries = 0
        self._golden = golden_vmcs(self.caps)
        # One incremental checker for every hardware trial: per-unit
        # check results are memoized on the VMCS objects themselves, so
        # the per-attempt image copies inherit a warm cache and only the
        # units reading corrected fields re-run between attempts.
        self._checker = IncrementalChecker(self.caps)

    # --- learning application ------------------------------------------------

    def apply_learned(self, vmcs: Vmcs) -> list[str]:
        """Apply every activated correction rule to *vmcs*."""
        applied = []
        for rule in self.active_rules:
            rule.apply(vmcs, self.caps)
            applied.append(rule.name)
        return applied

    def predict_post_entry(self, vmcs: Vmcs) -> Vmcs:
        """Predict the post-entry state using learned silent-fixup masks."""
        predicted = vmcs.copy()
        for name, (set_mask, clear_mask) in self.fixup_masks.items():
            encoding = F.SPEC_BY_NAME[name].encoding
            predicted.write(encoding, (predicted.read(encoding) | set_mask)
                            & ~clear_mask)
        return predicted

    # --- verification loop ----------------------------------------------------

    def _attempt_entry(self, state: Vmcs):
        """One hardware trial: fresh CPU, standard launch sequence."""
        cpu = VmxCpu(self.caps, checker=self._checker)
        cpu.vmxon(VMXON_PA)
        cpu.vmclear(VMCS_PA)
        # Pre-warm the persistent state so the image copy below
        # carries a fully validated memo into vmlaunch.
        self._checker.check_all(state)
        image = state.copy()
        image.clear()
        cpu.install_vmcs(VMCS_PA, image)
        cpu.vmptrld(VMCS_PA)
        outcome = cpu.vmlaunch()
        return outcome, image

    def verify(self, vmcs: Vmcs) -> OracleReport:
        """Verify *vmcs* against hardware, learning from the outcome.

        Mutates *vmcs* with any corrections needed to make it enter, so
        the caller ends up holding a hardware-approved state.
        """
        faults.hook("oracle.verify")
        with telemetry.span("oracle.verify"):
            report = self._verify(vmcs)
        telemetry.counter("oracle.attempts", report.attempts)
        if report.entered:
            telemetry.counter("oracle.entries")
        else:
            telemetry.counter("oracle.failures")
        if report.activated_rules:
            telemetry.counter("oracle.rule_activations",
                              len(report.activated_rules))
        if report.golden_fallbacks:
            telemetry.counter("oracle.golden_fallbacks",
                              len(report.golden_fallbacks))
        return report

    def _verify(self, vmcs: Vmcs) -> OracleReport:
        """The correction loop proper (§3.4), telemetry-free."""
        report = OracleReport(entered=False, attempts=0)
        self.apply_learned(vmcs)
        seen: set[tuple[str, str]] = set()

        while report.attempts < self.max_attempts:
            report.attempts += 1
            outcome, image = self._attempt_entry(vmcs)
            if outcome.entered:
                self.entries += 1
                self._learn_fixups(vmcs, image, report)
                report.entered = True
                return report

            self.rejections += 1
            violations = outcome.violations
            violation = violations[0] if violations else None
            if violation is None:
                report.final_violations = violations
                return report
            report.final_violations = violations

            rule = self._match_candidate(violation)
            if rule is not None:
                report.activated_rules.append(rule.name)
                rule.apply(vmcs, self.caps)
                continue

            key = (violation.field, violation.stage.value)
            if key not in seen:
                seen.add(key)
                self._copy_golden_field(vmcs, violation.field)
                report.golden_fallbacks.append(violation.field)
            else:
                # Same field failed twice: fall back to the whole group.
                self._copy_golden_group(vmcs, violation.stage)
                report.golden_fallbacks.append(f"group:{violation.stage.value}")
        return report

    # --- internals -------------------------------------------------------------

    def _match_candidate(self, violation: Violation) -> CorrectionRule | None:
        active_names = {r.name for r in self.active_rules}
        for rule in CANDIDATE_RULES:
            if rule.matches(violation):
                if rule.name not in active_names:
                    self.active_rules.append(rule)
                return rule
        return None

    def _copy_golden_field(self, vmcs: Vmcs, field_name: str) -> None:
        spec = F.SPEC_BY_NAME.get(field_name)
        if spec is None:  # e.g. msr_load[3] — nothing to copy
            return
        vmcs.write(spec.encoding, self._golden.read(spec.encoding))

    def _copy_golden_group(self, vmcs: Vmcs, stage: CheckStage) -> None:
        group = {
            CheckStage.CONTROLS: F.FieldGroup.CONTROL,
            CheckStage.HOST_STATE: F.FieldGroup.HOST,
            CheckStage.GUEST_STATE: F.FieldGroup.GUEST,
            CheckStage.MSR_LOAD: F.FieldGroup.CONTROL,
        }[stage]
        for spec in F.ALL_FIELDS:
            if spec.group is group:
                vmcs.write(spec.encoding, self._golden.read(spec.encoding))

    def _learn_fixups(self, original: Vmcs, post_entry: Vmcs,
                      report: OracleReport) -> None:
        """Record which bits hardware silently set/cleared during entry."""
        for spec, before, after in original.diff(post_entry):
            if spec.name == "vm_exit_reason":
                continue
            set_mask, clear_mask = self.fixup_masks.get(spec.name, (0, 0))
            set_mask |= after & ~before
            clear_mask |= before & ~after
            self.fixup_masks[spec.name] = (set_mask, clear_mask)
            report.silent_fixup_fields.append(spec.name)
