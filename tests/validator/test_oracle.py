"""Tests for the physical-CPU-as-oracle correction loop (paper §3.4)."""

from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.registers import Efer
from repro.cpu.quirks import apply_entry_fixups
from repro.validator.golden import golden_vmcs
from repro.validator.oracle import CANDIDATE_RULES, HardwareOracle, OracleReport
from repro.validator.rounding import VmStateValidator
from repro.vmx import fields as F
from repro.vmx.controls import EntryControls, PinBased, ProcBased, Secondary
from repro.vmx.vmcs import _LOG_MAX, Vmcs

raw_vmcs = st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES)


@pytest.fixture
def oracle():
    return HardwareOracle()


class TestGoldenVerification:
    def test_golden_enters_first_try(self, oracle):
        report = oracle.verify(golden_vmcs())
        assert report.entered
        assert report.attempts == 1
        assert report.activated_rules == []
        assert report.golden_fallbacks == []


class TestRuleActivation:
    def test_ack_on_exit_gap_learned(self, oracle):
        """The deliberate posted-interrupts gap activates its rule."""
        vmcs = golden_vmcs()
        proc = vmcs.read(F.CPU_BASED_VM_EXEC_CONTROL)
        vmcs.write(F.CPU_BASED_VM_EXEC_CONTROL,
                   proc | ProcBased.USE_TPR_SHADOW
                   | ProcBased.ACTIVATE_SECONDARY_CONTROLS)
        vmcs.write(F.SECONDARY_VM_EXEC_CONTROL,
                   vmcs.read(F.SECONDARY_VM_EXEC_CONTROL)
                   | Secondary.VIRTUAL_INTR_DELIVERY)
        vmcs.write(F.VIRTUAL_APIC_PAGE_ADDR, 0x13000)
        vmcs.write(F.PIN_BASED_VM_EXEC_CONTROL,
                   vmcs.read(F.PIN_BASED_VM_EXEC_CONTROL)
                   | PinBased.POSTED_INTERRUPTS)
        report = oracle.verify(vmcs)
        assert report.entered
        assert "posted-interrupts-require-ack-on-exit" in report.activated_rules
        # The state was corrected in place.
        from repro.vmx.controls import ExitControls
        assert vmcs.read(F.VM_EXIT_CONTROLS) & ExitControls.ACK_INTR_ON_EXIT

    def test_learned_rule_applied_proactively(self, oracle):
        """After activation, future states are fixed *before* hardware."""
        self.test_ack_on_exit_gap_learned(oracle)
        vmcs = golden_vmcs()
        proc = vmcs.read(F.CPU_BASED_VM_EXEC_CONTROL)
        vmcs.write(F.CPU_BASED_VM_EXEC_CONTROL,
                   proc | ProcBased.USE_TPR_SHADOW
                   | ProcBased.ACTIVATE_SECONDARY_CONTROLS)
        vmcs.write(F.SECONDARY_VM_EXEC_CONTROL,
                   vmcs.read(F.SECONDARY_VM_EXEC_CONTROL)
                   | Secondary.VIRTUAL_INTR_DELIVERY)
        vmcs.write(F.VIRTUAL_APIC_PAGE_ADDR, 0x13000)
        vmcs.write(F.PIN_BASED_VM_EXEC_CONTROL,
                   vmcs.read(F.PIN_BASED_VM_EXEC_CONTROL)
                   | PinBased.POSTED_INTERRUPTS)
        report = oracle.verify(vmcs)
        assert report.entered
        assert report.attempts == 1  # no hardware rejection this time

    def test_host_tr_gap_learned(self, oracle):
        vmcs = golden_vmcs()
        vmcs.write(F.HOST_TR_SELECTOR, 0)
        report = oracle.verify(vmcs)
        assert report.entered
        assert "host-tr-selector-not-null" in report.activated_rules
        assert vmcs.read(F.HOST_TR_SELECTOR) != 0

    def test_candidate_rules_cover_documented_gaps(self):
        names = {rule.name for rule in CANDIDATE_RULES}
        assert "posted-interrupts-require-ack-on-exit" in names
        assert "host-tr-selector-not-null" in names


class TestGoldenFallback:
    def test_unmatched_violation_falls_back(self, oracle):
        vmcs = golden_vmcs()
        vmcs.write(F.GUEST_TR_AR_BYTES, 1 << 16)  # TR unusable
        report = oracle.verify(vmcs)
        assert report.entered
        assert report.golden_fallbacks

    def test_silent_fixups_learned_on_entry(self, oracle):
        vmcs = golden_vmcs()
        # Clear the CS accessed bit: hardware silently sets it on entry.
        vmcs.write(F.GUEST_CS_AR_BYTES, vmcs.read(F.GUEST_CS_AR_BYTES) & ~1)
        report = oracle.verify(vmcs)
        assert report.entered
        assert "guest_cs_ar_bytes" in oracle.fixup_masks
        set_mask, _ = oracle.fixup_masks["guest_cs_ar_bytes"]
        assert set_mask & 1

    def test_predict_post_entry_uses_learned_masks(self, oracle):
        self.test_silent_fixups_learned_on_entry(oracle)
        vmcs = golden_vmcs()
        vmcs.write(F.GUEST_CS_AR_BYTES, vmcs.read(F.GUEST_CS_AR_BYTES) & ~1)
        predicted = oracle.predict_post_entry(vmcs)
        assert predicted.read(F.GUEST_CS_AR_BYTES) & 1


class TestConvergence:
    @given(raw_vmcs)
    @settings(max_examples=30, deadline=None)
    def test_every_rounded_state_eventually_enters(self, raw):
        """The paper's key loop property: validator + oracle always
        converge to an enterable state."""
        oracle = HardwareOracle()
        validator = VmStateValidator()
        vmcs = Vmcs.deserialize(raw)
        validator.round_to_valid(vmcs)
        assert oracle.verify(vmcs).entered

    def test_counters_track_outcomes(self, oracle):
        oracle.verify(golden_vmcs())
        assert oracle.entries >= 1
        vmcs = golden_vmcs()
        vmcs.write(F.HOST_TR_SELECTOR, 0)
        oracle.verify(vmcs)
        assert oracle.rejections >= 1


def _diff_path():
    """Every journal reads as truncated, so the oracle falls back to
    ``Vmcs.diff`` (and the entry checks recompute in full)."""
    return mock.patch.object(Vmcs, "changes_since", lambda self, gen: None)


def _learned(original: Vmcs, post_entry: Vmcs, journal: bool):
    oracle = HardwareOracle()
    report = OracleReport(entered=True, attempts=1)
    with nullcontext() if journal else _diff_path():
        oracle._learn_fixups(original, post_entry, report)
    return oracle.fixup_masks, report.silent_fixup_fields


def _no_ia32e(vmcs):
    vmcs.write(F.VM_ENTRY_CONTROLS,
               vmcs.read(F.VM_ENTRY_CONTROLS) & ~EntryControls.IA32E_MODE_GUEST)
    vmcs.write(F.GUEST_IA32_EFER, vmcs.read(F.GUEST_IA32_EFER) | Efer.LMA)


#: One state per ``apply_entry_fixups`` quirk, and all of them at once.
QUIRKS = {
    "rflags": lambda v: v.write(F.GUEST_RFLAGS, (1 << 3) | (1 << 9)),
    "efer-lma-set": lambda v: v.write(
        F.GUEST_IA32_EFER, v.read(F.GUEST_IA32_EFER) & ~Efer.LMA),
    "efer-lma-clear": _no_ia32e,
    "cs-accessed": lambda v: v.write(
        F.GUEST_CS_AR_BYTES, v.read(F.GUEST_CS_AR_BYTES) & ~1),
    "activity": lambda v: v.write(F.GUEST_ACTIVITY_STATE, 6),
    "none": lambda v: None,
}
_SINGLE = tuple(fn for name, fn in QUIRKS.items() if name != "efer-lma-clear")
QUIRKS["all"] = lambda v: [fn(v) for fn in _SINGLE]


class TestJournalFixupLearning:
    """``_learn_fixups`` reads the post-entry image's journal; it must
    learn exactly what the full ``Vmcs.diff`` comparison learns."""

    @pytest.mark.parametrize("quirk", sorted(QUIRKS))
    @pytest.mark.parametrize("churn", ["none", "reverted", "exit-reason",
                                       "truncated"])
    def test_journal_matches_diff(self, quirk, churn):
        original = golden_vmcs()
        QUIRKS[quirk](original)
        post_entry = original.copy()
        apply_entry_fixups(post_entry)
        rsp = post_entry.read(F.GUEST_RSP)
        if churn == "exit-reason":
            post_entry.write(F.VM_EXIT_REASON, 33)
        # Writes that end where they began: listed in the journal but
        # not a difference.
        for _ in range({"reverted": 1, "truncated": _LOG_MAX}.get(churn, 0)):
            post_entry.write(F.GUEST_RSP, rsp ^ 0x10)
            post_entry.write(F.GUEST_RSP, rsp)
        truncated = post_entry.changes_since(original.generation) is None
        assert truncated == (churn == "truncated")
        learned = _learned(original, post_entry, journal=True)
        assert learned == _learned(original, post_entry, journal=False)
        assert bool(learned[1]) == (quirk != "none")
        assert learned[1] == [spec.name for spec, _, _
                              in original.diff(post_entry)
                              if spec.name != "vm_exit_reason"]

    @given(raw_vmcs)
    @settings(max_examples=30, deadline=None)
    def test_verify_matches_diff_path(self, raw):
        outcomes = []
        for journal in (True, False):
            oracle = HardwareOracle()
            vmcs = Vmcs.deserialize(raw)
            VmStateValidator().round_to_valid(vmcs)
            with nullcontext() if journal else _diff_path():
                report = oracle.verify(vmcs)
                again = oracle.verify(golden_vmcs())
            outcomes.append((report, again, oracle.fixup_masks,
                             vmcs.serialize()))
        assert outcomes[0] == outcomes[1]

    def test_attempts_reuse_one_cpu(self, oracle):
        cpu = oracle._cpu
        vmcs = golden_vmcs()
        vmcs.write(F.HOST_TR_SELECTOR, 0)
        assert oracle.verify(vmcs).attempts == 2
        assert oracle._cpu is cpu
        assert cpu.memory == {} and cpu.vmx_on
