"""The VM execution harness (paper §3.3/§4.2).

Initialization phase: interpret the hand-written init template, letting
fuzzing input mutate instruction ordering, argument values, and
repetition counts — "exploration of subtle control flow variations while
preserving structural correctness".

Runtime phase: a tight loop that (1) executes an exit-triggering
instruction in L2, (2) on an exit to L1, executes an instruction in the
L1 context, and (3) re-enters L2 with vmresume/vmrun.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.cpuid import Vendor
from repro.arch.msr import MsrEntry
from repro.core.templates import (
    BOUNDARY_VALUES,
    INTERESTING_MSRS,
    VMCB12_GPA,
    VMCB_STORE_TARGETS,
    init_sequence,
    runtime_templates,
)
from repro.coverage import kcov
from repro.fuzzer.input import FuzzInput, InputCursor
from repro.hypervisors.base import ExecResult, GuestInstruction, L0Hypervisor
from repro.vmx import fields as F

#: MSRs the MSR-area builder gravitates to — the canonical-address
#: family is where CVE-2024-21106 lives.
_MSR_AREA_CANDIDATES = INTERESTING_MSRS

#: The fields the Intel init phase's vmwrite storm programs, in write
#: order: every writable VMCS field, in layout order.
STORM_FIELDS = tuple(spec.encoding for spec in F.ALL_FIELDS
                     if spec.group is not F.FieldGroup.READ_ONLY)
#: The storm's writes after the first, which are replayed from it.
STORM_REST = STORM_FIELDS[1:]

#: How many instruction results :attr:`HarnessStats.results` keeps.
RESULTS_KEPT = 64

#: The vendors bound once: on Python 3.11 every ``Vendor.X`` lookup goes
#: through ``EnumType.__getattr__``, and hashing a member (a dict lookup
#: keyed by vendor) calls ``Enum.__hash__``, so per-instruction code
#: tests the vendor by identity.
_INTEL = Vendor.INTEL
_AMD = Vendor.AMD

#: Step 3's re-entry instructions, shared by every case (no handler
#: writes to an instruction's operands).
_VMRESUME = GuestInstruction("vmresume", {})
_VMRUN = GuestInstruction("vmrun", {"addr": VMCB12_GPA})

#: Each vendor's runtime library split into its (L2, L1) templates, in
#: library order, computed once (looked up once per case).
_TEMPLATES_BY_LEVEL = {
    vendor: ([t for t in runtime_templates(vendor) if 2 in t.levels],
             [t for t in runtime_templates(vendor) if 1 in t.levels])
    for vendor in (_INTEL, _AMD)}


@dataclass
class HarnessStats:
    """What one harness run did."""

    instructions: int = 0
    vm_entries: int = 0
    entered_l2: bool = False
    l2_exits_to_l1: int = 0
    l0_handled_exits: int = 0
    faults: int = 0
    results: list[ExecResult] = field(default_factory=list)


@dataclass
class VmExecutionHarness:
    """Runs the fuzz-harness VM's two phases against an L0 hypervisor."""

    vendor: Vendor
    #: Ablation switch: disabled -> fixed template, fixed arguments,
    #: fixed runtime instruction set ("w/o VM execution harness").
    mutate: bool = True
    runtime_iterations: int = 24
    #: §6.3 extension: inject scheduled asynchronous events (interrupts,
    #: NMIs, timer exits) into the runtime loop. Off by default — the
    #: paper's configuration does not model them.
    async_events: bool = False

    # ------------------------------------------------------------------
    # Initialization phase
    # ------------------------------------------------------------------

    def run_init_phase(self, hv: L0Hypervisor, vcpu, fuzz_input: FuzzInput,
                       vm_state, stats: HarnessStats) -> None:
        """Drive the initialization sequence, mutated by fuzzing input."""
        cursor = fuzz_input.harness_cursor()
        steps = init_sequence(self.vendor)
        if self.mutate:
            steps = self._mutate_sequence(steps, cursor)

        self._install_vm_state(hv, vcpu, vm_state, cursor, stats)

        for step in steps:
            operands = dict(step.operands)
            if self.mutate and step.mutable_args and cursor.chance(1, 32):
                # Argument perturbation: nearby aligned and raw values.
                for key in operands:
                    if cursor.chance(1, 2):
                        operands[key] = self._perturb(operands[key], cursor)
            if step.mnemonic in ("vmlaunch", "vmrun"):
                # VM-state installation must precede the entry even when
                # mutation reordered everything else.
                if self.vendor is _INTEL:
                    self._write_vmcs_fields(hv, vcpu, vm_state, stats)
            result = self._exec(hv, vcpu,
                                GuestInstruction(step.mnemonic, operands),
                                stats)
            if step.mnemonic in ("vmlaunch", "vmrun"):
                stats.vm_entries += 1
                if result.ok and result.level == 2:
                    stats.entered_l2 = True
                    return

    def _mutate_sequence(self, steps, cursor: InputCursor):
        """Order/repetition mutation that keeps the skeleton plausible.

        Rates are deliberately low: "any significant deviation is
        promptly rejected by the L0 hypervisor's error-checking logic"
        (§3.3), so most iterations must still boot while a steady
        minority probes the initialization emulation's error paths.
        """
        steps = list(steps)
        # Repetition: duplicate one mutable step.
        if cursor.chance(1, 8) and len(steps) > 1:
            idx = cursor.below(len(steps) - 1)
            steps.insert(idx, steps[idx])
        # Ordering: swap two adjacent non-final steps.
        if cursor.chance(1, 8) and len(steps) > 2:
            idx = cursor.below(len(steps) - 2)
            steps[idx], steps[idx + 1] = steps[idx + 1], steps[idx]
        # Omission: drop one early step occasionally.
        if cursor.chance(1, 32) and len(steps) > 2:
            del steps[cursor.below(len(steps) - 1)]
        return steps

    @staticmethod
    def _perturb(value: int, cursor: InputCursor) -> int:
        """Argument mutation: nearby page, unaligned, or boundary value."""
        kind = cursor.below(4)
        if kind == 0:
            return value + 0x1000 * (cursor.below(8) - 4)
        if kind == 1:
            return value | cursor.below(0xFFF)
        if kind == 2:
            return BOUNDARY_VALUES[cursor.below(len(BOUNDARY_VALUES))]
        return cursor.u32()

    def _install_vm_state(self, hv: L0Hypervisor, vcpu, vm_state,
                          cursor: InputCursor, stats: HarnessStats) -> None:
        """Place the generated VM state where the init sequence expects it."""
        if self.vendor is _AMD:
            hv.memory.put_vmcb(VMCB12_GPA, vm_state)
            return
        # Intel: the VMCS content flows through vmwrite (see
        # _write_vmcs_fields); here we only stage the MSR-load area the
        # VMCS points to.
        count = vm_state.read(F.VM_ENTRY_MSR_LOAD_COUNT)
        addr = vm_state.read(F.VM_ENTRY_MSR_LOAD_ADDR)
        if count and hv.memory.in_guest_ram(addr):
            entries = []
            for _ in range(min(count, 16)):
                index = _MSR_AREA_CANDIDATES[cursor.below(len(_MSR_AREA_CANDIDATES))]
                value = (BOUNDARY_VALUES[cursor.below(len(BOUNDARY_VALUES))]
                         if cursor.chance(1, 2) else cursor.u64())
                entries.append(MsrEntry(index, value))
            hv.memory.put_msr_area(addr, entries)

    def _write_vmcs_fields(self, hv: L0Hypervisor, vcpu, vm_state,
                           stats: HarnessStats) -> None:
        """Emit the vmwrite storm that programs VMCS12.

        One vmwrite per :data:`STORM_FIELDS` entry, but only the first
        runs through the L0 model. The vmwrite handlers of all three
        Intel models branch on nested state and on the field spec, never
        on the value, and a vmwrite changes no nested state, so every
        write of the storm takes the same path, emits the same kcov slice
        and returns an equal result. The rest are replayed from the
        first: on success they are copied straight into the current
        VMCS12 (the handler's only side effect); on failure (VMfail,
        #UD, host down) nothing is written and they are only counted:
        as instructions, and as faults and bounded ``results`` entries
        if the first one faulted. Either way the recorded
        slice is appended once more: the repeat reproduces the
        last-to-first loop-back edge, leaving the drained line and edge
        sets unchanged.
        """
        first, rest = STORM_FIELDS[0], STORM_REST
        sink = kcov.event_sink()
        mark = len(sink) if sink is not None else 0
        result = self._exec(hv, vcpu, GuestInstruction(
            "vmwrite", {"field": first, "value": vm_state.read(first)}),
            stats)
        if not rest:
            return
        if result.ok and result.value is None:
            vmcs12 = hv.current_vmcs12(vcpu)
            if vmcs12 is None:
                raise RuntimeError(
                    f"{hv.name}: vmwrite succeeded with no current VMCS12")
            vmcs12.copy_fields(vm_state, rest)
        elif not result.ok:
            stats.faults += len(rest)
            results = stats.results
            results += [result] * min(len(rest), RESULTS_KEPT - len(results))
        stats.instructions += len(rest)
        if sink is not None:
            sink.extend(sink[mark:])

    # ------------------------------------------------------------------
    # Runtime phase
    # ------------------------------------------------------------------

    def run_runtime_phase(self, hv: L0Hypervisor, vcpu,
                          fuzz_input: FuzzInput, stats: HarnessStats) -> None:
        """The L2 -> exit -> L1 -> re-enter loop (§4.2)."""
        cursor = fuzz_input.harness_cursor()
        cursor.offset += 128  # past the bytes the init phase consumed
        l2_templates, l1_templates = _TEMPLATES_BY_LEVEL[self.vendor]
        # Ablation ("w/o VM execution harness"): the predefined template
        # library still runs, but deterministically — fixed cycling
        # order and fixed operands (a zero cursor) instead of
        # input-driven selection and arguments.
        fixed_cursor = InputCursor(b"\x00") if not self.mutate else None

        schedule = None
        if self.async_events:
            from repro.core.async_events import AsyncEventSchedule

            schedule = AsyncEventSchedule(self.vendor, fuzz_input,
                                          horizon=self.runtime_iterations)

        for iteration in range(self.runtime_iterations):
            if hv.crashed:
                return
            if vcpu.level != 2:
                if not self._reenter(hv, vcpu, stats):
                    return
                if vcpu.level != 2:
                    return  # re-entry keeps failing; give up this case
            if schedule is not None:
                for event in schedule.due(iteration):
                    if vcpu.level != 2:
                        break
                    result = self._exec(hv, vcpu, event.instruction(), stats)
                    if result.exit_reason is not None and result.level == 1:
                        stats.l2_exits_to_l1 += 1
                        self._reenter(hv, vcpu, stats)
                if vcpu.level != 2:
                    continue
            if self.mutate:
                template = l2_templates[cursor.below(len(l2_templates))]
                instr = template.instantiate(cursor, 2)
            else:
                template = l2_templates[iteration % len(l2_templates)]
                instr = template.instantiate(fixed_cursor, 2)
            result = self._exec(hv, vcpu, instr, stats)
            if result.exit_reason is not None and result.level == 1:
                stats.l2_exits_to_l1 += 1
                # Step 2: an instruction in the L1 context, emulated by L0.
                if self.mutate:
                    l1_template = l1_templates[cursor.below(len(l1_templates))]
                    l1_instr = l1_template.instantiate(cursor, 1)
                else:
                    l1_template = l1_templates[iteration % len(l1_templates)]
                    l1_instr = l1_template.instantiate(fixed_cursor, 1)
                self._exec(hv, vcpu, l1_instr, stats)
            elif result.exit_reason is not None:
                stats.l0_handled_exits += 1

    @staticmethod
    def _vmcb_store(hv: L0Hypervisor, instr: GuestInstruction) -> ExecResult:
        """An L1 memory store into its own VMCB12 — no trap, no L0.

        This is how real L1 hypervisors reprogram the nested guest
        between vmruns, and it is the only way to reach merge-path bugs
        that depend on VMCB history (e.g. Xen's LME/!PG corruption).
        """
        vmcb12 = hv.memory.get_vmcb(VMCB12_GPA)
        if vmcb12 is None:
            return ExecResult.success("vmcb store: no VMCB mapped")
        name, _ = VMCB_STORE_TARGETS[instr.op("target")
                                     % len(VMCB_STORE_TARGETS)]
        vmcb12.write(name, instr.op("value"))
        return ExecResult.success(f"vmcb store {name}")

    def _reenter(self, hv: L0Hypervisor, vcpu, stats: HarnessStats) -> bool:
        """Step 3: resume the L2 guest (vmresume / vmrun)."""
        instr = _VMRESUME if self.vendor is _INTEL else _VMRUN
        result = self._exec(hv, vcpu, instr, stats)
        stats.vm_entries += 1
        return result.ok

    # ------------------------------------------------------------------

    def _exec(self, hv: L0Hypervisor, vcpu, instr: GuestInstruction,
              stats: HarnessStats) -> ExecResult:
        stats.instructions += 1
        if instr.mnemonic == "vmcb_store":
            result = self._vmcb_store(hv, instr)
        else:
            result = hv.execute(vcpu, instr)
        if not result.ok:
            stats.faults += 1
        # Keep a bounded trace for diagnosis; the vmwrite storm would
        # flood it, so routine successful vmwrites are not recorded.
        if instr.mnemonic != "vmwrite" or not result.ok:
            if len(stats.results) < RESULTS_KEPT:
                stats.results.append(result)
        return result
