"""Simulated physical CPU: VMX operation state machine and instruction set.

This model plays the role the bare-metal processor plays in the paper:

* it is the substrate the L0 hypervisor runs on (VMCS01/VMCS02 entries go
  through the same checks an i9-12900K would apply), and
* it is the *oracle* the VM state validator consults — "the validator
  sets the generated VMCS on the actual CPU, attempts a VM entry, and
  compares the resulting VMCS state with the expected one" (§3.4).

The instruction semantics follow SDM Chapter 30 (vmxon/vmclear/vmptrld/
vmread/vmwrite/vmlaunch/vmresume/vmxoff), including the three-way result
convention: VMsucceed, VMfailInvalid, and VMfailValid(error-number).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.arch.bits import is_aligned
from repro.arch.msr import MsrEntry
from repro.cpu.entry_checks import (
    CheckStage,
    IncrementalChecker,
    Violation,
)
from repro.cpu.quirks import SilentFixup, apply_entry_fixups
from repro.vmx import fields as F
from repro.vmx.exit_reasons import ENTRY_FAILURE_BIT, ExitReason, VmInstructionError
from repro.vmx.msr_caps import VmxCapabilities, default_capabilities
from repro.vmx.vmcs import Vmcs

PAGE_SIZE = 4096


class VmxResultKind(Enum):
    """Outcome classes of a VMX instruction (SDM 30.2)."""

    SUCCEED = "VMsucceed"
    FAIL_INVALID = "VMfailInvalid"
    FAIL_VALID = "VMfailValid"


@dataclass(frozen=True)
class VmxResult:
    """Result of one VMX instruction."""

    kind: VmxResultKind
    error: VmInstructionError | None = None
    value: int | None = None  # vmread data

    @property
    def ok(self) -> bool:
        """True for VMsucceed."""
        return self.kind is VmxResultKind.SUCCEED

    @classmethod
    def succeed(cls, value: int | None = None) -> "VmxResult":
        """Construct a VMsucceed result."""
        return cls(VmxResultKind.SUCCEED, value=value)

    @classmethod
    def fail_invalid(cls) -> "VmxResult":
        """Construct a VMfailInvalid result."""
        return cls(VmxResultKind.FAIL_INVALID)

    @classmethod
    def fail_valid(cls, error: VmInstructionError) -> "VmxResult":
        """Construct a VMfailValid result with an error number."""
        return cls(VmxResultKind.FAIL_VALID, error=error)


@dataclass
class EntryOutcome:
    """Result of attempting vmlaunch/vmresume."""

    entered: bool
    vmx_result: VmxResult
    exit_reason: int | None = None  # reason-with-flags on failed entry
    violations: list[Violation] = field(default_factory=list)
    fixups: list[SilentFixup] = field(default_factory=list)

    @property
    def failed_entry(self) -> bool:
        """True for a VM entry that failed with an exit (reason bit 31)."""
        return self.exit_reason is not None


class VmxCpu:
    """One logical processor with Intel VT-x.

    VMCS memory is modelled as a sparse map of page-aligned physical
    addresses to :class:`Vmcs` objects; a pointer "in memory" that was
    never vmcleared simply has no revision identifier yet.
    """

    def __init__(self, caps: VmxCapabilities | None = None,
                 checker: IncrementalChecker | None = None) -> None:
        self.caps = caps or default_capabilities()
        # Entry checks are the dominant per-entry cost; the incremental
        # checker reuses per-unit results memoized on the VMCS itself,
        # so it may be shared between CPUs with identical capabilities
        # (the hardware oracle does this across attempts).
        self.checker = checker or IncrementalChecker(self.caps)
        self.vmx_on = False
        self.vmxon_region: int | None = None
        self.current_vmcs_ptr: int | None = None
        self.memory: dict[int, Vmcs] = {}
        self.in_guest = False

    # --- helpers ------------------------------------------------------------

    def _pointer_ok(self, addr: int) -> bool:
        return is_aligned(addr, PAGE_SIZE) and addr != 0 and addr < (1 << 46)

    @property
    def current_vmcs(self) -> Vmcs | None:
        """The VMCS selected by the current-VMCS pointer, if any."""
        if self.current_vmcs_ptr is None:
            return None
        return self.memory.get(self.current_vmcs_ptr)

    def install_vmcs(self, addr: int, vmcs: Vmcs) -> None:
        """Place a VMCS image at a physical address (test/harness helper)."""
        self.memory[addr] = vmcs

    # --- VMX instructions -----------------------------------------------------

    def vmxon(self, region: int) -> VmxResult:
        """Enter VMX root operation."""
        if self.vmx_on:
            return VmxResult.fail_valid(VmInstructionError.VMXON_IN_VMX_ROOT)
        if not self._pointer_ok(region):
            return VmxResult.fail_invalid()
        self.vmx_on = True
        self.vmxon_region = region
        self.current_vmcs_ptr = None
        return VmxResult.succeed()

    def vmxoff(self) -> VmxResult:
        """Leave VMX operation."""
        if not self.vmx_on:
            return VmxResult.fail_invalid()
        self.vmx_on = False
        self.vmxon_region = None
        self.current_vmcs_ptr = None
        return VmxResult.succeed()

    def vmclear(self, addr: int) -> VmxResult:
        """Initialise/flush the VMCS at *addr* and mark it clear."""
        if not self.vmx_on:
            return VmxResult.fail_invalid()
        if not self._pointer_ok(addr):
            return VmxResult.fail_valid(VmInstructionError.VMCLEAR_INVALID_ADDRESS)
        if addr == self.vmxon_region:
            return VmxResult.fail_valid(VmInstructionError.VMCLEAR_VMXON_POINTER)
        vmcs = self.memory.get(addr)
        if vmcs is None:
            vmcs = self.memory[addr] = Vmcs(self.caps.vmcs_revision_id)
        vmcs.clear()
        if self.current_vmcs_ptr == addr:
            self.current_vmcs_ptr = None
        return VmxResult.succeed()

    def vmptrld(self, addr: int) -> VmxResult:
        """Make the VMCS at *addr* current."""
        if not self.vmx_on:
            return VmxResult.fail_invalid()
        if not self._pointer_ok(addr):
            return VmxResult.fail_valid(VmInstructionError.VMPTRLD_INVALID_ADDRESS)
        if addr == self.vmxon_region:
            return VmxResult.fail_valid(VmInstructionError.VMPTRLD_VMXON_POINTER)
        vmcs = self.memory.get(addr)
        if vmcs is None or vmcs.revision_id != self.caps.vmcs_revision_id:
            return VmxResult.fail_valid(
                VmInstructionError.VMPTRLD_INCORRECT_REVISION_ID)
        self.current_vmcs_ptr = addr
        return VmxResult.succeed()

    def vmptrst(self) -> VmxResult:
        """Store the current-VMCS pointer."""
        if not self.vmx_on:
            return VmxResult.fail_invalid()
        ptr = self.current_vmcs_ptr if self.current_vmcs_ptr is not None else (1 << 64) - 1
        return VmxResult.succeed(value=ptr)

    def vmread(self, encoding: int) -> VmxResult:
        """Read a field of the current VMCS."""
        vmcs = self.current_vmcs
        if not self.vmx_on or vmcs is None:
            return VmxResult.fail_invalid()
        try:
            return VmxResult.succeed(value=vmcs.read(encoding))
        except KeyError:
            return VmxResult.fail_valid(
                VmInstructionError.UNSUPPORTED_VMCS_COMPONENT)

    def vmwrite(self, encoding: int, value: int) -> VmxResult:
        """Write a field of the current VMCS."""
        vmcs = self.current_vmcs
        if not self.vmx_on or vmcs is None:
            return VmxResult.fail_invalid()
        spec = F.SPEC_BY_ENCODING.get(encoding)
        if spec is None:
            return VmxResult.fail_valid(
                VmInstructionError.UNSUPPORTED_VMCS_COMPONENT)
        if spec.group is F.FieldGroup.READ_ONLY:
            return VmxResult.fail_valid(
                VmInstructionError.VMWRITE_READ_ONLY_COMPONENT)
        vmcs.write(encoding, value)
        return VmxResult.succeed()

    # --- VM entry -------------------------------------------------------------

    def vmlaunch(self, msr_entries: list[MsrEntry] | None = None) -> EntryOutcome:
        """Attempt a VM entry with launch semantics (VMCS must be clear)."""
        return self._vm_entry(launch=True, msr_entries=msr_entries)

    def vmresume(self, msr_entries: list[MsrEntry] | None = None) -> EntryOutcome:
        """Attempt a VM entry with resume semantics (VMCS must be launched)."""
        return self._vm_entry(launch=False, msr_entries=msr_entries)

    def _vm_entry(self, *, launch: bool,
                  msr_entries: list[MsrEntry] | None) -> EntryOutcome:
        vmcs = self.current_vmcs
        if not self.vmx_on or vmcs is None:
            return EntryOutcome(False, VmxResult.fail_invalid())
        if launch and vmcs.launched:
            return EntryOutcome(False, VmxResult.fail_valid(
                VmInstructionError.VMLAUNCH_NONCLEAR_VMCS))
        if not launch and not vmcs.launched:
            return EntryOutcome(False, VmxResult.fail_valid(
                VmInstructionError.VMRESUME_NONLAUNCHED_VMCS))

        if msr_entries is None:
            msr_entries = []
        violations = self.checker.check_all(vmcs, msr_entries)
        if violations:
            stage = violations[0].stage
            if stage is CheckStage.CONTROLS:
                return EntryOutcome(False, VmxResult.fail_valid(
                    VmInstructionError.ENTRY_INVALID_CONTROL_FIELDS),
                    violations=violations)
            if stage is CheckStage.HOST_STATE:
                return EntryOutcome(False, VmxResult.fail_valid(
                    VmInstructionError.ENTRY_INVALID_HOST_STATE),
                    violations=violations)
            if stage is CheckStage.GUEST_STATE:
                reason = int(ExitReason.INVALID_GUEST_STATE) | ENTRY_FAILURE_BIT
            else:
                reason = int(ExitReason.MSR_LOAD_FAIL) | ENTRY_FAILURE_BIT
            vmcs.write(F.VM_EXIT_REASON, reason)
            # A failed entry with an exit does not change launch state.
            return EntryOutcome(False, VmxResult.succeed(),
                                exit_reason=reason, violations=violations)

        fixups = apply_entry_fixups(vmcs)
        if launch:
            vmcs.mark_launched()
        self.in_guest = True
        return EntryOutcome(True, VmxResult.succeed(), fixups=fixups)

    def vm_exit(self, reason: ExitReason, *, qualification: int = 0,
                guest_rip: int | None = None) -> None:
        """Record a VM exit into the current VMCS (hardware write-back)."""
        vmcs = self.current_vmcs
        if vmcs is None:
            raise RuntimeError("VM exit with no current VMCS")
        vmcs.write(F.VM_EXIT_REASON, int(reason))
        vmcs.write(F.EXIT_QUALIFICATION, qualification)
        if guest_rip is not None:
            vmcs.write(F.GUEST_RIP, guest_rip)
        self.in_guest = False
