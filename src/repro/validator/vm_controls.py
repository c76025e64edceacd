"""``VMenterLoadCheckVmControls()`` analogue.

Rounds the VM-execution, VM-entry, and VM-exit control fields of a raw
VMCS to specification-compliant values, following Bochs's check order:
pin-based, processor-based primary and secondary, the exception bitmap,
CR0/CR4 masks and shadows, and the associated physical addresses (I/O
bitmaps, MSR bitmap, MSR-load/store areas).

KNOWN MODELLING GAP (deliberate, paper §3.4): this routine does *not*
know that posted interrupts additionally require the VM-exit control
"acknowledge interrupt on exit". The physical CPU enforces that rule, so
validated states using posted interrupts initially fail on hardware
until the oracle (:mod:`repro.validator.oracle`) observes the rejection
and registers a runtime correction — exactly the detect-and-correct loop
the paper describes.
"""

from __future__ import annotations

from functools import cache
from itertools import chain

from repro.arch.exceptions import ERROR_CODE_VECTORS, EventType, InterruptionInfo
from repro.arch.paging import MAX_PHYSADDR_WIDTH
from repro.validator.base import Rounder
from repro.vmx import fields as F
from repro.vmx.controls import EntryControls, ExitControls, PinBased, ProcBased, Secondary
from repro.vmx.msr_caps import VmxCapabilities

_PHYS_MASK = (1 << MAX_PHYSADDR_WIDTH) - 1

#: The fuzz-harness VM's RAM window. The validator runs *inside* the
#: harness VM and owns every structure the VMCS points at, so it rounds
#: structure addresses into its own RAM (the EPTP is deliberately NOT
#: rounded this way — its reach is part of the attack surface).
_GUEST_RAM_MASK = 0x0FFF_FFFF

#: The read-only (VM-exit information) fields, in layout order, each
#: with the rule that zeroes it.
_READ_ONLY_FIELDS: tuple[tuple[int, str], ...] = tuple(
    (s.encoding, "read-only field not writable by vmwrite")
    for s in F.ALL_FIELDS if s.group is F.FieldGroup.READ_ONLY)

#: The three MSR-load/store areas: (count field, address field).
_MSR_AREAS = ((F.VM_EXIT_MSR_STORE_COUNT, F.VM_EXIT_MSR_STORE_ADDR),
              (F.VM_EXIT_MSR_LOAD_COUNT, F.VM_EXIT_MSR_LOAD_ADDR),
              (F.VM_ENTRY_MSR_LOAD_COUNT, F.VM_ENTRY_MSR_LOAD_ADDR))

#: Masks that round a structure address to its alignment (4 KiB, 64 or
#: 16 bytes) inside harness RAM.
_RAM_4K = _GUEST_RAM_MASK & ~(4096 - 1)
_RAM_64B = _GUEST_RAM_MASK & ~(64 - 1)
_RAM_16B = _GUEST_RAM_MASK & ~(16 - 1)

#: Secondary controls that need EPT, each with the rule clearing it.
_NEEDS_EPT = ((Secondary.UNRESTRICTED_GUEST, "unrestricted guest requires EPT"),
              (Secondary.ENABLE_PML, "PML requires EPT"),
              (Secondary.EPT_VIOLATION_VE, "#VE requires EPT"),
              (Secondary.MODE_BASED_EPT_EXEC, "MBEC requires EPT"))


def round_vm_controls(r: Rounder, caps: VmxCapabilities) -> None:
    """Round all control fields toward validity."""
    v = r.values
    force = r.force

    # Read-only (VM-exit information) fields are not part of a generated
    # state: the executor programs VMCS12 through vmwrite, which cannot
    # touch them, so the validator normalises them to zero up front.
    r.zero(_READ_ONLY_FIELDS)

    # Reserved bits against the capability MSRs (allowed-0/allowed-1).
    force(F.PIN_BASED_VM_EXEC_CONTROL,
          caps.pin_based.round(v[F.PIN_BASED_VM_EXEC_CONTROL]),
          "pin-based controls: allowed-settings rounding")
    force(F.CPU_BASED_VM_EXEC_CONTROL,
          caps.proc_based.round(v[F.CPU_BASED_VM_EXEC_CONTROL]),
          "proc-based controls: allowed-settings rounding")
    force(F.VM_ENTRY_CONTROLS,
          caps.entry.round(v[F.VM_ENTRY_CONTROLS]),
          "entry controls: allowed-settings rounding")
    force(F.VM_EXIT_CONTROLS,
          caps.exit.round(v[F.VM_EXIT_CONTROLS]),
          "exit controls: allowed-settings rounding")

    # A 64-bit host is the only host this platform supports.
    force(F.VM_EXIT_CONTROLS,
          v[F.VM_EXIT_CONTROLS] | ExitControls.HOST_ADDR_SPACE_SIZE,
          "64-bit host requires host-address-space-size")
    # SMM-only entry controls are invalid outside SMM.
    force(F.VM_ENTRY_CONTROLS,
          v[F.VM_ENTRY_CONTROLS] & ~(EntryControls.ENTRY_TO_SMM
                                     | EntryControls.DEACTIVATE_DUAL_MONITOR),
          "SMM entry controls cleared outside SMM")

    proc = v[F.CPU_BASED_VM_EXEC_CONTROL]
    if proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS:
        force(F.SECONDARY_VM_EXEC_CONTROL,
              caps.secondary.round(v[F.SECONDARY_VM_EXEC_CONTROL]),
              "secondary controls: allowed-settings rounding")
    else:
        force(F.SECONDARY_VM_EXEC_CONTROL, 0,
              "secondary controls cleared when not activated")
    proc2 = v[F.SECONDARY_VM_EXEC_CONTROL]

    # Pin/proc NMI dependency chain.
    pin = v[F.PIN_BASED_VM_EXEC_CONTROL]
    if pin & PinBased.VIRTUAL_NMIS and not pin & PinBased.NMI_EXITING:
        r.set_bits(F.PIN_BASED_VM_EXEC_CONTROL, PinBased.NMI_EXITING,
                   "virtual NMIs require NMI exiting")
    pin = v[F.PIN_BASED_VM_EXEC_CONTROL]
    if proc & ProcBased.NMI_WINDOW_EXITING and not pin & PinBased.VIRTUAL_NMIS:
        r.clear_bits(F.CPU_BASED_VM_EXEC_CONTROL, ProcBased.NMI_WINDOW_EXITING,
                     "NMI-window exiting requires virtual NMIs")

    # TPR shadow / APIC virtualization dependencies.
    proc = v[F.CPU_BASED_VM_EXEC_CONTROL]
    apic_bits = (Secondary.VIRTUALIZE_X2APIC | Secondary.APIC_REGISTER_VIRT
                 | Secondary.VIRTUAL_INTR_DELIVERY)
    if proc2 & apic_bits and not proc & ProcBased.USE_TPR_SHADOW:
        if caps.proc_based.allowed1 & ProcBased.USE_TPR_SHADOW:
            r.set_bits(F.CPU_BASED_VM_EXEC_CONTROL, ProcBased.USE_TPR_SHADOW,
                       "APIC virtualization requires use-TPR-shadow")
        else:
            r.clear_bits(F.SECONDARY_VM_EXEC_CONTROL, apic_bits,
                         "APIC virtualization unavailable without TPR shadow")
    proc = v[F.CPU_BASED_VM_EXEC_CONTROL]
    proc2 = v[F.SECONDARY_VM_EXEC_CONTROL]
    if proc2 & Secondary.VIRTUALIZE_X2APIC and proc2 & Secondary.VIRTUALIZE_APIC_ACCESSES:
        r.clear_bits(F.SECONDARY_VM_EXEC_CONTROL, Secondary.VIRTUALIZE_APIC_ACCESSES,
                     "x2APIC mode conflicts with APIC-access virtualization")

    # Posted interrupts need virtual-interrupt delivery and an 8-bit,
    # 64-byte-aligned descriptor. (The ack-intr-on-exit requirement is
    # the documented modelling gap — see module docstring.)
    pin = v[F.PIN_BASED_VM_EXEC_CONTROL]
    proc2 = v[F.SECONDARY_VM_EXEC_CONTROL]
    if pin & PinBased.POSTED_INTERRUPTS:
        if not proc2 & Secondary.VIRTUAL_INTR_DELIVERY:
            if (caps.secondary.allowed1 & Secondary.VIRTUAL_INTR_DELIVERY
                    and proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS
                    and proc & ProcBased.USE_TPR_SHADOW):
                r.set_bits(F.SECONDARY_VM_EXEC_CONTROL,
                           Secondary.VIRTUAL_INTR_DELIVERY,
                           "posted interrupts require virtual-interrupt delivery")
            else:
                r.clear_bits(F.PIN_BASED_VM_EXEC_CONTROL, PinBased.POSTED_INTERRUPTS,
                             "posted interrupts unavailable")
        if v[F.PIN_BASED_VM_EXEC_CONTROL] & PinBased.POSTED_INTERRUPTS:
            force(F.POSTED_INTR_NV, v[F.POSTED_INTR_NV] & 0xFF,
                  "posted-interrupt vector is 8 bits")
            force(F.POSTED_INTR_DESC_ADDR, v[F.POSTED_INTR_DESC_ADDR] & _RAM_64B,
                  "posted-interrupt descriptor is 64-byte aligned")

    # EPT-dependent features.
    proc2 = v[F.SECONDARY_VM_EXEC_CONTROL]
    ept_on = bool(proc2 & Secondary.ENABLE_EPT)
    if not ept_on:
        for bits, rule in _NEEDS_EPT:
            if proc2 & bits:
                r.clear_bits(F.SECONDARY_VM_EXEC_CONTROL, bits, rule)
        proc2 = v[F.SECONDARY_VM_EXEC_CONTROL]

    if ept_on:
        eptp = (v[F.EPT_POINTER] & _PHYS_MASK & ~0xFFF) | 6 | (3 << 3)  # WB, 4-level walk
        force(F.EPT_POINTER, eptp, "EPTP rounded to WB/4-level/aligned")
    if proc2 & Secondary.ENABLE_VPID and not v[F.VIRTUAL_PROCESSOR_ID]:
        force(F.VIRTUAL_PROCESSOR_ID, 1, "VPID must be nonzero")
    if proc2 & Secondary.ENABLE_PML:
        force(F.PML_ADDRESS, v[F.PML_ADDRESS] & _RAM_4K, "PML address alignment")
    if proc2 & Secondary.EPT_VIOLATION_VE:
        force(F.VE_INFORMATION_ADDRESS, v[F.VE_INFORMATION_ADDRESS] & _RAM_4K,
              "#VE info alignment")
    if proc2 & Secondary.ENABLE_VMFUNC:
        func = v[F.VM_FUNCTION_CONTROL] & 1
        if func and not ept_on:
            func = 0
        force(F.VM_FUNCTION_CONTROL, func, "only EPTP switching supported")
        if func:
            force(F.EPTP_LIST_ADDRESS, v[F.EPTP_LIST_ADDRESS] & _RAM_4K,
                  "EPTP list alignment")
    if proc2 & Secondary.SHADOW_VMCS:
        force(F.VMREAD_BITMAP, v[F.VMREAD_BITMAP] & _RAM_4K, "vmread bitmap alignment")
        force(F.VMWRITE_BITMAP, v[F.VMWRITE_BITMAP] & _RAM_4K,
              "vmwrite bitmap alignment")

    # Exception bitmap and CR masks/shadows have no invalid encodings —
    # Bochs loads them unchecked; nothing to round.

    # I/O and MSR bitmap addresses.
    proc = v[F.CPU_BASED_VM_EXEC_CONTROL]
    if proc & ProcBased.USE_IO_BITMAPS:
        force(F.IO_BITMAP_A, v[F.IO_BITMAP_A] & _RAM_4K, "I/O bitmap A alignment")
        force(F.IO_BITMAP_B, v[F.IO_BITMAP_B] & _RAM_4K, "I/O bitmap B alignment")
    if proc & ProcBased.USE_MSR_BITMAPS:
        force(F.MSR_BITMAP, v[F.MSR_BITMAP] & _RAM_4K, "MSR bitmap alignment")
    if proc & ProcBased.USE_TPR_SHADOW:
        force(F.VIRTUAL_APIC_PAGE_ADDR, v[F.VIRTUAL_APIC_PAGE_ADDR] & _RAM_4K,
              "virtual-APIC page alignment")
        if not v[F.SECONDARY_VM_EXEC_CONTROL] & Secondary.VIRTUAL_INTR_DELIVERY:
            force(F.TPR_THRESHOLD, v[F.TPR_THRESHOLD] & 0xF,
                  "TPR threshold bits 31:4 zero")
    if v[F.SECONDARY_VM_EXEC_CONTROL] & Secondary.VIRTUALIZE_APIC_ACCESSES:
        force(F.APIC_ACCESS_ADDR, v[F.APIC_ACCESS_ADDR] & _RAM_4K,
              "APIC-access page alignment")

    if (v[F.VM_EXIT_CONTROLS] & ExitControls.SAVE_PREEMPTION_TIMER
            and not v[F.PIN_BASED_VM_EXEC_CONTROL] & PinBased.PREEMPTION_TIMER):
        r.clear_bits(F.VM_EXIT_CONTROLS, ExitControls.SAVE_PREEMPTION_TIMER,
                     "save-preemption-timer requires the timer")

    force(F.CR3_TARGET_COUNT, min(v[F.CR3_TARGET_COUNT], 4), "CR3-target count <= 4")

    # MSR-load/store areas: align, bound the counts to keep areas in range.
    for count_field, addr_field in _MSR_AREAS:
        count = v[count_field] & 0xF
        force(count_field, count, "MSR area count bounded")
        if count:
            force(addr_field, v[addr_field] & _RAM_16B, "MSR area 16-byte alignment")

    _round_event_injection(r)
    _normalize_gated_fields(r)


def _gate_table(*gates: tuple[int, tuple[int, ...], str]):
    """The fields one control word's clear gate bits leave unused.

    Each gate is ``(bit, encodings, rule)``. Returns the mask of the
    gate bits and a function from the word's gate bits to the
    ``(encoding, rule)`` pairs of every field a clear gate leaves
    unused, in gate order. A word has at most ``2 ** len(gates)``
    settings of its gate bits, so each is computed once.
    """
    mask = 0
    for bit, _, _ in gates:
        mask |= bit

    @cache
    def unused(bits: int) -> tuple[tuple[int, str], ...]:
        return tuple((encoding, rule) for bit, encodings, rule in gates
                     if not bits & bit for encoding in encodings)
    return mask, unused


#: Control fields the CPU ignores unless a gate bit of the proc-based,
#: pin-based or secondary controls is set, normalised in that order.
_PROC_GATES, _proc_unused = _gate_table(
    (ProcBased.USE_IO_BITMAPS, (F.IO_BITMAP_A, F.IO_BITMAP_B), "I/O bitmaps unused"),
    (ProcBased.USE_MSR_BITMAPS, (F.MSR_BITMAP,), "MSR bitmap unused"),
    (ProcBased.USE_TPR_SHADOW, (F.VIRTUAL_APIC_PAGE_ADDR, F.TPR_THRESHOLD),
     "TPR shadow unused"))
_PIN_GATES, _pin_unused = _gate_table(
    (PinBased.POSTED_INTERRUPTS, (F.POSTED_INTR_NV, F.POSTED_INTR_DESC_ADDR),
     "posted interrupts unused"),
    (PinBased.PREEMPTION_TIMER, (F.VMX_PREEMPTION_TIMER_VALUE,),
     "preemption timer unused"))
_PROC2_GATES, _proc2_unused = _gate_table(
    (Secondary.ENABLE_EPT, (F.EPT_POINTER, F.PML_ADDRESS, F.SUB_PAGE_PERMISSION_PTR),
     "EPT structures unused"),
    (Secondary.ENABLE_PML, (F.PML_ADDRESS,), "PML unused"),
    (Secondary.ENABLE_VPID, (F.VIRTUAL_PROCESSOR_ID,), "VPID unused"),
    (Secondary.VIRTUALIZE_APIC_ACCESSES, (F.APIC_ACCESS_ADDR,),
     "APIC-access page unused"),
    (Secondary.VIRTUAL_INTR_DELIVERY, (F.EOI_EXIT_BITMAP0, F.EOI_EXIT_BITMAP1,
                                       F.EOI_EXIT_BITMAP2, F.EOI_EXIT_BITMAP3),
     "EOI-exit bitmaps unused"),
    (Secondary.ENABLE_VMFUNC, (F.VM_FUNCTION_CONTROL, F.EPTP_LIST_ADDRESS,
                               F.EPTP_INDEX), "VM functions unused"),
    (Secondary.SHADOW_VMCS, (F.VMREAD_BITMAP, F.VMWRITE_BITMAP),
     "shadow-VMCS bitmaps unused"),
    (Secondary.EPT_VIOLATION_VE, (F.VE_INFORMATION_ADDRESS,), "#VE info unused"),
    (Secondary.PAUSE_LOOP_EXITING, (F.PLE_GAP, F.PLE_WINDOW), "PLE unused"),
    (Secondary.USE_TSC_SCALING, (F.TSC_MULTIPLIER,), "TSC scaling unused"),
    (Secondary.ENABLE_XSAVES, (F.XSS_EXIT_BITMAP,), "XSAVES unused"),
    (Secondary.ENCLS_EXITING, (F.ENCLS_EXITING_BITMAP,), "ENCLS exiting unused"),
    (Secondary.ENABLE_ENCLV_EXITING, (F.ENCLV_EXITING_BITMAP,),
     "ENCLV exiting unused"))

#: Features our capability surface never advertises. (ENCLV exiting is
#: unsupported too, but its field is zeroed above whenever its gate is
#: clear, and kept when the secondary controls enable it.)
_UNSUPPORTED = ((F.TERTIARY_VM_EXEC_CONTROL, "tertiary controls unsupported"),
                (F.HLAT_POINTER, "HLAT unsupported"),
                (F.EXECUTIVE_VMCS_POINTER, "dual-monitor SMM unsupported"))

#: CR3-target values, each zeroed when beyond the target count.
_CR3_TARGETS = tuple((encoding, "CR3 target beyond count") for encoding in (
    F.CR3_TARGET_VALUE0, F.CR3_TARGET_VALUE1, F.CR3_TARGET_VALUE2,
    F.CR3_TARGET_VALUE3))


def _normalize_gated_fields(r: Rounder) -> None:
    """Zero control fields whose enabling feature ended up disabled.

    The CPU ignores these fields when the gate bit is clear, so their
    content carries no behaviour; normalising them keeps the validated
    population concentrated near the specification boundary instead of
    scattered across don't-care bits (this is what makes the Figure-5
    distances meaningful). Every correction here zeroes a field, and no
    field zeroed here gates another, so the whole pass is one bulk zero.
    """
    v = r.values
    r.zero(chain(
        _proc_unused(v[F.CPU_BASED_VM_EXEC_CONTROL] & _PROC_GATES),
        _pin_unused(v[F.PIN_BASED_VM_EXEC_CONTROL] & _PIN_GATES),
        _proc2_unused(v[F.SECONDARY_VM_EXEC_CONTROL] & _PROC2_GATES),
        _UNSUPPORTED,
        # CR3-target values beyond the target count are ignored.
        _CR3_TARGETS[v[F.CR3_TARGET_COUNT]:],
        # MSR areas beyond zero counts.
        [(addr_field, "MSR area unused")
         for count_field, addr_field in _MSR_AREAS if not v[count_field]]))


_INTR_VALID = InterruptionInfo.VALID_BIT
_INTR_ERROR_CODE = InterruptionInfo.ERROR_CODE_BIT
#: Bit *v* set for every vector *v* that pushes an error code.
_ERROR_CODE_VECTOR_BITS = sum(1 << vector for vector in ERROR_CODE_VECTORS)


def _round_event_injection(r: Rounder) -> None:
    """Make the VM-entry interruption-information field self-consistent.

    Decodes the raw word with bit operations: vector 7:0, type 10:8,
    deliver-error-code 11, valid 31; the re-encoded word drops the
    reserved bits 30:12.
    """
    v = r.values
    raw = v[F.VM_ENTRY_INTR_INFO_FIELD]
    if not raw & _INTR_VALID:
        return
    event_type = (raw >> 8) & 7
    if event_type == 1:  # type 1 is reserved; round to external interrupt
        event_type = 0
    vector = raw & 0xFF
    deliver_ec = raw & _INTR_ERROR_CODE
    if event_type == EventType.NMI:
        vector = 2
    if event_type == EventType.HARDWARE_EXCEPTION and vector > 31:
        vector &= 31
    if deliver_ec and (event_type != EventType.HARDWARE_EXCEPTION
                       or not (_ERROR_CODE_VECTOR_BITS >> vector) & 1):
        deliver_ec = 0
    r.force(F.VM_ENTRY_INTR_INFO_FIELD,
            vector | event_type << 8 | deliver_ec | _INTR_VALID,
            "event-injection consistency (SDM 26.2.1.3)")
    if deliver_ec:
        r.force(F.VM_ENTRY_EXCEPTION_ERROR_CODE,
                v[F.VM_ENTRY_EXCEPTION_ERROR_CODE] & 0x7FFF,
                "error code bits 31:15 zero")
