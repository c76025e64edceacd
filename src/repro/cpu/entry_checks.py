"""Hardware VM-entry consistency checks (Intel SDM 26.2 / 26.3).

This is the ground-truth model the paper uses the physical CPU for: given
a VMCS and the CPU's capability MSRs, decide whether VM entry succeeds,
and if not, which category of failure it is. The checks are grouped the
way hardware performs them:

* checks on VMX controls and host state happen *before* the entry and
  produce VMfailValid (VM-instruction errors 7 / 8);
* checks on guest state happen *during* the entry and produce a failed
  VM entry (exit reason 33 "invalid guest state" / 34 "MSR load fail").

The implementation intentionally includes behaviours that are silent or
undocumented (see :mod:`repro.cpu.quirks`) so the Bochs-derived validator
has real gaps for the hardware-oracle loop to correct.

Structurally, each SDM paragraph is one :class:`CheckUnit` — a pure
function of the VMCS plus a *declared* read set of field encodings. The
units run in architectural order; the public ``check_vm_controls`` /
``check_host_state`` / ``check_guest_state`` entry points simply run
their stage's units, so violation order is identical to the historical
monolithic bodies. The declared read sets feed ``FIELD_TO_CHECKS``, the
field->check dependency index that :class:`IncrementalChecker` uses to
re-run only the units whose inputs changed since the last check of the
same structure (per-object dirty journal, see repro.vmx.vmcs). A unit
body reads the structure's value table directly, not through
``Vmcs.read``, so the declared sets are pinned as supersets of the reads
tests/unit/test_incremental_equivalence.py observes through a recording
mapping. A structure whose reads are being traced (the read set
``perf.memoized_check`` records) would see none of those reads, so the
checks raise :class:`ReadTraceActiveError` on one instead.

A unit body builds no per-call objects: it decodes the raw words it
reads (segment access rights, interruption information, EPTPs) with
local bit operations. The object-based bodies it replaced, which went
through ``Segment``, ``InterruptionInfo`` and ``EptPointer``, are kept
in tests/reference/object_entry_checks.py, and every public check is
pinned equal to them (tests/cpu/test_object_check_equivalence.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

from repro.arch import msr as MSR
from repro.arch.exceptions import InterruptionInfo, injection_consistent
from repro.arch.msr import MsrEntry, is_canonical
from repro.arch.paging import MAX_PHYSADDR_WIDTH, eptp_valid
from repro.arch.registers import Cr0, Cr4, Dr7, Efer, Rflags
from repro.arch.segments import AccessRights, granularity_consistent
from repro.vmx import fields as F
from repro.vmx.controls import (
    ActivityState,
    EntryControls,
    ExitControls,
    Interruptibility,
    PinBased,
    ProcBased,
    Secondary,
)
from repro.vmx.msr_caps import VmxCapabilities
from repro.vmx.vmcs import Vmcs

PAGE_MASK = 0xFFF
ADDR_LIMIT = 1 << MAX_PHYSADDR_WIDTH

#: A structure's field values by encoding: what a unit reads (a
#: ``Vmcs``'s own value table).
Values = Mapping[int, int]


class CheckStage(Enum):
    """Which architectural check group flagged the violation."""

    CONTROLS = "controls"      # -> VMfailValid(7)
    HOST_STATE = "host_state"  # -> VMfailValid(8)
    GUEST_STATE = "guest_state"  # -> VM-entry failure, reason 33
    MSR_LOAD = "msr_load"        # -> VM-entry failure, reason 34


@dataclass(frozen=True)
class Violation:
    """One failed consistency check."""

    stage: CheckStage
    field: str
    reason: str

    def __str__(self) -> str:
        return f"[{self.stage.value}] {self.field}: {self.reason}"


#: Word masks the units test instead of decoding objects. A VMCS stores
#: every value truncated to its field width, so each value is a
#: non-negative int below 2**64 and these tests equal their decoded
#: forms (pinned against tests/reference/object_entry_checks.py).
_BAD_PAGE_ADDR = PAGE_MASK | -ADDR_LIMIT    # not 4K-aligned, or >= 2**46
_BAD_MSR_AREA = 0xF | -ADDR_LIMIT           # not 16-byte aligned, or >= 2**46
_BAD_PI_DESC = 0x3F | -ADDR_LIMIT           # not 64-byte aligned, or >= 2**46
#: Non-canonical 48-bit linear addresses: bits 63:47 neither all 0 nor all 1.
_NONCANONICAL_LO = 1 << 47
_NONCANONICAL_HI = (1 << 64) - (1 << 47)
#: Bit n set when PAT memory type n is valid (0, 1, 4, 5, 6, 7).
_PAT_TYPES = 0b11110011

_AR_S = AccessRights.S
_AR_P = AccessRights.P
_AR_L = AccessRights.L
_AR_UNUSABLE = AccessRights.UNUSABLE
_AR_RESERVED = AccessRights.RESERVED

_INTR_VALID = InterruptionInfo.VALID_BIT
_INTR_TYPE = 0x700                          # event type, bits 10:8


def _pat_valid(pat: int) -> bool:
    """Each PAT byte must encode a valid memory type (0,1,4,5,6,7)."""
    for shift in range(0, 64, 8):
        if not (_PAT_TYPES >> ((pat >> shift) & 0xFF)) & 1:
            return False
    return True


def _effective_proc2(v: Values) -> int:
    """Secondary controls, or 0 when the activation bit is clear."""
    if v[F.CPU_BASED_VM_EXEC_CONTROL] & ProcBased.ACTIVATE_SECONDARY_CONTROLS:
        return v[F.SECONDARY_VM_EXEC_CONTROL]
    return 0


# --------------------------------------------------------------------------
# Check units. Each unit is one SDM paragraph: a pure function
# (v, caps, bad) of the structure's field values plus the declared set
# of encodings it may read.
# Units run in architectural order inside their stage.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckUnit:
    """One indexed consistency check with a declared field read set."""

    name: str
    stage: CheckStage
    reads: frozenset[int]
    fn: Callable[[Values, VmxCapabilities, Callable[[str, str], None]], None]


# --- SDM 26.2.1 — checks on VMX controls ----------------------------------

def _u_ctl_allowed(v: Values, caps: VmxCapabilities, bad) -> None:
    pin = v[F.PIN_BASED_VM_EXEC_CONTROL]
    proc = v[F.CPU_BASED_VM_EXEC_CONTROL]
    proc2 = v[F.SECONDARY_VM_EXEC_CONTROL]
    entry = v[F.VM_ENTRY_CONTROLS]
    exit_ = v[F.VM_EXIT_CONTROLS]
    if not caps.pin_based.permits(pin):
        bad("pin_based_vm_exec_control", "reserved bits violate allowed settings")
    if not caps.proc_based.permits(proc):
        bad("cpu_based_vm_exec_control", "reserved bits violate allowed settings")
    if proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS and not caps.secondary.permits(proc2):
        bad("secondary_vm_exec_control", "reserved bits violate allowed settings")
    if not caps.entry.permits(entry):
        bad("vm_entry_controls", "reserved bits violate allowed settings")
    if not caps.exit.permits(exit_):
        bad("vm_exit_controls", "reserved bits violate allowed settings")


def _u_ctl_cr3_count(v: Values, caps: VmxCapabilities, bad) -> None:
    cr3_count = v[F.CR3_TARGET_COUNT]
    if cr3_count > 4:
        bad("cr3_target_count", f"count {cr3_count} exceeds 4")


def _u_ctl_io_bitmaps(v: Values, caps: VmxCapabilities, bad) -> None:
    if v[F.CPU_BASED_VM_EXEC_CONTROL] & ProcBased.USE_IO_BITMAPS:
        for field, name in ((F.IO_BITMAP_A, "io_bitmap_a"), (F.IO_BITMAP_B, "io_bitmap_b")):
            addr = v[field]
            if addr & _BAD_PAGE_ADDR:
                bad(name, f"address {addr:#x} not 4K-aligned in physical range")


def _u_ctl_msr_bitmap(v: Values, caps: VmxCapabilities, bad) -> None:
    if v[F.CPU_BASED_VM_EXEC_CONTROL] & ProcBased.USE_MSR_BITMAPS:
        addr = v[F.MSR_BITMAP]
        if addr & _BAD_PAGE_ADDR:
            bad("msr_bitmap", f"address {addr:#x} not 4K-aligned in physical range")


def _u_ctl_tpr_shadow(v: Values, caps: VmxCapabilities, bad) -> None:
    effective_proc2 = _effective_proc2(v)
    if v[F.CPU_BASED_VM_EXEC_CONTROL] & ProcBased.USE_TPR_SHADOW:
        addr = v[F.VIRTUAL_APIC_PAGE_ADDR]
        if addr & _BAD_PAGE_ADDR:
            bad("virtual_apic_page_addr", f"bad address {addr:#x}")
        tpr = v[F.TPR_THRESHOLD]
        if tpr & ~0xF and not effective_proc2 & Secondary.VIRTUAL_INTR_DELIVERY:
            bad("tpr_threshold", "bits 31:4 must be zero")
    else:
        if effective_proc2 & (Secondary.VIRTUALIZE_X2APIC
                              | Secondary.APIC_REGISTER_VIRT
                              | Secondary.VIRTUAL_INTR_DELIVERY):
            bad("secondary_vm_exec_control",
                "APIC virtualization requires use-TPR-shadow")


def _u_ctl_nmi(v: Values, caps: VmxCapabilities, bad) -> None:
    pin = v[F.PIN_BASED_VM_EXEC_CONTROL]
    proc = v[F.CPU_BASED_VM_EXEC_CONTROL]
    if not pin & PinBased.NMI_EXITING and pin & PinBased.VIRTUAL_NMIS:
        bad("pin_based_vm_exec_control", "virtual NMIs require NMI exiting")
    if not pin & PinBased.VIRTUAL_NMIS and proc & ProcBased.NMI_WINDOW_EXITING:
        bad("cpu_based_vm_exec_control", "NMI-window exiting requires virtual NMIs")


def _u_ctl_apic_access(v: Values, caps: VmxCapabilities, bad) -> None:
    effective_proc2 = _effective_proc2(v)
    if effective_proc2 & Secondary.VIRTUALIZE_APIC_ACCESSES:
        addr = v[F.APIC_ACCESS_ADDR]
        if addr & _BAD_PAGE_ADDR:
            bad("apic_access_addr", f"bad address {addr:#x}")
        if effective_proc2 & Secondary.VIRTUALIZE_X2APIC:
            bad("secondary_vm_exec_control",
                "x2APIC mode conflicts with APIC-access virtualization")


def _u_ctl_posted_intr(v: Values, caps: VmxCapabilities, bad) -> None:
    if v[F.PIN_BASED_VM_EXEC_CONTROL] & PinBased.POSTED_INTERRUPTS:
        if not _effective_proc2(v) & Secondary.VIRTUAL_INTR_DELIVERY:
            bad("posted_intr_notification_vector",
                "posted interrupts require virtual-interrupt delivery")
        if not v[F.VM_EXIT_CONTROLS] & ExitControls.ACK_INTR_ON_EXIT:
            bad("vm_exit_controls",
                "posted interrupts require acknowledge-interrupt-on-exit")
        nv = v[F.POSTED_INTR_NV]
        if nv & ~0xFF:
            bad("posted_intr_notification_vector", "vector must be 8 bits")
        if v[F.POSTED_INTR_DESC_ADDR] & _BAD_PI_DESC:
            bad("posted_intr_desc_addr", "descriptor must be 64-byte aligned")


def _u_ctl_vpid(v: Values, caps: VmxCapabilities, bad) -> None:
    if _effective_proc2(v) & Secondary.ENABLE_VPID and not v[F.VIRTUAL_PROCESSOR_ID]:
        bad("virtual_processor_id", "VPID must be nonzero when enable-VPID set")


def _u_ctl_ept(v: Values, caps: VmxCapabilities, bad) -> None:
    if _effective_proc2(v) & Secondary.ENABLE_EPT:
        eptp = v[F.EPT_POINTER]
        if not eptp_valid(eptp, ept_5level=caps.ept_5level):
            bad("ept_pointer", f"invalid EPTP {eptp:#x}")


def _u_ctl_unrestricted(v: Values, caps: VmxCapabilities, bad) -> None:
    effective_proc2 = _effective_proc2(v)
    if effective_proc2 & Secondary.UNRESTRICTED_GUEST and not effective_proc2 & Secondary.ENABLE_EPT:
        bad("secondary_vm_exec_control", "unrestricted guest requires EPT")


def _u_ctl_pml(v: Values, caps: VmxCapabilities, bad) -> None:
    effective_proc2 = _effective_proc2(v)
    if effective_proc2 & Secondary.ENABLE_PML:
        if not effective_proc2 & Secondary.ENABLE_EPT:
            bad("secondary_vm_exec_control", "PML requires EPT")
        addr = v[F.PML_ADDRESS]
        if addr & _BAD_PAGE_ADDR:
            bad("pml_address", f"bad address {addr:#x}")


def _u_ctl_ve(v: Values, caps: VmxCapabilities, bad) -> None:
    if _effective_proc2(v) & Secondary.EPT_VIOLATION_VE:
        addr = v[F.VE_INFORMATION_ADDRESS]
        if addr & _BAD_PAGE_ADDR:
            bad("virtualization_exception_info_addr", f"bad address {addr:#x}")


def _u_ctl_vmfunc(v: Values, caps: VmxCapabilities, bad) -> None:
    effective_proc2 = _effective_proc2(v)
    if effective_proc2 & Secondary.ENABLE_VMFUNC:
        func = v[F.VM_FUNCTION_CONTROL]
        if func & ~1:
            bad("vm_function_control", "unsupported VM functions enabled")
        if func & 1:
            if not effective_proc2 & Secondary.ENABLE_EPT:
                bad("vm_function_control", "EPTP switching requires EPT")
            lst = v[F.EPTP_LIST_ADDRESS]
            if lst & _BAD_PAGE_ADDR:
                bad("eptp_list_address", f"bad address {lst:#x}")


def _u_ctl_shadow_vmcs(v: Values, caps: VmxCapabilities, bad) -> None:
    if _effective_proc2(v) & Secondary.SHADOW_VMCS:
        for field, name in ((F.VMREAD_BITMAP, "vmread_bitmap"),
                            (F.VMWRITE_BITMAP, "vmwrite_bitmap")):
            addr = v[field]
            if addr & _BAD_PAGE_ADDR:
                bad(name, f"bad address {addr:#x}")


def _u_ctl_preemption(v: Values, caps: VmxCapabilities, bad) -> None:
    # VM-exit control cross-checks.
    if (not v[F.PIN_BASED_VM_EXEC_CONTROL] & PinBased.PREEMPTION_TIMER
            and v[F.VM_EXIT_CONTROLS] & ExitControls.SAVE_PREEMPTION_TIMER):
        bad("vm_exit_controls",
            "save-preemption-timer requires activate-preemption-timer")


_MSR_AREAS = (
    (F.VM_EXIT_MSR_STORE_COUNT, F.VM_EXIT_MSR_STORE_ADDR,
     "vm_exit_msr_store_count", "vm_exit_msr_store_addr"),
    (F.VM_EXIT_MSR_LOAD_COUNT, F.VM_EXIT_MSR_LOAD_ADDR,
     "vm_exit_msr_load_count", "vm_exit_msr_load_addr"),
    (F.VM_ENTRY_MSR_LOAD_COUNT, F.VM_ENTRY_MSR_LOAD_ADDR,
     "vm_entry_msr_load_count", "vm_entry_msr_load_addr"),
)


def _u_ctl_msr_areas(v: Values, caps: VmxCapabilities, bad) -> None:
    for count_field, addr_field, cname, aname in _MSR_AREAS:
        count = v[count_field]
        if count:
            if count > 512:
                bad(cname, f"MSR count {count} exceeds the architectural limit")
            addr = v[addr_field]
            if addr & _BAD_MSR_AREA:
                bad(aname, f"MSR area {addr:#x} must be 16-byte aligned")
            if addr + count * 16 - 1 >= ADDR_LIMIT:
                bad(cname, "MSR area extends past physical address width")


def _u_ctl_event_injection(v: Values, caps: VmxCapabilities, bad) -> None:
    # VM-entry interruption information (SDM 26.2.1.3).
    info = v[F.VM_ENTRY_INTR_INFO_FIELD]
    if not injection_consistent(info):
        bad("vm_entry_intr_info", "inconsistent event injection")
    if info & _INTR_VALID and info & InterruptionInfo.ERROR_CODE_BIT:
        if v[F.VM_ENTRY_EXCEPTION_ERROR_CODE] & ~0x7FFF:
            bad("vm_entry_exception_error_code", "bits 31:15 must be zero")


def _u_ctl_smm(v: Values, caps: VmxCapabilities, bad) -> None:
    if v[F.VM_ENTRY_CONTROLS] & (EntryControls.ENTRY_TO_SMM
                                         | EntryControls.DEACTIVATE_DUAL_MONITOR):
        bad("vm_entry_controls", "SMM entry controls invalid outside SMM")


# --- SDM 26.2.2 / 26.2.3 — checks on host state ---------------------------

def _u_host_cr(v: Values, caps: VmxCapabilities, bad) -> None:
    cr0 = v[F.HOST_CR0]
    cr4 = v[F.HOST_CR4]
    cr3 = v[F.HOST_CR3]
    if not caps.cr0_valid_for_vmx(cr0):
        bad("host_cr0", f"{cr0:#x} violates CR0 fixed bits")
    if not caps.cr4_valid_for_vmx(cr4):
        bad("host_cr4", f"{cr4:#x} violates CR4 fixed bits")
    if cr3 >> MAX_PHYSADDR_WIDTH:
        bad("host_cr3", f"{cr3:#x} exceeds physical address width")


def _u_host_addr_space(v: Values, caps: VmxCapabilities, bad) -> None:
    # Our model is a 64-bit host: "host address-space size" must be 1, and
    # the IA-32e guest control requires it (SDM 26.2.2).
    if v[F.VM_EXIT_CONTROLS] & ExitControls.HOST_ADDR_SPACE_SIZE:
        if not v[F.HOST_CR4] & Cr4.PAE:
            bad("host_cr4", "64-bit host requires CR4.PAE")
    else:
        bad("vm_exit_controls", "64-bit CPU requires host address-space size")
        if v[F.VM_ENTRY_CONTROLS] & EntryControls.IA32E_MODE_GUEST:
            bad("vm_entry_controls", "IA-32e guest requires 64-bit host")


_HOST_SELECTORS = tuple((field, f"host_{name}_selector")
                        for name, field in F.HOST_SELECTOR_FIELDS.items())


def _u_host_selectors(v: Values, caps: VmxCapabilities, bad) -> None:
    for field, name in _HOST_SELECTORS:
        if v[field] & 0x7:
            bad(name, "TI/RPL bits must be zero")
    if not v[F.HOST_CS_SELECTOR]:
        bad("host_cs_selector", "must not be null")
    if not v[F.HOST_TR_SELECTOR]:
        bad("host_tr_selector", "must not be null")


_HOST_CANONICAL = ((F.HOST_FS_BASE, "host_fs_base"),
                   (F.HOST_GS_BASE, "host_gs_base"),
                   (F.HOST_TR_BASE, "host_tr_base"),
                   (F.HOST_GDTR_BASE, "host_gdtr_base"),
                   (F.HOST_IDTR_BASE, "host_idtr_base"),
                   (F.HOST_IA32_SYSENTER_ESP, "host_ia32_sysenter_esp"),
                   (F.HOST_IA32_SYSENTER_EIP, "host_ia32_sysenter_eip"),
                   (F.HOST_RIP, "host_rip"))


def _u_host_canonical(v: Values, caps: VmxCapabilities, bad) -> None:
    for field, name in _HOST_CANONICAL:
        addr = v[field]
        if _NONCANONICAL_LO <= addr < _NONCANONICAL_HI:
            bad(name, f"{addr:#x} not canonical")


def _u_host_efer(v: Values, caps: VmxCapabilities, bad) -> None:
    exit_ = v[F.VM_EXIT_CONTROLS]
    if exit_ & ExitControls.LOAD_EFER:
        efer = v[F.HOST_IA32_EFER]
        if efer & Efer.RESERVED:
            bad("host_ia32_efer", "reserved bits set")
        host64 = bool(exit_ & ExitControls.HOST_ADDR_SPACE_SIZE)
        lma = bool(efer & Efer.LMA)
        lme = bool(efer & Efer.LME)
        if lma != host64 or lme != host64:
            bad("host_ia32_efer", "LMA/LME must match host address-space size")


def _u_host_pat(v: Values, caps: VmxCapabilities, bad) -> None:
    if v[F.VM_EXIT_CONTROLS] & ExitControls.LOAD_PAT:
        pat = v[F.HOST_IA32_PAT]
        if not _pat_valid(pat):
            bad("host_ia32_pat", "invalid PAT memory type")


# --- SDM 26.3.1 — checks on guest state (performed during entry) ----------

def _u_guest_cr(v: Values, caps: VmxCapabilities, bad) -> None:
    unrestricted = bool(_effective_proc2(v) & Secondary.UNRESTRICTED_GUEST)
    cr0 = v[F.GUEST_CR0]
    cr4 = v[F.GUEST_CR4]
    cr3 = v[F.GUEST_CR3]

    if not caps.cr0_valid_for_vmx(cr0, unrestricted_guest=unrestricted):
        bad("guest_cr0", f"{cr0:#x} violates CR0 fixed bits")
    if cr0 & Cr0.PG and not cr0 & Cr0.PE:
        bad("guest_cr0", "PG=1 requires PE=1")
    if not caps.cr4_valid_for_vmx(cr4):
        bad("guest_cr4", f"{cr4:#x} violates CR4 fixed bits")

    if v[F.VM_ENTRY_CONTROLS] & EntryControls.IA32E_MODE_GUEST:
        if not cr0 & Cr0.PG:
            bad("guest_cr0", "IA-32e mode guest requires CR0.PG")
        # HARDWARE QUIRK (CVE-2023-30456): the SDM says CR4.PAE must be 1
        # here, but the CPU silently assumes it and does not fail the
        # entry. We therefore do NOT flag guest_cr4.PAE==0.
    elif cr4 & Cr4.PCIDE:
        bad("guest_cr4", "PCIDE requires IA-32e mode")

    if cr3 >> MAX_PHYSADDR_WIDTH:
        bad("guest_cr3", f"{cr3:#x} exceeds physical address width")


def _u_guest_debug(v: Values, caps: VmxCapabilities, bad) -> None:
    if v[F.VM_ENTRY_CONTROLS] & EntryControls.LOAD_DEBUG_CONTROLS:
        if v[F.GUEST_DR7] & Dr7.HIGH_RESERVED:
            bad("guest_dr7", "bits 63:32 must be zero")
        if v[F.GUEST_IA32_DEBUGCTL] & ~0x1DDF:
            bad("guest_ia32_debugctl", "reserved bits set")


def _u_guest_perf(v: Values, caps: VmxCapabilities, bad) -> None:
    if v[F.VM_ENTRY_CONTROLS] & EntryControls.LOAD_PERF_GLOBAL_CTRL:
        if v[F.GUEST_IA32_PERF_GLOBAL_CTRL] & ~0x7_0000_0003:
            bad("guest_ia32_perf_global_ctrl", "reserved bits set")


def _u_guest_bndcfgs(v: Values, caps: VmxCapabilities, bad) -> None:
    if v[F.VM_ENTRY_CONTROLS] & EntryControls.LOAD_BNDCFGS:
        bndcfgs = v[F.GUEST_IA32_BNDCFGS]
        if bndcfgs & 0xFFC:
            bad("guest_ia32_bndcfgs", "reserved bits set")
        if _NONCANONICAL_LO <= bndcfgs & ~0xFFF < _NONCANONICAL_HI:
            bad("guest_ia32_bndcfgs", "base not canonical")


def _u_guest_efer(v: Values, caps: VmxCapabilities, bad) -> None:
    entry = v[F.VM_ENTRY_CONTROLS]
    if entry & EntryControls.LOAD_EFER:
        ia32e_guest = bool(entry & EntryControls.IA32E_MODE_GUEST)
        efer = v[F.GUEST_IA32_EFER]
        if efer & Efer.RESERVED:
            bad("guest_ia32_efer", "reserved bits set")
        if bool(efer & Efer.LMA) != ia32e_guest:
            bad("guest_ia32_efer", "LMA must equal IA-32e-mode-guest control")
        if (v[F.GUEST_CR0] & Cr0.PG
                and bool(efer & Efer.LMA) != bool(efer & Efer.LME)):
            bad("guest_ia32_efer", "LMA must equal LME when paging enabled")


def _u_guest_pat(v: Values, caps: VmxCapabilities, bad) -> None:
    if (v[F.VM_ENTRY_CONTROLS] & EntryControls.LOAD_PAT
            and not _pat_valid(v[F.GUEST_IA32_PAT])):
        bad("guest_ia32_pat", "invalid PAT memory type")


def _u_guest_segments(v: Values, caps: VmxCapabilities, bad) -> None:
    """Guest segment-register checks (SDM 26.3.1.2)."""
    ia32e_guest = v[F.VM_ENTRY_CONTROLS] & EntryControls.IA32E_MODE_GUEST
    unrestricted = _effective_proc2(v) & Secondary.UNRESTRICTED_GUEST
    virtual_8086 = v[F.GUEST_RFLAGS] & Rflags.VM
    es_sel, cs_sel, ss_sel, ds_sel, fs_sel, gs_sel, ldtr_sel, tr_sel = (
        v[F.GUEST_ES_SELECTOR], v[F.GUEST_CS_SELECTOR],
        v[F.GUEST_SS_SELECTOR], v[F.GUEST_DS_SELECTOR],
        v[F.GUEST_FS_SELECTOR], v[F.GUEST_GS_SELECTOR],
        v[F.GUEST_LDTR_SELECTOR], v[F.GUEST_TR_SELECTOR])
    es_base, cs_base, ss_base, ds_base, fs_base, gs_base, ldtr_base, tr_base = (
        v[F.GUEST_ES_BASE], v[F.GUEST_CS_BASE],
        v[F.GUEST_SS_BASE], v[F.GUEST_DS_BASE],
        v[F.GUEST_FS_BASE], v[F.GUEST_GS_BASE],
        v[F.GUEST_LDTR_BASE], v[F.GUEST_TR_BASE])
    es_lim, cs_lim, ss_lim, ds_lim, fs_lim, gs_lim, ldtr_lim, tr_lim = (
        v[F.GUEST_ES_LIMIT], v[F.GUEST_CS_LIMIT],
        v[F.GUEST_SS_LIMIT], v[F.GUEST_DS_LIMIT],
        v[F.GUEST_FS_LIMIT], v[F.GUEST_GS_LIMIT],
        v[F.GUEST_LDTR_LIMIT], v[F.GUEST_TR_LIMIT])
    es_ar, cs_ar, ss_ar, ds_ar, fs_ar, gs_ar, ldtr_ar, tr_ar = (
        v[F.GUEST_ES_AR_BYTES], v[F.GUEST_CS_AR_BYTES],
        v[F.GUEST_SS_AR_BYTES], v[F.GUEST_DS_AR_BYTES],
        v[F.GUEST_FS_AR_BYTES], v[F.GUEST_GS_AR_BYTES],
        v[F.GUEST_LDTR_AR_BYTES], v[F.GUEST_TR_AR_BYTES])

    if virtual_8086:
        # In v8086 mode every segment but LDTR and TR must look like
        # base = selector<<4, limit 0xFFFF, AR 0xF3.
        for name, sel, base, limit, ar in (
                ("es", es_sel, es_base, es_lim, es_ar),
                ("cs", cs_sel, cs_base, cs_lim, cs_ar),
                ("ss", ss_sel, ss_base, ss_lim, ss_ar),
                ("ds", ds_sel, ds_base, ds_lim, ds_ar),
                ("fs", fs_sel, fs_base, fs_lim, fs_ar),
                ("gs", gs_sel, gs_base, gs_lim, gs_ar)):
            if base != (sel << 4) & 0xFFFF0:
                bad(f"guest_{name}_base", "v8086 base must equal selector<<4")
            if limit != 0xFFFF:
                bad(f"guest_{name}_limit", "v8086 limit must be 0xFFFF")
            if ar != 0xF3:
                bad(f"guest_{name}_ar_bytes", "v8086 AR must be 0xF3")
        return

    if tr_ar & _AR_UNUSABLE:
        bad("guest_tr_ar_bytes", "TR must be usable")
    else:
        tr_type = tr_ar & 0xF
        if ia32e_guest and tr_type != 0xB:
            bad("guest_tr_ar_bytes", "TR type must be 64-bit busy TSS")
        if not ia32e_guest and tr_type != 0x3 and tr_type != 0xB:
            bad("guest_tr_ar_bytes", "TR type must be busy TSS")
        if tr_ar & _AR_S:
            bad("guest_tr_ar_bytes", "TR must be a system descriptor")
        if not tr_ar & _AR_P:
            bad("guest_tr_ar_bytes", "TR must be present")
        if not granularity_consistent(tr_lim, tr_ar):
            bad("guest_tr_limit", "limit/granularity inconsistent")
    if tr_sel & 0x4:
        bad("guest_tr_selector", "TI bit must be zero")

    ldtr_usable = not ldtr_ar & _AR_UNUSABLE
    if ldtr_usable:
        if (ldtr_ar & 0xF) != 0x2:
            bad("guest_ldtr_ar_bytes", "LDTR type must be LDT")
        if ldtr_ar & _AR_S:
            bad("guest_ldtr_ar_bytes", "LDTR must be a system descriptor")
        if not ldtr_ar & _AR_P:
            bad("guest_ldtr_ar_bytes", "LDTR must be present")
        if ldtr_sel & 0x4:
            bad("guest_ldtr_selector", "TI bit must be zero")
        if not granularity_consistent(ldtr_lim, ldtr_ar):
            bad("guest_ldtr_limit", "limit/granularity inconsistent")

    if cs_ar & _AR_UNUSABLE:
        bad("guest_cs_ar_bytes", "CS must be usable")
        return

    cs_type = cs_ar & 0xF
    if not (cs_ar & _AR_S and cs_type & 0x8):
        if not (unrestricted and cs_type == 0x3):
            bad("guest_cs_ar_bytes", "CS must be a code segment")
    if not cs_ar & _AR_S:
        bad("guest_cs_ar_bytes", "CS must be a code/data descriptor")
    if not cs_ar & _AR_P:
        bad("guest_cs_ar_bytes", "CS must be present")
    if cs_ar & _AR_L and cs_ar & AccessRights.DB:
        bad("guest_cs_ar_bytes", "CS.L and CS.D/B may not both be set")
    # (IA-32e guest with compatibility-mode CS is fine: nothing to flag.)
    if not granularity_consistent(cs_lim, cs_ar):
        bad("guest_cs_limit", "limit/granularity inconsistent")

    # CS/SS privilege interaction (DPL is AR bits 6:5).
    ss_usable = not ss_ar & _AR_UNUSABLE
    cs_dpl = (cs_ar >> 5) & 3
    ss_dpl = (ss_ar >> 5) & 3
    if cs_type == 0x9 or cs_type == 0xB:  # non-conforming
        if ss_usable and cs_dpl != ss_dpl:
            bad("guest_cs_ar_bytes", "non-conforming CS.DPL must equal SS.DPL")
    elif cs_type == 0xD or cs_type == 0xF:  # conforming
        if ss_usable and cs_dpl > ss_dpl:
            bad("guest_cs_ar_bytes", "conforming CS.DPL must be <= SS.DPL")
    elif cs_type == 0x3 and cs_dpl != 0:
        bad("guest_cs_ar_bytes", "type-3 CS requires DPL 0")

    if ss_usable:
        ss_type = ss_ar & 0xF
        if ss_type != 0x3 and ss_type != 0x7:
            bad("guest_ss_ar_bytes", "SS must be writable data")
        if not ss_ar & _AR_P:
            bad("guest_ss_ar_bytes", "SS must be present")
        if not granularity_consistent(ss_lim, ss_ar):
            bad("guest_ss_limit", "limit/granularity inconsistent")
        ss_rpl = ss_sel & 3
        if not unrestricted and ss_rpl != cs_sel & 3:
            bad("guest_ss_selector", "SS.RPL must equal CS.RPL")
        if ss_dpl != ss_rpl and not unrestricted and cs_type != 0x3:
            bad("guest_ss_ar_bytes", "SS.DPL must equal SS.RPL")

    for name, ar, limit in (("ds", ds_ar, ds_lim), ("es", es_ar, es_lim),
                            ("fs", fs_ar, fs_lim), ("gs", gs_ar, gs_lim)):
        if ar & _AR_UNUSABLE:
            continue
        if not ar & _AR_S:
            bad(f"guest_{name}_ar_bytes", "must be a code/data descriptor")
        if not ar & 1:
            bad(f"guest_{name}_ar_bytes", "must be accessed")
        if ar & _AR_S and ar & 0x8 and not ar & 2:
            bad(f"guest_{name}_ar_bytes", "code segment must be readable")
        if not ar & _AR_P:
            bad(f"guest_{name}_ar_bytes", "must be present")
        if not granularity_consistent(limit, ar):
            bad(f"guest_{name}_limit", "limit/granularity inconsistent")
        if ar & _AR_RESERVED:
            bad(f"guest_{name}_ar_bytes", "reserved AR bits set")

    if cs_ar & _AR_RESERVED:
        bad("guest_cs_ar_bytes", "reserved AR bits set")
    if ss_usable and ss_ar & _AR_RESERVED:
        bad("guest_ss_ar_bytes", "reserved AR bits set")
    if not tr_ar & _AR_UNUSABLE and tr_ar & _AR_RESERVED:
        bad("guest_tr_ar_bytes", "reserved AR bits set")
    if ldtr_usable and ldtr_ar & _AR_RESERVED:
        bad("guest_ldtr_ar_bytes", "reserved AR bits set")

    # Base canonicality in 64-bit contexts.
    if _NONCANONICAL_LO <= tr_base < _NONCANONICAL_HI:
        bad("guest_tr_base", "base not canonical")
    if _NONCANONICAL_LO <= fs_base < _NONCANONICAL_HI:
        bad("guest_fs_base", "base not canonical")
    if _NONCANONICAL_LO <= gs_base < _NONCANONICAL_HI:
        bad("guest_gs_base", "base not canonical")
    if ldtr_usable and _NONCANONICAL_LO <= ldtr_base < _NONCANONICAL_HI:
        bad("guest_ldtr_base", "base not canonical")
    if cs_base >> 32:
        bad("guest_cs_base", "bits 63:32 must be zero")
    if ss_usable and ss_base >> 32:
        bad("guest_ss_base", "bits 63:32 must be zero")
    if not ds_ar & _AR_UNUSABLE and ds_base >> 32:
        bad("guest_ds_base", "bits 63:32 must be zero")
    if not es_ar & _AR_UNUSABLE and es_base >> 32:
        bad("guest_es_base", "bits 63:32 must be zero")


def _u_guest_dtables(v: Values, caps: VmxCapabilities, bad) -> None:
    if _NONCANONICAL_LO <= v[F.GUEST_GDTR_BASE] < _NONCANONICAL_HI:
        bad("guest_gdtr_base", "base not canonical")
    if _NONCANONICAL_LO <= v[F.GUEST_IDTR_BASE] < _NONCANONICAL_HI:
        bad("guest_idtr_base", "base not canonical")
    if v[F.GUEST_GDTR_LIMIT] & ~0xFFFF:
        bad("guest_gdtr_limit", "bits 31:16 must be zero")
    if v[F.GUEST_IDTR_LIMIT] & ~0xFFFF:
        bad("guest_idtr_limit", "bits 31:16 must be zero")


def _u_guest_rip(v: Values, caps: VmxCapabilities, bad) -> None:
    ia32e_guest = v[F.VM_ENTRY_CONTROLS] & EntryControls.IA32E_MODE_GUEST
    rip = v[F.GUEST_RIP]
    if not ia32e_guest or not v[F.GUEST_CS_AR_BYTES] & _AR_L:
        if rip >> 32:
            bad("guest_rip", "bits 63:32 must be zero outside 64-bit code")
    elif _NONCANONICAL_LO <= rip < _NONCANONICAL_HI:
        bad("guest_rip", "not canonical")


def _u_guest_rflags(v: Values, caps: VmxCapabilities, bad) -> None:
    rflags = v[F.GUEST_RFLAGS]
    if rflags & Rflags.RESERVED or not rflags & Rflags.FIXED_1:
        bad("guest_rflags", "fixed/reserved bit violation")
    if rflags & Rflags.VM and (v[F.VM_ENTRY_CONTROLS] & EntryControls.IA32E_MODE_GUEST
                               or not v[F.GUEST_CR0] & Cr0.PE):
        bad("guest_rflags", "VM flag invalid in IA-32e mode or without PE")
    # A valid external interrupt (event type 0) needs RFLAGS.IF.
    info = v[F.VM_ENTRY_INTR_INFO_FIELD]
    if info & _INTR_VALID and not info & _INTR_TYPE and not rflags & Rflags.IF:
        bad("guest_rflags", "IF must be set to inject external interrupt")


def _u_guest_non_register(v: Values, caps: VmxCapabilities, bad) -> None:
    activity = v[F.GUEST_ACTIVITY_STATE]
    if activity > ActivityState.WAIT_FOR_SIPI:
        bad("guest_activity_state", f"unsupported value {activity}")
    interruptibility = v[F.GUEST_INTERRUPTIBILITY_INFO]
    if interruptibility & Interruptibility.RESERVED:
        bad("guest_interruptibility_info", "reserved bits set")
    sti = interruptibility & Interruptibility.STI_BLOCKING
    movss = interruptibility & Interruptibility.MOV_SS_BLOCKING
    if sti and movss:
        bad("guest_interruptibility_info", "STI and MOV-SS blocking both set")
    if activity == ActivityState.HLT and (sti or movss):
        bad("guest_activity_state", "HLT state with blocking-by-STI/MOV-SS")
    if (activity == ActivityState.SHUTDOWN or activity == ActivityState.WAIT_FOR_SIPI) \
            and v[F.VM_ENTRY_INTR_INFO_FIELD] & _INTR_VALID:
        bad("guest_activity_state",
            "event injection invalid in shutdown/wait-for-SIPI")
    if sti and not v[F.GUEST_RFLAGS] & Rflags.IF:
        bad("guest_interruptibility_info", "STI blocking requires RFLAGS.IF")


def _u_guest_pending_dbg(v: Values, caps: VmxCapabilities, bad) -> None:
    if v[F.GUEST_PENDING_DBG_EXCEPTIONS] & ~0x1600F:
        bad("guest_pending_dbg_exceptions", "reserved bits set")


def _u_guest_link_ptr(v: Values, caps: VmxCapabilities, bad) -> None:
    link = v[F.VMCS_LINK_POINTER]
    if link != (1 << 64) - 1 and link & _BAD_PAGE_ADDR:
        bad("vmcs_link_pointer", f"bad shadow-VMCS pointer {link:#x}")


_PDPTES = ((F.GUEST_PDPTE0, "guest_pdpte0"), (F.GUEST_PDPTE1, "guest_pdpte1"),
           (F.GUEST_PDPTE2, "guest_pdpte2"), (F.GUEST_PDPTE3, "guest_pdpte3"))


def _u_guest_pdptes(v: Values, caps: VmxCapabilities, bad) -> None:
    if (not v[F.VM_ENTRY_CONTROLS] & EntryControls.IA32E_MODE_GUEST
            and v[F.GUEST_CR0] & Cr0.PG and v[F.GUEST_CR4] & Cr4.PAE):
        for field, name in _PDPTES:
            pdpte = v[field]
            if pdpte & 1 and pdpte & 0x1E6:  # reserved bits in present PDPTE
                bad(name, "reserved bits set in present PDPTE")


def _u_guest_sysenter(v: Values, caps: VmxCapabilities, bad) -> None:
    if _NONCANONICAL_LO <= v[F.GUEST_SYSENTER_ESP] < _NONCANONICAL_HI:
        bad("guest_sysenter_esp", "not canonical")
    if _NONCANONICAL_LO <= v[F.GUEST_SYSENTER_EIP] < _NONCANONICAL_HI:
        bad("guest_sysenter_eip", "not canonical")


# --------------------------------------------------------------------------
# Unit registry and the field->check dependency index
# --------------------------------------------------------------------------

_CONTROL_ENCODINGS = frozenset({
    F.PIN_BASED_VM_EXEC_CONTROL, F.CPU_BASED_VM_EXEC_CONTROL,
    F.SECONDARY_VM_EXEC_CONTROL, F.VM_ENTRY_CONTROLS, F.VM_EXIT_CONTROLS,
})

_PROC_PAIR = frozenset({F.CPU_BASED_VM_EXEC_CONTROL, F.SECONDARY_VM_EXEC_CONTROL})

_SEGMENT_ENCODINGS = frozenset(
    set(F.SEGMENT_SELECTOR_FIELDS.values())
    | set(F.SEGMENT_BASE_FIELDS.values())
    | set(F.SEGMENT_LIMIT_FIELDS.values())
    | set(F.SEGMENT_AR_FIELDS.values()))


def _unit(name: str, stage: CheckStage, reads, fn) -> CheckUnit:
    return CheckUnit(name, stage, frozenset(reads), fn)


UNITS: tuple[CheckUnit, ...] = (
    # SDM 26.2.1, in architectural order.
    _unit("ctl_allowed", CheckStage.CONTROLS, _CONTROL_ENCODINGS, _u_ctl_allowed),
    _unit("ctl_cr3_count", CheckStage.CONTROLS,
          {F.CR3_TARGET_COUNT}, _u_ctl_cr3_count),
    _unit("ctl_io_bitmaps", CheckStage.CONTROLS,
          {F.CPU_BASED_VM_EXEC_CONTROL, F.IO_BITMAP_A, F.IO_BITMAP_B},
          _u_ctl_io_bitmaps),
    _unit("ctl_msr_bitmap", CheckStage.CONTROLS,
          {F.CPU_BASED_VM_EXEC_CONTROL, F.MSR_BITMAP}, _u_ctl_msr_bitmap),
    _unit("ctl_tpr_shadow", CheckStage.CONTROLS,
          _PROC_PAIR | {F.VIRTUAL_APIC_PAGE_ADDR, F.TPR_THRESHOLD},
          _u_ctl_tpr_shadow),
    _unit("ctl_nmi", CheckStage.CONTROLS,
          {F.PIN_BASED_VM_EXEC_CONTROL, F.CPU_BASED_VM_EXEC_CONTROL}, _u_ctl_nmi),
    _unit("ctl_apic_access", CheckStage.CONTROLS,
          _PROC_PAIR | {F.APIC_ACCESS_ADDR}, _u_ctl_apic_access),
    _unit("ctl_posted_intr", CheckStage.CONTROLS,
          _PROC_PAIR | {F.PIN_BASED_VM_EXEC_CONTROL, F.VM_EXIT_CONTROLS,
                        F.POSTED_INTR_NV, F.POSTED_INTR_DESC_ADDR},
          _u_ctl_posted_intr),
    _unit("ctl_vpid", CheckStage.CONTROLS,
          _PROC_PAIR | {F.VIRTUAL_PROCESSOR_ID}, _u_ctl_vpid),
    _unit("ctl_ept", CheckStage.CONTROLS,
          _PROC_PAIR | {F.EPT_POINTER}, _u_ctl_ept),
    _unit("ctl_unrestricted", CheckStage.CONTROLS, _PROC_PAIR, _u_ctl_unrestricted),
    _unit("ctl_pml", CheckStage.CONTROLS,
          _PROC_PAIR | {F.PML_ADDRESS}, _u_ctl_pml),
    _unit("ctl_ve", CheckStage.CONTROLS,
          _PROC_PAIR | {F.VE_INFORMATION_ADDRESS}, _u_ctl_ve),
    _unit("ctl_vmfunc", CheckStage.CONTROLS,
          _PROC_PAIR | {F.VM_FUNCTION_CONTROL, F.EPTP_LIST_ADDRESS},
          _u_ctl_vmfunc),
    _unit("ctl_shadow_vmcs", CheckStage.CONTROLS,
          _PROC_PAIR | {F.VMREAD_BITMAP, F.VMWRITE_BITMAP}, _u_ctl_shadow_vmcs),
    _unit("ctl_preemption", CheckStage.CONTROLS,
          {F.PIN_BASED_VM_EXEC_CONTROL, F.VM_EXIT_CONTROLS}, _u_ctl_preemption),
    _unit("ctl_msr_areas", CheckStage.CONTROLS,
          {F.VM_EXIT_MSR_STORE_COUNT, F.VM_EXIT_MSR_STORE_ADDR,
           F.VM_EXIT_MSR_LOAD_COUNT, F.VM_EXIT_MSR_LOAD_ADDR,
           F.VM_ENTRY_MSR_LOAD_COUNT, F.VM_ENTRY_MSR_LOAD_ADDR},
          _u_ctl_msr_areas),
    _unit("ctl_event_injection", CheckStage.CONTROLS,
          {F.VM_ENTRY_INTR_INFO_FIELD, F.VM_ENTRY_EXCEPTION_ERROR_CODE},
          _u_ctl_event_injection),
    _unit("ctl_smm", CheckStage.CONTROLS, {F.VM_ENTRY_CONTROLS}, _u_ctl_smm),
    # SDM 26.2.2 / 26.2.3.
    _unit("host_cr", CheckStage.HOST_STATE,
          {F.HOST_CR0, F.HOST_CR4, F.HOST_CR3}, _u_host_cr),
    _unit("host_addr_space", CheckStage.HOST_STATE,
          {F.VM_EXIT_CONTROLS, F.VM_ENTRY_CONTROLS, F.HOST_CR4},
          _u_host_addr_space),
    _unit("host_selectors", CheckStage.HOST_STATE,
          set(F.HOST_SELECTOR_FIELDS.values())
          | {F.HOST_CS_SELECTOR, F.HOST_TR_SELECTOR}, _u_host_selectors),
    _unit("host_canonical", CheckStage.HOST_STATE,
          {F.HOST_FS_BASE, F.HOST_GS_BASE, F.HOST_TR_BASE, F.HOST_GDTR_BASE,
           F.HOST_IDTR_BASE, F.HOST_IA32_SYSENTER_ESP,
           F.HOST_IA32_SYSENTER_EIP, F.HOST_RIP}, _u_host_canonical),
    _unit("host_efer", CheckStage.HOST_STATE,
          {F.VM_EXIT_CONTROLS, F.HOST_IA32_EFER}, _u_host_efer),
    _unit("host_pat", CheckStage.HOST_STATE,
          {F.VM_EXIT_CONTROLS, F.HOST_IA32_PAT}, _u_host_pat),
    # SDM 26.3.1.
    _unit("guest_cr", CheckStage.GUEST_STATE,
          _PROC_PAIR | {F.VM_ENTRY_CONTROLS, F.GUEST_CR0, F.GUEST_CR4,
                        F.GUEST_CR3}, _u_guest_cr),
    _unit("guest_debug", CheckStage.GUEST_STATE,
          {F.VM_ENTRY_CONTROLS, F.GUEST_DR7, F.GUEST_IA32_DEBUGCTL},
          _u_guest_debug),
    _unit("guest_perf", CheckStage.GUEST_STATE,
          {F.VM_ENTRY_CONTROLS, F.GUEST_IA32_PERF_GLOBAL_CTRL}, _u_guest_perf),
    _unit("guest_bndcfgs", CheckStage.GUEST_STATE,
          {F.VM_ENTRY_CONTROLS, F.GUEST_IA32_BNDCFGS}, _u_guest_bndcfgs),
    _unit("guest_efer", CheckStage.GUEST_STATE,
          {F.VM_ENTRY_CONTROLS, F.GUEST_IA32_EFER, F.GUEST_CR0}, _u_guest_efer),
    _unit("guest_pat", CheckStage.GUEST_STATE,
          {F.VM_ENTRY_CONTROLS, F.GUEST_IA32_PAT}, _u_guest_pat),
    _unit("guest_segments", CheckStage.GUEST_STATE,
          _PROC_PAIR | _SEGMENT_ENCODINGS
          | {F.VM_ENTRY_CONTROLS, F.GUEST_RFLAGS}, _u_guest_segments),
    _unit("guest_dtables", CheckStage.GUEST_STATE,
          {F.GUEST_GDTR_BASE, F.GUEST_IDTR_BASE, F.GUEST_GDTR_LIMIT,
           F.GUEST_IDTR_LIMIT}, _u_guest_dtables),
    _unit("guest_rip", CheckStage.GUEST_STATE,
          {F.VM_ENTRY_CONTROLS, F.GUEST_RIP, F.GUEST_CS_AR_BYTES}, _u_guest_rip),
    _unit("guest_rflags", CheckStage.GUEST_STATE,
          {F.VM_ENTRY_CONTROLS, F.GUEST_RFLAGS, F.GUEST_CR0,
           F.VM_ENTRY_INTR_INFO_FIELD}, _u_guest_rflags),
    _unit("guest_non_register", CheckStage.GUEST_STATE,
          {F.GUEST_RFLAGS, F.VM_ENTRY_INTR_INFO_FIELD, F.GUEST_ACTIVITY_STATE,
           F.GUEST_INTERRUPTIBILITY_INFO}, _u_guest_non_register),
    _unit("guest_pending_dbg", CheckStage.GUEST_STATE,
          {F.GUEST_PENDING_DBG_EXCEPTIONS}, _u_guest_pending_dbg),
    _unit("guest_link_ptr", CheckStage.GUEST_STATE,
          {F.VMCS_LINK_POINTER}, _u_guest_link_ptr),
    _unit("guest_pdptes", CheckStage.GUEST_STATE,
          {F.VM_ENTRY_CONTROLS, F.GUEST_CR0, F.GUEST_CR4, F.GUEST_PDPTE0,
           F.GUEST_PDPTE1, F.GUEST_PDPTE2, F.GUEST_PDPTE3}, _u_guest_pdptes),
    _unit("guest_sysenter", CheckStage.GUEST_STATE,
          {F.GUEST_SYSENTER_ESP, F.GUEST_SYSENTER_EIP}, _u_guest_sysenter),
)

#: Each stage's units as a ``UNITS[start:stop]`` span, in check order.
#: ``UNITS`` lists the units stage by stage, so each span is contiguous.
_STAGE_SPANS: dict[CheckStage, tuple[int, int]] = {}
for _i, _u in enumerate(UNITS):
    _STAGE_SPANS[_u.stage] = (_STAGE_SPANS.get(_u.stage, (_i,))[0], _i + 1)
if sum(stop - start for start, stop in _STAGE_SPANS.values()) != len(UNITS):
    raise AssertionError("UNITS must list the units stage by stage")

#: The dependency index: field encoding -> indices of units reading it.
FIELD_TO_CHECKS: dict[int, tuple[int, ...]] = {}
for _i, _u in enumerate(UNITS):
    for _enc in _u.reads:
        FIELD_TO_CHECKS.setdefault(_enc, ())
        FIELD_TO_CHECKS[_enc] += (_i,)
del _i, _u, _enc


class ReadTraceActiveError(RuntimeError):
    """An entry check met a structure whose reads are being traced.

    The check units read a ``Vmcs``'s value table directly, not through
    ``Vmcs.read``, so a read trace (``perf.memoized_check`` records one
    while its computation runs) would miss every field they read, and a
    memo built on it would never be invalidated by them.
    """


def _untraced(vmcs: Vmcs) -> None:
    """Raise :class:`ReadTraceActiveError` when *vmcs*'s reads are traced."""
    if vmcs._read_trace is not None:
        raise ReadTraceActiveError(
            "VM-entry checks read field values directly; they cannot run "
            "on a structure with an active read trace")


def _run_units(units: Sequence[CheckUnit], vmcs: Vmcs,
               caps: VmxCapabilities) -> list[tuple[Violation, ...]]:
    """Each of *units*' violation tuples, in order, through one collector."""
    _untraced(vmcs)
    values = vmcs._values
    results: list[tuple[Violation, ...]] = []
    out: list[Violation] = []
    stage = CheckStage.CONTROLS

    def bad(field: str, reason: str) -> None:
        out.append(Violation(stage, field, reason))

    for unit in units:
        stage = unit.stage
        unit.fn(values, caps, bad)
        if out:
            results.append(tuple(out))
            out.clear()
        else:
            results.append(())
    return results


def _run_unit(unit: CheckUnit, vmcs: Vmcs,
              caps: VmxCapabilities) -> tuple[Violation, ...]:
    return _run_units((unit,), vmcs, caps)[0]


def _run_stage(stage: CheckStage, vmcs: Vmcs,
               caps: VmxCapabilities) -> list[Violation]:
    start, stop = _STAGE_SPANS.get(stage, (0, 0))
    return [v for r in _run_units(UNITS[start:stop], vmcs, caps) for v in r]


# --------------------------------------------------------------------------
# Public full-recompute entry points (historical signatures)
# --------------------------------------------------------------------------


def check_vm_controls(vmcs: Vmcs, caps: VmxCapabilities) -> list[Violation]:
    """Checks on VM-execution, VM-exit, and VM-entry control fields."""
    return _run_stage(CheckStage.CONTROLS, vmcs, caps)


def check_host_state(vmcs: Vmcs, caps: VmxCapabilities) -> list[Violation]:
    """Checks on the host-state area (VMfailValid error 8 when violated)."""
    return _run_stage(CheckStage.HOST_STATE, vmcs, caps)


def check_guest_state(vmcs: Vmcs, caps: VmxCapabilities) -> list[Violation]:
    """Checks on the guest-state area (failed entry, reason 33).

    Includes the hardware quirk central to CVE-2023-30456: when the
    "IA-32e mode guest" entry control is 1, hardware *assumes* CR4.PAE
    rather than checking it, so that combination passes here.
    """
    return _run_stage(CheckStage.GUEST_STATE, vmcs, caps)


# --------------------------------------------------------------------------
# SDM 26.4 — MSR-load area checks (performed after guest-state load)
# --------------------------------------------------------------------------

def check_msr_load_area(entries: list[MsrEntry]) -> list[Violation]:
    """Validate a VM-entry MSR-load area; failures yield exit reason 34."""
    v: list[Violation] = []
    for slot, entry in enumerate(entries):
        if entry.reserved:
            v.append(Violation(CheckStage.MSR_LOAD, f"msr_load[{slot}]",
                               "reserved dword must be zero"))
        if entry.index in MSR.MSR_LOAD_FORBIDDEN:
            v.append(Violation(CheckStage.MSR_LOAD, f"msr_load[{slot}]",
                               f"MSR {entry.index:#x} may not be loaded here"))
        if entry.index in MSR.CANONICAL_MSRS and not is_canonical(entry.value):
            v.append(Violation(CheckStage.MSR_LOAD, f"msr_load[{slot}]",
                               f"non-canonical value {entry.value:#x} "
                               f"for MSR {entry.index:#x}"))
    return v


def check_all(vmcs: Vmcs, caps: VmxCapabilities,
              msr_entries: list[MsrEntry] | None = None) -> list[Violation]:
    """Run every entry-check group in architectural order.

    Hardware stops at the first failing *group*; we mirror that: control
    violations suppress host checks, and so on, matching what an L1
    hypervisor can observe.
    """
    violations = check_vm_controls(vmcs, caps)
    if violations:
        return violations
    violations = check_host_state(vmcs, caps)
    if violations:
        return violations
    violations = check_guest_state(vmcs, caps)
    if violations:
        return violations
    if msr_entries:
        violations = check_msr_load_area(msr_entries)
    return violations


# --------------------------------------------------------------------------
# Incremental checking over the dependency index
# --------------------------------------------------------------------------

#: Memo key under which per-unit results live on the Vmcs.
_MEMO_KEY = "entry_checks"

#: The spans of the stages ``check_all`` runs, in order.
_ORDERED_SPANS = tuple(_STAGE_SPANS[stage] for stage in (
    CheckStage.CONTROLS, CheckStage.HOST_STATE, CheckStage.GUEST_STATE))


class IncrementalChecker:
    """Entry checks that re-run only units whose input fields changed.

    Per-unit results are memoized on the :class:`Vmcs` itself (so they
    travel with ``copy()`` snapshots — the oracle pre-warms the
    persistent state and every per-attempt copy starts with a warm
    cache), validated against the structure's change journal, and
    re-run per ``FIELD_TO_CHECKS`` when a read field changed. Equivalent
    to :func:`check_all` by construction — units are pure and ordered —
    and pinned by tests/unit/test_incremental_equivalence.py.

    Memo entries embed the capability object they were computed under,
    so a structure checked under different capability sets never reuses
    a stale result.
    """

    def __init__(self, caps: VmxCapabilities) -> None:
        self.caps = caps
        #: One-slot cache keyed by per-unit results identity: the
        #: assembled first-failing-stage list is a pure function of the
        #: results tuple, which is reused by identity across clean
        #: revalidations (and across ``copy()`` snapshots sharing the
        #: memo entry), so repeated ``check_all`` of unchanged
        #: structures skips the assembly loop too.
        self._last: tuple | None = None

    def results(self, vmcs: Vmcs) -> tuple[tuple[Violation, ...], ...]:
        """Per-unit violation tuples, reusing unaffected cached units.

        Raises :class:`ReadTraceActiveError` if *vmcs*'s reads are traced.
        """
        _untraced(vmcs)
        caps = self.caps
        gen = vmcs.generation
        entry = vmcs.memo_get(_MEMO_KEY)
        if entry is not None and (entry[2] is caps or entry[2] == caps):
            changed = vmcs.changes_since(entry[0])
            if changed is not None:
                results = entry[1]
                if changed:
                    dirty: set[int] = set()
                    for enc in changed:
                        dirty.update(FIELD_TO_CHECKS.get(enc, ()))
                    if dirty:
                        fresh = list(results)
                        rerun = sorted(dirty)
                        for i, result in zip(rerun, _run_units(
                                [UNITS[i] for i in rerun], vmcs, caps)):
                            fresh[i] = result
                        results = tuple(fresh)
                if entry[0] != gen or results is not entry[1]:
                    vmcs.memo_put(_MEMO_KEY, (gen, results, caps))
                return results
        results = tuple(_run_units(UNITS, vmcs, caps))
        vmcs.memo_put(_MEMO_KEY, (gen, results, caps))
        return results

    def check_all(self, vmcs: Vmcs,
                  msr_entries: list[MsrEntry] | None = None) -> list[Violation]:
        """Drop-in incremental equivalent of module-level ``check_all``.

        The returned list may be shared between calls; callers must not
        mutate it.
        """
        results = self.results(vmcs)
        cached = self._last
        if cached is not None and cached[0] is results and not msr_entries:
            return cached[1]
        out: list[Violation] = []
        for start, stop in _ORDERED_SPANS:
            stage_results = results[start:stop]
            if any(stage_results):
                out = [v for r in stage_results for v in r]
                break
        if not out and msr_entries:
            return check_msr_load_area(msr_entries)
        if not msr_entries:
            self._last = (results, out)
        return out
