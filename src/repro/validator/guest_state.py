"""``VMenterLoadCheckGuestState()`` analogue.

Rounds the guest-state area: RFLAGS, control registers, segment
registers, GDT/IDT/LDT/TR, MSR images, activity state, and
interruptibility state. This is the largest of the three Bochs-derived
routines (the paper counts ~2,000 of the validator's 2,500 lines here).

Cross-group corrections follow the paper's §4.3 description: the guest
group is rounded *after* controls and host state, reading the
already-rounded entry controls (e.g. "IA-32e mode guest") to decide how
CR0/CR4/EFER must be fixed — including the LME→PAE forcing the paper
gives as its worked example.
"""

from __future__ import annotations

from repro.arch.registers import Cr0, Cr4, Efer, Rflags
from repro.arch.segments import AccessRights
from repro.validator.base import Change, Rounder
from repro.validator.host_state import canonicalize, round_pat
from repro.vmx import fields as F
from repro.vmx.controls import (
    ActivityState,
    EntryControls,
    Interruptibility,
    ProcBased,
    Secondary,
)
from repro.vmx.msr_caps import VmxCapabilities
from repro.vmx.vmcs import Vmcs

_PHYS_MASK = (1 << 46) - 1

#: IA32_DEBUGCTL bits a VM entry may load (SDM 26.3.1.1).
DEBUGCTL_VALID_BITS = 0x1DDF
#: IA32_PERF_GLOBAL_CTRL: two programmable + three fixed counters.
PERF_GLOBAL_CTRL_VALID_BITS = 0x7_0000_0003
#: IA32_BNDCFGS: EN + BNDPRESERVE + canonical base above bit 12.
BNDCFGS_RESERVED_BITS = 0xFFC


def _round_guest_msr_images(r: Rounder, entry: int) -> None:
    """Round the guest MSR-image fields gated by VM-entry controls."""
    if entry & EntryControls.LOAD_PERF_GLOBAL_CTRL:
        r.force(F.GUEST_IA32_PERF_GLOBAL_CTRL,
                r.read(F.GUEST_IA32_PERF_GLOBAL_CTRL) & PERF_GLOBAL_CTRL_VALID_BITS,
                "PERF_GLOBAL_CTRL reserved bits zero")
    else:
        r.force(F.GUEST_IA32_PERF_GLOBAL_CTRL, 0,
                "PERF_GLOBAL_CTRL ignored without its load control")
    if entry & EntryControls.LOAD_BNDCFGS:
        bndcfgs = r.read(F.GUEST_IA32_BNDCFGS) & ~BNDCFGS_RESERVED_BITS
        r.force(F.GUEST_IA32_BNDCFGS, canonicalize(bndcfgs),
                "BNDCFGS reserved bits zero, base canonical")
    else:
        r.force(F.GUEST_IA32_BNDCFGS, 0, "BNDCFGS ignored without its load control")
    if entry & EntryControls.LOAD_RTIT_CTL:
        r.force(F.GUEST_IA32_RTIT_CTL, r.read(F.GUEST_IA32_RTIT_CTL) & 0x1,
                "RTIT_CTL restricted to TraceEn")
    else:
        r.force(F.GUEST_IA32_RTIT_CTL, 0, "RTIT_CTL ignored without its load control")
    if entry & EntryControls.LOAD_PKRS:
        r.force(F.GUEST_IA32_PKRS, r.read(F.GUEST_IA32_PKRS) & 0xFFFFFFFF,
                "PKRS bits 63:32 zero")
    else:
        r.force(F.GUEST_IA32_PKRS, 0, "PKRS ignored without its load control")
    if entry & EntryControls.LOAD_CET_STATE:
        r.force(F.GUEST_IA32_S_CET, canonicalize(r.read(F.GUEST_IA32_S_CET) & ~0x3C),
                "S_CET reserved bits zero")
    else:
        r.force(F.GUEST_IA32_S_CET, 0, "CET state ignored without its load control")
    # No VM-entry control governs LBR_CTL on the parts we model.
    r.force(F.GUEST_IA32_LBR_CTL, 0, "LBR_CTL unsupported")
    # SMBASE is meaningful only for entries to SMM, which are rounded away.
    r.force(F.GUEST_SMBASE, 0, "SMBASE ignored outside SMM")


def _round_limit_granularity(limit: int, ar: int) -> tuple[int, int]:
    """Fix the SDM limit/granularity consistency rule by adjusting AR.G."""
    if limit & 0xFFF00000:
        ar |= AccessRights.G
        if (limit & 0xFFF) != 0xFFF:
            limit |= 0xFFF
    elif (limit & 0xFFF) != 0xFFF:
        ar &= ~AccessRights.G
    return limit, ar


def vmenter_load_check_guest_state(vmcs: Vmcs, caps: VmxCapabilities) -> list[Change]:
    """Round guest-state fields toward validity; return the changes."""
    r = Rounder(vmcs)

    entry = r.read(F.VM_ENTRY_CONTROLS)
    proc = r.read(F.CPU_BASED_VM_EXEC_CONTROL)
    proc2 = r.read(F.SECONDARY_VM_EXEC_CONTROL)
    effective_proc2 = proc2 if proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS else 0
    unrestricted = bool(effective_proc2 & Secondary.UNRESTRICTED_GUEST)
    ia32e_guest = bool(entry & EntryControls.IA32E_MODE_GUEST)

    # --- control registers ---------------------------------------------------
    cr0 = r.read(F.GUEST_CR0)
    fixed0 = caps.cr0_fixed0
    if unrestricted:
        fixed0 &= ~0x80000001  # PE/PG exempt under unrestricted guest
    cr0 = (cr0 | fixed0) & caps.cr0_fixed1
    if cr0 & Cr0.PG:
        cr0 |= Cr0.PE
    if cr0 & Cr0.NW and not cr0 & Cr0.CD:
        cr0 &= ~Cr0.NW
    if ia32e_guest:
        cr0 |= Cr0.PG | Cr0.PE
    r.force(F.GUEST_CR0, cr0, "guest CR0 fixed bits and PG/PE rules")

    cr4 = (r.read(F.GUEST_CR4) | caps.cr4_fixed0) & caps.cr4_fixed1
    if ia32e_guest:
        # Paper §4.3 worked example: LME set while CR4.PAE unset — the
        # validator forces PAE to 1 to satisfy architectural constraints.
        cr4 |= Cr4.PAE
    else:
        cr4 &= ~Cr4.PCIDE
    r.force(F.GUEST_CR4, cr4, "guest CR4 fixed bits / PAE for IA-32e")

    r.force(F.GUEST_CR3, r.read(F.GUEST_CR3) & _PHYS_MASK, "guest CR3 width")
    if entry & EntryControls.LOAD_DEBUG_CONTROLS:
        r.force(F.GUEST_DR7, r.read(F.GUEST_DR7) & 0xFFFFFFFF, "DR7 bits 63:32 zero")
        r.force(F.GUEST_IA32_DEBUGCTL,
                r.read(F.GUEST_IA32_DEBUGCTL) & DEBUGCTL_VALID_BITS,
                "DEBUGCTL reserved bits zero")
    else:
        r.force(F.GUEST_DR7, 0x400, "DR7 ignored without load-debug-controls")
        r.force(F.GUEST_IA32_DEBUGCTL, 0,
                "DEBUGCTL ignored without load-debug-controls")

    if entry & EntryControls.LOAD_EFER:
        efer = r.read(F.GUEST_IA32_EFER) & ~Efer.RESERVED
        if ia32e_guest:
            efer |= Efer.LMA | Efer.LME
        else:
            efer &= ~Efer.LMA
            if r.read(F.GUEST_CR0) & Cr0.PG:
                efer &= ~Efer.LME
        r.force(F.GUEST_IA32_EFER, efer, "guest EFER LMA/LME consistency")

    else:
        r.force(F.GUEST_IA32_EFER, 0, "guest EFER ignored without load-EFER")

    if entry & EntryControls.LOAD_PAT:
        r.force(F.GUEST_IA32_PAT, round_pat(r.read(F.GUEST_IA32_PAT)),
                "guest PAT memory types")
    else:
        r.force(F.GUEST_IA32_PAT, 0, "guest PAT ignored without load-PAT")

    _round_guest_msr_images(r, entry)

    # --- RFLAGS ---------------------------------------------------------------
    rflags = (r.read(F.GUEST_RFLAGS) | Rflags.FIXED_1) & ~Rflags.RESERVED
    if ia32e_guest or not r.read(F.GUEST_CR0) & Cr0.PE:
        rflags &= ~Rflags.VM
    intr_info = r.read(F.VM_ENTRY_INTR_INFO_FIELD)
    if intr_info >> 31 and (intr_info >> 8) & 7 == 0:
        rflags |= Rflags.IF  # injecting an external interrupt requires IF
    r.force(F.GUEST_RFLAGS, rflags, "RFLAGS fixed bits / VM / IF rules")
    virtual_8086 = bool(rflags & Rflags.VM)

    # --- segment registers ------------------------------------------------------
    if virtual_8086:
        _round_v8086_segments(r)
    else:
        _round_protected_segments(r, ia32e_guest=ia32e_guest,
                                  unrestricted=unrestricted)

    # --- descriptor tables ---------------------------------------------------------
    for base_field, limit_field, rule in (
            (F.GUEST_GDTR_BASE, F.GUEST_GDTR_LIMIT, "GDTR"),
            (F.GUEST_IDTR_BASE, F.GUEST_IDTR_LIMIT, "IDTR")):
        r.force(base_field, canonicalize(r.read(base_field)), f"{rule} base canonical")
        r.force(limit_field, r.read(limit_field) & 0xFFFF, f"{rule} limit 16 bits")

    # --- RIP -------------------------------------------------------------------------
    cs_ar = r.read(F.GUEST_CS_AR_BYTES)
    rip = r.read(F.GUEST_RIP)
    if ia32e_guest and cs_ar & AccessRights.L:
        r.force(F.GUEST_RIP, canonicalize(rip), "RIP canonical in 64-bit mode")
    else:
        r.force(F.GUEST_RIP, rip & 0xFFFFFFFF, "RIP bits 63:32 zero")

    # --- activity / interruptibility ---------------------------------------------------
    activity = r.read(F.GUEST_ACTIVITY_STATE) & 3
    interruptibility = r.read(F.GUEST_INTERRUPTIBILITY_INFO) & ~Interruptibility.RESERVED
    if interruptibility & Interruptibility.STI_BLOCKING:
        if interruptibility & Interruptibility.MOV_SS_BLOCKING:
            interruptibility &= ~Interruptibility.STI_BLOCKING
        if not r.read(F.GUEST_RFLAGS) & Rflags.IF:
            interruptibility &= ~Interruptibility.STI_BLOCKING
    if activity == ActivityState.HLT and interruptibility & (
            Interruptibility.STI_BLOCKING | Interruptibility.MOV_SS_BLOCKING):
        interruptibility &= ~(Interruptibility.STI_BLOCKING
                              | Interruptibility.MOV_SS_BLOCKING)
    if activity in (ActivityState.SHUTDOWN, ActivityState.WAIT_FOR_SIPI):
        if intr_info >> 31:
            activity = ActivityState.ACTIVE
    r.force(F.GUEST_ACTIVITY_STATE, activity, "activity state rules")
    r.force(F.GUEST_INTERRUPTIBILITY_INFO, interruptibility,
            "interruptibility consistency")

    r.force(F.GUEST_PENDING_DBG_EXCEPTIONS,
            r.read(F.GUEST_PENDING_DBG_EXCEPTIONS) & 0x1600F,
            "pending debug exceptions reserved bits")

    # --- VMCS link pointer ------------------------------------------------------------
    link = r.read(F.VMCS_LINK_POINTER)
    if link != (1 << 64) - 1:
        if effective_proc2 & Secondary.SHADOW_VMCS:
            r.force(F.VMCS_LINK_POINTER, link & _PHYS_MASK & ~0xFFF,
                    "shadow link pointer alignment")
        else:
            r.force(F.VMCS_LINK_POINTER, (1 << 64) - 1,
                    "link pointer all-ones without shadow VMCS")

    # --- PDPTEs (legacy PAE) -------------------------------------------------------------
    cr0 = r.read(F.GUEST_CR0)
    cr4 = r.read(F.GUEST_CR4)
    if not ia32e_guest and cr0 & Cr0.PG and cr4 & Cr4.PAE:
        for field in (F.GUEST_PDPTE0, F.GUEST_PDPTE1, F.GUEST_PDPTE2, F.GUEST_PDPTE3):
            pdpte = r.read(field)
            if pdpte & 1:
                r.force(field, pdpte & ~0x1E6, "PDPTE reserved bits clear")
    else:
        for field in (F.GUEST_PDPTE0, F.GUEST_PDPTE1, F.GUEST_PDPTE2, F.GUEST_PDPTE3):
            r.force(field, 0, "PDPTEs unused outside legacy PAE paging")

    # Fields gated by execution controls on the guest side.
    if not effective_proc2 & Secondary.VIRTUAL_INTR_DELIVERY:
        r.force(F.GUEST_INTR_STATUS, 0, "interrupt status unused without VID")
    if not effective_proc2 & Secondary.ENABLE_PML:
        r.force(F.GUEST_PML_INDEX, 0, "PML index unused without PML")

    for field, rule in ((F.GUEST_SYSENTER_ESP, "SYSENTER_ESP canonical"),
                        (F.GUEST_SYSENTER_EIP, "SYSENTER_EIP canonical")):
        r.force(field, canonicalize(r.read(field)), rule)

    return r.commit()


def _round_v8086_segments(r: Rounder) -> None:
    """Force the virtual-8086 segment shape (base=sel<<4, limit, AR 0xF3)."""
    for name in ("es", "cs", "ss", "ds", "fs", "gs"):
        selector = r.read(F.SEGMENT_SELECTOR_FIELDS[name])
        r.force(F.SEGMENT_BASE_FIELDS[name], (selector << 4) & 0xFFFF0,
                "v8086 base = selector << 4")
        r.force(F.SEGMENT_LIMIT_FIELDS[name], 0xFFFF, "v8086 limit")
        r.force(F.SEGMENT_AR_FIELDS[name], 0xF3, "v8086 access rights")
    _round_tr_ldtr(r, ia32e_guest=False)


def _round_protected_segments(r: Rounder, *, ia32e_guest: bool,
                              unrestricted: bool) -> None:
    """Round CS/SS/DS/ES/FS/GS plus TR/LDTR for protected/long mode."""
    # CS first — other checks reference it.
    cs_ar = r.read(F.GUEST_CS_AR_BYTES) & ~AccessRights.RESERVED
    cs_ar &= ~AccessRights.UNUSABLE
    cs_ar |= AccessRights.P | AccessRights.S
    cs_type = cs_ar & 0xF
    if not cs_type & 0x8:  # not a code segment
        if not (unrestricted and cs_type == 0x3):
            cs_ar = (cs_ar & ~0xF) | 0xB
            cs_type = 0xB
    cs_ar |= 1  # accessed
    if cs_ar & AccessRights.L and cs_ar & AccessRights.DB:
        cs_ar &= ~AccessRights.DB
    cs_limit, cs_ar = _round_limit_granularity(r.read(F.GUEST_CS_LIMIT), cs_ar)
    if (cs_ar & 0xF) == 0x3:
        cs_ar &= ~(3 << 5)  # type-3 CS requires DPL 0
    r.force(F.GUEST_CS_LIMIT, cs_limit, "CS limit/granularity")
    r.force(F.GUEST_CS_AR_BYTES, cs_ar, "CS access rights")
    r.force(F.GUEST_CS_BASE, r.read(F.GUEST_CS_BASE) & 0xFFFFFFFF,
            "CS base bits 63:32 zero")
    cs_dpl = (cs_ar >> 5) & 3
    cs_rpl = r.read(F.GUEST_CS_SELECTOR) & 3

    # SS: writable data, matching privilege.
    ss_ar = r.read(F.GUEST_SS_AR_BYTES) & ~AccessRights.RESERVED
    if not ss_ar & AccessRights.UNUSABLE:
        ss_ar |= AccessRights.P | AccessRights.S
        if (ss_ar & 0xF) not in (0x3, 0x7):
            ss_ar = (ss_ar & ~0xF) | 0x3
        ss_limit, ss_ar = _round_limit_granularity(r.read(F.GUEST_SS_LIMIT), ss_ar)
        r.force(F.GUEST_SS_LIMIT, ss_limit, "SS limit/granularity")
        if not unrestricted:
            selector = (r.read(F.GUEST_SS_SELECTOR) & ~3) | cs_rpl
            r.force(F.GUEST_SS_SELECTOR, selector, "SS.RPL = CS.RPL")
            ss_ar = (ss_ar & ~(3 << 5)) | (cs_rpl << 5)  # SS.DPL = SS.RPL
        if (cs_ar & 0xF) in (0x9, 0xB):
            ss_ar = (ss_ar & ~(3 << 5)) | (cs_dpl << 5)
        elif (cs_ar & 0xF) in (0xD, 0xF):
            # Conforming CS: CS.DPL must not exceed SS.DPL.
            ss_dpl = (ss_ar >> 5) & 3
            if cs_dpl > ss_dpl:
                cs_ar = (cs_ar & ~(3 << 5)) | (ss_dpl << 5)
                r.force(F.GUEST_CS_AR_BYTES, cs_ar,
                        "conforming CS.DPL clamped to SS.DPL")
    r.force(F.GUEST_SS_AR_BYTES, ss_ar, "SS access rights")
    r.force(F.GUEST_SS_BASE, r.read(F.GUEST_SS_BASE) & 0xFFFFFFFF,
            "SS base bits 63:32 zero")

    for name in ("ds", "es", "fs", "gs"):
        ar = r.read(F.SEGMENT_AR_FIELDS[name]) & ~AccessRights.RESERVED
        if not ar & AccessRights.UNUSABLE:
            ar |= AccessRights.P | AccessRights.S | 1  # present, non-system, accessed
            if ar & 0x8 and not ar & 0x2:
                ar |= 0x2  # code must be readable
            limit, ar = _round_limit_granularity(r.read(F.SEGMENT_LIMIT_FIELDS[name]), ar)
            r.force(F.SEGMENT_LIMIT_FIELDS[name], limit, f"{name} limit/granularity")
        r.force(F.SEGMENT_AR_FIELDS[name], ar, f"{name} access rights")
        base = r.read(F.SEGMENT_BASE_FIELDS[name])
        if name in ("fs", "gs"):
            r.force(F.SEGMENT_BASE_FIELDS[name], canonicalize(base),
                    f"{name} base canonical")
        else:
            r.force(F.SEGMENT_BASE_FIELDS[name], base & 0xFFFFFFFF,
                    f"{name} base bits 63:32 zero")

    _round_tr_ldtr(r, ia32e_guest=ia32e_guest)


def _round_tr_ldtr(r: Rounder, *, ia32e_guest: bool) -> None:
    """Round TR (always usable busy TSS) and LDTR (usable LDT or unusable)."""
    tr_ar = r.read(F.GUEST_TR_AR_BYTES) & ~AccessRights.RESERVED
    tr_ar &= ~(AccessRights.UNUSABLE | AccessRights.S)
    tr_ar |= AccessRights.P
    tr_type = tr_ar & 0xF
    if ia32e_guest or tr_type not in (0x3, 0xB):
        tr_ar = (tr_ar & ~0xF) | 0xB
    tr_limit, tr_ar = _round_limit_granularity(r.read(F.GUEST_TR_LIMIT), tr_ar)
    r.force(F.GUEST_TR_LIMIT, tr_limit, "TR limit/granularity")
    r.force(F.GUEST_TR_AR_BYTES, tr_ar, "TR access rights")
    r.force(F.GUEST_TR_SELECTOR, r.read(F.GUEST_TR_SELECTOR) & ~0x4,
            "TR selector TI clear")
    r.force(F.GUEST_TR_BASE, canonicalize(r.read(F.GUEST_TR_BASE)),
            "TR base canonical")

    ldtr_ar = r.read(F.GUEST_LDTR_AR_BYTES) & ~AccessRights.RESERVED
    if not ldtr_ar & AccessRights.UNUSABLE:
        ldtr_ar &= ~AccessRights.S
        ldtr_ar |= AccessRights.P
        ldtr_ar = (ldtr_ar & ~0xF) | 0x2
        ldtr_limit, ldtr_ar = _round_limit_granularity(
            r.read(F.GUEST_LDTR_LIMIT), ldtr_ar)
        r.force(F.GUEST_LDTR_LIMIT, ldtr_limit, "LDTR limit/granularity")
        r.force(F.GUEST_LDTR_SELECTOR, r.read(F.GUEST_LDTR_SELECTOR) & ~0x4,
                "LDTR selector TI clear")
        r.force(F.GUEST_LDTR_BASE, canonicalize(r.read(F.GUEST_LDTR_BASE)),
                "LDTR base canonical")
    r.force(F.GUEST_LDTR_AR_BYTES, ldtr_ar, "LDTR access rights")
