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
from repro.validator.base import Rounder, canonicalize
from repro.validator.host_state import round_pat
from repro.vmx import fields as F
from repro.vmx.controls import (
    ActivityState,
    EntryControls,
    Interruptibility,
    ProcBased,
    Secondary,
)
from repro.vmx.msr_caps import VmxCapabilities

_PHYS_MASK = (1 << 46) - 1

#: IA32_DEBUGCTL bits a VM entry may load (SDM 26.3.1.1).
DEBUGCTL_VALID_BITS = 0x1DDF
#: IA32_PERF_GLOBAL_CTRL: two programmable + three fixed counters.
PERF_GLOBAL_CTRL_VALID_BITS = 0x7_0000_0003
#: IA32_BNDCFGS: EN + BNDPRESERVE + canonical base above bit 12.
BNDCFGS_RESERVED_BITS = 0xFFC

_ALL_ONES = (1 << 64) - 1

#: Guest MSR images no VM-entry control can load, with their rules.
_UNUSED_MSR_IMAGES = ((F.GUEST_IA32_LBR_CTL, "LBR_CTL unsupported"),
                      (F.GUEST_SMBASE, "SMBASE ignored outside SMM"))


def _round_guest_msr_images(r: Rounder, entry: int) -> None:
    """Round the guest MSR-image fields gated by VM-entry controls."""
    v = r.values
    force = r.force
    if entry & EntryControls.LOAD_PERF_GLOBAL_CTRL:
        force(F.GUEST_IA32_PERF_GLOBAL_CTRL,
              v[F.GUEST_IA32_PERF_GLOBAL_CTRL] & PERF_GLOBAL_CTRL_VALID_BITS,
              "PERF_GLOBAL_CTRL reserved bits zero")
    else:
        force(F.GUEST_IA32_PERF_GLOBAL_CTRL, 0,
              "PERF_GLOBAL_CTRL ignored without its load control")
    if entry & EntryControls.LOAD_BNDCFGS:
        force(F.GUEST_IA32_BNDCFGS,
              canonicalize(v[F.GUEST_IA32_BNDCFGS] & ~BNDCFGS_RESERVED_BITS),
              "BNDCFGS reserved bits zero, base canonical")
    else:
        force(F.GUEST_IA32_BNDCFGS, 0, "BNDCFGS ignored without its load control")
    if entry & EntryControls.LOAD_RTIT_CTL:
        force(F.GUEST_IA32_RTIT_CTL, v[F.GUEST_IA32_RTIT_CTL] & 0x1,
              "RTIT_CTL restricted to TraceEn")
    else:
        force(F.GUEST_IA32_RTIT_CTL, 0, "RTIT_CTL ignored without its load control")
    if entry & EntryControls.LOAD_PKRS:
        force(F.GUEST_IA32_PKRS, v[F.GUEST_IA32_PKRS] & 0xFFFFFFFF,
              "PKRS bits 63:32 zero")
    else:
        force(F.GUEST_IA32_PKRS, 0, "PKRS ignored without its load control")
    if entry & EntryControls.LOAD_CET_STATE:
        force(F.GUEST_IA32_S_CET, canonicalize(v[F.GUEST_IA32_S_CET] & ~0x3C),
              "S_CET reserved bits zero")
    else:
        force(F.GUEST_IA32_S_CET, 0, "CET state ignored without its load control")
    # No VM-entry control governs LBR_CTL on the parts we model, and
    # SMBASE is meaningful only for entries to SMM, which are rounded away.
    r.zero(_UNUSED_MSR_IMAGES)


def _round_limit_granularity(limit: int, ar: int) -> tuple[int, int]:
    """Fix the SDM limit/granularity consistency rule by adjusting AR.G."""
    if limit & 0xFFF00000:
        ar |= AccessRights.G
        if (limit & 0xFFF) != 0xFFF:
            limit |= 0xFFF
    elif (limit & 0xFFF) != 0xFFF:
        ar &= ~AccessRights.G
    return limit, ar


#: Descriptor-table registers: ((base, base rule),), limit, limit rule.
_DTABLES = tuple((((base, f"{name} base canonical"),), limit, f"{name} limit 16 bits")
                 for base, limit, name in (
                     (F.GUEST_GDTR_BASE, F.GUEST_GDTR_LIMIT, "GDTR"),
                     (F.GUEST_IDTR_BASE, F.GUEST_IDTR_LIMIT, "IDTR")))

_PDPTES = (F.GUEST_PDPTE0, F.GUEST_PDPTE1, F.GUEST_PDPTE2, F.GUEST_PDPTE3)
_UNUSED_PDPTES = tuple((field, "PDPTEs unused outside legacy PAE paging")
                       for field in _PDPTES)

_SYSENTER = ((F.GUEST_SYSENTER_ESP, "SYSENTER_ESP canonical"),
             (F.GUEST_SYSENTER_EIP, "SYSENTER_EIP canonical"))

#: Single fields the guest pass canonicalizes or zeroes, with their rules.
_RIP_CANONICAL = ((F.GUEST_RIP, "RIP canonical in 64-bit mode"),)
_TR_BASE_CANONICAL = ((F.GUEST_TR_BASE, "TR base canonical"),)
_LDTR_BASE_CANONICAL = ((F.GUEST_LDTR_BASE, "LDTR base canonical"),)
_UNUSED_INTR_STATUS = ((F.GUEST_INTR_STATUS, "interrupt status unused without VID"),)
_UNUSED_PML_INDEX = ((F.GUEST_PML_INDEX, "PML index unused without PML"),)


def round_guest_state(r: Rounder, caps: VmxCapabilities) -> None:
    """Round guest-state fields toward validity."""
    v = r.values
    force = r.force

    entry = v[F.VM_ENTRY_CONTROLS]
    proc = v[F.CPU_BASED_VM_EXEC_CONTROL]
    proc2 = v[F.SECONDARY_VM_EXEC_CONTROL]
    effective_proc2 = proc2 if proc & ProcBased.ACTIVATE_SECONDARY_CONTROLS else 0
    unrestricted = bool(effective_proc2 & Secondary.UNRESTRICTED_GUEST)
    ia32e_guest = bool(entry & EntryControls.IA32E_MODE_GUEST)

    # --- control registers ---------------------------------------------------
    cr0 = v[F.GUEST_CR0]
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
    force(F.GUEST_CR0, cr0, "guest CR0 fixed bits and PG/PE rules")

    cr4 = (v[F.GUEST_CR4] | caps.cr4_fixed0) & caps.cr4_fixed1
    if ia32e_guest:
        # Paper §4.3 worked example: LME set while CR4.PAE unset — the
        # validator forces PAE to 1 to satisfy architectural constraints.
        cr4 |= Cr4.PAE
    else:
        cr4 &= ~Cr4.PCIDE
    force(F.GUEST_CR4, cr4, "guest CR4 fixed bits / PAE for IA-32e")

    force(F.GUEST_CR3, v[F.GUEST_CR3] & _PHYS_MASK, "guest CR3 width")
    if entry & EntryControls.LOAD_DEBUG_CONTROLS:
        force(F.GUEST_DR7, v[F.GUEST_DR7] & 0xFFFFFFFF, "DR7 bits 63:32 zero")
        force(F.GUEST_IA32_DEBUGCTL, v[F.GUEST_IA32_DEBUGCTL] & DEBUGCTL_VALID_BITS,
              "DEBUGCTL reserved bits zero")
    else:
        force(F.GUEST_DR7, 0x400, "DR7 ignored without load-debug-controls")
        force(F.GUEST_IA32_DEBUGCTL, 0, "DEBUGCTL ignored without load-debug-controls")

    if entry & EntryControls.LOAD_EFER:
        efer = v[F.GUEST_IA32_EFER] & ~Efer.RESERVED
        if ia32e_guest:
            efer |= Efer.LMA | Efer.LME
        else:
            efer &= ~Efer.LMA
            if v[F.GUEST_CR0] & Cr0.PG:
                efer &= ~Efer.LME
        force(F.GUEST_IA32_EFER, efer, "guest EFER LMA/LME consistency")
    else:
        force(F.GUEST_IA32_EFER, 0, "guest EFER ignored without load-EFER")

    if entry & EntryControls.LOAD_PAT:
        force(F.GUEST_IA32_PAT, round_pat(v[F.GUEST_IA32_PAT]), "guest PAT memory types")
    else:
        force(F.GUEST_IA32_PAT, 0, "guest PAT ignored without load-PAT")

    _round_guest_msr_images(r, entry)

    # --- RFLAGS ---------------------------------------------------------------
    rflags = (v[F.GUEST_RFLAGS] | Rflags.FIXED_1) & ~Rflags.RESERVED
    if ia32e_guest or not v[F.GUEST_CR0] & Cr0.PE:
        rflags &= ~Rflags.VM
    intr_info = v[F.VM_ENTRY_INTR_INFO_FIELD]
    if intr_info >> 31 and (intr_info >> 8) & 7 == 0:
        rflags |= Rflags.IF  # injecting an external interrupt requires IF
    force(F.GUEST_RFLAGS, rflags, "RFLAGS fixed bits / VM / IF rules")

    # --- segment registers ------------------------------------------------------
    if rflags & Rflags.VM:
        _round_v8086_segments(r)
    else:
        _round_protected_segments(r, ia32e_guest=ia32e_guest,
                                  unrestricted=unrestricted)

    # --- descriptor tables ---------------------------------------------------------
    for base, limit_field, limit_rule in _DTABLES:
        r.canonical(base)
        force(limit_field, v[limit_field] & 0xFFFF, limit_rule)

    # --- RIP -------------------------------------------------------------------------
    if ia32e_guest and v[F.GUEST_CS_AR_BYTES] & AccessRights.L:
        r.canonical(_RIP_CANONICAL)
    else:
        force(F.GUEST_RIP, v[F.GUEST_RIP] & 0xFFFFFFFF, "RIP bits 63:32 zero")

    # --- activity / interruptibility ---------------------------------------------------
    activity = v[F.GUEST_ACTIVITY_STATE] & 3
    interruptibility = v[F.GUEST_INTERRUPTIBILITY_INFO] & ~Interruptibility.RESERVED
    if interruptibility & Interruptibility.STI_BLOCKING:
        if interruptibility & Interruptibility.MOV_SS_BLOCKING:
            interruptibility &= ~Interruptibility.STI_BLOCKING
        if not v[F.GUEST_RFLAGS] & Rflags.IF:
            interruptibility &= ~Interruptibility.STI_BLOCKING
    if activity == ActivityState.HLT and interruptibility & (
            Interruptibility.STI_BLOCKING | Interruptibility.MOV_SS_BLOCKING):
        interruptibility &= ~(Interruptibility.STI_BLOCKING
                              | Interruptibility.MOV_SS_BLOCKING)
    if activity in (ActivityState.SHUTDOWN, ActivityState.WAIT_FOR_SIPI):
        if intr_info >> 31:
            activity = ActivityState.ACTIVE
    force(F.GUEST_ACTIVITY_STATE, activity, "activity state rules")
    force(F.GUEST_INTERRUPTIBILITY_INFO, interruptibility,
          "interruptibility consistency")

    force(F.GUEST_PENDING_DBG_EXCEPTIONS, v[F.GUEST_PENDING_DBG_EXCEPTIONS] & 0x1600F,
          "pending debug exceptions reserved bits")

    # --- VMCS link pointer ------------------------------------------------------------
    link = v[F.VMCS_LINK_POINTER]
    if link != _ALL_ONES:
        if effective_proc2 & Secondary.SHADOW_VMCS:
            force(F.VMCS_LINK_POINTER, link & _PHYS_MASK & ~0xFFF,
                  "shadow link pointer alignment")
        else:
            force(F.VMCS_LINK_POINTER, _ALL_ONES,
                  "link pointer all-ones without shadow VMCS")

    # --- PDPTEs (legacy PAE) -------------------------------------------------------------
    if not ia32e_guest and v[F.GUEST_CR0] & Cr0.PG and v[F.GUEST_CR4] & Cr4.PAE:
        for field in _PDPTES:
            pdpte = v[field]
            if pdpte & 1:
                force(field, pdpte & ~0x1E6, "PDPTE reserved bits clear")
    else:
        r.zero(_UNUSED_PDPTES)

    # Fields gated by execution controls on the guest side.
    if not effective_proc2 & Secondary.VIRTUAL_INTR_DELIVERY:
        r.zero(_UNUSED_INTR_STATUS)
    if not effective_proc2 & Secondary.ENABLE_PML:
        r.zero(_UNUSED_PML_INDEX)

    r.canonical(_SYSENTER)


#: Per segment register: (selector, base, limit, access rights) fields.
_SEGMENT = {name: (F.SEGMENT_SELECTOR_FIELDS[name], F.SEGMENT_BASE_FIELDS[name],
                   F.SEGMENT_LIMIT_FIELDS[name], F.SEGMENT_AR_FIELDS[name])
            for name in F.SEGMENT_AR_FIELDS}

_V8086_SEGMENTS = tuple(_SEGMENT[name] for name in ("es", "cs", "ss", "ds", "fs", "gs"))


def _round_v8086_segments(r: Rounder) -> None:
    """Force the virtual-8086 segment shape (base=sel<<4, limit, AR 0xF3)."""
    v = r.values
    force = r.force
    for selector, base, limit, ar in _V8086_SEGMENTS:
        force(base, (v[selector] << 4) & 0xFFFF0, "v8086 base = selector << 4")
        force(limit, 0xFFFF, "v8086 limit")
        force(ar, 0xF3, "v8086 access rights")
    _round_tr_ldtr(r, ia32e_guest=False)


#: DS/ES/FS/GS: (limit, AR, base) fields, their rules, and whether the
#: base is canonicalized (FS, GS) rather than cut to 32 bits (DS, ES).
_DATA_SEGMENTS = tuple(
    (_SEGMENT[name][2], _SEGMENT[name][3], _SEGMENT[name][1],
     f"{name} limit/granularity", f"{name} access rights",
     f"{name} base canonical" if name in ("fs", "gs")
     else f"{name} base bits 63:32 zero", name in ("fs", "gs"))
    for name in ("ds", "es", "fs", "gs"))


def _round_protected_segments(r: Rounder, *, ia32e_guest: bool,
                              unrestricted: bool) -> None:
    """Round CS/SS/DS/ES/FS/GS plus TR/LDTR for protected/long mode."""
    v = r.values
    force = r.force
    # CS first — other checks reference it.
    cs_ar = v[F.GUEST_CS_AR_BYTES] & ~AccessRights.RESERVED
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
    cs_limit, cs_ar = _round_limit_granularity(v[F.GUEST_CS_LIMIT], cs_ar)
    if (cs_ar & 0xF) == 0x3:
        cs_ar &= ~(3 << 5)  # type-3 CS requires DPL 0
    force(F.GUEST_CS_LIMIT, cs_limit, "CS limit/granularity")
    force(F.GUEST_CS_AR_BYTES, cs_ar, "CS access rights")
    force(F.GUEST_CS_BASE, v[F.GUEST_CS_BASE] & 0xFFFFFFFF, "CS base bits 63:32 zero")
    cs_dpl = (cs_ar >> 5) & 3
    cs_rpl = v[F.GUEST_CS_SELECTOR] & 3

    # SS: writable data, matching privilege.
    ss_ar = v[F.GUEST_SS_AR_BYTES] & ~AccessRights.RESERVED
    if not ss_ar & AccessRights.UNUSABLE:
        ss_ar |= AccessRights.P | AccessRights.S
        if (ss_ar & 0xF) not in (0x3, 0x7):
            ss_ar = (ss_ar & ~0xF) | 0x3
        ss_limit, ss_ar = _round_limit_granularity(v[F.GUEST_SS_LIMIT], ss_ar)
        force(F.GUEST_SS_LIMIT, ss_limit, "SS limit/granularity")
        if not unrestricted:
            selector = (v[F.GUEST_SS_SELECTOR] & ~3) | cs_rpl
            force(F.GUEST_SS_SELECTOR, selector, "SS.RPL = CS.RPL")
            ss_ar = (ss_ar & ~(3 << 5)) | (cs_rpl << 5)  # SS.DPL = SS.RPL
        if (cs_ar & 0xF) in (0x9, 0xB):
            ss_ar = (ss_ar & ~(3 << 5)) | (cs_dpl << 5)
        elif (cs_ar & 0xF) in (0xD, 0xF):
            # Conforming CS: CS.DPL must not exceed SS.DPL.
            ss_dpl = (ss_ar >> 5) & 3
            if cs_dpl > ss_dpl:
                cs_ar = (cs_ar & ~(3 << 5)) | (ss_dpl << 5)
                force(F.GUEST_CS_AR_BYTES, cs_ar, "conforming CS.DPL clamped to SS.DPL")
    force(F.GUEST_SS_AR_BYTES, ss_ar, "SS access rights")
    force(F.GUEST_SS_BASE, v[F.GUEST_SS_BASE] & 0xFFFFFFFF, "SS base bits 63:32 zero")

    for (limit_field, ar_field, base_field, limit_rule, ar_rule, base_rule,
         canonical_base) in _DATA_SEGMENTS:
        ar = v[ar_field] & ~AccessRights.RESERVED
        if not ar & AccessRights.UNUSABLE:
            ar |= AccessRights.P | AccessRights.S | 1  # present, non-system, accessed
            if ar & 0x8 and not ar & 0x2:
                ar |= 0x2  # code must be readable
            limit, ar = _round_limit_granularity(v[limit_field], ar)
            force(limit_field, limit, limit_rule)
        force(ar_field, ar, ar_rule)
        if canonical_base:
            r.canonical(((base_field, base_rule),))
        else:
            force(base_field, v[base_field] & 0xFFFFFFFF, base_rule)

    _round_tr_ldtr(r, ia32e_guest=ia32e_guest)


def _round_tr_ldtr(r: Rounder, *, ia32e_guest: bool) -> None:
    """Round TR (always usable busy TSS) and LDTR (usable LDT or unusable)."""
    v = r.values
    force = r.force
    tr_ar = v[F.GUEST_TR_AR_BYTES] & ~AccessRights.RESERVED
    tr_ar &= ~(AccessRights.UNUSABLE | AccessRights.S)
    tr_ar |= AccessRights.P
    tr_type = tr_ar & 0xF
    if ia32e_guest or tr_type not in (0x3, 0xB):
        tr_ar = (tr_ar & ~0xF) | 0xB
    tr_limit, tr_ar = _round_limit_granularity(v[F.GUEST_TR_LIMIT], tr_ar)
    force(F.GUEST_TR_LIMIT, tr_limit, "TR limit/granularity")
    force(F.GUEST_TR_AR_BYTES, tr_ar, "TR access rights")
    force(F.GUEST_TR_SELECTOR, v[F.GUEST_TR_SELECTOR] & ~0x4, "TR selector TI clear")
    r.canonical(_TR_BASE_CANONICAL)

    ldtr_ar = v[F.GUEST_LDTR_AR_BYTES] & ~AccessRights.RESERVED
    if not ldtr_ar & AccessRights.UNUSABLE:
        ldtr_ar &= ~AccessRights.S
        ldtr_ar |= AccessRights.P
        ldtr_ar = (ldtr_ar & ~0xF) | 0x2
        ldtr_limit, ldtr_ar = _round_limit_granularity(v[F.GUEST_LDTR_LIMIT], ldtr_ar)
        force(F.GUEST_LDTR_LIMIT, ldtr_limit, "LDTR limit/granularity")
        force(F.GUEST_LDTR_SELECTOR, v[F.GUEST_LDTR_SELECTOR] & ~0x4,
              "LDTR selector TI clear")
        r.canonical(_LDTR_BASE_CANONICAL)
    force(F.GUEST_LDTR_AR_BYTES, ldtr_ar, "LDTR access rights")
