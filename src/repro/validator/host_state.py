"""``VMenterLoadCheckHostState()`` analogue.

Rounds the host-state area: control registers (CR0, CR3, CR4), segment
selectors and bases, GDT/IDT bases, and the SYSENTER/EFER/PAT MSR images.

KNOWN MODELLING GAP (deliberate, paper §3.4): Bochs's host-state checks
in our extraction miss the "host TR selector must not be null" rule —
one of the subtle selector conditions the paper's authors found to be
buggy in Bochs (they fixed two segment-register check bugs upstream).
The physical CPU enforces it, giving the oracle loop a second genuine
divergence to learn.
"""

from __future__ import annotations

from repro.arch.registers import Cr4, Efer
from repro.validator.base import Rounder, canonicalize
from repro.vmx import fields as F
from repro.vmx.controls import ExitControls
from repro.vmx.msr_caps import VmxCapabilities

_PHYS_MASK = (1 << 46) - 1

#: PAT memory-type bytes considered valid; invalid bytes round to WB (6).
_VALID_PAT_TYPES = frozenset({0, 1, 4, 5, 6, 7})


def round_pat(value: int) -> int:
    """Round each PAT byte to a valid memory type."""
    out = 0
    for i in range(8):
        byte = (value >> (8 * i)) & 0xFF
        if byte not in _VALID_PAT_TYPES:
            byte = 6
        out |= byte << (8 * i)
    return out


#: Host selectors with the rule clearing their TI/RPL bits.
_HOST_SELECTORS = tuple((field, f"host {name} selector TI/RPL clear")
                        for name, field in F.HOST_SELECTOR_FIELDS.items())

#: Host addresses that must be canonical, with their rules.
_HOST_CANONICAL = ((F.HOST_FS_BASE, "host FS base canonical"),
                   (F.HOST_GS_BASE, "host GS base canonical"),
                   (F.HOST_TR_BASE, "host TR base canonical"),
                   (F.HOST_GDTR_BASE, "host GDTR base canonical"),
                   (F.HOST_IDTR_BASE, "host IDTR base canonical"),
                   (F.HOST_IA32_SYSENTER_ESP, "host SYSENTER_ESP canonical"),
                   (F.HOST_IA32_SYSENTER_EIP, "host SYSENTER_EIP canonical"),
                   (F.HOST_RIP, "host RIP canonical"))


def round_host_state(r: Rounder, caps: VmxCapabilities) -> None:
    """Round host-state fields toward validity."""
    v = r.values
    force = r.force

    force(F.HOST_CR0, (v[F.HOST_CR0] | caps.cr0_fixed0) & caps.cr0_fixed1,
          "host CR0 fixed bits")
    cr4 = (v[F.HOST_CR4] | caps.cr4_fixed0) & caps.cr4_fixed1
    cr4 |= Cr4.PAE  # 64-bit host requires PAE
    force(F.HOST_CR4, cr4, "host CR4 fixed bits + PAE for 64-bit host")
    force(F.HOST_CR3, v[F.HOST_CR3] & _PHYS_MASK, "host CR3 width")

    # Selectors: clear TI/RPL; give CS a usable default when null.
    for field, rule in _HOST_SELECTORS:
        force(field, v[field] & ~0x7, rule)
    if not v[F.HOST_CS_SELECTOR]:
        force(F.HOST_CS_SELECTOR, 0x10, "host CS selector must not be null")
    # NOTE: the corresponding TR null check is the documented gap — no
    # rounding of HOST_TR_SELECTOR here.

    r.canonical(_HOST_CANONICAL)

    exit_ = v[F.VM_EXIT_CONTROLS]
    if exit_ & ExitControls.LOAD_EFER:
        efer = v[F.HOST_IA32_EFER] & ~Efer.RESERVED
        efer |= Efer.LME | Efer.LMA  # 64-bit host
        force(F.HOST_IA32_EFER, efer, "host EFER LMA/LME for 64-bit host")
    else:
        force(F.HOST_IA32_EFER, 0, "host EFER ignored without load-EFER")
    if exit_ & ExitControls.LOAD_PAT:
        force(F.HOST_IA32_PAT, round_pat(v[F.HOST_IA32_PAT]), "host PAT memory types")
    else:
        force(F.HOST_IA32_PAT, 0, "host PAT ignored without load-PAT")
    if exit_ & ExitControls.LOAD_PERF_GLOBAL_CTRL:
        force(F.HOST_IA32_PERF_GLOBAL_CTRL,
              v[F.HOST_IA32_PERF_GLOBAL_CTRL] & 0x7_0000_0003,
              "host PERF_GLOBAL_CTRL reserved bits zero")
    else:
        force(F.HOST_IA32_PERF_GLOBAL_CTRL, 0,
              "host PERF_GLOBAL_CTRL ignored without its load control")
    if exit_ & ExitControls.LOAD_PKRS:
        force(F.HOST_IA32_PKRS, v[F.HOST_IA32_PKRS] & 0xFFFFFFFF,
              "host PKRS bits 63:32 zero")
    else:
        force(F.HOST_IA32_PKRS, 0, "host PKRS ignored without its load control")
    if exit_ & ExitControls.LOAD_CET_STATE:
        force(F.HOST_IA32_S_CET, canonicalize(v[F.HOST_IA32_S_CET] & ~0x3C),
              "host S_CET reserved bits zero")
    else:
        force(F.HOST_IA32_S_CET, 0, "host CET ignored without its load control")
