"""Known-good VM states ("golden" templates).

These are the default-initialised states a well-behaved hypervisor would
program: a flat 64-bit guest with valid host state. They serve three
roles: defaults the rounding procedures fall back to, the baseline for
the paper's Figure-5 "default-initialized values" comparison, and the
fixed template used when the VM state validator is ablated (§5.3).
"""

from __future__ import annotations

from repro.arch import msr as MSR
from repro.arch.registers import Cr0, Cr4, Efer, Rflags
from repro.arch.segments import flat_segment, ldtr_segment, tss_segment
from repro.cpu.entry_checks import IncrementalChecker
from repro.svm import fields as SF
from repro.svm.fields import Misc1Intercept, Misc2Intercept
from repro.svm.vmcb import Vmcb
from repro.vmx import fields as F
from repro.vmx.controls import EntryControls, ExitControls, ProcBased, Secondary
from repro.vmx.msr_caps import VmxCapabilities, default_capabilities
from repro.vmx.vmcs import Vmcs

#: Physical addresses carved out for harness structures. Chosen above the
#: VMXON region / VMCS pool used by the execution harness.
IO_BITMAP_A_PA = 0x10000
IO_BITMAP_B_PA = 0x11000
MSR_BITMAP_PA = 0x12000
VIRTUAL_APIC_PA = 0x13000
APIC_ACCESS_PA = 0x14000
EPT_PML4_PA = 0x20000
MSR_AREA_PA = 0x15000

#: Default guest/host entry points and stacks.
GUEST_RIP = 0x40000
GUEST_RSP = 0x48000
HOST_RIP = 0x50000
HOST_RSP = 0x58000


#: Per-capability golden templates; builders are pure, so each template
#: is constructed once and handed out as fast copies. VMCS templates
#: are entry-checked once when built: ``Vmcs.copy()`` shares the memo,
#: so every copy starts with warm per-unit check results. They are
#: looked up by the capability object's identity, which is cheap where
#: hashing the whole dataclass is not: capability sets are interned
#: (``capabilities_for_features``), so equal sets are one object. Each
#: entry keeps its capability object alive, so its id is never reused.
_VMCS_TEMPLATES: dict[int, tuple[VmxCapabilities, Vmcs]] = {}
_VMCB_TEMPLATES: dict[bool, Vmcb] = {}


def golden_vmcs(caps: VmxCapabilities | None = None) -> Vmcs:
    """Build a fully valid, launchable VMCS for a 64-bit guest."""
    caps = caps or default_capabilities()
    entry = _VMCS_TEMPLATES.get(id(caps))
    if entry is None:
        template = _build_golden_vmcs(caps)
        IncrementalChecker(caps).results(template)
        entry = _VMCS_TEMPLATES[id(caps)] = (caps, template)
    return entry[1].copy()


def _build_golden_vmcs(caps: VmxCapabilities) -> Vmcs:
    vmcs = Vmcs(caps.vmcs_revision_id)

    # Control fields: minimum required settings, rounded by capabilities.
    proc = ProcBased.HLT_EXITING | ProcBased.UNCOND_IO_EXITING
    proc2 = 0
    if caps.secondary.allowed1 & Secondary.ENABLE_EPT:
        proc |= ProcBased.ACTIVATE_SECONDARY_CONTROLS
        proc2 |= Secondary.ENABLE_EPT
    if caps.secondary.allowed1 & Secondary.ENABLE_VPID:
        proc |= ProcBased.ACTIVATE_SECONDARY_CONTROLS
        proc2 |= Secondary.ENABLE_VPID
        vmcs.write(F.VIRTUAL_PROCESSOR_ID, 1)
    vmcs.write(F.PIN_BASED_VM_EXEC_CONTROL, caps.pin_based.round(0))
    vmcs.write(F.CPU_BASED_VM_EXEC_CONTROL, caps.proc_based.round(proc))
    vmcs.write(F.SECONDARY_VM_EXEC_CONTROL, caps.secondary.round(proc2))
    vmcs.write(F.VM_ENTRY_CONTROLS, caps.entry.round(
        EntryControls.IA32E_MODE_GUEST | EntryControls.LOAD_EFER))
    vmcs.write(F.VM_EXIT_CONTROLS, caps.exit.round(
        ExitControls.HOST_ADDR_SPACE_SIZE | ExitControls.LOAD_EFER
        | ExitControls.SAVE_EFER))

    if proc2 & Secondary.ENABLE_EPT:
        # WB memory type (6), 4-level walk (3 << 3), page-aligned root.
        vmcs.write(F.EPT_POINTER, EPT_PML4_PA | 6 | (3 << 3))

    # Guest state: flat 64-bit long mode.
    vmcs.write(F.GUEST_CR0, (Cr0.PE | Cr0.PG | Cr0.NE | Cr0.ET | Cr0.MP
                             | Cr0.WP))
    vmcs.write(F.GUEST_CR3, 0x30000)
    vmcs.write(F.GUEST_CR4, Cr4.PAE | Cr4.VMXE)
    vmcs.write(F.GUEST_IA32_EFER, Efer.LME | Efer.LMA | Efer.NXE)
    vmcs.write(F.GUEST_DR7, 0x400)
    vmcs.write(F.GUEST_RSP, GUEST_RSP)
    vmcs.write(F.GUEST_RIP, GUEST_RIP)
    # IF is set so the state stays valid even when a control-field
    # mutation injects an external interrupt (SDM 26.3.1.4).
    vmcs.write(F.GUEST_RFLAGS, Rflags.FIXED_1 | Rflags.IF)
    vmcs.write(F.GUEST_IA32_PAT, 0x0007040600070406)

    cs = flat_segment(0x8, code=True, long_mode=True)
    data = flat_segment(0x10)
    for name, seg in (("cs", cs), ("ss", data), ("ds", data), ("es", data),
                      ("fs", data), ("gs", data)):
        vmcs.write(F.SEGMENT_SELECTOR_FIELDS[name], seg.selector)
        vmcs.write(F.SEGMENT_BASE_FIELDS[name], seg.base)
        vmcs.write(F.SEGMENT_LIMIT_FIELDS[name], seg.limit)
        vmcs.write(F.SEGMENT_AR_FIELDS[name], seg.access_rights)
    tr = tss_segment(0x28, long_mode=True)
    vmcs.write(F.GUEST_TR_SELECTOR, tr.selector)
    vmcs.write(F.GUEST_TR_BASE, tr.base)
    vmcs.write(F.GUEST_TR_LIMIT, tr.limit)
    vmcs.write(F.GUEST_TR_AR_BYTES, tr.access_rights)
    ldtr = ldtr_segment(0x30)
    vmcs.write(F.GUEST_LDTR_SELECTOR, ldtr.selector)
    vmcs.write(F.GUEST_LDTR_BASE, ldtr.base)
    vmcs.write(F.GUEST_LDTR_LIMIT, ldtr.limit)
    vmcs.write(F.GUEST_LDTR_AR_BYTES, ldtr.access_rights)

    vmcs.write(F.GUEST_GDTR_BASE, 0x41000)
    vmcs.write(F.GUEST_GDTR_LIMIT, 0xFF)
    vmcs.write(F.GUEST_IDTR_BASE, 0x42000)
    vmcs.write(F.GUEST_IDTR_LIMIT, 0xFFF)
    vmcs.write(F.VMCS_LINK_POINTER, (1 << 64) - 1)

    # Host state: 64-bit flat.
    vmcs.write(F.HOST_CR0, Cr0.PE | Cr0.PG | Cr0.NE | Cr0.ET | Cr0.MP | Cr0.WP)
    vmcs.write(F.HOST_CR3, 0x60000)
    vmcs.write(F.HOST_CR4, Cr4.PAE | Cr4.VMXE)
    vmcs.write(F.HOST_IA32_EFER, Efer.LME | Efer.LMA | Efer.NXE)
    vmcs.write(F.HOST_CS_SELECTOR, 0x10)
    vmcs.write(F.HOST_TR_SELECTOR, 0x40)
    for name in ("es", "ss", "ds", "fs", "gs"):
        vmcs.write(F.HOST_SELECTOR_FIELDS[name], 0x18)
    vmcs.write(F.HOST_GDTR_BASE, 0x61000)
    vmcs.write(F.HOST_IDTR_BASE, 0x62000)
    vmcs.write(F.HOST_TR_BASE, 0x63000)
    vmcs.write(F.HOST_RSP, HOST_RSP)
    vmcs.write(F.HOST_RIP, HOST_RIP)
    vmcs.write(F.HOST_IA32_PAT, 0x0007040600070406)
    return vmcs


def golden_vmcb(*, nested_paging: bool = True) -> Vmcb:
    """Build a fully valid, runnable VMCB for a 64-bit guest."""
    template = _VMCB_TEMPLATES.get(nested_paging)
    if template is None:
        template = _build_golden_vmcb(nested_paging)
        _VMCB_TEMPLATES[nested_paging] = template
    return template.copy()


def _build_golden_vmcb(nested_paging: bool) -> Vmcb:
    vmcb = Vmcb()
    vmcb.write(SF.INTERCEPT_MISC1, Misc1Intercept.INTR | Misc1Intercept.NMI
               | Misc1Intercept.CPUID | Misc1Intercept.HLT
               | Misc1Intercept.IOIO_PROT | Misc1Intercept.MSR_PROT
               | Misc1Intercept.SHUTDOWN)
    vmcb.write(SF.INTERCEPT_MISC2, Misc2Intercept.VMRUN | Misc2Intercept.VMMCALL
               | Misc2Intercept.VMLOAD | Misc2Intercept.VMSAVE
               | Misc2Intercept.STGI | Misc2Intercept.CLGI
               | Misc2Intercept.SKINIT)
    vmcb.write(SF.IOPM_BASE_PA, IO_BITMAP_A_PA)
    vmcb.write(SF.MSRPM_BASE_PA, MSR_BITMAP_PA)
    vmcb.write(SF.GUEST_ASID, 1)
    if nested_paging:
        vmcb.write(SF.NP_CONTROL, SF.NpControl.NP_ENABLE)
        vmcb.write(SF.N_CR3, EPT_PML4_PA)

    vmcb.write(SF.EFER, Efer.SVME | Efer.LME | Efer.LMA | Efer.NXE)
    vmcb.write(SF.CR0, Cr0.PE | Cr0.PG | Cr0.NE | Cr0.ET | Cr0.MP | Cr0.WP)
    vmcb.write(SF.CR3, 0x30000)
    vmcb.write(SF.CR4, Cr4.PAE)
    vmcb.write(SF.DR6, 0xFFFF0FF0)
    vmcb.write(SF.DR7, 0x400)
    vmcb.write(SF.RFLAGS, Rflags.FIXED_1)
    vmcb.write(SF.RIP, GUEST_RIP)
    vmcb.write(SF.RSP, GUEST_RSP)
    vmcb.write(SF.G_PAT, 0x0007040600070406)

    # Flat segments: attrib layout is AR>>4 style (type|S|DPL|P in low
    # 12 bits, L at 9, DB at 10, G at 11).
    code_attrib = 0xB | (1 << 4) | (1 << 7) | (1 << 9)   # code, S, P, L
    data_attrib = 0x3 | (1 << 4) | (1 << 7) | (1 << 10)  # data, S, P, DB
    for seg, attrib, sel in (("cs", code_attrib, 0x8), ("ss", data_attrib, 0x10),
                             ("ds", data_attrib, 0x10), ("es", data_attrib, 0x10),
                             ("fs", data_attrib, 0x10), ("gs", data_attrib, 0x10)):
        vmcb.write(f"{seg}_selector", sel)
        vmcb.write(f"{seg}_attrib", attrib)
        vmcb.write(f"{seg}_limit", 0xFFFFFFFF)
        vmcb.write(f"{seg}_base", 0)
    vmcb.write("tr_selector", 0x28)
    vmcb.write("tr_attrib", 0xB | (1 << 7))
    vmcb.write("tr_limit", 0x67)
    vmcb.write("tr_base", 0x1000)
    vmcb.write("gdtr_limit", 0xFF)
    vmcb.write("gdtr_base", 0x41000)
    vmcb.write("idtr_limit", 0xFFF)
    vmcb.write("idtr_base", 0x42000)
    vmcb.write(SF.KERNEL_GS_BASE, 0)
    vmcb.write(SF.SYSENTER_CS, MSR.IA32_SYSENTER_CS & 0)
    return vmcb
