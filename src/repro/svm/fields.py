"""VMCB field layout (AMD APM Vol. 2, Appendix B).

The VMCB is split into a *control area* (intercept vectors, TLB control,
virtual-interrupt control, exit information, nested-paging control) and a
*state save area* (segment registers, control registers, MSR images). We
assign each field a stable symbolic name and a width; layout order is
definition order, giving a canonical serialisation for Hamming-distance
work, parallel to the VMCS model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class VmcbArea(Enum):
    """Which half of the VMCB a field lives in."""

    CONTROL = "control"
    SAVE = "save"


@dataclass(frozen=True)
class VmcbField:
    """Static description of one VMCB field."""

    name: str
    area: VmcbArea
    bits: int


_SPECS: list[VmcbField] = []


def _f(name: str, area: VmcbArea, bits: int) -> str:
    _SPECS.append(VmcbField(name, area, bits))
    return name


# --- Control area -----------------------------------------------------------
INTERCEPT_CR_READS = _f("intercept_cr_reads", VmcbArea.CONTROL, 16)
INTERCEPT_CR_WRITES = _f("intercept_cr_writes", VmcbArea.CONTROL, 16)
INTERCEPT_DR_READS = _f("intercept_dr_reads", VmcbArea.CONTROL, 16)
INTERCEPT_DR_WRITES = _f("intercept_dr_writes", VmcbArea.CONTROL, 16)
INTERCEPT_EXCEPTIONS = _f("intercept_exceptions", VmcbArea.CONTROL, 32)
INTERCEPT_MISC1 = _f("intercept_misc1", VmcbArea.CONTROL, 32)  # INTR..FERR_FREEZE
INTERCEPT_MISC2 = _f("intercept_misc2", VmcbArea.CONTROL, 32)  # VMRUN..XSETBV
INTERCEPT_MISC3 = _f("intercept_misc3", VmcbArea.CONTROL, 32)
PAUSE_FILTER_THRESHOLD = _f("pause_filter_threshold", VmcbArea.CONTROL, 16)
PAUSE_FILTER_COUNT = _f("pause_filter_count", VmcbArea.CONTROL, 16)
IOPM_BASE_PA = _f("iopm_base_pa", VmcbArea.CONTROL, 64)
MSRPM_BASE_PA = _f("msrpm_base_pa", VmcbArea.CONTROL, 64)
TSC_OFFSET = _f("tsc_offset", VmcbArea.CONTROL, 64)
GUEST_ASID = _f("guest_asid", VmcbArea.CONTROL, 32)
TLB_CONTROL = _f("tlb_control", VmcbArea.CONTROL, 8)
VINTR_CONTROL = _f("vintr_control", VmcbArea.CONTROL, 64)  # V_TPR..V_INTR_VECTOR
INTERRUPT_SHADOW = _f("interrupt_shadow", VmcbArea.CONTROL, 64)
EXIT_CODE = _f("exit_code", VmcbArea.CONTROL, 64)
EXIT_INFO_1 = _f("exit_info_1", VmcbArea.CONTROL, 64)
EXIT_INFO_2 = _f("exit_info_2", VmcbArea.CONTROL, 64)
EXIT_INT_INFO = _f("exit_int_info", VmcbArea.CONTROL, 64)
NP_CONTROL = _f("np_control", VmcbArea.CONTROL, 64)  # NP_ENABLE, SEV bits
AVIC_APIC_BAR = _f("avic_apic_bar", VmcbArea.CONTROL, 64)
GHCB_PA = _f("ghcb_pa", VmcbArea.CONTROL, 64)
EVENT_INJECTION = _f("event_injection", VmcbArea.CONTROL, 64)
N_CR3 = _f("n_cr3", VmcbArea.CONTROL, 64)
LBR_VIRT_ENABLE = _f("lbr_virt_enable", VmcbArea.CONTROL, 64)  # incl. VMSAVE/VMLOAD virt
VMCB_CLEAN = _f("vmcb_clean", VmcbArea.CONTROL, 32)
NEXT_RIP = _f("next_rip", VmcbArea.CONTROL, 64)
GUEST_INSTR_BYTES_LEN = _f("guest_instr_bytes_len", VmcbArea.CONTROL, 8)
AVIC_BACKING_PAGE = _f("avic_backing_page", VmcbArea.CONTROL, 64)
AVIC_LOGICAL_TABLE = _f("avic_logical_table", VmcbArea.CONTROL, 64)
AVIC_PHYSICAL_TABLE = _f("avic_physical_table", VmcbArea.CONTROL, 64)
VMSA_POINTER = _f("vmsa_pointer", VmcbArea.CONTROL, 64)

# --- State save area ----------------------------------------------------------
for _seg in ("es", "cs", "ss", "ds", "fs", "gs", "gdtr", "ldtr", "idtr", "tr"):
    _f(f"{_seg}_selector", VmcbArea.SAVE, 16)
    _f(f"{_seg}_attrib", VmcbArea.SAVE, 16)
    _f(f"{_seg}_limit", VmcbArea.SAVE, 32)
    _f(f"{_seg}_base", VmcbArea.SAVE, 64)

CPL = _f("cpl", VmcbArea.SAVE, 8)
EFER = _f("efer", VmcbArea.SAVE, 64)
CR0 = _f("cr0", VmcbArea.SAVE, 64)
CR2 = _f("cr2", VmcbArea.SAVE, 64)
CR3 = _f("cr3", VmcbArea.SAVE, 64)
CR4 = _f("cr4", VmcbArea.SAVE, 64)
DR6 = _f("dr6", VmcbArea.SAVE, 64)
DR7 = _f("dr7", VmcbArea.SAVE, 64)
RFLAGS = _f("rflags", VmcbArea.SAVE, 64)
RIP = _f("rip", VmcbArea.SAVE, 64)
RSP = _f("rsp", VmcbArea.SAVE, 64)
RAX = _f("rax", VmcbArea.SAVE, 64)
STAR = _f("star", VmcbArea.SAVE, 64)
LSTAR = _f("lstar", VmcbArea.SAVE, 64)
CSTAR = _f("cstar", VmcbArea.SAVE, 64)
SFMASK = _f("sfmask", VmcbArea.SAVE, 64)
KERNEL_GS_BASE = _f("kernel_gs_base", VmcbArea.SAVE, 64)
SYSENTER_CS = _f("sysenter_cs", VmcbArea.SAVE, 64)
SYSENTER_ESP = _f("sysenter_esp", VmcbArea.SAVE, 64)
SYSENTER_EIP = _f("sysenter_eip", VmcbArea.SAVE, 64)
G_PAT = _f("g_pat", VmcbArea.SAVE, 64)
DBGCTL = _f("dbgctl", VmcbArea.SAVE, 64)
BR_FROM = _f("br_from", VmcbArea.SAVE, 64)
BR_TO = _f("br_to", VmcbArea.SAVE, 64)
LAST_EXCP_FROM = _f("last_excp_from", VmcbArea.SAVE, 64)
LAST_EXCP_TO = _f("last_excp_to", VmcbArea.SAVE, 64)
SPEC_CTRL = _f("spec_ctrl", VmcbArea.SAVE, 64)

ALL_FIELDS: tuple[VmcbField, ...] = tuple(_SPECS)
SPEC_BY_NAME: dict[str, VmcbField] = {s.name: s for s in ALL_FIELDS}

#: Save-area field names in layout order: the group the nested models
#: copy between VMCB12 and VMCB02 with ``Vmcb.copy_fields``.
SAVE_NAMES: tuple[str, ...] = tuple(
    s.name for s in ALL_FIELDS if s.area is VmcbArea.SAVE)

LAYOUT_BITS = sum(s.bits for s in ALL_FIELDS)
LAYOUT_BYTES = (LAYOUT_BITS + 7) // 8

#: Segment register prefixes in save-area order.
SEGMENT_NAMES = ("es", "cs", "ss", "ds", "fs", "gs", "gdtr", "ldtr", "idtr", "tr")


# --- Control-area bit definitions --------------------------------------------

class Misc1Intercept:
    """intercept_misc1 bits (APM 15.9/15.13)."""

    INTR = 1 << 0
    NMI = 1 << 1
    SMI = 1 << 2
    INIT = 1 << 3
    VINTR = 1 << 4
    CR0_SEL_WRITE = 1 << 5
    READ_IDTR = 1 << 6
    READ_GDTR = 1 << 7
    READ_LDTR = 1 << 8
    READ_TR = 1 << 9
    RDTSC = 1 << 14
    RDPMC = 1 << 15
    PUSHF = 1 << 16
    POPF = 1 << 17
    CPUID = 1 << 18
    RSM = 1 << 19
    IRET = 1 << 20
    INTN = 1 << 21
    INVD = 1 << 22
    PAUSE = 1 << 23
    HLT = 1 << 24
    INVLPG = 1 << 25
    INVLPGA = 1 << 26
    IOIO_PROT = 1 << 27
    MSR_PROT = 1 << 28
    TASK_SWITCH = 1 << 29
    FERR_FREEZE = 1 << 30
    SHUTDOWN = 1 << 31


class Misc2Intercept:
    """intercept_misc2 bits."""

    VMRUN = 1 << 0
    VMMCALL = 1 << 1
    VMLOAD = 1 << 2
    VMSAVE = 1 << 3
    STGI = 1 << 4
    CLGI = 1 << 5
    SKINIT = 1 << 6
    RDTSCP = 1 << 7
    ICEBP = 1 << 8
    WBINVD = 1 << 9
    MONITOR = 1 << 10
    MWAIT = 1 << 11
    MWAIT_COND = 1 << 12
    XSETBV = 1 << 13
    RDPRU = 1 << 14
    EFER_WRITE_TRAP = 1 << 15


class VintrControl:
    """vintr_control bit fields (APM 15.21)."""

    V_TPR_MASK = 0xFF
    V_IRQ = 1 << 8
    V_GIF = 1 << 9          # virtual GIF value
    V_NMI = 1 << 11
    V_INTR_PRIO_SHIFT = 16
    V_IGN_TPR = 1 << 20
    V_INTR_MASKING = 1 << 24
    V_GIF_ENABLE = 1 << 25  # VGIF feature enable
    AVIC_ENABLE = 1 << 31   # modelled at bit 31 of the vintr word


class NpControl:
    """np_control bits."""

    NP_ENABLE = 1 << 0
    SEV_ENABLE = 1 << 1
    SEV_ES_ENABLE = 1 << 2
