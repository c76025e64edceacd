"""VMCS field encodings, widths, and layout.

The paper's Figure-5 experiment is defined over "an 8,000-bit VM state
across 165 fields with predefined widths"; this module is that layout.
Field encodings follow the Intel SDM Vol. 3 Appendix B scheme: bit 0 is
the access type (high half of a 64-bit field), bits 9:1 the index, bits
11:10 the type (control / read-only data / guest state / host state), and
bits 14:13 the width (16 / 64 / 32 / natural).

We model natural-width fields as 64-bit, as every 64-bit-capable CPU does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class FieldGroup(Enum):
    """VMCS field type, encoded in encoding bits 11:10."""

    CONTROL = 0
    READ_ONLY = 1
    GUEST = 2
    HOST = 3


class FieldWidth(Enum):
    """VMCS field width class, encoded in encoding bits 14:13."""

    W16 = 0
    W64 = 1
    W32 = 2
    NATURAL = 3

    @property
    def bits(self) -> int:
        """Effective storage width in bits (natural == 64)."""
        # Plain-int keyed table: this property sits on the per-vmwrite
        # hot path, where hashing enum members (a Python-level __hash__)
        # dominated the tracer-visible cost.
        return _WIDTH_BITS[self._value_]


#: Storage width by FieldWidth value (W16, W64, W32, NATURAL).
_WIDTH_BITS = {0: 16, 1: 64, 2: 32, 3: 64}


@dataclass(frozen=True)
class FieldSpec:
    """Static description of one VMCS field."""

    encoding: int
    name: str
    group: FieldGroup
    width: FieldWidth

    @property
    def bits(self) -> int:
        """Effective storage width in bits."""
        return _WIDTH_BITS[self.width._value_]


def _enc(width: FieldWidth, group: FieldGroup, index: int, *, high: bool = False) -> int:
    """Build a VMCS field encoding from its components."""
    return (
        (1 if high else 0)
        | (index << 1)
        | (group.value << 10)
        | (width.value << 13)
    )


_SPECS: list[FieldSpec] = []


def _f(width: FieldWidth, group: FieldGroup, index: int, name: str) -> int:
    """Register a field and return its encoding (module-definition helper)."""
    encoding = _enc(width, group, index)
    _SPECS.append(FieldSpec(encoding, name, group, width))
    return encoding


# --- 16-bit control fields -------------------------------------------------
VIRTUAL_PROCESSOR_ID = _f(FieldWidth.W16, FieldGroup.CONTROL, 0, "virtual_processor_id")
POSTED_INTR_NV = _f(FieldWidth.W16, FieldGroup.CONTROL, 1, "posted_intr_notification_vector")
EPTP_INDEX = _f(FieldWidth.W16, FieldGroup.CONTROL, 2, "eptp_index")

# --- 16-bit guest-state fields ----------------------------------------------
GUEST_ES_SELECTOR = _f(FieldWidth.W16, FieldGroup.GUEST, 0, "guest_es_selector")
GUEST_CS_SELECTOR = _f(FieldWidth.W16, FieldGroup.GUEST, 1, "guest_cs_selector")
GUEST_SS_SELECTOR = _f(FieldWidth.W16, FieldGroup.GUEST, 2, "guest_ss_selector")
GUEST_DS_SELECTOR = _f(FieldWidth.W16, FieldGroup.GUEST, 3, "guest_ds_selector")
GUEST_FS_SELECTOR = _f(FieldWidth.W16, FieldGroup.GUEST, 4, "guest_fs_selector")
GUEST_GS_SELECTOR = _f(FieldWidth.W16, FieldGroup.GUEST, 5, "guest_gs_selector")
GUEST_LDTR_SELECTOR = _f(FieldWidth.W16, FieldGroup.GUEST, 6, "guest_ldtr_selector")
GUEST_TR_SELECTOR = _f(FieldWidth.W16, FieldGroup.GUEST, 7, "guest_tr_selector")
GUEST_INTR_STATUS = _f(FieldWidth.W16, FieldGroup.GUEST, 8, "guest_interrupt_status")
GUEST_PML_INDEX = _f(FieldWidth.W16, FieldGroup.GUEST, 9, "guest_pml_index")

# --- 16-bit host-state fields -----------------------------------------------
HOST_ES_SELECTOR = _f(FieldWidth.W16, FieldGroup.HOST, 0, "host_es_selector")
HOST_CS_SELECTOR = _f(FieldWidth.W16, FieldGroup.HOST, 1, "host_cs_selector")
HOST_SS_SELECTOR = _f(FieldWidth.W16, FieldGroup.HOST, 2, "host_ss_selector")
HOST_DS_SELECTOR = _f(FieldWidth.W16, FieldGroup.HOST, 3, "host_ds_selector")
HOST_FS_SELECTOR = _f(FieldWidth.W16, FieldGroup.HOST, 4, "host_fs_selector")
HOST_GS_SELECTOR = _f(FieldWidth.W16, FieldGroup.HOST, 5, "host_gs_selector")
HOST_TR_SELECTOR = _f(FieldWidth.W16, FieldGroup.HOST, 6, "host_tr_selector")

# --- 64-bit control fields --------------------------------------------------
IO_BITMAP_A = _f(FieldWidth.W64, FieldGroup.CONTROL, 0, "io_bitmap_a")
IO_BITMAP_B = _f(FieldWidth.W64, FieldGroup.CONTROL, 1, "io_bitmap_b")
MSR_BITMAP = _f(FieldWidth.W64, FieldGroup.CONTROL, 2, "msr_bitmap")
VM_EXIT_MSR_STORE_ADDR = _f(FieldWidth.W64, FieldGroup.CONTROL, 3, "vm_exit_msr_store_addr")
VM_EXIT_MSR_LOAD_ADDR = _f(FieldWidth.W64, FieldGroup.CONTROL, 4, "vm_exit_msr_load_addr")
VM_ENTRY_MSR_LOAD_ADDR = _f(FieldWidth.W64, FieldGroup.CONTROL, 5, "vm_entry_msr_load_addr")
EXECUTIVE_VMCS_POINTER = _f(FieldWidth.W64, FieldGroup.CONTROL, 6, "executive_vmcs_pointer")
PML_ADDRESS = _f(FieldWidth.W64, FieldGroup.CONTROL, 7, "pml_address")
TSC_OFFSET = _f(FieldWidth.W64, FieldGroup.CONTROL, 8, "tsc_offset")
VIRTUAL_APIC_PAGE_ADDR = _f(FieldWidth.W64, FieldGroup.CONTROL, 9, "virtual_apic_page_addr")
APIC_ACCESS_ADDR = _f(FieldWidth.W64, FieldGroup.CONTROL, 10, "apic_access_addr")
POSTED_INTR_DESC_ADDR = _f(FieldWidth.W64, FieldGroup.CONTROL, 11, "posted_intr_desc_addr")
VM_FUNCTION_CONTROL = _f(FieldWidth.W64, FieldGroup.CONTROL, 12, "vm_function_control")
EPT_POINTER = _f(FieldWidth.W64, FieldGroup.CONTROL, 13, "ept_pointer")
EOI_EXIT_BITMAP0 = _f(FieldWidth.W64, FieldGroup.CONTROL, 14, "eoi_exit_bitmap0")
EOI_EXIT_BITMAP1 = _f(FieldWidth.W64, FieldGroup.CONTROL, 15, "eoi_exit_bitmap1")
EOI_EXIT_BITMAP2 = _f(FieldWidth.W64, FieldGroup.CONTROL, 16, "eoi_exit_bitmap2")
EOI_EXIT_BITMAP3 = _f(FieldWidth.W64, FieldGroup.CONTROL, 17, "eoi_exit_bitmap3")
EPTP_LIST_ADDRESS = _f(FieldWidth.W64, FieldGroup.CONTROL, 18, "eptp_list_address")
VMREAD_BITMAP = _f(FieldWidth.W64, FieldGroup.CONTROL, 19, "vmread_bitmap")
VMWRITE_BITMAP = _f(FieldWidth.W64, FieldGroup.CONTROL, 20, "vmwrite_bitmap")
VE_INFORMATION_ADDRESS = _f(FieldWidth.W64, FieldGroup.CONTROL, 21, "virtualization_exception_info_addr")
XSS_EXIT_BITMAP = _f(FieldWidth.W64, FieldGroup.CONTROL, 22, "xss_exit_bitmap")
ENCLS_EXITING_BITMAP = _f(FieldWidth.W64, FieldGroup.CONTROL, 23, "encls_exiting_bitmap")
SUB_PAGE_PERMISSION_PTR = _f(FieldWidth.W64, FieldGroup.CONTROL, 24, "sub_page_permission_ptr")
TSC_MULTIPLIER = _f(FieldWidth.W64, FieldGroup.CONTROL, 25, "tsc_multiplier")
TERTIARY_VM_EXEC_CONTROL = _f(FieldWidth.W64, FieldGroup.CONTROL, 26, "tertiary_vm_exec_control")
ENCLV_EXITING_BITMAP = _f(FieldWidth.W64, FieldGroup.CONTROL, 27, "enclv_exiting_bitmap")
HLAT_POINTER = _f(FieldWidth.W64, FieldGroup.CONTROL, 28, "hlat_pointer")

# --- 64-bit read-only data fields --------------------------------------------
GUEST_PHYSICAL_ADDRESS = _f(FieldWidth.W64, FieldGroup.READ_ONLY, 0, "guest_physical_address")

# --- 64-bit guest-state fields ------------------------------------------------
VMCS_LINK_POINTER = _f(FieldWidth.W64, FieldGroup.GUEST, 0, "vmcs_link_pointer")
GUEST_IA32_DEBUGCTL = _f(FieldWidth.W64, FieldGroup.GUEST, 1, "guest_ia32_debugctl")
GUEST_IA32_PAT = _f(FieldWidth.W64, FieldGroup.GUEST, 2, "guest_ia32_pat")
GUEST_IA32_EFER = _f(FieldWidth.W64, FieldGroup.GUEST, 3, "guest_ia32_efer")
GUEST_IA32_PERF_GLOBAL_CTRL = _f(FieldWidth.W64, FieldGroup.GUEST, 4, "guest_ia32_perf_global_ctrl")
GUEST_PDPTE0 = _f(FieldWidth.W64, FieldGroup.GUEST, 5, "guest_pdpte0")
GUEST_PDPTE1 = _f(FieldWidth.W64, FieldGroup.GUEST, 6, "guest_pdpte1")
GUEST_PDPTE2 = _f(FieldWidth.W64, FieldGroup.GUEST, 7, "guest_pdpte2")
GUEST_PDPTE3 = _f(FieldWidth.W64, FieldGroup.GUEST, 8, "guest_pdpte3")
GUEST_IA32_BNDCFGS = _f(FieldWidth.W64, FieldGroup.GUEST, 9, "guest_ia32_bndcfgs")
GUEST_IA32_RTIT_CTL = _f(FieldWidth.W64, FieldGroup.GUEST, 10, "guest_ia32_rtit_ctl")
GUEST_IA32_LBR_CTL = _f(FieldWidth.W64, FieldGroup.GUEST, 11, "guest_ia32_lbr_ctl")
GUEST_IA32_PKRS = _f(FieldWidth.W64, FieldGroup.GUEST, 12, "guest_ia32_pkrs")
GUEST_IA32_S_CET = _f(FieldWidth.W64, FieldGroup.GUEST, 13, "guest_ia32_s_cet")

# --- 64-bit host-state fields ---------------------------------------------------
HOST_IA32_PAT = _f(FieldWidth.W64, FieldGroup.HOST, 0, "host_ia32_pat")
HOST_IA32_EFER = _f(FieldWidth.W64, FieldGroup.HOST, 1, "host_ia32_efer")
HOST_IA32_PERF_GLOBAL_CTRL = _f(FieldWidth.W64, FieldGroup.HOST, 2, "host_ia32_perf_global_ctrl")
HOST_IA32_PKRS = _f(FieldWidth.W64, FieldGroup.HOST, 3, "host_ia32_pkrs")
HOST_IA32_S_CET = _f(FieldWidth.W64, FieldGroup.HOST, 4, "host_ia32_s_cet")

# --- 32-bit control fields --------------------------------------------------------
PIN_BASED_VM_EXEC_CONTROL = _f(FieldWidth.W32, FieldGroup.CONTROL, 0, "pin_based_vm_exec_control")
CPU_BASED_VM_EXEC_CONTROL = _f(FieldWidth.W32, FieldGroup.CONTROL, 1, "cpu_based_vm_exec_control")
EXCEPTION_BITMAP = _f(FieldWidth.W32, FieldGroup.CONTROL, 2, "exception_bitmap")
PAGE_FAULT_ERROR_CODE_MASK = _f(FieldWidth.W32, FieldGroup.CONTROL, 3, "page_fault_error_code_mask")
PAGE_FAULT_ERROR_CODE_MATCH = _f(FieldWidth.W32, FieldGroup.CONTROL, 4, "page_fault_error_code_match")
CR3_TARGET_COUNT = _f(FieldWidth.W32, FieldGroup.CONTROL, 5, "cr3_target_count")
VM_EXIT_CONTROLS = _f(FieldWidth.W32, FieldGroup.CONTROL, 6, "vm_exit_controls")
VM_EXIT_MSR_STORE_COUNT = _f(FieldWidth.W32, FieldGroup.CONTROL, 7, "vm_exit_msr_store_count")
VM_EXIT_MSR_LOAD_COUNT = _f(FieldWidth.W32, FieldGroup.CONTROL, 8, "vm_exit_msr_load_count")
VM_ENTRY_CONTROLS = _f(FieldWidth.W32, FieldGroup.CONTROL, 9, "vm_entry_controls")
VM_ENTRY_MSR_LOAD_COUNT = _f(FieldWidth.W32, FieldGroup.CONTROL, 10, "vm_entry_msr_load_count")
VM_ENTRY_INTR_INFO_FIELD = _f(FieldWidth.W32, FieldGroup.CONTROL, 11, "vm_entry_intr_info")
VM_ENTRY_EXCEPTION_ERROR_CODE = _f(FieldWidth.W32, FieldGroup.CONTROL, 12, "vm_entry_exception_error_code")
VM_ENTRY_INSTRUCTION_LEN = _f(FieldWidth.W32, FieldGroup.CONTROL, 13, "vm_entry_instruction_len")
TPR_THRESHOLD = _f(FieldWidth.W32, FieldGroup.CONTROL, 14, "tpr_threshold")
SECONDARY_VM_EXEC_CONTROL = _f(FieldWidth.W32, FieldGroup.CONTROL, 15, "secondary_vm_exec_control")
PLE_GAP = _f(FieldWidth.W32, FieldGroup.CONTROL, 16, "ple_gap")
PLE_WINDOW = _f(FieldWidth.W32, FieldGroup.CONTROL, 17, "ple_window")

# --- 32-bit read-only data fields ----------------------------------------------------
VM_INSTRUCTION_ERROR = _f(FieldWidth.W32, FieldGroup.READ_ONLY, 0, "vm_instruction_error")
VM_EXIT_REASON = _f(FieldWidth.W32, FieldGroup.READ_ONLY, 1, "vm_exit_reason")
VM_EXIT_INTR_INFO = _f(FieldWidth.W32, FieldGroup.READ_ONLY, 2, "vm_exit_intr_info")
VM_EXIT_INTR_ERROR_CODE = _f(FieldWidth.W32, FieldGroup.READ_ONLY, 3, "vm_exit_intr_error_code")
IDT_VECTORING_INFO_FIELD = _f(FieldWidth.W32, FieldGroup.READ_ONLY, 4, "idt_vectoring_info")
IDT_VECTORING_ERROR_CODE = _f(FieldWidth.W32, FieldGroup.READ_ONLY, 5, "idt_vectoring_error_code")
VM_EXIT_INSTRUCTION_LEN = _f(FieldWidth.W32, FieldGroup.READ_ONLY, 6, "vm_exit_instruction_len")
VMX_INSTRUCTION_INFO = _f(FieldWidth.W32, FieldGroup.READ_ONLY, 7, "vmx_instruction_info")

# --- 32-bit guest-state fields ----------------------------------------------------------
GUEST_ES_LIMIT = _f(FieldWidth.W32, FieldGroup.GUEST, 0, "guest_es_limit")
GUEST_CS_LIMIT = _f(FieldWidth.W32, FieldGroup.GUEST, 1, "guest_cs_limit")
GUEST_SS_LIMIT = _f(FieldWidth.W32, FieldGroup.GUEST, 2, "guest_ss_limit")
GUEST_DS_LIMIT = _f(FieldWidth.W32, FieldGroup.GUEST, 3, "guest_ds_limit")
GUEST_FS_LIMIT = _f(FieldWidth.W32, FieldGroup.GUEST, 4, "guest_fs_limit")
GUEST_GS_LIMIT = _f(FieldWidth.W32, FieldGroup.GUEST, 5, "guest_gs_limit")
GUEST_LDTR_LIMIT = _f(FieldWidth.W32, FieldGroup.GUEST, 6, "guest_ldtr_limit")
GUEST_TR_LIMIT = _f(FieldWidth.W32, FieldGroup.GUEST, 7, "guest_tr_limit")
GUEST_GDTR_LIMIT = _f(FieldWidth.W32, FieldGroup.GUEST, 8, "guest_gdtr_limit")
GUEST_IDTR_LIMIT = _f(FieldWidth.W32, FieldGroup.GUEST, 9, "guest_idtr_limit")
GUEST_ES_AR_BYTES = _f(FieldWidth.W32, FieldGroup.GUEST, 10, "guest_es_ar_bytes")
GUEST_CS_AR_BYTES = _f(FieldWidth.W32, FieldGroup.GUEST, 11, "guest_cs_ar_bytes")
GUEST_SS_AR_BYTES = _f(FieldWidth.W32, FieldGroup.GUEST, 12, "guest_ss_ar_bytes")
GUEST_DS_AR_BYTES = _f(FieldWidth.W32, FieldGroup.GUEST, 13, "guest_ds_ar_bytes")
GUEST_FS_AR_BYTES = _f(FieldWidth.W32, FieldGroup.GUEST, 14, "guest_fs_ar_bytes")
GUEST_GS_AR_BYTES = _f(FieldWidth.W32, FieldGroup.GUEST, 15, "guest_gs_ar_bytes")
GUEST_LDTR_AR_BYTES = _f(FieldWidth.W32, FieldGroup.GUEST, 16, "guest_ldtr_ar_bytes")
GUEST_TR_AR_BYTES = _f(FieldWidth.W32, FieldGroup.GUEST, 17, "guest_tr_ar_bytes")
GUEST_INTERRUPTIBILITY_INFO = _f(FieldWidth.W32, FieldGroup.GUEST, 18, "guest_interruptibility_info")
GUEST_ACTIVITY_STATE = _f(FieldWidth.W32, FieldGroup.GUEST, 19, "guest_activity_state")
GUEST_SMBASE = _f(FieldWidth.W32, FieldGroup.GUEST, 20, "guest_smbase")
GUEST_SYSENTER_CS = _f(FieldWidth.W32, FieldGroup.GUEST, 21, "guest_sysenter_cs")
VMX_PREEMPTION_TIMER_VALUE = _f(FieldWidth.W32, FieldGroup.GUEST, 23, "vmx_preemption_timer_value")

# --- 32-bit host-state fields ---------------------------------------------------------------
HOST_IA32_SYSENTER_CS = _f(FieldWidth.W32, FieldGroup.HOST, 0, "host_ia32_sysenter_cs")

# --- natural-width control fields ------------------------------------------------------------
CR0_GUEST_HOST_MASK = _f(FieldWidth.NATURAL, FieldGroup.CONTROL, 0, "cr0_guest_host_mask")
CR4_GUEST_HOST_MASK = _f(FieldWidth.NATURAL, FieldGroup.CONTROL, 1, "cr4_guest_host_mask")
CR0_READ_SHADOW = _f(FieldWidth.NATURAL, FieldGroup.CONTROL, 2, "cr0_read_shadow")
CR4_READ_SHADOW = _f(FieldWidth.NATURAL, FieldGroup.CONTROL, 3, "cr4_read_shadow")
CR3_TARGET_VALUE0 = _f(FieldWidth.NATURAL, FieldGroup.CONTROL, 4, "cr3_target_value0")
CR3_TARGET_VALUE1 = _f(FieldWidth.NATURAL, FieldGroup.CONTROL, 5, "cr3_target_value1")
CR3_TARGET_VALUE2 = _f(FieldWidth.NATURAL, FieldGroup.CONTROL, 6, "cr3_target_value2")
CR3_TARGET_VALUE3 = _f(FieldWidth.NATURAL, FieldGroup.CONTROL, 7, "cr3_target_value3")

# --- natural-width read-only data fields -------------------------------------------------------
EXIT_QUALIFICATION = _f(FieldWidth.NATURAL, FieldGroup.READ_ONLY, 0, "exit_qualification")
IO_RCX = _f(FieldWidth.NATURAL, FieldGroup.READ_ONLY, 1, "io_rcx")
IO_RSI = _f(FieldWidth.NATURAL, FieldGroup.READ_ONLY, 2, "io_rsi")
IO_RDI = _f(FieldWidth.NATURAL, FieldGroup.READ_ONLY, 3, "io_rdi")
IO_RIP = _f(FieldWidth.NATURAL, FieldGroup.READ_ONLY, 4, "io_rip")
GUEST_LINEAR_ADDRESS = _f(FieldWidth.NATURAL, FieldGroup.READ_ONLY, 5, "guest_linear_address")

# --- natural-width guest-state fields ------------------------------------------------------------
GUEST_CR0 = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 0, "guest_cr0")
GUEST_CR3 = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 1, "guest_cr3")
GUEST_CR4 = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 2, "guest_cr4")
GUEST_ES_BASE = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 3, "guest_es_base")
GUEST_CS_BASE = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 4, "guest_cs_base")
GUEST_SS_BASE = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 5, "guest_ss_base")
GUEST_DS_BASE = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 6, "guest_ds_base")
GUEST_FS_BASE = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 7, "guest_fs_base")
GUEST_GS_BASE = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 8, "guest_gs_base")
GUEST_LDTR_BASE = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 9, "guest_ldtr_base")
GUEST_TR_BASE = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 10, "guest_tr_base")
GUEST_GDTR_BASE = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 11, "guest_gdtr_base")
GUEST_IDTR_BASE = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 12, "guest_idtr_base")
GUEST_DR7 = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 13, "guest_dr7")
GUEST_RSP = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 14, "guest_rsp")
GUEST_RIP = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 15, "guest_rip")
GUEST_RFLAGS = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 16, "guest_rflags")
GUEST_PENDING_DBG_EXCEPTIONS = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 17, "guest_pending_dbg_exceptions")
GUEST_SYSENTER_ESP = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 18, "guest_sysenter_esp")
GUEST_SYSENTER_EIP = _f(FieldWidth.NATURAL, FieldGroup.GUEST, 19, "guest_sysenter_eip")

# --- natural-width host-state fields ----------------------------------------------------------------
HOST_CR0 = _f(FieldWidth.NATURAL, FieldGroup.HOST, 0, "host_cr0")
HOST_CR3 = _f(FieldWidth.NATURAL, FieldGroup.HOST, 1, "host_cr3")
HOST_CR4 = _f(FieldWidth.NATURAL, FieldGroup.HOST, 2, "host_cr4")
HOST_FS_BASE = _f(FieldWidth.NATURAL, FieldGroup.HOST, 3, "host_fs_base")
HOST_GS_BASE = _f(FieldWidth.NATURAL, FieldGroup.HOST, 4, "host_gs_base")
HOST_TR_BASE = _f(FieldWidth.NATURAL, FieldGroup.HOST, 5, "host_tr_base")
HOST_GDTR_BASE = _f(FieldWidth.NATURAL, FieldGroup.HOST, 6, "host_gdtr_base")
HOST_IDTR_BASE = _f(FieldWidth.NATURAL, FieldGroup.HOST, 7, "host_idtr_base")
HOST_IA32_SYSENTER_ESP = _f(FieldWidth.NATURAL, FieldGroup.HOST, 8, "host_ia32_sysenter_esp")
HOST_IA32_SYSENTER_EIP = _f(FieldWidth.NATURAL, FieldGroup.HOST, 9, "host_ia32_sysenter_eip")
HOST_RSP = _f(FieldWidth.NATURAL, FieldGroup.HOST, 10, "host_rsp")
HOST_RIP = _f(FieldWidth.NATURAL, FieldGroup.HOST, 11, "host_rip")

#: All field specs in canonical layout order (definition order above).
ALL_FIELDS: tuple[FieldSpec, ...] = tuple(_SPECS)

SPEC_BY_ENCODING: dict[int, FieldSpec] = {s.encoding: s for s in ALL_FIELDS}
SPEC_BY_NAME: dict[str, FieldSpec] = {s.name: s for s in ALL_FIELDS}

#: Guest-state field encodings in layout order: the group the nested
#: models copy between VMCS12 and VMCS02 with ``Vmcs.copy_fields``.
GUEST_ENCODINGS: tuple[int, ...] = tuple(
    s.encoding for s in ALL_FIELDS if s.group is FieldGroup.GUEST)

#: Fields writable by software via vmwrite (read-only group excluded
#: unless the CPU supports "VMWRITE to any field"; our model excludes it).
WRITABLE_FIELDS: tuple[FieldSpec, ...] = tuple(
    s for s in ALL_FIELDS if s.group is not FieldGroup.READ_ONLY
)

#: Total serialised layout size in bits (the paper quotes ~8,000 bits).
LAYOUT_BITS = sum(s.bits for s in ALL_FIELDS)
LAYOUT_BYTES = (LAYOUT_BITS + 7) // 8

#: Segment field tables keyed by segment name, used throughout validation.
SEGMENT_SELECTOR_FIELDS = {
    "es": GUEST_ES_SELECTOR, "cs": GUEST_CS_SELECTOR, "ss": GUEST_SS_SELECTOR,
    "ds": GUEST_DS_SELECTOR, "fs": GUEST_FS_SELECTOR, "gs": GUEST_GS_SELECTOR,
    "ldtr": GUEST_LDTR_SELECTOR, "tr": GUEST_TR_SELECTOR,
}
SEGMENT_BASE_FIELDS = {
    "es": GUEST_ES_BASE, "cs": GUEST_CS_BASE, "ss": GUEST_SS_BASE,
    "ds": GUEST_DS_BASE, "fs": GUEST_FS_BASE, "gs": GUEST_GS_BASE,
    "ldtr": GUEST_LDTR_BASE, "tr": GUEST_TR_BASE,
}
SEGMENT_LIMIT_FIELDS = {
    "es": GUEST_ES_LIMIT, "cs": GUEST_CS_LIMIT, "ss": GUEST_SS_LIMIT,
    "ds": GUEST_DS_LIMIT, "fs": GUEST_FS_LIMIT, "gs": GUEST_GS_LIMIT,
    "ldtr": GUEST_LDTR_LIMIT, "tr": GUEST_TR_LIMIT,
}
SEGMENT_AR_FIELDS = {
    "es": GUEST_ES_AR_BYTES, "cs": GUEST_CS_AR_BYTES, "ss": GUEST_SS_AR_BYTES,
    "ds": GUEST_DS_AR_BYTES, "fs": GUEST_FS_AR_BYTES, "gs": GUEST_GS_AR_BYTES,
    "ldtr": GUEST_LDTR_AR_BYTES, "tr": GUEST_TR_AR_BYTES,
}
HOST_SELECTOR_FIELDS = {
    "es": HOST_ES_SELECTOR, "cs": HOST_CS_SELECTOR, "ss": HOST_SS_SELECTOR,
    "ds": HOST_DS_SELECTOR, "fs": HOST_FS_SELECTOR, "gs": HOST_GS_SELECTOR,
    "tr": HOST_TR_SELECTOR,
}
