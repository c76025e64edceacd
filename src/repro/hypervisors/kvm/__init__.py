"""The simulated KVM host hypervisor (Linux 6.5 analogue).

Facade tying together the module parameters, the nested VMX/SVM
emulation, and the plain (non-nested) instruction intercepts. Coverage
measurement targets only :mod:`repro.hypervisors.kvm.nested_vmx` and
:mod:`repro.hypervisors.kvm.nested_svm`, mirroring the paper's
restriction to ``arch/x86/kvm/{vmx,svm}/nested.c``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.cpuid import Vendor
from repro.arch.msr import IA32_EFER, MsrFile
from repro.arch.registers import Efer
from repro.hypervisors.base import (
    ExecResult,
    GuestInstruction,
    L0Hypervisor,
    VcpuConfig,
)
from repro.hypervisors.kvm.module import KvmModuleParams
from repro.hypervisors.kvm.nested_svm import NestedSvm, SvmNestedState
from repro.hypervisors.kvm.nested_vmx import VMPTR_INVALID, NestedVmx, VmxNestedState
from repro.hypervisors.l2map import AMD_L2_EXITS, INTEL_L2_EXITS, svm_exception_code
from repro.hypervisors.memory import GuestMemory
from repro.vmx.exit_reasons import ExitReason
from repro.vmx.vmcs import Vmcs

#: Mnemonics of SVM instructions routed to the nested-SVM handlers.
SVM_MNEMONICS = frozenset(NestedSvm.HANDLERS)
#: Mnemonics of VMX instructions routed to the nested-VMX handlers.
VMX_MNEMONICS = frozenset(NestedVmx.HANDLERS)

#: The vendors bound once for the per-instruction dispatch: on Python
#: 3.11 every ``Vendor.X`` lookup goes through ``EnumType.__getattr__``.
_INTEL = Vendor.INTEL
_AMD = Vendor.AMD

#: ``AMD_L2_EXITS`` with plain-int codes: the model compares them with
#: ``==`` and looks them up by hash, where an int and its ``SvmExitCode``
#: member agree, and an int formats and converts without the enum's
#: Python-level overhead.
_AMD_L2_CODES: dict[str, int] = {
    mnemonic: int(code) for mnemonic, code in AMD_L2_EXITS.items()}


@dataclass
class KvmVcpu:
    """One virtual CPU of the L1 guest (the fuzz-harness VM)."""

    vendor: Vendor
    memory: GuestMemory
    vmx: VmxNestedState = field(default_factory=VmxNestedState)
    svm: SvmNestedState = field(default_factory=SvmNestedState)
    msrs: MsrFile = field(default_factory=MsrFile)

    @property
    def level(self) -> int:
        """The guest level currently executing (1 or 2)."""
        in_l2 = self.vmx.guest_mode if self.vendor is _INTEL else self.svm.guest_mode
        return 2 if in_l2 else 1


class KvmHypervisor(L0Hypervisor):
    """L0 KVM with nested virtualization enabled."""

    name = "kvm"

    def __init__(self, config: VcpuConfig,
                 patched: frozenset[str] = frozenset()) -> None:
        super().__init__(config)
        self.params = KvmModuleParams.from_config(config)
        self.memory = GuestMemory()
        self.patched = patched
        if config.vendor is Vendor.INTEL:
            self.nested_vmx = NestedVmx(self, self.params, self.memory, patched)
            self.nested_svm = None
        else:
            self.nested_vmx = None
            self.nested_svm = NestedSvm(self, self.params, self.memory, patched)

    def create_vcpu(self) -> KvmVcpu:
        """Create the (single) vCPU of the fuzz-harness VM."""
        vcpu = KvmVcpu(self.config.vendor, self.memory)
        if self.config.vendor is Vendor.AMD:
            vcpu.svm.hsave_pa = 0
        return vcpu

    def current_vmcs12(self, vcpu: KvmVcpu) -> Vmcs | None:
        """The VMCS12 L1 made current with vmptrld, if any."""
        if vcpu.vmx.current_vmptr == VMPTR_INVALID:
            return None
        return self.memory.get_vmcs(vcpu.vmx.current_vmptr)

    # ------------------------------------------------------------------
    # Instruction dispatch
    # ------------------------------------------------------------------

    def execute(self, vcpu: KvmVcpu, instr: GuestInstruction) -> ExecResult:
        """Execute one guest instruction at its requested level."""
        if self.crashed:
            return ExecResult.fault("host is down")
        if instr.level == 2 and vcpu.level == 2:
            return self._execute_l2(vcpu, instr)
        return self._execute_l1(vcpu, instr)

    # --- L1 context -------------------------------------------------------

    def _execute_l1(self, vcpu: KvmVcpu, instr: GuestInstruction) -> ExecResult:
        mnemonic = instr.mnemonic
        if vcpu.vendor is _INTEL and mnemonic in VMX_MNEMONICS:
            assert self.nested_vmx is not None
            return self.nested_vmx.handle(vcpu.vmx, instr)
        if vcpu.vendor is _AMD and mnemonic in SVM_MNEMONICS:
            assert self.nested_svm is not None
            return self.nested_svm.handle(vcpu.svm, instr)
        return self._emulate_plain(vcpu, instr)

    def _emulate_plain(self, vcpu: KvmVcpu, instr: GuestInstruction) -> ExecResult:
        """Non-virtualization intercepts (vmx.c/svm.c territory)."""
        mnemonic = instr.mnemonic
        if mnemonic == "cpuid":
            return ExecResult.success("cpuid", value=0x000806F8)
        if mnemonic == "rdmsr":
            return ExecResult.success("rdmsr", value=vcpu.msrs.read(instr.op("msr")))
        if mnemonic == "wrmsr":
            index, value = instr.op("msr"), instr.op("value")
            vcpu.msrs.write(index, value)
            if index == IA32_EFER:
                vcpu.svm.svme = bool(value & Efer.SVME)
                vcpu.svm.efer = value
            return ExecResult.success("wrmsr")
        if mnemonic == "mov_cr":
            if instr.op("cr") == 4 and instr.op("write", 1):
                vcpu.vmx.cr4 = instr.op("value")
            return ExecResult.success("mov cr emulated")
        if mnemonic == "mov_dr":
            return ExecResult.success("mov dr emulated")
        if mnemonic in ("in", "out"):
            return ExecResult.success("pio emulated", value=0xFF)
        if mnemonic in ("hlt", "pause", "nop", "rdtsc", "rdtscp", "rdrand",
                        "rdseed", "wbinvd", "invd", "invlpg", "mwait",
                        "monitor", "rdpmc", "xsetbv", "sgdt", "sidt"):
            return ExecResult.success(f"{mnemonic} emulated", value=0)
        return ExecResult.success(f"{mnemonic} executed natively")

    # --- L2 context -----------------------------------------------------------

    def _execute_l2(self, vcpu: KvmVcpu, instr: GuestInstruction) -> ExecResult:
        if vcpu.vendor is _INTEL:
            return self._execute_l2_intel(vcpu, instr)
        return self._execute_l2_amd(vcpu, instr)

    def _execute_l2_intel(self, vcpu: KvmVcpu, instr: GuestInstruction) -> ExecResult:
        nested = self.nested_vmx
        assert nested is not None
        reason = INTEL_L2_EXITS.get(instr.mnemonic)
        if reason is None:
            return ExecResult.success("no exit", level=2)
        vmcs12 = nested.get_vmcs12(vcpu.vmx)
        if vmcs12 is None:
            return ExecResult.fault("L2 active without VMCS12")
        if nested.l1_wants_exit(vmcs12, reason, instr):
            nested.nested_vmx_vmexit(vcpu.vmx, vmcs12, int(reason),
                                     qualification=instr.op("value"),
                                     intr_info=instr.op("vector"))
            return ExecResult.success(f"L2 exit {reason.name} -> L1",
                                      exit_reason=int(reason), level=1)
        if reason in (ExitReason.EPT_VIOLATION, ExitReason.INVLPG,
                      ExitReason.MONITOR_INSTRUCTION):
            # L1 runs without nested EPT (or did not ask for this exit):
            # L0 resolves the guest address through shadow paging — the
            # CVE-2023-30456 walk. invlpg/monitor carry a linear address
            # KVM must walk exactly like a faulting access.
            nested.handle_l2_shadow_fault(vcpu.vmx, vmcs12,
                                          instr.op("value"))
        return ExecResult.success(f"L2 exit {reason.name} handled by L0",
                                  level=2, exit_reason=int(reason))

    def _execute_l2_amd(self, vcpu: KvmVcpu, instr: GuestInstruction) -> ExecResult:
        nested = self.nested_svm
        assert nested is not None
        mnemonic = instr.mnemonic
        code = _AMD_L2_CODES.get(mnemonic)
        if code is None:
            return ExecResult.success("no exit", level=2)
        if mnemonic == "exception":
            code = svm_exception_code(instr.op("vector"))
        vmcb12 = self.memory.get_vmcb(vcpu.svm.current_vmcb12_pa)
        if vmcb12 is None:
            return ExecResult.fault("L2 active without VMCB12")
        if nested.l1_wants_exit(vmcb12, code, instr):
            nested.nested_svm_vmexit(vcpu.svm, vmcb12, code,
                                     info1=instr.op("value"))
            return ExecResult.success(f"L2 #VMEXIT {code:#x} -> L1",
                                      exit_reason=code, level=1)
        return ExecResult.success(f"L2 #VMEXIT {code:#x} handled by L0",
                                  level=2, exit_reason=code)

    # ------------------------------------------------------------------
    # Coverage target modules
    # ------------------------------------------------------------------

    @staticmethod
    def nested_modules(vendor: Vendor):
        """The modules coverage is restricted to (nested.c analogues)."""
        from repro.hypervisors.kvm import nested_svm, nested_vmx

        if vendor is Vendor.INTEL:
            return (nested_vmx,)
        return (nested_svm,)
