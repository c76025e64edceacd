"""The simulated Xen host hypervisor (Xen 4.18 analogue).

Coverage measurement targets :mod:`repro.hypervisors.xen.nested_vmx` and
:mod:`repro.hypervisors.xen.nested_svm`, matching the paper's restriction
to ``xen/arch/x86/hvm/{vmx/vvmx, svm/nestedsvm}.c``.
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
from repro.hypervisors.l2map import AMD_L2_EXITS, INTEL_L2_EXITS, svm_exception_code
from repro.hypervisors.memory import GuestMemory
from repro.hypervisors.xen.nested_svm import NsvmState, XenNestedSvm
from repro.hypervisors.xen.nested_vmx import VVMCS_INVALID, NvmxState, XenNestedVmx
from repro.vmx.vmcs import Vmcs

VMX_MNEMONICS = frozenset(XenNestedVmx.HANDLERS)
SVM_MNEMONICS = frozenset(XenNestedSvm.HANDLERS)


@dataclass
class XenVcpu:
    """One vCPU of the L1 HVM guest."""

    vendor: Vendor
    memory: GuestMemory
    nvmx: NvmxState = field(default_factory=NvmxState)
    nsvm: NsvmState = field(default_factory=NsvmState)
    msrs: MsrFile = field(default_factory=MsrFile)

    @property
    def level(self) -> int:
        """Guest level currently executing (1 or 2)."""
        in_l2 = self.nvmx.guest_mode if self.vendor is Vendor.INTEL else self.nsvm.guest_mode
        return 2 if in_l2 else 1


class XenHypervisor(L0Hypervisor):
    """L0 Xen with nested HVM enabled."""

    name = "xen"

    def __init__(self, config: VcpuConfig,
                 patched: frozenset[str] = frozenset()) -> None:
        super().__init__(config)
        self.memory = GuestMemory()
        self.patched = patched
        if config.vendor is Vendor.INTEL:
            from repro.vmx.msr_caps import capabilities_for_features

            self.nested_vmx = XenNestedVmx(
                self, self.memory,
                caps=capabilities_for_features(config.features),
                patched=patched)
            self.nested_svm = None
        else:
            self.nested_vmx = None
            self.nested_svm = XenNestedSvm(
                self, self.memory,
                vgif_supported=config.enabled("vgif"),
                patched=patched)

    def create_vcpu(self) -> XenVcpu:
        """Create the (single) vCPU of the fuzz-harness VM."""
        vcpu = XenVcpu(self.config.vendor, self.memory)
        if self.config.vendor is Vendor.AMD:
            vcpu.nsvm.vgif_enabled = self.config.enabled("vgif")
        return vcpu

    def current_vmcs12(self, vcpu: XenVcpu) -> Vmcs | None:
        """The virtual VMCS L1 made current with vmptrld, if any."""
        nvmx = vcpu.nvmx
        if not nvmx.vmxon or nvmx.vvmcs_addr == VVMCS_INVALID:
            return None
        return self.memory.get_vmcs(nvmx.vvmcs_addr)

    def execute(self, vcpu: XenVcpu, instr: GuestInstruction) -> ExecResult:
        """Execute one guest instruction at its requested level."""
        if self.crashed:
            return ExecResult.fault("host is down")
        if instr.level == 2 and vcpu.level == 2:
            return self._execute_l2(vcpu, instr)
        return self._execute_l1(vcpu, instr)

    def _execute_l1(self, vcpu: XenVcpu, instr: GuestInstruction) -> ExecResult:
        mnemonic = instr.mnemonic
        if vcpu.vendor is Vendor.INTEL and mnemonic in VMX_MNEMONICS:
            assert self.nested_vmx is not None
            return self.nested_vmx.handle(vcpu.nvmx, instr)
        if vcpu.vendor is Vendor.AMD and mnemonic in SVM_MNEMONICS:
            assert self.nested_svm is not None
            return self.nested_svm.handle(vcpu.nsvm, instr)
        return self._emulate_plain(vcpu, instr)

    def _emulate_plain(self, vcpu: XenVcpu, instr: GuestInstruction) -> ExecResult:
        mnemonic = instr.mnemonic
        if mnemonic == "cpuid":
            return ExecResult.success("cpuid", value=0x000A20F1)
        if mnemonic == "rdmsr":
            return ExecResult.success("rdmsr", value=vcpu.msrs.read(instr.op("msr")))
        if mnemonic == "wrmsr":
            index, value = instr.op("msr"), instr.op("value")
            vcpu.msrs.write(index, value)
            if index == IA32_EFER:
                vcpu.nsvm.svme = bool(value & Efer.SVME)
            return ExecResult.success("wrmsr")
        if mnemonic == "mov_cr":
            if instr.op("cr") == 4 and instr.op("write", 1):
                vcpu.nvmx.cr4 = instr.op("value")
            return ExecResult.success("mov cr emulated")
        return ExecResult.success(f"{mnemonic} emulated", value=0)

    def _execute_l2(self, vcpu: XenVcpu, instr: GuestInstruction) -> ExecResult:
        if vcpu.vendor is Vendor.INTEL:
            nested = self.nested_vmx
            assert nested is not None
            reason = INTEL_L2_EXITS.get(instr.mnemonic)
            if reason is None:
                return ExecResult.success("no exit", level=2)
            vvmcs = nested._vvmcs(vcpu.nvmx)
            if vvmcs is None:
                return ExecResult.fault("L2 active without vvmcs")
            if nested.l1_wants_exit(vvmcs, reason, instr):
                nested.virtual_vmexit(vcpu.nvmx, vvmcs, int(reason),
                                      qualification=instr.op("value"))
                return ExecResult.success(f"L2 exit {reason.name} -> L1",
                                          exit_reason=int(reason), level=1)
            return ExecResult.success(f"L2 exit {reason.name} handled by Xen",
                                      level=2, exit_reason=int(reason))

        nested = self.nested_svm
        assert nested is not None
        code = AMD_L2_EXITS.get(instr.mnemonic)
        if code is None:
            return ExecResult.success("no exit", level=2)
        if instr.mnemonic == "exception":
            code = svm_exception_code(instr.op("vector"))
        vmcb12 = self.memory.get_vmcb(vcpu.nsvm.current_vmcb12_pa)
        if vmcb12 is None:
            return ExecResult.fault("L2 active without VMCB12")
        if nested.l1_wants_exit(vmcb12, int(code), instr):
            nested.nsvm_vmexit(vcpu.nsvm, vmcb12, int(code),
                               info1=instr.op("value"))
            return ExecResult.success(f"L2 #VMEXIT {int(code):#x} -> L1",
                                      exit_reason=int(code), level=1)
        return ExecResult.success(f"L2 #VMEXIT {int(code):#x} handled by Xen",
                                  level=2, exit_reason=int(code))

    @staticmethod
    def nested_modules(vendor: Vendor):
        """The modules coverage is restricted to (vvmx/nestedsvm analogues)."""
        from repro.hypervisors.xen import nested_svm, nested_vmx

        if vendor is Vendor.INTEL:
            return (nested_vmx,)
        return (nested_svm,)
