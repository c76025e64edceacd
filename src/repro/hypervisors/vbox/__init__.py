"""The simulated Oracle VirtualBox host hypervisor (7.0.12 analogue).

Intel-only: the paper's VirtualBox finding (CVE-2024-21106) is on VT-x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.cpuid import Vendor
from repro.arch.msr import MsrFile
from repro.hypervisors.base import (
    ExecResult,
    GuestInstruction,
    L0Hypervisor,
    VcpuConfig,
)
from repro.hypervisors.l2map import INTEL_L2_EXITS
from repro.hypervisors.memory import GuestMemory
from repro.hypervisors.vbox.nested_vmx import (
    VMPTR_INVALID,
    VboxNestedState,
    VboxNestedVmx,
)
from repro.vmx.vmcs import Vmcs

VMX_MNEMONICS = frozenset(VboxNestedVmx.HANDLERS)


@dataclass
class VboxVcpu:
    """One vCPU of the L1 guest."""

    memory: GuestMemory
    nested: VboxNestedState = field(default_factory=VboxNestedState)
    msrs: MsrFile = field(default_factory=MsrFile)

    @property
    def level(self) -> int:
        """Guest level currently executing (1 or 2)."""
        return 2 if self.nested.guest_mode else 1


class VboxHypervisor(L0Hypervisor):
    """L0 VirtualBox with nested VT-x enabled."""

    name = "virtualbox"

    def __init__(self, config: VcpuConfig,
                 patched: frozenset[str] = frozenset()) -> None:
        if config.vendor is not Vendor.INTEL:
            raise ValueError("the VirtualBox model supports Intel VT-x only")
        super().__init__(config)
        self.memory = GuestMemory()
        self.patched = patched
        from repro.vmx.msr_caps import capabilities_for_features

        self.nested_vmx = VboxNestedVmx(
            self, self.memory,
            caps=capabilities_for_features(config.features),
            patched=patched)

    def create_vcpu(self) -> VboxVcpu:
        """Create the (single) vCPU of the fuzz-harness VM."""
        return VboxVcpu(self.memory)

    def current_vmcs12(self, vcpu: VboxVcpu) -> Vmcs | None:
        """The VMCS12 L1 made current with vmptrld, if any."""
        nested = vcpu.nested
        if not nested.vmxon or nested.current_vmptr == VMPTR_INVALID:
            return None
        return self.memory.get_vmcs(nested.current_vmptr)

    def execute(self, vcpu: VboxVcpu, instr: GuestInstruction) -> ExecResult:
        """Execute one guest instruction at its requested level."""
        if self.crashed:
            return ExecResult.fault("host is down")
        if instr.level == 2 and vcpu.level == 2:
            return self._execute_l2(vcpu, instr)
        if instr.mnemonic in VMX_MNEMONICS:
            return self.nested_vmx.handle(vcpu.nested, instr)
        if instr.mnemonic == "rdmsr":
            return ExecResult.success("rdmsr", value=vcpu.msrs.read(instr.op("msr")))
        if instr.mnemonic == "wrmsr":
            vcpu.msrs.write(instr.op("msr"), instr.op("value"))
            return ExecResult.success("wrmsr")
        if instr.mnemonic == "mov_cr" and instr.op("cr") == 4:
            vcpu.nested.cr4 = instr.op("value")
            return ExecResult.success("mov cr4")
        return ExecResult.success(f"{instr.mnemonic} emulated", value=0)

    def _execute_l2(self, vcpu: VboxVcpu, instr: GuestInstruction) -> ExecResult:
        reason = INTEL_L2_EXITS.get(instr.mnemonic)
        if reason is None:
            return ExecResult.success("no exit", level=2)
        vmcs12 = self.nested_vmx.get_vmcs12(vcpu.nested)
        if vmcs12 is None:
            return ExecResult.fault("L2 active without VMCS12")
        if self.nested_vmx.l1_wants_exit(vmcs12, reason, instr):
            self.nested_vmx.vmexit_to_l1(vcpu.nested, vmcs12, int(reason),
                                         qualification=instr.op("value"))
            return ExecResult.success(f"L2 exit {reason.name} -> L1",
                                      exit_reason=int(reason), level=1)
        return ExecResult.success(f"L2 exit {reason.name} handled by VBox",
                                  level=2, exit_reason=int(reason))

    @staticmethod
    def nested_modules(vendor: Vendor):
        """The module coverage is restricted to."""
        from repro.hypervisors.vbox import nested_vmx

        return (nested_vmx,)
