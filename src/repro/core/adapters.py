"""Per-hypervisor vCPU-configuration adapters (paper §3.5/§4.4).

Each adapter is "a small adapter connecting to each L0 hypervisor": it
renders a :class:`VcpuConfig` into the hypervisor's native knobs (module
parameters, command lines) and instantiates the configured hypervisor.
The rendered command line is what the real NecoFuzz's shell-script
adapter would execute; we keep it for crash reports and reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.arch.cpuid import Vendor, features_for
from repro.hypervisors.base import L0Hypervisor, VcpuConfig
from repro.hypervisors.kvm import KvmHypervisor
from repro.hypervisors.kvm.module import KvmModuleParams
from repro.hypervisors.vbox import VboxHypervisor
from repro.hypervisors.xen import XenHypervisor


@dataclass
class HypervisorAdapter:
    """Base adapter: build + describe a configured hypervisor."""

    patched: frozenset[str] = frozenset()
    #: The fix flags this adapter's model reads (README Table 6,
    #: "Patch flag").
    FIX_FLAGS: ClassVar[frozenset[str]] = frozenset()

    def build(self, config: VcpuConfig) -> L0Hypervisor:
        """Instantiate the configured hypervisor."""
        raise NotImplementedError

    def command_line(self, config: VcpuConfig) -> str:
        """Render the configuration as the adapter's shell command."""
        raise NotImplementedError


@dataclass
class KvmAdapter(HypervisorAdapter):
    """KVM: module reload + QEMU command line (§4.4)."""

    FIX_FLAGS = frozenset({"cr4_pae_consistency", "dummy_root"})

    def build(self, config: VcpuConfig) -> KvmHypervisor:
        """Instantiate the configured hypervisor."""
        return KvmHypervisor(config, patched=self.patched)

    def command_line(self, config: VcpuConfig) -> str:
        """Render the configuration as the adapter's shell command."""
        params = KvmModuleParams.from_config(config)
        module = "kvm-intel" if config.vendor is Vendor.INTEL else "kvm-amd"
        modprobe = f"modprobe {module} {params.cmdline(config.vendor)}"
        cpu_flags = ",".join(
            f"{'+' if config.enabled(f.name) else '-'}{f.qemu_flag}"
            for f in features_for(config.vendor) if f.qemu_flag)
        qemu = (f"qemu-kvm -machine q35,accel=kvm -cpu host,{cpu_flags} "
                f"-m 512 -smp 1 -bios executor.fd")
        return f"{modprobe} && {qemu}"


@dataclass
class XenAdapter(HypervisorAdapter):
    """Xen: xl domain configuration with nestedhvm."""

    FIX_FLAGS = frozenset({"activity_state_sanitize", "avic_sanitize",
                           "vgif_inject"})

    def build(self, config: VcpuConfig) -> XenHypervisor:
        """Instantiate the configured hypervisor."""
        return XenHypervisor(config, patched=self.patched)

    def command_line(self, config: VcpuConfig) -> str:
        """Render the configuration as the adapter's shell command."""
        opts = ["type='hvm'", "nestedhvm=1", "vcpus=1", "memory=512"]
        if config.vendor is Vendor.AMD and config.enabled("vgif"):
            opts.append("svm_vgif=1")
        if config.vendor is Vendor.INTEL and not config.enabled("ept"):
            opts.append("hap=0")
        return f"xl create executor.cfg  # {' '.join(opts)}"


@dataclass
class VboxAdapter(HypervisorAdapter):
    """VirtualBox: VBoxManage modifyvm switches."""

    FIX_FLAGS = frozenset({"canonical_msr_check"})

    def build(self, config: VcpuConfig) -> VboxHypervisor:
        """Instantiate the configured hypervisor."""
        return VboxHypervisor(config, patched=self.patched)

    def command_line(self, config: VcpuConfig) -> str:
        """Render the configuration as the adapter's shell command."""
        return ("VBoxManage modifyvm executor --nested-hw-virt on "
                f"--hwvirtex on --vtxvpid {'on' if config.enabled('vpid') else 'off'} "
                f"--large-pages {'on' if config.enabled('ept') else 'off'} "
                "&& VBoxHeadless --startvm executor")


#: Adapter registry keyed by hypervisor name.
ADAPTERS: dict[str, type[HypervisorAdapter]] = {
    "kvm": KvmAdapter,
    "xen": XenAdapter,
    "virtualbox": VboxAdapter,
}


def adapter_for(hypervisor: str,
                patched: frozenset[str] = frozenset()) -> HypervisorAdapter:
    """Build the adapter for a hypervisor by name.

    Raises ``ValueError`` for an unknown hypervisor, and for fix flags
    its model does not read (they would silently fuzz an unpatched
    model).
    """
    try:
        adapter = ADAPTERS[hypervisor]
    except KeyError:
        raise ValueError(f"unknown hypervisor {hypervisor!r}; "
                         f"known: {sorted(ADAPTERS)}") from None
    unknown = frozenset(patched) - adapter.FIX_FLAGS
    if unknown:
        raise ValueError(f"unknown fix flag(s) {sorted(unknown)} for "
                         f"{hypervisor}; valid: {sorted(adapter.FIX_FLAGS)}")
    return adapter(patched=patched)
