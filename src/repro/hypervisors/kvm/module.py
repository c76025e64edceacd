"""kvm-intel.ko / kvm-amd.ko module parameters.

The vCPU configurator's KVM adapter "reloads the kernel module with the
desired parameter string" (paper §4.4). This module is the receiving end:
a typed view of the parameter set, plus the derivation of the VMX
capability MSRs the L1 guest will observe (KVM's
``nested_vmx_setup_ctls_msrs()`` analogue).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.arch.cpuid import Vendor
from repro.hypervisors.base import VcpuConfig
from repro.vmx.msr_caps import VmxCapabilities, capabilities_for_features


@dataclass
class KvmModuleParams:
    """Parameters accepted by the vendor modules (subset we model)."""

    nested: bool = True
    # kvm-intel.ko
    ept: bool = True
    unrestricted_guest: bool = True
    vpid: bool = True
    flexpriority: bool = True
    enable_shadow_vmcs: bool = True
    pml: bool = True
    enable_apicv: bool = True
    preemption_timer: bool = True
    ple: bool = True
    # kvm-amd.ko
    npt: bool = True
    avic: bool = False
    vgif: bool = True
    vls: bool = True
    lbrv: bool = True
    pause_filter: bool = True

    @classmethod
    def from_config(cls, config: VcpuConfig) -> "KvmModuleParams":
        """Build the parameter set a configurator adapter would pass."""
        params = cls()
        mapping = {
            "ept": "ept",
            "unrestricted_guest": "unrestricted_guest",
            "vpid": "vpid",
            "flexpriority": "flexpriority",
            "enable_shadow_vmcs": "enable_shadow_vmcs",
            "pml": "pml",
            "apicv": "enable_apicv",
            "preemption_timer": "preemption_timer",
            "ple": "ple",
            "npt": "npt",
            "avic": "avic",
            "vgif": "vgif",
            "vls": "vls",
            "lbrv": "lbrv",
            "pause_filter": "pause_filter",
            "nested": "nested",
        }
        for feature, param in mapping.items():
            if feature in config.features:
                setattr(params, param, config.features[feature])
        # Dependent parameters, as the real module resolves them.
        if not params.ept:
            params.unrestricted_guest = False
            params.pml = False
        return params

    def cmdline(self, vendor: Vendor) -> str:
        """Render as a modprobe parameter string (for crash reports)."""
        if vendor is Vendor.INTEL:
            names = ("nested", "ept", "unrestricted_guest", "vpid",
                     "flexpriority", "enable_shadow_vmcs", "pml",
                     "enable_apicv", "preemption_timer", "ple")
        else:
            names = ("nested", "npt", "avic", "vgif", "vls", "lbrv",
                     "pause_filter")
        return " ".join(f"{n}={int(getattr(self, n))}" for n in names)

    def as_feature_map(self) -> dict[str, bool]:
        """Back-map to the configurator's feature-name universe."""
        return {f.name if f.name != "enable_apicv" else "apicv":
                getattr(self, f.name) for f in fields(self)}

    def l1_vmx_capabilities(self) -> VmxCapabilities:
        """The IA32_VMX_* MSRs KVM exposes to its L1 guest."""
        features = {
            "ept": self.ept,
            "unrestricted_guest": self.unrestricted_guest,
            "vpid": self.vpid,
            "flexpriority": self.flexpriority,
            "enable_shadow_vmcs": self.enable_shadow_vmcs,
            "pml": self.pml,
            "apicv": self.enable_apicv,
            "preemption_timer": self.preemption_timer,
            "ple": self.ple,
        }
        return capabilities_for_features(features)


#: The configurator features ``KvmModuleParams.from_config(...)
#: .l1_vmx_capabilities()`` reads: the ones naming a kvm-intel.ko
#: parameter L1's capability MSRs depend on.
L1_VMX_FEATURES = ("ept", "unrestricted_guest", "vpid", "flexpriority",
                   "enable_shadow_vmcs", "pml", "apicv", "preemption_timer",
                   "ple")

#: L1 capability sets by the settings of ``L1_VMX_FEATURES`` (``None``
#: where a feature map leaves one out).
_L1_VMX_CAPS: dict[tuple, VmxCapabilities] = {}


def l1_vmx_capabilities_for(config: VcpuConfig) -> VmxCapabilities:
    """``KvmModuleParams.from_config(config).l1_vmx_capabilities()``,
    resolved once per distinct setting of the features it reads."""
    key = tuple(map(config.features.get, L1_VMX_FEATURES))
    caps = _L1_VMX_CAPS.get(key)
    if caps is None:
        caps = KvmModuleParams.from_config(config).l1_vmx_capabilities()
        _L1_VMX_CAPS[key] = caps
    return caps
