"""What a state-generator build may share, and what it must own.

A build resolves the vCPU feature map to its L1 capability set from a
cache, and the oracle's golden template is looked up by the capability
object's identity. Both depend only on values. Everything the
generator learns stays its own: two feature maps that derive one
interned capability set still get separate validators, oracles, rules,
fixup masks and CPUs.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.arch.cpuid import Vendor, default_feature_map, features_for
from repro.core.agent import Agent, AgentConfig
from repro.hypervisors.base import VcpuConfig
from repro.hypervisors.kvm.module import (
    L1_VMX_FEATURES,
    KvmModuleParams,
    l1_vmx_capabilities_for,
)
from repro.validator.golden import golden_vmcs
from repro.vmx import fields as F
from repro.vmx.controls import PinBased, ProcBased, Secondary
from repro.vmx.msr_caps import capabilities_for_features, default_capabilities

INTEL_FEATURES = tuple(f.name for f in features_for(Vendor.INTEL))


def _config(**changes) -> VcpuConfig:
    features = default_feature_map(Vendor.INTEL)
    features.update(changes)
    return VcpuConfig(Vendor.INTEL, features)


def _posted_interrupt_state(caps):
    """A golden state that trips the validator's ack-on-exit gap."""
    vmcs = golden_vmcs(caps)
    vmcs.write(F.CPU_BASED_VM_EXEC_CONTROL,
               vmcs.read(F.CPU_BASED_VM_EXEC_CONTROL)
               | ProcBased.USE_TPR_SHADOW | ProcBased.ACTIVATE_SECONDARY_CONTROLS)
    vmcs.write(F.SECONDARY_VM_EXEC_CONTROL,
               vmcs.read(F.SECONDARY_VM_EXEC_CONTROL)
               | Secondary.VIRTUAL_INTR_DELIVERY)
    vmcs.write(F.VIRTUAL_APIC_PAGE_ADDR, 0x13000)
    vmcs.write(F.PIN_BASED_VM_EXEC_CONTROL,
               vmcs.read(F.PIN_BASED_VM_EXEC_CONTROL) | PinBased.POSTED_INTERRUPTS)
    # Clear the CS accessed bit: hardware silently sets it on entry.
    vmcs.write(F.GUEST_CS_AR_BYTES, vmcs.read(F.GUEST_CS_AR_BYTES) & ~1)
    return vmcs


class TestGeneratorIndependence:
    @pytest.mark.parametrize("hypervisor", ["kvm", "xen", "virtualbox"])
    def test_shared_caps_do_not_share_learning(self, hypervisor):
        agent = Agent(AgentConfig(hypervisor=hypervisor))
        first, second = _config(nested=True), _config(nested=False, x2apic=False)
        assert Agent._config_key(first) != Agent._config_key(second)
        gen_a = agent._generator_for(first)
        gen_b = agent._generator_for(second)
        assert gen_a is not gen_b
        assert gen_a.caps is gen_b.caps  # one interned capability set
        for part in ("validator", "oracle"):
            assert getattr(gen_a, part) is not getattr(gen_b, part)
        oracle_a, oracle_b = gen_a.oracle, gen_b.oracle
        assert oracle_a._cpu is not oracle_b._cpu
        assert oracle_a._checker is not oracle_b._checker
        assert oracle_a.active_rules is not oracle_b.active_rules
        assert oracle_a.fixup_masks is not oracle_b.fixup_masks
        assert oracle_b.active_rules == [] and oracle_b.fixup_masks == {}

        report = oracle_a.verify(_posted_interrupt_state(gen_a.caps))
        assert report.entered
        assert [r.name for r in oracle_a.active_rules] == [
            "posted-interrupts-require-ack-on-exit"]
        assert "guest_cs_ar_bytes" in oracle_a.fixup_masks
        assert oracle_b.active_rules == []
        assert oracle_b.fixup_masks == {}
        assert (oracle_b.rejections, oracle_b.entries) == (0, 0)

        # The second oracle learns on its own, from its own rejection.
        report = oracle_b.verify(_posted_interrupt_state(gen_b.caps))
        assert report.activated_rules == ["posted-interrupts-require-ack-on-exit"]
        assert oracle_b.rejections == 1

    def test_rebuilt_generator_starts_unlearned(self):
        """An evicted configuration's next generator learns from scratch."""
        agent = Agent(AgentConfig())
        agent.GENERATOR_CACHE_LIMIT = 1
        config = _config(nested=True)
        gen = agent._generator_for(config)
        gen.oracle.verify(_posted_interrupt_state(gen.caps))
        assert gen.oracle.active_rules
        agent._generator_for(_config(nested=False))  # evicts *config*
        again = agent._generator_for(config)
        assert again is not gen and again.caps is gen.caps
        assert again.oracle.active_rules == [] and again.oracle.fixup_masks == {}


class TestL1CapabilityCache:
    @given(st.dictionaries(st.sampled_from(INTEL_FEATURES), st.booleans()))
    @settings(max_examples=80, deadline=None)
    def test_equals_module_params_derivation(self, features):
        config = VcpuConfig(Vendor.INTEL, features)
        expected = KvmModuleParams.from_config(config).l1_vmx_capabilities()
        assert l1_vmx_capabilities_for(config) is expected

    def test_reads_only_its_features(self):
        """Features outside ``L1_VMX_FEATURES`` never change the result."""
        base = _config()
        caps = l1_vmx_capabilities_for(base)
        for name in INTEL_FEATURES:
            if name not in L1_VMX_FEATURES:
                flipped = _config(**{name: not base.features[name]})
                assert (KvmModuleParams.from_config(flipped)
                        .l1_vmx_capabilities()) is caps
                assert l1_vmx_capabilities_for(flipped) is caps

    def test_missing_feature_reads_as_the_parameter_default(self):
        features = default_feature_map(Vendor.INTEL)
        del features["ept"]
        config = VcpuConfig(Vendor.INTEL, features)
        assert l1_vmx_capabilities_for(config) is (
            KvmModuleParams.from_config(config).l1_vmx_capabilities())


class TestGoldenTemplateByIdentity:
    def test_equal_caps_objects_give_equal_templates(self):
        caps = default_capabilities()
        twin = replace(caps)  # equal, not the interned object
        assert twin == caps and twin is not caps
        assert golden_vmcs(twin) == golden_vmcs(caps)
        assert golden_vmcs(twin).serialize() == golden_vmcs(caps).serialize()

    def test_copies_carry_their_own_caps_memo(self):
        from repro.cpu.entry_checks import _MEMO_KEY

        caps = capabilities_for_features(default_feature_map(Vendor.INTEL))
        twin = replace(caps)
        assert golden_vmcs(caps).memo_get(_MEMO_KEY)[2] is caps
        assert golden_vmcs(twin).memo_get(_MEMO_KEY)[2] is twin

    def test_copies_are_independent(self):
        first = golden_vmcs()
        first.write(F.GUEST_RIP, 0x1234)
        assert golden_vmcs().read(F.GUEST_RIP) != 0x1234
