"""The raw-word entry-check units equal the object-based reference.

Production decodes segment access rights, interruption information and
EPTPs with local bit operations; ``tests.reference.object_entry_checks``
keeps the bodies that decoded them into ``Segment``, ``InterruptionInfo``
and ``EptPointer`` objects. Every public check must return the same
``(stage, field, reason)`` list, in the same order, on golden-perturbed
and raw random VMCSs, under the default capabilities and the L1
capabilities a kvm, xen or vbox campaign rounds with.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.arch.cpuid import Vendor, default_feature_map, features_for
from repro.arch.exceptions import EventType, InterruptionInfo, injection_consistent
from repro.arch.paging import EptPointer, eptp_valid
from repro.cpu import entry_checks
from repro.hypervisors.base import VcpuConfig
from repro.hypervisors.kvm.module import KvmModuleParams
from repro.validator.golden import golden_vmcs
from repro.validator.rounding import VmStateValidator
from repro.vmx import fields as F
from repro.vmx.controls import Secondary
from repro.vmx.msr_caps import capabilities_for_features, default_capabilities
from repro.vmx.vmcs import Vmcs
from tests.reference import object_entry_checks as reference

CHECKS = ("check_vm_controls", "check_host_state", "check_guest_state",
          "check_all")
HYPERVISORS = ("default", "kvm", "xen", "vbox")

#: Fields the perturbations favour: every guest segment field, the
#: event-injection words, RFLAGS, activity and interruptibility, and the
#: five control words.
_BIASED = (
    tuple(F.SEGMENT_SELECTOR_FIELDS.values())
    + tuple(F.SEGMENT_BASE_FIELDS.values())
    + tuple(F.SEGMENT_LIMIT_FIELDS.values())
    + tuple(F.SEGMENT_AR_FIELDS.values())
    + (F.VM_ENTRY_INTR_INFO_FIELD, F.VM_ENTRY_EXCEPTION_ERROR_CODE,
       F.GUEST_RFLAGS, F.GUEST_ACTIVITY_STATE, F.GUEST_INTERRUPTIBILITY_INFO,
       F.PIN_BASED_VM_EXEC_CONTROL, F.CPU_BASED_VM_EXEC_CONTROL,
       F.SECONDARY_VM_EXEC_CONTROL, F.VM_ENTRY_CONTROLS, F.VM_EXIT_CONTROLS,
       F.EPT_POINTER))
_WRITABLE = tuple(s.encoding for s in F.ALL_FIELDS
                  if s.group is not F.FieldGroup.READ_ONLY)

#: Values worth writing whole: v8086 and flat segment shapes, canonical
#: and physical-address edges, RFLAGS with VM/IF, event-injection words
#: of every type, activity states and PAT tables.
_INTERESTING = (0, 1, 2, 3, 4, 6, 0xF3, 0xFFFF, 0xFFFFF, 0x100000, 0xFFFFFFFF,
                0x8093, 0xA09B, 0xC093, 0x808B, 0x10000, 0x82, 0x202, 0x20002,
                0x20202, 0x7FFF_FFFF_FFFF, 0x8000_0000_0000,
                0xFFFF_0000_0000_0000, 0xFFFF_7FFF_FFFF_FFFF,
                0xFFFF_8000_0000_0000, 0x8000_0000_0000_0000,
                (1 << 46) - 0x1000, 1 << 46, 0x8000_0000, 0x8000_0300,
                0x8000_0B0E, 0x8000_0B0D, 0x8000_0202, 0x8000_0103,
                0x8000_0420, 0x8000_0214, 0x0007_0406_0007_0406,
                0x0007_0406_0007_0402, 0x0007_0406_0307_0406)

#: A whole guest segment: selector (RPL, TI), base, limit and access
#: rights built from their parts, so the segment checks past the first
#: failing bit are reached.
_SEGMENT_NAMES = tuple(F.SEGMENT_AR_FIELDS)
access_rights = st.builds(
    lambda seg_type, s, dpl, p, long, db, g, unusable, reserved: (
        seg_type | s << 4 | dpl << 5 | p << 7 | long << 13 | db << 14
        | g << 15 | unusable << 16 | reserved),
    st.integers(0, 15), st.booleans(), st.integers(0, 3),
    st.sampled_from((1, 1, 0)), st.booleans(), st.booleans(), st.booleans(),
    st.sampled_from((0, 0, 0, 1)), st.sampled_from((0, 0, 0, 0, 1 << 8, 1 << 17)))
whole_segment = st.tuples(
    st.just("segment"),
    st.tuples(st.sampled_from(_SEGMENT_NAMES), st.integers(0, 0xFFFF),
              st.sampled_from((None, 0, 0x1000, 1 << 32,
                               0xFFFF_8000_0000_0000, 0x8000_0000_0000)),
              st.sampled_from((0, 0x67, 0xFFF, 0xFFFF, 0xFFFFF, 0x100FFF,
                               0xFFFFFFFF)),
              access_rights))

perturbation = st.one_of(
    st.tuples(
        st.one_of(st.sampled_from(_BIASED), st.sampled_from(_BIASED),
                  st.sampled_from(_WRITABLE)),
        st.one_of(st.tuples(st.just("flip"), st.integers(0, 63)),
                  st.tuples(st.just("set"), st.sampled_from(_INTERESTING)),
                  st.tuples(st.just("set"), st.integers(0, (1 << 64) - 1)))),
    st.tuples(st.none(), whole_segment))


def _perturb(vmcs: Vmcs, steps) -> None:
    for encoding, (op, arg) in steps:
        if op == "segment":
            name, selector, base, limit, ar = arg
            if base is None:  # the v8086 shape
                base = (selector << 4) & 0xFFFF0
            vmcs.write(F.SEGMENT_SELECTOR_FIELDS[name], selector)
            vmcs.write(F.SEGMENT_BASE_FIELDS[name], base)
            vmcs.write(F.SEGMENT_LIMIT_FIELDS[name], limit)
            vmcs.write(F.SEGMENT_AR_FIELDS[name], ar)
            continue
        if op == "flip":
            arg = vmcs.read(encoding) ^ (
                1 << (arg % F.SPEC_BY_ENCODING[encoding].bits))
        vmcs.write(encoding, arg)


def _l1_caps(hypervisor: str, bits: int):
    """The capabilities a campaign's Intel state generator uses for the
    vCPU configuration bits *bits* (as in tests/validator/test_rounding.py)."""
    if hypervisor == "default":
        return default_capabilities()
    features = default_feature_map(Vendor.INTEL)
    for position, feature in enumerate(features_for(Vendor.INTEL)):
        if feature.name != "nested":
            features[feature.name] = bool(bits >> position & 1)
    if hypervisor == "kvm":
        config = VcpuConfig(Vendor.INTEL, features)
        return KvmModuleParams.from_config(config).l1_vmx_capabilities()
    return capabilities_for_features(features)


def _triples(violations):
    return [(v.stage, v.field, v.reason) for v in violations]


def _assert_same(vmcs: Vmcs, caps) -> None:
    for name in CHECKS:
        got = _triples(getattr(entry_checks, name)(vmcs, caps))
        assert got == _triples(getattr(reference, name)(vmcs, caps)), name
    checker = entry_checks.IncrementalChecker(caps)
    assert (_triples(checker.check_all(vmcs))
            == _triples(reference.check_all(vmcs, caps)))


class TestUnitsMatchObjectReference:
    @pytest.mark.parametrize("hypervisor", HYPERVISORS)
    @given(st.lists(perturbation, min_size=1, max_size=8),
           st.integers(0, (1 << 64) - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_golden_perturbed(self, hypervisor, steps, bits, rounded):
        caps = _l1_caps(hypervisor, bits)
        vmcs = golden_vmcs(caps)
        _perturb(vmcs, steps)
        if rounded:
            # Rounded states pass the early groups and reach the deeper
            # guest checks.
            VmStateValidator(caps).round_to_valid(vmcs)
        _assert_same(vmcs, caps)

    @pytest.mark.parametrize("hypervisor", HYPERVISORS)
    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES),
           st.integers(0, (1 << 64) - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_raw_random(self, hypervisor, raw, bits, rounded):
        caps = _l1_caps(hypervisor, bits)
        vmcs = Vmcs.deserialize(raw, caps.vmcs_revision_id)
        if rounded:
            VmStateValidator(caps).round_to_valid(vmcs)
        _assert_same(vmcs, caps)

    @pytest.mark.parametrize("value", _INTERESTING)
    def test_every_field_at_edge_values(self, value):
        # Each writable field at each edge value on the golden state, so
        # every single-field boundary (canonical, physical width, PAT,
        # activity, RFLAGS, event type) is compared once.
        caps = default_capabilities()
        for encoding in _WRITABLE:
            vmcs = golden_vmcs(caps)
            vmcs.write(encoding, value)
            for name in CHECKS:
                got = _triples(getattr(entry_checks, name)(vmcs, caps))
                assert got == _triples(getattr(reference, name)(vmcs, caps))

    @pytest.mark.parametrize("unrestricted", [False, True])
    def test_cs_ss_privilege_matrix(self, unrestricted):
        # Every CS type and DPL against every SS DPL and RPL, usable or
        # not: the CS/SS rules interact through type 3 and unrestricted
        # guest.
        caps = default_capabilities()
        template = golden_vmcs(caps)
        if unrestricted:
            template.write(F.SECONDARY_VM_EXEC_CONTROL,
                           template.read(F.SECONDARY_VM_EXEC_CONTROL)
                           | Secondary.UNRESTRICTED_GUEST | Secondary.ENABLE_EPT)
        cs_ar = template.read(F.GUEST_CS_AR_BYTES) & ~0x6F
        ss_ar = template.read(F.GUEST_SS_AR_BYTES) & ~0x60
        ss_sel = template.read(F.GUEST_SS_SELECTOR) & ~3
        for cs_type in range(16):
            for cs_dpl in range(4):
                for ss_dpl in range(4):
                    for ss_rpl in range(4):
                        for ss_unusable in (0, 1 << 16):
                            vmcs = template.copy()
                            vmcs.write(F.GUEST_CS_AR_BYTES,
                                       cs_ar | cs_type | cs_dpl << 5)
                            vmcs.write(F.GUEST_SS_AR_BYTES,
                                       ss_ar | ss_dpl << 5 | ss_unusable)
                            vmcs.write(F.GUEST_SS_SELECTOR, ss_sel | ss_rpl)
                            assert (_triples(entry_checks.check_guest_state(vmcs, caps))
                                    == _triples(reference.check_guest_state(vmcs, caps)))

    def test_pat_every_byte(self):
        base = 0x0007_0406_0007_0406
        for shift in range(0, 64, 8):
            for byte in range(256):
                pat = base & ~(0xFF << shift) | byte << shift
                assert (entry_checks._pat_valid(pat)
                        == reference._pat_valid(pat))

    def test_units_in_reference_order(self):
        assert ([(u.name, u.stage) for u in entry_checks.UNITS]
                == [(name, stage) for name, stage, _ in reference.UNITS])


#: The 13 bits of an interruption-information word the decoder reads:
#: vector 7:0, type 10:8, deliver-error-code 11 and valid 31.
_INTR_BITS = (*range(12), 31)


def _intr_word(n: int) -> int:
    return sum(1 << bit for i, bit in enumerate(_INTR_BITS) if n >> i & 1)


class TestRawWordDecoders:
    def test_interruption_info_exhaustive(self):
        for n in range(1 << len(_INTR_BITS)):
            raw = _intr_word(n)
            ref = reference.decode_interruption_info(raw)
            got = InterruptionInfo.decode(raw)
            assert got == ref
            assert type(got.event_type) is type(ref.event_type)
            consistent = reference.interruption_info_consistent(ref)
            assert got.consistent() == consistent
            assert injection_consistent(raw) == consistent
            # Bits 30:12 are ignored.
            assert injection_consistent(raw | 0x7FFFF000) == consistent
        assert InterruptionInfo.decode(0x100).event_type == 1
        assert InterruptionInfo.decode(0x200).event_type is EventType.NMI

    @given(st.integers(0, (1 << 64) - 1), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_eptp_matches_properties(self, raw, ept_5level):
        ref = reference.eptp_valid(EptPointer(raw), ept_5level=ept_5level)
        assert eptp_valid(raw, ept_5level=ept_5level) == ref
        assert EptPointer(raw).valid(ept_5level=ept_5level) == ref

    def test_eptp_low_bits_exhaustive(self):
        for low in range(1 << 12):
            for raw in (0x20000 | low, low):
                for ept_5level in (False, True):
                    ref = reference.eptp_valid(EptPointer(raw),
                                               ept_5level=ept_5level)
                    assert eptp_valid(raw, ept_5level=ept_5level) == ref
