"""Unit and property tests for the Vmcs object."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.validator.golden import golden_vmcs
from repro.vmx import fields as F
from repro.vmx.vmcs import Vmcs, VmcsState


class TestFieldAccess:
    def test_default_zero(self):
        assert Vmcs().read(F.GUEST_RIP) == 0

    def test_link_pointer_defaults_all_ones(self):
        assert Vmcs().read(F.VMCS_LINK_POINTER) == (1 << 64) - 1

    def test_write_read(self):
        vmcs = Vmcs()
        vmcs.write(F.GUEST_RIP, 0x1234)
        assert vmcs.read(F.GUEST_RIP) == 0x1234

    def test_write_truncates_to_width(self):
        vmcs = Vmcs()
        vmcs.write(F.GUEST_ES_SELECTOR, 0x12345)  # 16-bit field
        assert vmcs.read(F.GUEST_ES_SELECTOR) == 0x2345

    def test_unknown_encoding_rejected(self):
        with pytest.raises(KeyError):
            Vmcs().read(0xDEAD)
        with pytest.raises(KeyError):
            Vmcs().write(0xDEAD, 1)

    def test_item_syntax(self):
        vmcs = Vmcs()
        vmcs[F.GUEST_RSP] = 7
        assert vmcs[F.GUEST_RSP] == 7

    def test_by_name(self):
        vmcs = Vmcs()
        vmcs.set_by_name("guest_cr0", 0x31)
        assert vmcs.by_name("guest_cr0") == 0x31
        assert vmcs.read(F.GUEST_CR0) == 0x31


class TestLaunchState:
    def test_starts_clear(self):
        assert Vmcs().launch_state == VmcsState.CLEAR

    def test_launch_and_clear(self):
        vmcs = Vmcs()
        vmcs.mark_launched()
        assert vmcs.launched
        vmcs.clear()
        assert not vmcs.launched

    def test_copy_preserves_state(self):
        vmcs = Vmcs()
        vmcs.mark_launched()
        assert vmcs.copy().launched


class TestWholeStructure:
    def test_copy_is_independent(self):
        a = Vmcs()
        b = a.copy()
        b.write(F.GUEST_RIP, 5)
        assert a.read(F.GUEST_RIP) == 0

    def test_diff(self):
        a, b = Vmcs(), Vmcs()
        b.write(F.GUEST_RIP, 5)
        b.write(F.GUEST_CR0, 1)
        diff = a.diff(b)
        assert {spec.name for spec, _, _ in diff} == {"guest_rip", "guest_cr0"}

    def test_equality(self):
        assert Vmcs() == Vmcs()
        other = Vmcs()
        other.write(F.GUEST_RIP, 1)
        assert Vmcs() != other

    def test_serialize_length(self):
        assert len(Vmcs().serialize()) == F.LAYOUT_BYTES

    def test_deserialize_short_input_rejected(self):
        with pytest.raises(ValueError):
            Vmcs.deserialize(b"\x00" * 10)

    def test_hamming_zero_to_self(self):
        vmcs = Vmcs()
        assert vmcs.hamming(vmcs.copy()) == 0

    def test_hamming_counts_bits(self):
        a, b = Vmcs(), Vmcs()
        b.write(F.GUEST_RIP, 0b111)
        assert a.hamming(b) == 3

    def test_load_dict(self):
        vmcs = Vmcs()
        vmcs.load_dict({F.GUEST_RIP: 1, F.GUEST_RSP: 2})
        assert vmcs.read(F.GUEST_RIP) == 1
        assert vmcs.read(F.GUEST_RSP) == 2

    def test_repr_mentions_state(self):
        assert "clear" in repr(Vmcs())


class TestSerializationProperties:
    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES))
    @settings(max_examples=50, deadline=None)
    def test_deserialize_serialize_roundtrip(self, raw):
        assert Vmcs.deserialize(raw).serialize() == raw

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES),
           st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES))
    @settings(max_examples=25, deadline=None)
    def test_hamming_symmetric(self, raw_a, raw_b):
        a, b = Vmcs.deserialize(raw_a), Vmcs.deserialize(raw_b)
        assert a.hamming(b) == b.hamming(a)

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES))
    @settings(max_examples=25, deadline=None)
    def test_fields_iteration_covers_layout(self, raw):
        vmcs = Vmcs.deserialize(raw)
        total_bits = sum(spec.bits for spec, _ in vmcs.fields())
        assert total_bits == F.LAYOUT_BITS


class TestFreshLayout:
    """A fresh Vmcs copies one shared zero table; it must equal the
    per-spec layout and never alias another instance."""

    def test_fresh_equals_spec_zero_layout(self):
        expected = {spec.encoding: 0 for spec in F.ALL_FIELDS}
        expected[F.VMCS_LINK_POINTER] = (1 << 64) - 1
        vmcs = Vmcs()
        assert vmcs._values == expected
        assert list(vmcs._values) == [spec.encoding for spec in F.ALL_FIELDS]
        assert vmcs.generation == 0
        assert vmcs.changes_since(0) == frozenset()

    def test_writes_never_alias_another_instance(self):
        a, b = Vmcs(), Vmcs()
        a.write(F.GUEST_RIP, 5)
        a.write(F.VMCS_LINK_POINTER, 0)
        assert b.read(F.GUEST_RIP) == 0
        assert b.read(F.VMCS_LINK_POINTER) == (1 << 64) - 1
        Vmcs.deserialize(b"\xff" * F.LAYOUT_BYTES)
        assert Vmcs() == b
        assert Vmcs().read(F.GUEST_RIP) == 0

    def test_fields_on_golden_in_canonical_order(self):
        vmcs = golden_vmcs()
        assert list(vmcs.fields()) == [
            (spec, vmcs.read(spec.encoding)) for spec in F.ALL_FIELDS]

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES))
    @settings(max_examples=25, deadline=None)
    def test_fields_on_deserialized_in_canonical_order(self, raw):
        vmcs = Vmcs.deserialize(raw)
        assert list(vmcs.fields()) == [
            (spec, vmcs.read(spec.encoding)) for spec in F.ALL_FIELDS]
