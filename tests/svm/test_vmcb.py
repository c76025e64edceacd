"""Unit and property tests for the VMCB model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.registers import Cr0, Efer
from repro.svm import fields as SF
from repro.svm.vmcb import Vmcb
from repro.validator.golden import golden_vmcb


class TestFieldAccess:
    def test_default_zero(self):
        assert Vmcb().read(SF.EFER) == 0

    def test_write_read(self):
        vmcb = Vmcb()
        vmcb.write(SF.RIP, 0x1000)
        assert vmcb.read(SF.RIP) == 0x1000

    def test_write_truncates(self):
        vmcb = Vmcb()
        vmcb.write("cs_selector", 0x12345)  # 16-bit field
        assert vmcb.read("cs_selector") == 0x2345

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            Vmcb().read("bogus")
        with pytest.raises(KeyError):
            Vmcb().write("bogus", 1)

    def test_item_syntax(self):
        vmcb = Vmcb()
        vmcb[SF.RAX] = 3
        assert vmcb[SF.RAX] == 3


class TestPredicates:
    def test_nested_paging(self):
        vmcb = Vmcb()
        assert not vmcb.nested_paging
        vmcb.write(SF.NP_CONTROL, SF.NpControl.NP_ENABLE)
        assert vmcb.nested_paging

    def test_long_mode_active(self):
        vmcb = Vmcb()
        vmcb.write(SF.EFER, Efer.LMA)
        assert vmcb.long_mode_active

    def test_paging_enabled(self):
        vmcb = Vmcb()
        vmcb.write(SF.CR0, Cr0.PG)
        assert vmcb.paging_enabled

    def test_vgif_bits(self):
        vmcb = Vmcb()
        vmcb.write(SF.VINTR_CONTROL, SF.VintrControl.V_GIF_ENABLE)
        assert vmcb.vgif_enabled
        assert not vmcb.vgif_value
        vmcb.write(SF.VINTR_CONTROL,
                   SF.VintrControl.V_GIF_ENABLE | SF.VintrControl.V_GIF)
        assert vmcb.vgif_value

    def test_avic_bit(self):
        vmcb = Vmcb()
        assert not vmcb.avic_enabled
        vmcb.write(SF.VINTR_CONTROL, SF.VintrControl.AVIC_ENABLE)
        assert vmcb.avic_enabled


class TestWholeStructure:
    def test_layout_has_control_and_save_areas(self):
        areas = {spec.area for spec in SF.ALL_FIELDS}
        assert areas == {SF.VmcbArea.CONTROL, SF.VmcbArea.SAVE}

    def test_segment_fields_present(self):
        for seg in SF.SEGMENT_NAMES:
            for part in ("selector", "attrib", "limit", "base"):
                assert f"{seg}_{part}" in SF.SPEC_BY_NAME

    def test_copy_independent(self):
        a = Vmcb()
        b = a.copy()
        b.write(SF.RIP, 9)
        assert a.read(SF.RIP) == 0

    def test_diff(self):
        a, b = Vmcb(), Vmcb()
        b.write(SF.EFER, 1)
        assert [spec.name for spec, _, _ in a.diff(b)] == ["efer"]

    def test_serialize_roundtrip_default(self):
        raw = Vmcb().serialize()
        assert Vmcb.deserialize(raw) == Vmcb()

    def test_deserialize_short_rejected(self):
        with pytest.raises(ValueError):
            Vmcb.deserialize(b"\x01" * 8)

    @given(st.binary(min_size=SF.LAYOUT_BYTES, max_size=SF.LAYOUT_BYTES))
    @settings(max_examples=50, deadline=None)
    def test_serialize_deserialize_roundtrip(self, raw):
        vmcb = Vmcb.deserialize(raw)
        assert Vmcb.deserialize(vmcb.serialize()) == vmcb

    @given(st.binary(min_size=SF.LAYOUT_BYTES, max_size=SF.LAYOUT_BYTES))
    @settings(max_examples=25, deadline=None)
    def test_hamming_self_zero(self, raw):
        vmcb = Vmcb.deserialize(raw)
        assert vmcb.hamming(vmcb.copy()) == 0


class TestFreshLayout:
    """A fresh Vmcb copies one shared zero table; it must equal the
    per-spec layout and never alias another instance."""

    def test_fresh_equals_spec_zero_layout(self):
        vmcb = Vmcb()
        assert vmcb._values == {spec.name: 0 for spec in SF.ALL_FIELDS}
        assert list(vmcb._values) == [spec.name for spec in SF.ALL_FIELDS]
        assert vmcb.generation == 0
        assert vmcb.changes_since(0) == frozenset()

    def test_writes_never_alias_another_instance(self):
        a, b = Vmcb(), Vmcb()
        a.write(SF.RIP, 9)
        assert b.read(SF.RIP) == 0
        Vmcb.deserialize(b"\xff" * SF.LAYOUT_BYTES)
        assert Vmcb() == b
        assert Vmcb().read(SF.RIP) == 0

    @pytest.mark.parametrize("nested_paging", [True, False])
    def test_fields_on_golden_in_canonical_order(self, nested_paging):
        vmcb = golden_vmcb(nested_paging=nested_paging)
        assert list(vmcb.fields()) == [
            (spec, vmcb.read(spec.name)) for spec in SF.ALL_FIELDS]

    @given(st.binary(min_size=SF.LAYOUT_BYTES, max_size=SF.LAYOUT_BYTES))
    @settings(max_examples=25, deadline=None)
    def test_fields_on_deserialized_in_canonical_order(self, raw):
        vmcb = Vmcb.deserialize(raw)
        assert list(vmcb.fields()) == [
            (spec, vmcb.read(spec.name)) for spec in SF.ALL_FIELDS]
