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


#: Every field key, plus the group the nested models copy.
_KEYS = tuple(spec.name for spec in SF.ALL_FIELDS)
_KEY_LISTS = st.one_of(
    st.just(SF.SAVE_NAMES),
    st.permutations(_KEYS),
    st.lists(st.sampled_from(_KEYS), max_size=60).map(tuple))


def _churned(raw: bytes, churn: int) -> Vmcb:
    """A deserialized VMCB whose journal holds *churn* entries."""
    vmcb = Vmcb.deserialize(raw)
    for _ in range(churn):
        vmcb.write(SF.RIP, vmcb.read(SF.RIP) ^ 1)
    return vmcb


class TestCopyFields:
    """``copy_fields`` equals the per-field ``write(k, src.read(k))``
    loop: values, generations, journal (and so ``changes_since`` for
    every earlier generation), truncation and the source read trace."""

    @given(st.binary(min_size=SF.LAYOUT_BYTES, max_size=SF.LAYOUT_BYTES),
           st.binary(min_size=SF.LAYOUT_BYTES, max_size=SF.LAYOUT_BYTES),
           st.one_of(st.integers(0, 40), st.integers(3300, 4095)),
           st.lists(_KEY_LISTS, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_field_loop(self, raw_src, raw_dst, churn, key_lists):
        src, src_ref = Vmcb.deserialize(raw_src), Vmcb.deserialize(raw_src)
        src._read_trace, src_ref._read_trace = set(), set()
        dst = _churned(raw_dst, churn)
        ref = dst.copy()
        marks = [dst.generation]
        for keys in key_lists:
            dst.copy_fields(src, keys)
            for k in keys:
                ref.write(k, src_ref.read(k))
            assert dst == ref
            assert dst.generation == ref.generation
            assert (dst._log, dst._log_base) == (ref._log, ref._log_base)
            marks.append(dst.generation)
            base = ref._log_base
            for gen in {*marks, *range(max(base - 2, 0), base + 3),
                        *range(max(ref.generation - 3, 0), ref.generation + 1)}:
                assert dst.changes_since(gen) == ref.changes_since(gen)
            assert src._read_trace == src_ref._read_trace
            # The source is only read.
            assert src == src_ref and src.generation == src_ref.generation
            src.write(SF.RSP, src.read(SF.RSP) ^ 1)
            src_ref.write(SF.RSP, src_ref.read(SF.RSP) ^ 1)

    def test_truncation_crosses_log_max(self):
        from repro.svm.vmcb import _LOG_KEEP, _LOG_MAX

        dst = _churned(bytes(SF.LAYOUT_BYTES), _LOG_MAX - 5)
        ref = dst.copy()
        src = Vmcb.deserialize(b"\xa5" * SF.LAYOUT_BYTES)
        dst.copy_fields(src, _KEYS)
        for k in _KEYS:
            ref.write(k, src.read(k))
        assert len(dst._log) < _LOG_MAX and dst._log_base > 0
        assert (dst._log, dst._log_base) == (ref._log, ref._log_base)
        assert dst.changes_since(dst._log_base - 1) is None
        assert dst.changes_since(dst._log_base) == ref.changes_since(
            ref._log_base)
        assert len(dst._log) >= _LOG_KEEP

    def test_unknown_key_raises_and_writes_nothing(self):
        src = Vmcb.deserialize(b"\x5a" * SF.LAYOUT_BYTES)
        src._read_trace = set()
        dst = Vmcb()
        with pytest.raises(KeyError, match="unknown VMCB field"):
            dst.copy_fields(src, (SF.RIP, "bogus", SF.RSP))
        assert dst == Vmcb() and dst.generation == 0
        assert src._read_trace == set()

    def test_unchanged_copy_keeps_generation(self):
        src = golden_vmcb()
        dst = src.copy()
        gen = dst.generation
        dst.copy_fields(src, _KEYS)
        assert dst.generation == gen
        assert dst.changes_since(gen) == frozenset()
