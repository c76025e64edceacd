"""The getter-based VMCB paths equal their field-by-field reference.

``Vmcb.deserialize`` unpacks the whole image with one ``struct.Struct``,
``Vmcb.copy_fields`` and ``Vmcb.diff`` read both field tables through
cached ``itemgetter``s, and ``check_vmcb`` reads the value table
directly. ``tests.reference.svm`` keeps the versions they replaced;
each must leave the same values, generation, journal and journal base,
raise the same errors before writing anything, and report the same
violations in the same order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.registers import Cr0, Cr4, Efer
from repro.cpu.svm_cpu import check_vmcb
from repro.svm import fields as SF
from repro.svm import vmcb as vmcb_module
from repro.svm.vmcb import _LOG_KEEP, _LOG_MAX, Vmcb
from repro.validator.golden import golden_vmcb
from tests.reference import svm as reference

NAMES = tuple(s.name for s in SF.ALL_FIELDS)

images = st.binary(min_size=SF.LAYOUT_BYTES, max_size=SF.LAYOUT_BYTES)


def state(vmcb: Vmcb) -> tuple:
    """Everything a bulk write may change, field order included."""
    return (list(vmcb._values.items()), vmcb._gen, list(vmcb._log),
            vmcb._log_base)


def churn(vmcb: Vmcb, writes: int) -> None:
    """*writes* value-changing writes, cutting the journal as they go."""
    for i in range(writes):
        vmcb.write(SF.RAX, i + 1 if vmcb.read(SF.RAX) != i + 1 else i + 2)


class TestDeserialize:
    @settings(max_examples=60, deadline=None)
    @given(raw=st.binary(min_size=SF.LAYOUT_BYTES,
                         max_size=SF.LAYOUT_BYTES + 64),
           kind=st.sampled_from((bytes, bytearray, memoryview)))
    def test_equals_per_field_decode(self, raw, kind):
        data = kind(raw)
        got = Vmcb.deserialize(data)
        want = reference.deserialize(kind(raw))
        assert state(got) == state(want)
        assert got.serialize() == want.serialize() == bytes(raw[:SF.LAYOUT_BYTES])
        assert (got._ser, got._ser_gen) == (got.serialize(), 0)

    @settings(max_examples=30, deadline=None)
    @given(raw=st.binary(max_size=SF.LAYOUT_BYTES - 1),
           kind=st.sampled_from((bytes, bytearray, memoryview)))
    def test_short_input_raises(self, raw, kind):
        with pytest.raises(ValueError) as got:
            Vmcb.deserialize(kind(raw))
        with pytest.raises(ValueError) as want:
            reference.deserialize(kind(raw))
        assert str(got.value) == str(want.value)

    def test_all_ones_image_stays_in_width(self):
        vmcb = Vmcb.deserialize(b"\xff" * SF.LAYOUT_BYTES)
        for spec, value in vmcb.fields():
            assert value == (1 << spec.bits) - 1


key_names = st.sampled_from(NAMES)


@st.composite
def key_sets(draw):
    """Keys as a tuple or list, possibly repeated, possibly with one
    unknown name among them."""
    keys = draw(st.lists(key_names, max_size=80))
    if draw(st.booleans()):
        keys = list(SF.SAVE_NAMES) if draw(st.booleans()) else list(NAMES)
    if keys and draw(st.booleans()):
        keys.insert(draw(st.integers(0, len(keys))),
                    keys[draw(st.integers(0, len(keys) - 1))])
    if draw(st.integers(0, 5)) == 0:
        keys.insert(draw(st.integers(0, len(keys))), "bogus_field")
    return tuple(keys) if draw(st.booleans()) else keys


class TestCopyFields:
    @settings(max_examples=120, deadline=None)
    @given(dst_raw=images, src_raw=images, keys=key_sets(),
           writes=st.sampled_from((0, 5, _LOG_MAX - 70, _LOG_MAX - 3,
                                   _LOG_MAX + 400, 2 * _LOG_MAX - _LOG_KEEP - 30)))
    def test_equals_generator_copy(self, dst_raw, src_raw, keys, writes):
        src = Vmcb.deserialize(src_raw)
        got = Vmcb.deserialize(dst_raw)
        churn(got, writes)
        want = got.copy()
        try:
            reference.copy_fields(want, src, keys)
        except KeyError as exc:
            before = state(got)
            with pytest.raises(KeyError) as raised:
                got.copy_fields(src, keys)
            assert raised.value.args == exc.args
            assert state(got) == before
            return
        got.copy_fields(src, keys)
        assert state(got) == state(want)

    @settings(max_examples=25, deadline=None)
    @given(raws=st.lists(images, min_size=2, max_size=4),
           writes=st.integers(_LOG_MAX - 400, _LOG_MAX))
    def test_journal_cut_inside_repeated_copies(self, raws, writes):
        """Alternating whole-group copies cross ``_LOG_MAX`` inside
        ``copy_fields`` itself, several times."""
        sources = [Vmcb.deserialize(raw) for raw in raws]
        got = Vmcb.deserialize(raws[0])
        churn(got, writes)
        want = got.copy()
        for round_ in range(120):
            src = sources[round_ % len(sources)]
            keys = SF.SAVE_NAMES if round_ % 3 else NAMES
            got.copy_fields(src, keys)
            reference.copy_fields(want, src, keys)
            assert state(got) == state(want)
            assert got.changes_since(want.generation - 1) == \
                want.changes_since(want.generation - 1)

    def test_one_and_no_keys(self):
        src = golden_vmcb()
        for keys in ((SF.RIP,), [SF.RIP], (), []):
            got, want = Vmcb(), Vmcb()
            got.copy_fields(src, keys)
            reference.copy_fields(want, src, keys)
            assert state(got) == state(want)

    def test_getter_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(vmcb_module, "_GETTERS", {})
        src = golden_vmcb()
        dst = Vmcb()
        for n in range(vmcb_module._GETTERS_MAX + 20):
            dst.copy_fields(src, tuple(NAMES[:n % 50 + 2]))
        assert len(vmcb_module._GETTERS) <= vmcb_module._GETTERS_MAX
        got, want = Vmcb(), Vmcb()
        got.copy_fields(src, SF.SAVE_NAMES)
        reference.copy_fields(want, src, SF.SAVE_NAMES)
        assert state(got) == state(want)

    def test_lists_are_not_cached(self, monkeypatch):
        """A list can change between calls under the same id, so its
        getter is built for the call."""
        monkeypatch.setattr(vmcb_module, "_GETTERS", {})
        src = golden_vmcb()
        keys = [SF.RIP, SF.RSP]
        got, want = Vmcb(), Vmcb()
        got.copy_fields(src, keys)
        reference.copy_fields(want, src, keys)
        keys[:] = [SF.CR0, SF.CR4, SF.EFER]
        got.copy_fields(src, keys)
        reference.copy_fields(want, src, keys)
        assert state(got) == state(want)
        assert vmcb_module._GETTERS == {}


class TestDiff:
    @settings(max_examples=80, deadline=None)
    @given(raw=images, edits=st.lists(st.tuples(key_names, st.integers(0, 2**64 - 1)),
                                      max_size=6))
    def test_equals_per_spec_diff(self, raw, edits):
        a = Vmcb.deserialize(raw)
        b = a.copy()
        for name, value in edits:
            b.write(name, value)
        assert a.diff(b) == reference.diff(a, b)
        assert b.diff(a) == reference.diff(b, a)
        assert a.diff(a.copy()) == []

    @settings(max_examples=30, deadline=None)
    @given(a=images, b=images)
    def test_unrelated_images(self, a, b):
        x, y = Vmcb.deserialize(a), Vmcb.deserialize(b)
        assert x.diff(y) == reference.diff(x, y)


#: Values that sit on the vmrun checks' boundaries.
_EDGES = {
    SF.EFER: (0, Efer.SVME, Efer.SVME | Efer.LME, Efer.SVME | Efer.LME | Efer.LMA,
              Efer.SVME | 1 << 1, Efer.LME),
    SF.CR0: (0, Cr0.PE | Cr0.PG, Cr0.PG, Cr0.NW, Cr0.CD | Cr0.NW, 1 << 32),
    SF.CR4: (0, Cr4.PAE, 1 << 63),
    "cs_attrib": (0, 1 << 9, 1 << 10, 3 << 9, 0x29B, 0x69B),
    SF.DR6: (0, 0xFFFF0FF0, 1 << 32),
    SF.DR7: (0x400, 1 << 40),
    SF.INTERCEPT_MISC2: (0, SF.Misc2Intercept.VMRUN),
    SF.GUEST_ASID: (0, 1),
    SF.NP_CONTROL: (0, SF.NpControl.NP_ENABLE, 1 << 5, SF.NpControl.SEV_ENABLE),
    SF.N_CR3: (0x20000, 0x20123, 1 << 52),
}


class TestCheckVmcb:
    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(st.sampled_from(tuple(_EDGES)).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(_EDGES[name]))),
        max_size=8))
    def test_golden_perturbed(self, edits):
        vmcb = golden_vmcb()
        for name, value in edits:
            vmcb.write(name, value)
        assert check_vmcb(vmcb) == reference.check_vmcb(vmcb)

    @settings(max_examples=60, deadline=None)
    @given(raw=images)
    def test_raw_images(self, raw):
        vmcb = Vmcb.deserialize(raw)
        assert check_vmcb(vmcb) == reference.check_vmcb(vmcb)

    def test_golden_is_clean(self):
        assert check_vmcb(golden_vmcb()) == reference.check_vmcb(golden_vmcb()) == []
