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
        for length in (0, 10, F.LAYOUT_BYTES - 1):
            with pytest.raises(ValueError, match="bytes for a VMCS image"):
                Vmcs.deserialize(b"\x00" * length)

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


    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES),
           st.lists(st.tuples(st.sampled_from([s.encoding for s in F.ALL_FIELDS]),
                              st.integers(0, (1 << 64) - 1)), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_serialize_deserialize_roundtrip(self, raw, writes):
        vmcs = Vmcs.deserialize(raw)
        for encoding, value in writes:
            vmcs.write(encoding, value)
        back = Vmcs.deserialize(vmcs.serialize())
        assert back == vmcs
        assert list(back.fields()) == list(vmcs.fields())
        assert list(back._values) == [s.encoding for s in F.ALL_FIELDS]

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES))
    @settings(max_examples=25, deadline=None)
    def test_layout_is_little_endian_fields_in_order(self, raw):
        vmcs = Vmcs.deserialize(raw)
        offset = 0
        for spec in F.ALL_FIELDS:
            nbytes = spec.bits // 8
            assert vmcs.read(spec.encoding) == int.from_bytes(
                raw[offset:offset + nbytes], "little")
            offset += nbytes
        assert offset == F.LAYOUT_BYTES

    def test_link_pointer_default_survives_roundtrip(self):
        back = Vmcs.deserialize(Vmcs().serialize())
        assert back == Vmcs()
        assert back.read(F.VMCS_LINK_POINTER) == (1 << 64) - 1

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES),
           st.binary(min_size=1, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_trailing_bytes_ignored(self, raw, extra):
        assert Vmcs.deserialize(raw + extra) == Vmcs.deserialize(raw)
        assert Vmcs.deserialize(raw + extra).serialize() == raw


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

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES),
           st.sampled_from((0x12, 0x1, 0xFFFF)))
    @settings(max_examples=25, deadline=None)
    def test_deserialized_state_equals_a_fresh_instance_with_its_values(
            self, raw, revision):
        """``deserialize`` skips ``__init__``; it must still set every
        attribute ``__init__`` sets, to the same value, and own its table."""
        vmcs = Vmcs.deserialize(raw, revision)
        fresh = Vmcs(revision)
        fresh._values = dict(vmcs._values)
        assert vars(vmcs) == vars(fresh)
        assert vmcs.revision_id == revision and not vmcs.launched
        assert vmcs.serialize() == raw
        other = Vmcs.deserialize(raw, revision)
        vmcs.write(F.GUEST_RIP, vmcs.read(F.GUEST_RIP) ^ 1)
        assert other.serialize() == raw
        assert other.generation == 0 and other._log == []

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES))
    @settings(max_examples=25, deadline=None)
    def test_fields_on_deserialized_in_canonical_order(self, raw):
        vmcs = Vmcs.deserialize(raw)
        assert list(vmcs.fields()) == [
            (spec, vmcs.read(spec.encoding)) for spec in F.ALL_FIELDS]


#: Every field key, plus the group the nested models copy.
_KEYS = tuple(spec.encoding for spec in F.ALL_FIELDS)
_KEY_LISTS = st.one_of(
    st.just(F.GUEST_ENCODINGS),
    st.permutations(_KEYS),
    st.lists(st.sampled_from(_KEYS), max_size=60).map(tuple))


def _churned(raw: bytes, churn: int) -> Vmcs:
    """A deserialized VMCS whose journal holds *churn* entries."""
    vmcs = Vmcs.deserialize(raw)
    for _ in range(churn):
        vmcs.write(F.GUEST_RIP, vmcs.read(F.GUEST_RIP) ^ 1)
    return vmcs


class TestCopyFields:
    """``copy_fields`` equals the per-field ``write(k, src.read(k))``
    loop: values, generations, journal (and so ``changes_since`` for
    every earlier generation), truncation and the source read trace."""

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES),
           st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES),
           st.one_of(st.integers(0, 40), st.integers(3300, 4095)),
           st.lists(_KEY_LISTS, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_field_loop(self, raw_src, raw_dst, churn, key_lists):
        src, src_ref = Vmcs.deserialize(raw_src), Vmcs.deserialize(raw_src)
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
            # Change the source so the next copy has news to write.
            src.write(F.GUEST_RSP, src.read(F.GUEST_RSP) ^ 1)
            src_ref.write(F.GUEST_RSP, src_ref.read(F.GUEST_RSP) ^ 1)

    def test_truncation_crosses_log_max(self):
        from repro.vmx.vmcs import _LOG_KEEP, _LOG_MAX

        dst = _churned(bytes(F.LAYOUT_BYTES), _LOG_MAX - 5)
        ref = dst.copy()
        src = Vmcs.deserialize(b"\xa5" * F.LAYOUT_BYTES)
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
        src = Vmcs.deserialize(b"\x5a" * F.LAYOUT_BYTES)
        src._read_trace = set()
        dst = Vmcs()
        with pytest.raises(KeyError, match="unsupported VMCS component"):
            dst.copy_fields(src, (F.GUEST_RIP, 0xDEAD, F.GUEST_RSP))
        assert dst == Vmcs() and dst.generation == 0
        assert src._read_trace == set()

    def test_unchanged_copy_keeps_generation(self):
        src = golden_vmcs()
        dst = src.copy()
        gen = dst.generation
        dst.copy_fields(src, _KEYS)
        assert dst.generation == gen
        assert dst.changes_since(gen) == frozenset()


#: Values wider than any field, so ``write_many`` must truncate.
_PAIRS = st.lists(st.tuples(st.sampled_from(_KEYS),
                            st.integers(0, (1 << 66) - 1)), max_size=60)
_PAIR_LISTS = st.one_of(
    _PAIRS,
    # Repeated keys: flip one field back and forth.
    st.integers(1, 8).map(lambda n: [(F.GUEST_RIP, i & 1) for i in range(n)]))


class TestWriteMany:
    """``write_many`` equals the per-pair ``write(k, v)`` loop: values,
    generations, journal (and so ``changes_since`` for every earlier
    generation) and truncation."""

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES),
           st.one_of(st.integers(0, 40), st.integers(3300, 4095)),
           st.lists(_PAIR_LISTS, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_pair_loop(self, raw, churn, pair_lists):
        vmcs = _churned(raw, churn)
        ref = vmcs.copy()
        marks = [vmcs.generation]
        for pairs in pair_lists:
            vmcs.write_many(iter(pairs))
            for k, v in pairs:
                ref.write(k, v)
            assert vmcs == ref
            assert vmcs.generation == ref.generation
            assert (vmcs._log, vmcs._log_base) == (ref._log, ref._log_base)
            marks.append(vmcs.generation)
            base = ref._log_base
            for gen in {*marks, *range(max(base - 2, 0), base + 3),
                        *range(max(ref.generation - 3, 0), ref.generation + 1)}:
                assert vmcs.changes_since(gen) == ref.changes_since(gen)

    @pytest.mark.parametrize("churn", [0, 5, 3000])
    def test_truncation_crosses_log_max(self, churn):
        from repro.vmx.vmcs import _LOG_KEEP, _LOG_MAX

        vmcs = _churned(bytes(F.LAYOUT_BYTES), _LOG_MAX - 1 - churn)
        ref = vmcs.copy()
        # Every field, then enough flips of one field to cut the
        # journal several times in one call.
        pairs = [(k, 0xA5A5_A5A5_A5A5_A5A5) for k in _KEYS]
        pairs += [(F.GUEST_RSP, i) for i in range(1, 3 * _LOG_MAX)]
        vmcs.write_many(pairs)
        for k, v in pairs:
            ref.write(k, v)
        assert len(vmcs._log) < _LOG_MAX and vmcs._log_base > 0
        assert (vmcs._log, vmcs._log_base) == (ref._log, ref._log_base)
        assert vmcs.generation == ref.generation
        assert vmcs.changes_since(vmcs._log_base - 1) is None
        assert vmcs.changes_since(vmcs._log_base) == ref.changes_since(
            ref._log_base)
        assert len(vmcs._log) >= _LOG_KEEP

    def test_unknown_key_raises_and_writes_nothing(self):
        vmcs = Vmcs.deserialize(b"\x5a" * F.LAYOUT_BYTES)
        before = vmcs.copy()
        with pytest.raises(KeyError, match="unsupported VMCS component"):
            vmcs.write_many([(F.GUEST_RIP, 1), (0xDEAD, 2), (F.GUEST_RSP, 3)])
        assert vmcs == before and vmcs.generation == 0 and vmcs._log == []

    def test_unchanged_values_keep_generation(self):
        vmcs = golden_vmcs()
        gen = vmcs.generation
        vmcs.write_many([(spec.encoding, v) for spec, v in vmcs.fields()])
        assert vmcs.generation == gen
        assert vmcs.changes_since(gen) == frozenset()


class TestAdopt:
    """``adopt(values, changed)`` equals making the value-changing writes
    *changed* one at a time, when *values* is what they leave."""

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES),
           st.one_of(st.integers(0, 40), st.integers(3300, 4095)),
           _PAIR_LISTS)
    @settings(max_examples=60, deadline=None)
    def test_equals_per_write_loop(self, raw, churn, pairs):
        vmcs = _churned(raw, churn)
        ref = vmcs.copy()
        g0 = vmcs.generation
        values = dict(vmcs._values)
        changed = []
        for k, v in pairs:
            before = ref.generation
            ref.write(k, v)
            if ref.generation != before:
                values[k] = ref.read(k)
                changed.append(k)
        vmcs.adopt(values, changed)
        assert vmcs._values is values
        assert vmcs == ref and vmcs.serialize() == ref.serialize()
        assert vmcs.generation == ref.generation
        assert (vmcs._log, vmcs._log_base) == (ref._log, ref._log_base)
        assert vmcs.changes_since(g0) == ref.changes_since(g0)

    def test_no_changes_keeps_generation(self):
        vmcs = golden_vmcs()
        gen, log = vmcs.generation, list(vmcs._log)
        vmcs.adopt(dict(vmcs._values), [])
        assert (vmcs.generation, vmcs._log) == (gen, log)
