"""Tests for fuzzing-input partitioning and cursors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzer.input import (
    CONFIG_REGION,
    HARNESS_REGION,
    INPUT_SIZE,
    MUTATION_REGION,
    VM_STATE_REGION,
    FuzzInput,
    InputCursor,
)
from repro.vmx import fields as F
from tests.reference import PerByteCursor


class TestRegions:
    def test_regions_tile_the_input(self):
        regions = sorted([VM_STATE_REGION, MUTATION_REGION, HARNESS_REGION,
                          CONFIG_REGION])
        for (s1, e1), (s2, e2) in zip(regions, regions[1:]):
            assert e1 == s2  # contiguous, no overlap

    def test_vm_state_region_fits_vmcs(self):
        start, end = VM_STATE_REGION
        assert end - start >= F.LAYOUT_BYTES

    def test_input_is_2kib(self):
        assert INPUT_SIZE == 2048


class TestFuzzInput:
    def test_normalize_pads(self):
        assert len(FuzzInput.normalize(b"ab")) == INPUT_SIZE

    def test_normalize_truncates(self):
        assert len(FuzzInput.normalize(b"x" * 5000)) == INPUT_SIZE

    def test_short_input_auto_normalized(self):
        fi = FuzzInput(b"abc")
        assert len(fi.data) == INPUT_SIZE

    def test_vm_state_bytes(self):
        fi = FuzzInput(bytes(range(256)) * 8)
        start, end = VM_STATE_REGION
        assert fi.vm_state_bytes() == fi.data[start:end]

    def test_from_rng_deterministic(self):
        from repro.fuzzer.rng import Rng

        assert FuzzInput.from_rng(Rng(5)).data == FuzzInput.from_rng(Rng(5)).data


class TestInputCursor:
    def test_sequential_reads(self):
        cursor = InputCursor(bytes([1, 2, 3, 4]))
        assert cursor.u8() == 1
        assert cursor.u8() == 2
        assert cursor.u16() == 3 | (4 << 8)

    def test_wraps_around(self):
        cursor = InputCursor(bytes([7]))
        assert cursor.u32() == 0x07070707

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            InputCursor(b"")

    def test_below_bounds(self):
        cursor = InputCursor(bytes(range(64)))
        for bound in (1, 7, 255, 1000, 100000):
            assert 0 <= cursor.below(bound) < bound

    def test_below_zero_rejected(self):
        with pytest.raises(ValueError):
            InputCursor(b"\x01").below(0)

    def test_choose(self):
        cursor = InputCursor(bytes([2]))
        assert cursor.choose(["a", "b", "c"]) == "c"

    def test_chance_extremes(self):
        assert InputCursor(b"\x00").chance(1, 2)       # 0 < 128
        assert not InputCursor(b"\xff").chance(1, 2)   # 255 >= 128

    def test_spread_offset_derived_from_content(self):
        a = InputCursor(b"\x01" + bytes(9), spread=True)
        b = InputCursor(b"\x02" + bytes(9), spread=True)
        assert a.offset != b.offset

    def test_spread_changes_directive_stream(self):
        # A single-byte change anywhere reshuffles subsequent reads.
        base = bytes(range(100))
        changed = bytes([99]) + base[1:]
        a = InputCursor(base, spread=True)
        b = InputCursor(changed, spread=True)
        assert [a.u8() for _ in range(8)] != [b.u8() for _ in range(8)]

    @given(st.binary(min_size=1, max_size=64),
           st.integers(min_value=1, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_below_always_in_range(self, data, bound):
        cursor = InputCursor(data)
        for _ in range(4):
            assert 0 <= cursor.below(bound) < bound


#: One cursor read: a method name and its arguments.
_READS = st.one_of(
    st.sampled_from([("u8",), ("u16",), ("u32",), ("u64",)]),
    st.tuples(st.just("below"), st.integers(min_value=1, max_value=1 << 40)),
    st.tuples(st.just("chance"), st.integers(min_value=0, max_value=64),
              st.integers(min_value=1, max_value=64)),
    st.tuples(st.just("take_bytes"), st.integers(min_value=0, max_value=5000)),
)


class TestSliceReadsMatchPerByteCursor:
    """The slice-reading cursor returns the values and leaves the offsets
    of the per-byte reference cursor, wrap included."""

    @given(data=st.binary(min_size=1, max_size=2048), spread=st.booleans(),
           skip=st.integers(min_value=0, max_value=4096),
           reads=st.lists(_READS, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_mixed_reads(self, data, spread, skip, reads):
        cursor = InputCursor(data, spread=spread)
        reference = PerByteCursor(data, spread=spread)
        # Start anywhere, as the runtime phase's skip past the init
        # phase's bytes does.
        cursor.offset += skip
        reference.offset += skip
        for name, *args in reads:
            got = getattr(cursor, name)(*args)
            expected = getattr(reference, name)(*args)
            assert (got, type(got)) == (expected, type(expected))
            assert cursor.offset == reference.offset

    @pytest.mark.parametrize("spread", [False, True])
    @pytest.mark.parametrize("size", [1, 3, 7, 8, 9, 2048])
    def test_reads_that_wrap(self, size, spread):
        data = bytes((i * 37 + 11) % 256 for i in range(size))
        cursor = InputCursor(data, spread=spread)
        reference = PerByteCursor(data, spread=spread)
        for _ in range(3 * size + 8):
            for name in ("u64", "u32", "u16", "u8"):
                assert getattr(cursor, name)() == getattr(reference, name)()
                assert cursor.offset == reference.offset
        assert cursor.take_bytes(2 * size + 5) == reference.take_bytes(
            2 * size + 5)
        assert cursor.offset == reference.offset
