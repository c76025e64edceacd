"""Unit tests for NCD1 coverage deltas (DESIGN.md §15).

Pins the codec round-trip, the full-snapshot run scan the sync
sidecar publishes (gap coalescing, exact reconstruction), the
subsumption test partners run against it (subsumed == nothing new),
and the corruption → :class:`DeltaError` contract the sidecar reader
falls back on.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage import delta
from repro.coverage.bitmap import MAP_SIZE
from repro.parallel import checksum


def _random_map(rng: random.Random, cells: int) -> bytearray:
    bits = bytearray(MAP_SIZE)
    for _ in range(cells):
        bits[rng.randrange(MAP_SIZE)] |= 1 << rng.randrange(8)
    return bits


def _grown(rng: random.Random, base: bytearray, cells: int) -> bytearray:
    grown = bytearray(base)
    for _ in range(cells):
        grown[rng.randrange(MAP_SIZE)] |= 1 << rng.randrange(8)
    return grown


def _rebuilt(runs) -> bytearray:
    """The map a full snapshot's runs describe."""
    bits = bytearray(MAP_SIZE)
    for start, run in runs:
        bits[start:start + len(run)] = run
    return bits


# --- codec -----------------------------------------------------------------


def test_encode_decode_round_trip():
    rng = random.Random(7)
    runs = delta.full_delta(bytes(_random_map(rng, 200)), 9).runs
    original = delta.CoverageDelta(base_generation=3, generation=9,
                                   runs=runs)
    decoded = delta.decode(delta.encode(original))
    assert decoded == original
    assert decoded.base_generation == 3
    assert decoded.generation == 9
    assert not decoded.full


def test_empty_delta_round_trips():
    original = delta.full_delta(bytes(MAP_SIZE), 5)
    assert original.runs == ()
    assert delta.decode(delta.encode(original)) == original


def test_full_delta_is_resync_snapshot():
    rng = random.Random(11)
    bits = _random_map(rng, 300)
    snap = delta.full_delta(bytes(bits), 42)
    assert snap.full and snap.base_generation == 0
    assert _rebuilt(snap.runs) == bits


def test_corrupt_payload_raises_delta_error():
    snap = delta.full_delta(bytes(_random_map(random.Random(3), 50)), 1)
    wire = bytearray(delta.encode(snap))
    wire[len(wire) // 2] ^= 0xFF
    with pytest.raises(delta.DeltaError, match="CRC"):
        delta.decode(bytes(wire))


def test_truncated_payload_raises_delta_error():
    snap = delta.full_delta(bytes(_random_map(random.Random(4), 50)), 1)
    with pytest.raises(delta.DeltaError):
        delta.decode(delta.encode(snap)[:10])


def test_bad_magic_rejected():
    payload = struct.pack("<4sIII", b"XXXX", 0, 1, 0)
    with pytest.raises(delta.DeltaError, match="magic"):
        delta.decode(checksum.seal(payload))


def test_out_of_order_runs_rejected():
    header = struct.pack("<4sIII", delta.DELTA_MAGIC, 0, 1, 2)
    run_a = struct.pack("<II", 100, 1) + b"\x01"
    run_b = struct.pack("<II", 50, 1) + b"\x01"  # overlaps backwards
    with pytest.raises(delta.DeltaError, match="out of"):
        delta.decode(checksum.seal(header + run_a + run_b))


def _header(count: int) -> bytes:
    return struct.pack("<4sIII", delta.DELTA_MAGIC, 0, 1, count)


def _run(start: int, payload: bytes) -> bytes:
    return struct.pack("<II", start, len(payload)) + payload


#: Sealed payloads whose CRC is fine but whose body breaks one rule of
#: the run layout, keyed by the rule.
_MALFORMED = {
    "short_header": b"NCD1" + b"\x00" * 4,
    "zero_length_run": _header(1) + struct.pack("<II", 10, 0),
    "run_past_map_end": _header(1) + _run(MAP_SIZE - 1, b"\x01\x01"),
    "overlapping_runs": (_header(2) + _run(100, b"\x01" * 4)
                         + _run(102, b"\x01")),
    "truncated_run_header": _header(2) + _run(100, b"\x01") + b"\x00" * 4,
    "truncated_run_payload": (_header(1) + struct.pack("<II", 100, 8)
                              + b"\x01" * 3),
    "trailing_bytes": _header(1) + _run(100, b"\x01") + b"\x00",
}


@pytest.mark.parametrize("shape", sorted(_MALFORMED))
def test_malformed_run_layout_raises_delta_error(shape):
    with pytest.raises(delta.DeltaError):
        delta.decode(checksum.seal(_MALFORMED[shape]))


def test_adjacent_runs_are_accepted():
    # Touching (not overlapping) runs are in order: end == next start.
    raw = checksum.seal(_header(2) + _run(100, b"\x01" * 4)
                        + _run(104, b"\x02"))
    assert delta.decode(raw).runs == ((100, b"\x01" * 4), (104, b"\x02"))


def test_runs_at_both_map_edges_round_trip():
    bits = bytearray(MAP_SIZE)
    bits[0] = 0x80
    bits[MAP_SIZE - 1] = 0x01
    snap = delta.full_delta(bytes(bits), 3)
    assert snap.runs == ((0, b"\x80"), (MAP_SIZE - 1, b"\x01"))
    assert delta.decode(delta.encode(snap)) == snap


def test_nonzero_base_is_not_full():
    assert not delta.CoverageDelta(base_generation=4, generation=5,
                                   runs=()).full


def test_wrong_size_payload_rejected():
    with pytest.raises(ValueError, match="MAP_SIZE"):
        delta.full_delta(b"\x00" * 10, 1)


# --- run algebra -----------------------------------------------------------


def test_runs_subsumed_means_nothing_new():
    rng = random.Random(23)
    for _ in range(20):
        partner = _random_map(rng, rng.randrange(300))
        local = _random_map(rng, 200)
        if rng.random() < 0.5:
            local = _grown(rng, partner, rng.randrange(50))
        runs = delta.full_delta(bytes(partner), 2).runs
        new_bits = (int.from_bytes(partner, "little")
                    & ~int.from_bytes(local, "little"))
        assert delta.runs_subsumed(local, runs) == (new_bits == 0)


@pytest.mark.parametrize("gap", range(1, 11))
def test_run_scan_gap_threshold_is_one_run_header(gap):
    """A zero gap shorter than a run header (8 bytes) stays inside one
    run; a gap of 8 or more splits the runs."""
    new = bytearray(MAP_SIZE)
    new[100] = 1
    new[101 + gap] = 1
    runs = delta.full_delta(bytes(new), 1).runs
    if gap <= 7:
        assert runs == ((100, bytes(new[100:102 + gap])),)
    else:
        assert [start for start, _run in runs] == [100, 101 + gap]


def test_runs_subsumed_sees_a_single_missing_edge_bit():
    bits = bytearray(MAP_SIZE)
    bits[0] = 0x03
    bits[MAP_SIZE - 1] = 0x81
    runs = delta.full_delta(bytes(bits), 1).runs
    assert delta.runs_subsumed(bits, runs)
    for cell, bit in ((0, 0x01), (MAP_SIZE - 1, 0x80)):
        local = bytearray(bits)
        local[cell] &= ~bit
        assert not delta.runs_subsumed(local, runs)
    assert delta.runs_subsumed(bytes(MAP_SIZE), ())


@st.composite
def _maps(draw):
    bits = bytearray(MAP_SIZE)
    for cell, value in draw(st.dictionaries(
            st.integers(0, MAP_SIZE - 1), st.integers(1, 255),
            max_size=120)).items():
        bits[cell] = value
    # Dense clusters exercise gap coalescing as well as sparse cells.
    start = draw(st.integers(0, MAP_SIZE - 64))
    bits[start:start + 64] = draw(st.binary(min_size=64, max_size=64))
    return bytes(bits)


@given(_maps(), st.integers(1, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_full_delta_describes_the_map_exactly(bits, generation):
    snap = delta.full_delta(bits, generation)
    assert _rebuilt(snap.runs) == bits
    assert delta.runs_subsumed(bits, snap.runs)
    previous_end = None
    for start, run in snap.runs:
        # Runs start and end on nonzero bytes ...
        assert run[0] and run[-1]
        # ... and are separated by at least a run header of zeros.
        if previous_end is not None:
            assert start - previous_end >= 8
        previous_end = start + len(run)
    assert delta.decode(delta.encode(snap)) == snap


def test_run_scan_coalesces_small_gaps():
    new = bytearray(MAP_SIZE)
    new[100] = 1
    new[105] = 1  # 4-byte gap: cheaper as literal zeros than a new run
    new[200] = 1  # far away: its own run
    runs = delta.full_delta(bytes(new), 1).runs
    assert [start for start, _run in runs] == [100, 200]
    assert len(runs[0][1]) == 6


def test_run_scan_splits_large_gaps():
    new = bytearray(MAP_SIZE)
    new[100] = 1
    new[120] = 1  # 19-byte gap: two runs beat shipping the zeros
    runs = delta.full_delta(bytes(new), 1).runs
    assert [start for start, _run in runs] == [100, 120]


def test_delta_payload_is_sparse():
    snap = delta.full_delta(bytes(_random_map(random.Random(31), 40)), 1)
    # 40 touched cells must cost a tiny fraction of the 64 KiB map.
    assert len(delta.encode(snap)) < MAP_SIZE // 16
