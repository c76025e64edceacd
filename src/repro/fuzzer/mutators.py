"""AFL-style mutation operators.

The classic deterministic + havoc repertoire from AFL++: walking bit and
byte flips, arithmetic, interesting-value substitution, stacked havoc,
and two-input splicing. Operators take and return ``bytes``; they never
change the input length (the harness contract is a fixed 2 KiB).
"""

from __future__ import annotations

from repro.fuzzer.rng import Rng

#: AFL's "interesting" value sets.
INTERESTING_8 = (0, 1, 16, 32, 64, 100, 127, 128, 255, 0x80)
INTERESTING_16 = (0, 1, 128, 255, 256, 512, 1000, 1024, 4096, 32767, 32768, 65535)
INTERESTING_32 = (0, 1, 32768, 65535, 65536, 100 << 20, 0x7FFFFFFF, 0x80000000,
                  0xFFFFFFFF)

ARITH_MAX = 35


def bitflip(data: bytes, rng: Rng, *, width: int = 1) -> bytes:
    """Flip *width* consecutive bits at a random position."""
    out = bytearray(data)
    total_bits = len(out) * 8
    pos = rng.below(max(total_bits - width + 1, 1))
    for i in range(width):
        bit_pos = pos + i
        out[bit_pos // 8] ^= 1 << (bit_pos % 8)
    return bytes(out)


def byteflip(data: bytes, rng: Rng, *, width: int = 1) -> bytes:
    """Invert *width* consecutive bytes at a random position."""
    out = bytearray(data)
    pos = rng.below(max(len(out) - width + 1, 1))
    for i in range(width):
        out[pos + i] ^= 0xFF
    return bytes(out)


def arith(data: bytes, rng: Rng, *, width: int = 1) -> bytes:
    """Add/subtract a small delta at a random aligned position."""
    out = bytearray(data)
    if len(out) < width:
        return bytes(out)
    pos = rng.below(len(out) - width + 1)
    delta = rng.below(ARITH_MAX) + 1
    if rng.chance(0.5):
        delta = -delta
    value = int.from_bytes(out[pos:pos + width], "little")
    value = (value + delta) % (1 << (8 * width))
    out[pos:pos + width] = value.to_bytes(width, "little")
    return bytes(out)


def interesting(data: bytes, rng: Rng, *, width: int = 1) -> bytes:
    """Overwrite with an AFL interesting value."""
    out = bytearray(data)
    if len(out) < width:
        return bytes(out)
    pos = rng.below(len(out) - width + 1)
    table = {1: INTERESTING_8, 2: INTERESTING_16, 4: INTERESTING_32}[width]
    value = rng.choice(table) % (1 << (8 * width))
    out[pos:pos + width] = value.to_bytes(width, "little")
    return bytes(out)


def random_byte(data: bytes, rng: Rng) -> bytes:
    """Replace one byte with a random value."""
    out = bytearray(data)
    out[rng.below(len(out))] = rng.u8()
    return bytes(out)


def block_overwrite(data: bytes, rng: Rng) -> bytes:
    """Overwrite a random block with random bytes (length preserved)."""
    out = bytearray(data)
    length = rng.below(min(64, len(out))) + 1
    pos = rng.below(len(out) - length + 1)
    out[pos:pos + length] = rng.bytes(length)
    return bytes(out)


def block_copy(data: bytes, rng: Rng) -> bytes:
    """Copy one random block over another (length preserved)."""
    out = bytearray(data)
    length = rng.below(min(64, len(out))) + 1
    src = rng.below(len(out) - length + 1)
    dst = rng.below(len(out) - length + 1)
    out[dst:dst + length] = out[src:src + length]
    return bytes(out)


def splice(data: bytes, other: bytes, rng: Rng) -> bytes:
    """AFL splice: head of one input, tail of another.

    Inputs of length <= 1 have no interior cut point (``rng.below(0)``
    would raise), so they pass through unchanged — and consume no RNG
    draw, matching what a zero-length cut would mean.
    """
    if len(data) <= 1:
        return data
    if len(other) != len(data):
        other = (other + bytes(len(data)))[:len(data)]
    cut = rng.below(len(data) - 1) + 1
    return data[:cut] + other[cut:]


_HAVOC_OPS = (
    lambda d, r: bitflip(d, r, width=1),
    lambda d, r: bitflip(d, r, width=2),
    lambda d, r: bitflip(d, r, width=4),
    lambda d, r: byteflip(d, r, width=1),
    lambda d, r: byteflip(d, r, width=2),
    lambda d, r: arith(d, r, width=1),
    lambda d, r: arith(d, r, width=2),
    lambda d, r: arith(d, r, width=4),
    lambda d, r: interesting(d, r, width=1),
    lambda d, r: interesting(d, r, width=2),
    lambda d, r: interesting(d, r, width=4),
    random_byte,
    block_overwrite,
    block_copy,
)


def havoc(data: bytes, rng: Rng, *, max_stack: int = 8) -> bytes:
    """AFL havoc: a random stack of random operators.

    Empty inputs pass through drawless: several operators would
    otherwise ask the RNG for a position in a zero-length buffer.
    """
    if not data:
        return data
    out = data
    for _ in range(rng.below(max_stack) + 1):
        out = rng.choice(_HAVOC_OPS)(out, rng)
    return out


def mutate_candidate(data: bytes, rng: Rng,
                     regions: tuple[tuple[int, int], ...],
                     partner: bytes | None = None) -> bytes:
    """The engine's full per-candidate mutation stack.

    Exactly the sequence :class:`repro.fuzzer.engine.FuzzEngine`
    applies — optional splice with *partner*, uniform havoc, then region
    havoc — in one function so tests can drive the stack without an
    engine. RNG call order here is part of every campaign
    fingerprint; do not reorder.
    """
    if partner is not None:
        data = splice(data, partner, rng)
    data = havoc(data, rng)
    return region_havoc(data, rng, regions)


def region_havoc(data: bytes, rng: Rng,
                 regions: tuple[tuple[int, int], ...]) -> bytes:
    """Partition-aware havoc — the NecoFuzz extension to AFL++.

    The 2 KiB input is partitioned and dispatched to the VM-generator
    components (paper §3.2), so uniform havoc leaves most partitions
    untouched most iterations and the directive-driven components
    degenerate to their parent's behaviour. Region havoc applies an
    independent operator stack inside each partition, keeping every
    component's directives in motion while preserving determinism.
    """
    out = bytearray(data)
    for start, end in regions:
        if not rng.chance(0.8):
            continue
        slice_ = bytes(out[start:end])
        slice_ = havoc(slice_, rng, max_stack=6)
        out[start:end] = slice_
    return bytes(out)
