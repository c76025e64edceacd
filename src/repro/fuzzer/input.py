"""Fuzzing-input representation and partitioning.

AFL++ hands the agent "2 KiB of binary data" (paper §4.1), which the VM
generator partitions and dispatches: one region becomes the raw VMCS
content, one drives the post-rounding mutation, one drives the execution
harness's template choices, and one the vCPU configurator. The
:class:`FuzzInput` layout below is that contract.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Total fuzzing-input size, as in the paper.
INPUT_SIZE = 2048

#: Region boundaries (byte offsets) within the 2 KiB input.
VM_STATE_REGION = (0, 1000)        # raw VMCS/VMCB content (~8,000 bits)
MUTATION_REGION = (1000, 1200)     # post-rounding bit-flip directives
HARNESS_REGION = (1200, 1960)      # init-sequence + runtime template choices
CONFIG_REGION = (1960, 2016)       # vCPU configuration bits
RESERVED_REGION = (2016, 2048)


class InputCursor:
    """Sequential little-endian consumer over one input region.

    Reads wrap around within the region, so any region length supports
    any consumption pattern — short inputs simply repeat, which keeps
    mutation effects local and deterministic.
    """

    def __init__(self, data: bytes, *, spread: bool = False) -> None:
        if not data:
            raise ValueError("cursor needs at least one byte")
        self.data = data
        # With *spread*, the start offset is a digest of the region, so
        # a single-byte mutation anywhere reshuffles every subsequent
        # directive instead of only the bytes it landed on. This keeps
        # directive-driven components (field selection, template
        # choices) ergodic under byte-local mutation operators.
        self.offset = sum(data) % len(data) if spread else 0

    def _take(self, n: int) -> bytes:
        data = self.data
        size = len(data)
        start = self.offset % size
        self.offset += n
        end = start + n
        if end <= size:
            return data[start:end]
        # The read runs past the end: wrap, repeating the data as often
        # as *n* needs.
        return (data[start:] + data * (n // size + 1))[:n]

    def u8(self) -> int:
        """Consume one byte."""
        offset = self.offset
        self.offset = offset + 1
        return self.data[offset % len(self.data)]

    def u16(self) -> int:
        """Consume two bytes, little-endian."""
        return int.from_bytes(self._take(2), "little")

    def u32(self) -> int:
        """Consume four bytes, little-endian."""
        return int.from_bytes(self._take(4), "little")

    def u64(self) -> int:
        """Consume eight bytes, little-endian."""
        return int.from_bytes(self._take(8), "little")

    def below(self, bound: int) -> int:
        """Map input bytes to [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound <= 256:
            return self.u8() % bound
        if bound <= 1 << 16:
            return self.u16() % bound
        return self.u32() % bound

    def chance(self, numerator: int, denominator: int) -> bool:
        """True for roughly numerator/denominator of input bytes."""
        return self.u8() * denominator < numerator * 256

    def choose(self, seq):
        """Pick one element of *seq* based on input bytes."""
        return seq[self.below(len(seq))]

    def take_bytes(self, n: int) -> bytes:
        """Consume *n* raw bytes."""
        return bytes(self._take(n))


@dataclass(frozen=True)
class FuzzInput:
    """One 2 KiB fuzzing input with its region views."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != INPUT_SIZE:
            object.__setattr__(self, "data", self.normalize(self.data))

    @staticmethod
    def normalize(raw: bytes) -> bytes:
        """Pad or truncate arbitrary bytes to the canonical input size."""
        if len(raw) >= INPUT_SIZE:
            return raw[:INPUT_SIZE]
        return raw + bytes(INPUT_SIZE - len(raw))

    def region(self, bounds: tuple[int, int]) -> bytes:
        """The raw bytes of one input partition."""
        start, end = bounds
        return self.data[start:end]

    def vm_state_bytes(self) -> bytes:
        """Raw VM-state region (interpreted as a serialised VMCS/VMCB)."""
        return self.region(VM_STATE_REGION)

    def mutation_cursor(self) -> InputCursor:
        """Cursor over the boundary-injection directives.

        Positional (non-spread) decoding: each injection directive lives
        at a fixed offset, so a queued near-boundary input can evolve
        its directives *locally* across generations — a bit flip in the
        region moves one directive a little instead of reshuffling all
        of them.
        """
        return InputCursor(self.region(MUTATION_REGION))

    def harness_cursor(self) -> InputCursor:
        """Cursor over the execution-harness directives."""
        return InputCursor(self.region(HARNESS_REGION), spread=True)

    def config_cursor(self) -> InputCursor:
        """Cursor over the vCPU-configuration bits."""
        return InputCursor(self.region(CONFIG_REGION), spread=True)

    @classmethod
    def from_rng(cls, rng) -> "FuzzInput":
        """A fresh random input (campaign seeding)."""
        return cls(rng.bytes(INPUT_SIZE))
