"""Deterministic randomness for reproducible campaigns.

Every stochastic decision in the framework flows through an :class:`Rng`
seeded from the campaign seed, so a campaign is a pure function of
``(seed, budget, configuration)``.
"""

from __future__ import annotations

import random


class Rng:
    """A thin, explicitly-seeded wrapper around :class:`random.Random`."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def u8(self) -> int:
        """Consume one byte."""
        return self._random.randrange(256)

    def u16(self) -> int:
        """Consume two bytes, little-endian."""
        return self._random.randrange(1 << 16)

    def u32(self) -> int:
        """Consume four bytes, little-endian."""
        return self._random.randrange(1 << 32)

    def u64(self) -> int:
        """Consume eight bytes, little-endian."""
        return self._random.randrange(1 << 64)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound). bound must be positive."""
        return self._random.randrange(bound)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        return self._random.random() < probability

    def choice(self, seq):
        """Pick one element uniformly."""
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        """Shuffle *seq* in place."""
        self._random.shuffle(seq)

    def bytes(self, n: int) -> bytes:
        """n random bytes."""
        return self._random.randbytes(n)

    def fork(self, salt: int) -> "Rng":
        """Derive an independent child stream (for per-run determinism)."""
        return Rng((self.seed * 1_000_003 + salt) & 0xFFFFFFFFFFFFFFFF)

    # --- checkpointing -----------------------------------------------------

    def getstate(self):
        """The full stream position (checkpoint payload)."""
        return self._random.getstate()

    def setstate(self, state) -> None:
        """Restore a :meth:`getstate` position, resuming the exact
        stream — a resumed campaign must consume the same randomness an
        uninterrupted one would."""
        self._random.setstate(state)
