"""Seed queue with AFL-style favored-entry scheduling."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.fuzzer.rng import Rng

#: The cull rule's exercise budget: a favored entry keeps scheduling
#: priority until it has been picked this many times, after which it is
#: un-favored (see :meth:`SeedQueue.add_finding`) and competes with the
#: rest of the queue on equal terms.
EXERCISE_CAP = 32


@dataclass
class QueueEntry:
    """One queued seed."""

    data: bytes
    found_at: int            # iteration number when discovered
    new_bits: int            # 2 = new edge, 1 = new bucket, 0 = initial seed
    exercised: int = 0       # times picked for mutation
    favored: bool = False
    imported: bool = False   # pulled in from a sync partner, not found locally
    #: Sparse classified coverage ((cell, class-bit) pairs, sorted) the
    #: entry produced when found — what the corpus wire format exports so
    #: partners can test subsumption without executing. None for seeds
    #: and legacy-loaded entries (which are then never filter-skipped).
    coverage: Optional[tuple] = None
    #: Source lines the entry covered when found; shipped alongside
    #: ``coverage`` so a skipping importer can still absorb line stats.
    lines: Optional[frozenset] = None
    crashed: bool = False    # produced a crash when found (never skipped)
    anomaly: bool = False    # produced an anomaly when found (never skipped)


@dataclass
class SeedQueue:
    """The fuzzer's corpus.

    A light version of AFL's culling: entries that found brand-new edges
    (``new_bits == 2``) are favored; picking prefers favored entries
    that are still under :data:`EXERCISE_CAP` picks. The cull rule is
    enforced on every :meth:`add_finding`: any favored entry whose
    ``exercised`` count has reached the cap is un-favored, so the
    favored pool reflects the entries actually receiving priority
    instead of silently emptying while stale flags linger.
    """

    entries: list[QueueEntry] = field(default_factory=list)

    def add_seed(self, data: bytes) -> QueueEntry:
        """Add an initial seed (always kept, never favored)."""
        entry = QueueEntry(data, found_at=0, new_bits=0)
        self.entries.append(entry)
        return entry

    def add_finding(self, data: bytes, iteration: int, new_bits: int,
                    imported: bool = False, coverage: Optional[tuple] = None,
                    lines: Optional[frozenset] = None, crashed: bool = False,
                    anomaly: bool = False) -> QueueEntry:
        """Add an input that produced new coverage."""
        entry = QueueEntry(data, found_at=iteration, new_bits=new_bits,
                           favored=new_bits == 2, imported=imported,
                           coverage=coverage, lines=lines, crashed=crashed,
                           anomaly=anomaly)
        self.entries.append(entry)
        self.recull()
        return entry

    def recull(self) -> None:
        """Enforce the cull rule: un-favor entries past the exercise cap.

        Scheduling-neutral flag hygiene: :meth:`pick` already filters
        its favored pool to ``exercised < EXERCISE_CAP``, so clearing
        the stale flag changes no draw — it keeps ``favored`` honest
        for reports that read it directly.
        """
        for entry in self.entries:
            if entry.favored and entry.exercised >= EXERCISE_CAP:
                entry.favored = False

    def pick(self, rng: Rng) -> QueueEntry:
        """Select the next entry to mutate."""
        if not self.entries:
            raise RuntimeError("empty seed queue")
        favored = [e for e in self.entries
                   if e.favored and e.exercised < EXERCISE_CAP]
        pool = favored if favored and rng.chance(0.75) else self.entries
        entry = rng.choice(pool)
        entry.exercised += 1
        return entry

    def pick_other(self, rng: Rng, entry: QueueEntry) -> QueueEntry:
        """A second, *different* entry (splice partner); equals *entry*
        only when the queue has a single element.

        The bounded retry loop always consumes exactly 0 or 4 draws
        more than a hit needs — keeping draw counts (and therefore
        campaign fingerprints) stable — but when all four draws land on
        *entry* the fallback is the deterministic successor in queue
        order rather than a degenerate self-splice.
        """
        if len(self.entries) == 1:
            return entry
        for _ in range(4):
            other = rng.choice(self.entries)
            if other is not entry:
                return other
        idx = self.entries.index(entry)
        return self.entries[(idx + 1) % len(self.entries)]

    def __len__(self) -> int:
        return len(self.entries)
