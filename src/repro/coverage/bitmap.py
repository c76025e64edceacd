"""AFL-style edge-coverage bitmap.

The agent maps hypervisor traces onto "a shared memory bitmap monitored
by AFL++ to guide mutation" (paper §4.1). We reproduce the classic AFL
scheme: 64 KiB of per-edge hit counters, bucketed into power-of-two
classes, with a persistent *virgin map* deciding whether a run found new
behaviour.

The hot loops are vectorized the way AFL itself treats the map as words,
not bytes: classification is a single ``bytes.translate`` over a
precomputed 256-entry table, population counts use ``bytes.count(0)``,
and the dense-run path of :meth:`VirginMap.has_new_bits` compares whole
maps as big integers before falling back to the per-cell loop.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Iterable

MAP_SIZE = 1 << 16

#: The directory holding the ``repro`` package (``src/`` in a checkout).
#: Line ids and coverage digests name source files relative to it, so a
#: seed gives the same bitmap cells and digests from any checkout.
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: AFL's count-class buckets: a hit count maps to one bit of the byte.
_BUCKETS = ((1, 1), (2, 2), (3, 4), (4, 8), (8, 16), (16, 32), (32, 64),
            (128, 128))


def classify_count(count: int) -> int:
    """Map a raw hit count to its AFL count-class bit."""
    if count == 0:
        return 0
    for threshold, bucket in _BUCKETS:
        if count <= threshold:
            return bucket
    return 128


#: ``classify_count`` for every possible byte, so a whole map classifies
#: in one C-level ``bytes.translate`` instead of 64 Ki Python calls.
_CLASS_TABLE = bytes(classify_count(count) for count in range(256))

#: Runs touching at least this many cells take the big-int comparison
#: path in :meth:`VirginMap.has_new_bits` before the per-cell loop.
_DENSE_TOUCHED = 2048


def edge_index(prev_id: int, cur_id: int) -> int:
    """AFL edge hash: ``(prev >> 1) ^ cur`` folded into the map."""
    return ((prev_id >> 1) ^ cur_id) & (MAP_SIZE - 1)


def package_relative(filename: str) -> str:
    """*filename* relative to :data:`PACKAGE_PARENT`, ``/``-separated
    (``repro/hypervisors/kvm/nested_vmx.py``); a path outside it is
    returned unchanged."""
    prefix = PACKAGE_PARENT + os.sep
    if filename.startswith(prefix):
        return filename[len(prefix):].replace(os.sep, "/")
    return filename


def relative_lines(lines: Iterable[tuple[str, int]]) -> list[tuple[str, int]]:
    """Sorted ``(package-relative path, line)`` pairs: the
    checkout-independent form of a covered-line set, for digests."""
    return sorted((package_relative(path), line) for path, line in lines)


@lru_cache(maxsize=65536)
def stable_line_id(filename: str, lineno: int) -> int:
    """Deterministic 16-bit id for a source location.

    ``hash()`` is randomized per interpreter run; campaigns must be
    reproducible, so we use a small FNV-1a over the location string
    ``"repro/.../file.py:LINE"`` (see :func:`package_relative`), which
    does not depend on where the checkout lives.
    """
    h = 0x811C9DC5
    for byte in f"{package_relative(filename)}:{lineno}".encode():
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h & (MAP_SIZE - 1)


class _EdgeCells(dict):
    """Bitmap cell of every packed kcov edge key seen so far.

    Line ids are fixed per process and the distinct edges are bounded by
    the instrumented code, so each edge's cell is derived once, on its
    first miss, and is one dict lookup from then on: :func:`edge_index`
    over the two lines' :func:`stable_line_id`.
    """

    def __missing__(self, key: int) -> int:
        from repro.coverage import kcov

        prev, cur = kcov.split_edge(key)
        cell = self[key] = edge_index(stable_line_id(*kcov.line_of(prev)),
                                      stable_line_id(*kcov.line_of(cur)))
        return cell


_EDGE_CELLS = _EdgeCells()


class CoverageBitmap:
    """One run's edge-hit bitmap."""

    def __init__(self) -> None:
        self.counts = bytearray(MAP_SIZE)
        self.touched: set[int] = set()

    def record_edge(self, prev_id: int, cur_id: int) -> None:
        """Count one traversal of the (prev, cur) edge."""
        idx = edge_index(prev_id, cur_id)
        if self.counts[idx] < 255:
            self.counts[idx] += 1
        self.touched.add(idx)

    def record_trace(self, edges) -> None:
        """Count one traversal of each packed kcov edge key.

        *edges* is the edge set :meth:`KcovTracer.drain` returns. Two
        distinct edges that share a cell count two in it.
        """
        idxs = list(map(_EDGE_CELLS.__getitem__, edges))
        counts = self.counts
        touched = self.touched
        if not touched:
            # A reset map, the agent's case: unless two edges share a
            # cell, every count is one.
            touched.update(idxs)
            if len(touched) == len(idxs):
                for idx in idxs:
                    counts[idx] = 1
                return
            touched.clear()
        for idx in idxs:
            if counts[idx] < 255:
                counts[idx] += 1
        touched.update(idxs)

    def classified(self) -> bytes:
        """The bucketed bitmap, as AFL would compare it."""
        return bytes(self.counts).translate(_CLASS_TABLE)

    def sparse_classified(self) -> tuple[tuple[int, int], ...]:
        """The touched cells as sorted ``(cell, class-bit)`` pairs.

        This is the wire representation the corpus sync format ships with
        every exported entry: a few dozen pairs instead of a 64 KiB map,
        enough for a partner to test subsumption against its own virgin
        map without executing the entry.
        """
        counts = self.counts
        table = _CLASS_TABLE
        return tuple(sorted((idx, table[counts[idx]])
                            for idx in self.touched if counts[idx]))

    def reset(self) -> None:
        """Clear recorded state (touched cells only — O(edges), not O(map))."""
        counts = self.counts
        for idx in self.touched:
            counts[idx] = 0
        self.touched.clear()

    def count_nonzero(self) -> int:
        """Number of map cells with at least one hit."""
        return MAP_SIZE - self.counts.count(0)


class VirginMap:
    """Cumulative map of behaviour already seen (AFL's virgin_bits)."""

    def __init__(self) -> None:
        self.bits = bytearray(MAP_SIZE)  # accumulated classified bits

    def has_new_bits(self, run: CoverageBitmap) -> int:
        """Merge *run* into the map.

        Returns 2 for brand-new edges, 1 for new count buckets on known
        edges, 0 for nothing new — the same tri-state AFL uses to decide
        whether an input is interesting. Dense runs first compare whole
        maps as big integers: one C-level AND/NOT proves "nothing new"
        without visiting thousands of cells individually.
        """
        counts = run.counts
        bits = self.bits
        if len(run.touched) >= _DENSE_TOUCHED:
            mine = int.from_bytes(bits, "little")
            theirs = int.from_bytes(run.classified(), "little")
            if theirs & ~mine == 0:
                return 0
        ret = 0
        table = _CLASS_TABLE
        for idx in run.touched:
            count = counts[idx]
            if not count:
                continue
            cls = table[count]
            old = bits[idx]
            if cls & ~old:
                ret = 2 if old == 0 else max(ret, 1)
                bits[idx] = old | cls
        return ret

    def subsumes(self, coverage: Iterable[tuple[int, int]]) -> bool:
        """Would this sparse ``(cell, class-bit)`` coverage find nothing new?

        The import-filter predicate of corpus sync: a partner
        entry whose recorded coverage is already fully present here
        cannot contribute virgin bits and need not be executed.
        """
        bits = self.bits
        for idx, cls in coverage:
            if cls & ~bits[idx]:
                return False
        return True

    def snapshot(self) -> bytes:
        """Immutable copy of the accumulated bits (checkpoint payload)."""
        return bytes(self.bits)

    def restore(self, bits: bytes) -> None:
        """Overwrite the map from a :meth:`snapshot` payload."""
        if len(bits) != MAP_SIZE:
            raise ValueError(
                f"virgin-map snapshot is {len(bits)} bytes, "
                f"expected {MAP_SIZE}")
        self.bits = bytearray(bits)

    def merge_from(self, other: "VirginMap") -> bool:
        """OR another virgin map into this one (parallel-campaign merge).

        Returns whether anything changed. An all-zero *other* — a worker
        that found nothing since the last merge — is detected with one
        ``count(0)`` scan and skipped before the two 64 KiB big-int
        conversions are paid.
        """
        if other.bits.count(0) == MAP_SIZE:
            return False
        return self.merge_bits(bytes(other.bits))

    def merge_bits(self, bits: bytes) -> bool:
        """OR a raw :meth:`snapshot` payload in; returns whether changed."""
        if len(bits) != MAP_SIZE:
            raise ValueError(
                f"virgin-map payload is {len(bits)} bytes, "
                f"expected {MAP_SIZE}")
        mine = int.from_bytes(self.bits, "little")
        merged = mine | int.from_bytes(bits, "little")
        if merged == mine:
            return False
        self.bits = bytearray(merged.to_bytes(MAP_SIZE, "little"))
        return True

    def density(self) -> float:
        """Fraction of map bytes touched (AFL's map density)."""
        return (MAP_SIZE - self.bits.count(0)) / MAP_SIZE
