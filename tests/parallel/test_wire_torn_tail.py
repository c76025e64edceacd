"""Property tests for protocol-v2 torn-tail detection and healing.

The exporter's crash-recovery contract (DESIGN.md §10, reused verbatim
by the federation relay): after *any* truncation of ``queue.bin`` or
``queue.idx`` at an arbitrary byte offset,

* :func:`tail_intact` notices the damage (O(1), before appending more);
* consumers reading the damaged files in the meantime never see a
  corrupt record — every manifest entry either yields the exact
  original blob or ``None`` (CRC mismatch, skipped and retried later);
* :func:`rewrite_records` from the live queue heals both files so the
  full record set reads back bit for bit — zero record loss.

Hypothesis drives the record shapes and the cut offsets; the exporter
model mirrors ``SyncDirectory._export_v2`` (count + byte bookkeeping,
``tail_intact`` check, rewrite on damage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.wire import (
    QUEUE_BIN,
    QUEUE_IDX,
    append_records,
    pack_record,
    parse_record,
    read_manifest,
    read_record_blob,
    rewrite_records,
    tail_intact,
)


@dataclass
class _Entry:
    """The minimal queue-entry shape :func:`pack_record` serializes."""

    data: bytes
    found_at: int = 0
    new_bits: int = 0
    imported: bool = False
    crashed: bool = False
    anomaly: bool = False
    coverage: tuple = field(default_factory=tuple)


entry_strategy = st.builds(
    _Entry,
    data=st.binary(min_size=1, max_size=64),
    found_at=st.integers(min_value=0, max_value=2**20),
    new_bits=st.integers(min_value=0, max_value=255),
    imported=st.booleans(),
    crashed=st.booleans(),
    coverage=st.lists(
        st.tuples(st.integers(min_value=0, max_value=0xFFFF),
                  st.integers(min_value=0, max_value=7)),
        max_size=8).map(lambda pairs: tuple(sorted(set(pairs)))),
)

corpus_strategy = st.lists(entry_strategy, min_size=1, max_size=8)
# A fraction in [0, 1) mapped onto each file's byte length, so cuts
# land anywhere: mid-header, mid-data, on a record boundary, at zero.
cut_strategy = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def _blobs(entries):
    return [pack_record(i, e) for i, e in enumerate(entries)]


def _truncate(path, fraction):
    size = path.stat().st_size
    keep = int(size * fraction)
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return size - keep


def _read_all(queue_dir):
    """Every CRC-valid record the manifest currently exposes."""
    out = []
    bin_path = queue_dir / QUEUE_BIN
    if not bin_path.exists():
        return [None for _ in read_manifest(queue_dir)]
    with open(bin_path, "rb") as handle:
        for offset, length, crc in read_manifest(queue_dir):
            out.append(read_record_blob(handle, offset, length, crc))
    return out


class TestTornTailHealing:
    @given(corpus=corpus_strategy, bin_cut=cut_strategy,
           idx_cut=cut_strategy, cut_bin=st.booleans(),
           cut_idx=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_truncation_is_detected_and_healed_without_loss(
            self, tmp_path_factory, corpus, bin_cut, idx_cut,
            cut_bin, cut_idx):
        queue_dir = tmp_path_factory.mktemp("queue")
        blobs = _blobs(corpus)
        appended = append_records(queue_dir, blobs)
        assert tail_intact(queue_dir, len(blobs), appended)

        lost = 0
        if cut_bin:
            lost += _truncate(queue_dir / QUEUE_BIN, bin_cut)
        if cut_idx:
            lost += _truncate(queue_dir / QUEUE_IDX, idx_cut)

        # 1. Detection: any actual byte loss breaks the O(1) tail check.
        if lost:
            assert not tail_intact(queue_dir, len(blobs), appended)

        # 2. Mid-damage consumers: every manifest entry yields the
        #    original blob or None — never a different, corrupt record.
        for i, blob in enumerate(_read_all(queue_dir)):
            assert blob is None or blob == blobs[i]

        # 3. Healing: a rewrite from the live queue restores everything.
        healed = rewrite_records(queue_dir, blobs)
        assert healed == sum(len(b) for b in blobs)
        assert tail_intact(queue_dir, len(blobs), healed)
        assert _read_all(queue_dir) == blobs
        for i, blob in enumerate(blobs):
            record = parse_record(blob)
            assert record is not None
            assert record.index == i
            assert record.data == corpus[i].data

    @given(corpus=corpus_strategy, idx_cut=cut_strategy)
    @settings(max_examples=40, deadline=None)
    def test_torn_manifest_tail_hides_only_the_tail(
            self, tmp_path_factory, corpus, idx_cut):
        """With queue.bin intact, a torn queue.idx only *hides* trailing
        records — every record the manifest still exposes reads back
        exactly (the importer's no-corruption guarantee)."""
        queue_dir = tmp_path_factory.mktemp("queue")
        blobs = _blobs(corpus)
        append_records(queue_dir, blobs)
        _truncate(queue_dir / QUEUE_IDX, idx_cut)

        manifest = read_manifest(queue_dir)
        assert len(manifest) <= len(blobs)
        visible = _read_all(queue_dir)
        assert visible == blobs[:len(manifest)]

    @given(corpus=corpus_strategy)
    @settings(max_examples=25, deadline=None)
    def test_incremental_appends_keep_the_tail_intact(
            self, tmp_path_factory, corpus):
        """The undamaged path: append one export at a time, checking the
        exporter's (records, bytes) bookkeeping after each round."""
        queue_dir = tmp_path_factory.mktemp("queue")
        blobs = _blobs(corpus)
        written = 0
        total = 0
        for blob in blobs:
            assert tail_intact(queue_dir, written, total)
            total += append_records(queue_dir, [blob])
            written += 1
        assert tail_intact(queue_dir, written, total)
        assert _read_all(queue_dir) == blobs

    @given(corpus=corpus_strategy,
           garbage=st.binary(min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_garbage_tail_fails_crc_not_parse(
            self, tmp_path_factory, corpus, garbage):
        """Overwriting the last record's bytes (not just truncating)
        breaks its CRC: tail_intact flags it and the consumer skips it."""
        queue_dir = tmp_path_factory.mktemp("queue")
        blobs = _blobs(corpus)
        appended = append_records(queue_dir, blobs)
        offset, length, crc = read_manifest(queue_dir)[-1]
        original = blobs[-1]
        with open(queue_dir / QUEUE_BIN, "r+b") as handle:
            handle.seek(offset)
            handle.write(garbage[:length])
        with open(queue_dir / QUEUE_BIN, "rb") as handle:
            damaged = read_record_blob(handle, offset, length, crc)
        # Either the overwrite happened to be a no-op (same bytes) or
        # the CRC catches it; a *different* blob must never come back.
        assert damaged is None or damaged == original
        if damaged is None:
            assert not tail_intact(queue_dir, len(blobs), appended)
