"""Corpus protocol v2 wire-format tests: records, manifest, healing."""

import zlib
from types import SimpleNamespace

import pytest

from repro.fuzzer.engine import FuzzEngine, RunFeedback
from repro.fuzzer.input import INPUT_SIZE
from repro.fuzzer.queue import QueueEntry
from repro.fuzzer.rng import Rng
from repro.coverage.bitmap import CoverageBitmap, VirginMap
from repro.parallel import wire
from repro.parallel.sync import record_subsumed


def entry(data=b"x" * INPUT_SIZE, found_at=3, new_bits=2, **kw):
    return QueueEntry(data=data, found_at=found_at, new_bits=new_bits, **kw)


class TestRecordRoundTrip:
    def test_plain_entry(self):
        blob = wire.pack_record(0, entry())
        record = wire.parse_record(blob)
        assert record is not None
        assert record.data == b"x" * INPUT_SIZE
        assert record.found_at == 3
        assert record.new_bits == 2
        assert not record.seed and not record.imported
        assert not record.crashed and not record.anomaly
        assert record.coverage is None and record.lines is None

    def test_seed_flag(self):
        record = wire.parse_record(
            wire.pack_record(0, entry(found_at=0, new_bits=0)))
        assert record.seed

    def test_coverage_and_flags(self):
        coverage = ((7, 1), (500, 128))
        blob = wire.pack_record(
            4, entry(coverage=coverage, crashed=True, anomaly=True,
                     imported=True))
        record = wire.parse_record(blob)
        assert record.coverage == coverage
        assert record.crashed and record.anomaly and record.imported
        assert record.index == 4

    def test_lines_round_trip_through_codec(self):
        universe = [("a.py", 1), ("a.py", 2), ("b.py", 9)]
        codec = wire.LineCodec(universe)
        lines = frozenset({("a.py", 2), ("b.py", 9)})
        blob = wire.pack_record(0, entry(coverage=(), lines=lines),
                                codec=codec)
        record = wire.parse_record(blob, codec)
        assert record.lines == lines

    def test_unencodable_lines_degrade_to_none(self):
        codec = wire.LineCodec([("a.py", 1)])
        lines = frozenset({("other.py", 99)})  # outside the universe
        blob = wire.pack_record(0, entry(coverage=(), lines=lines),
                                codec=codec)
        record = wire.parse_record(blob, codec)
        assert record.lines is None  # entry will be executed, never skipped
        assert record.coverage == ()

    def test_bad_magic_rejected(self):
        blob = wire.pack_record(0, entry())
        assert wire.parse_record(b"XXXX" + blob[4:]) is None

    def test_truncated_rejected(self):
        blob = wire.pack_record(0, entry())
        assert wire.parse_record(blob[:-1]) is None
        assert wire.parse_record(blob[: wire.RECORD_HEADER.size - 1]) is None

    def test_coverage_digest_mismatch_rejected(self):
        blob = bytearray(wire.pack_record(0, entry(coverage=((7, 1),))))
        blob[-1] ^= 0xFF  # flip a coverage cell byte
        assert wire.parse_record(bytes(blob)) is None


class TestLineCodec:
    def test_identical_universe_identical_indices(self):
        lines = [("m.py", i) for i in range(50)]
        a = wire.LineCodec(reversed(lines))
        b = wire.LineCodec(lines)
        payload = a.encode(frozenset(lines[10:20]))
        assert payload == b.encode(frozenset(lines[10:20]))
        assert b.decode(payload) == frozenset(lines[10:20])

    def test_foreign_index_decodes_to_none(self):
        small = wire.LineCodec([("m.py", 1)])
        big = wire.LineCodec([("m.py", i) for i in range(5)])
        payload = big.encode(frozenset({("m.py", 4)}))
        assert small.decode(payload) is None


UNIVERSE = [("a.py", i) for i in range(1, 6)]


def covered_entry(**kw):
    kw.setdefault("coverage", ((7, 1), (500, 128)))
    kw.setdefault("lines", frozenset({("a.py", 2), ("a.py", 5)}))
    return entry(**kw)


class TestRecordFilterGates:
    """What a decoded record must carry before the subsumption filter
    may absorb it unexecuted, and the malformed shapes that never
    decode at all."""

    @staticmethod
    def _subsumed(entry_, codec=None) -> bool:
        virgin = VirginMap()
        virgin.bits[7] |= 1
        virgin.bits[500] |= 128
        record = wire.parse_record(wire.pack_record(0, entry_, codec), codec)
        return record_subsumed(SimpleNamespace(virgin=virgin), record)

    def test_covered_record_with_lines_is_absorbable(self):
        assert self._subsumed(covered_entry(imported=True),
                              wire.LineCodec(UNIVERSE))

    @pytest.mark.parametrize("flag", ["crashed", "anomaly"])
    def test_crashing_or_anomalous_records_always_execute(self, flag):
        assert not self._subsumed(covered_entry(**{flag: True}),
                                  wire.LineCodec(UNIVERSE))

    def test_record_without_coverage_executes(self):
        assert not self._subsumed(covered_entry(coverage=None),
                                  wire.LineCodec(UNIVERSE))

    def test_record_without_lines_executes(self):
        assert not self._subsumed(covered_entry())  # no codec: no lines

    def test_empty_coverage_is_still_shipped_coverage(self):
        assert self._subsumed(covered_entry(coverage=()),
                              wire.LineCodec(UNIVERSE))

    @staticmethod
    def _mangled(shape: str) -> bytes:
        blob = bytearray(wire.pack_record(
            0, covered_entry(), wire.LineCodec(UNIVERSE)))
        if shape == "short":
            return bytes(blob[:wire.RECORD_HEADER.size - 1])
        if shape == "magic":
            blob[:4] = b"XXXX"
        elif shape == "extra_byte":
            blob.append(0)
        elif shape == "truncated":
            del blob[-1]
        elif shape == "digest":
            # Flip a coverage cell byte: the header digest no longer fits.
            blob[wire.RECORD_HEADER.size + INPUT_SIZE] ^= 0xFF
        elif shape == "empty_data":
            return wire.pack_record(0, covered_entry(data=b""))
        return bytes(blob)

    @pytest.mark.parametrize("shape", ["short", "magic", "extra_byte",
                                       "truncated", "digest", "empty_data"])
    def test_malformed_record_does_not_parse(self, shape):
        blob = self._mangled(shape)
        assert wire.parse_record(blob) is None
        assert wire.parse_record(blob, wire.LineCodec(UNIVERSE)) is None


class TestManifestFiles:
    def test_append_then_read(self, tmp_path):
        blobs = [wire.pack_record(i, entry()) for i in range(3)]
        wire.append_records(tmp_path, blobs[:2])
        wire.append_records(tmp_path, blobs[2:])
        manifest = wire.read_manifest(tmp_path)
        assert len(manifest) == 3
        with open(tmp_path / wire.QUEUE_BIN, "rb") as f:
            for (offset, length, crc), blob in zip(manifest, blobs):
                assert wire.read_record_blob(f, offset, length, crc) == blob

    def test_torn_manifest_tail_ignored(self, tmp_path):
        wire.append_records(tmp_path, [wire.pack_record(0, entry())])
        with open(tmp_path / wire.QUEUE_IDX, "ab") as f:
            f.write(b"\x01\x02\x03")  # partial 16-byte record
        assert len(wire.read_manifest(tmp_path)) == 1

    def test_tail_intact_detects_all_corruption_shapes(self, tmp_path):
        blobs = [wire.pack_record(i, entry()) for i in range(2)]
        total = wire.append_records(tmp_path, blobs)
        assert wire.tail_intact(tmp_path, 2, total)
        # Truncation: queue.bin size changes.
        bin_path = tmp_path / wire.QUEUE_BIN
        raw = bin_path.read_bytes()
        bin_path.write_bytes(raw[:-17])
        assert not wire.tail_intact(tmp_path, 2, total)
        # Garbage in the last record: size intact, CRC broken.
        bin_path.write_bytes(raw[:-17] + b"\xa5" * 17)
        assert not wire.tail_intact(tmp_path, 2, total)
        # Heal restores the invariant.
        rebuilt = wire.rewrite_records(tmp_path, blobs)
        assert rebuilt == total
        assert wire.tail_intact(tmp_path, 2, total)

    def test_empty_dir_is_intact_at_zero(self, tmp_path):
        assert wire.tail_intact(tmp_path, 0, 0)
        assert not wire.tail_intact(tmp_path, 1, 100)


class TestRecordCrc:
    """Manifest CRCs are plain ``zlib.crc32`` over each record's bytes."""

    def _blobs(self):
        return [wire.pack_record(i, covered_entry(found_at=i))
                for i in range(3)]

    @pytest.mark.parametrize("writer", ["append", "rewrite"])
    def test_manifest_crc_is_zlib_crc32_of_the_record(self, tmp_path,
                                                      writer):
        blobs = self._blobs()
        if writer == "append":
            wire.append_records(tmp_path, blobs)
        else:
            wire.rewrite_records(tmp_path, blobs)
        raw = (tmp_path / wire.QUEUE_BIN).read_bytes()
        for blob, (offset, length, crc) in zip(blobs,
                                               wire.read_manifest(tmp_path)):
            assert raw[offset:offset + length] == blob
            assert crc == zlib.crc32(blob)

    @pytest.mark.parametrize("shape", ["intact", "crc", "long", "offset"])
    def test_read_record_blob_checks_length_and_crc(self, tmp_path, shape):
        blobs = self._blobs()
        wire.append_records(tmp_path, blobs)
        offset, length, crc = wire.read_manifest(tmp_path)[1]
        if shape == "crc":
            crc ^= 1
        elif shape == "long":
            length = 10 * length
        elif shape == "offset":
            offset = (tmp_path / wire.QUEUE_BIN).stat().st_size
        with open(tmp_path / wire.QUEUE_BIN, "rb") as handle:
            blob = wire.read_record_blob(handle, offset, length, crc)
        assert blob == (blobs[1] if shape == "intact" else None)


class TestLineCodecEncoding:
    def test_line_outside_the_universe_is_unencodable(self):
        codec = wire.LineCodec(UNIVERSE)
        assert codec.encode({("a.py", 1), ("b.py", 1)}) is None

    def test_encoding_is_sorted_whatever_the_iteration_order(self):
        codec = wire.LineCodec(UNIVERSE)
        assert (codec.encode([("a.py", 5), ("a.py", 1)])
                == codec.encode([("a.py", 1), ("a.py", 5)]))

    def test_empty_payload_decodes_to_no_lines(self):
        assert wire.LineCodec(UNIVERSE).decode(b"") == frozenset()

    def test_same_universe_in_any_order_decodes_alike(self):
        lines = frozenset({("a.py", 2), ("a.py", 4)})
        payload = wire.LineCodec(UNIVERSE).encode(lines)
        assert wire.LineCodec(reversed(UNIVERSE)).decode(payload) == lines


def data_edge_execute(fi):
    """Deterministic bitmap derived from the input bytes alone."""
    bitmap = CoverageBitmap()
    bitmap.record_edge(fi.data[0], fi.data[1])
    return RunFeedback(bitmap=bitmap)


def seeded_engine(seed=5):
    engine = FuzzEngine(execute=data_edge_execute, rng=Rng(seed))
    engine.add_seed(bytes(INPUT_SIZE))
    engine.run(6)
    return engine


class TestBinaryLegacyEquivalence:
    """The same corpus through both formats yields the same engine state."""

    def test_wire_records_carry_save_corpus_payloads(self, tmp_path):
        engine = seeded_engine()
        legacy_dir = tmp_path / "legacy"
        engine.save_corpus(legacy_dir)
        legacy = [p.read_bytes() for p in sorted(legacy_dir.iterdir())]

        blobs = [wire.pack_record(i, e)
                 for i, e in enumerate(engine.queue.entries)]
        binary = [wire.parse_record(b).data for b in blobs]
        assert binary == legacy

    def test_import_paths_agree(self):
        source = seeded_engine()
        a = FuzzEngine(execute=data_edge_execute, rng=Rng(9))
        b = FuzzEngine(execute=data_edge_execute, rng=Rng(9))
        for i, e in enumerate(source.queue.entries):
            a.import_packed(wire.parse_record(wire.pack_record(i, e)))
            b.import_case(e.data)
        assert a.stats.imported == b.stats.imported
        assert bytes(a.virgin.bits) == bytes(b.virgin.bits)
        assert ([e.data for e in a.queue.entries]
                == [e.data for e in b.queue.entries])


class TestJsonReproducersStillDecode:
    """The legacy JSON path survives: crash reproducers import fine."""

    def test_json_reproducer_imports(self):
        import json

        engine = FuzzEngine(execute=data_edge_execute, rng=Rng(2))
        payload = json.dumps(
            {"input": (b"\x41" * INPUT_SIZE).hex()}).encode()
        assert engine.import_case(payload) is not None
        assert engine.stats.import_skipped == 0

    def test_corrupt_json_counted(self):
        engine = FuzzEngine(execute=data_edge_execute, rng=Rng(2))
        assert engine.import_case(b'{"input": not-json') is None
        assert engine.stats.import_skipped == 1
