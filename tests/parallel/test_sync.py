"""Corpus-sync protocol tests (export / incremental import / corruption).

Behavioural tests cover what a campaign can observe of the wire
format; further classes cover the on-disk layout and the per-record
subsumption filter.
"""

import json
import re
import struct
import zlib
from dataclasses import fields

import pytest

from repro import faults
from repro.coverage.bitmap import CoverageBitmap
from repro.faults import FaultPlan, FaultSpec
from repro.fuzzer.engine import FuzzEngine, RunFeedback
from repro.fuzzer.input import INPUT_SIZE
from repro.fuzzer.rng import Rng
from repro.parallel.sync import SyncDirectory, SyncStats, worker_queue_dir
from repro.parallel.wire import QUEUE_BIN, QUEUE_IDX, LineCodec, read_manifest
from tests.reference import execute_every_import


def novel_execute():
    counter = {"n": 0}

    def execute(fi):
        counter["n"] += 1
        bitmap = CoverageBitmap()
        bitmap.record_edge(counter["n"] * 64, counter["n"] * 64 + 1)
        return RunFeedback(bitmap=bitmap)

    return execute


def make_engine(seed=1, execute=None):
    engine = FuzzEngine(execute=execute or novel_execute(), rng=Rng(seed))
    engine.add_seed(bytes(INPUT_SIZE))
    return engine


def make_sync(root, worker, total_workers=2):
    return SyncDirectory(root, worker=worker, total_workers=total_workers)


class TestSyncDirectory:
    def test_export_covers_the_whole_local_queue(self, tmp_path):
        engine = make_engine()
        engine.run(4)
        sync = make_sync(tmp_path, 0)
        assert sync.export(engine) == len(engine.queue)

    def test_import_new_executes_partner_entries(self, tmp_path):
        producer = make_engine(seed=1)
        producer.run(3)
        make_sync(tmp_path, 1).export(producer)

        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0)
        imported = sync.import_new(consumer)
        assert imported == len(producer.queue)
        assert consumer.stats.imported == imported

    def test_import_is_incremental(self, tmp_path):
        producer = make_engine(seed=1)
        producer.run(2)
        producer_sync = make_sync(tmp_path, 1)
        producer_sync.export(producer)

        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0)
        first = sync.import_new(consumer)
        assert sync.import_new(consumer) == 0  # nothing new yet
        producer.run(2)
        producer_sync.export(producer)
        second = sync.import_new(consumer)
        assert first > 0 and second == 2  # only the fresh entries

    def test_imported_entries_not_reexported(self, tmp_path):
        producer = make_engine(seed=1)
        producer.run(3)
        make_sync(tmp_path, 1).export(producer)

        consumer = make_engine(seed=2)
        consumer.run(1)
        sync = make_sync(tmp_path, 0)
        sync.import_new(consumer)
        local = sum(1 for e in consumer.queue.entries if not e.imported)
        assert sync.export(consumer) == local
        assert local < len(consumer.queue)  # some imports did join the queue

    def test_own_directory_never_imported(self, tmp_path):
        engine = make_engine()
        engine.run(2)
        sync = make_sync(tmp_path, 0)
        sync.export(engine)
        assert sync.import_new(engine) == 0


class TestV2Layout:
    """On-disk shape: two files, append-only growth."""

    def test_exactly_two_files(self, tmp_path):
        engine = make_engine()
        engine.run(4)
        make_sync(tmp_path, 0).export(engine)
        names = {p.name for p in worker_queue_dir(tmp_path, 0).iterdir()}
        assert names == {QUEUE_BIN, QUEUE_IDX}

    def test_reexport_appends_instead_of_rewriting(self, tmp_path):
        engine = make_engine()
        engine.run(3)
        sync = make_sync(tmp_path, 0)
        sync.export(engine)
        queue_dir = worker_queue_dir(tmp_path, 0)
        first_size = (queue_dir / QUEUE_BIN).stat().st_size
        first_head = (queue_dir / QUEUE_BIN).read_bytes()

        engine.run(3)
        sync.export(engine)
        grown = (queue_dir / QUEUE_BIN).read_bytes()
        assert len(grown) > first_size
        # Append-only: the old region is byte-identical, not rewritten.
        assert grown[:first_size] == first_head

    def test_noop_export_writes_nothing(self, tmp_path):
        engine = make_engine()
        engine.run(3)
        sync = make_sync(tmp_path, 0)
        sync.export(engine)
        queue_dir = worker_queue_dir(tmp_path, 0)
        before = ((queue_dir / QUEUE_BIN).stat().st_mtime_ns,
                  (queue_dir / QUEUE_IDX).stat().st_size)
        sync.export(engine)  # no new entries since the last round
        after = ((queue_dir / QUEUE_BIN).stat().st_mtime_ns,
                 (queue_dir / QUEUE_IDX).stat().st_size)
        assert after == before


class TestSubsumptionFilter:
    """Imports whose coverage is already known are not executed."""

    LINE = ("nested.py", 7)

    def _constant_edge_execute(self, executions):
        def execute(fi):
            executions.append(fi)
            bitmap = CoverageBitmap()
            bitmap.record_edge(64, 65)  # every case hits the same cell
            return RunFeedback(bitmap=bitmap, lines=frozenset({self.LINE}))

        return execute

    def test_subsumed_imports_skip_execution(self, tmp_path):
        codec = LineCodec([self.LINE])
        producer = make_engine(seed=1,
                               execute=self._constant_edge_execute([]))
        producer.run(5)
        make_sync(tmp_path, 1).export(producer, codec=codec)

        executions = []
        consumer = make_engine(seed=2,
                               execute=self._constant_edge_execute(executions))
        consumer.run(1)  # the local run already lit the shared cell
        baseline = len(executions)
        absorbed = []
        sync = make_sync(tmp_path, 0)
        imported = sync.import_new(consumer, codec=codec,
                                   absorb_lines=absorbed.extend)
        queued = [e for e in producer.queue.entries if e.coverage is not None]
        assert imported == len(producer.queue)
        assert consumer.stats.imported == imported
        # Every coverage-carrying entry was subsumed: zero executions.
        assert consumer.stats.imports_skipped_subsumed == len(queued)
        assert len(executions) == baseline + (imported - len(queued))
        assert self.LINE in absorbed

    def test_novel_coverage_still_executes(self, tmp_path):
        codec = LineCodec([self.LINE])
        producer = make_engine(seed=1)  # novel edge per case
        producer.run(3)
        make_sync(tmp_path, 1).export(producer)

        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0)
        imported = sync.import_new(consumer, codec=codec)
        assert imported == len(producer.queue)
        assert consumer.stats.imports_skipped_subsumed == 0

    def test_reference_executes_every_import(self, tmp_path):
        codec = LineCodec([self.LINE])
        producer = make_engine(seed=1,
                               execute=self._constant_edge_execute([]))
        producer.run(5)
        make_sync(tmp_path, 1).export(producer, codec=codec)

        executions = []
        consumer = make_engine(seed=2,
                               execute=self._constant_edge_execute(executions))
        consumer.run(1)
        baseline = len(executions)
        sync = make_sync(tmp_path, 0)
        with execute_every_import():
            imported = sync.import_new(consumer, codec=codec)
        assert imported == len(producer.queue)
        assert consumer.stats.imports_skipped_subsumed == 0
        assert len(executions) == baseline + imported

    def test_overhead_phases_are_accounted(self, tmp_path):
        producer = make_engine(seed=1)
        producer.run(3)
        producer_sync = make_sync(tmp_path, 1)
        producer_sync.export(producer)
        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0)
        sync.import_new(consumer)
        assert producer_sync.stats.export_seconds > 0
        assert producer_sync.stats.entries_exported == len(producer.queue)
        assert sync.stats.scan_seconds > 0
        assert sync.stats.execute_seconds > 0
        assert sync.stats.entries_scanned == len(producer.queue)


class TestPhaseTimersSurviveFailures:
    """Regression: phase timers are charged through ``finally``.

    The old ``stats.x += perf_counter() - started`` accounting silently
    dropped any phase that raised partway through, so a corrupt-sync
    round (or a real crash mid-import) under-reported sync_overhead.
    Every guarded phase must record its elapsed time even when the
    guarded call blows up — and the matching telemetry span must see
    the identical value.
    """

    def _registry(self, tmp_path):
        from repro import telemetry

        return telemetry.campaign_scope("metrics", tmp_path / "telemetry")

    def test_crc_failed_records_still_charge_scan_time(self, tmp_path):
        producer = make_engine(seed=1)
        producer.run(3)
        producer_sync = make_sync(tmp_path, 1)
        plan = FaultPlan([FaultSpec("corrupt_sync", worker=1, at_export=1,
                                    corrupt="garbage")])
        with faults.injected(plan):
            producer_sync.export(producer)

        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0)
        with self._registry(tmp_path) as registry:
            sync.import_new(consumer)
        assert consumer.stats.import_skipped == 1
        # The corrupt record was scanned, and its scan time counted.
        assert sync.stats.scan_seconds > 0
        assert sync.stats.entries_scanned == len(producer.queue)
        assert registry.span_total("sync.scan") == pytest.approx(
            sync.stats.scan_seconds)

    def test_scan_time_recorded_when_manifest_read_raises(self, tmp_path,
                                                          monkeypatch):
        producer = make_engine(seed=1)
        producer.run(2)
        make_sync(tmp_path, 1).export(producer)

        import repro.parallel.sync as sync_mod

        def explode(queue_dir):
            raise RuntimeError("torn manifest")

        monkeypatch.setattr(sync_mod.wire, "read_manifest", explode)
        sync = make_sync(tmp_path, 0)
        with pytest.raises(RuntimeError):
            sync.import_new(make_engine(seed=2))
        assert sync.stats.scan_seconds > 0

    def test_execute_time_recorded_when_import_raises(self, tmp_path):
        producer = make_engine(seed=1)
        producer.run(2)
        make_sync(tmp_path, 1).export(producer)

        consumer = make_engine(seed=2)
        boom = RuntimeError("executor died")

        def explode(*args, **kwargs):
            raise boom

        consumer.import_case = explode
        consumer.import_packed = explode
        sync = make_sync(tmp_path, 0)
        with pytest.raises(RuntimeError):
            sync.import_new(consumer)
        assert sync.stats.execute_seconds > 0

    def test_filter_time_recorded_when_subsumes_raises(self, tmp_path,
                                                       monkeypatch):
        line = ("nested.py", 7)
        codec = LineCodec([line])

        def covered_execute(fi):
            bitmap = CoverageBitmap()
            bitmap.record_edge(64, 65)
            return RunFeedback(bitmap=bitmap, lines=frozenset({line}))

        producer = make_engine(seed=1, execute=covered_execute)
        producer.run(2)
        make_sync(tmp_path, 1).export(producer, codec=codec)

        consumer = make_engine(seed=2, execute=covered_execute)
        monkeypatch.setattr(
            consumer.virgin, "subsumes",
            lambda coverage: (_ for _ in ()).throw(RuntimeError("virgin")))
        sync = make_sync(tmp_path, 0)
        with pytest.raises(RuntimeError):
            sync.import_new(consumer, codec=codec)
        assert sync.stats.filter_seconds > 0

    def test_export_time_recorded_when_export_raises(self, tmp_path,
                                                     monkeypatch):
        engine = make_engine()
        engine.run(2)
        sync = make_sync(tmp_path, 0)
        import repro.parallel.sync as sync_mod

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(sync_mod.wire, "append_records", explode)
        monkeypatch.setattr(sync_mod.wire, "rewrite_records", explode)
        with pytest.raises(OSError):
            sync.export(engine)
        assert sync.stats.export_seconds > 0


class TestSyncCorruption:
    """Injected mid-write corruption: skip, count, heal on re-export."""

    def _corrupted_export(self, tmp_path, mode):
        producer = make_engine(seed=1)
        producer.run(3)
        sync = make_sync(tmp_path, 1)
        plan = FaultPlan([FaultSpec("corrupt_sync", worker=1, at_export=1,
                                    corrupt=mode)])
        with faults.injected(plan):
            sync.export(producer)
        assert plan.exhausted
        return producer, sync

    @pytest.mark.parametrize("mode", ["truncate", "garbage"])
    def test_corrupt_entry_skipped_then_healed(self, tmp_path,
                                               mode):
        producer, producer_sync = self._corrupted_export(tmp_path, mode)
        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0)
        first = sync.import_new(consumer)
        assert first == len(producer.queue) - 1
        assert consumer.stats.import_skipped == 1
        # The owner's next export notices the broken tail and rebuilds
        # both files; the entry was never marked consumed, so it
        # imports now.
        producer_sync.export(producer)
        assert sync.import_new(consumer) == 1
        assert consumer.stats.imported == len(producer.queue)

    def test_corrupt_entry_counted_only_once(self, tmp_path):
        producer, producer_sync = self._corrupted_export(
            tmp_path, "truncate")
        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0)
        sync.import_new(consumer)
        skipped = consumer.stats.import_skipped
        assert skipped == 1
        # A retry round before the heal does not count it again.
        sync.import_new(consumer)
        assert consumer.stats.import_skipped == skipped

    def test_tmp_orphan_never_listed(self, tmp_path):
        producer, _ = self._corrupted_export(tmp_path, "tmp_orphan")
        consumer = make_engine(seed=2)
        sync = make_sync(tmp_path, 0)
        assert sync.import_new(consumer) == len(producer.queue)
        assert consumer.stats.import_skipped == 0
        orphans = list(worker_queue_dir(tmp_path, 1).glob("*.tmp"))
        assert orphans  # the fault really did leave one behind


def legacy_sidecar(engine, codec) -> bytes:
    """A ``coverage.bin`` in the layout older versions wrote next to
    each queue: CRC-sealed, length-prefixed chunks holding JSON
    metadata, an NCD1 full snapshot of the exporter's virgin map, and
    one packed line payload per record a reader could absorb."""
    entries = engine.queue.entries
    flagged = [i for i, e in enumerate(entries)
               if e.coverage is None or e.lines is None
               or e.crashed or e.anomaly]
    meta = {"records": len(entries), "universe": len(codec.universe),
            "flagged": flagged, "generation": 1}
    runs = [(m.start(), m.group())
            for m in re.finditer(rb"[^\x00]+", bytes(engine.virgin.bits))]
    ncd1 = struct.pack("<4sIII", b"NCD1", 0, 1, len(runs)) + b"".join(
        struct.pack("<II", start, len(run)) + run for start, run in runs)
    ncd1 += struct.pack("<I", zlib.crc32(ncd1))
    chunks = [json.dumps(meta, sort_keys=True).encode(), ncd1]
    chunks += [codec.encode(e.lines) for i, e in enumerate(entries)
               if i not in flagged]
    body = b"".join(struct.pack("<I", len(c)) + c for c in chunks)
    return body + struct.pack("<I", zlib.crc32(body))


class TestPerRecordFilter:
    """Every partner record is read and decided on its own: a reader
    whose virgin map already holds a record's coverage absorbs it
    unexecuted, a torn record waits on the retry list, and nothing in
    the queue directory but the two queue files is ever read."""

    LINES = [("nested.py", n) for n in range(1, 9)]

    def _novel_lines_execute(self, executions=None):
        counter = {"n": 0}

        def execute(fi):
            if executions is not None:
                executions.append(fi.data)
            counter["n"] += 1
            bitmap = CoverageBitmap()
            bitmap.record_edge(counter["n"] * 64, counter["n"] * 64 + 1)
            line = self.LINES[counter["n"] % len(self.LINES)]
            return RunFeedback(bitmap=bitmap, lines=frozenset({line}))

        return execute

    def _producer(self, root, codec, runs=3):
        producer = make_engine(seed=1, execute=self._novel_lines_execute())
        producer.run(runs)
        psync = make_sync(root, 1)
        psync.export(producer, codec=codec)
        return producer, psync

    def _caught_up_reader(self, root, codec, producer, executions=None,
                          absorbed=None):
        """A reader that imported the producer's first batch and whose
        map is a superset of the producer's."""
        consumer = make_engine(seed=2,
                               execute=self._novel_lines_execute(executions))
        consumer.virgin.merge_bits(producer.virgin.snapshot())
        sync = make_sync(root, 0)
        extend = absorbed.extend if absorbed is not None else None
        assert sync.import_new(consumer, codec=codec,
                               absorb_lines=extend) > 0
        return consumer, sync

    def test_export_with_a_codec_writes_only_the_queue_files(self, tmp_path):
        codec = LineCodec(self.LINES)
        self._producer(tmp_path, codec)
        names = {p.name for p in worker_queue_dir(tmp_path, 1).iterdir()}
        assert names == {QUEUE_BIN, QUEUE_IDX}

    def test_superset_reader_absorbs_fresh_records_unexecuted(self,
                                                              tmp_path):
        codec = LineCodec(self.LINES)
        producer, psync = self._producer(tmp_path, codec)
        executions, absorbed = [], []
        consumer, sync = self._caught_up_reader(tmp_path, codec, producer,
                                                executions, absorbed)
        producer.run(3)
        psync.export(producer, codec=codec)
        consumer.virgin.merge_bits(producer.virgin.snapshot())
        skipped_before = consumer.stats.imports_skipped_subsumed
        scanned_before = sync.stats.entries_scanned
        executed_before = len(executions)
        assert sync.import_new(consumer, codec=codec,
                               absorb_lines=absorbed.extend) == 3
        assert consumer.stats.imports_skipped_subsumed == skipped_before + 3
        assert sync.stats.entries_scanned == scanned_before + 3
        assert len(executions) == executed_before  # nothing executed
        # Each fresh record's own shipped lines were absorbed.
        for entry in producer.queue.entries[-3:]:
            assert entry.lines <= set(absorbed)
        # The cursor advanced: nothing is left to import.
        assert sync.import_new(consumer, codec=codec) == 0
        assert sync.stats.entries_scanned == scanned_before + 3

    def test_torn_tail_record_waits_then_heals(self, tmp_path):
        codec = LineCodec(self.LINES)
        producer, psync = self._producer(tmp_path, codec)
        consumer, sync = self._caught_up_reader(tmp_path, codec, producer)
        producer.run(3)
        psync.export(producer, codec=codec)
        consumer.virgin.merge_bits(producer.virgin.snapshot())

        # Tear the append tail the way a partner crash would.
        queue_dir = worker_queue_dir(tmp_path, 1)
        offset, _length, _crc = read_manifest(queue_dir)[-1]
        raw = bytearray((queue_dir / QUEUE_BIN).read_bytes())
        original = raw[offset + 5]
        raw[offset + 5] ^= 0xFF
        (queue_dir / QUEUE_BIN).write_bytes(bytes(raw))

        skipped_before = consumer.stats.imports_skipped_subsumed
        assert sync.import_new(consumer, codec=codec) == 2
        assert consumer.stats.import_skipped == 1  # parked for retry
        assert consumer.stats.imports_skipped_subsumed == skipped_before + 2

        # Heal the tail; the parked record is retried and absorbed.
        raw[offset + 5] = original
        (queue_dir / QUEUE_BIN).write_bytes(bytes(raw))
        assert sync.import_new(consumer, codec=codec) == 1
        assert consumer.stats.import_skipped == 1  # counted once
        assert consumer.stats.imports_skipped_subsumed == skipped_before + 3

    def test_stray_legacy_sidecar_is_ignored(self, tmp_path):
        """A ``coverage.bin`` an older version left in a partner's
        queue directory changes nothing: same imports, same sync
        counts, same engine stats as a directory without one."""
        codec = LineCodec(self.LINES)
        outcomes = []
        for root, stray in ((tmp_path / "stray", True),
                            (tmp_path / "clean", False)):
            producer, psync = self._producer(root, codec)
            sidecar = worker_queue_dir(root, 1) / "coverage.bin"
            if stray:
                sidecar.write_bytes(legacy_sidecar(producer, codec))
            absorbed = []
            consumer, sync = self._caught_up_reader(root, codec, producer,
                                                    absorbed=absorbed)
            producer.run(3)
            psync.export(producer, codec=codec)
            if stray:
                sidecar.write_bytes(legacy_sidecar(producer, codec))
            consumer.virgin.merge_bits(producer.virgin.snapshot())
            imported = sync.import_new(consumer, codec=codec,
                                       absorb_lines=absorbed.extend)
            counts = {f.name: getattr(sync.stats, f.name)
                      for f in fields(SyncStats)
                      if not f.name.endswith("_seconds")}
            outcomes.append((imported, counts, consumer.stats,
                             sorted(absorbed), bytes(consumer.virgin.bits)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 3
        assert outcomes[0][1]["batches_delta_rejected"] == 0


    @pytest.mark.parametrize("stray", ["garbage", "empty", "directory"])
    def test_any_stray_sidecar_is_ignored(self, tmp_path, stray):
        codec = LineCodec(self.LINES)
        producer, psync = self._producer(tmp_path, codec)
        sidecar = worker_queue_dir(tmp_path, 1) / "coverage.bin"
        if stray == "directory":
            sidecar.mkdir()
        else:
            sidecar.write_bytes(b"\xa5" * 64 if stray == "garbage" else b"")
        consumer, sync = self._caught_up_reader(tmp_path, codec, producer)
        assert consumer.stats.imported == len(producer.queue)
        assert consumer.stats.import_skipped == 0
        assert sync.stats.entries_scanned == len(producer.queue)

    def test_reader_without_a_codec_executes_every_record(self, tmp_path):
        codec = LineCodec(self.LINES)
        producer, _psync = self._producer(tmp_path, codec)
        executions = []
        consumer = make_engine(seed=2,
                               execute=self._novel_lines_execute(executions))
        consumer.virgin.merge_bits(producer.virgin.snapshot())
        # Without a codec no record decodes its lines, so none may be
        # absorbed: line coverage could not be accounted for.
        assert make_sync(tmp_path, 0).import_new(consumer) \
            == len(producer.queue)
        assert consumer.stats.imports_skipped_subsumed == 0
        assert len(executions) == len(producer.queue)

    def test_absorbs_each_records_own_lines(self, tmp_path):
        codec = LineCodec(self.LINES)
        producer, psync = self._producer(tmp_path, codec)
        consumer, sync = self._caught_up_reader(tmp_path, codec, producer)
        producer.run(3)
        psync.export(producer, codec=codec)
        consumer.virgin.merge_bits(producer.virgin.snapshot())
        calls = []
        sync.import_new(consumer, codec=codec, absorb_lines=calls.append)
        assert calls == [entry.lines
                         for entry in producer.queue.entries[-3:]]
        assert sync.stats.filter_seconds > 0

    @pytest.mark.parametrize("flag", ["crashed", "anomaly"])
    def test_known_crashing_records_still_execute(self, tmp_path, flag):
        codec = LineCodec(self.LINES)
        novel = self._novel_lines_execute()

        def failing(fi):
            feedback = novel(fi)
            if flag == "crashed":
                feedback.crashed = True
            else:
                feedback.anomaly = "anomaly"
            return feedback

        producer = make_engine(seed=1, execute=failing)
        producer.run(3)
        make_sync(tmp_path, 1).export(producer, codec=codec)
        flagged = [e for e in producer.queue.entries if getattr(e, flag)]
        assert flagged and all(e.coverage is not None for e in flagged)

        executions = []
        consumer = make_engine(seed=2,
                               execute=self._novel_lines_execute(executions))
        consumer.virgin.merge_bits(producer.virgin.snapshot())
        imported = make_sync(tmp_path, 0).import_new(consumer, codec=codec)
        assert imported == len(producer.queue)
        # Only the seed (no coverage) and the failing records execute.
        assert len(executions) == 1 + len(flagged)
        assert consumer.stats.imports_skipped_subsumed \
            == imported - 1 - len(flagged)

    def test_counts_accumulate_across_rounds(self, tmp_path):
        codec = LineCodec(self.LINES)
        producer, psync = self._producer(tmp_path, codec)
        first = len(producer.queue)
        consumer, sync = self._caught_up_reader(tmp_path, codec, producer)
        producer.run(2)
        psync.export(producer, codec=codec)
        psync.export(producer, codec=codec)  # nothing new
        sync.import_new(consumer, codec=codec)
        sync.import_new(consumer, codec=codec)
        assert psync.stats.entries_exported == len(producer.queue)
        assert len(producer.queue) == first + 2
        assert sync.stats.entries_scanned == len(producer.queue)
        assert sync.stats.import_rounds == 3

    def test_heal_rewrites_only_the_queue_files(self, tmp_path):
        codec = LineCodec(self.LINES)
        producer = make_engine(seed=1, execute=self._novel_lines_execute())
        producer.run(3)
        psync = make_sync(tmp_path, 1)
        plan = FaultPlan([FaultSpec("corrupt_sync", worker=1, at_export=1,
                                    corrupt="garbage")])
        with faults.injected(plan):
            psync.export(producer, codec=codec)
        producer.run(1)
        psync.export(producer, codec=codec)  # the tail check heals
        queue_dir = worker_queue_dir(tmp_path, 1)
        assert {p.name for p in queue_dir.iterdir()} == {QUEUE_BIN,
                                                          QUEUE_IDX}
        consumer = make_engine(seed=2, execute=self._novel_lines_execute())
        assert make_sync(tmp_path, 0).import_new(consumer, codec=codec) \
            == len(producer.queue)
        assert consumer.stats.import_skipped == 0


class TestSyncStatsMerge:
    def test_merged_with_sums_every_field(self):
        names = [f.name for f in fields(SyncStats)]
        left = SyncStats(**{name: k + 1 for k, name in enumerate(names)})
        right = SyncStats(**{name: 10 * (k + 1)
                             for k, name in enumerate(names)})
        merged = left.merged_with(right)
        for k, name in enumerate(names):
            assert getattr(merged, name) == 11 * (k + 1), name
        # Neither operand is mutated.
        assert left == SyncStats(**{name: k + 1
                                    for k, name in enumerate(names)})

    def test_merged_with_an_empty_stats_is_identity(self):
        stats = SyncStats(export_seconds=0.5, entries_scanned=3,
                          import_rounds=2)
        assert stats.merged_with(SyncStats()) == stats
        assert SyncStats().merged_with(stats) == stats
