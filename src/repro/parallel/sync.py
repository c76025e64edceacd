"""Corpus sync between campaign workers (AFL's ``sync_fuzzers`` shape).

Each worker owns ``<root>/worker-NNN/queue/`` and speaks one wire
format, the binary protocol from :mod:`repro.parallel.wire`: exports
*append* only newly found entries to ``queue.bin`` + ``queue.idx``,
importers seek straight to the first unconsumed manifest record, and
each record ships its sparse classified coverage so the **subsumption
filter** can consume entries that cannot light up new local virgin
bits without executing them (their shipped line coverage is absorbed
instead). Crashing or anomalous entries are always executed, keeping
crash accounting identical to executing every import. That per-record
filter is the only import shortcut: every partner record is read and
decided on its own, and an importer reads nothing in a partner's queue
directory but its two queue files.

Robustness contract: the import side tolerates whatever a partner
crashing mid-write can leave behind. The owner checks its append tail
(size + tail CRC, O(1)) on every export and rewrites both files from
the live queue when the tail is broken. A corrupt record is skipped and
counted (``stats.import_skipped``) once, kept on a retry list, and
imported after it heals.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults, telemetry
from repro.fuzzer.engine import FuzzEngine
from repro.parallel import wire


def record_subsumed(engine: FuzzEngine, record: wire.WireRecord) -> bool:
    """The subsumption-filter contract, in one place.

    Skip execution only when it provably changes nothing: the record
    must ship both coverage and absorbable lines, must not have crashed
    or anomaled when found (those always re-execute so crash accounting
    matches executing every import), and every shipped
    ``(cell, class-bit)`` pair must already be present in the local
    virgin map.
    """
    if record.coverage is None or record.lines is None:
        return False
    if record.crashed or record.anomaly:
        return False
    return engine.virgin.subsumes(record.coverage)


def worker_queue_dir(root: Path, index: int) -> Path:
    """The queue directory one worker exports to."""
    return Path(root) / f"worker-{index:03d}" / "queue"


def _corrupt(queue_dir: Path, spec) -> None:
    """Apply one injected sync-corruption shape (chaos testing).

    Writes bypass the atomic path on purpose: the fault simulates the
    partial state a crash mid-write would leave *without* atomicity.
    """
    bin_path = queue_dir / wire.QUEUE_BIN
    if spec.corrupt == "truncate":
        raw = bin_path.read_bytes()
        bin_path.write_bytes(raw[:-17] if len(raw) > 17 else b"")
    elif spec.corrupt == "garbage":
        manifest = wire.read_manifest(queue_dir)
        if manifest:
            offset, length, _ = manifest[-1]
            raw = bytearray(bin_path.read_bytes())
            raw[offset:offset + length] = b"\xa5" * length
            bin_path.write_bytes(bytes(raw))
    elif spec.corrupt == "tmp_orphan":
        (queue_dir / (wire.QUEUE_BIN + ".tmp")).write_bytes(b"partial")


@dataclass
class SyncStats:
    """Where sync wall-clock goes, per phase (merged into bench output)."""

    export_seconds: float = 0.0   # packing + appending own entries
    scan_seconds: float = 0.0     # reading partner manifests
    filter_seconds: float = 0.0   # subsumption checks against VirginMap
    execute_seconds: float = 0.0  # running entries that passed the filter
    entries_exported: int = 0
    entries_scanned: int = 0
    #: Import rounds that actually scanned partners.
    import_rounds: int = 0
    #: Always 0: the coverage sidecar that counted whole-batch rejects
    #: is gone (DESIGN.md §15). Its only reader is perfbench's
    #: ``SYNC_FIELDS``, which ``getattr``s it, so removing the field is
    #: a change to the benchmark, made on its own.
    batches_delta_rejected: int = 0

    def merged_with(self, other: "SyncStats") -> "SyncStats":
        return SyncStats(
            export_seconds=self.export_seconds + other.export_seconds,
            scan_seconds=self.scan_seconds + other.scan_seconds,
            filter_seconds=self.filter_seconds + other.filter_seconds,
            execute_seconds=self.execute_seconds + other.execute_seconds,
            entries_exported=self.entries_exported + other.entries_exported,
            entries_scanned=self.entries_scanned + other.entries_scanned,
            import_rounds=self.import_rounds + other.import_rounds,
            batches_delta_rejected=(self.batches_delta_rejected
                                    + other.batches_delta_rejected))


@dataclass
class SyncDirectory:
    """One worker's view of the shared sync directory."""

    root: Path
    worker: int
    total_workers: int
    #: Per-partner count of manifest records consumed (imported,
    #: filtered, or parked on the retry list below).
    consumed: dict[int, int] = field(default_factory=dict)
    #: Per-partner manifest indices that failed to read/parse and are
    #: retried each round until the owner's tail check heals them.
    retry: dict[int, set[int]] = field(default_factory=dict)
    #: Records/bytes this worker has appended to its own queue.bin,
    #: for the O(1) tail-intact check on the next export.
    exported_records: int = 0
    exported_bytes: int = 0
    #: Export rounds completed (drives ``corrupt_sync`` fault timing).
    exports: int = 0
    stats: SyncStats = field(default_factory=SyncStats)

    @contextmanager
    def _timed(self, span_name: str, attr: str):
        """Accumulate one phase's wall clock into ``stats.<attr>`` and
        the telemetry histogram *span_name*.

        The accounting lives in a ``finally`` so a guarded call that
        raises — a corrupt-entry retry, an injected sync fault — still
        charges its elapsed time. (The old ``stats.x += perf_counter()
        - started`` shape silently dropped those paths from
        ``sync_overhead``.) Both sinks see the *same* elapsed value, so
        ``SyncStats`` and the telemetry report agree to the float.
        """
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            setattr(self.stats, attr, getattr(self.stats, attr) + elapsed)
            telemetry.observe(span_name, elapsed)

    # --- export ---------------------------------------------------------

    def export(self, engine: FuzzEngine, *,
               codec: wire.LineCodec | None = None) -> int:
        """Publish the worker's locally found queue entries.

        Returns the total number of entries now published; only the ones
        found since the last round are appended.
        """
        queue_dir = worker_queue_dir(self.root, self.worker)
        with self._timed("sync.export", "export_seconds"):
            written = self._export(engine, queue_dir, codec)
        self.exports += 1
        telemetry.event("sync.export", round=self.exports, written=written)
        plan = faults.active()
        if plan is not None:
            spec = plan.take_sync_fault(self.worker, self.exports)
            if spec is not None:
                plan.record("corrupt_sync", self.worker, spec.corrupt)
                _corrupt(queue_dir, spec)
        return written

    def _export(self, engine: FuzzEngine, queue_dir: Path,
                codec: wire.LineCodec | None) -> int:
        queue_dir.mkdir(parents=True, exist_ok=True)
        entries = [e for e in engine.queue.entries if not e.imported]
        if not wire.tail_intact(queue_dir, self.exported_records,
                                self.exported_bytes):
            # A crash mid-append (or injected corruption) broke the
            # tail: rebuild both files from the live queue, atomically.
            blobs = [wire.pack_record(i, entry, codec)
                     for i, entry in enumerate(entries)]
            self.exported_bytes = wire.rewrite_records(queue_dir, blobs)
            self.exported_records = len(blobs)
            self.stats.entries_exported += len(blobs)
            return len(entries)
        fresh = entries[self.exported_records:]
        if fresh:
            base = self.exported_records
            blobs = [wire.pack_record(base + k, entry, codec)
                     for k, entry in enumerate(fresh)]
            self.exported_bytes += wire.append_records(queue_dir, blobs)
            self.exported_records += len(blobs)
            self.stats.entries_exported += len(blobs)
        return len(entries)

    # --- import ---------------------------------------------------------

    def import_new(self, engine: FuzzEngine, *,
                   codec: wire.LineCodec | None = None,
                   absorb_lines=None) -> int:
        """Consume every not-yet-seen partner entry through *engine*.

        Returns the number of entries consumed — executed, or absorbed
        through the subsumption filter without execution;
        either way they count in ``stats.imported``. Entries that fail
        to decode are skipped (counted once in ``stats.import_skipped``)
        and retried on later rounds, after the owner heals them.
        """
        imported = 0
        self.stats.import_rounds += 1
        for partner in range(self.total_workers):
            if partner == self.worker:
                continue
            queue_dir = worker_queue_dir(self.root, partner)
            if not queue_dir.is_dir():
                continue
            imported += self._import_from(engine, partner, queue_dir,
                                          codec, absorb_lines)
        return imported

    def _import_from(self, engine: FuzzEngine, partner: int,
                     queue_dir: Path, codec: wire.LineCodec | None,
                     absorb_lines) -> int:
        with self._timed("sync.scan", "scan_seconds"):
            manifest = wire.read_manifest(queue_dir)
        consumed = self.consumed.get(partner, 0)
        retry = self.retry.setdefault(partner, set())
        todo = sorted(index for index in retry if index < len(manifest))
        todo += range(consumed, len(manifest))
        if not todo:
            return 0
        imported = 0
        try:
            handle = open(queue_dir / wire.QUEUE_BIN, "rb")
        except OSError:
            # Manifest without a readable data file: leave the cursor
            # where it is and try again next round.
            return 0
        with handle:
            for index in todo:
                offset, length, crc = manifest[index]
                blob = wire.read_record_blob(handle, offset, length, crc)
                record = wire.parse_record(blob, codec) if blob else None
                self.stats.entries_scanned += 1
                if record is None:
                    if index not in retry:
                        # Counted once; the retry set keeps the cursor
                        # moving while this record waits for its heal.
                        engine.stats.import_skipped += 1
                        telemetry.counter("sync.imports_skipped")
                        retry.add(index)
                    continue
                retry.discard(index)
                if self._filtered(engine, record):
                    engine.import_subsumed(record, absorb_lines)
                    telemetry.counter("sync.filter_subsumed")
                else:
                    with self._timed("sync.execute", "execute_seconds"):
                        engine.import_packed(record)
                    telemetry.counter("sync.filter_executed")
                imported += 1
        self.consumed[partner] = len(manifest)
        return imported

    def _filtered(self, engine: FuzzEngine, record: wire.WireRecord) -> bool:
        """:func:`record_subsumed`, with the check's wall clock charged
        to ``stats.filter_seconds``."""
        with self._timed("sync.filter", "filter_seconds"):
            return record_subsumed(engine, record)
