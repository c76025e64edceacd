"""Coverage-guided fuzzing main loop (the AFL++ role).

The engine owns the seed queue and the virgin map; the *executor
callback* (provided by the agent) runs one input against the target and
reports back a :class:`RunFeedback`. Setting ``coverage_guided=False``
turns the engine into the breadth-first black-box fuzzer evaluated in
Table 5: inputs are fresh mutations of the seeds and the feedback bitmap
is ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from repro import telemetry
from repro.coverage import kcov
from repro.coverage.bitmap import CoverageBitmap, VirginMap
from repro.faults import InjectedFault
from repro.fuzzer.crashes import CrashStore, atomic_write_bytes
from repro.fuzzer.input import (
    CONFIG_REGION,
    HARNESS_REGION,
    INPUT_SIZE,
    MUTATION_REGION,
    VM_STATE_REGION,
    FuzzInput,
)
from repro.fuzzer.mutators import mutate_candidate
from repro.fuzzer.queue import SeedQueue
from repro.fuzzer.rng import Rng

#: The partitions region-aware havoc keeps in motion.
_REGIONS = (VM_STATE_REGION, MUTATION_REGION, HARNESS_REGION, CONFIG_REGION)


@dataclass
class RunFeedback:
    """What one target execution reported back to the engine."""

    bitmap: CoverageBitmap
    crashed: bool = False
    anomaly: str | None = None
    #: Source lines this case covered. Stored with queue entries so
    #: sync partners that skip a subsumed import can still
    #: absorb its line coverage. None when the executor does not track
    #: lines.
    lines: frozenset | None = None
    #: The same coverage as kcov line ids, which the agent reports in
    #: place of :attr:`lines`; :meth:`line_set` maps them to lines for
    #: the few cases that become queue entries.
    line_ids: set | None = None

    def line_set(self) -> frozenset | None:
        """:attr:`lines`, derived from :attr:`line_ids` on first read."""
        if self.lines is None and self.line_ids is not None:
            self.lines = kcov.lines_of(self.line_ids)
        return self.lines


@dataclass
class EngineStats:
    """Campaign counters."""

    iterations: int = 0
    queue_adds: int = 0
    crashes: int = 0
    anomalies: int = 0
    last_find: int = 0
    #: Sync-partner cases executed via :meth:`FuzzEngine.import_case`
    #: (not counted in ``iterations`` — they are not mutation budget).
    imported: int = 0
    #: Exceptions that escaped the target/oracle and were isolated at
    #: the case boundary instead of killing the campaign.
    case_exceptions: int = 0
    #: Corrupt corpus entries (truncated / invalid JSON) skipped by
    #: :meth:`FuzzEngine.import_case` instead of raising.
    import_skipped: int = 0
    #: Imports consumed *without* execution because their recorded
    #: coverage was already subsumed by the local virgin map. Counted
    #: inside ``imported`` as well; kept out of the campaign fingerprint
    #: so runs with and without the filter stay comparable.
    imports_skipped_subsumed: int = 0


ExecuteFn = Callable[[FuzzInput], RunFeedback]


@dataclass
class FuzzEngine:
    """The fuzzing loop."""

    execute: ExecuteFn
    rng: Rng
    coverage_guided: bool = True
    queue: SeedQueue = field(default_factory=SeedQueue)
    virgin: VirginMap = field(default_factory=VirginMap)
    stats: EngineStats = field(default_factory=EngineStats)
    crash_inputs: list[tuple[FuzzInput, str]] = field(default_factory=list)
    #: Case-boundary crash isolation: an exception escaping ``execute``
    #: is triaged here instead of killing the campaign. ``None`` still
    #: isolates (counted in ``stats.case_exceptions``) but keeps no
    #: deduplicated records and persists no reproducers.
    crashes: CrashStore | None = None

    def __post_init__(self) -> None:
        # Scratch feedback for isolated cases: an escaped exception left
        # no usable bitmap, so the engine reports an empty one.
        self._fault_bitmap = CoverageBitmap()

    def add_seed(self, data: bytes) -> None:
        """Register one initial seed."""
        self.queue.add_seed(FuzzInput.normalize(data))

    def _next_input(self) -> FuzzInput:
        """Produce the next candidate via seed selection + mutation."""
        if not len(self.queue):
            return FuzzInput(self.rng.bytes(INPUT_SIZE))
        entry = self.queue.pick(self.rng)
        partner = None
        if len(self.queue) > 1 and self.rng.chance(0.1):
            partner = self.queue.pick_other(self.rng, entry).data
        return FuzzInput(
            mutate_candidate(entry.data, self.rng, _REGIONS, partner))

    def _execute_isolated(self, candidate: FuzzInput) -> RunFeedback:
        """Run one case with crash isolation at the case boundary.

        An exception escaping the hypervisor model or the oracle is
        triaged (signature-deduplicated, persisted as a reproducer when
        a crash directory is configured) and converted into a crashed
        :class:`RunFeedback`, so the campaign keeps running. Simulated
        worker deaths (:class:`repro.faults.WorkerKilled`) derive from
        ``BaseException`` and pass straight through.
        """
        try:
            with telemetry.span("case.execute"):
                return self.execute(candidate)
        except Exception as exc:
            self.stats.case_exceptions += 1
            telemetry.counter("engine.case_exceptions")
            with telemetry.span("case.triage"):
                anomaly = f"case-exception: {type(exc).__name__}: {exc}"
                if self.crashes is not None:
                    # Injected faults are input-independent one-shots:
                    # re-executing for minimization would consume *other*
                    # pending specs and prove nothing about the input.
                    reexecute = None if isinstance(exc, InjectedFault) else (
                        lambda raw: self.execute(
                            FuzzInput(FuzzInput.normalize(raw))))
                    record, _ = self.crashes.record(
                        exc, candidate.data, self.stats.iterations,
                        reexecute=reexecute)
                    anomaly = f"case-exception: {record.signature}"
            self._fault_bitmap.reset()
            return RunFeedback(bitmap=self._fault_bitmap, crashed=True,
                               anomaly=anomaly)

    def step(self) -> RunFeedback:
        """One fuzzing iteration: mutate, execute, triage."""
        self.stats.iterations += 1
        candidate = self._next_input()
        feedback = self._execute_isolated(candidate)
        return self._fold(candidate, feedback)

    def _fold(self, candidate: FuzzInput, feedback: RunFeedback) -> RunFeedback:
        """Fold one case's feedback into queue/virgin/stats state."""
        telemetry.counter("engine.cases")
        if feedback.crashed or feedback.anomaly:
            self.stats.crashes += feedback.crashed
            self.stats.anomalies += feedback.anomaly is not None
            self.crash_inputs.append((candidate, feedback.anomaly or "crash"))
            telemetry.counter("engine.crashes", int(feedback.crashed))
            telemetry.counter("engine.anomalies",
                              int(feedback.anomaly is not None))
        # Black-box mode still merges the map so external observers can
        # measure coverage, but scheduling ignores it.
        new_bits = self.virgin.has_new_bits(feedback.bitmap)
        if self.coverage_guided and new_bits:
            self.queue.add_finding(
                candidate.data, self.stats.iterations, new_bits,
                coverage=feedback.bitmap.sparse_classified(),
                lines=feedback.line_set(), crashed=feedback.crashed,
                anomaly=feedback.anomaly is not None)
            self.stats.queue_adds += 1
            self.stats.last_find = self.stats.iterations
            telemetry.counter("engine.queue_adds")
        telemetry.gauge("engine.queue_depth", len(self.queue))
        telemetry.gauge("engine.corpus_bytes", len(self.queue) * INPUT_SIZE)
        return feedback

    def run(self, iterations: int) -> EngineStats:
        """Run *iterations* fuzzing steps."""
        for _ in range(iterations):
            self.step()
        return self.stats

    def _decode_entry(self, payload: bytes) -> bytes | None:
        """Decode one on-disk corpus entry; ``None`` when corrupt.

        Two shapes are accepted: a raw queue entry (exactly
        ``INPUT_SIZE`` bytes, what :meth:`save_corpus` writes) and a
        JSON crash reproducer (``repro.fuzzer.crashes`` schema). A
        truncated raw entry, malformed JSON, or a reproducer missing or
        mis-encoding its input field all decode to ``None`` — the
        artifacts a partner crashing mid-write can leave behind.
        """
        if payload.lstrip()[:1] == b"{":
            try:
                meta = json.loads(payload)
                data = bytes.fromhex(meta["input"])
            except (ValueError, KeyError, TypeError):
                return None
            return data if data else None
        if len(payload) != INPUT_SIZE:
            return None
        return payload

    def import_case(self, data: bytes) -> int | None:
        """Execute a sync partner's queue entry and keep it if novel.

        This is AFL's ``sync_fuzzers`` behaviour: the case runs against
        the local target and joins the queue only when it lights up new
        virgin-map bits here. Imported executions do not count against
        the mutation-iteration budget; they are tracked separately in
        ``stats.imported``. Returns the tri-state new-bits value, or
        ``None`` for a corrupt entry, which is skipped and counted in
        ``stats.import_skipped`` rather than raised on — a partner
        crashing mid-write must not take this worker down with it.
        """
        decoded = self._decode_entry(data)
        if decoded is None:
            self.stats.import_skipped += 1
            return None
        return self._run_import(decoded)

    def _run_import(self, data: bytes) -> int:
        """Execute one decoded partner input; queue it when novel here."""
        candidate = FuzzInput(FuzzInput.normalize(data))
        feedback = self._execute_isolated(candidate)
        self.stats.imported += 1
        telemetry.counter("engine.imports")
        if feedback.crashed or feedback.anomaly:
            self.stats.crashes += feedback.crashed
            self.stats.anomalies += feedback.anomaly is not None
            self.crash_inputs.append((candidate, feedback.anomaly or "crash"))
        new_bits = self.virgin.has_new_bits(feedback.bitmap)
        if new_bits and self.coverage_guided:
            self.queue.add_finding(candidate.data, self.stats.iterations,
                                   new_bits, imported=True,
                                   coverage=feedback.bitmap.sparse_classified(),
                                   lines=feedback.line_set(),
                                   crashed=feedback.crashed,
                                   anomaly=feedback.anomaly is not None)
        return new_bits

    def import_packed(self, record) -> int:
        """Execute one already-decoded partner wire record."""
        return self._run_import(record.data)

    def import_subsumed(self, record, absorb_lines=None) -> None:
        """Consume a partner wire record without executing it.

        The sync layer calls this when *record*'s shipped coverage is
        fully subsumed by the local virgin map: executing it could not
        light up new bits, so only the bookkeeping — and, through
        *absorb_lines*, the shipped line coverage — is applied.
        """
        self.stats.imported += 1
        self.stats.imports_skipped_subsumed += 1
        telemetry.counter("engine.imports")
        telemetry.counter("engine.imports_subsumed")
        if absorb_lines is not None and record.lines:
            absorb_lines(record.lines)

    def import_subsumed_batch(self, count: int) -> None:
        """Bookkeeping for *count* partner records the sync sidecar
        (DESIGN.md §15) absorbed without reading them from disk.

        Count-for-count identical to calling :meth:`import_subsumed`
        once per record — the importer's own virgin map subsumed the
        partner's whole map, so every record would have been skipped.
        Line coverage travels separately and is absorbed by the caller.
        """
        if count <= 0:
            return
        self.stats.imported += count
        self.stats.imports_skipped_subsumed += count
        telemetry.counter("engine.imports", count)
        telemetry.counter("engine.imports_subsumed", count)

    # --- corpus persistence (AFL queue-directory style) -----------------

    def save_corpus(self, directory) -> int:
        """Write every queue entry to *directory* as ``id:NNNNNN`` files.

        Returns the number of entries written. The format matches AFL's
        queue directory closely enough to eyeball with the same habits.
        The queue is append-only, so indices are stable across repeated
        incremental saves.

        Every entry is written atomically (``*.tmp`` + ``os.replace``):
        a worker dying mid-export leaves at worst a ``*.tmp`` orphan,
        never a truncated entry a partner could half-import.
        """
        from pathlib import Path

        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        entries = self.queue.entries
        for index, entry in enumerate(entries):
            suffix = f",found:{entry.found_at}" if entry.found_at else ",seed"
            atomic_write_bytes(path / f"id:{index:06d}{suffix}", entry.data)
        return len(entries)

    def load_corpus(self, directory) -> int:
        """Seed the queue from a directory written by :meth:`save_corpus`.

        Returns the number of inputs loaded. Files are loaded in sorted
        order so resumed campaigns are deterministic.
        """
        from pathlib import Path

        count = 0
        for file in sorted(Path(directory).iterdir()):
            if file.is_file() and not file.name.endswith(".tmp"):
                self.add_seed(file.read_bytes())
                count += 1
        return count
