"""Tests for the coverage-guided engine and seed queue."""

import pytest

from repro.coverage.bitmap import CoverageBitmap
from repro.fuzzer.engine import FuzzEngine, RunFeedback
from repro.fuzzer.input import INPUT_SIZE
from repro.fuzzer.queue import SeedQueue
from repro.fuzzer.rng import Rng


def make_engine(execute, *, guided=True, seed=1):
    engine = FuzzEngine(execute=execute, rng=Rng(seed), coverage_guided=guided)
    engine.add_seed(bytes(INPUT_SIZE))
    return engine


def feedback_with_edges(*edges):
    bitmap = CoverageBitmap()
    for prev, cur in edges:
        bitmap.record_edge(prev, cur)
    return RunFeedback(bitmap=bitmap)


class TestQueueGrowth:
    def test_new_coverage_enqueues(self):
        counter = {"n": 0}

        def execute(fi):
            counter["n"] += 1
            # Widely spaced ids avoid AFL's (prev>>1)^cur hash collisions.
            return feedback_with_edges((counter["n"] * 64, counter["n"] * 64 + 1))

        engine = make_engine(execute)
        engine.run(5)
        assert engine.stats.queue_adds == 5
        assert len(engine.queue) == 6  # seed + 5 findings

    def test_repeated_coverage_not_enqueued(self):
        def execute(fi):
            return feedback_with_edges((1, 2))

        engine = make_engine(execute)
        engine.run(10)
        assert engine.stats.queue_adds == 1

    def test_blackbox_mode_ignores_feedback(self):
        counter = {"n": 0}

        def execute(fi):
            counter["n"] += 1
            return feedback_with_edges((counter["n"], counter["n"] + 1))

        engine = make_engine(execute, guided=False)
        engine.run(10)
        assert engine.stats.queue_adds == 0
        assert len(engine.queue) == 1
        # But the map still accumulates for external measurement.
        assert engine.virgin.density() > 0


class TestCrashHandling:
    def test_crashes_recorded(self):
        def execute(fi):
            return RunFeedback(bitmap=CoverageBitmap(), crashed=True,
                               anomaly="boom")

        engine = make_engine(execute)
        engine.run(3)
        assert engine.stats.crashes == 3
        assert engine.stats.anomalies == 3
        assert len(engine.crash_inputs) == 3
        assert engine.crash_inputs[0][1] == "boom"

    def test_anomaly_without_crash(self):
        def execute(fi):
            return RunFeedback(bitmap=CoverageBitmap(), anomaly="warn")

        engine = make_engine(execute)
        engine.run(2)
        assert engine.stats.crashes == 0
        assert engine.stats.anomalies == 2


class TestDeterminism:
    def test_same_seed_same_inputs(self):
        seen_a, seen_b = [], []

        def make_execute(sink):
            def execute(fi):
                sink.append(fi.data)
                return feedback_with_edges()
            return execute

        make_engine(make_execute(seen_a), seed=42).run(5)
        make_engine(make_execute(seen_b), seed=42).run(5)
        assert seen_a == seen_b

    def test_different_seed_different_inputs(self):
        seen_a, seen_b = [], []

        def make_execute(sink):
            def execute(fi):
                sink.append(fi.data)
                return feedback_with_edges()
            return execute

        make_engine(make_execute(seen_a), seed=1).run(5)
        make_engine(make_execute(seen_b), seed=2).run(5)
        assert seen_a != seen_b

    def test_inputs_are_canonical_size(self):
        def execute(fi):
            assert len(fi.data) == INPUT_SIZE
            return feedback_with_edges()

        make_engine(execute).run(5)


class TestSeedQueue:
    def test_pick_from_empty_rejected(self):
        import pytest

        with pytest.raises(RuntimeError):
            SeedQueue().pick(Rng(1))

    def test_favored_preferred(self):
        queue = SeedQueue()
        queue.add_seed(b"seed")
        favored = queue.add_finding(b"finding", 1, new_bits=2)
        assert favored.favored
        picks = [queue.pick(Rng(i)) for i in range(20)]
        assert sum(1 for p in picks if p is favored) > 10

    def test_bucket_finding_not_favored(self):
        queue = SeedQueue()
        entry = queue.add_finding(b"x", 1, new_bits=1)
        assert not entry.favored

    def test_pick_other_differs_when_possible(self):
        queue = SeedQueue()
        a = queue.add_seed(b"a")
        queue.add_seed(b"b")
        rng = Rng(3)
        other = queue.pick_other(rng, a)
        assert other is not a or len(queue) == 1

    def test_pick_other_single_entry(self):
        queue = SeedQueue()
        a = queue.add_seed(b"a")
        assert queue.pick_other(Rng(1), a) is a


class TestCorpusPersistence:
    def _novel_execute(self):
        counter = {"n": 0}

        def execute(fi):
            counter["n"] += 1
            return feedback_with_edges((counter["n"] * 64,
                                        counter["n"] * 64 + 1))

        return execute

    def test_round_trip_preserves_queue(self, tmp_path):
        engine = make_engine(self._novel_execute())
        engine.run(6)
        saved = engine.save_corpus(tmp_path)
        assert saved == len(engine.queue)

        resumed = make_engine(self._novel_execute(), seed=2)
        before = len(resumed.queue)
        loaded = resumed.load_corpus(tmp_path)
        assert loaded == saved
        # Sorted filenames == queue-index order, so data round-trips
        # in the exact original order after the resumed engine's seeds.
        assert ([e.data for e in resumed.queue.entries[before:]]
                == [e.data for e in engine.queue.entries])

    def test_indices_stable_across_incremental_saves(self, tmp_path):
        engine = make_engine(self._novel_execute())
        engine.run(3)
        engine.save_corpus(tmp_path)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        engine.run(3)
        engine.save_corpus(tmp_path)
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert set(first) <= set(second)
        assert all(second[name] == data for name, data in first.items())

    def test_import_case_keeps_novel_and_skips_known(self):
        engine = make_engine(self._novel_execute())
        adds = engine.stats.queue_adds
        new_bits = engine.import_case(b"\x01" * INPUT_SIZE)
        assert new_bits
        entry = engine.queue.entries[-1]
        assert entry.imported
        assert engine.stats.imported == 1
        assert engine.stats.iterations == 0      # no mutation budget spent
        assert engine.stats.queue_adds == adds   # tracked separately

        def replay(fi):
            return feedback_with_edges((64, 65))  # same edge as case 1

        engine.execute = replay
        queue_len = len(engine.queue)
        assert engine.import_case(b"\x02" * INPUT_SIZE) == 0
        assert len(engine.queue) == queue_len
        assert engine.stats.imported == 2

    def test_save_corpus_keeps_imported_entries(self, tmp_path):
        engine = make_engine(self._novel_execute())
        engine.run(2)
        engine.import_case(b"\x03" * INPUT_SIZE)
        assert engine.queue.entries[-1].imported
        assert engine.save_corpus(tmp_path / "all") == len(engine.queue)
        with pytest.raises(TypeError):
            engine.save_corpus(tmp_path / "local", exclude_imported=True)
