"""Tests for corpus persistence and source annotation."""

from repro.coverage.kcov import KcovTracer, lines_of
from repro.coverage.report import annotate_source
from repro.fuzzer.engine import FuzzEngine, RunFeedback
from repro.fuzzer.input import INPUT_SIZE
from repro.fuzzer.rng import Rng
from repro.coverage.bitmap import CoverageBitmap

from tests.coverage import traced_target


class TestAnnotateSource:
    def _coverage(self):
        tracer = KcovTracer([traced_target])
        with tracer:
            traced_target.branchy(True)
        ids, _ = tracer.drain()
        return lines_of(ids)

    def test_marks(self):
        text = annotate_source(traced_target, self._coverage())
        lines = text.splitlines()
        true_line = lines[traced_target.BRANCH_TRUE_LINE - 1]
        false_line = lines[traced_target.BRANCH_FALSE_LINE - 1]
        module_line = lines[traced_target.MODULE_LEVEL_LINE - 1]
        assert true_line.lstrip().startswith("1:")
        assert false_line.lstrip().startswith("#####:")
        assert module_line.lstrip().startswith("-:")

    def test_line_numbers_present(self):
        text = annotate_source(traced_target, set())
        assert f":{traced_target.BRANCH_TRUE_LINE:5}:" in text


class TestCorpusPersistence:
    def _engine(self, seed=1):
        def execute(fi):
            bitmap = CoverageBitmap()
            bitmap.record_edge(sum(fi.data[:4]), 1)
            return RunFeedback(bitmap=bitmap)

        engine = FuzzEngine(execute=execute, rng=Rng(seed))
        engine.add_seed(bytes(INPUT_SIZE))
        return engine

    def test_save_and_load(self, tmp_path):
        engine = self._engine()
        engine.run(20)
        written = engine.save_corpus(tmp_path / "queue")
        assert written == len(engine.queue)
        files = list((tmp_path / "queue").iterdir())
        assert len(files) == written
        assert any("seed" in f.name for f in files)

        fresh = FuzzEngine(execute=lambda fi: RunFeedback(CoverageBitmap()),
                           rng=Rng(2))
        loaded = fresh.load_corpus(tmp_path / "queue")
        assert loaded == written
        assert len(fresh.queue) == written

    def test_loaded_corpus_is_deterministic(self, tmp_path):
        engine = self._engine()
        engine.run(10)
        engine.save_corpus(tmp_path / "q")
        seen = []
        for _ in range(2):
            fresh = self._engine(seed=9)
            fresh.load_corpus(tmp_path / "q")
            fresh.run(5)
            seen.append([e.data for e in fresh.queue.entries])
        assert seen[0] == seen[1]
