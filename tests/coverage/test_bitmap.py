"""Tests for the AFL edge bitmap and virgin map."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage import bitmap
from repro.coverage.bitmap import (
    _CLASS_TABLE,
    _DENSE_TOUCHED,
    MAP_SIZE,
    CoverageBitmap,
    VirginMap,
    classify_count,
    edge_index,
    package_relative,
    relative_lines,
    stable_line_id,
)
from repro.coverage.kcov import edge_key, line_id
from repro.fuzzer.engine import EngineStats
from repro.resilience import campaign_fingerprint


class TestClassification:
    def test_zero(self):
        assert classify_count(0) == 0

    def test_afl_buckets(self):
        assert classify_count(1) == 1
        assert classify_count(2) == 2
        assert classify_count(3) == 4
        assert classify_count(4) == 8
        assert classify_count(7) == 16
        assert classify_count(200) == 128

    @given(st.integers(min_value=1, max_value=255))
    @settings(max_examples=60, deadline=None)
    def test_single_bit_set(self, count):
        cls = classify_count(count)
        assert cls and cls & (cls - 1) == 0  # power of two

    @given(st.integers(min_value=1, max_value=254))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, count):
        assert classify_count(count + 1) >= classify_count(count)


class TestEdgeHash:
    def test_within_map(self):
        assert 0 <= edge_index(0xFFFF, 0xFFFF) < MAP_SIZE

    def test_direction_sensitive(self):
        assert edge_index(10, 20) != edge_index(20, 10)

    def test_stable_line_id_deterministic(self):
        assert stable_line_id("a.py", 5) == stable_line_id("a.py", 5)
        assert stable_line_id("a.py", 5) != stable_line_id("a.py", 6)


def _fnv1a(text: str) -> int:
    h = 0x811C9DC5
    for byte in text.encode():
        h = ((h ^ byte) * 0x01000193) & 0xFFFFFFFF
    return h & (MAP_SIZE - 1)


class TestPackageRelativeIds:
    """Line ids and coverage digests do not depend on the checkout
    directory: they name files relative to the ``repro`` package."""

    REL = "repro/hypervisors/kvm/nested_vmx.py"

    def _observed(self, monkeypatch, root: str):
        monkeypatch.setattr(bitmap, "PACKAGE_PARENT", root)
        path = f"{root}/{self.REL}"
        lines = {(path, 10), (path, 11), (path, 30)}
        trace = CoverageBitmap()
        for prev, cur in ((10, 11), (11, 30)):
            trace.record_edge(stable_line_id(path, prev),
                              stable_line_id(path, cur))
        virgin = VirginMap()
        virgin.has_new_bits(trace)
        result = SimpleNamespace(covered_lines=lines, virgin=virgin,
                                 corpus_digests=["abc"],
                                 engine_stats=EngineStats(iterations=3))
        return (trace.sparse_classified(), relative_lines(lines),
                campaign_fingerprint(result))

    def test_two_roots_give_equal_cells_and_digests(self, monkeypatch):
        a = self._observed(monkeypatch, "/home/alice/necofuzz/src")
        b = self._observed(monkeypatch, "/tmp/ci/elsewhere/deeper/src")
        assert a == b
        assert a[1] == [(self.REL, 10), (self.REL, 11), (self.REL, 30)]

    def test_id_hashes_the_relative_location(self, monkeypatch):
        monkeypatch.setattr(bitmap, "PACKAGE_PARENT", "/opt/x/src")
        assert stable_line_id(f"/opt/x/src/{self.REL}", 42) == _fnv1a(
            f"{self.REL}:42")

    def test_real_package_files_are_relative(self):
        assert package_relative(bitmap.__file__) == "repro/coverage/bitmap.py"

    def test_paths_outside_the_package_are_unchanged(self, monkeypatch):
        monkeypatch.setattr(bitmap, "PACKAGE_PARENT", "/opt/x/src")
        assert package_relative("/opt/x/tests/t.py") == "/opt/x/tests/t.py"
        assert package_relative("/opt/x/srcother/repro/a.py") == (
            "/opt/x/srcother/repro/a.py")


class TestBitmap:
    def test_record_and_count(self):
        bitmap = CoverageBitmap()
        bitmap.record_edge(1, 2)
        bitmap.record_edge(1, 2)
        assert bitmap.count_nonzero() == 1
        assert bitmap.counts[edge_index(1, 2)] == 2

    def test_saturates_at_255(self):
        bitmap = CoverageBitmap()
        for _ in range(300):
            bitmap.record_edge(1, 2)
        assert bitmap.counts[edge_index(1, 2)] == 255

    def test_record_trace(self):
        path = bitmap.__file__
        trace = CoverageBitmap()
        trace.record_trace([edge_key(line_id(path, 1), line_id(path, 2))])
        assert trace.count_nonzero() == 1
        assert trace.touched == {edge_index(stable_line_id(path, 1),
                                            stable_line_id(path, 2))}

    def test_reset(self):
        bitmap = CoverageBitmap()
        bitmap.record_edge(1, 2)
        bitmap.reset()
        assert bitmap.count_nonzero() == 0
        assert not bitmap.touched


class TestVirginMap:
    def test_new_edge_returns_two(self):
        virgin = VirginMap()
        run = CoverageBitmap()
        run.record_edge(1, 2)
        assert virgin.has_new_bits(run) == 2

    def test_same_edge_same_count_returns_zero(self):
        virgin = VirginMap()
        run = CoverageBitmap()
        run.record_edge(1, 2)
        virgin.has_new_bits(run)
        rerun = CoverageBitmap()
        rerun.record_edge(1, 2)
        assert virgin.has_new_bits(rerun) == 0

    def test_new_count_bucket_returns_one(self):
        virgin = VirginMap()
        run = CoverageBitmap()
        run.record_edge(1, 2)
        virgin.has_new_bits(run)
        hotter = CoverageBitmap()
        for _ in range(10):
            hotter.record_edge(1, 2)
        assert virgin.has_new_bits(hotter) == 1

    def test_density_grows(self):
        virgin = VirginMap()
        assert virgin.density() == 0.0
        run = CoverageBitmap()
        for i in range(50):
            run.record_edge(i, i + 1)
        virgin.has_new_bits(run)
        assert virgin.density() > 0


class TestVectorizedPaths:
    """The C-level fast paths must agree with the scalar definitions."""

    @given(st.lists(st.tuples(st.integers(0, MAP_SIZE - 1),
                              st.integers(1, 255)),
                    min_size=0, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_classified_matches_per_byte_classify(self, cells):
        bitmap = CoverageBitmap()
        for idx, count in cells:
            bitmap.counts[idx] = count
            bitmap.touched.add(idx)
        classified = bitmap.classified()
        assert classified == bytes(classify_count(c) for c in bitmap.counts)
        assert _CLASS_TABLE == bytes(classify_count(c) for c in range(256))

    def test_sparse_classified_is_sorted_and_classified(self):
        bitmap = CoverageBitmap()
        bitmap.record_edge(900, 901)
        for _ in range(3):
            bitmap.record_edge(1, 2)
        sparse = bitmap.sparse_classified()
        assert sparse == tuple(sorted(sparse))
        assert dict(sparse)[edge_index(1, 2)] == classify_count(3)
        assert dict(sparse)[edge_index(900, 901)] == classify_count(1)

    def test_count_nonzero_matches_touched_cells(self):
        bitmap = CoverageBitmap()
        for i in range(200):
            bitmap.record_edge(i * 3, i * 3 + 1)
        manual = sum(1 for c in bitmap.counts if c)
        assert bitmap.count_nonzero() == manual

    def test_dense_fast_path_agrees_with_loop(self):
        # Wide enough to take the big-int pre-check on every call.
        run = CoverageBitmap()
        for i in range(_DENSE_TOUCHED + 50):
            run.record_edge(i * 7, i * 7 + 1)
        assert len(run.touched) >= _DENSE_TOUCHED
        virgin = VirginMap()
        assert virgin.has_new_bits(run) == 2
        assert bytes(virgin.bits) == run.classified()
        # Identical rerun: the pre-check alone proves "nothing new".
        assert virgin.has_new_bits(run) == 0
        # One extra cell must defeat the early exit, not be swallowed.
        run.record_edge(0xBEEF, 0xBEEF)
        assert virgin.has_new_bits(run) in (1, 2)
        assert virgin.has_new_bits(run) == 0


class TestSubsumption:
    def test_known_coverage_is_subsumed(self):
        virgin = VirginMap()
        run = CoverageBitmap()
        run.record_edge(1, 2)
        virgin.has_new_bits(run)
        assert virgin.subsumes(run.sparse_classified())

    def test_new_cell_is_not_subsumed(self):
        virgin = VirginMap()
        run = CoverageBitmap()
        run.record_edge(1, 2)
        assert not virgin.subsumes(run.sparse_classified())

    def test_new_bucket_on_known_cell_is_not_subsumed(self):
        virgin = VirginMap()
        once = CoverageBitmap()
        once.record_edge(1, 2)
        virgin.has_new_bits(once)
        hotter = CoverageBitmap()
        for _ in range(10):
            hotter.record_edge(1, 2)
        assert not virgin.subsumes(hotter.sparse_classified())

    def test_empty_coverage_is_subsumed(self):
        assert VirginMap().subsumes(())


class TestVirginMerge:
    def _populated(self, *edges):
        virgin = VirginMap()
        run = CoverageBitmap()
        for prev, cur in edges:
            run.record_edge(prev, cur)
        virgin.has_new_bits(run)
        return virgin

    def test_merge_from_brings_bits_over(self):
        a = self._populated((1, 2))
        b = self._populated((3, 4))
        assert a.merge_from(b)
        assert a.subsumes(((edge_index(3, 4), 1),))

    def test_merge_from_skips_empty_other(self):
        a = self._populated((1, 2))
        generation = a.generation
        assert not a.merge_from(VirginMap())
        assert a.generation == generation

    def test_merge_from_reports_no_change_for_subset(self):
        a = self._populated((1, 2), (3, 4))
        subset = self._populated((1, 2))
        assert not a.merge_from(subset)

    def test_merge_bits_rejects_wrong_size(self):
        import pytest

        with pytest.raises(ValueError):
            VirginMap().merge_bits(b"\x00" * 10)

    def test_generation_tracks_every_mutation(self):
        virgin = VirginMap()
        assert virgin.generation == 0
        run = CoverageBitmap()
        run.record_edge(1, 2)
        virgin.has_new_bits(run)
        after_new = virgin.generation
        assert after_new > 0
        rerun = CoverageBitmap()
        rerun.record_edge(1, 2)
        virgin.has_new_bits(rerun)  # nothing new: generation untouched
        assert virgin.generation == after_new
        virgin.merge_from(self._populated((5, 6)))
        assert virgin.generation > after_new
        virgin.restore(virgin.snapshot())
        assert virgin.generation > after_new + 1
