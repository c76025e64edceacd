"""ParallelCampaign acceptance tests.

The two contract anchors from the issue:

* ``workers=1`` reproduces the serial ``NecoFuzz.run`` result exactly
  (coverage fraction, queue adds, report count, timeline) for a fixed
  seed;
* ``workers=4`` with the same budget yields a merged covered-line set
  at least as large as the serial run on the KVM/Intel quickstart.
"""

import pytest

from repro.arch.cpuid import Vendor
from repro.core.necofuzz import NecoFuzz
from repro.parallel import ParallelCampaign

SEED = 11
BUDGET = 80


@pytest.fixture(scope="module")
def serial_result():
    return NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED).run(BUDGET)


class TestSingleWorkerEqualsSerial:
    @pytest.fixture(scope="class")
    def one_worker(self):
        return ParallelCampaign(hypervisor="kvm", vendor=Vendor.INTEL,
                                seed=SEED, workers=1).run(BUDGET)

    def test_covered_lines_identical(self, serial_result, one_worker):
        assert one_worker.covered_lines == serial_result.covered_lines
        assert one_worker.instrumented_lines == serial_result.instrumented_lines

    def test_coverage_fraction_identical(self, serial_result, one_worker):
        assert one_worker.coverage_fraction == serial_result.coverage_fraction

    def test_engine_stats_identical(self, serial_result, one_worker):
        assert one_worker.engine_stats == serial_result.engine_stats

    def test_reports_identical(self, serial_result, one_worker):
        assert len(one_worker.reports) == len(serial_result.reports)
        assert ([r.iteration for r in one_worker.reports]
                == [r.iteration for r in serial_result.reports])

    def test_timeline_identical(self, serial_result, one_worker):
        assert one_worker.timeline.series() == serial_result.timeline.series()
        assert one_worker.timeline.label == serial_result.timeline.label

    def test_no_sync_traffic(self, one_worker):
        assert one_worker.engine_stats.imported == 0


class TestShardedCampaign:
    @pytest.fixture(scope="class")
    def four_workers(self):
        return ParallelCampaign(hypervisor="kvm", vendor=Vendor.INTEL,
                                seed=SEED, workers=4, sync_every=20).run(BUDGET)

    def test_merged_coverage_superset_of_serial(self, serial_result,
                                                four_workers):
        assert len(four_workers.covered_lines) >= len(serial_result.covered_lines)
        assert four_workers.instrumented_lines == serial_result.instrumented_lines

    def test_budget_conserved(self, four_workers):
        assert four_workers.engine_stats.iterations == BUDGET
        assert sum(r.engine_stats.iterations
                   for r in four_workers.per_worker) == BUDGET

    def test_sync_actually_happened(self, four_workers):
        assert four_workers.engine_stats.imported > 0

    def test_merged_covered_is_union_of_workers(self, four_workers):
        union = set()
        for result in four_workers.per_worker:
            union |= result.covered_lines
        assert four_workers.covered_lines == union

    def test_merged_virgin_map_populated(self, four_workers):
        # The OR-merged map must be at least as dense as any re-derivable
        # single-worker map would be; a zero-density map means the merge
        # dropped everything.
        assert four_workers.virgin.density() > 0

    def test_timeline_monotone_in_iterations(self, four_workers):
        iters = [p.iteration for p in four_workers.timeline.points]
        assert iters == sorted(iters)
        assert iters[-1] == BUDGET
        fractions = [p.coverage for p in four_workers.timeline.points]
        assert fractions == sorted(fractions)  # union only grows

    def test_deterministic_inline_mode(self):
        def run():
            return ParallelCampaign(
                hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED,
                workers=3, sync_every=25).run(60)
        a, b = run(), run()
        assert a.covered_lines == b.covered_lines
        assert a.engine_stats == b.engine_stats
        assert a.timeline.series() == b.timeline.series()

    def test_uneven_budget_split(self):
        result = ParallelCampaign(hypervisor="kvm", vendor=Vendor.INTEL,
                                  seed=3, workers=3, sync_every=10).run(50)
        shares = [r.engine_stats.iterations for r in result.per_worker]
        assert shares == [17, 17, 16]
        assert result.engine_stats.iterations == 50


class TestProcessMode:
    def test_forked_workers_produce_merged_result(self, tmp_path):
        result = ParallelCampaign(
            hypervisor="kvm", vendor=Vendor.INTEL, seed=3, workers=2,
            sync_every=15, mode="process", sync_dir=tmp_path).run(30)
        assert result.engine_stats.iterations == 30
        assert len(result.per_worker) == 2
        assert result.coverage_fraction > 0.3
        # The sync directory holds both workers' queues and reports.
        assert (tmp_path / "worker-000" / "queue").is_dir()
        assert (tmp_path / "worker-001" / "queue").is_dir()


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelCampaign(workers=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ParallelCampaign(mode="threads")

    def test_bad_sync_interval_rejected(self):
        with pytest.raises(ValueError):
            ParallelCampaign(sync_every=0)

    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_non_positive_case_timeout_rejected(self, timeout):
        with pytest.raises(ValueError):
            ParallelCampaign(case_timeout=timeout)
