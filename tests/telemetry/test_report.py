"""`repro telemetry-report` on real campaign roots.

The acceptance pin: a 2-shard process-mode run's merged per-phase sync
span totals must agree with the ``SyncStats`` the workers reported,
to within rounding — both sinks are fed the same elapsed value by
``SyncDirectory._timed``, so disagreement means a dropped or
double-counted span.
"""

import json

import pytest

from repro import Vendor
from repro.__main__ import main
from repro.parallel import ParallelCampaign
from repro.telemetry import METRICS_NAME, MetricsRegistry
from repro.telemetry.report import (
    campaign_summary,
    load_campaign_metrics,
    render_report,
)

SEED = 11
BUDGET = 40
SYNC_EVERY = 10


def _run(tmp_path, mode, telemetry_mode="full", **overrides):
    kwargs = dict(hypervisor="kvm", vendor=Vendor.INTEL, seed=SEED,
                  workers=2, sync_every=SYNC_EVERY, mode=mode,
                  sync_dir=tmp_path, telemetry_mode=telemetry_mode)
    kwargs.update(overrides)
    return ParallelCampaign(**kwargs).run(BUDGET, sample_every=20)


def _assert_sync_totals_match(summary, sync_stats):
    pairs = (("sync.export", sync_stats.export_seconds),
             ("sync.scan", sync_stats.scan_seconds),
             ("sync.filter", sync_stats.filter_seconds),
             ("sync.execute", sync_stats.execute_seconds))
    for span, stat_total in pairs:
        span_total = summary["spans"].get(span, {}).get("total_seconds", 0.0)
        assert span_total == pytest.approx(stat_total, rel=1e-6, abs=1e-9), (
            f"{span}: telemetry says {span_total}, SyncStats says "
            f"{stat_total}")


class TestProcessModeReport:
    def test_two_shard_process_run_sync_totals_match_syncstats(
            self, tmp_path):
        result = _run(tmp_path, "process")
        summary = campaign_summary(tmp_path)

        # Per-phase spans are present and merged across both shards.
        assert summary["spans"]["sync.export"]["count"] > 0
        per_shard = summary["shards"]["per_shard"]
        assert set(per_shard) == {"0", "1"}
        _assert_sync_totals_match(summary, result.sync_overhead)

        # The result object carries the same merged snapshot that was
        # persisted to <root>/metrics.json.
        assert result.telemetry == load_campaign_metrics(tmp_path).snapshot()

    def test_render_report_shows_phases_and_shards(self, tmp_path):
        _run(tmp_path, "process")
        text = render_report(tmp_path)
        assert "sync.export" in text
        assert "case.execute" in text
        assert "shard 0:" in text and "shard 1:" in text
        assert "event(s) in events.jsonl" in text

    def test_report_falls_back_to_worker_snapshots(self, tmp_path):
        # A killed orchestrator leaves no merged metrics.json; the
        # report must still merge whatever shard snapshots survived.
        _run(tmp_path, "process")
        (tmp_path / "metrics.json").unlink()
        summary = campaign_summary(tmp_path)
        assert summary["spans"]["case.execute"]["count"] > 0


class TestInlineModeReport:
    def test_inline_sync_totals_match_syncstats(self, tmp_path):
        result = _run(tmp_path, "inline")
        summary = campaign_summary(tmp_path)
        _assert_sync_totals_match(summary, result.sync_overhead)

    def test_off_mode_leaves_no_snapshots(self, tmp_path):
        result = _run(tmp_path, "inline", telemetry_mode="off")
        assert result.telemetry is None
        assert not (tmp_path / "metrics.json").exists()
        with pytest.raises(FileNotFoundError):
            campaign_summary(tmp_path)


class TestCli:
    def test_telemetry_report_subcommand(self, tmp_path, capsys):
        _run(tmp_path, "inline")
        assert main(["telemetry-report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "sync.export" in out

    def test_telemetry_report_on_an_empty_root(self, tmp_path, capsys):
        assert main(["telemetry-report", str(tmp_path)]) == 2
        assert "no telemetry snapshots" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_is_a_usage_error(self, tmp_path, capsys, top):
        _write_root(tmp_path, _two_spans)
        assert main(["telemetry-report", str(tmp_path), "--top", top]) == 2
        captured = capsys.readouterr()
        assert "error: --top must be >= 1" in captured.err
        assert captured.out == ""

    def test_top_limits_the_span_rows(self, tmp_path, capsys):
        _write_root(tmp_path, _two_spans)
        assert main(["telemetry-report", str(tmp_path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "case.slow" in out and "case.fast" not in out

    def test_fuzz_cli_accepts_the_telemetry_flag(self, tmp_path, capsys):
        code = main(["--iterations", "20", "--seed", "3", "--workers", "2",
                     "--sync-every", "10", "--parallel-mode", "inline",
                     "--sync-dir", str(tmp_path), "--telemetry", "full"])
        assert code == 0
        assert "telemetry-report" in capsys.readouterr().out
        assert (tmp_path / "metrics.json").exists()
        assert (tmp_path / "events.jsonl").exists()


def _write_root(root, fill) -> None:
    """A campaign root holding one merged snapshot built by *fill*."""
    registry = MetricsRegistry()
    fill(registry)
    (root / METRICS_NAME).write_text(json.dumps(registry.snapshot()))


def _two_spans(registry) -> None:
    registry.observe("case.slow", 0.5)
    registry.observe("case.fast", 0.1)


class TestSummarySections:
    """The scheduler block, computed from a merged snapshot and rendered
    only when it holds something."""

    def test_sidecar_counter_forms_no_section(self, tmp_path):
        """A ``sync.delta_rejects`` counter an older snapshot carries is
        listed as a plain counter; there is no coverage-plane block."""
        def fill(registry):
            registry.counter("sync.delta_rejects", 2, shard=0)
            registry.counter("sync.delta_rejects", 3, shard=1)
        _write_root(tmp_path, fill)
        summary = campaign_summary(tmp_path)
        assert "coverage_plane" not in summary
        assert summary["counters"]["sync.delta_rejects"] == 5
        text = render_report(tmp_path)
        assert "coverage plane" not in text
        assert text.count("sync.delta_rejects") == 1

    def test_network_counters_form_no_section(self, tmp_path):
        """Counters a snapshot still carries under ``net.*`` are listed
        as plain counters; there is no network block any more."""
        def fill(registry):
            registry.counter("net.records_fetched", 7)
        _write_root(tmp_path, fill)
        summary = campaign_summary(tmp_path)
        assert set(summary) == {"root", "spans", "counters", "gauges",
                                "scheduler", "shards", "event_count"}
        assert summary["counters"]["net.records_fetched"] == 7
        text = render_report(tmp_path)
        assert "federation" not in text
        assert text.count("net.records_fetched") == 1

    def test_scheduler_block_holds_lease_counters(self, tmp_path):
        def fill(registry):
            registry.counter("sched.leases_issued", 6, shard=0)
            registry.counter("sched.leases_issued", 4, shard=1)
            registry.counter("sched.steals", 1, shard=1)
        _write_root(tmp_path, fill)
        assert campaign_summary(tmp_path)["scheduler"] == {
            "sched.leases_issued": 10, "sched.steals": 1}
        assert "\nscheduler\n" in render_report(tmp_path)

    def test_scheduler_block_ignores_a_sync_interval_gauge(self, tmp_path):
        # Adaptive sync is gone, so an old snapshot's interval gauge is
        # not a scheduler row.
        def fill(registry):
            registry.counter("sched.leases_issued", 2, shard=0)
            registry.gauge("sync.interval", 40, shard=0)
            registry.counter("pool.worker_reuse", 1, shard=0)
        _write_root(tmp_path, fill)
        assert campaign_summary(tmp_path)["scheduler"] == {
            "sched.leases_issued": 2}

    def test_scheduler_block_omitted_for_static_runs(self, tmp_path):
        _write_root(tmp_path,
                    lambda registry: registry.observe("case", 0.01, shard=0))
        assert campaign_summary(tmp_path)["scheduler"] == {}
        assert "\nscheduler\n" not in render_report(tmp_path)
