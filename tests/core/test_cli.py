"""Tests for the `python -m repro` command-line interface."""

from pathlib import Path

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.hypervisor == "kvm"
        assert args.vendor == "intel"
        assert args.iterations == 500

    def test_all_flags(self):
        args = build_parser().parse_args([
            "--hypervisor", "xen", "--vendor", "amd", "--iterations", "50",
            "--seed", "9", "--patched", "a,b", "--blackbox",
            "--no-validator", "--async-events"])
        assert args.hypervisor == "xen"
        assert args.patched == "a,b"
        assert args.blackbox and args.no_validator and args.async_events


class TestMain:
    def test_short_campaign(self, capsys):
        code = main(["--iterations", "25", "--seed", "2",
                     "--sample-every", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nested-code coverage" in out
        assert "coverage" in out

    def test_vbox_amd_rejected(self, capsys):
        code = main(["--hypervisor", "virtualbox", "--vendor", "amd"])
        assert code == 2

    def test_reports_dir(self, tmp_path: Path, capsys):
        code = main(["--iterations", "250", "--seed", "3",
                     "--reports-dir", str(tmp_path / "findings")])
        assert code == 0
        out = capsys.readouterr().out
        if "iteration" in out and (tmp_path / "findings").exists():
            assert list((tmp_path / "findings").iterdir())

    def test_patched_flags_applied(self, capsys):
        code = main(["--iterations", "250", "--seed", "3",
                     "--patched", "cr4_pae_consistency,dummy_root"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Assertion" not in out  # bug #3 silenced by dummy_root


class TestRangeChecks:
    """Out-of-range numeric flags exit 2 with an ``error:`` line instead
    of a traceback or a silently nonsensical campaign."""

    @pytest.mark.parametrize("argv", [
        ["--workers", "2", "--sync-every", "0"],
        ["--max-restarts", "-1"],
        ["--checkpoint-interval", "-1"],
        ["--iterations", "-5"],
        ["--case-timeout", "-1"],
        ["--sample-every", "0"],
    ], ids=["sync-every", "max-restarts", "checkpoint-interval",
            "iterations", "case-timeout", "sample-every"])
    def test_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_removed_batching_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--batch-size", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
