"""Tests for the `python -m repro` command-line interface."""

from pathlib import Path

import pytest

from repro import NecoFuzz
from repro.__main__ import build_parser, main
from repro.core.adapters import adapter_for


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


class TestPatchedFlags:
    """Fix flags the chosen model does not read are rejected up front
    instead of fuzzing an unpatched model."""

    @pytest.mark.parametrize("argv", [
        ["--patched", "bogus_flag", "--iterations", "1"],
        ["--hypervisor", "kvm", "--patched", "vgif_inject",
         "--iterations", "1"],
    ], ids=["unknown", "other-model"])
    def test_rejected(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: --patched" in err
        assert "cr4_pae_consistency" in err  # the valid flags are named

    def test_library_rejects_unknown_flag(self):
        with pytest.raises(ValueError, match="bogus"):
            NecoFuzz(patched=frozenset({"bogus"}))

    @pytest.mark.parametrize("hypervisor,flags", [
        ("kvm", {"cr4_pae_consistency", "dummy_root"}),
        ("xen", {"activity_state_sanitize", "avic_sanitize", "vgif_inject"}),
        ("virtualbox", {"canonical_msr_check"}),
    ])
    def test_table6_flags_accepted(self, hypervisor, flags):
        adapter = adapter_for(hypervisor, frozenset(flags))
        assert adapter.patched == flags


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

    def test_removed_reuse_hypervisor_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--reuse-hypervisor"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--coordinator", "unix:/nonexistent/neco.sock"],
        ["--node", "unix:/nonexistent/neco.sock"],
        ["--transport-timeout", "5"],
    ], ids=["coordinator", "node", "transport-timeout"])
    def test_removed_federation_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--workers", "2", "--sync-format", "v1"],
    ["--workers", "2", "--sync-format", "v2"],
], ids=["v1", "v2"])
def test_removed_sync_format_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestFlagConflicts:
    """Flags that only make sense together exit 2 naming the conflict."""

    @pytest.mark.parametrize("argv,message", [
        (["--schedule", "stealing"], "--schedule stealing needs --workers"),
        (["--checkpoint-interval", "5", "--workers", "2"],
         "need a persistent --sync-dir"),
        (["--checkpoint-interval", "5", "--sync-dir", "{tmp}"],
         "checkpoint/resume applies to parallel campaigns"),
    ], ids=["stealing-one-worker", "checkpoint-without-sync-dir",
            "checkpoint-one-worker"])
    def test_rejected_with_reason(self, argv, message, tmp_path, capsys):
        sync_dir = tmp_path / "sync"
        assert main([a.format(tmp=sync_dir) for a in argv]) == 2
        assert not sync_dir.exists()
        err = capsys.readouterr().err
        assert message in err
        assert "coordinator" not in err
