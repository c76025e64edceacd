"""Command-line interface: run NecoFuzz campaigns from a shell.

    $ python -m repro --hypervisor kvm --vendor intel --iterations 1000
    $ python -m repro --hypervisor xen --vendor amd --seed 23 \\
          --reports-dir ./findings
    $ python -m repro --hypervisor kvm --vendor intel --patched \\
          cr4_pae_consistency,dummy_root --iterations 500
    $ python -m repro telemetry-report ./campaign-root
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import ComponentToggles, NecoFuzz, Vendor


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for `python -m repro`."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NecoFuzz: fuzz nested virtualization via "
                    "fuzz-harness VMs (EuroSys '26 reproduction)")
    parser.add_argument("--hypervisor", choices=("kvm", "xen", "virtualbox"),
                        default="kvm", help="L0 hypervisor model to fuzz")
    parser.add_argument("--vendor", choices=("intel", "amd"), default="intel",
                        help="CPU vendor (virtualbox supports intel only)")
    parser.add_argument("--iterations", type=int, default=500,
                        help="fuzzing budget (test cases)")
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign seed (campaigns are deterministic)")
    parser.add_argument("--reports-dir", type=Path, default=None,
                        help="directory for crash reports (.json + .bin)")
    parser.add_argument("--patched", default="",
                        help="comma-separated fix flags to apply "
                             "(e.g. cr4_pae_consistency,dummy_root)")
    parser.add_argument("--no-harness-mutation", action="store_true",
                        help="ablation: fixed init/runtime templates")
    parser.add_argument("--no-validator", action="store_true",
                        help="ablation: disable the VM state validator")
    parser.add_argument("--no-configurator", action="store_true",
                        help="ablation: static default vCPU configuration")
    parser.add_argument("--blackbox", action="store_true",
                        help="disable coverage guidance (Table-5 mode)")
    parser.add_argument("--async-events", action="store_true",
                        help="enable the asynchronous-event extension")
    parser.add_argument("--sample-every", type=int, default=50,
                        help="coverage-timeline sampling interval")
    parser.add_argument("--workers", type=int, default=1,
                        help="shard the campaign across N synced workers "
                             "(1 = serial; see DESIGN.md)")
    parser.add_argument("--sync-every", type=int, default=100,
                        help="iterations each worker runs between corpus "
                             "sync points (workers > 1 only)")
    parser.add_argument("--parallel-mode", choices=("inline", "process"),
                        default="process",
                        help="inline = deterministic round-robin in one "
                             "process; process = one forked OS process "
                             "per worker")
    parser.add_argument("--schedule", choices=("static", "stealing"),
                        default="static",
                        help="static = fixed per-worker shares; stealing = "
                             "workers pull adaptively sized leases off a "
                             "shared board, and stragglers' leases are "
                             "reclaimed and re-issued (DESIGN.md §13)")
    parser.add_argument("--lease-size", type=int, default=0, metavar="CASES",
                        help="fixed cases per lease under --schedule "
                             "stealing; 0 (default) sizes leases from each "
                             "worker's measured cases/sec")
    parser.add_argument("--power-schedule", choices=("flat", "fast"),
                        default="flat",
                        help="seed scheduling (DESIGN.md §16): flat = the "
                             "classic uniform draw (default, fingerprint-"
                             "pinned); fast = AFLFast-style energy "
                             "weighting with a Thompson-sampling operator "
                             "bandit and periodic corpus distillation "
                             "(deterministic, different trajectories)")
    parser.add_argument("--sync-adaptive", action="store_true",
                        help="back off the corpus-sync interval "
                             "geometrically while the subsumption filter "
                             "absorbs >=90%% of imports; snap back to "
                             "--sync-every on new virgin bits")
    parser.add_argument("--sync-format", choices=("v1", "v2"), default="v2",
                        help="corpus wire format between workers: v2 = "
                             "binary append-only queue (default), v1 = "
                             "legacy per-entry files for pre-existing "
                             "sync directories")
    parser.add_argument("--reuse-hypervisor", action="store_true",
                        help="reuse built hypervisors across same-config "
                             "cases (faster, changes trajectories)")
    parser.add_argument("--corpus-dir", type=Path, default=None,
                        help="resume from a saved corpus directory "
                             "(serial campaigns only); crash reproducers "
                             "land in <corpus-dir>/crashes/")
    resilience = parser.add_argument_group(
        "resilience (DESIGN.md §9)")
    resilience.add_argument("--case-timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="per-case wall-clock deadline; in process "
                                 "mode a worker whose heartbeat goes stale "
                                 "past it is killed and restarted")
    resilience.add_argument("--max-restarts", type=int, default=3,
                            help="consecutive failures per shard before "
                                 "the circuit breaker opens (default 3)")
    resilience.add_argument("--checkpoint-interval", type=int, default=0,
                            metavar="ROUNDS",
                            help="sync rounds between campaign checkpoints "
                                 "(0 = off; needs --sync-dir)")
    resilience.add_argument("--resume", action="store_true",
                            help="continue an interrupted campaign from "
                                 "its checkpoints (needs --sync-dir)")
    resilience.add_argument("--sync-dir", type=Path, default=None,
                            metavar="DIR",
                            help="persistent sync/checkpoint root for "
                                 "parallel campaigns (default: a "
                                 "temporary directory)")
    federation = parser.add_argument_group("federation (DESIGN.md §14)")
    federation.add_argument(
        "--coordinator", default=None, metavar="ADDR",
        help="run a federated campaign: serve leases and relay corpus "
             "records at ADDR (host:port or unix:/path) to --workers "
             "externally launched 'python -m repro --node ADDR' nodes")
    federation.add_argument(
        "--node", default=None, metavar="ADDR",
        help="join a federated campaign as one node: dial the "
             "coordinator at ADDR, fetch the campaign config, fuzz "
             "until the shared budget drains")
    federation.add_argument(
        "--transport-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-RPC reply timeout (and barrier resend period) for "
             "the federation transport (default 5.0)")
    observability = parser.add_argument_group("observability (DESIGN.md §11)")
    observability.add_argument(
        "--telemetry", choices=("off", "metrics", "full"), default="metrics",
        help="off = near-zero overhead; metrics = in-process "
             "counters/histograms (default); full = metrics plus a "
             "JSONL event stream per worker. Purely observational: "
             "results are identical across modes")
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    """Parser for the ``telemetry-report`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro telemetry-report",
        description="Render a merged telemetry summary for a campaign "
                    "root (the --sync-dir of a finished run)")
    parser.add_argument("root", type=Path,
                        help="campaign root holding metrics.json (or "
                             "worker-*/metrics.json shard snapshots)")
    parser.add_argument("--top", type=int, default=12,
                        help="how many spans/counters to show (default 12)")
    return parser


def telemetry_report_main(argv: list[str]) -> int:
    """Entry point for ``python -m repro telemetry-report <root>``."""
    from repro.telemetry.report import render_report

    args = build_report_parser().parse_args(argv)
    try:
        print(render_report(args.root, top=args.top))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def node_main(args) -> int:
    """Entry point for ``python -m repro --node ADDR``."""
    from repro.parallel import TransportError, run_federated_node

    print(f"joining federation at {args.node}...")
    try:
        report = run_federated_node(args.node,
                                    timeout=args.transport_timeout)
    except (TransportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = report.result.engine_stats
    print(f"node {report.index} done: {stats.iterations} case(s), "
          f"{stats.crashes} crash(es), {stats.imported} import(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "telemetry-report":
        return telemetry_report_main(argv[1:])
    args = build_parser().parse_args(argv)
    for flag, bad, bound in (
            ("--iterations", args.iterations < 1, ">= 1"),
            ("--sample-every", args.sample_every < 1, ">= 1"),
            ("--sync-every", args.sync_every < 1, ">= 1"),
            ("--max-restarts", args.max_restarts < 0, ">= 0"),
            ("--checkpoint-interval", args.checkpoint_interval < 0, ">= 0"),
            ("--case-timeout",
             args.case_timeout is not None and args.case_timeout <= 0, "> 0"),
            ("--transport-timeout", args.transport_timeout <= 0, "> 0")):
        if bad:
            print(f"error: {flag} must be {bound}", file=sys.stderr)
            return 2
    if args.coordinator and args.node:
        print("error: --coordinator and --node are mutually exclusive "
              "(one process is one role)", file=sys.stderr)
        return 2
    if args.node is not None:
        return node_main(args)
    if args.coordinator is not None and args.workers < 1:
        print("error: --coordinator needs --workers >= 1 (how many nodes "
              "will dial in)", file=sys.stderr)
        return 2
    if args.coordinator is not None and (args.resume
                                         or args.checkpoint_interval):
        print("error: --resume/--checkpoint-interval do not apply to "
              "federated campaigns", file=sys.stderr)
        return 2
    if args.hypervisor == "virtualbox" and args.vendor != "intel":
        print("error: the VirtualBox model is Intel-only", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.workers > 1 and (args.reports_dir or args.corpus_dir):
        print("error: --reports-dir/--corpus-dir are serial-only "
              "(use --workers 1)", file=sys.stderr)
        return 2
    if (args.resume or args.checkpoint_interval) and args.sync_dir is None:
        print("error: --resume/--checkpoint-interval need a persistent "
              "--sync-dir", file=sys.stderr)
        return 2
    if (args.resume or args.checkpoint_interval) and args.workers == 1:
        print("error: checkpoint/resume applies to parallel campaigns "
              "(use --workers >= 2, or --corpus-dir for serial resume)",
              file=sys.stderr)
        return 2
    if args.schedule == "stealing" and args.workers == 1:
        print("error: --schedule stealing needs --workers >= 2 "
              "(one worker has nobody to steal from)", file=sys.stderr)
        return 2
    if args.lease_size < 0:
        print("error: --lease-size must be >= 0", file=sys.stderr)
        return 2
    if (args.lease_size and args.schedule != "stealing"
            and args.coordinator is None):
        print("error: --lease-size applies to --schedule stealing "
              "(or a federated --coordinator campaign)", file=sys.stderr)
        return 2

    toggles = ComponentToggles(
        use_harness=not args.no_harness_mutation,
        use_validator=not args.no_validator,
        use_configurator=not args.no_configurator)
    patched = frozenset(f for f in args.patched.split(",") if f)

    print(f"fuzzing {args.hypervisor}/{args.vendor} "
          f"(seed {args.seed}, {args.iterations} cases"
          + (f", {args.workers} workers" if args.workers > 1 else "")
          + ")...")
    if args.coordinator is not None:
        from repro.parallel import FederatedCampaign

        campaign = FederatedCampaign(
            hypervisor=args.hypervisor,
            vendor=Vendor(args.vendor),
            seed=args.seed,
            workers=args.workers,
            lease_size=args.lease_size,
            sync_dir=args.sync_dir,
            toggles=toggles,
            coverage_guided=not args.blackbox,
            patched=patched,
            async_events=args.async_events,
            reuse_hypervisor=args.reuse_hypervisor,
            power_schedule=args.power_schedule,
            address=args.coordinator,
            transport_timeout=args.transport_timeout,
            external=True,
            telemetry_mode=args.telemetry)
        print(f"federation coordinator at {args.coordinator}; start "
              f"{args.workers} node(s) with: python -m repro --node "
              f"{args.coordinator}")
    elif args.workers > 1:
        from repro.parallel import ParallelCampaign

        campaign = ParallelCampaign(
            hypervisor=args.hypervisor,
            vendor=Vendor(args.vendor),
            seed=args.seed,
            workers=args.workers,
            sync_every=args.sync_every,
            mode=args.parallel_mode,
            sync_dir=args.sync_dir,
            sync_format=args.sync_format,
            toggles=toggles,
            coverage_guided=not args.blackbox,
            patched=patched,
            async_events=args.async_events,
            reuse_hypervisor=args.reuse_hypervisor,
            case_timeout=args.case_timeout,
            max_restarts=args.max_restarts,
            checkpoint_interval=args.checkpoint_interval,
            resume=args.resume,
            telemetry_mode=args.telemetry,
            schedule=args.schedule,
            lease_size=args.lease_size,
            sync_adaptive=args.sync_adaptive,
            power_schedule=args.power_schedule)
    else:
        from repro import telemetry

        telemetry.set_mode(args.telemetry)
        campaign = NecoFuzz(
            hypervisor=args.hypervisor,
            vendor=Vendor(args.vendor),
            seed=args.seed,
            toggles=toggles,
            coverage_guided=not args.blackbox,
            patched=patched,
            async_events=args.async_events,
            reports_dir=args.reports_dir,
            corpus_dir=args.corpus_dir,
            reuse_hypervisor=args.reuse_hypervisor,
            power_schedule=args.power_schedule)
    result = campaign.run(args.iterations, sample_every=args.sample_every)

    for point in result.timeline.points:
        print(f"  {point.iteration:>7} cases  "
              f"{100 * point.coverage:5.1f}% nested-code coverage")
    print(result.summary())

    for report in result.reports:
        print(f"\n[{report.anomaly.method.value}] iteration {report.iteration}")
        print(f"  {report.anomaly.message}")
        print(f"  reproduce: {report.command_line}")
    if args.reports_dir and result.reports:
        print(f"\nreports written to {args.reports_dir}/")
    if args.workers > 1 and args.sync_dir is not None and args.telemetry != "off":
        print(f"telemetry: python -m repro telemetry-report {args.sync_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
