"""Federated campaigns: the stealing scheduler over the socket transport.

:class:`FederatedCampaign` is the transport-backed sibling of
``ParallelCampaign(schedule="stealing")``: the same worker set, the same
lease board, the same merge — but leases are served and corpus records
replicated by a :class:`~repro.parallel.transport.coordinator.Coordinator`
over a real socket instead of a shared filesystem. Because the BSP
protocol reproduces the inline stealing loop's observable schedule
exactly (see the coordinator module docstring), a federated campaign
with a fixed ``lease_size`` produces the **identical campaign
fingerprint** to the equivalent inline run — the acceptance pin the
chaos suite holds under every injected network fault.

Two deployment shapes share the class:

* **In-process** (default): node loops run in threads of this process,
  serialized around engine execution by one lock (the coverage tracer
  is process-global). This is what the tests and single-machine
  campaigns use; the sockets are real (AF_UNIX under the campaign root,
  or loopback TCP), so the transport code path is the production one.
* **External** (``external=True``, the ``repro --coordinator`` CLI
  mode): this process only runs the coordinator; nodes are separate
  ``repro --node <addr>`` processes that fetch their campaign config in
  the hello reply and drive themselves.
"""

from __future__ import annotations

import logging
import pickle
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults, telemetry
from repro.arch.cpuid import Vendor
from repro.core.executor import ComponentToggles
from repro.parallel.campaign import ParallelCampaign, ParallelCampaignResult
from repro.parallel.scheduler import FileLeaseBoard
from repro.parallel.transport.coordinator import (
    Coordinator,
    TransportError,
    default_local_address,
    parse_address,
)
from repro.parallel.transport.node import NodeClient, run_node
from repro.parallel.worker import CampaignWorker, WorkerSpec, worker_seed

log = logging.getLogger("repro.parallel.transport")


@dataclass
class FederatedCampaign:
    """One logical campaign spread across transport-connected nodes."""

    hypervisor: str = "kvm"
    vendor: Vendor = Vendor.INTEL
    seed: int = 1
    workers: int = 2
    #: Fixed cases per lease; 0 sizes adaptively (and gives up the
    #: fingerprint-equality guarantee, exactly like inline stealing).
    lease_size: int = 0
    #: Campaign root (board, relay, reports, telemetry); a temporary
    #: directory when None.
    sync_dir: Path | None = None
    subsumption_filter: bool = True
    #: Ship virgin-map coverage deltas each round so the coordinator can
    #: elide relay records the receiver's own filter would reject
    #: (DESIGN.md §15). Off reproduces the pure record-replay plane;
    #: both settings yield the identical campaign fingerprint.
    delta_plane: bool = True
    toggles: ComponentToggles = field(default_factory=ComponentToggles)
    coverage_guided: bool = True
    patched: frozenset = frozenset()
    runtime_iterations: int = 24
    async_events: bool = False
    iterations_per_hour: float = 10.0
    reuse_hypervisor: bool = False
    #: Seed scheduling inside every node's workers (DESIGN.md §16);
    #: forwarded through the inner campaign, so external nodes receive
    #: it in their config payload.
    power_schedule: str = "flat"
    #: Endpoint: an address tuple, an ``"addr:port"`` / ``"unix:/path"``
    #: string, or None for AF_UNIX under the campaign root (loopback
    #: TCP where AF_UNIX is unavailable or the socket path too long).
    address: tuple | str | None = None
    #: Per-RPC reply timeout; also the resend period for barrier ops.
    transport_timeout: float = 5.0
    #: Silence budget before a node is expired and its leases
    #: reclaimed. Keep it comfortably above the longest expected
    #: partition; 0 disables expiry.
    node_ttl: float = 300.0
    heartbeat_interval: float = 0.5
    #: Coordinator only; nodes are separate ``repro --node`` processes.
    external: bool = False
    fault_plan: faults.FaultPlan | None = None
    telemetry_mode: str = "metrics"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.transport_timeout <= 0:
            raise ValueError("transport_timeout must be > 0")
        if self.external and self.address is None:
            raise ValueError("an external federation needs an explicit "
                             "address for its nodes to dial")
        # The inner campaign supplies _specs/_campaign_kwargs/_merge/
        # _finish_telemetry so federated and inline stealing campaigns
        # cannot drift apart.
        self._inner = ParallelCampaign(
            hypervisor=self.hypervisor, vendor=self.vendor, seed=self.seed,
            workers=self.workers, toggles=self.toggles,
            coverage_guided=self.coverage_guided, patched=self.patched,
            runtime_iterations=self.runtime_iterations,
            async_events=self.async_events,
            iterations_per_hour=self.iterations_per_hour,
            reuse_hypervisor=self.reuse_hypervisor,
            power_schedule=self.power_schedule,
            subsumption_filter=self.subsumption_filter,
            schedule="stealing", lease_size=self.lease_size,
            telemetry_mode=self.telemetry_mode)

    # ------------------------------------------------------------------

    def _resolve_address(self, root: Path) -> tuple:
        if self.address is None:
            return default_local_address(root)
        if isinstance(self.address, str):
            return parse_address(self.address)
        return self.address

    def _config_payload(self, sample_every: int) -> bytes:
        """The campaign config shipped to externally launched nodes."""
        return pickle.dumps({
            "seed": self.seed,
            "campaign_kwargs": self._inner._campaign_kwargs(),
            "sample_every": sample_every,
            "subsumption_filter": self.subsumption_filter,
            "delta_plane": self.delta_plane,
        })

    def run(self, iterations: int, *,
            sample_every: int = 10) -> ParallelCampaignResult:
        """Run the federated campaign for *iterations* total cases."""
        if self.sync_dir is not None:
            root = Path(self.sync_dir)
            root.mkdir(parents=True, exist_ok=True)
            return self._run_in(root, iterations, sample_every)
        with tempfile.TemporaryDirectory(prefix="necofuzz-fed-") as tmp:
            return self._run_in(Path(tmp), iterations, sample_every)

    def _run_in(self, root: Path, iterations: int,
                sample_every: int) -> ParallelCampaignResult:
        with telemetry.campaign_scope(self.telemetry_mode, root):
            plan = self.fault_plan
            if plan is not None and faults.active() is None:
                with faults.injected(plan):
                    return self._federate(root, iterations, sample_every)
            return self._federate(root, iterations, sample_every)

    def _federate(self, root: Path, iterations: int,
                  sample_every: int) -> ParallelCampaignResult:
        specs = self._inner._specs(iterations)
        board = FileLeaseBoard.create(root, iterations, len(specs),
                                      lease_size=self.lease_size)
        coordinator = Coordinator(
            root, board, len(specs), node_ttl=self.node_ttl,
            fault_plan=self.fault_plan,
            config_payload=(self._config_payload(sample_every)
                            if self.external else None),
            auto_stop=self.external)
        address = coordinator.start(self._resolve_address(root))
        log.info("federation coordinator serving %d node(s) at %s",
                 len(specs), address)
        try:
            if self.external:
                coordinator.join()
            else:
                self._drive_local_nodes(address, specs, sample_every)
        finally:
            coordinator.stop()
        if coordinator.error is not None:
            raise TransportError(
                f"coordinator died: {coordinator.error}"
            ) from coordinator.error
        reports_by_node = coordinator.load_reports()
        missing = [spec.index for spec in specs
                   if spec.index not in reports_by_node]
        if missing:
            raise TransportError(
                f"federation finished without reports from node(s) "
                f"{missing}")
        reports = [reports_by_node[spec.index] for spec in specs]
        summary = board.summary()
        sched = {"schedule": "federated", "lease_log": summary["log"],
                 "steals": summary["steals"],
                 "reclaims": summary["reclaims"], "pool_reuse": 0}
        result = self._inner._merge(reports, None, sched)
        result.telemetry = self._inner._finish_telemetry(root, reports)
        return result

    def _drive_local_nodes(self, address: tuple, specs: list[WorkerSpec],
                           sample_every: int) -> None:
        """Run every node loop in a thread of this process.

        Workers are constructed sequentially in this thread (engine
        construction instruments modules and must not race), and one
        ``exec_lock`` serializes engine execution across node threads —
        the process-global coverage tracer admits one collector at a
        time. Network waits happen outside the lock, so a partitioned
        node never blocks its partners' fuzzing.
        """
        workers = [CampaignWorker(spec, self._inner._campaign_kwargs(),
                                  sample_every=sample_every, sync=None)
                   for spec in specs]
        exec_lock = threading.Lock()
        errors: dict[int, BaseException] = {}

        def drive(worker: CampaignWorker) -> None:
            client = NodeClient(
                address, worker.spec.index,
                timeout=self.transport_timeout,
                heartbeat_interval=self.heartbeat_interval,
                fault_plan=self.fault_plan)
            try:
                run_node(client, worker,
                         subsumption_filter=self.subsumption_filter,
                         exec_lock=exec_lock,
                         delta_plane=self.delta_plane)
            except BaseException as exc:
                errors[worker.spec.index] = exc
                log.exception("federated node %d failed",
                              worker.spec.index)
            finally:
                client.close()

        threads = [threading.Thread(target=drive, args=(worker,),
                                    name=f"necofuzz-node-{worker.spec.index}")
                   for worker in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            index = sorted(errors)[0]
            raise TransportError(
                f"federated node {index} failed: {errors[index]}"
            ) from errors[index]


def run_federated_node(address: tuple | str, *, timeout: float = 5.0,
                       heartbeat_interval: float = 1.0,
                       fault_plan: faults.FaultPlan | None = None):
    """One externally launched node (the ``repro --node`` CLI mode).

    Dials the coordinator, fetches the campaign config in the hello
    reply (seed, engine kwargs, sampling), builds its worker, and runs
    the standard node protocol to completion. Returns the worker's
    final report (which the coordinator also persisted).
    """
    addr = parse_address(address) if isinstance(address, str) else address
    client = NodeClient(addr, None, timeout=timeout,
                        heartbeat_interval=heartbeat_interval,
                        fault_plan=fault_plan)
    try:
        reply, raw = client.hello(want_config=True)
        if reply.get("status") != "ok":
            raise TransportError(
                f"coordinator refused this node (status="
                f"{reply.get('status')!r})")
        if not raw:
            raise TransportError(
                "coordinator sent no campaign config; was it started "
                "with --coordinator?")
        config = pickle.loads(raw)
        client.node = reply["node"]
        spec = WorkerSpec(index=client.node,
                          seed=worker_seed(config["seed"], client.node),
                          iterations=0)
        worker = CampaignWorker(
            spec, config["campaign_kwargs"],
            sample_every=config.get("sample_every", 10), sync=None)
        return run_node(
            client, worker,
            subsumption_filter=config.get("subsumption_filter", True),
            delta_plane=config.get("delta_plane", True))
    finally:
        client.close()
