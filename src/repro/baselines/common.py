"""Shared plumbing for baseline fuzzers and test suites.

Every baseline measures coverage exactly the way NecoFuzz does — same
tracer, same instrumented-line universe — so that Table-2/Table-4 set
algebra is well defined across tools.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.timeline import CoverageTimeline
from repro.arch.cpuid import Vendor
from repro.arch.exceptions import HostCrash
from repro.core.detectors import Anomaly, AnomalyDetector, Watchdog
from repro.core.necofuzz import CampaignResult
from repro.coverage.kcov import KcovTracer
from repro.fuzzer.engine import EngineStats
from repro.hypervisors.base import L0Hypervisor, VmCrash


@dataclass
class BaselineHarness:
    """Coverage/anomaly scaffolding one baseline drives test cases through."""

    name: str
    vendor: Vendor
    hypervisor_class: type
    tracer: KcovTracer = field(init=False)
    detector: AnomalyDetector = field(default_factory=AnomalyDetector)
    watchdog: Watchdog = field(default_factory=Watchdog)
    #: Cumulative covered kcov line ids.
    covered_ids: set = field(default_factory=set)
    anomalies: list[Anomaly] = field(default_factory=list)
    cases: int = 0

    def __post_init__(self) -> None:
        self.tracer = KcovTracer(
            self.hypervisor_class.nested_modules(self.vendor))

    def run_case(self, hv: L0Hypervisor, case) -> None:
        """Run one scripted case (callable taking the hypervisor)."""
        self.cases += 1
        with self.tracer:
            try:
                case(hv)
            except HostCrash as crash:
                self.anomalies.append(
                    self.watchdog.handle_host_crash(hv, str(crash)))
            except VmCrash as crash:
                self.anomalies.append(
                    self.watchdog.handle_vm_crash(hv, str(crash)))
        ids, _ = self.tracer.drain()
        self.covered_ids |= ids
        self.anomalies.extend(self.detector.scan(hv))

    @property
    def coverage_fraction(self) -> float:
        """Cumulative covered fraction of instrumented lines."""
        return self.tracer.coverage_fraction(self.covered_ids)

    def result(self, timeline: CoverageTimeline | None = None) -> CampaignResult:
        """Package the harness state as a CampaignResult."""
        if timeline is None:
            timeline = CoverageTimeline(self.name)
            timeline.record(self.cases, self.coverage_fraction)
        stats = EngineStats(iterations=self.cases)
        return CampaignResult(
            timeline=timeline,
            covered_lines=self.tracer.covered_lines(self.covered_ids),
            instrumented_lines=set(self.tracer.instrumented),
            reports=[],
            engine_stats=stats,
            watchdog_restarts=self.watchdog.restarts)
