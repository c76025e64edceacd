"""The agent program (paper §4.1/§4.5) — the campaign's central coordinator.

For each test case the agent: builds the vCPU configuration and the
configured L0 hypervisor (through the adapter), embeds the fuzzing input
into a fresh executor, runs the executor under the coverage tracer,
harvests kcov lines into the AFL bitmap and the cumulative line set,
scans for anomalies, and saves crash reports. Host crashes are absorbed
by the watchdog, which restarts the hypervisor and keeps fuzzing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.arch.cpuid import Vendor
from repro.arch.exceptions import HostCrash
from repro.core.adapters import adapter_for
from repro.core.detectors import Anomaly, AnomalyDetector, Watchdog
from repro.core.executor import ComponentToggles, ExecutorResult, UefiExecutor
from repro.core.reports import CrashReport, ReportStore
from repro.core.state_generator import state_generator_for
from repro.core.vcpu_config import VcpuConfigurator
from repro.coverage.bitmap import CoverageBitmap
from repro.coverage.kcov import KcovTracer, line_ids
from repro.fuzzer.engine import RunFeedback
from repro.fuzzer.input import FuzzInput
from repro.hypervisors.base import VmCrash
from repro.vmx.msr_caps import default_capabilities


@dataclass
class AgentConfig:
    """Static configuration of one fuzzing campaign."""

    hypervisor: str = "kvm"
    vendor: Vendor = Vendor.INTEL
    toggles: ComponentToggles = field(default_factory=ComponentToggles)
    patched: frozenset[str] = frozenset()
    runtime_iterations: int = 24
    #: §6.3 extension: asynchronous-event injection (off by default).
    async_events: bool = False
    reports_dir: Path | None = None


@dataclass
class CaseOutcome:
    """One test case's full outcome (RunFeedback plus agent-side data)."""

    feedback: RunFeedback
    anomalies: list[Anomaly]
    executor_result: ExecutorResult | None
    command_line: str


class Agent:
    """Coordinates fuzzer <-> fuzz-harness VM <-> L0 hypervisor."""

    def __init__(self, config: AgentConfig) -> None:
        self.config = config
        self.adapter = adapter_for(config.hypervisor, patched=config.patched)
        self.configurator = VcpuConfigurator(
            config.vendor, enabled=config.toggles.use_configurator)
        # The executor's validator reads the vCPU's own IA32_VMX_*
        # capability MSRs at runtime (§3.4), so each vCPU configuration
        # gets a generator for its capabilities. Generators are cached
        # by the whole feature map (``_config_key``), not by capability
        # set: feature maps that derive equal capabilities still get
        # separate generators, and oracle learning persists per map.
        self._generators: dict = {}
        self.state_generator = self._generator_for(
            VcpuConfigurator(config.vendor, enabled=False).generate(
                FuzzInput(bytes(2048))))
        hv_class = type(self.adapter.build(
            self.configurator.generate(FuzzInput(bytes(2048)))))
        self.tracer = KcovTracer(hv_class.nested_modules(config.vendor))
        self.detector = AnomalyDetector()
        self.watchdog = Watchdog()
        self.reports = ReportStore(config.reports_dir)
        #: Campaign-cumulative covered kcov line ids.
        self.covered_ids: set[int] = set()
        self.cases_run = 0
        #: Hot-path scratch state: one bitmap reused (reset, not
        #: reallocated) across cases, plus a per-configuration cache of
        #: the adapter command line.
        self._case_bitmap = CoverageBitmap()
        self._command_lines: dict = {}

    #: Bound on cached per-configuration generators (LRU eviction). The
    #: configurator can produce thousands of distinct feature maps; each
    #: generator owns a validator + oracle, so the cache must be capped.
    GENERATOR_CACHE_LIMIT = 64

    @staticmethod
    def _config_key(vcpu_config) -> tuple:
        """Cache key for one vCPU configuration's feature map."""
        return tuple(sorted(vcpu_config.features.items()))

    def _generator_for(self, vcpu_config, key: tuple | None = None):
        """The state generator for one vCPU configuration (cached, LRU).

        Dicts preserve insertion order, so popping and re-inserting the
        entry keeps the least recently used configuration first.
        """
        if key is None:
            key = self._config_key(vcpu_config)
        generator = self._generators.pop(key, None)
        if generator is None:
            generator = self._build_generator(vcpu_config)
            while len(self._generators) >= self.GENERATOR_CACHE_LIMIT:
                self._generators.pop(next(iter(self._generators)))
        self._generators[key] = generator
        return generator

    def _build_generator(self, vcpu_config):
        """Construct the state generator for one vCPU configuration."""
        if self.config.vendor is Vendor.INTEL:
            if self.config.hypervisor == "kvm":
                from repro.hypervisors.kvm.module import KvmModuleParams

                caps = KvmModuleParams.from_config(vcpu_config).l1_vmx_capabilities()
            else:
                from repro.vmx.msr_caps import capabilities_for_features

                caps = capabilities_for_features(vcpu_config.features)
        else:
            caps = default_capabilities()
        return state_generator_for(
            self.config.vendor, caps,
            use_validator=self.config.toggles.use_validator)

    @property
    def coverage_fraction(self) -> float:
        """Cumulative nested-code line coverage so far."""
        return self.tracer.coverage_fraction(self.covered_ids)

    def covered_lines(self) -> set:
        """Snapshot of the cumulative covered ``(file, line)`` set."""
        return self.tracer.covered_lines(self.covered_ids)

    def absorb_lines(self, lines) -> None:
        """Merge line coverage recorded by a sync partner.

        Used when the corpus-sync import filter skips executing a
        subsumed entry: the entry's shipped line set stands in for the
        lines a local execution would have produced.
        """
        self.covered_ids |= line_ids(lines)

    # ------------------------------------------------------------------

    def run_case(self, fuzz_input: FuzzInput) -> CaseOutcome:
        """Run one test case end to end.

        The returned feedback's bitmap is scratch state reused across
        cases: consume it before the next ``run_case`` call (the fuzz
        engine folds it into the virgin map immediately).
        """
        self.cases_run += 1
        faults.hook("agent.run_case")
        vcpu_config = self.configurator.generate(fuzz_input)
        key = self._config_key(vcpu_config)
        command_line = self._command_lines.get(key)
        if command_line is None:
            command_line = self.adapter.command_line(vcpu_config)
            if len(self._command_lines) >= self.GENERATOR_CACHE_LIMIT:
                self._command_lines.clear()
            self._command_lines[key] = command_line
        generator = self._generator_for(vcpu_config, key)
        vm_state = generator.generate(fuzz_input)

        executor = UefiExecutor(
            vendor=self.config.vendor,
            embedded_input=fuzz_input,
            state_generator=generator,
            toggles=self.config.toggles,
            runtime_iterations=self.config.runtime_iterations,
            async_events=self.config.async_events,
            pregenerated=vm_state)

        crash_anomalies: list[Anomaly] = []
        executor_result: ExecutorResult | None = None
        hv = None
        with self.tracer:
            try:
                hv = self.adapter.build(vcpu_config)
                executor_result = executor.run(hv)
            except HostCrash as crash:
                assert hv is not None
                crash_anomalies.append(
                    self.watchdog.handle_host_crash(hv, str(crash)))
            except VmCrash as crash:
                assert hv is not None
                crash_anomalies.append(
                    self.watchdog.handle_vm_crash(hv, str(crash)))
        ids, edges = self.tracer.drain()
        self.covered_ids |= ids

        bitmap = self._case_bitmap
        bitmap.reset()
        bitmap.record_trace(edges)

        anomalies = list(crash_anomalies)
        if hv is not None:
            anomalies.extend(self.detector.scan(hv))
        for anomaly in anomalies:
            if self.detector.is_new(anomaly):
                self.reports.save(CrashReport(
                    iteration=self.cases_run,
                    anomaly=anomaly,
                    fuzz_input=fuzz_input,
                    command_line=command_line,
                    hypervisor=self.config.hypervisor))

        feedback = RunFeedback(
            bitmap=bitmap,
            crashed=bool(crash_anomalies),
            anomaly=str(anomalies[0]) if anomalies else None,
            line_ids=ids)
        return CaseOutcome(feedback, anomalies, executor_result, command_line)

    def execute_for_engine(self, fuzz_input: FuzzInput) -> RunFeedback:
        """The callback handed to :class:`repro.fuzzer.FuzzEngine`."""
        return self.run_case(fuzz_input).feedback
