"""The top-level NecoFuzz campaign API.

``NecoFuzz`` wires the agent (target side) to the AFL++-style engine
(input side), seeds the corpus, and runs an iteration-budgeted campaign
while sampling the coverage timeline. This is the public entry point the
examples and benchmarks use:

    >>> from repro import NecoFuzz, Vendor
    >>> campaign = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=7)
    >>> result = campaign.run(iterations=200)
    >>> result.coverage_percent  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.timeline import CoverageTimeline
from repro.arch.cpuid import Vendor
from repro.core.agent import Agent, AgentConfig
from repro.core.executor import ComponentToggles
from repro.core.reports import CrashReport
from repro.fuzzer.crashes import CrashStore
from repro.fuzzer.engine import EngineStats, FuzzEngine
from repro.fuzzer.input import INPUT_SIZE, VM_STATE_REGION
from repro.fuzzer.rng import Rng
from repro.schedule import make_schedule
from repro.validator.golden import golden_vmcb, golden_vmcs
from repro.vmx.msr_caps import default_capabilities


def golden_seed(vendor: Vendor, rng: Rng | None = None) -> bytes:
    """A seed input whose VM-state region is the golden VM state.

    The other regions (mutation directives, harness choices, vCPU
    configuration) are filled with random bytes: they are *directive*
    bytes, and all-zero directives would degenerate to a single fixed
    behaviour until havoc slowly diversified them.
    """
    rng = rng or Rng(0)
    data = bytearray(rng.bytes(INPUT_SIZE))
    if vendor is Vendor.INTEL:
        image = golden_vmcs(default_capabilities()).serialize()
    else:
        image = golden_vmcb().serialize()
    # Pad or truncate to exactly the region size for both vendors: a
    # short image must not shrink the input below INPUT_SIZE through the
    # slice assignment, and a long one must not spill into the
    # mutation-directive region.
    start, end = VM_STATE_REGION
    size = end - start
    image = image[:size].ljust(size, b"\0")
    data[start:end] = image
    return bytes(data)


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    timeline: CoverageTimeline
    covered_lines: set
    instrumented_lines: set
    reports: list[CrashReport]
    engine_stats: EngineStats
    watchdog_restarts: int

    @property
    def coverage_fraction(self) -> float:
        """Cumulative covered fraction of instrumented lines."""
        if not self.instrumented_lines:
            return 0.0
        return len(self.covered_lines) / len(self.instrumented_lines)

    @property
    def coverage_percent(self) -> float:
        """Coverage as a percentage."""
        return 100.0 * self.coverage_fraction

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (f"coverage {self.coverage_percent:.1f}% "
                f"({len(self.covered_lines)}/{len(self.instrumented_lines)} lines), "
                f"{len(self.reports)} report(s), "
                f"{self.engine_stats.iterations} iterations, "
                f"{self.watchdog_restarts} watchdog restart(s)")


@dataclass
class NecoFuzz:
    """One configured NecoFuzz campaign."""

    hypervisor: str = "kvm"
    vendor: Vendor = Vendor.INTEL
    seed: int = 1
    toggles: ComponentToggles = field(default_factory=ComponentToggles)
    coverage_guided: bool = True
    patched: frozenset[str] = frozenset()
    runtime_iterations: int = 24
    #: §6.3 extension: asynchronous-event injection (off by default).
    async_events: bool = False
    iterations_per_hour: float = 10.0
    reports_dir: Path | None = None
    #: Optional saved corpus (``FuzzEngine.save_corpus`` layout) loaded
    #: on top of the built-in seeds, so a campaign can resume from a
    #: previous run's queue — or import a sync-partner's findings.
    corpus_dir: Path | None = None
    #: Forwarded to :class:`AgentConfig`: reuse built hypervisors across
    #: same-configuration cases (throughput over bit-for-bit defaults).
    reuse_hypervisor: bool = False
    #: Where deduplicated, minimized crash reproducers land. Defaults to
    #: ``corpus_dir/crashes`` when a corpus directory is set; None (with
    #: no corpus_dir) disables persistence — case isolation still counts
    #: and reports the exceptions.
    crash_dir: Path | None = None
    #: Seed scheduling (DESIGN.md §16): ``flat`` is the classic uniform
    #: draw, fingerprint-pinned to the historical behaviour; ``fast``
    #: enables AFLFast-style energy weighting, the operator bandit, and
    #: periodic corpus distillation. Deterministic either way.
    power_schedule: str = "flat"

    def __post_init__(self) -> None:
        self.agent = Agent(AgentConfig(
            hypervisor=self.hypervisor,
            vendor=self.vendor,
            toggles=self.toggles,
            patched=self.patched,
            runtime_iterations=self.runtime_iterations,
            async_events=self.async_events,
            reports_dir=self.reports_dir,
            reuse_hypervisor=self.reuse_hypervisor))
        rng = Rng(self.seed)
        schedule, bandit = make_schedule(self.power_schedule, rng)
        self.engine = FuzzEngine(
            execute=self.agent.execute_for_engine,
            rng=rng,
            coverage_guided=self.coverage_guided,
            schedule=schedule,
            bandit=bandit)
        # Corpus: a few golden-state seeds with distinct directive
        # regions, plus fully random inputs for raw diversity.
        for salt in range(3):
            self.engine.add_seed(golden_seed(self.vendor,
                                             rng.fork(salt + 1)))
        for _ in range(2):
            self.engine.add_seed(rng.bytes(INPUT_SIZE))
        if self.corpus_dir is not None and Path(self.corpus_dir).is_dir():
            self.engine.load_corpus(Path(self.corpus_dir))
        crash_dir = self.crash_dir
        if crash_dir is None and self.corpus_dir is not None:
            crash_dir = Path(self.corpus_dir) / "crashes"
        if crash_dir is not None:
            self.engine.crashes = CrashStore(
                Path(crash_dir), self.hypervisor, self.vendor.value,
                self.seed)

    def run(self, iterations: int, *, sample_every: int = 10) -> CampaignResult:
        """Run the campaign for *iterations* test cases."""
        label = f"NecoFuzz/{self.hypervisor}/{self.vendor.value}"
        timeline = CoverageTimeline(label, self.iterations_per_hour)
        for i in range(1, iterations + 1):
            self.engine.step()
            if i % sample_every == 0 or i == iterations:
                timeline.record(i, self.agent.coverage_fraction)
        return CampaignResult(
            timeline=timeline,
            covered_lines=self.agent.covered_lines(),
            instrumented_lines=set(self.agent.tracer.instrumented),
            reports=list(self.agent.reports.reports),
            engine_stats=self.engine.stats,
            watchdog_restarts=self.agent.watchdog.restarts)
