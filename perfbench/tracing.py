"""Per-case clocks and in-memory layer spans, installed from outside ``src/``.

:class:`Probe` patches the fuzzer's classes in place and restores them
on :meth:`Probe.uninstall`; the program's own code is never edited.

* Untraced, only ``FuzzEngine.step`` is wrapped: one clock pair per
  case, which gives the per-case latencies and the step end stamps the
  bug hunts read their seconds-to-bug from.
* Every stamp is read from :func:`clock`, the thread's CPU time: time
  the core spent on another process, or (with steal-time accounting) on
  another tenant's virtual CPU, never counts. On a core of its own the
  single-threaded fuzzer's CPU time is its wall time.
* Between cases, at most every ``CALIBRATE_EVERY_S``, the probe times a
  fixed reference loop. The machine this runs on shares its cores with
  other tenants, and its speed drifts by up to 2x over seconds to
  minutes; :class:`Normalizer` rescales every interval by the speed the
  surrounding calibrations measured, so times come out in seconds at
  the reference speed (``REFERENCE_S`` per loop).
* Traced, the public entry points of each layer are wrapped too. Each
  call records one span (name, start, end, parent) into flat arrays and
  a few counts taken from arguments and results. Spans stay in memory
  and are written out once the pass ends.

kcov instruments the hypervisors' nested modules by swapping function
code in place when an ``Agent`` is built. None of the wrapped functions
lives in those modules, and the traced pass only starts after the
untraced pass has built every campaign, so every target module is
already instrumented when the wrappers go in.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from bisect import bisect_right
from collections import Counter
from pathlib import Path

#: The clock of every stamp: this thread's CPU seconds.
clock = time.thread_time

#: Guest instructions that are VM entries.
ENTRY_MNEMONICS = frozenset({"vmlaunch", "vmresume", "vmrun"})

#: Longest stretch of workload between two calibrations.
CALIBRATE_EVERY_S = 0.02
#: Seconds of one reference loop on an uncontended core of the 2-CPU
#: x86-64 container this benchmark was written on (Python 3.11);
#: normalized times are seconds at that speed.
REFERENCE_S = 0.0003
#: Calibrations a normalization factor takes the median of, so one
#: interrupted loop does not skew the stretch around it.
SMOOTHING = 3

_MIX_TABLE = {index: (index * 7) & 63 for index in range(64)}


def _mix(a: int, b: int) -> int:
    return (a ^ b) & 63


def reference_loop(rounds: int = 50) -> int:
    """Fixed interpreter work: calls, dict lookups and integer
    arithmetic, with no allocation (every integer stays in the small-int
    cache), so its duration tracks the machine's speed and not the state
    of the fuzzer's heap."""
    total = 0
    table = _MIX_TABLE
    for outer in range(rounds):
        for inner in range(64):
            total = _mix(total, table[inner]) + (outer & 3)
    return total


class Normalizer:
    """Maps :func:`clock` stamps onto reference-speed seconds.

    Between two calibrations the machine is taken to run at the mean
    speed the two measured (each a running median of ``SMOOTHING``
    loops); time spent inside a calibration counts for nothing.
    ``normalizer(b) - normalizer(a)`` is the reference-speed length of
    ``[a, b]``.
    """

    def __init__(self, starts, ends) -> None:
        if not ends:
            raise ValueError("no calibration was recorded")
        self.starts, self.ends = list(starts), list(ends)
        raw = [end - start for start, end in zip(starts, ends)]
        half = SMOOTHING // 2
        loops = [statistics.median(raw[max(0, k - half):k + half + 1])
                 for k in range(len(raw))]
        self.factors = [2 * REFERENCE_S / (a + b)
                        for a, b in zip(loops, loops[1:])] or [REFERENCE_S / loops[0]]
        self.offsets = [0.0]
        for k, factor in enumerate(self.factors[:-1]):
            self.offsets.append(self.offsets[-1]
                                + (self.starts[k + 1] - self.ends[k]) * factor)

    def __call__(self, stamp: float) -> float:
        k = min(max(bisect_right(self.ends, stamp) - 1, 0), len(self.factors) - 1)
        elapsed = stamp - self.ends[k]
        if k + 1 < len(self.starts):
            elapsed = min(elapsed, self.starts[k + 1] - self.ends[k])
        return self.offsets[k] + elapsed * self.factors[k]

    def span(self, start: float, end: float) -> float:
        return self(end) - self(start)

    def factor_at(self, stamp: float) -> float:
        """Reference seconds per second of the stretch holding *stamp*."""
        k = min(max(bisect_right(self.ends, stamp) - 1, 0), len(self.factors) - 1)
        return self.factors[k]


def _targets():
    """(span name, owner, attribute) of every traced layer boundary."""
    from repro.core import agent
    from repro.core.adapters import KvmAdapter, VboxAdapter, XenAdapter
    from repro.core.detectors import AnomalyDetector
    from repro.core.harness import VmExecutionHarness
    from repro.core.state_generator import VmcbStateGenerator, VmStateGenerator
    from repro.core.vcpu_config import VcpuConfigurator
    from repro.coverage.bitmap import CoverageBitmap, VirginMap
    from repro.coverage.kcov import KcovTracer
    from repro.cpu.physical_cpu import VmxCpu
    from repro.cpu.svm_cpu import SvmCpu
    from repro.fuzzer.engine import FuzzEngine
    from repro.fuzzer.queue import SeedQueue
    from repro.hypervisors.kvm import KvmHypervisor
    from repro.hypervisors.vbox import VboxHypervisor
    from repro.hypervisors.xen import XenHypervisor
    from repro.validator.oracle import HardwareOracle
    from repro.validator.rounding import VmStateValidator
    from repro.validator.svm_validator import SvmHardwareOracle, VmcbValidator

    return [
        ("fuzzer.input", FuzzEngine, "_next_input"),
        ("fuzzer.fold.virgin", VirginMap, "has_new_bits"),
        ("fuzzer.fold.queue", SeedQueue, "add_finding"),
        ("agent.run_case", agent.Agent, "run_case"),
        ("agent.configure", VcpuConfigurator, "generate"),
        ("agent.generator_lookup", agent.Agent, "_generator_for"),
        ("agent.generator_build", agent, "state_generator_for"),
        ("stategen.generate", VmStateGenerator, "generate"),
        ("stategen.generate", VmcbStateGenerator, "generate"),
        ("validator.round", VmStateValidator, "round_to_valid"),
        ("validator.round", VmcbValidator, "round_to_valid"),
        ("validator.oracle", HardwareOracle, "verify"),
        ("validator.oracle", SvmHardwareOracle, "verify"),
        ("harness.init", VmExecutionHarness, "run_init_phase"),
        ("harness.vmwrite_storm", VmExecutionHarness, "_write_vmcs_fields"),
        ("harness.runtime", VmExecutionHarness, "run_runtime_phase"),
        ("hypervisors.build", KvmAdapter, "build"),
        ("hypervisors.build", XenAdapter, "build"),
        ("hypervisors.build", VboxAdapter, "build"),
        ("hypervisors.execute", KvmHypervisor, "execute"),
        ("hypervisors.execute", XenHypervisor, "execute"),
        ("hypervisors.execute", VboxHypervisor, "execute"),
        ("cpu.entry", VmxCpu, "vmlaunch"),
        ("cpu.entry", VmxCpu, "vmresume"),
        ("cpu.entry", SvmCpu, "vmrun"),
        ("coverage.drain", KcovTracer, "drain"),
        ("coverage.bitmap", CoverageBitmap, "record_trace"),
        ("detectors.scan", AnomalyDetector, "scan"),
    ]


class Probe:
    """Step clock plus, when *traced*, the layer spans."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        #: Per-case wall seconds and end stamps, one per FuzzEngine.step.
        self.durations = array("d")
        self.ends = array("d")
        self.cal_starts = array("d")
        self.cal_ends = array("d")
        self._next_calibration = 0.0
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.stops = array("d")
        self.parents = array("q")
        self.span_names = array("H")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object, bool]] = []

    # --- install / uninstall ------------------------------------------------

    def install(self) -> None:
        from repro.core.harness import VmExecutionHarness
        from repro.fuzzer.engine import FuzzEngine

        if self.traced:
            self._install_spans()
            self._patch(VmExecutionHarness, "_exec", self._count_instruction)
        # The step clock goes on last, outermost: calibrations then run
        # outside every span and every case's clock pair.
        self._patch(FuzzEngine, "step", self._timed_step)

    def _install_spans(self) -> None:
        from repro.fuzzer.engine import FuzzEngine

        self._patch(FuzzEngine, "step", lambda fn: self._span("case", fn))
        observers = {
            "stategen.generate": self._observe_state,
            "cpu.entry": self._observe_entry,
            "coverage.drain": self._observe_drain,
        }
        for name, owner, attr in _targets():
            if name == "hypervisors.execute":
                self._patch(owner, attr, self._execute_span)
            else:
                self._patch(owner, attr, lambda fn, name=name: self._span(
                    name, fn, observers.get(name)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, make(original))

    # --- calibration ------------------------------------------------------------

    def calibrate(self) -> None:
        start = clock()
        reference_loop()
        end = clock()
        self.cal_starts.append(start)
        self.cal_ends.append(end)
        self._next_calibration = end + CALIBRATE_EVERY_S

    def normalizer(self) -> Normalizer:
        return Normalizer(self.cal_starts, self.cal_ends)

    # --- marks: drop what a canary recorded ----------------------------------

    def mark(self) -> tuple:
        return (len(self.durations), len(self.starts), Counter(self.counts))

    def rewind(self, mark: tuple) -> None:
        cases, spans, counts = mark
        del self.durations[cases:]
        del self.ends[cases:]
        for column in (self.starts, self.stops, self.parents, self.span_names):
            del column[spans:]
        # In place: the wrappers hold this Counter.
        self.counts.clear()
        self.counts.update(counts)

    # --- wrappers -----------------------------------------------------------

    def _timed_step(self, step):
        durations, ends, now = self.durations, self.ends, clock

        def timed_step(engine):
            if now() >= self._next_calibration:
                self.calibrate()
            start = now()
            try:
                return step(engine)
            finally:
                end = now()
                durations.append(end - start)
                ends.append(end)
        return timed_step

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span(self, name: str, fn, observe=None):
        span_id = self._name_id(name)
        starts, stops, parents = self.starts, self.stops, self.parents
        span_names, stack, now = self.span_names, self._stack, clock

        def traced(*args, **kwargs):
            start = now()
            index = len(starts)
            starts.append(start)
            stops.append(0.0)
            parents.append(stack[-1])
            span_names.append(span_id)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stops[index] = now()
                stack.pop()
            if observe is not None:
                observe(result)
            return result
        return traced

    def _execute_span(self, fn):
        """``L0Hypervisor.execute``: VM entries get their own span name."""
        plain = self._span("hypervisors.execute", fn)
        entry = self._span("hypervisors.execute.entry", fn)

        def execute(hv, vcpu, instr):
            if instr.mnemonic in ENTRY_MNEMONICS:
                return entry(hv, vcpu, instr)
            return plain(hv, vcpu, instr)
        return execute

    def _count_instruction(self, fn):
        counts = self.counts

        def exec_instruction(harness, hv, vcpu, instr, stats):
            counts["harness.instructions"] += 1
            if instr.mnemonic == "vmwrite":
                counts["harness.vmwrites"] += 1
            return fn(harness, hv, vcpu, instr, stats)
        return exec_instruction

    def _observe_state(self, result) -> None:
        meta = result[1]
        self.counts["validator.corrections"] += meta.rounding_corrections
        if meta.oracle_entered is not None:
            self.counts["validator.oracle_runs"] += 1
            self.counts["validator.oracle_entered"] += bool(meta.oracle_entered)

    def _observe_entry(self, outcome) -> None:
        self.counts["cpu.entries"] += 1
        self.counts["cpu.entry_failures"] += not outcome.entered

    def _observe_drain(self, result) -> None:
        self.counts["coverage.edges"] += len(result[1])

    # --- analysis -------------------------------------------------------------

    def span_table(self) -> dict[str, dict]:
        """Per span name: call count, inclusive and self seconds at
        reference speed.

        A span's self time is its duration minus the time its direct
        child spans cover (children never overlap: one thread).
        """
        normalizer = self.normalizer()
        durations = [normalizer.span(start, stop)
                     for start, stop in zip(self.starts, self.stops)]
        child = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[index]
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        for index, duration in enumerate(durations):
            row = table[self.names[self.span_names[index]]]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[index]
        return table

    def write(self, path: Path) -> None:
        """Write the spans: ``path`` holds the four columns back to back
        (float64 start, float64 end, int64 parent, uint16 name id), and
        ``path.json`` their length and the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            for column in (self.starts, self.stops, self.parents,
                           self.span_names):
                column.tofile(out)
        header = {"spans": len(self.starts), "names": self.names,
                  "columns": ["start:f8", "end:f8", "parent:i8", "name:u2"],
                  "parent_none": -1}
        Path(f"{path}.json").write_text(json.dumps(header) + "\n")
