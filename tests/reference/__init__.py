"""Reference implementations the production hot path is pinned against.

Production has one configuration: the AST-marker kcov tracer
(:class:`repro.coverage.kcov.KcovTracer`) plus the incremental,
record-and-replay hot path (:mod:`repro.perf`, the entry-check memo and
the harness's vmwrite-storm replay). The slower reference each
optimisation must equal lives here, in the tests only:

* :func:`full_recompute` bypasses every memo, merge cache and published
  copy, so each check, rounding pass and VMCS02/VMCB02 merge runs from
  scratch (tests/unit/test_incremental_equivalence.py);
* :func:`per_write_storm` sends every vmwrite of the init-phase storm
  through the L0 model (tests/core/test_harness.py);
* :class:`SettraceTracer` collects coverage with a ``sys.settrace``
  line tracer instead of compiled markers
  (tests/integration/test_tracer_equivalence.py). Its events cannot be
  replayed from a recorded slice, so it must run inside both context
  managers above; :func:`settrace_reference` enters all three.
"""

from __future__ import annotations

import sys
from contextlib import ExitStack, contextmanager
from types import FrameType, ModuleType
from typing import Iterable, Iterator
from unittest import mock

from repro import perf
from repro.coverage import kcov
from repro.cpu.entry_checks import IncrementalChecker, check_all
from repro.hypervisors.kvm import KvmHypervisor
from repro.hypervisors.vbox import VboxHypervisor
from repro.hypervisors.xen import XenHypervisor

Line = kcov.Line

#: The L0 models with an Intel vmwrite storm.
INTEL_MODELS = (KvmHypervisor, XenHypervisor, VboxHypervisor)


def _memoized_check(struct, key, compute):
    return compute()


def _memoized_fixpoint(struct, key, run):
    return run()


def _merge_state(state, src, *, build, controls, state_fields,
                 control_inputs):
    merged = build()
    controls(merged)
    if state is not None:
        state.merge_cache = None
    return merged


def _publish_merged(merged, warm=None):
    return merged


def _check_all(self, vmcs, msr_entries=None):
    return check_all(vmcs, self.caps, msr_entries)


@contextmanager
def full_recompute() -> Iterator[None]:
    """Run the hot path with nothing memoized, cached or replayed.

    Patches :func:`repro.perf.memoized_check` and
    :func:`~repro.perf.memoized_fixpoint` to call straight through,
    :func:`~repro.perf.merge_state` to build the merged structure from
    scratch every time (dropping any cache), :func:`~repro.perf.publish_merged`
    to install the merged structure itself, and
    ``IncrementalChecker.check_all`` to the module-level ``check_all``.
    """
    with ExitStack() as stack:
        for name, fn in (("memoized_check", _memoized_check),
                         ("memoized_fixpoint", _memoized_fixpoint),
                         ("merge_state", _merge_state),
                         ("publish_merged", _publish_merged)):
            stack.enter_context(mock.patch.object(perf, name, fn))
        stack.enter_context(
            mock.patch.object(IncrementalChecker, "check_all", _check_all))
        yield


@contextmanager
def per_write_storm(*models: type) -> Iterator[None]:
    """Send every vmwrite of the init-phase storm through the L0 model.

    With no current VMCS12 to write into, the harness cannot replay the
    storm and falls back to one ``vmwrite`` per field. *models* default
    to every Intel model.
    """
    with ExitStack() as stack:
        for model in models or INTEL_MODELS:
            stack.enter_context(mock.patch.object(
                model, "current_vmcs12", lambda self, vcpu: None))
        yield


@contextmanager
def settrace_reference() -> Iterator[None]:
    """The hot-path configuration a :class:`SettraceTracer` needs."""
    with full_recompute(), per_write_storm():
        yield


class SettraceTracer:
    """Line coverage of the target modules through ``sys.settrace``.

    The interface the agent uses of :class:`repro.coverage.kcov.KcovTracer`
    (``instrumented``, ``start``/``stop`` or ``with``, ``drain``,
    ``coverage_fraction``), collected by a global trace function for
    the whole test case instead of compiled markers: one Python callback
    per function call anywhere in the interpreter, plus one per executed
    line in target code. It does not register as the active kcov
    tracer, so :func:`repro.coverage.kcov.event_sink` stays ``None``
    while it runs. Use it inside :func:`settrace_reference`.
    """

    def __init__(self, modules: Iterable[ModuleType]) -> None:
        self.modules = tuple(modules)
        self.instrumented: set[Line] = set()
        for module in self.modules:
            self.instrumented |= kcov.executable_lines(module)
        self._files = {m.__file__ for m in self.modules if m.__file__}
        self.run_lines: set[Line] = set()
        self.run_edges: set[tuple[Line, Line]] = set()
        self._prev: Line | None = None
        self._active = False

    def _record(self, cur: Line) -> None:
        self.run_lines.add(cur)
        if self._prev is not None:
            self.run_edges.add((self._prev, cur))
        self._prev = cur

    def _local_trace(self, frame: FrameType, event: str, arg):
        if event == "line":
            self._record((frame.f_code.co_filename, frame.f_lineno))
        return self._local_trace

    def _global_trace(self, frame: FrameType, event: str, arg):
        if event == "call" and frame.f_code.co_filename in self._files:
            self._record((frame.f_code.co_filename,
                          frame.f_code.co_firstlineno))
            return self._local_trace
        return None

    def start(self) -> None:
        if self._active:
            raise RuntimeError("tracer already active")
        self._active = True
        self._prev = None
        sys.settrace(self._global_trace)

    def stop(self) -> None:
        sys.settrace(None)
        self._active = False

    def __enter__(self) -> "SettraceTracer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def drain(self) -> tuple[set[Line], set[tuple[Line, Line]]]:
        lines, edges = self.run_lines, self.run_edges
        self.run_lines, self.run_edges = set(), set()
        self._prev = None
        return lines, edges

    coverage_fraction = kcov.KcovTracer.coverage_fraction
