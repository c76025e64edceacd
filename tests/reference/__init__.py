"""Reference implementations the production hot path is pinned against.

Production has one configuration: the AST-marker kcov tracer
(:class:`repro.coverage.kcov.KcovTracer`) plus the incremental,
record-and-replay hot path (:mod:`repro.perf`, the entry-check memo and
the harness's vmwrite-storm replay). The slower reference each
optimisation must equal lives here, in the tests only:

* :func:`full_recompute` bypasses every memo, merge cache and published
  copy, so each check and VMCS02/VMCB02 merge runs from scratch
  (tests/unit/test_incremental_equivalence.py);
* :mod:`tests.reference.group_rounder` keeps the validator's three
  group routines as they were before one pass rounded all three groups:
  each group on a private copy of its own, committed with one
  ``Vmcs.write_many`` (tests/validator/test_one_pass_rounder.py);
* :func:`per_field_rounder` runs those routines with no private copy of
  the values: each correction is one ``Vmcs.read`` and one
  ``Vmcs.write`` as it is made (tests/validator/test_rounding.py);
* :func:`per_write_storm` sends every vmwrite of the init-phase storm
  through the L0 model (tests/core/test_harness.py);
* :class:`PerByteCursor` reads fuzz-input bytes one at a time, each
  wrapped on its own, instead of by slice (tests/fuzzer/test_input.py);
* :func:`execute_every_import` executes every synced partner entry
  instead of absorbing the ones whose coverage is already known
  (tests/parallel/test_protocol_equivalence.py);
* :func:`guest_state_copy` and :func:`save_area_copy` are the
  per-field loops the nested models ran before their group copies
  became one ``Vmcs``/``Vmcb.copy_fields`` call each, and
  :func:`checked_group_copies` checks every such call against them
  (tests/hypervisors/test_group_copies.py);
* :class:`SettraceTracer` collects coverage with a ``sys.settrace``
  line tracer instead of compiled markers
  (tests/integration/test_tracer_equivalence.py). Its events cannot be
  replayed from a recorded slice, so it must run inside both context
  managers above; :func:`settrace_reference` enters all three;
* :func:`tuple_drain` and :func:`record_tuple_trace` are the kcov drain
  and bitmap fill from before line ids: ``(file, line)`` events, pair
  tuples for edges and an LRU over tuple pairs for cells.
  :func:`checked_drains` checks every ``KcovTracer.drain`` and
  ``CoverageBitmap.record_trace`` against them
  (tests/coverage/test_id_equivalence.py);
* :mod:`tests.reference.object_entry_checks` keeps the VM-entry check
  units as they were before they decoded raw words: segments through
  ``Segment`` properties, interruption information through an
  ``InterruptionInfo`` decoded with a try/except, EPTPs through
  ``EptPointer``. Every public ``check_*`` is pinned equal to it
  (tests/cpu/test_object_check_equivalence.py).
"""

from __future__ import annotations

import collections
import sys
from contextlib import ExitStack, contextmanager
from functools import lru_cache
from itertools import islice
from types import FrameType, ModuleType
from typing import Iterable, Iterator
from unittest import mock

from repro import perf
from repro.core import harness
from repro.coverage import kcov
from repro.coverage.bitmap import (
    MAP_SIZE,
    CoverageBitmap,
    edge_index,
    stable_line_id,
)
from repro.cpu.entry_checks import IncrementalChecker, check_all
from repro.fuzzer.input import InputCursor
from repro.hypervisors.base import GuestInstruction
from repro.hypervisors.kvm import KvmHypervisor
from repro.hypervisors.vbox import VboxHypervisor
from repro.hypervisors.xen import XenHypervisor
from repro.parallel import sync
from repro.svm import fields as SF
from repro.svm.vmcb import Vmcb
from repro.validator.base import Correction
from repro.vmx import fields as VF
from repro.vmx.vmcs import Vmcs
from tests.reference import group_rounder

Line = kcov.Line

#: The L0 models with an Intel vmwrite storm.
INTEL_MODELS = (KvmHypervisor, XenHypervisor, VboxHypervisor)


def _memoized_check(struct, key, compute):
    return compute()


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

    Patches :func:`repro.perf.memoized_check` to call straight through,
    :func:`~repro.perf.merge_state` to build the merged structure from
    scratch every time (dropping any cache), :func:`~repro.perf.publish_merged`
    to install the merged structure itself, and
    ``IncrementalChecker.check_all`` to the module-level ``check_all``.
    """
    with ExitStack() as stack:
        for name, fn in (("memoized_check", _memoized_check),
                         ("merge_state", _merge_state),
                         ("publish_merged", _publish_merged)):
            stack.enter_context(mock.patch.object(perf, name, fn))
        stack.enter_context(
            mock.patch.object(IncrementalChecker, "check_all", _check_all))
        yield


class PerFieldRounder:
    """A group rounder with each correction written as it is made.

    Each ``force`` reads the field from the VMCS, looks its width and
    name up in the field table, writes a changed value straight back and
    records its ``Correction`` at once, so the VMCS's generation and
    journal advance one correction at a time. ``commit`` writes nothing
    more.
    """

    def __init__(self, vmcs: Vmcs) -> None:
        self.vmcs = vmcs
        self.corrections: list[Correction] = []
        self.changes: list = []

    def force(self, encoding: int, value: int, rule: str) -> None:
        before = self.vmcs.read(encoding)
        spec = VF.SPEC_BY_ENCODING[encoding]
        after = value & ((1 << spec.bits) - 1)
        if before != after:
            self.vmcs.write(encoding, after)
            self.corrections.append(Correction(spec.name, before, after, rule))
            self.changes.append((encoding, before, after, rule))

    def set_bits(self, encoding: int, bits: int, rule: str) -> None:
        self.force(encoding, self.vmcs.read(encoding) | bits, rule)

    def clear_bits(self, encoding: int, bits: int, rule: str) -> None:
        self.force(encoding, self.vmcs.read(encoding) & ~bits, rule)

    def read(self, encoding: int) -> int:
        return self.vmcs.read(encoding)

    def commit(self) -> list:
        return self.changes


@contextmanager
def per_field_rounder() -> Iterator[list[PerFieldRounder]]:
    """Run the reference group routines
    (:func:`tests.reference.group_rounder.round_to_valid`) with
    :class:`PerFieldRounder`.

    Yields the rounders in the order the routines made them: controls,
    host state and guest state for each rounding pass.
    """
    made: list[PerFieldRounder] = []

    def make(vmcs: Vmcs) -> PerFieldRounder:
        made.append(PerFieldRounder(vmcs))
        return made[-1]

    with mock.patch.object(group_rounder, "Rounder", make):
        yield made


def _per_write_storm(self, hv, vcpu, vm_state, stats) -> None:
    for encoding in harness.STORM_FIELDS:
        self._exec(hv, vcpu, GuestInstruction(
            "vmwrite", {"field": encoding, "value": vm_state.read(encoding)}),
            stats)


@contextmanager
def per_write_storm() -> Iterator[None]:
    """Send every vmwrite of the init-phase storm through the L0 model.

    Patches ``VmExecutionHarness._write_vmcs_fields`` to one ``_exec``
    per :data:`repro.core.harness.STORM_FIELDS` entry, whatever the
    writes return: nothing is replayed.
    """
    with mock.patch.object(harness.VmExecutionHarness, "_write_vmcs_fields",
                           _per_write_storm):
        yield


class PerByteCursor(InputCursor):
    """:class:`~repro.fuzzer.input.InputCursor` reading one byte at a
    time, each index wrapped on its own."""

    def _take(self, n: int) -> bytes:
        out = bytearray()
        for _ in range(n):
            out.append(self.data[self.offset % len(self.data)])
            self.offset += 1
        return bytes(out)

    def u8(self) -> int:
        return self._take(1)[0]


@contextmanager
def execute_every_import() -> Iterator[None]:
    """Turn corpus sync's subsumption filter off: every import executes.

    The per-record predicate is the only path that may consume a
    partner entry without executing it. Campaigns must reach the same
    fingerprint either way.
    """
    with mock.patch.object(sync, "record_subsumed",
                           lambda engine, record: False):
        yield


def guest_state_copy(dst: Vmcs, src: Vmcs) -> None:
    """Copy every guest-state field of *src* into *dst*, one
    ``write(read())`` per field in layout order."""
    for spec in VF.ALL_FIELDS:
        if spec.group is VF.FieldGroup.GUEST:
            dst.write(spec.encoding, src.read(spec.encoding))


def save_area_copy(dst: Vmcb, src: Vmcb) -> None:
    """Copy every save-area field of *src* into *dst*, one ``write``
    per field in layout order."""
    for spec, value in src.fields():
        if spec.area is SF.VmcbArea.SAVE:
            dst.write(spec.name, value)


@contextmanager
def checked_group_copies() -> Iterator[collections.Counter]:
    """Check each ``copy_fields`` call against the per-field loop.

    Every group copy in the nested models copies the whole guest-state
    (VMX) or save-area (SVM) group. Each call here also runs
    :func:`guest_state_copy` or :func:`save_area_copy`, which ignore the
    keys the call was given, and asserts that both leave the same bytes,
    generation and change journal: on a copy of the real destination,
    and on a copy of the source with every field changed, where a key
    missing from the group would show. Yields a counter of the calling
    functions' qualified names.

    The harness's vmwrite storm also calls ``Vmcs.copy_fields``, with
    the writable fields after the first rather than a group; that call
    runs unchecked and uncounted (:func:`per_write_storm` is its
    reference).
    """
    sites: collections.Counter = collections.Counter()
    storm = "VmExecutionHarness._write_vmcs_fields"

    def checked(reference, real):
        def copy_fields(self, src, keys):
            caller = sys._getframe(1).f_code.co_qualname
            if caller == storm:
                return real(self, src, keys)
            scrambled = src.copy()
            for key, value in list(scrambled._values.items()):
                scrambled.write(key, value ^ 1)
            for dst in (scrambled, self):
                expected = dst.copy()
                reference(expected, src)
                real(dst, src, keys)
                assert dst.serialize() == expected.serialize()
                assert (dst.generation, dst._log) == (expected.generation,
                                                      expected._log)
            sites[caller] += 1
        return copy_fields

    with ExitStack() as stack:
        for cls, reference in ((Vmcs, guest_state_copy),
                               (Vmcb, save_area_copy)):
            stack.enter_context(mock.patch.object(
                cls, "copy_fields", checked(reference, cls.copy_fields)))
        yield sites


def tuple_drain(events: list[Line]) -> tuple[set[Line],
                                             set[tuple[Line, Line]]]:
    """``KcovTracer.drain`` over ``(file, line)`` events: the line set
    and the set of consecutive pairs."""
    return set(events), set(zip(events, islice(events, 1, None)))


@lru_cache(maxsize=MAP_SIZE)
def tuple_edge_cell(edge: tuple[Line, Line]) -> int:
    """Bitmap cell of one ``((file, line), (file, line))`` edge."""
    (prev_file, prev_line), (cur_file, cur_line) = edge
    return edge_index(stable_line_id(prev_file, prev_line),
                      stable_line_id(cur_file, cur_line))


def record_tuple_trace(bitmap: CoverageBitmap, edges) -> None:
    """``CoverageBitmap.record_trace`` over tuple-pair edges."""
    counts = bitmap.counts
    for edge in edges:
        idx = tuple_edge_cell(edge)
        if counts[idx] < 255:
            counts[idx] += 1
        bitmap.touched.add(idx)


@contextmanager
def checked_drains() -> Iterator[list[int]]:
    """Check every drain and bitmap fill against the tuple path.

    Each ``KcovTracer.drain`` also maps its events to ``(file, line)``
    pairs and runs :func:`tuple_drain`; the id lines must map back to
    the same line set, and the edge keys to the same pair set. The next
    ``CoverageBitmap.record_trace`` of those edges is checked against
    :func:`record_tuple_trace` on a copy of the bitmap: same ``counts``,
    same ``touched``. Yields the list of checked edge counts, one per
    drain.
    """
    real_drain = kcov.KcovTracer.drain
    real_fill = CoverageBitmap.record_trace
    checked: list[int] = []
    last: list = [None, None]  # the last drain's edges and reference

    def drain(self):
        events = [kcov.line_of(i) for i in self._events]
        lines, edges = real_drain(self)
        ref_lines, ref_edges = tuple_drain(events)
        assert kcov.lines_of(lines) == ref_lines
        assert {tuple(map(kcov.line_of, kcov.split_edge(key)))
                for key in edges} == ref_edges
        assert len(edges) == len(ref_edges)
        last[:] = edges, ref_edges
        checked.append(len(edges))
        return lines, edges

    def record_trace(self, edges):
        if last[0] is not edges:
            return real_fill(self, edges)
        ref_edges = last[1]
        expected = CoverageBitmap()
        expected.counts[:] = self.counts
        expected.touched = set(self.touched)
        record_tuple_trace(expected, ref_edges)
        real_fill(self, edges)
        assert self.counts == expected.counts
        assert self.touched == expected.touched

    with mock.patch.object(kcov.KcovTracer, "drain", drain), \
            mock.patch.object(CoverageBitmap, "record_trace", record_trace):
        yield checked


@contextmanager
def settrace_reference() -> Iterator[None]:
    """The hot-path configuration a :class:`SettraceTracer` needs."""
    with full_recompute(), per_write_storm():
        yield


class SettraceTracer:
    """Line coverage of the target modules through ``sys.settrace``.

    The interface the agent uses of :class:`repro.coverage.kcov.KcovTracer`
    (``instrumented``, ``instrumented_ids``, ``start``/``stop`` or
    ``with``, ``drain``, ``coverage_fraction``, ``covered_lines``),
    collected by a global trace function for the whole test case instead
    of compiled markers: one Python callback per function call anywhere
    in the interpreter, plus one per executed line in target code, which
    appends the line's kcov id. It does not register as the active kcov
    tracer, so :func:`repro.coverage.kcov.event_sink` stays ``None``
    while it runs. Use it inside :func:`settrace_reference`.
    """

    def __init__(self, modules: Iterable[ModuleType]) -> None:
        self.modules = tuple(modules)
        self.instrumented: set[Line] = set()
        for module in self.modules:
            self.instrumented |= kcov.executable_lines(module)
        self.instrumented_ids = frozenset(
            kcov.line_id(path, line) for path, line in self.instrumented)
        self._files = {m.__file__ for m in self.modules if m.__file__}
        self._events: list[int] = []
        self._active = False

    def _local_trace(self, frame: FrameType, event: str, arg):
        if event == "line":
            self._events.append(kcov.line_id(frame.f_code.co_filename,
                                             frame.f_lineno))
        return self._local_trace

    def _global_trace(self, frame: FrameType, event: str, arg):
        if event == "call" and frame.f_code.co_filename in self._files:
            self._events.append(kcov.line_id(frame.f_code.co_filename,
                                             frame.f_code.co_firstlineno))
            return self._local_trace
        return None

    def start(self) -> None:
        if self._active:
            raise RuntimeError("tracer already active")
        self._active = True
        sys.settrace(self._global_trace)

    def stop(self) -> None:
        sys.settrace(None)
        self._active = False

    def __enter__(self) -> "SettraceTracer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    drain = kcov.KcovTracer.drain
    coverage_fraction = kcov.KcovTracer.coverage_fraction
    covered_lines = kcov.KcovTracer.covered_lines
