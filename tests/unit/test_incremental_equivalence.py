"""Pins the equivalence contract of the incremental hot path.

The dirty-tracking machinery in :mod:`repro.perf` (memoized checks,
value-validated revalidation, incremental VMCS02/VMCB02 merge) must be a pure optimisation: for any mutation sequence, production and
the full-recompute reference (``tests.reference.full_recompute``)
produce identical corrections, violations, oracle outcomes,
merged-structure contents, exit reasons — and identical campaign
trajectories, coverage included.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import NecoFuzz, Vendor, perf
from repro.core.vcpu_config import VcpuConfig
from repro.cpu.entry_checks import (
    UNITS,
    IncrementalChecker,
    ReadTraceActiveError,
    check_all,
)
from repro.hypervisors.kvm import KvmHypervisor
from repro.hypervisors.kvm.nested_svm import SvmNestedState
from repro.hypervisors.kvm.nested_vmx import VmxNestedState
from repro.svm import fields as SF
from repro.validator.golden import golden_vmcb, golden_vmcs
from repro.validator.oracle import HardwareOracle
from repro.validator.rounding import VmStateValidator
from repro.validator.svm_validator import SvmHardwareOracle, VmcbValidator
from repro.vmx import fields as F
from repro.vmx.msr_caps import default_capabilities
from repro.vmx.vmcs import Vmcs
from tests.reference import full_recompute

_VMX_MUTABLE = [s for s in F.ALL_FIELDS
                if s.group is not F.FieldGroup.READ_ONLY]

#: A mutation step: which mutable field, which bit to flip.
vmx_mutations = st.lists(
    st.tuples(st.integers(0, len(_VMX_MUTABLE) - 1), st.integers(0, 63)),
    min_size=1, max_size=6)
svm_mutations = st.lists(
    st.tuples(st.integers(0, len(SF.ALL_FIELDS) - 1), st.integers(0, 63)),
    min_size=1, max_size=6)


def _mode(incremental: bool):
    """Production, or the full-recompute reference."""
    return nullcontext() if incremental else full_recompute()


def _vmx_pipeline(incremental: bool, mutations) -> tuple:
    """Run the per-case hot path on a persistent VMCS; return observables."""
    with _mode(incremental):
        hv = KvmHypervisor(VcpuConfig.default(Vendor.INTEL))
        nested = hv.nested_vmx
        validator = VmStateValidator(nested.caps)
        oracle = HardwareOracle(nested.caps)
        state = VmxNestedState()
        vmcs = golden_vmcs(nested.caps)
        trail = []
        for index, bit in mutations:
            spec = _VMX_MUTABLE[index]
            vmcs.write(spec.encoding,
                       vmcs.read(spec.encoding) ^ (1 << (bit % spec.bits)))
            report = validator.round_to_valid(vmcs)
            oracle_report = oracle.verify(vmcs)
            prep = nested.prepare_vmcs02(state, vmcs)
            trail.append((
                [str(c) for c in report.all],
                oracle_report.entered,
                oracle_report.attempts,
                oracle_report.activated_rules,
                oracle_report.golden_fallbacks,
                [str(v) for v in oracle_report.final_violations],
                (prep.detail, prep.exit_reason) if prep is not None else None,
                vmcs.read(F.VM_EXIT_REASON),
                vmcs.serialize(),
                state.vmcs02.serialize(),
            ))
        return tuple(trail)


def _svm_pipeline(incremental: bool, mutations) -> tuple:
    with _mode(incremental):
        hv = KvmHypervisor(VcpuConfig.default(Vendor.AMD))
        nested = hv.nested_svm
        validator = VmcbValidator()
        oracle = SvmHardwareOracle()
        state = SvmNestedState()
        vmcb = golden_vmcb()
        trail = []
        for index, bit in mutations:
            spec = SF.ALL_FIELDS[index]
            vmcb.write(spec.name,
                       vmcb.read(spec.name) ^ (1 << (bit % spec.bits)))
            corrections = validator.round_to_valid(vmcb)
            entered = oracle.verify(vmcb)
            prep = nested.prepare_vmcb02(state, vmcb)
            trail.append((
                [str(c) for c in corrections],
                entered,
                [str(v) for v in validator.predicted_violations(vmcb)],
                (prep.detail, prep.exit_reason) if prep is not None else None,
                vmcb.serialize(),
                state.vmcb02.serialize(),
            ))
        return tuple(trail)


class TestPipelineEquivalence:
    @given(vmx_mutations)
    @settings(max_examples=20, deadline=None)
    def test_vmx_incremental_matches_full(self, mutations):
        assert _vmx_pipeline(False, mutations) == _vmx_pipeline(True, mutations)

    @given(svm_mutations)
    @settings(max_examples=20, deadline=None)
    def test_svm_incremental_matches_full(self, mutations):
        assert _svm_pipeline(False, mutations) == _svm_pipeline(True, mutations)


def _fingerprint(result):
    return (sorted(result.covered_lines),
            result.engine_stats.queue_adds,
            [(r.iteration, r.anomaly.signature()) for r in result.reports])


def _drained(hypervisor, vendor, cases=80):
    """Every case's drained (lines, edges) over a short campaign."""
    campaign = NecoFuzz(hypervisor=hypervisor, vendor=vendor, seed=11)
    tracer = campaign.agent.tracer
    drain = tracer.drain
    drained = []

    def recording_drain():
        result = drain()
        drained.append(result)
        return result

    tracer.drain = recording_drain
    campaign.run(cases)
    return drained


_CONFIGS = [
    ("kvm", Vendor.INTEL, True),
    ("kvm", Vendor.AMD, True),
    ("xen", Vendor.INTEL, True),
    ("xen", Vendor.AMD, True),
    ("virtualbox", Vendor.INTEL, True),
    ("kvm", Vendor.INTEL, False),
    ("kvm", Vendor.AMD, False),
]
_CONFIG_IDS = ["kvm-intel", "kvm-amd", "xen-intel", "xen-amd", "vbox-intel",
               "kvm-intel-blackbox", "kvm-amd-blackbox"]
_GUIDED = [c[:2] for c in _CONFIGS if c[2]]
_GUIDED_IDS = _CONFIG_IDS[:len(_GUIDED)]


class TestCampaignEquivalence:
    """Whole campaigns — trajectory, coverage, findings — equal the
    full-recompute reference."""

    @pytest.mark.parametrize("hypervisor,vendor,guided", _CONFIGS,
                             ids=_CONFIG_IDS)
    def test_campaign_fingerprint(self, hypervisor, vendor, guided):
        prints = []
        for mode in (False, True):
            with _mode(mode):
                campaign = NecoFuzz(hypervisor=hypervisor, vendor=vendor,
                                    seed=11, coverage_guided=guided)
                prints.append(_fingerprint(campaign.run(80)))
        assert prints[0] == prints[1]

    @pytest.mark.parametrize("hypervisor,vendor", _GUIDED, ids=_GUIDED_IDS)
    def test_per_case_lines(self, hypervisor, vendor):
        # Replayed kcov slices must reproduce each case's line set
        # exactly, not only the campaign's cumulative lines.
        with full_recompute():
            reference = [lines for lines, _ in _drained(hypervisor, vendor)]
        assert [lines for lines, _ in _drained(hypervisor, vendor)] == reference

    @pytest.mark.parametrize("hypervisor,vendor", _GUIDED, ids=_GUIDED_IDS)
    def test_per_case_edges(self, hypervisor, vendor):
        with full_recompute():
            reference = [edges for _, edges in _drained(hypervisor, vendor)]
        assert [edges for _, edges in _drained(hypervisor, vendor)] == reference


class _RecordingValues(Mapping):
    """A structure's value table that records every key read through it.

    A ``Mapping``: ``get``, ``in`` and iteration all go through
    ``__getitem__`` or ``__iter__``, so no way of reading escapes it
    (iterating marks every field read)."""

    def __init__(self, values: dict[int, int]) -> None:
        self._values = values
        self.reads: set[int] = set()

    def __getitem__(self, key: int) -> int:
        self.reads.add(key)
        return self._values[key]

    def __iter__(self):
        self.reads.update(self._values)
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


class TestDeclaredReads:
    """The dependency index must cover everything a unit actually reads."""

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES))
    @settings(max_examples=25, deadline=None)
    def test_unit_reads_are_declared(self, raw):
        caps = default_capabilities()
        vmcs = Vmcs.deserialize(raw)
        for unit in UNITS:
            values = _RecordingValues(vmcs._values)
            unit.fn(values, caps, lambda field, reason: None)
            # Every unit reads at least one field, so an empty record
            # means the reads went around the recorder.
            assert values.reads, f"{unit.name} was seen reading nothing"
            undeclared = values.reads - unit.reads
            assert not undeclared, (
                f"{unit.name} read undeclared fields: "
                f"{[F.SPEC_BY_ENCODING[e].name for e in undeclared]}")


class TestReadTraceGuard:
    """The units read the value table directly, so a read trace would
    miss their reads: every entry check raises on a traced structure
    instead of running unseen."""

    @pytest.mark.parametrize("check", ["check_all", "results", "module"])
    def test_check_on_traced_structure_raises(self, check):
        caps = default_capabilities()
        vmcs = golden_vmcs(caps)
        vmcs.write(F.GUEST_RSP, vmcs.read(F.GUEST_RSP) ^ 0x10)  # stale memo
        vmcs._read_trace = set()
        run = {"check_all": IncrementalChecker(caps).check_all,
               "results": IncrementalChecker(caps).results,
               "module": lambda struct: check_all(struct, caps)}[check]
        with pytest.raises(ReadTraceActiveError):
            run(vmcs)
        assert vmcs._read_trace == set()

    def test_warm_memo_on_traced_structure_raises(self):
        """A clean memo hit reads no field either; it raises too."""
        caps = default_capabilities()
        vmcs = golden_vmcs(caps)
        checker = IncrementalChecker(caps)
        checker.check_all(vmcs)
        vmcs._read_trace = set()
        with pytest.raises(ReadTraceActiveError):
            checker.check_all(vmcs)

    def test_inside_memoized_check_raises(self):
        caps = default_capabilities()
        vmcs = golden_vmcs(caps)
        with pytest.raises(ReadTraceActiveError):
            perf.memoized_check(vmcs, "probe", lambda: check_all(vmcs, caps))
        assert vmcs._read_trace is None
        assert vmcs.memo_get("probe") is None

    def test_untraced_structure_checks(self):
        caps = default_capabilities()
        vmcs = golden_vmcs(caps)
        assert IncrementalChecker(caps).check_all(vmcs) == check_all(vmcs, caps) == []


class TestValueRevalidation:
    """A journalled write back to the recorded value keeps memos valid."""

    def test_memoized_check_survives_write_revert(self):
        caps = default_capabilities()
        vmcs = golden_vmcs(caps)
        runs = []
        key = "probe"
        enc = F.GUEST_RSP

        def compute():
            # Reads go through Vmcs.read, which the memo traces (the
            # entry checks read the value table directly and refuse to
            # run under a trace).
            runs.append(vmcs.read(enc))
            return [vmcs.read(F.GUEST_CR0), vmcs.read(F.GUEST_RIP)]

        first = perf.memoized_check(vmcs, key, compute)
        old = vmcs.read(enc)
        vmcs.write(enc, old ^ 0xFF0)
        vmcs.write(enc, old)  # journalled, but back to the read value
        again = perf.memoized_check(vmcs, key, compute)
        assert len(runs) == 1  # revert did not invalidate
        assert again == first
        vmcs.write(F.GUEST_RIP, vmcs.read(F.GUEST_RIP) ^ 1)
        assert perf.memoized_check(vmcs, key, compute) != first
        assert len(runs) == 2  # a read field changed: recomputed


class TestRoundingFixedPoint:
    """Rounding is not memoized; a second pass over its result must
    still be a fixed point that writes nothing."""

    @pytest.mark.parametrize("vendor", [Vendor.INTEL, Vendor.AMD],
                             ids=["intel", "amd"])
    def test_reround_writes_nothing(self, vendor):
        if vendor is Vendor.INTEL:
            validator = VmStateValidator(default_capabilities())
            struct = golden_vmcs(validator.caps)

            def rounded():
                return validator.round_to_valid(struct).total

            def violate():
                # Entry-to-SMM is always rounded away outside SMM.
                struct.write(F.VM_ENTRY_CONTROLS,
                             struct.read(F.VM_ENTRY_CONTROLS) | (1 << 10))
        else:
            validator = VmcbValidator()
            struct = golden_vmcb()

            def rounded():
                return len(validator.round_to_valid(struct))

            def violate():
                struct.write(SF.GUEST_ASID, 0)  # ASID 0 is the host's

        for step in range(2):
            rounded()  # reach the fixed point
            settled = struct.generation
            image = struct.serialize()
            assert rounded() == 0
            assert struct.generation == settled
            assert struct.changes_since(settled) == frozenset()
            assert struct.serialize() == image
            if step == 0:
                violate()
                assert rounded() >= 1
