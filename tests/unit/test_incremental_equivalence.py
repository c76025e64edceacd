"""Pins the equivalence contract of the incremental hot path.

The dirty-tracking machinery in :mod:`repro.perf` (memoized check and
rounding passes, value-validated revalidation, incremental VMCS02/VMCB02
merge) must be a pure optimisation: for any mutation sequence, production and
the full-recompute reference (``tests.reference.full_recompute``)
produce identical corrections, violations, oracle outcomes,
merged-structure contents, exit reasons — and identical campaign
trajectories, coverage included.
"""

from __future__ import annotations

from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import NecoFuzz, Vendor, perf
from repro.core.vcpu_config import VcpuConfig
from repro.cpu.entry_checks import UNITS, check_all
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
#: A known gap, not a tolerance: when ``perf.merge_state`` skips the
#: control section of a cached merge it does not replay that section's
#: kcov slice, so the case loses the edges into and out of it. Xen/AMD
#: is the one target without a ``merge_state`` merge. Fixing the gap
#: changes campaign fingerprints, so it waits for a re-pin; ``strict``
#: turns the fix into a failure here until these marks are removed.
_MERGE_EDGE_GAP = pytest.mark.xfail(strict=True, reason=(
    "merge_state does not replay a skipped control section's slice"))


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

    @pytest.mark.parametrize("hypervisor,vendor", [
        pytest.param(hypervisor, vendor, id=name, marks=(
            () if name == "xen-amd" else _MERGE_EDGE_GAP))
        for (hypervisor, vendor), name in zip(_GUIDED, _GUIDED_IDS)])
    def test_per_case_edges(self, hypervisor, vendor):
        with full_recompute():
            reference = [edges for _, edges in _drained(hypervisor, vendor)]
        assert [edges for _, edges in _drained(hypervisor, vendor)] == reference


class TestDeclaredReads:
    """The dependency index must cover everything a unit actually reads."""

    @given(st.binary(min_size=F.LAYOUT_BYTES, max_size=F.LAYOUT_BYTES))
    @settings(max_examples=25, deadline=None)
    def test_unit_reads_are_declared(self, raw):
        from repro.vmx.vmcs import Vmcs

        caps = default_capabilities()
        vmcs = Vmcs.deserialize(raw)
        for unit in UNITS:
            traced: set[int] = set()
            vmcs._read_trace = traced
            try:
                unit.fn(vmcs, caps, lambda field, reason: None)
            finally:
                vmcs._read_trace = None
            undeclared = traced - unit.reads
            assert not undeclared, (
                f"{unit.name} read undeclared fields: "
                f"{[F.SPEC_BY_ENCODING[e].name for e in undeclared]}")


class TestValueRevalidation:
    """A journalled write back to the recorded value keeps memos valid."""

    def test_memoized_check_survives_write_revert(self):
        caps = default_capabilities()
        vmcs = golden_vmcs(caps)
        runs = []
        key = "probe"
        enc = F.GUEST_RSP

        def compute():
            runs.append(vmcs.read(enc))
            return list(check_all(vmcs, caps))

        first = perf.memoized_check(vmcs, key, compute)
        old = vmcs.read(enc)
        vmcs.write(enc, old ^ 0xFF0)
        vmcs.write(enc, old)  # journalled, but back to the read value
        again = perf.memoized_check(vmcs, key, compute)
        assert len(runs) == 1  # revert did not invalidate
        assert again == first

    def test_memoized_fixpoint_records_only_at_fixpoint(self):
        caps = default_capabilities()
        validator = VmStateValidator(caps)
        vmcs = golden_vmcs(caps)
        validator.round_to_valid(vmcs)  # reach + record the fixed point
        baseline = vmcs.generation
        validator.round_to_valid(vmcs)  # pure memo hit
        assert vmcs.generation == baseline
        # Breaking a constraint forces a re-run that corrects it
        # (entry-to-SMM is always rounded away outside SMM)...
        vmcs.write(F.VM_ENTRY_CONTROLS,
                   vmcs.read(F.VM_ENTRY_CONTROLS) | (1 << 10))
        report = validator.round_to_valid(vmcs)
        assert report.total >= 1
        # ...and the next pass is again a recorded fixed point.
        assert validator.round_to_valid(vmcs).total == 0
        settled = vmcs.generation
        validator.round_to_valid(vmcs)
        assert vmcs.generation == settled
