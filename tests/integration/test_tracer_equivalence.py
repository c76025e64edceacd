"""Marker tracer vs. the settrace reference.

The compiled kcov tracer (marker instrumentation) and the settrace
reference in tests/reference must agree on the covered *line* universe:
for any fixed set of inputs, the cumulative covered lines — intersected
with the instrumented universe, which is how every coverage number in
the suite is computed — are identical. The reference runs with the hot
path's replays off (``settrace_reference``), since settrace events
cannot be replayed. Edge sets differ by design (see the
repro.coverage.kcov module docstring), so campaign trajectories are
defined by the marker tracer alone.
"""

import pytest

from repro import NecoFuzz, Vendor
from repro.coverage.kcov import KcovTracer
from repro.fuzzer.input import FuzzInput, INPUT_SIZE
from repro.fuzzer.rng import Rng
from repro.hypervisors import HYPERVISORS
from tests.reference import SettraceTracer, settrace_reference

CONFIGS = [
    ("kvm", Vendor.INTEL),
    ("kvm", Vendor.AMD),
    ("xen", Vendor.INTEL),
    ("xen", Vendor.AMD),
    ("virtualbox", Vendor.INTEL),
]


def _covered(hypervisor, vendor, reference, n_cases=60):
    """Cumulative covered lines of a fixed input set under one tracer."""
    campaign = NecoFuzz(hypervisor=hypervisor, vendor=vendor, seed=5)
    agent = campaign.agent
    if reference:
        agent.tracer = SettraceTracer(
            HYPERVISORS[hypervisor].nested_modules(vendor))
    rng = Rng(0xC0FFEE)
    for _ in range(n_cases):
        agent.run_case(FuzzInput(rng.bytes(INPUT_SIZE)))
    return agent.covered_lines(), set(agent.tracer.instrumented)


class TestTracerEquivalence:
    @pytest.mark.parametrize("hypervisor,vendor", CONFIGS,
                             ids=[f"{h}-{v.value}" for h, v in CONFIGS])
    def test_same_covered_lines_both_modes(self, hypervisor, vendor):
        fast_cov, fast_inst = _covered(hypervisor, vendor, reference=False)
        with settrace_reference():
            ref_cov, ref_inst = _covered(hypervisor, vendor, reference=True)
        assert fast_inst == ref_inst
        assert fast_cov == ref_cov
        assert fast_cov  # the fixed inputs exercise real code

    def test_all_target_functions_instrumented(self):
        for hypervisor, vendor in CONFIGS:
            tracer = KcovTracer(
                HYPERVISORS[hypervisor].nested_modules(vendor))
            assert tracer.unswapped == ()

    def test_fast_mode_records_nothing_while_inactive(self):
        campaign = NecoFuzz(hypervisor="kvm", vendor=Vendor.INTEL, seed=5)
        tracer = campaign.agent.tracer
        assert isinstance(tracer, KcovTracer)
        # Target code executed outside start()/stop() must not leak
        # events into the next drain.
        campaign.agent.run_case(FuzzInput(Rng(1).bytes(INPUT_SIZE)))
        campaign.agent.run_case(FuzzInput(Rng(2).bytes(INPUT_SIZE)))
        with tracer:
            pass
        lines, edges = tracer.drain()
        assert lines == set()
        assert edges == set()
