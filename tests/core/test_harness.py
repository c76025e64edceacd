"""Tests for the VM execution harness (init + runtime phases)."""

import pytest

from repro.arch.cpuid import Vendor
from repro.arch.exceptions import HostCrash
from repro.core import harness as harness_module
from repro.core.harness import (
    RESULTS_KEPT,
    STORM_FIELDS,
    HarnessStats,
    VmExecutionHarness,
)
from repro.core.necofuzz import NecoFuzz, golden_seed
from repro.core.state_generator import VmcbStateGenerator, VmStateGenerator
from repro.core.templates import VMCS12_GPA, InitStep, intel_init_sequence
from repro.coverage.kcov import KcovTracer
from repro.fuzzer.input import FuzzInput
from repro.fuzzer.rng import Rng
from repro.hypervisors import (
    KvmHypervisor,
    VboxHypervisor,
    VcpuConfig,
    XenHypervisor,
)
from repro.hypervisors.base import GuestInstruction, VmCrash
from tests.reference import INTEL_MODELS, per_write_storm


def build(vendor, seed=1, mutate=True):
    hv = KvmHypervisor(VcpuConfig.default(vendor))
    vcpu = hv.create_vcpu()
    # Campaign-realistic input: golden VM state, random directive regions.
    fi = FuzzInput(golden_seed(vendor, Rng(seed)))
    if vendor is Vendor.INTEL:
        caps = hv.nested_vmx.caps
        state, _ = VmStateGenerator(caps).generate(fi)
    else:
        state, _ = VmcbStateGenerator().generate(fi)
        # AMD needs EFER.SVME, which the init template sets via wrmsr.
    harness = VmExecutionHarness(vendor, mutate=mutate, runtime_iterations=12)
    return hv, vcpu, fi, state, harness


class TestInitPhase:
    def test_init_can_reach_l2(self):
        """A healthy fraction of generated states boot; the rest probe
        the boundary (VMfail / failed-entry error paths) by design."""
        entered = 0
        for seed in range(12):
            hv, vcpu, fi, state, harness = build(Vendor.INTEL, seed)
            stats = HarnessStats()
            harness.run_init_phase(hv, vcpu, fi, state, stats)
            entered += stats.entered_l2
        assert entered >= 3

    def test_amd_init_can_reach_l2(self):
        entered = 0
        for seed in range(12):
            hv, vcpu, fi, state, harness = build(Vendor.AMD, seed)
            stats = HarnessStats()
            harness.run_init_phase(hv, vcpu, fi, state, stats)
            entered += stats.entered_l2
        assert entered >= 4

    def test_vm_entries_counted(self):
        hv, vcpu, fi, state, harness = build(Vendor.INTEL)
        stats = HarnessStats()
        harness.run_init_phase(hv, vcpu, fi, state, stats)
        assert stats.vm_entries >= 1
        assert stats.instructions > 100  # the vmwrite storm

    def test_unmutated_init_is_deterministic_shape(self):
        """Ablation mode must keep the canonical fixed sequence."""
        results = []
        for _ in range(2):
            hv, vcpu, fi, state, harness = build(Vendor.INTEL, 5, mutate=False)
            stats = HarnessStats()
            harness.run_init_phase(hv, vcpu, fi, state, stats)
            results.append(stats.instructions)
        assert results[0] == results[1]

    def test_mutation_varies_sequences(self):
        lengths = set()
        for seed in range(16):
            hv, vcpu, fi, state, harness = build(Vendor.INTEL, seed)
            stats = HarnessStats()
            harness.run_init_phase(hv, vcpu, fi, state, stats)
            lengths.add(stats.instructions)
        assert len(lengths) > 2  # ordering/repetition mutations visible


class TestRuntimePhase:
    def _booted(self, vendor, seed=1, mutate=True):
        hv, vcpu, fi, state, harness = build(vendor, seed, mutate)
        stats = HarnessStats()
        harness.run_init_phase(hv, vcpu, fi, state, stats)
        return hv, vcpu, fi, harness, stats

    def test_runtime_produces_l2_exits(self):
        total_exits = 0
        for seed in range(10):
            hv, vcpu, fi, harness, stats = self._booted(Vendor.INTEL, seed)
            if not stats.entered_l2:
                continue
            harness.run_runtime_phase(hv, vcpu, fi, stats)
            total_exits += stats.l2_exits_to_l1 + stats.l0_handled_exits
        assert total_exits > 5

    def test_runtime_reenters_after_exit(self):
        for seed in range(10):
            hv, vcpu, fi, harness, stats = self._booted(Vendor.INTEL, seed)
            if stats.entered_l2:
                before = stats.vm_entries
                harness.run_runtime_phase(hv, vcpu, fi, stats)
                if stats.l2_exits_to_l1:
                    assert stats.vm_entries > before
                break

    def test_fixed_mode_uses_reduced_template_set(self):
        hv, vcpu, fi, harness, stats = self._booted(Vendor.INTEL, 3,
                                                    mutate=False)
        if stats.entered_l2:
            harness.run_runtime_phase(hv, vcpu, fi, stats)
        mnemonics = {r.detail for r in stats.results}
        assert stats.instructions > 0

    def test_crashed_host_stops_runtime(self):
        hv, vcpu, fi, harness, stats = self._booted(Vendor.INTEL, 1)
        hv.crashed = True
        before = stats.instructions
        harness.run_runtime_phase(hv, vcpu, fi, stats)
        assert stats.instructions == before


class TestStats:
    def test_result_ring_is_bounded(self):
        hv, vcpu, fi, state, harness = build(Vendor.INTEL)
        stats = HarnessStats()
        harness.run_init_phase(hv, vcpu, fi, state, stats)
        assert len(stats.results) <= 64


# ----------------------------------------------------------------------
# vmwrite storm replay
# ----------------------------------------------------------------------

INTEL_IDS = ["kvm", "xen", "vbox"]
HYPERVISOR_NAMES = {KvmHypervisor: "kvm", XenHypervisor: "xen",
                    VboxHypervisor: "virtualbox"}


def _run_case(model, seed, *, traced=True, crashed=False, mutate=True,
              storm_only=False):
    """One Intel harness case; returns what the replay must preserve
    plus the vmwrites that went through ``hv.execute``.

    With *storm_only*, the init steps before vmlaunch run untraced and
    only the storm runs under the tracer. The vmlaunch after a storm
    enters the same dispatcher a vmwrite does, so a whole case cannot
    tell whether the storm's own loop-back edge was replayed.
    """
    hv = model(VcpuConfig.default(Vendor.INTEL))
    vcpu = hv.create_vcpu()
    fi = FuzzInput(golden_seed(Vendor.INTEL, Rng(seed)))
    state, _ = VmStateGenerator(hv.nested_vmx.caps).generate(fi)
    harness = VmExecutionHarness(Vendor.INTEL, mutate=mutate,
                                 runtime_iterations=12)
    # Results of the storm's vmwrites that went through the model.
    executed = []
    in_storm = False
    execute = hv.execute
    write_storm = harness._write_vmcs_fields

    def counting_execute(vcpu, instr):
        result = execute(vcpu, instr)
        if in_storm:
            executed.append(result)
        return result

    def counting_storm(*args):
        nonlocal in_storm
        in_storm = True
        try:
            write_storm(*args)
        finally:
            in_storm = False

    if storm_only:
        for step in intel_init_sequence()[:-1]:
            hv.execute(vcpu, GuestInstruction(step.mnemonic,
                                              dict(step.operands)))
    hv.crashed = crashed
    hv.execute = counting_execute
    harness._write_vmcs_fields = counting_storm
    stats = HarnessStats()
    crash = None
    kcov = None
    if traced:
        kcov = KcovTracer(model.nested_modules(Vendor.INTEL))
        kcov.start()
    try:
        if storm_only:
            harness._write_vmcs_fields(hv, vcpu, state, stats)
        else:
            harness.run_init_phase(hv, vcpu, fi, state, stats)
            if stats.entered_l2:
                harness.run_runtime_phase(hv, vcpu, fi, stats)
    except (HostCrash, VmCrash) as exc:
        crash = repr(exc)
    finally:
        if kcov is not None:
            kcov.stop()
    coverage = kcov.drain() if kcov is not None else None
    vmcs_pages = {gpa: vmcs.serialize()
                  for gpa, vmcs in hv.memory.vmcs_pages.items()}
    return (vmcs_pages, stats, coverage, crash), executed


def _both_paths(model, seed, **kwargs):
    replayed, replay_execs = _run_case(model, seed, **kwargs)
    with per_write_storm():
        reference, reference_execs = _run_case(model, seed, **kwargs)
    return replayed, reference, replay_execs, reference_execs


def _init_sequence(*steps):
    """An ``init_sequence`` stand-in that returns *steps*."""
    return lambda vendor: list(steps)


VMXON, VMCLEAR, VMPTRLD, VMLAUNCH = intel_init_sequence()


class TestVmwriteReplay:
    """The replayed storm is indistinguishable from one vmwrite per
    field through the L0 model: VMCS12 contents, every harness stat,
    and the drained line and edge sets. Whatever the first write
    returns, it is the only one that runs through the model."""

    @pytest.mark.parametrize("model", INTEL_MODELS, ids=INTEL_IDS)
    def test_equivalent_over_seeds(self, model):
        skipped = 0
        for seed in range(20):
            replayed, reference, replay_execs, reference_execs = _both_paths(
                model, seed)
            assert replayed == reference, seed
            assert len(replay_execs) <= 1, seed
            skipped += len(reference_execs) - len(replay_execs)
        # The comparison is vacuous unless the replay actually ran.
        assert skipped > 100 * 20

    def _replays_failure(self, model, monkeypatch, steps, **kwargs):
        """Run *steps* as the init sequence on both paths; return the
        first storm write's result."""
        monkeypatch.setattr(harness_module, "init_sequence",
                            _init_sequence(*steps))
        replayed, reference, replay_execs, reference_execs = _both_paths(
            model, 3, mutate=False, **kwargs)
        assert replayed == reference
        assert len(replay_execs) == 1
        assert len(reference_execs) == len(STORM_FIELDS) > 100
        assert reference_execs == replay_execs * len(reference_execs)
        return replay_execs[0]

    @pytest.mark.parametrize("model", INTEL_MODELS, ids=INTEL_IDS)
    def test_first_write_vmfail_invalid_replays(self, model, monkeypatch):
        # No vmptrld: no current VMCS12, every vmwrite is VMfailInvalid.
        first = self._replays_failure(model, monkeypatch,
                                      [VMXON, VMCLEAR, VMLAUNCH])
        assert first.ok and first.value == -1

    @pytest.mark.parametrize("model", INTEL_MODELS, ids=INTEL_IDS)
    def test_vmptrld_before_vmclear_replays(self, model, monkeypatch):
        # The swap mutation: vmptrld finds no VMCS before vmclear made
        # one, and vmclear would unload it anyway. Nothing is current.
        first = self._replays_failure(model, monkeypatch,
                                      [VMXON, VMPTRLD, VMCLEAR, VMLAUNCH])
        assert first.ok and first.value == -1

    @pytest.mark.parametrize("addr", [VMCS12_GPA | 0x10, VMCS12_GPA + 0x1000],
                             ids=["unaligned", "unmapped"])
    @pytest.mark.parametrize("model", INTEL_MODELS, ids=INTEL_IDS)
    def test_perturbed_vmptrld_replays(self, model, addr, monkeypatch):
        # The argument perturbation: vmptrld VMfails, nothing is current.
        perturbed = InitStep("vmptrld", {"addr": addr})
        first = self._replays_failure(model, monkeypatch,
                                      [VMXON, VMCLEAR, perturbed, VMLAUNCH])
        assert first.ok and first.value == -1

    def test_first_write_ud_replays(self, monkeypatch):
        first = self._replays_failure(KvmHypervisor, monkeypatch,
                                      [VMCLEAR, VMPTRLD, VMLAUNCH])
        assert not first.ok
        assert first.detail.startswith("#UD")

    @pytest.mark.parametrize("storm_only", [False, True],
                             ids=["case", "storm-only"])
    @pytest.mark.parametrize("model", INTEL_MODELS, ids=INTEL_IDS)
    def test_crashed_host_replays(self, model, storm_only):
        # Storm-only crashes the host after vmptrld: a VMCS12 is current,
        # but the first write faults.
        replayed, reference, replay_execs, reference_execs = _both_paths(
            model, 1, crashed=True, storm_only=storm_only)
        assert replayed == reference
        assert not replay_execs[0].ok
        assert len(replay_execs) == 1
        assert len(reference_execs) == len(STORM_FIELDS) > 100
        # The faults fill the bounded result list.
        assert len(replayed[1].results) == RESULTS_KEPT

    @pytest.mark.parametrize("model", INTEL_MODELS, ids=INTEL_IDS)
    def test_success_without_vmcs12_raises(self, model, monkeypatch):
        # A silent per-write fallback is not allowed: a model that
        # accepts a vmwrite must have a current VMCS12.
        monkeypatch.setattr(model, "current_vmcs12", lambda self, vcpu: None)
        with pytest.raises(RuntimeError, match="no current VMCS12"):
            _run_case(model, 1, mutate=False, storm_only=True)

    @pytest.mark.parametrize("model", INTEL_MODELS, ids=INTEL_IDS)
    def test_no_tracer_replays(self, model):
        replayed, reference, replay_execs, reference_execs = _both_paths(
            model, 1, traced=False)
        assert replayed == reference
        assert len(replay_execs) == 1 < len(reference_execs)

    @pytest.mark.parametrize("crashed", [False, True], ids=["ok", "crashed"])
    @pytest.mark.parametrize("storm_only", [False, True],
                             ids=["case", "storm-only"])
    @pytest.mark.parametrize("storm", [1, 2, None], ids=["1", "2", "full"])
    @pytest.mark.parametrize("model", INTEL_MODELS, ids=INTEL_IDS)
    def test_storm_sizes(self, model, storm, storm_only, crashed,
                         monkeypatch):
        monkeypatch.setattr(harness_module, "STORM_FIELDS",
                            STORM_FIELDS[:storm])
        replayed, reference, replay_execs, reference_execs = _both_paths(
            model, 1, mutate=False, storm_only=storm_only, crashed=crashed)
        assert replayed == reference
        assert len(reference_execs) == (storm or 150)
        assert len(replay_execs) == 1

    @pytest.mark.parametrize("model", INTEL_MODELS, ids=INTEL_IDS)
    def test_campaign_blackbox_pin(self, model):
        def fingerprint():
            result = NecoFuzz(hypervisor=HYPERVISOR_NAMES[model],
                              vendor=Vendor.INTEL, seed=11).run(400)
            return (sorted(result.covered_lines), result.engine_stats,
                    [(r.iteration, r.anomaly.signature(), r.command_line)
                     for r in result.reports])

        replayed = fingerprint()
        with per_write_storm():
            assert fingerprint() == replayed
