"""Hot-path benchmark: incremental validation + merge vs. full recompute.

Drives the mutate -> correct -> verify -> merge -> execute loop the
fuzzer runs per case, on a persistent tracked VMCS (corpus style: a
mutation whose nested entry fails is reverted, like a non-entering
input being discarded), and measures the dirty-field tracking against
its reference:

* full recompute — every rounding pass, consistency check, and the
  whole VMCS02 merge re-run from scratch each iteration
  (``tests.reference.full_recompute``, a test-only reference);
* incremental — the production path: passes/checks are memoized
  against the change journal and validated by read *values*, and the
  merge re-copies only dirty fields (``repro.perf``).

Per-stage timings and the cases/sec speedup go to ``BENCH_hotpath.json``
at the repo root, stamped with the run's budget, ``smoke`` flag, CPU
count, Python version and git revision (``common.run_provenance``). The two modes are asserted behaviourally identical
(same correction counts, same hardware entries) here, and pinned
field-for-field equivalent by tests/unit/test_incremental_equivalence.py.

``NECOFUZZ_BENCH_BUDGET`` shrinks the iteration budget for CI smoke
runs; the speedup floor is only asserted at the full default budget,
since sub-100-iteration timings are warmup-dominated noise.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from pathlib import Path

import pytest

from common import BenchReport, PhaseDeadline, bench_budget, run_provenance
from repro import Vendor
from repro.core.vcpu_config import VcpuConfig
from repro.hypervisors.kvm import KvmHypervisor
from repro.hypervisors.kvm.nested_vmx import VMCS02_HPA, VmxNestedState
from repro.validator.golden import golden_vmcs
from repro.validator.oracle import HardwareOracle
from repro.validator.rounding import VmStateValidator
from repro.vmx import fields as F
from tests.reference import full_recompute

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
DEFAULT_BUDGET = 400
BUDGET = bench_budget(DEFAULT_BUDGET)
SEED = 7
#: Acceptance floor from the issue; measured ~2.2x on the dev container.
MIN_SPEEDUP = 2.0

STAGES = ("correct", "validate", "merge", "execute")
_MUTABLE = [s for s in F.ALL_FIELDS if s.group is not F.FieldGroup.READ_ONLY]


def _update_json(section: str, payload: dict) -> None:
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data[section] = payload
    data["config"] = {"hypervisor": "kvm", "vendor": "intel",
                      "seed": SEED, "iterations": BUDGET}
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _run_workload(incremental: bool, budget: int = BUDGET) -> dict:
    """One validator-heavy pass over the hot path; returns its numbers.

    The loop checks the phase deadline every iteration, so a CI budget
    is a hard wall-clock stop, not advisory; the caller compares modes
    over the iterations that actually ran.
    """
    deadline = PhaseDeadline()
    with nullcontext() if incremental else full_recompute():
        hv = KvmHypervisor(VcpuConfig.default(Vendor.INTEL))
        nested = hv.nested_vmx
        validator = VmStateValidator(nested.caps)
        oracle = HardwareOracle(nested.caps)
        state = VmxNestedState()
        vmcs = golden_vmcs(nested.caps)
        rng = random.Random(SEED)
        stages = dict.fromkeys(STAGES, 0.0)
        corrections = entries = reverted = 0

        ran = 0
        start = time.perf_counter()
        for _ in range(budget):
            if deadline.expired():
                break
            ran += 1
            spec = rng.choice(_MUTABLE)
            bit = rng.randrange(spec.bits)
            old = vmcs.read(spec.encoding)
            vmcs.write(spec.encoding, old ^ (1 << bit))

            t = time.perf_counter()
            corrections += validator.round_to_valid(vmcs).total
            stages["correct"] += time.perf_counter() - t

            t = time.perf_counter()
            report = oracle.verify(vmcs)
            stages["validate"] += time.perf_counter() - t
            entries += bool(report.entered)

            t = time.perf_counter()
            prep = nested.prepare_vmcs02(state, vmcs)
            stages["merge"] += time.perf_counter() - t
            if prep is not None:
                # Non-entering mutation: discard it, keep the corpus state.
                vmcs.write(spec.encoding, old)
                reverted += 1
                continue

            t = time.perf_counter()
            nested.phys.vmclear(VMCS02_HPA)
            image = state.vmcs02.copy()
            image.clear()
            nested.phys.install_vmcs(VMCS02_HPA, image)
            nested.phys.vmptrld(VMCS02_HPA)
            outcome = nested.phys.vmlaunch()
            stages["execute"] += time.perf_counter() - t
            entries += bool(outcome.entered)
        elapsed = time.perf_counter() - start

    return {
        "cases_per_sec": ran / elapsed if ran else 0.0,
        "seconds": elapsed,
        "iterations": ran,
        "truncated": deadline.hit,
        "stages": stages,
        "corrections": corrections,
        "entries": entries,
        "reverted": reverted,
    }


@pytest.mark.benchmark(group="perf-hotpath")
def test_incremental_hotpath_speedup(capsys):
    full = _run_workload(incremental=False)
    # The second phase replays exactly the iterations the first one
    # completed (its own deadline still applies), keeping the two
    # workloads comparable even when a CI deadline truncated phase one.
    inc = _run_workload(incremental=True, budget=full["iterations"])
    truncated = full["truncated"] or inc["truncated"]
    if not inc["cases_per_sec"]:
        pytest.skip("phase deadline left no iterations to compare")
    speedup = inc["cases_per_sec"] / full["cases_per_sec"]

    # The two modes must do identical work before their speed may differ.
    if full["iterations"] == inc["iterations"]:
        for key in ("corrections", "entries", "reverted"):
            assert full[key] == inc[key], key

    _update_json("hotpath", {
        **run_provenance(BUDGET, DEFAULT_BUDGET),
        "full_cases_per_sec": round(full["cases_per_sec"], 1),
        "incremental_cases_per_sec": round(inc["cases_per_sec"], 1),
        "speedup": round(speedup, 2),
        "iterations_run": full["iterations"],
        "deadline_truncated": truncated,
        "corrections": full["corrections"],
        "entries": full["entries"],
        "stage_seconds_full": {k: round(v, 4)
                               for k, v in full["stages"].items()},
        "stage_seconds_incremental": {k: round(v, 4)
                                      for k, v in inc["stages"].items()},
    })

    report = BenchReport("Hot path: incremental validation + merge")
    for label, r in (("full", full), ("incremental", inc)):
        per_stage = "  ".join(f"{k}={r['stages'][k] * 1000:.0f}ms"
                              for k in STAGES)
        report.add(f"{label:12s}{r['cases_per_sec']:7.1f} cases/s   "
                   f"{per_stage}")
    report.add(f"speedup     {speedup:7.2f}x  (floor {MIN_SPEEDUP}x)"
               + ("  [deadline truncated]" if truncated else ""))
    report.emit(capsys)

    if BUDGET >= DEFAULT_BUDGET and not truncated:
        assert speedup >= MIN_SPEEDUP
