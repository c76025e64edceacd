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

One pass takes ~0.1 s per mode, too short to be steady on its own, so
the bench runs :data:`REPEATS` alternating full/incremental pairs and
compares the median cases/sec of each mode (as perfbench compares
medians). Per-stage timings of each mode's median run, every pass's
cases/sec and the speedup go to ``BENCH_hotpath.json``
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
import statistics
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
#: Alternating full/incremental pairs per bench run.
REPEATS = 5

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


def _median_run(runs: list[dict]) -> dict:
    """The run whose cases/sec is the median (REPEATS is odd)."""
    return sorted(runs, key=lambda r: r["cases_per_sec"])[len(runs) // 2]


@pytest.mark.benchmark(group="perf-hotpath")
def test_incremental_hotpath_speedup(capsys):
    fulls, incs = [], []
    for _ in range(REPEATS):
        full = _run_workload(incremental=False)
        # The incremental pass replays exactly the iterations the full
        # pass completed (its own deadline still applies), keeping the
        # two workloads comparable even when a CI deadline truncated
        # the full pass.
        inc = _run_workload(incremental=True, budget=full["iterations"])
        if not inc["cases_per_sec"]:
            pytest.skip("phase deadline left no iterations to compare")
        # The two modes must do identical work before their speed may
        # differ.
        if full["iterations"] == inc["iterations"]:
            for key in ("corrections", "entries", "reverted"):
                assert full[key] == inc[key], key
        fulls.append(full)
        incs.append(inc)
    truncated = any(r["truncated"] for r in fulls + incs)
    full, inc = _median_run(fulls), _median_run(incs)
    speedup = inc["cases_per_sec"] / full["cases_per_sec"]
    pair_speedups = [i["cases_per_sec"] / f["cases_per_sec"]
                     for f, i in zip(fulls, incs)]

    _update_json("hotpath", {
        **run_provenance(BUDGET, DEFAULT_BUDGET),
        "repeats": REPEATS,
        "full_cases_per_sec": round(full["cases_per_sec"], 1),
        "incremental_cases_per_sec": round(inc["cases_per_sec"], 1),
        "full_cases_per_sec_runs": [round(r["cases_per_sec"], 1)
                                    for r in fulls],
        "incremental_cases_per_sec_runs": [round(r["cases_per_sec"], 1)
                                           for r in incs],
        "speedup": round(speedup, 2),
        "pair_speedups": [round(x, 2) for x in pair_speedups],
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
                   f"{per_stage}  (median of {REPEATS})")
    spread = statistics.quantiles(pair_speedups, n=4)
    report.add(f"speedup     {speedup:7.2f}x  (floor {MIN_SPEEDUP}x; "
               f"pair quartiles {spread[0]:.2f}-{spread[2]:.2f}x)"
               + ("  [deadline truncated]" if truncated else ""))
    report.emit(capsys)

    if BUDGET >= DEFAULT_BUDGET and not truncated:
        assert speedup >= MIN_SPEEDUP
