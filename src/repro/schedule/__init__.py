"""Adaptive fuzzing brain: power schedules + operator bandits (DESIGN.md §16).

The incremental and federated execution planes (DESIGN.md §8, §13-§15) made
cases cheap; this package decides which cases are *worth* that
throughput. Three cooperating pieces:

* :class:`~repro.schedule.power.PowerSchedule` — per-seed energy
  assignment. ``flat`` replicates the classic AFL-style draw bit for
  bit (the default; campaign fingerprints are pinned equal to a run
  without the feature), ``fast`` is an AFLFast-style schedule weighting
  seeds by coverage novelty, discovery depth, exercise count, and a
  deterministic execution-cost proxy.
* :class:`~repro.schedule.bandit.OperatorBandit` — deterministic
  Thompson sampling over the mutation operators (the havoc table plus
  the ``splice``/``region_havoc`` stages), seeded from
  :meth:`repro.fuzzer.rng.Rng.fork` so campaigns replay bit for bit,
  with per-operator hit-rate counters fed into the telemetry registry.
* :func:`~repro.schedule.distill.distill` — periodic corpus
  distillation: a greedy minimal-subset cover over the queue's recorded
  coverage (via :meth:`repro.coverage.bitmap.VirginMap.subsumes`) that
  *demotes* entries contributing no unique bits. Nothing is ever
  dropped — crashed/anomaly entries and seeds are exempt even from
  demotion.

Schedule and bandit state ride the engine's pickle, so checkpoints and
lease-log replays resume the learned posteriors exactly; like
telemetry, none of it enters the campaign fingerprint.
"""

from __future__ import annotations

from repro.schedule.bandit import BANDIT_ARMS, OperatorBandit
from repro.schedule.distill import distill
from repro.schedule.power import (
    BASE_ENERGY,
    SCHEDULE_MODES,
    FastSchedule,
    FlatSchedule,
    PowerSchedule,
    make_schedule,
)

__all__ = [
    "BANDIT_ARMS",
    "BASE_ENERGY",
    "FastSchedule",
    "FlatSchedule",
    "OperatorBandit",
    "PowerSchedule",
    "SCHEDULE_MODES",
    "distill",
    "make_schedule",
]
