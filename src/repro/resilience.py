"""Fault-tolerant campaign runtime — the public face.

This module gathers the resilience layer built across
:mod:`repro.parallel.supervisor` (heartbeats, restarts, circuit
breakers), :mod:`repro.fuzzer.crashes` (case isolation + triage),
:mod:`repro.faults` (deterministic fault injection), and the
checkpoint/resume support in :class:`repro.parallel.ParallelCampaign`
into one import surface, and defines the **campaign fingerprint** the
resume-determinism contract is pinned against:

    a ``--resume``'d inline campaign must reproduce the uninterrupted
    run's fingerprint bit for bit.

The fingerprint digests everything observable about a finished
campaign: the covered-line set, the merged virgin map, every worker's
final corpus (entry bytes + provenance, order-sensitive), and the
merged engine statistics. Two runs with equal fingerprints found the
same behaviour from the same corpus by the same path.
"""

from __future__ import annotations

import hashlib

from repro.coverage.bitmap import relative_lines
from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    WorkerKilled,
    injected,
)
from repro.fuzzer.crashes import CrashSignature, CrashStore, load_reproducer
from repro.parallel.campaign import ParallelCampaign, ParallelCampaignResult
from repro.parallel.scheduler import LeaseBoardError
from repro.parallel.supervisor import (
    CampaignAborted,
    FailureKind,
    Supervisor,
    SupervisorConfig,
    SupervisorEvent,
)

__all__ = [
    "CampaignAborted",
    "CrashSignature",
    "CrashStore",
    "FailureKind",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "LeaseBoardError",
    "ParallelCampaign",
    "ParallelCampaignResult",
    "Supervisor",
    "SupervisorConfig",
    "SupervisorEvent",
    "WorkerKilled",
    "campaign_fingerprint",
    "injected",
    "load_reproducer",
]


def campaign_fingerprint(result: ParallelCampaignResult) -> str:
    """Deterministic digest of a campaign's complete observable outcome.

    ``stats.imports_skipped_subsumed`` is deliberately excluded: it
    counts imports the subsumption filter consumed *without* execution,
    an implementation detail of how the same observable outcome was
    reached — including it would make runs with the filter and the
    execute-every-import reference incomparable by construction.

    Telemetry (``ParallelCampaignResult.telemetry`` and the campaign's
    ``telemetry_mode``) is excluded for the same reason: it describes
    how the run was *observed*, not what it found. The converse pin —
    that ``off``/``metrics``/``full`` runs produce identical
    fingerprints — lives in tests/telemetry/test_fingerprint_modes.py.
    """
    digest = hashlib.sha256()
    for location in relative_lines(result.covered_lines):
        digest.update(repr(location).encode())
    digest.update(b"|virgin|")
    digest.update(result.virgin.snapshot())
    digest.update(b"|corpus|")
    for corpus in result.corpus_digests:
        digest.update(corpus.encode())
    stats = result.engine_stats
    digest.update(b"|stats|")
    digest.update(repr((stats.iterations, stats.queue_adds, stats.crashes,
                        stats.anomalies, stats.last_find, stats.imported,
                        stats.case_exceptions,
                        stats.import_skipped)).encode())
    return digest.hexdigest()
