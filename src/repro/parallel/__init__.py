"""Sharded parallel fuzzing campaigns (AFL++ primary/secondary style).

One logical campaign is split across N workers, each a full
agent + engine pair with a deterministically derived seed; workers
exchange locally discovered queue entries through a sync directory and
the orchestrator merges coverage, virgin maps, timelines, and stats into
one :class:`ParallelCampaignResult`. See DESIGN.md, "Parallel campaigns
& performance".
"""

from repro.parallel.backoff import expo_backoff
from repro.parallel.campaign import ParallelCampaign, ParallelCampaignResult
from repro.parallel.scheduler import (
    SCHEDULES,
    FileLeaseBoard,
    Lease,
    LeaseBoard,
    LeaseBoardError,
    LeaseRecord,
)
from repro.parallel.supervisor import (
    CampaignAborted,
    FailureKind,
    Supervisor,
    SupervisorConfig,
    SupervisorEvent,
)
from repro.parallel.sync import SyncDirectory, SyncStats
from repro.parallel.worker import CampaignWorker, WorkerSpec, worker_seed

__all__ = [
    "CampaignAborted",
    "CampaignWorker",
    "FailureKind",
    "FileLeaseBoard",
    "Lease",
    "LeaseBoard",
    "LeaseBoardError",
    "LeaseRecord",
    "ParallelCampaign",
    "ParallelCampaignResult",
    "SCHEDULES",
    "Supervisor",
    "SupervisorConfig",
    "SupervisorEvent",
    "SyncDirectory",
    "SyncStats",
    "WorkerSpec",
    "expo_backoff",
    "worker_seed",
]
