"""Deterministic fault injection for the campaign runtime (chaos harness).

A :class:`FaultPlan` is pure data: a list of :class:`FaultSpec` entries
saying *what* to break, *where* (worker index, hook name) and *when*
(case counter, export round). The plan is installed process-globally and
consulted from a handful of fixed injection points:

* the worker loop (``CampaignWorker.run_chunk``) asks for ``kill_worker``
  and ``delay_case`` faults before each case;
* :meth:`repro.parallel.sync.SyncDirectory.export` asks for
  ``corrupt_sync`` faults after publishing its queue;
* named hooks (``faults.hook("kvm.run")`` etc.) inside the agent, the
  executor, and the oracle raise :class:`InjectedFault` for
  ``raise_in_hook`` specs.

Every spec fires **once** (its index is recorded in ``consumed``), so a
restarted worker replaying the same cases does not die forever on the
same fault — exactly the behaviour of a transient host failure. The
supervisor additionally :meth:`disarms <FaultPlan.disarm>` specs whose
firing it could only observe as a child-process death.

Nothing in this module imports the rest of ``repro``; the plan travels
by pickle into process-mode workers.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

#: Exit code a process-mode worker dies with when a ``kill_worker``
#: fault fires (distinct from crash exit codes so the supervisor —
#: and the chaos tests — can tell injected deaths from real ones).
KILL_EXIT_CODE = 86

#: The fault kinds a plan may contain.
KINDS = frozenset({"kill_worker", "delay_case", "corrupt_sync",
                   "raise_in_hook"})

#: Sync-corruption shapes (what a crash mid-write can leave behind).
CORRUPTION_MODES = frozenset({"truncate", "garbage", "tmp_orphan"})


class InjectedFault(RuntimeError):
    """Raised inside a named hook by an active fault plan."""

    def __init__(self, hook: str) -> None:
        super().__init__(f"injected fault in hook {hook!r}")
        self.hook = hook


class WorkerKilled(BaseException):
    """Simulated abrupt worker death.

    Derives from :class:`BaseException` so the engine's case-boundary
    crash isolation cannot absorb it: a killed worker must actually die
    (``os._exit`` in process mode, an escaping raise in inline mode).
    """


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault."""

    kind: str
    #: Target worker index; ``None`` matches any worker.
    worker: int | None = None
    #: Fire when the target worker is about to run this (1-based) case.
    at_case: int | None = None
    #: Hook name for ``raise_in_hook`` (e.g. ``"kvm.run"``).
    hook: str | None = None
    #: Sleep length for ``delay_case`` (pick > the case deadline).
    seconds: float = 0.0
    #: Corruption shape for ``corrupt_sync``.
    corrupt: str = "truncate"
    #: Export round (1-based) for ``corrupt_sync``; ``None`` = first.
    at_export: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "raise_in_hook" and not self.hook:
            raise ValueError("raise_in_hook needs a hook name")
        if self.corrupt not in CORRUPTION_MODES:
            raise ValueError(f"unknown corruption mode {self.corrupt!r}")


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of faults.

    The ``seed`` does not drive any randomness here (the plan is
    explicit); it salts reproducer metadata so two chaos runs with the
    same spec list but different seeds are distinguishable in artifacts.
    """

    specs: list[FaultSpec] = field(default_factory=list)
    seed: int = 0
    #: Indices into ``specs`` that have fired (or been disarmed).
    consumed: set[int] = field(default_factory=set)
    #: Audit trail of fired faults: (kind, worker, detail).
    fired: list[tuple[str, int | None, str]] = field(default_factory=list)

    # --- matching ------------------------------------------------------

    def _take(self, match) -> FaultSpec | None:
        for index, spec in enumerate(self.specs):
            if index in self.consumed or not match(spec):
                continue
            self.consumed.add(index)
            return spec
        return None

    def take_case_fault(self, worker: int, case: int) -> FaultSpec | None:
        """The kill/delay fault due when *worker* is about to run *case*."""
        return self._take(lambda s: (
            s.kind in ("kill_worker", "delay_case")
            and (s.worker is None or s.worker == worker)
            and s.at_case == case))

    def take_sync_fault(self, worker: int, export_round: int) -> FaultSpec | None:
        """The sync-corruption fault due at *worker*'s Nth export."""
        return self._take(lambda s: (
            s.kind == "corrupt_sync"
            and (s.worker is None or s.worker == worker)
            and (s.at_export is None or s.at_export == export_round)))

    def take_hook_fault(self, name: str, worker: int | None) -> FaultSpec | None:
        """The injected exception due inside hook *name*, if any."""
        return self._take(lambda s: (
            s.kind == "raise_in_hook" and s.hook == name
            and (s.worker is None or worker is None or s.worker == worker)))

    def disarm(self, worker: int, kinds: tuple[str, ...]) -> bool:
        """Consume the first live spec matching *worker* and *kinds*.

        The supervisor calls this after a child-process death it
        attributes to an injected fault: the child's in-memory
        ``consumed`` set died with it, so the parent-side plan must be
        updated before the replacement worker replays the same cases.
        """
        spec = self._take(lambda s: (
            s.kind in kinds and (s.worker is None or s.worker == worker)))
        if spec is not None:
            self.record(spec.kind, worker, "disarmed by supervisor")
        return spec is not None

    def record(self, kind: str, worker: int | None, detail: str) -> None:
        """Append one firing to the audit trail."""
        self.fired.append((kind, worker, detail))

    @property
    def exhausted(self) -> bool:
        """True once every spec has fired or been disarmed."""
        return len(self.consumed) >= len(self.specs)


# --- process-global installation ------------------------------------------

_ACTIVE: FaultPlan | None = None
_CURRENT_WORKER: int | None = None


def install(plan: FaultPlan | None) -> None:
    """Make *plan* the active plan for this process (None uninstalls)."""
    global _ACTIVE
    _ACTIVE = plan


def uninstall() -> None:
    """Deactivate fault injection in this process."""
    install(None)


def active() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _ACTIVE


def set_current_worker(index: int | None) -> None:
    """Tag subsequent hook firings with the worker now executing."""
    global _CURRENT_WORKER
    _CURRENT_WORKER = index


def current_worker() -> int | None:
    """The worker index the running code is executing on behalf of."""
    return _CURRENT_WORKER


@contextmanager
def injected(plan: FaultPlan):
    """Scoped installation for tests: install, yield, uninstall."""
    previous = _ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def hook(name: str) -> None:
    """Raise :class:`InjectedFault` if the active plan targets *name*.

    Costs one global read and a None check when no plan is installed,
    so the production hot path stays unaffected.
    """
    plan = _ACTIVE
    if plan is None:
        return
    spec = plan.take_hook_fault(name, _CURRENT_WORKER)
    if spec is not None:
        plan.record("raise_in_hook", _CURRENT_WORKER, name)
        raise InjectedFault(name)
