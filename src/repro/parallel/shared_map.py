"""Shared-memory virgin map for process-mode campaigns.

Before this existed, every process worker shipped its complete 64 KiB
virgin map back through a pickled report and the orchestrator OR-merged
N snapshots at the end. Now the supervisor creates one
``multiprocessing.shared_memory`` segment sized like the map; each
worker ORs its local virgin bits into it at sync rounds (under a lock,
and only when its map actually changed since the last publish — the
``VirginMap.generation`` counter makes that check free). Reports then
carry an empty ``virgin_bits`` payload and the merged map is read
straight out of the segment.

Everything degrades gracefully: if the segment cannot be created (no
``/dev/shm``, permissions) the supervisor runs without it and reports
carry full snapshots exactly as before; if a worker loses the segment
mid-run it falls back the same way. Inline mode never uses this module
— workers there share the orchestrator's address space already.

Lifecycle: the supervisor owns the segment (creates, snapshots at the
end, closes + unlinks in a ``finally``). Workers only ever attach, and
attaching must not register the segment with their own
``resource_tracker`` — on Python < 3.13 that registration is
unconditional and would have each exiting worker's tracker whine about
(or even unlink) a segment it does not own, so :func:`attach` undoes it.
"""

from __future__ import annotations

import logging

from repro import telemetry
from repro.coverage.bitmap import MAP_SIZE

log = logging.getLogger("repro.parallel")


def attach(name: str):
    """Attach to an existing segment without claiming ownership.

    On Python >= 3.13 ``track=False`` keeps the attachment out of the
    resource tracker entirely. Older interpreters register
    unconditionally — harmless here, because fork/spawn children share
    the parent's tracker process and its cache is a set: the duplicate
    registration collapses and the supervisor's ``unlink`` removes the
    single entry. (Explicitly unregistering from the child would be
    *wrong* with a shared tracker: it would strip the parent's own
    registration and make the final unlink whine.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def _or_into(buf, bits: bytes) -> None:
    """OR *bits* into the segment buffer as one big-int operation."""
    merged = (int.from_bytes(bytes(buf[:MAP_SIZE]), "little")
              | int.from_bytes(bits, "little"))
    buf[:MAP_SIZE] = merged.to_bytes(MAP_SIZE, "little")


class SharedVirginMap:
    """The supervisor-owned segment plus its inter-process lock."""

    def __init__(self, shm, lock) -> None:
        self.shm = shm
        self.lock = lock

    @classmethod
    def create(cls, ctx) -> "SharedVirginMap | None":
        """A fresh zeroed segment, or ``None`` when unavailable."""
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True, size=MAP_SIZE)
        except Exception as exc:
            log.warning("shared virgin map unavailable (%s); workers will "
                        "ship full snapshots in their reports", exc)
            return None
        return cls(shm, ctx.Lock())

    @property
    def name(self) -> str:
        return self.shm.name

    def publish(self, bits: bytes) -> None:
        with self.lock:
            _or_into(self.shm.buf, bits)
        telemetry.counter("shared_map.publishes")

    def snapshot(self) -> bytes:
        with self.lock:
            return bytes(self.shm.buf[:MAP_SIZE])

    def destroy(self) -> None:
        """Close and unlink; safe to call exactly once.

        Only the *expected* endgame errors are swallowed — the segment
        already gone (:class:`FileNotFoundError`) or a still-exported
        buffer view (:class:`BufferError`). Anything else (a permission
        flip, a bad handle) propagates: a bare ``pass`` here once hid a
        real leak for an entire chaos run. ``unlink`` is attempted even
        when ``close`` refuses, so the name never outlives the run.
        """
        try:
            self.shm.close()
        except (FileNotFoundError, BufferError):
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


class Publisher:
    """A worker-side publish callable bound to one segment name.

    Attachment is lazy (first publish) so building the object in the
    parent before fork costs nothing, and the attached handle is cached
    for the worker's lifetime. :meth:`close` drops the mapping; the
    worker entry point calls it in a ``finally`` so a mid-sync fault
    cannot leak the segment mapping out of a dying worker.
    """

    def __init__(self, name: str, lock) -> None:
        self.name = name
        self.lock = lock
        self._shm = None

    def __call__(self, bits: bytes) -> None:
        if self._shm is None:
            self._shm = attach(self.name)
        with self.lock:
            _or_into(self._shm.buf, bits)
        telemetry.counter("shared_map.publishes")

    def close(self) -> None:
        """Drop the attached mapping (never the segment itself)."""
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
            except (FileNotFoundError, BufferError):
                pass


def publisher(name: str, lock) -> Publisher:
    """A worker-side publish callable bound to segment *name*."""
    return Publisher(name, lock)
