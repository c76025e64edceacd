"""Hang detection must live entirely on the monotonic clock.

The regression pinned here: ``Supervisor._hung`` used to compare a
heartbeat file's *wall-clock* mtime against ``time.time()``. Any skew
between the filesystem clock and the wall clock — an NTP step
mid-campaign, a container whose mount stamps in a different epoch —
made a perfectly live worker look hung. The fixed detector only ever
compares an mtime token against other observations of the same file,
and measures staleness with ``time.monotonic``.
"""

import os
import time

import pytest

from repro.parallel.supervisor import (
    Supervisor,
    SupervisorConfig,
    heartbeat_path,
)
from repro.parallel.worker import WorkerSpec

TIMEOUT = 0.5
GRACE = 0.2


@pytest.fixture
def supervisor(tmp_path):
    spec = WorkerSpec(index=0, seed=1, iterations=10)
    return Supervisor(
        root=tmp_path, specs=[spec], campaign_kwargs={}, sample_every=10,
        config=SupervisorConfig(case_timeout=TIMEOUT, startup_grace=GRACE))


def stamp(root, case: int, *, mtime: float | None = None) -> None:
    """Write the heartbeat like a worker would; optionally skew its mtime."""
    beat = heartbeat_path(root, 0)
    beat.parent.mkdir(parents=True, exist_ok=True)
    beat.write_text(f"{case}\n")
    if mtime is not None:
        os.utime(beat, (mtime, mtime))


class TestHungDetection:
    def test_fresh_heartbeat_is_not_hung(self, supervisor, tmp_path):
        stamp(tmp_path, 1)
        assert not supervisor._hung(0, started=time.monotonic())

    def test_wall_clock_skewed_mtime_does_not_flag_a_live_worker(
            self, supervisor, tmp_path):
        # A heartbeat stamped "ten hours ago" by a skewed filesystem
        # clock. The old `time.time() - mtime > timeout` check declared
        # this worker hung instantly; the token-based detector must not.
        started = time.monotonic()
        stamp(tmp_path, 1, mtime=time.time() - 36_000)
        assert not supervisor._hung(0, started)
        # The worker keeps making progress (new token every stamp), the
        # skew persists — still never hung.
        stamp(tmp_path, 2, mtime=time.time() - 36_000)
        assert not supervisor._hung(0, started)

    def test_mtime_in_the_future_does_not_flag_either(self, supervisor,
                                                      tmp_path):
        stamp(tmp_path, 1, mtime=time.time() + 36_000)
        assert not supervisor._hung(0, started=time.monotonic())

    def test_unchanged_token_past_deadline_is_hung(self, supervisor,
                                                   tmp_path):
        stamp(tmp_path, 1)
        started = time.monotonic()
        assert not supervisor._hung(0, started)  # first sighting
        # Simulate the deadline passing without re-stamping the file:
        # backdate the monotonic first-seen instant of the cached token.
        token, seen_at = supervisor._beat_seen[0]
        supervisor._beat_seen[0] = (token, seen_at - TIMEOUT - 0.01)
        assert supervisor._hung(0, started)

    def test_progress_resets_the_staleness_clock(self, supervisor, tmp_path):
        stamp(tmp_path, 1)
        started = time.monotonic()
        supervisor._hung(0, started)
        token, seen_at = supervisor._beat_seen[0]
        supervisor._beat_seen[0] = (token, seen_at - TIMEOUT - 0.01)
        stamp(tmp_path, 2)  # the case finished: new token
        assert not supervisor._hung(0, started)
        assert supervisor._beat_seen[0][0] != token

    def test_no_heartbeat_yet_uses_startup_grace(self, supervisor):
        now = time.monotonic()
        assert not supervisor._hung(0, started=now)
        assert supervisor._hung(0, started=now - TIMEOUT - GRACE - 0.01)

    def test_vanished_heartbeat_forgets_the_cached_token(self, supervisor,
                                                         tmp_path):
        stamp(tmp_path, 1)
        supervisor._hung(0, started=time.monotonic())
        assert 0 in supervisor._beat_seen
        heartbeat_path(tmp_path, 0).unlink()
        supervisor._hung(0, started=time.monotonic())
        assert 0 not in supervisor._beat_seen
