"""Capped exponential backoff with optional jitter.

The supervisor's restart delays follow ``base * 2**(attempt-1)``
capped at ``cap``, optionally spread by a symmetric jitter fraction so
several shards restarting at once do not retry in lockstep.
"""

from __future__ import annotations

import random


def expo_backoff(base: float, cap: float, attempt: int, *,
                 jitter: float = 0.0,
                 rng: random.Random | None = None) -> float:
    """Delay before retry number *attempt* (1-based).

    The deterministic core is ``min(cap, base * 2**(attempt-1))``.
    With ``jitter`` (a fraction in [0, 1]) the delay is scaled by a
    uniform factor in ``[1-jitter, 1+jitter]`` drawn from *rng* — pass a
    seeded :class:`random.Random` for reproducible schedules (the chaos
    tests do); the module-global RNG is used only when none is given.
    The jittered value is clamped back under ``cap`` so the cap stays a
    hard ceiling, and never goes negative.
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based; got "f"{attempt}")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError(f"jitter must be in [0, 1]; got {jitter}")
    if base < 0 or cap < 0:
        raise ValueError("base and cap must be >= 0")
    # 2**(attempt-1) overflows float for silly attempts; cap first.
    exponent = min(attempt - 1, 64)
    delay = min(cap, base * (2 ** exponent))
    if jitter:
        draw = rng.random() if rng is not None else random.random()
        delay *= 1.0 + jitter * (2.0 * draw - 1.0)
        delay = min(cap, max(0.0, delay))
    return delay
