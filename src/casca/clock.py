"""Clocks for wall-time, accelerated, and scheduler-driven simulated time.

Every component that timestamps data or waits between actions does so
through one of these clocks, so a whole stack can run against wall time,
against wall time sped up by a constant factor, or fully under control of
the scenario scheduler (in which case sleeps advance logical time and cost
no wall time at all).
"""

from __future__ import annotations

import time


class WallClock:
    """Real time; milliseconds since the Unix epoch."""

    def now_ms(self) -> int:
        return int(time.time() * 1000)

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class ScaledClock:
    """Simulated time that advances `multiplier` times faster than wall time.

    `epoch_ms` anchors simulated time; with multiplier 60, sixty simulated
    seconds elapse per wall-clock second and sleep(60) blocks for one.
    """

    def __init__(self, multiplier: float, epoch_ms: int | None = None):
        if multiplier <= 0:
            raise ValueError("multiplier must be > 0")
        self.multiplier = multiplier
        self.epoch_ms = int(epoch_ms if epoch_ms is not None else time.time() * 1000)
        self._t0 = time.perf_counter()

    def now_ms(self) -> int:
        return self.epoch_ms + int((time.perf_counter() - self._t0) * self.multiplier * 1000)

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds / self.multiplier)


class ManualClock:
    """Logical time advanced explicitly by a scheduler.

    now_ms() is frozen between advances, which makes any computation that
    happens "within" a simulated instant deterministic. sleep() advances
    the clock immediately so a free-running loop still makes progress when
    driven standalone.
    """

    def __init__(self, epoch_ms: int = 0):
        self._now_ms = int(epoch_ms)

    def now_ms(self) -> int:
        return self._now_ms

    def advance_to_ms(self, ts_ms: int) -> None:
        if ts_ms < self._now_ms:
            raise ValueError(f"cannot move time backwards ({ts_ms} < {self._now_ms})")
        self._now_ms = int(ts_ms)

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now_ms += int(round(seconds * 1000))
