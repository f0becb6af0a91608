"""Clocks: monotonic time for backoff, and the UTC instant stamped on outputs.

``SystemClock`` reads the machine's clocks. ``FrozenClock`` stands still, so
fixture-mode runs are byte-identical. The module is apart from ``providers``
so that a subcommand that only stamps its manifest loads no provider code.
"""

from __future__ import annotations

import time
from typing import Protocol


class Clock(Protocol):
    def now(self) -> float: ...
    def sleep(self, seconds: float) -> None: ...
    def utc_instant(self) -> str: ...


class SystemClock:
    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def utc_instant(self) -> str:
        return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class FrozenClock:
    """Constant wall-clock instant, so fixture-mode outputs are byte-identical;
    ``now()`` advances only by ``sleep()``, so backoff costs no real time."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self._now += seconds

    def utc_instant(self) -> str:
        return "2020-01-01T00:00:00Z"
