"""Clocks: the UTC instant stamped on outputs, and backoff sleep.

``SystemClock`` reads the machine's clock and sleeps for real. ``FrozenClock``
stands still, so fixture-mode runs are byte-identical. The module is apart
from ``providers`` so that a subcommand that only stamps its manifest loads
no provider code.
"""

from __future__ import annotations

import time
from typing import Protocol


class Clock(Protocol):
    def sleep(self, seconds: float) -> None: ...
    def utc_instant(self) -> str: ...


class SystemClock:
    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def utc_instant(self) -> str:
        return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class FrozenClock:
    """Constant UTC instant, so fixture-mode outputs are byte-identical;
    ``sleep()`` returns at once, so backoff costs no real time."""

    def sleep(self, seconds: float) -> None:
        pass

    def utc_instant(self) -> str:
        return "2020-01-01T00:00:00Z"
