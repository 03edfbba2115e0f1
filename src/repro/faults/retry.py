"""Retry/backoff for transient device errors, with honest accounting.

A transient :class:`~repro.faults.plan.IoError` on the SSD path means
the submit happened, the device balked, and the caller tries again.
Each attempt's charges live *inside* the attempt callable (I/O-path
round trip, device busy time), so retrying re-charges them naturally;
this wrapper adds the CPU cost of the backoff itself — parking and
re-dispatching the worker — as ``context_switch`` charges that grow
with the attempt number.  Nothing here reads a wall clock: backoff is
virtual time via the CPU model, like every other cost in the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

from ..frozen import check_bounds
from .plan import IoError

if TYPE_CHECKING:  # keep faults import-independent of hardware
    from ..hardware.machine import Machine

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How many attempts, and how the virtual backoff grows."""

    max_attempts: int = 4
    #: ``context_switch`` charges before retry k: base * multiplier**(k-1).
    backoff_base: int = 1
    backoff_multiplier: int = 2

    #: At least one attempt; a backoff that never shrinks.
    BOUNDS = {"max_attempts": (1, math.inf), "backoff_base": (0, math.inf),
              "backoff_multiplier": (1, math.inf)}

    def __post_init__(self) -> None:
        check_bounds(self)

    def backoff_switches(self, retry_number: int) -> int:
        """Context switches charged before the ``retry_number``-th retry."""
        return self.backoff_base * self.backoff_multiplier ** (retry_number - 1)


DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(slots=True)
class RetryStats:
    """Cumulative retries of one store/log (the crash matrix's
    transient-noise pass reports them)."""

    retries: int = 0


def run_with_retries(
    machine: Machine,
    attempt: Callable[[], T],
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    stats: Optional[RetryStats] = None,
    category: str = "io_retry",
) -> T:
    """Run ``attempt``, retrying transient :class:`IoError` failures.

    ``attempt`` must contain its own CPU/IO charges so every retry pays
    the full price of the failed access again; this wrapper only adds
    the backoff's ``context_switch`` charges.  Raises the last
    :class:`IoError` once ``policy.max_attempts`` are exhausted.
    """
    last: Optional[IoError] = None
    for attempt_number in range(1, policy.max_attempts + 1):
        if attempt_number > 1:
            machine.cpu.charge(
                "context_switch",
                policy.backoff_switches(attempt_number - 1),
                category=category,
            )
            if stats is not None:
                stats.retries += 1
        try:
            return attempt()
        except IoError as exc:
            last = exc
    assert last is not None
    raise last
