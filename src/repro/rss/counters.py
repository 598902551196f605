"""Cost-event counters shared across the storage system.

The paper's cost model is ``COST = PAGE_FETCHES + W * RSI_CALLS``.  The
buffer pool increments :attr:`CostCounters.page_fetches` on every miss, and
scans increment :attr:`CostCounters.rsi_calls` for every tuple returned
across the RSI.  Benchmarks snapshot the counters around an execution to get
the *measured* cost of a plan.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostCounters:
    """Mutable counters for the two cost events of the System R cost model."""

    page_fetches: int = 0
    rsi_calls: int = 0
    buffer_hits: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.page_fetches = 0
        self.rsi_calls = 0
        self.buffer_hits = 0

    def count_rsi_call(self, calls: int = 1) -> None:
        """Record tuples crossing the RSI.

        The only sanctioned way to count RSI events from outside ``rss/``
        (temporary-list traffic, merge group re-reads); the project lint
        forbids mutating the counter fields directly elsewhere.
        """
        self.rsi_calls += calls

    def snapshot(self) -> "CounterSnapshot":
        """An immutable copy of the current counter values."""
        return CounterSnapshot(self.page_fetches, self.rsi_calls, self.buffer_hits)

    def restore(self, saved: "CounterSnapshot") -> None:
        """Rewind the counters to a previously-taken snapshot.

        Lifecycle writes (reset/restore) live here, next to the fields:
        every mutation *outside* this class must be an increment.
        """
        self.page_fetches = saved.page_fetches
        self.rsi_calls = saved.rsi_calls
        self.buffer_hits = saved.buffer_hits


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable point-in-time copy of :class:`CostCounters`."""

    page_fetches: int
    rsi_calls: int
    buffer_hits: int

    def delta(self, counters: CostCounters) -> "CounterSnapshot":
        """Events since this snapshot was taken."""
        return CounterSnapshot(
            counters.page_fetches - self.page_fetches,
            counters.rsi_calls - self.rsi_calls,
            counters.buffer_hits - self.buffer_hits,
        )
