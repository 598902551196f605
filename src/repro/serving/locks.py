"""Synchronization primitives for the serving layer.

Two locks govern concurrent statements:

- :class:`CommitLock` — the single writer lock.  Writers never block on it
  directly; the group-commit coordinator polls it with bounded exponential
  backoff until a configurable timeout, so a stuck writer degrades into a
  typed :class:`~repro.errors.DatabaseBusyError` instead of a hang.
- :class:`RWLatch` — a writer-preference reader/writer latch separating
  schema-stable statements (reads and DML take it shared) from DDL and
  UPDATE STATISTICS (exclusive).  Snapshot pinning freezes *pages*; this
  latch is what keeps the *catalog* stable for the duration of a statement
  that plans against it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

#: Default time budget for acquiring the commit lock.
DEFAULT_COMMIT_TIMEOUT = 5.0
#: First backoff sleep after a failed acquire.
DEFAULT_INITIAL_BACKOFF = 0.0005
#: Backoff ceiling — doubling stops here (bounded exponential backoff).
DEFAULT_MAX_BACKOFF = 0.02


class CommitLock:
    """The single writer lock, polled with bounded exponential backoff.

    ``try_acquire`` never blocks; callers interleave failed attempts with
    :meth:`delays` sleeps.  Keeping the waiting strategy outside the lock
    lets the coordinator wait on *either* the lock or its ticket's
    completion, whichever comes first.
    """

    def __init__(
        self,
        timeout: float = DEFAULT_COMMIT_TIMEOUT,
        initial_backoff: float = DEFAULT_INITIAL_BACKOFF,
        max_backoff: float = DEFAULT_MAX_BACKOFF,
    ):
        if timeout <= 0:
            raise ValueError(f"commit timeout must be positive, got {timeout!r}")
        self._lock = threading.Lock()
        self.timeout = timeout
        self.initial_backoff = initial_backoff
        self.max_backoff = max_backoff

    def try_acquire(self) -> bool:
        """Take the lock if free; never blocks."""
        return self._lock.acquire(blocking=False)

    def release(self) -> None:
        self._lock.release()

    def delays(self):
        """The bounded exponential backoff schedule: an endless iterator of
        sleep durations, doubling from ``initial_backoff`` up to
        ``max_backoff``.  The caller owns the deadline."""
        delay = self.initial_backoff
        while True:
            yield delay
            delay = min(delay * 2.0, self.max_backoff)


class RWLatch:
    """A writer-preference reader/writer latch.

    Readers (shared) may overlap each other; a writer (exclusive) waits
    for them to drain and blocks new readers while it waits, so DDL is
    never starved by a steady read stream.  Statements acquire the latch
    for their whole duration and never re-enter it, which is what makes
    the simple non-reentrant protocol deadlock-free.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def shared(self):
        """Hold the latch in shared mode (reads, DML)."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def exclusive(self):
        """Hold the latch in exclusive mode (DDL, UPDATE STATISTICS)."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()
