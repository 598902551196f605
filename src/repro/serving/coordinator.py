"""Group commit: batching concurrent writers into one page-table flip.

Every write statement is wrapped in a ticket and queued.  Whichever
submitter first wins the commit lock becomes the **leader**: it drains the
queue, executes each queued statement as a savepoint-bracketed unit inside
one storage batch, and lands all survivors with a single fsync+rename
page-table flip (:meth:`~repro.rss.storage.StorageEngine.commit_batch`) —
the dominant durability cost is paid once per batch instead of once per
statement.  Followers wait on their ticket with bounded exponential
backoff; a follower whose ticket is still pending at the timeout withdraws
it and raises :class:`~repro.errors.DatabaseBusyError` (nothing ran), while
a claimed ticket is always carried to an outcome by its leader — commit,
per-statement rollback, or batch-wide :class:`~repro.errors.CommitAbortedError` —
so no session ever hangs or silently loses a result.

Outcome rules:

- A statement that raises rolls back to its savepoint alone; its peers
  commit.  The statement's own exception is its outcome.
- A failed batch commit rolls everything back.  A solo statement receives
  the original commit error (exactly what a top-level
  :meth:`~repro.rss.storage.StorageEngine.atomic` block raises);
  a multi-statement batch receives :class:`CommitAbortedError` per
  participant with the underlying failure as ``__cause__``.
- A :class:`~repro.errors.SimulatedCrash` poisons the engine: every
  statement of the batch — executed or not — fails with the crash, and
  recovery happens by re-opening the disk snapshot it carries.
"""

from __future__ import annotations

import threading
from collections import deque
from time import monotonic
from typing import Callable

from ..errors import CommitAbortedError, DatabaseBusyError, SimulatedCrash
from ..rss.faults import get_injector, register_point
from .locks import (
    DEFAULT_COMMIT_TIMEOUT,
    DEFAULT_INITIAL_BACKOFF,
    DEFAULT_MAX_BACKOFF,
    CommitLock,
)

FP_COMMIT_LOCK = register_point(
    "commit.lock", "a write statement is about to queue for the commit lock"
)


class _Ticket:
    """One queued write statement and its eventual outcome."""

    __slots__ = ("fn", "done", "_lock", "pending", "result", "error", "commit_version")

    def __init__(self, fn: Callable[[], object]):
        self.fn = fn
        #: Set once the outcome fields are final; waiters block on this.
        self.done = threading.Event()
        self._lock = threading.Lock()
        #: Still in the queue — withdrawable on timeout.  Flipped to False
        #: (under the coordinator's queue lock) when a leader claims it.
        self.pending = True
        self.result: object = None
        self.error: BaseException | None = None
        self.commit_version: int | None = None

    def succeed(self, result: object, version: int) -> None:
        with self._lock:
            self.result = result
            self.commit_version = version
        self.done.set()

    def fail(self, error: BaseException) -> None:
        with self._lock:
            self.error = error
        self.done.set()


class GroupCommitCoordinator:
    """Serializes writers through one commit lock and batches their flips."""

    def __init__(
        self,
        engine,
        timeout: float = DEFAULT_COMMIT_TIMEOUT,
        initial_backoff: float = DEFAULT_INITIAL_BACKOFF,
        max_backoff: float = DEFAULT_MAX_BACKOFF,
    ):
        self._engine = engine
        self._commit_lock = CommitLock(timeout, initial_backoff, max_backoff)
        self._queue_lock = threading.Lock()
        self._queue: deque[_Ticket] = deque()
        self._stats_lock = threading.Lock()
        self.batches_committed = 0
        self.statements_committed = 0
        self.largest_batch = 0

    @property
    def timeout(self) -> float:
        return self._commit_lock.timeout

    def submit(self, fn: Callable[[], object]) -> tuple[object, int | None]:
        """Run one write statement through the commit pipeline.

        Returns ``(result, commit_version)`` on success.  Raises the
        statement's own error on per-statement rollback,
        :class:`DatabaseBusyError` when the commit lock stayed contended
        past the timeout (the statement never ran), or
        :class:`CommitAbortedError` when a multi-statement batch failed to
        land.
        """
        get_injector().trip(FP_COMMIT_LOCK)
        ticket = _Ticket(fn)
        with self._queue_lock:
            self._queue.append(ticket)
        deadline = monotonic() + self._commit_lock.timeout
        delays = self._commit_lock.delays()
        while not ticket.done.is_set():
            if self._commit_lock.try_acquire():
                try:
                    self._drain()
                finally:
                    self._commit_lock.release()
                if not ticket.done.is_set():
                    # A previous leader claimed the ticket before our drain
                    # saw it; its outcome is guaranteed, so wait it out.
                    ticket.done.wait()
                break
            remaining = deadline - monotonic()
            if remaining <= 0.0:
                if self._withdraw(ticket):
                    raise DatabaseBusyError(self._commit_lock.timeout)
                ticket.done.wait()  # claimed: the leader owes us an outcome
                break
            ticket.done.wait(min(next(delays), remaining))
        if ticket.error is not None:
            raise ticket.error
        return ticket.result, ticket.commit_version

    def _withdraw(self, ticket: _Ticket) -> bool:
        """Remove a still-pending ticket from the queue; False if claimed."""
        with self._queue_lock:
            if ticket.pending:
                self._queue.remove(ticket)
                ticket.pending = False
                return True
            return False

    def _drain(self) -> None:
        """Leader duty: claim everything queued right now and run it."""
        with self._queue_lock:
            batch = list(self._queue)
            self._queue.clear()
            for ticket in batch:
                ticket.pending = False
        if batch:
            self._run_batch(batch)

    def _run_batch(self, tickets: list[_Ticket]) -> None:
        engine = self._engine
        try:
            engine.begin_batch()
        except BaseException as error:
            for ticket in tickets:
                ticket.fail(error)
            return
        survivors: list[tuple[_Ticket, object]] = []
        crash: SimulatedCrash | None = None
        for ticket in tickets:
            if crash is not None:
                ticket.fail(crash)
                continue
            try:
                with engine.statement():
                    result = ticket.fn()
            except SimulatedCrash as error:
                crash = error
                ticket.fail(error)
            except BaseException as error:
                ticket.fail(error)  # rolled back to its savepoint alone
            else:
                survivors.append((ticket, result))
        if crash is not None:
            # The "process" is gone mid-batch: nothing of it is durable,
            # and every participant learns the crash.
            for ticket, __ in survivors:
                ticket.fail(crash)
            return
        if not survivors:
            engine.abort_batch()
            return
        try:
            version = engine.commit_batch()
        except SimulatedCrash as error:
            for ticket, __ in survivors:
                ticket.fail(error)
            return
        except BaseException as error:
            if len(tickets) == 1:
                # Solo statement: rolled back, original exception.
                survivors[0][0].fail(error)
            else:
                for ticket, __ in survivors:
                    aborted = CommitAbortedError(len(survivors))
                    aborted.__cause__ = error
                    ticket.fail(aborted)
            return
        with self._stats_lock:
            self.batches_committed += 1
            self.statements_committed += len(survivors)
            self.largest_batch = max(self.largest_batch, len(survivors))
        for ticket, result in survivors:
            ticket.succeed(result, version)
