"""The concurrent serving layer: sessions, snapshot reads, group commit.

Shadow paging (PR 4) already produces an immutable page-table version per
commit; this package exploits it.  Every SELECT — through a
:class:`~repro.serving.session.Session` or straight through the database —
pins the committed version current at its start and scans a frozen view of
it while writers prepare the next flip; writers serialize
through a single commit lock (bounded exponential backoff, typed
:class:`~repro.errors.DatabaseBusyError` on timeout) and the
:class:`~repro.serving.coordinator.GroupCommitCoordinator` batches
concurrently queued statements into one fsync+rename page-table flip.
:mod:`repro.serving.stress` drives hundreds of concurrent clients against
one durable database and checks the snapshot-isolation invariants, under
the fault-injection matrix when asked.
"""

from .coordinator import GroupCommitCoordinator
from .locks import CommitLock, RWLatch
from .session import Session, SnapshotStorage

__all__ = [
    "CommitLock",
    "GroupCommitCoordinator",
    "RWLatch",
    "Session",
    "SnapshotStorage",
]
