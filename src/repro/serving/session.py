"""Client sessions and the pinned storage view their reads run against.

Every SELECT — from a :class:`Session` or straight from the
:class:`~repro.database.Database` — pins the page-table version current at
statement start (:meth:`~repro.rss.storage.StorageEngine.pin_snapshot`)
and executes against a :class:`SnapshotStorage`, whose page reads resolve
*as of* the pinned version while a writer prepares the next flip.  Writers
mutate private clones (copy-on-write in
:meth:`~repro.rss.pagestore.PageStore.prepare_write`), so the committed
objects a snapshot resolves to are immutable and can be read without
locks.  Buffer accounting flows into the shared pool
(:meth:`~repro.rss.buffer.BufferPool.note_fetch`), which keeps a
fault-free single-client run's cost counters bit-identical to a bare
executor over the live engine in every exec mode.

A session is a thin handle owned by exactly one client thread; its
statements run through the database's one statement pipeline.
"""

from __future__ import annotations

from ..errors import StorageError
from ..rss.btree import BTree
from ..rss.segment import Segment
from ..rss.storage import CommittedMeta, ScanSurface, StorageEngine
from ..sql import ast, parse_statement


class SnapshotStorage(ScanSurface):
    """The storage read surface as of one pinned version.

    Exposes exactly what the executor consumes — ``counters``, the scan
    constructors of :class:`~repro.rss.storage.ScanSurface`, and itself as
    both ``store`` and ``buffer``: page contents resolve as of the pin,
    hit/fetch accounting goes to the shared pool, and the *temp* pages a
    statement allocates (sort runs, temporary lists; fresh ids, so they
    resolve to the live map unchanged) reach the live store.  Segments
    and B-trees are rebuilt from the frozen
    :class:`~repro.rss.storage.CommittedMeta` of the pinned version.
    Statement-scoped: built per read statement, discarded with the pin.
    """

    def __init__(self, engine: StorageEngine, version: int, meta: CommittedMeta):
        self.version = version
        self.counters = engine.counters
        self.store = self.buffer = self
        self._live_store = engine.store
        self._live_buffer = engine.buffer
        self.capacity = engine.buffer.capacity
        self.allocate_data_page = engine.store.allocate_data_page
        self.free = engine.store.free
        self.invalidate = engine.buffer.invalidate
        self.note_fetch = engine.buffer.note_fetch
        self._meta = meta
        self._segments: dict[str, Segment] = {}
        self._btrees: dict[str, BTree] = {}

    def get(self, page_id: int) -> object:
        """The page as of the pinned version, with no buffer accounting."""
        return self._live_store.resolve(page_id, self.version)

    def fetch(self, page_id: int) -> object:
        """The page as of the pinned version, counted in the shared pool."""
        self._live_buffer.note_fetch(page_id)
        return self._live_store.resolve(page_id, self.version)

    def segment(self, name: str) -> Segment:
        segment = self._segments.get(name)
        if segment is None:
            page_ids = self._meta.segments.get(name)
            if page_ids is None:
                raise StorageError(f"no such segment {name!r}")
            segment = Segment(name, self.store, self.buffer)
            segment.page_ids = list(page_ids)
            self._segments[name] = segment
        return segment

    def btree(self, index_name: str) -> BTree:
        tree = self._btrees.get(index_name)
        if tree is None:
            try:
                key_types, root, first_leaf, count = self._meta.indexes[
                    index_name
                ]
            except KeyError:
                raise StorageError(f"no such index {index_name!r}") from None
            tree = BTree.from_recovered(
                self.store, self.buffer, list(key_types), root, first_leaf, count
            )
            self._btrees[index_name] = tree
        return tree


class Session:
    """One client's handle on a shared database.

    Reads are snapshot-isolated (each statement pins the version current
    at its start); writes queue through the shared group-commit pipeline.
    Obtain sessions from :meth:`repro.database.Database.session`; one
    session must not be shared between threads (open one per client).
    """

    def __init__(self, db, name: str | None = None):
        self._db = db
        self.name = name if name is not None else f"session-{id(self):x}"
        self._closed = False

    def execute(self, sql: str):
        """Parse and execute one SQL statement in this session."""
        return self.execute_statement(parse_statement(sql))

    def execute_statement(self, statement: ast.Statement):
        """Execute an already-parsed statement in this session."""
        if self._closed:
            raise StorageError(f"session {self.name!r} is closed")
        return self._db._execute(statement)

    def query(self, sql: str):
        """Alias of :meth:`execute` for read statements."""
        return self.execute(sql)

    def close(self) -> None:
        """Release the session (idempotent)."""
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
