"""Snapshot-isolated sessions over a :class:`~repro.database.Database`.

Each read statement pins the page-table version current at statement start
(:meth:`~repro.rss.storage.StorageEngine.pin_snapshot`) and executes
against a :class:`SnapshotStorage`: a storage-engine facade whose page
reads resolve *as of* the pinned version while a writer prepares the next
flip.  Writers mutate private clones (copy-on-write in
:meth:`~repro.rss.pagestore.PageStore.prepare_write`), so the committed
objects a snapshot resolves to are immutable and can be read without
locks.  Buffer accounting flows into the shared pool
(:meth:`~repro.rss.buffer.BufferPool.note_fetch`), which keeps a
fault-free single-session run's cost counters bit-identical to the
classic engine path in every exec mode.

Write statements are delegated to the database's group-commit pipeline;
the session is a thin convenience handle owned by exactly one client
thread.
"""

from __future__ import annotations

from typing import Callable

from ..errors import StorageError
from ..rss.btree import BTree
from ..rss.buffer import BufferPool
from ..rss.scan import DEFAULT_BATCH_SIZE, IndexScan, SegmentScan
from ..rss.segment import Segment
from ..rss.storage import CommittedMeta, ScanSnapshot, StorageEngine
from ..sql import ast, parse_statement


class _SnapshotPages:
    """Page-store facade resolving every read as of a pinned version.

    Writes still reach the live store: sessions allocate and free only
    *temp* pages (sort runs, temporary lists), whose ids are fresh and
    therefore resolve to the live map unchanged.
    """

    def __init__(self, store, version: int):
        self._store = store
        self._version = version

    def get(self, page_id: int) -> object:
        return self._store.resolve(page_id, self._version)

    def allocate_data_page(self, temp: bool = False):
        return self._store.allocate_data_page(temp=temp)

    def free(self, page_id: int) -> None:
        self._store.free(page_id)

    def is_temp(self, page_id: int) -> bool:
        return self._store.is_temp(page_id)


# concurrency: statement-scoped
class _SnapshotBuffer:
    """Buffer facade: shared LRU/counter accounting, versioned contents."""

    def __init__(self, shared: BufferPool, pages: _SnapshotPages):
        self._shared = shared
        self._pages = pages
        self.capacity = shared.capacity

    def fetch(self, page_id: int) -> object:
        self._shared.note_fetch(page_id)
        return self._pages.get(page_id)

    def invalidate(self, page_id: int) -> None:
        self._shared.invalidate(page_id)

    def clear(self) -> None:
        self._shared.clear()


# concurrency: statement-scoped
class SnapshotStorage:
    """A storage-engine facade that serves reads as of one pinned version.

    Exposes exactly the surface the executor consumes — ``counters``,
    ``buffer``, ``store``, the three scan constructors, and
    ``_datatypes`` — with segments and B-trees rebuilt from the frozen
    :class:`~repro.rss.storage.CommittedMeta` of the pinned version.
    Statement-scoped: built per read statement, discarded with the pin.
    """

    def __init__(self, engine: StorageEngine, version: int, meta: CommittedMeta):
        self.version = version
        self.counters = engine.counters
        self.store = _SnapshotPages(engine.store, version)
        self.buffer = _SnapshotBuffer(engine.buffer, self.store)
        self._meta = meta
        self._segments: dict[str, Segment] = {}
        self._btrees: dict[str, BTree] = {}

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

    def segment_scan(
        self,
        table,
        sargs=None,
        matcher: Callable[[tuple], bool] | None = None,
        decode_plan=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        decode_cache: dict | None = None,
    ) -> SegmentScan:
        return SegmentScan(
            self.segment(table.segment_name),
            table.relation_id,
            self._datatypes(table),
            self.buffer,
            self.counters,
            sargs,
            matcher=matcher,
            decode_plan=decode_plan,
            batch_size=batch_size,
            decode_cache=decode_cache,
        )

    def scan_snapshot(self, table) -> ScanSnapshot:
        return ScanSnapshot(
            page_ids=tuple(self.segment(table.segment_name).page_ids),
            relation_id=table.relation_id,
            get_page=self.store.get,
        )

    def index_scan(
        self,
        index,
        table,
        low: tuple | None = None,
        high: tuple | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        sargs=None,
        matcher: Callable[[tuple], bool] | None = None,
        decode_plan=None,
        batch_size: int = 1,
        decode_cache: dict | None = None,
    ) -> IndexScan:
        return IndexScan(
            self.btree(index.name),
            self.segment(table.segment_name),
            table.relation_id,
            self._datatypes(table),
            self.buffer,
            self.counters,
            low,
            high,
            low_inclusive,
            high_inclusive,
            sargs,
            matcher=matcher,
            decode_plan=decode_plan,
            batch_size=batch_size,
            decode_cache=decode_cache,
        )

    def _datatypes(self, table):
        return [column.datatype for column in table.columns]


# concurrency: driver-confined — a session is owned by one client thread
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
        if isinstance(statement, ast.SelectQuery):
            return self._read(statement)
        return self._db._execute_write(statement)

    def query(self, sql: str):
        """Alias of :meth:`execute` for read statements."""
        return self.execute(sql)

    def _read(self, statement: ast.SelectQuery):
        from ..database import StatementResult

        db = self._db
        # Shared latch: the catalog (and the planner's statistics) stay
        # stable for the whole statement; DML proceeds concurrently — page
        # stability comes from the pin, not the latch.
        with db.ddl_latch.shared():
            version, meta = db.storage.pin_snapshot()
            try:
                planned = db.plan_query(statement)
                result = db.executor(
                    SnapshotStorage(db.storage, version, meta)
                ).execute(planned)
            finally:
                db.storage.unpin(version)
        return StatementResult(
            statement_type="SELECT",
            columns=result.columns,
            rows=result.rows,
            affected_rows=len(result.rows),
            snapshot_version=version,
        )

    def close(self) -> None:
        """Release the session (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._db._forget_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
