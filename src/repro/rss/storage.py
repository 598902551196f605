"""The storage engine facade: segments, tables, indexes, and maintenance.

:class:`StorageEngine` owns the page store, the buffer pool, the cost
counters, and all physical structures (segments and B-trees).  Logical
definitions (:class:`~repro.catalog.schema.TableDef`,
:class:`~repro.catalog.schema.IndexDef`) live in the catalog; this engine
maps them to their physical counterparts and keeps indexes consistent with
the data under INSERT / UPDATE / DELETE.

Every mutating entry point runs inside a **statement micro-transaction**
(:meth:`StorageEngine.atomic`): either all of its page, segment, and index
effects land, or none of them do.  A mid-statement exception — including
one injected through :mod:`repro.rss.faults` — rolls the shadow versions
back, so segment/index consistency holds unconditionally.  With a durable
backing file (``path=...``), commit additionally serializes the touched
pages copy-on-write and flips the on-disk page table atomically (see
:mod:`repro.rss.disk`); re-opening the path recovers the last committed
state.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from ..catalog.schema import IndexDef, TableDef
from ..datatypes import DataType
from ..errors import CatalogError, IntegrityError, SimulatedCrash, StorageError
from .btree import BTree
from .buffer import DEFAULT_BUFFER_PAGES, BufferPool
from .counters import CostCounters
from .disk import DiskManager
from .faults import get_injector, register_point
from .page import TupleId
from .pagestore import PageStore
from .sargs import Sargs
from .scan import DEFAULT_BATCH_SIZE, IndexScan, SegmentScan
from .segment import Segment
from .tuples import DecodePlan, encode_tuple

FP_GROUP_COMMIT_BEFORE_FLIP = register_point(
    "group-commit.before-flip",
    "a group-commit batch is complete, about to flip the page table",
)


@dataclass(frozen=True)
class ScanSnapshot:
    """Read-only view of one relation's segment for the nested-loop hash
    probe of :mod:`repro.engine.fuse`.

    The page list is frozen at snapshot time (the same freeze
    :class:`~repro.rss.scan.SegmentScan` performs at open) and
    ``get_page`` reads pages straight from the page store — a plain
    lookup with **no** buffer-pool traffic and **no** counter effects.
    The probe hashes the relation from it once, then replays
    ``BufferPool.fetch`` over these page ids per probe, so the cost trace
    is the serial rescan's.
    """

    page_ids: tuple[int, ...]
    relation_id: int
    get_page: Callable[[int], object]


@dataclass(frozen=True)
class CommittedMeta:
    """Frozen physical metadata as of one committed version.

    Published atomically with each version bump (under the page-store
    lock), so a session that pins a version receives the segment page
    lists and B-tree scalars that describe exactly that version.  The
    dicts are built fresh per publish and never mutated afterwards.
    """

    #: segment name -> its page ids at commit time.
    segments: dict[str, tuple[int, ...]]
    #: index name -> (key_types, root page, first leaf page, entry count).
    indexes: dict[str, tuple]


class ScanSurface:
    """The RSI read surface the executor consumes, written once.

    The live :class:`StorageEngine` and the pinned
    :class:`~repro.serving.session.SnapshotStorage` both inherit it; each
    supplies ``counters``, ``buffer``, ``store`` and the ``segment(name)``
    / ``btree(index_name)`` lookups these constructors resolve through.
    """

    def segment_scan(
        self,
        table: TableDef,
        sargs: Sargs | None = None,
        matcher: Callable[[tuple], bool] | None = None,
        decode_plan: DecodePlan | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        decode_cache: dict | None = None,
    ) -> SegmentScan:
        """An RSI segment scan over one relation."""
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

    def scan_snapshot(self, table: TableDef) -> ScanSnapshot:
        """A frozen page list plus direct page-store access, no counters."""
        return ScanSnapshot(
            page_ids=tuple(self.segment(table.segment_name).page_ids),
            relation_id=table.relation_id,
            get_page=self.store.get,
        )

    def index_scan(
        self,
        index: IndexDef,
        table: TableDef,
        low: tuple | None = None,
        high: tuple | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        sargs: Sargs | None = None,
        matcher: Callable[[tuple], bool] | None = None,
        decode_plan: DecodePlan | None = None,
        batch_size: int = 1,
        decode_cache: dict | None = None,
    ) -> IndexScan:
        """An RSI index scan with optional key bounds and SARGs."""
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

    def _datatypes(self, table: TableDef) -> list[DataType]:
        return [column.datatype for column in table.columns]


class StorageEngine(ScanSurface):
    """Physical storage for a database instance."""

    def __init__(
        self,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        path: str | None = None,
    ):
        self.counters = CostCounters()
        disk = DiskManager(path) if path is not None else None
        self.store = PageStore(disk)
        self.buffer = BufferPool(self.store, self.counters, buffer_pages)
        self._segments: dict[str, Segment] = {}
        self._indexes: dict[str, BTree] = {}
        #: Catalog to persist on the metadata page (set by ``Database``).
        self.catalog: object | None = None
        #: Catalog recovered from the backing file, if any.
        self.recovered_catalog: object | None = None
        #: Undo metadata of the open transaction; ``None`` when none is.
        #: It and ``_crashed`` are touched only by the single in-flight
        #: writer, so they need no latch.
        self._batch_meta = None
        self._crashed = False
        #: Guards re-publication of the frozen committed-metadata snapshot.
        self._meta_latch = threading.Lock()
        if disk is not None:
            get_injector().attach_disk(disk)
            if disk.page_ids():
                self._recover(disk)
        self._committed_meta = self._build_committed_meta()

    def _recover(self, disk: DiskManager) -> None:
        from .recovery import recover

        state = recover(disk)
        self.store.adopt(state.pages, state.next_page_id)
        for name, page_ids in state.meta.segments:
            segment = Segment(name, self.store, self.buffer)
            segment.page_ids = list(page_ids)
            self._segments[name] = segment
        for index_meta in state.meta.indexes:
            self._indexes[index_meta.name] = BTree.from_recovered(
                self.store,
                self.buffer,
                index_meta.key_types,
                index_meta.root_page_id,
                index_meta.first_leaf_page_id,
                index_meta.entry_count,
            )
        self.recovered_catalog = state.meta.catalog

    def close(self) -> None:
        """Release the backing file handle, if any."""
        disk = self.store.disk
        if disk is not None:
            disk.close()
            injector = get_injector()
            if injector._disk is disk:
                injector.attach_disk(None)

    # -- statement micro-transactions -----------------------------------------

    @contextmanager
    def _undo_on_error(self, undo: Callable[[], None]):
        """The engine's one rollback/crash ladder.

        Any exception out of the block runs ``undo`` and propagates.  A
        :class:`SimulatedCrash` instead poisons the engine without rolling
        anything back (the "process" is gone); the durable state was
        snapshotted by the fault injector at raise time.
        """
        try:
            yield
        except SimulatedCrash:
            self._crashed = True
            self._batch_meta = None
            raise
        except BaseException:
            undo()
            raise

    @contextmanager
    def atomic(self):
        """Scope one statement: commit all of its effects, or none.

        Re-entrant — a nested ``atomic`` joins the enclosing statement or
        batch.  A top-level scope is a batch of one statement (its
        savepoint would coincide with the batch start, so the batch undo
        is the statement undo): on any exception the page store's shadow
        copies are restored, pages allocated by the statement vanish, and
        segment/index metadata reverts, leaving the store exactly as
        before the statement.
        """
        if self._batch_meta is not None:
            yield
            return
        self.begin_batch()
        with self._undo_on_error(self.abort_batch):
            yield
        self.commit_batch()

    def begin_batch(self) -> None:
        """Open a transaction: one statement, or one group-commit batch.

        Individual statements are bracketed with :meth:`statement`; the
        batch lands with :meth:`commit_batch` (one page-table flip) or is
        discarded whole with :meth:`abort_batch`.
        """
        if self._batch_meta is not None:
            raise StorageError("a statement transaction is already open")
        if self._crashed:
            raise StorageError(
                "storage engine crashed (simulated); re-open it from disk"
            )
        self._batch_meta = self._snapshot_meta()
        self.store.begin()

    @contextmanager
    def statement(self):
        """Bracket one statement inside an open batch with a savepoint.

        A failing statement rolls back to its savepoint — page effects and
        segment/index metadata alike — leaving its batch peers intact.
        """
        if self._batch_meta is None:
            raise StorageError("no open batch for a statement")
        token = self.store.savepoint()
        meta = self._snapshot_meta()

        def undo() -> None:
            self.store.rollback_to(token, self.buffer)
            self._restore_meta(meta)

        with self._undo_on_error(undo):
            yield

    def commit_batch(self) -> int:
        """Flip every surviving statement of the batch in one durable commit.

        Returns the new page-table version.  On failure the whole batch
        rolls back (all-or-nothing) and the original exception propagates —
        the caller translates it into per-participant outcomes.
        """
        if self._batch_meta is None:
            raise StorageError("no open batch to commit")
        with self._undo_on_error(self.abort_batch):
            get_injector().trip(FP_GROUP_COMMIT_BEFORE_FLIP)
            blob = self._meta_blob() if self.store.disk is not None else None
            version = self.store.commit(blob, publish=self._publish_meta)
        self._batch_meta = None
        return version

    def abort_batch(self) -> None:
        """Discard the open batch entirely (no commit, no version bump)."""
        if self._batch_meta is None:
            raise StorageError("no open batch to abort")
        try:
            self.store.rollback(self.buffer)
            self._restore_meta(self._batch_meta)
        finally:
            self._batch_meta = None

    # -- snapshot pins ----------------------------------------------------------

    def pin_snapshot(self) -> tuple[int, CommittedMeta]:
        """Pin the current committed version for a reader.

        Returns the version and the matching frozen metadata, taken
        atomically under the page-store lock, so the pair can never
        straddle a concurrent commit.  Release with :meth:`unpin`.
        """
        return self.store.pin_snapshot(lambda: self._committed_meta)

    def unpin(self, version: int) -> None:
        """Release a reader pin taken by :meth:`pin_snapshot`."""
        self.store.unpin(version)

    def _build_committed_meta(self) -> CommittedMeta:
        return CommittedMeta(
            segments={
                name: tuple(segment.page_ids)
                for name, segment in self._segments.items()
            },
            indexes={
                name: (tuple(btree.key_types), *btree.state())
                for name, btree in self._indexes.items()
            },
        )

    def _publish_meta(self) -> None:
        with self._meta_latch:
            self._committed_meta = self._build_committed_meta()

    def _snapshot_meta(self):
        """Cheap logical snapshot: segment page lists and B-tree scalars."""
        return (
            {
                name: list(segment.page_ids)
                for name, segment in self._segments.items()
            },
            {
                name: (btree, btree.state())
                for name, btree in self._indexes.items()
            },
        )

    def _restore_meta(self, snapshot) -> None:
        segment_pages, btrees = snapshot
        self._segments = {
            name: segment
            for name, segment in self._segments.items()
            if name in segment_pages
        }
        for name, page_ids in segment_pages.items():
            if name in self._segments:
                self._segments[name].page_ids = page_ids
        self._indexes = {}
        for name, (btree, state) in btrees.items():
            btree.restore_state(state)
            self._indexes[name] = btree

    def _meta_blob(self) -> bytes:
        from .recovery import IndexMeta, StoreMeta, serialize_meta

        return serialize_meta(
            StoreMeta(
                catalog=self.catalog,
                segments=[
                    (name, list(segment.page_ids))
                    for name, segment in self._segments.items()
                ],
                indexes=[
                    IndexMeta(
                        name,
                        *btree.state(),
                        key_types=list(btree.key_types),
                    )
                    for name, btree in self._indexes.items()
                ],
            )
        )

    # -- segments -------------------------------------------------------------

    def create_segment(self, name: str) -> Segment:
        """Create a new, empty segment by name."""
        if name in self._segments:
            raise CatalogError(f"segment {name!r} already exists")
        segment = Segment(name, self.store, self.buffer)
        self._segments[name] = segment
        return segment

    def segment(self, name: str) -> Segment:
        """Look a segment up by name; raises when unknown."""
        try:
            return self._segments[name]
        except KeyError:
            raise StorageError(f"no such segment {name!r}") from None

    def ensure_segment(self, name: str) -> Segment:
        """The named segment, created on first use."""
        if name not in self._segments:
            return self.create_segment(name)
        return self._segments[name]

    # -- tuples -----------------------------------------------------------------

    def insert(
        self, table: TableDef, indexes: list[IndexDef], values: tuple
    ) -> TupleId:
        """Insert a validated tuple and maintain every index on the table."""
        with self.atomic():
            self._check_unique(table, indexes, values, exclude_tid=None)
            record = encode_tuple(
                table.relation_id, values, self._datatypes(table)
            )
            tid = self.segment(table.segment_name).insert(record)
            for index in indexes:
                self.btree(index.name).insert(index.key_of(values), tid)
            return tid

    def delete(
        self, table: TableDef, indexes: list[IndexDef], tid: TupleId, values: tuple
    ) -> None:
        """Remove a tuple and its index entries."""
        with self.atomic():
            self.segment(table.segment_name).delete(tid)
            for index in indexes:
                self.btree(index.name).delete(index.key_of(values), tid)

    def update(
        self,
        table: TableDef,
        indexes: list[IndexDef],
        tid: TupleId,
        old_values: tuple,
        new_values: tuple,
    ) -> TupleId:
        """Rewrite a tuple; the TID changes only if the record had to move."""
        with self.atomic():
            self._check_unique(table, indexes, new_values, exclude_tid=tid)
            record = encode_tuple(
                table.relation_id, new_values, self._datatypes(table)
            )
            new_tid = self.segment(table.segment_name).update(tid, record)
            for index in indexes:
                old_key = index.key_of(old_values)
                new_key = index.key_of(new_values)
                if old_key != new_key or new_tid != tid:
                    btree = self.btree(index.name)
                    btree.delete(old_key, tid)
                    btree.insert(new_key, new_tid)
            return new_tid

    def read_values(self, table: TableDef, tid: TupleId) -> tuple:
        """Decode the tuple at a TID into column values."""
        from .tuples import decode_tuple

        record = self.segment(table.segment_name).read(tid)
        return decode_tuple(record, self._datatypes(table))

    # -- indexes -----------------------------------------------------------------

    def create_index(self, index: IndexDef, table: TableDef) -> BTree:
        """Create a B-tree and bulk-load it from the table's current tuples.

        Index builds are DDL: they run with cost counting suppressed so they
        do not pollute query measurements.
        """
        if index.name in self._indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        with self.atomic():
            key_types = [
                table.column(name).datatype for name in index.column_names
            ]
            btree = BTree(self.store, self.buffer, key_types)
            self._indexes[index.name] = btree
            with self.suppress_counting():
                for tid, values in self._raw_scan(table):
                    key = index.key_of(values)
                    if (
                        index.unique
                        and None not in key
                        and btree.contains_key(key)
                    ):
                        del self._indexes[index.name]
                        raise IntegrityError(
                            f"duplicate key {key!r} while building unique "
                            f"index {index.name!r}"
                        )
                    btree.insert(key, tid)
            return btree

    def drop_index(self, name: str) -> None:
        """Forget an index's physical B-tree and release its node pages."""
        with self.atomic():
            btree = self._indexes.pop(name, None)
            if btree is not None:
                btree.free_pages()

    def btree(self, index_name: str) -> BTree:
        """The physical B-tree behind an index name."""
        try:
            return self._indexes[index_name]
        except KeyError:
            raise StorageError(f"no such index {index_name!r}") from None

    def cluster_table(
        self, table: TableDef, cluster_index: IndexDef, all_indexes: list[IndexDef]
    ) -> None:
        """Physically reorganize a table into ``cluster_index`` key order.

        This realizes the paper's clustered-index property: after the
        reorganization, tuples adjacent in the index are adjacent on data
        pages, so an index scan touches each data page only once.  The table
        gets a fresh private tail of pages in its segment; all indexes on
        the table are rebuilt with the new TIDs.
        """
        from .btree import orderable_key

        with self.atomic(), self.suppress_counting():
            rows = [values for __, values in self._raw_scan(table)]
            rows.sort(key=lambda values: orderable_key(cluster_index.key_of(values)))
            segment = self.segment(table.segment_name)
            for tid, __ in list(self._raw_scan(table)):
                segment.delete(tid)
            segment.release_empty_pages()
            for index in all_indexes:
                old = self._indexes.pop(index.name, None)
                if old is not None:
                    old.free_pages()
                key_types = [
                    table.column(name).datatype for name in index.column_names
                ]
                self._indexes[index.name] = BTree(
                    self.store, self.buffer, key_types
                )
            datatypes = self._datatypes(table)
            for values in rows:
                record = encode_tuple(table.relation_id, values, datatypes)
                tid = segment.insert(record, append_only=True)
                for index in all_indexes:
                    self.btree(index.name).insert(index.key_of(values), tid)

    # -- measurement helpers -------------------------------------------------------

    @contextmanager
    def suppress_counting(self):
        """Run maintenance work without perturbing the cost counters."""
        saved = self.counters.snapshot()
        try:
            yield
        finally:
            self.counters.restore(saved)

    def cold_cache(self) -> None:
        """Empty the buffer pool so the next measurement starts cold."""
        self.buffer.clear()

    # -- internals ---------------------------------------------------------------

    def _raw_scan(self, table: TableDef):
        return iter(
            SegmentScan(
                self.segment(table.segment_name),
                table.relation_id,
                self._datatypes(table),
                self.buffer,
                self.counters,
            )
        )

    def _check_unique(
        self,
        table: TableDef,
        indexes: list[IndexDef],
        values: tuple,
        exclude_tid: TupleId | None,
    ) -> None:
        for index in indexes:
            if not index.unique:
                continue
            key = index.key_of(values)
            if None in key:
                continue  # SQL-style: NULLs never collide
            btree = self.btree(index.name)
            for __, tid in btree.scan_range(key, key):
                if tid != exclude_tid:
                    raise IntegrityError(
                        f"duplicate key {key!r} for unique index {index.name!r}"
                    )
