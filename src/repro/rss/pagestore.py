"""The "disk": an allocator and owner of all pages in the system.

Data pages are :class:`~repro.rss.page.Page` objects backed by real bytes.
B-tree node pages are structured objects (see :mod:`repro.rss.btree`) that
occupy the same page-id space, so the buffer pool accounts for index page
fetches and data page fetches uniformly — exactly the two page populations
the paper's cost formulas distinguish (``NINDX`` vs ``TCARD``).

The store is also the unit of **statement atomicity**.  Between
:meth:`PageStore.begin` and :meth:`commit`/:meth:`rollback`, the first
mutation of any committed page swaps a private writable clone into the live
map and keeps the pristine original as the undo image — copy-on-write *for
the writer*, System R shadow-version style.  Committed page objects are
therefore never mutated in place, which is what lets concurrent snapshot
readers (the serving layer) keep reading them without locks while a writer
prepares the next version.  Rollback reinstalls the originals and discards
pages allocated inside the transaction, so a statement that fails half-way
leaves no trace.  When a :class:`~repro.rss.disk.DiskManager` is attached,
commit serializes every page the transaction touched and flips the durable
page table atomically; without one, commit is free — the fault-free
in-memory path does exactly the same page operations it always did.

**Savepoints** layer the undo state per statement: a group-commit batch
opens one transaction, brackets each queued statement with
:meth:`savepoint`/:meth:`rollback_to`, and flips all surviving statements
in a single commit.

**Versions** count committed transactions.  While any reader holds a pin
(:meth:`pin`), each commit records the pre-images of the pages it replaced
or freed, so :meth:`resolve` can serve any page *as of* the pinned version:
first a matching pre-image from a later commit, then the in-flight writer's
undo images, then the live map.  History entries are garbage-collected as
pins release.

Pages allocated with ``temp=True`` (sort runs, temporary lists) are scratch:
they participate in neither undo nor durability.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

from ..errors import StorageError
from .faults import get_injector, register_point
from .page import Page

if TYPE_CHECKING:
    from .disk import DiskManager

FP_PAGE_ALLOC = register_point("page.alloc", "allocating a fresh page id")
FP_PAGE_MUTATE = register_point(
    "page.mutate", "first in-transaction mutation of a page (shadow copy)"
)


class _TxFrame:
    """Undo state for one savepoint level of the open transaction."""

    __slots__ = ("undo", "allocated", "freed", "swapped")

    def __init__(self) -> None:
        #: page id -> pre-image object as of this frame's savepoint.  For
        #: the frame that first touched a committed page this is the
        #: pristine committed original (see ``swapped``); for later frames
        #: it is a savepoint copy of the writable clone.
        self.undo: dict[int, object] = {}
        #: page ids allocated inside this frame.
        self.allocated: set[int] = set()
        #: page id -> object at free time, for pages freed in this frame.
        self.freed: dict[int, object] = {}
        #: page ids whose committed original was replaced by a writable
        #: clone *in this frame* — for those, ``undo`` holds the original.
        self.swapped: set[int] = set()


class PageStore:
    """Allocates page ids and owns page contents.

    All reads must go through a :class:`~repro.rss.buffer.BufferPool`, which
    is what makes page fetches countable; the store itself never counts.
    """

    def __init__(self, disk: "DiskManager | None" = None):
        #: Guards the live page map, the allocator watermark, the undo
        #: frames, and the version/pin/history bookkeeping below, so
        #: snapshot readers and temp-page allocation from client threads
        #: stay consistent with the single in-flight writer.
        self._lock = threading.RLock()
        self._pages: dict[int, object] = {}
        self._next_id = 1
        self._temp_ids: set[int] = set()
        self.disk = disk
        if disk is not None:
            self._next_id = max(self._next_id, disk.next_page_id)
        self._in_tx = False
        self._frames: list[_TxFrame] = []
        #: Page ids swapped to writable clones since ``begin`` (any frame).
        self._writable: set[int] = set()
        #: Page ids allocated since ``begin`` (any frame).
        self._allocated_ids: set[int] = set()
        #: Committed-transaction counter; bumped once per commit.
        self.version = 0
        #: version -> number of readers pinned at it.
        self._pins: dict[int, int] = {}
        #: (commit version, page id -> pre-image) entries, oldest first,
        #: retained only while a pin older than the entry exists.
        self._history: list[tuple[int, dict[int, object]]] = []

    # -- allocation ---------------------------------------------------------

    def allocate_data_page(self, temp: bool = False) -> Page:
        """Create and register a fresh empty data page.

        ``temp`` marks scratch pages (temporary lists, sort runs) that are
        excluded from transactions and never written to the backing file.
        """
        get_injector().trip(FP_PAGE_ALLOC)
        with self._lock:
            page = Page(self._next_id)
            self._register(page.page_id, page, temp)
        return page

    def allocate_node_page(self, node: object) -> int:
        """Register a B-tree node as a page; returns its page id."""
        get_injector().trip(FP_PAGE_ALLOC)
        with self._lock:
            page_id = self._next_id
            self._register(page_id, node, temp=False)
        return page_id

    def _register(self, page_id: int, obj: object, temp: bool) -> None:
        with self._lock:
            self._pages[page_id] = obj
            self._next_id = page_id + 1
            if temp:
                self._temp_ids.add(page_id)
            elif self._in_tx:
                self._frames[-1].allocated.add(page_id)
                self._allocated_ids.add(page_id)

    # -- access -------------------------------------------------------------

    def get(self, page_id: int) -> object:
        """The page object for an id; raises on unknown pages."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise StorageError(f"no such page {page_id}") from None

    def free(self, page_id: int) -> None:
        """Release a page id (idempotent)."""
        with self._lock:
            obj = self._pages.pop(page_id, None)
            temp = page_id in self._temp_ids
            self._temp_ids.discard(page_id)
            if obj is not None and self._in_tx and not temp:
                self._frames[-1].freed.setdefault(page_id, obj)

    def is_temp(self, page_id: int) -> bool:
        """Whether a page id is scratch (excluded from durability)."""
        return page_id in self._temp_ids

    def page_ids(self) -> list[int]:
        """Every allocated page id, ascending (for invariant checks)."""
        return sorted(self._pages)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    # -- statement transactions ---------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """Whether a statement transaction is open."""
        return self._in_tx

    def begin(self) -> None:
        """Open a transaction (no copies are taken up front)."""
        if self._in_tx:
            raise StorageError("statement transaction already open")
        with self._lock:
            self._in_tx = True
            self._frames = [_TxFrame()]
            self._writable = set()
            self._allocated_ids = set()

    def savepoint(self) -> int:
        """Layer a new undo frame; returns a token for :meth:`rollback_to`.

        Group commit brackets each batched statement with a savepoint so a
        failing statement rolls back alone while its batch peers commit.
        """
        if not self._in_tx:
            raise StorageError("no open transaction to savepoint")
        with self._lock:
            self._frames.append(_TxFrame())
            return len(self._frames) - 1

    def rollback_to(self, token: int, buffer: object = None) -> None:
        """Undo every effect since the matching :meth:`savepoint`."""
        if not self._in_tx:
            raise StorageError("no open transaction to roll back")
        if not 1 <= token < len(self._frames) + 1:
            raise StorageError(f"bad savepoint token {token}")
        with self._lock:
            while len(self._frames) > token:
                self._pop_frame(buffer)

    def rollback(self, buffer: object = None) -> None:
        """Discard every effect since :meth:`begin`.

        Pages allocated inside the transaction disappear (and are dropped
        from ``buffer`` when one is given), freed pages reappear, and
        mutated pages revert to their pristine committed originals.
        """
        if not self._in_tx:
            raise StorageError("no statement transaction to roll back")
        with self._lock:
            while self._frames:
                self._pop_frame(buffer)
            self._end_tx()

    def _pop_frame(self, buffer: object = None) -> None:
        with self._lock:
            frame = self._frames.pop()
            for page_id in frame.allocated:
                self._pages.pop(page_id, None)
                self._temp_ids.discard(page_id)
                if buffer is not None:
                    buffer.invalidate(page_id)
                self._allocated_ids.discard(page_id)
            for page_id, obj in frame.freed.items():
                if page_id not in frame.allocated:
                    self._pages[page_id] = obj
            for page_id, pre_image in frame.undo.items():
                if page_id not in frame.allocated:
                    self._pages[page_id] = pre_image
            self._writable -= frame.swapped

    def prepare_write(self, page_id: int) -> object:
        """Declare an imminent mutation of a page; returns the object to
        mutate.

        Inside a transaction, the first mutation of each committed page
        swaps a writable clone into the live map and keeps the pristine
        original as the undo image, so the committed object is never
        touched — snapshot readers holding it stay consistent without
        locks.  Callers must rebind to the returned object.  Outside a
        transaction (or for temp pages) this returns the live object
        unchanged, so mutators call it unconditionally.
        """
        obj = self._pages.get(page_id)
        if obj is None:
            return None
        if not self._in_tx or page_id in self._temp_ids:
            return obj
        frame = self._frames[-1]
        if page_id in frame.undo:
            return obj
        # One trip per page per frame — for the single-frame transaction of
        # a top-level ``atomic()`` that is the first mutation of each page
        # per transaction.
        get_injector().trip(FP_PAGE_MUTATE)
        clone = getattr(obj, "clone", None)
        if clone is None:
            raise StorageError(
                f"page {page_id} object {type(obj).__name__} is not clonable"
            )
        with self._lock:
            if page_id in self._writable or page_id in self._allocated_ids:
                # Already invisible to snapshot readers (a clone, or born in
                # this transaction): record a savepoint copy and keep
                # mutating the live object in place.
                frame.undo[page_id] = clone()
                return obj
            # First touch of a committed page: the original becomes the
            # undo/snapshot image, the clone becomes the writer's page.
            writable = clone()
            frame.undo[page_id] = obj
            frame.swapped.add(page_id)
            self._writable.add(page_id)
            self._pages[page_id] = writable
            return writable

    def commit(
        self,
        meta_blob: bytes | None = None,
        publish: Callable[[], None] | None = None,
    ) -> int:
        """Make every effect since :meth:`begin` final; returns the new
        version.

        With a backing file attached, every touched non-temp page is
        serialized and written copy-on-write, then the page table flips
        atomically; ``meta_blob`` (the metadata page payload) rides in the
        same commit.  On failure the transaction stays open so the caller
        can roll back — the durable state is untouched either way.

        ``publish`` runs under the store lock in the same breath as the
        version bump, so the caller can expose commit-dependent state
        (the engine's frozen metadata snapshot) atomically with it.  When
        readers are pinned, the pre-images of replaced and freed pages are
        appended to the version history before the bump becomes visible.
        """
        if not self._in_tx:
            raise StorageError("no statement transaction to commit")
        undo_all: dict[int, object] = {}
        freed_all: dict[int, object] = {}
        touched: set[int] = set()
        for frame in self._frames:
            for page_id, pre_image in frame.undo.items():
                undo_all.setdefault(page_id, pre_image)
            for page_id, obj in frame.freed.items():
                freed_all.setdefault(page_id, obj)
            touched.update(frame.undo)
            touched.update(frame.allocated)
        if self.disk is not None:
            from .recovery import META_PAGE_ID, serialize_page

            dirty: dict[int, bytes] = {}
            for page_id in sorted(touched):
                obj = self._pages.get(page_id)
                if obj is None or page_id in self._temp_ids:
                    continue
                dirty[page_id] = serialize_page(obj)
            if meta_blob is not None:
                dirty[META_PAGE_ID] = meta_blob
            freed = [
                page_id
                for page_id in freed_all
                if page_id not in self._pages
            ]
            self.disk.commit(dirty, freed, self._next_id)
        with self._lock:
            self.version += 1
            if self._pins:
                pre_images: dict[int, object] = {}
                for page_id, pre_image in undo_all.items():
                    if page_id not in self._allocated_ids:
                        pre_images[page_id] = pre_image
                for page_id, obj in freed_all.items():
                    if page_id not in self._allocated_ids:
                        pre_images.setdefault(page_id, obj)
                self._history.append((self.version, pre_images))
            if publish is not None:
                publish()
            self._end_tx()
            return self.version

    def _end_tx(self) -> None:
        with self._lock:
            self._in_tx = False
            self._frames = []
            self._writable = set()
            self._allocated_ids = set()

    # -- snapshot reads -------------------------------------------------------

    def pin(self) -> int:
        """Register a reader at the current version; returns that version."""
        with self._lock:
            version = self.version
            self._pins[version] = self._pins.get(version, 0) + 1
            return version

    def pin_snapshot(self, read: Callable[[], object]) -> tuple[int, object]:
        """Pin the current version and read commit-published state in the
        same breath.

        ``read`` runs under the store lock, so the pair it returns with the
        version can never straddle a commit — the caller's metadata always
        describes exactly the pinned version.
        """
        with self._lock:
            return self.pin(), read()

    def unpin(self, version: int) -> None:
        """Release a reader pin and drop history no pin can reach."""
        with self._lock:
            count = self._pins.get(version, 0) - 1
            if count > 0:
                self._pins[version] = count
            else:
                self._pins.pop(version, None)
            if self._history:
                if not self._pins:
                    self._history = []
                else:
                    floor = min(self._pins)
                    self._history = [
                        entry for entry in self._history if entry[0] > floor
                    ]

    def resolve(self, page_id: int, version: int) -> object:
        """The page object as of a pinned ``version``.

        Resolution order: the oldest committed pre-image newer than the
        pin, then the in-flight writer's pristine undo images, then the
        live map.  Committed objects are immutable (writers mutate private
        clones), so whatever this returns is safe to read without the
        lock.
        """
        with self._lock:
            for entry_version, pre_images in self._history:
                if entry_version > version and page_id in pre_images:
                    return pre_images[page_id]
            for frame in self._frames:
                if page_id in frame.swapped:
                    return frame.undo[page_id]
            for frame in self._frames:
                obj = frame.freed.get(page_id)
                if obj is not None and page_id not in self._allocated_ids:
                    return obj
            try:
                return self._pages[page_id]
            except KeyError:
                raise StorageError(
                    f"no such page {page_id} at version {version}"
                ) from None

    # -- recovery ------------------------------------------------------------

    def adopt(self, pages: dict[int, object], next_page_id: int) -> None:
        """Install recovered page contents (only valid on an empty store)."""
        if self._pages:
            raise StorageError("cannot adopt pages into a non-empty store")
        with self._lock:
            self._pages = dict(pages)
            self._next_id = max(next_page_id, max(self._pages, default=0) + 1)
