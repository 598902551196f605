"""Storage invariant checker: is the physical state self-consistent?

:func:`verify_storage` audits one live database against the recovery
invariants the shadow-paged RSS promises (ISSUE: statement atomicity means
these hold after *every* statement, faulted or not):

- every segment page exists, is a data page, and is not scratch;
- every stored record decodes under its relation's schema;
- every data page's placement state (occupied slots, dead bytes, lowest
  empty slot) equals a walk of its slot directory;
- every index entry points at a live tuple whose key matches, and every
  tuple appears in exactly the indexes declared on its table (multiset
  equality, so duplicates count);
- index keys are in order, entry counts agree, unique indexes hold no
  duplicate non-NULL keys;
- no non-scratch page is unreachable from the segments and indexes;
- with a backing file: page checksums verify, the committed page set
  matches the in-memory page set, and the frame free list is sound.

All reads go straight to the page store, bypassing the buffer pool, so a
check never perturbs LRU state or the cost counters.

``repro check --storage`` (see :func:`check_storage`) drives this checker
over an in-memory workload, a durable workload re-opened from disk, a
torn-page demonstration, and a deterministic crash/recover loop.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from ..errors import RecoveryError, StorageError, TornPageError
from ..rss.btree import orderable_key
from ..rss.page import HEADER_SIZE, Page, TupleId
from ..rss.tuples import decode_tuple, record_relation_id
from .plan_check import Violation

if TYPE_CHECKING:
    from ..database import Database


def verify_storage(db: "Database") -> list[Violation]:
    """Audit every storage invariant; returns all violations found."""
    violations: list[Violation] = []
    storage = db.storage
    store = storage.store
    referenced: set[int] = set()

    tables_by_segment: dict[str, list] = {}
    for table in db.catalog.tables():
        tables_by_segment.setdefault(table.segment_name, []).append(table)

    # -- segments: page soundness and decodable records ---------------------
    tuples: dict[str, dict[TupleId, tuple]] = {}
    for segment_name, segment in storage._segments.items():
        seen_pages: set[int] = set()
        for page_id in segment.page_ids:
            where = f"segment {segment_name} page {page_id}"
            if page_id in seen_pages:
                violations.append(
                    Violation("segment-page-duplicate", where, "listed twice")
                )
            seen_pages.add(page_id)
            referenced.add(page_id)
            if page_id not in store:
                violations.append(
                    Violation("segment-page-missing", where, "not in the store")
                )
                continue
            page = store.get(page_id)
            if not isinstance(page, Page):
                violations.append(
                    Violation(
                        "segment-page-kind",
                        where,
                        f"holds a {type(page).__name__}, not a data page",
                    )
                )
                continue
            if store.is_temp(page_id):
                violations.append(
                    Violation(
                        "segment-page-temp", where, "is a scratch page"
                    )
                )
            _decode_page(
                segment_name,
                page,
                tables_by_segment.get(segment_name, []),
                tuples,
                violations,
            )

    # -- indexes: structure and tuple agreement -----------------------------
    for table in db.catalog.tables():
        table_tuples = {
            tid: tagged
            for tid, tagged in tuples.get(table.segment_name, {}).items()
            if tagged[0] == table.relation_id
        }
        for index in db.catalog.indexes_on(table.name):
            _verify_index(storage, table, index, table_tuples, violations)
            try:
                referenced.update(storage.btree(index.name).node_page_ids())
            except StorageError:
                pass  # already reported as index-missing

    # -- reachability: no orphaned non-scratch pages ------------------------
    for page_id in store.page_ids():
        if page_id in referenced or store.is_temp(page_id):
            continue
        violations.append(
            Violation(
                "orphan-page",
                f"page {page_id}",
                f"{type(store.get(page_id)).__name__} unreachable from any "
                "segment or index",
            )
        )

    # -- the backing file, when there is one --------------------------------
    disk = store.disk
    if disk is not None:
        from ..rss.recovery import META_PAGE_ID

        for problem in disk.audit():
            violations.append(Violation("disk-audit", str(disk.path), problem))
        durable = {pid for pid in disk.page_ids() if pid != META_PAGE_ID}
        live = {
            pid for pid in store.page_ids() if not store.is_temp(pid)
        }
        for page_id in sorted(durable - live):
            violations.append(
                Violation(
                    "disk-extra-page",
                    f"page {page_id}",
                    "committed on disk but absent from the live store",
                )
            )
        for page_id in sorted(live - durable):
            violations.append(
                Violation(
                    "disk-missing-page",
                    f"page {page_id}",
                    "live in the store but never committed to disk",
                )
            )
    return violations


def _decode_page(
    segment_name: str,
    page: Page,
    tables: list,
    tuples: dict[str, dict[TupleId, tuple]],
    violations: list[Violation],
) -> None:
    by_relation = {table.relation_id: table for table in tables}
    occupied = live_bytes = 0
    first_empty = None
    for slot, record in page.records():
        if first_empty is None and slot != occupied:
            first_empty = occupied
        occupied += 1
        live_bytes += len(record)
        where = f"segment {segment_name} tid ({page.page_id},{slot})"
        relation_id = record_relation_id(record)
        table = by_relation.get(relation_id)
        if table is None:
            violations.append(
                Violation(
                    "unknown-relation",
                    where,
                    f"record tagged with unknown relation id {relation_id}",
                )
            )
            continue
        try:
            values = decode_tuple(
                record, [column.datatype for column in table.columns]
            )
        except Exception as error:
            violations.append(
                Violation("undecodable-record", where, str(error))
            )
            continue
        tuples.setdefault(segment_name, {})[TupleId(page.page_id, slot)] = (
            relation_id,
            values,
        )
    # The page's placement state must equal what this walk of its bytes saw.
    if first_empty is None and occupied < page.slot_count:
        first_empty = occupied
    walked = (occupied, page.free_pointer - HEADER_SIZE - live_bytes, first_empty)
    kept = (page.occupied_slots(), page.dead_space(), page.first_empty_slot())
    if kept != walked:
        violations.append(
            Violation(
                "page-state-drift",
                f"segment {segment_name} page {page.page_id}",
                "placement state (occupied, dead bytes, first empty slot) "
                f"{kept} != {walked} from the slot directory",
            )
        )


def _verify_index(
    storage,
    table,
    index,
    table_tuples: dict[TupleId, tuple],
    violations: list[Violation],
) -> None:
    where = f"index {index.name}"
    try:
        btree = storage.btree(index.name)
    except StorageError:
        violations.append(
            Violation(
                "index-missing", where, "declared in the catalog but has no B-tree"
            )
        )
        return
    entries = list(btree.entries_uncounted())
    previous = None
    for key, tid in entries:
        okey = orderable_key(key)
        if previous is not None and okey < previous:
            violations.append(
                Violation(
                    "index-disorder", where, f"key {key!r} out of order"
                )
            )
        previous = okey
    if btree.entry_count != len(entries):
        violations.append(
            Violation(
                "index-count",
                where,
                f"entry_count says {btree.entry_count}, "
                f"leaves hold {len(entries)}",
            )
        )
    expected = Counter(
        (index.key_of(values), tid)
        for tid, (__, values) in table_tuples.items()
    )
    actual = Counter(entries)
    for key, tid in (actual - expected).keys():
        violations.append(
            Violation(
                "dangling-entry",
                where,
                f"entry {key!r} -> {tid} has no matching live tuple",
            )
        )
    for key, tid in (expected - actual).keys():
        violations.append(
            Violation(
                "unindexed-tuple",
                where,
                f"tuple at {tid} with key {key!r} is missing from the index",
            )
        )
    if index.unique:
        keys = Counter(
            key for key, __ in entries if None not in key
        )
        for key, count in keys.items():
            if count > 1:
                violations.append(
                    Violation(
                        "unique-violated",
                        where,
                        f"key {key!r} appears {count} times",
                    )
                )


def logical_dump(db: "Database") -> dict[str, list[tuple]]:
    """Sorted rows of every table, read without touching the counters.

    The canonical "what does this database contain" digest used by the
    crash/recover loop and by differential tests: two databases are
    logically equal iff their dumps are equal.
    """
    dump: dict[str, list[tuple]] = {}
    with db.storage.suppress_counting():
        for table in db.catalog.tables():
            rows = [
                values
                for __, values in db.storage._raw_scan(table)
            ]
            dump[table.name] = sorted(rows, key=orderable_key)
    return dump


# ---------------------------------------------------------------------------
# the ``repro check --storage`` scenario
# ---------------------------------------------------------------------------

_WORKLOAD = (
    "CREATE TABLE EMP (ENO INTEGER, NAME VARCHAR(20), DNO INTEGER, "
    "SAL INTEGER)",
    "CREATE UNIQUE INDEX EMPNO ON EMP (ENO)",
    "CREATE INDEX EMPDNO ON EMP (DNO)",
    "CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR(20))",
    "CREATE INDEX DEPTDNO ON DEPT (DNO)",
    *[
        f"INSERT INTO EMP VALUES ({i}, 'E{i}', {i % 7}, {100 + 13 * i})"
        for i in range(60)
    ],
    *[f"INSERT INTO DEPT VALUES ({i}, 'D{i}')" for i in range(7)],
    "UPDATE EMP SET SAL = SAL + 50 WHERE DNO = 3",
    "UPDATE EMP SET DNO = 6 WHERE ENO < 5",
    "DELETE FROM EMP WHERE ENO >= 55",
    "DELETE FROM DEPT WHERE DNO = 0",
    "UPDATE STATISTICS",
)


def _run_workload(db: "Database") -> None:
    for sql in _WORKLOAD:
        db.execute(sql)


def check_storage() -> list[Violation]:
    """The ``repro check --storage`` section: four scenarios, one report."""
    import os
    import tempfile

    from ..database import Database
    from ..rss.disk import DiskManager
    from ..rss.faults import FaultPlan, fault_plan

    violations: list[Violation] = []

    # 1. the invariants hold after an in-memory workload
    db = Database()
    _run_workload(db)
    violations.extend(verify_storage(db))
    print("  in-memory workload verified")

    with tempfile.TemporaryDirectory() as tmp:
        # 2. ... and after a durable workload, before and after re-open
        path = os.path.join(tmp, "db.pages")
        db = Database(path=path)
        _run_workload(db)
        violations.extend(verify_storage(db))
        dump = logical_dump(db)
        db.close()
        reopened = Database(path=path)
        violations.extend(verify_storage(reopened))
        if logical_dump(reopened) != dump:
            violations.append(
                Violation(
                    "recovery-drift",
                    path,
                    "re-opened contents differ from the committed contents",
                )
            )
        reopened.close()
        print("  durable workload verified (before and after re-open)")

        # 3. a torn page in the closed backing file is detected on open.
        # Flip bytes inside a *committed* frame (read the page table to
        # find one — a free frame would legitimately go unchecked).
        import json

        table_body = json.loads(
            open(path + ".pt", encoding="utf-8").read()
        )["body"]
        frame = min(fields[0] for fields in table_body["pages"].values())
        offset = frame * 4096 + 16
        with open(path, "r+b") as handle:
            handle.seek(offset)
            torn = handle.read(8)
            handle.seek(offset)
            handle.write(bytes(byte ^ 0xFF for byte in torn))
        try:
            Database(path=path)
        except TornPageError as error:
            print(f"  torn page detected on open: {error}")
        except RecoveryError as error:
            print(f"  torn page table detected on open: {error}")
        else:
            violations.append(
                Violation(
                    "torn-page-missed",
                    path,
                    "flipped bytes in the frame file went undetected",
                )
            )

        # 4. crash at every commit fault point; recovery restores the
        #    last committed state exactly
        for point in ("page.write", "fsync", "pagetable.write", "pagetable.flip"):
            crash_path = os.path.join(tmp, f"crash-{point.replace('.', '-')}")
            db = Database(path=crash_path)
            db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(10))")
            db.execute("CREATE INDEX TA ON T (A)")
            for i in range(20):
                db.execute(f"INSERT INTO T VALUES ({i}, 'V{i}')")
            committed = logical_dump(db)
            snapshot = None
            with fault_plan(FaultPlan(point, hit=1, action="crash")):
                try:
                    db.execute("DELETE FROM T WHERE A < 10")
                except StorageError as error:
                    snapshot = getattr(error, "snapshot", None)
            db.close()
            if snapshot is None:
                violations.append(
                    Violation(
                        "crash-not-injected",
                        point,
                        "the commit never reached this fault point",
                    )
                )
                continue
            restored_path = os.path.join(tmp, f"restored-{point.replace('.', '-')}")
            DiskManager.restore(snapshot, restored_path)
            survivor = Database(path=restored_path)
            violations.extend(verify_storage(survivor))
            recovered = logical_dump(survivor)
            # Crash before the flip: statement lost.  Crash during/after the
            # flip would keep it — but the injected crash fires *before* the
            # rename, so the committed state must be the pre-statement one.
            if recovered != committed:
                violations.append(
                    Violation(
                        "crash-recovery-drift",
                        point,
                        "recovered contents differ from the last committed "
                        "state",
                    )
                )
            survivor.close()
        print("  crash/recover loop verified at every commit fault point")
    return violations
