"""Property test: the one-pass page decode equals a re-scan of the bytes.

:func:`repro.rss.scan.page_rows` reads the slot directory at once, spots a
NULL-free record of the relation by one byte-prefix compare, unpacks
fixed-width records straight from the page bytes and tests the SARGs before
building a TID.  Here hypothesis drives random sequences of inserts of two
relations sharing the page (one fixed-width schema, one with a VARCHAR,
values with NULLs, NaN and -0.0), deletes, zero-length records, shrinking
updates, compactions and re-reads from bytes.  After every step, for both
relations, with and without a matcher, the decode must equal the records
``Page.records`` yields for that relation, decoded by ``decode_tuple`` and
filtered by ``Sargs.matches``.
"""

import struct

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.datatypes import FLOAT, INTEGER, varchar
from repro.rss.page import Page, TupleId
from repro.rss.sargs import CompareOp, SargPredicate, Sargs, compile_matcher
from repro.rss.scan import page_rows
from repro.rss.tuples import (
    DecodePlan,
    decode_tuple,
    encode_tuple,
    max_record_size,
    record_relation_id,
)

# The two stored ids share their low byte; the two ghost ids stored on no
# record share the high byte of one of them (258) or are the other's byte
# swap (256).  A decode that compared one byte of the id, or swapped them,
# would return records for the wrong id.
FIXED_REL, MIXED_REL = 1, 257
GHOST_RELS = (256, 258)
SCHEMAS = {
    FIXED_REL: [INTEGER, FLOAT, INTEGER],
    MIXED_REL: [INTEGER, varchar(6), FLOAT],
}
PLANS = {rel: DecodePlan(types) for rel, types in SCHEMAS.items()}

_INTS = st.integers(-(2**40), 2**40) | st.integers(-3, 3)
_FLOATS = st.sampled_from([0.0, -0.0, 1.5, -2.25, float("nan"), float("inf")])
_TEXT = st.text(alphabet="abé", max_size=6)
_VALUES = {
    FIXED_REL: st.tuples(st.none() | _INTS, st.none() | _FLOATS, st.none() | _INTS),
    MIXED_REL: st.tuples(st.none() | _INTS, st.none() | _TEXT, st.none() | _FLOATS),
}

_STEPS = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from([FIXED_REL, MIXED_REL]), st.data()),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(st.just("shrink"), st.integers(0, 10_000), st.integers(0, 3)),
    st.tuples(st.just("empty")),
    st.tuples(st.just("compact")),
    st.tuples(st.just("reread")),
)

_SARGS = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(list(CompareOp)),
            st.none() | st.integers(-3, 3),
        ),
        min_size=1,
        max_size=2,
    ),
    min_size=1,
    max_size=3,
)


def _key(rows):
    """Rows comparable bit for bit: NaN equals itself, -0.0 differs from 0.0."""
    return [
        (
            tid,
            tuple(
                ("f", struct.pack(">d", v)) if isinstance(v, float) else v
                for v in values
            ),
        )
        for tid, values in rows
    ]


def _reference(page: Page, relation_id: int, sargs: Sargs | None):
    types = SCHEMAS[relation_id]
    rows = [
        (TupleId(page.page_id, slot), decode_tuple(record, types))
        for slot, record in page.records()
        if record_relation_id(record) == relation_id
    ]
    return [row for row in rows if sargs is None or sargs.matches(row[1])]


def _sargs_for(spec) -> Sargs:
    # Column 0 is INTEGER in both schemas, column 2 is numeric in both.
    groups = []
    for group in spec:
        groups.append(
            [SargPredicate(2 if pos == 1 else pos, op, value) for pos, op, value in group]
        )
    return Sargs(groups)


def assert_decode_matches(page: Page, sargs: Sargs) -> None:
    for relation_id, plan in PLANS.items():
        assert _key(page_rows(page.page_id, page, relation_id, plan)) == _key(
            _reference(page, relation_id, None)
        )
        matcher = compile_matcher(sargs, SCHEMAS[relation_id])
        got = page_rows(page.page_id, page, relation_id, plan, matcher)
        assert _key(got) == _key(_reference(page, relation_id, sargs))
        for ghost in GHOST_RELS:
            assert page_rows(page.page_id, page, ghost, plan) == []


def _occupied(page: Page) -> list[int]:
    return [slot for slot, __ in page.records()]


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_STEPS, max_size=60), sarg_spec=_SARGS)
def test_page_rows_equal_a_rescan_of_the_bytes(steps, sarg_spec):
    page = Page(7)
    sargs = _sargs_for(sarg_spec)
    for step in steps:
        kind = step[0]
        if kind == "insert":
            __, relation_id, data = step
            values = data.draw(_VALUES[relation_id])
            record = encode_tuple(relation_id, values, SCHEMAS[relation_id])
            if page.can_fit(len(record)):
                page.insert(record)
        elif kind == "delete":
            occupied = _occupied(page)
            if occupied:
                page.delete(occupied[step[1] % len(occupied)])
        elif kind == "shrink":
            # Rewrite a record in place as a shorter record of the same
            # relation (an update that fits), leaving dead bytes behind.
            occupied = _occupied(page)
            if occupied:
                slot = occupied[step[1] % len(occupied)]
                relation_id = record_relation_id(page.read(slot))
                types = SCHEMAS[relation_id]
                values = tuple([None] * len(types))
                if step[2] and relation_id == MIXED_REL:
                    values = (step[2], "", None)
                page.update(slot, encode_tuple(relation_id, values, types))
        elif kind == "empty":
            if page.can_fit(0):
                page.insert(b"")  # a zero-length record leaves its slot empty
        elif kind == "compact":
            page.compact()
        else:
            page = Page(page.page_id, bytearray(page.data))
        assert_decode_matches(page, sargs)


def test_full_page_of_one_fixed_relation():
    page = Page(3)
    types = SCHEMAS[FIXED_REL]
    values = [(i, float(i) / 2, -i) for i in range(1000)]
    stored = []
    for row in values:
        record = encode_tuple(FIXED_REL, row, types)
        if not page.can_fit(len(record)):
            break
        page.insert(record)
        stored.append(row)
    assert len(stored) * max_record_size(types) > 3000
    rows = page_rows(3, page, FIXED_REL, PLANS[FIXED_REL])
    assert rows == [(TupleId(3, slot), row) for slot, row in enumerate(stored)]
    assert page_rows(3, page, MIXED_REL, PLANS[MIXED_REL]) == []


def test_two_relations_interleaved_in_one_segment():
    """Rows inserted alternately into two relations of one segment, some
    deleted and some updated: every page of the segment decodes, for each
    relation, with and without SARGs, as its records re-scanned."""
    from repro import Database

    db = Database()
    db.execute("CREATE TABLE F (A INTEGER, B FLOAT, C INTEGER) IN SEGMENT S")
    db.execute("CREATE TABLE M (A INTEGER, B VARCHAR(6), C FLOAT) IN SEGMENT S")
    for i in range(400):
        if i % 2:
            db.execute(f"INSERT INTO F VALUES ({i % 7}, {i / 4}, NULL)")
        else:
            text = "NULL" if i % 3 == 0 else f"'m{i % 50}'"
            db.execute(f"INSERT INTO M VALUES ({i % 5}, {text}, {-i / 8})")
    db.execute("DELETE FROM F WHERE A = 3")
    db.execute("UPDATE M SET B = NULL WHERE A = 1")
    sargs = Sargs(
        [[SargPredicate(0, CompareOp.LT, 2)], [SargPredicate(2, CompareOp.GE, 40)]]
    )
    tables = [db.catalog.table(name) for name in ("F", "M")]
    assert tables[0].segment_name == tables[1].segment_name
    storage = db.storage
    page_ids = storage.segment(tables[0].segment_name).page_ids
    assert len(page_ids) > 1
    seen = {table.name: 0 for table in tables}
    shared_pages = 0
    for page_id in page_ids:
        page = storage.store.get(page_id)
        relations = {record_relation_id(record) for __, record in page.records()}
        shared_pages += len(relations) == 2
        for table in tables:
            types = [column.datatype for column in table.columns]
            plan = DecodePlan(types)
            reference = [
                (TupleId(page_id, slot), decode_tuple(record, types))
                for slot, record in page.records()
                if record_relation_id(record) == table.relation_id
            ]
            got = page_rows(page_id, page, table.relation_id, plan)
            assert _key(got) == _key(reference)
            matcher = compile_matcher(sargs, types)
            got = page_rows(page_id, page, table.relation_id, plan, matcher)
            assert _key(got) == _key([r for r in reference if sargs.matches(r[1])])
            seen[table.name] += len(reference)
    assert shared_pages == len(page_ids)
    assert seen == {
        "F": db.execute("SELECT COUNT(*) FROM F").scalar(),
        "M": db.execute("SELECT COUNT(*) FROM M").scalar(),
    }
