"""Property test: a page's placement state equals a re-scan of its bytes.

``Page`` keeps its lowest-empty-slot hint and its live count and bytes
beside the bytes instead of walking the slot directory on every call.  Here
hypothesis drives random sequences of inserts (including ones that force a
compaction or raise ``PageFullError``), deletes, in-place updates (shrink,
grow, to length 0), compactions, clones and re-reads from bytes; after every
step each space answer the page gives must equal one computed from the
header and slot directory parsed straight out of ``page.data``.
"""

import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import PageFullError
from repro.rss.page import PAGE_SIZE, USABLE_PAGE_BYTES, Page

# The header (slot count, free pointer) and each directory entry (offset,
# length) are both two big-endian u16s.
_ENTRY = struct.Struct(">HH")
_HEADER_SIZE = _SLOT_SIZE = _ENTRY.size


def rescan(data: bytearray) -> dict:
    """Header, slot directory and space figures parsed from raw bytes."""
    slot_count, free_ptr = _ENTRY.unpack_from(data, 0)
    lengths = [
        _ENTRY.unpack_from(data, PAGE_SIZE - _SLOT_SIZE * (slot + 1))[1]
        for slot in range(slot_count)
    ]
    empty = [slot for slot, length in enumerate(lengths) if length == 0]
    return {
        "slot_count": slot_count,
        "first_empty": empty[0] if empty else None,
        "free": max(0, PAGE_SIZE - _SLOT_SIZE * slot_count - free_ptr),
        "dead": free_ptr - _HEADER_SIZE - sum(lengths),
        "occupied": sum(1 for length in lengths if length),
    }


def reference_can_fit(ref: dict, size: int) -> bool:
    needed = size + (_SLOT_SIZE if ref["first_empty"] is None else 0)
    return ref["free"] + ref["dead"] >= needed


def assert_state_matches_bytes(page: Page) -> None:
    ref = rescan(page.data)
    for size in (0, 1, 17, 100, 700, 2000, USABLE_PAGE_BYTES):
        assert page.can_fit(size) == reference_can_fit(ref, size), size
    assert page.first_empty_slot() == ref["first_empty"]
    assert page.dead_space() == ref["dead"]
    assert page.free_space() == ref["free"]
    assert page.occupied_slots() == ref["occupied"]
    assert page.is_empty() == (ref["occupied"] == 0)


_SIZES = st.one_of(
    st.integers(0, 120), st.integers(0, 900), st.integers(0, USABLE_PAGE_BYTES)
)
_STEPS = st.one_of(
    st.tuples(st.just("insert"), _SIZES),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(
        st.just("update"),
        st.integers(0, 10_000),
        st.sampled_from(["shrink", "grow", "zero"]),
    ),
    st.tuples(st.just("compact")),
    st.tuples(st.just("clone")),
    st.tuples(st.just("reread")),
)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_STEPS, max_size=80))
def test_placement_state_equals_rescan_of_bytes(steps):
    page = Page(1)
    stored: dict[int, bytes] = {}
    for number, step in enumerate(steps):
        kind = step[0]
        if kind == "insert":
            record = bytes([number % 251 + 1]) * step[1]
            ref = rescan(page.data)
            expected_slot = ref["first_empty"]
            if expected_slot is None:
                expected_slot = ref["slot_count"]
            if reference_can_fit(ref, len(record)):
                assert page.insert(record) == expected_slot
                if record:
                    stored[expected_slot] = record
            else:
                with pytest.raises(PageFullError):
                    page.insert(record)
        elif kind == "delete" and stored:
            slot = sorted(stored)[step[1] % len(stored)]
            page.delete(slot)
            del stored[slot]
        elif kind == "update" and stored:
            slot = sorted(stored)[step[1] % len(stored)]
            old = stored[slot]
            if step[2] == "grow":
                assert page.update(slot, old + b"+") is False
            elif step[2] == "zero":
                assert page.update(slot, b"") is True
                del stored[slot]
            else:
                stored[slot] = old[: len(old) // 2]
                assert page.update(slot, stored[slot]) is True
                if not stored[slot]:
                    del stored[slot]
        elif kind == "compact":
            page.compact()
        elif kind == "clone":
            page = page.clone()
        elif kind == "reread":
            page = Page(page.page_id, bytearray(page.data))
        assert_state_matches_bytes(page)
        assert dict(page.records()) == stored
