"""Pipeline breakers are engine-exact under buffer pressure.

Sorts (in-memory, multi-run and multi-pass merges), grouped and whole-input
aggregates, and their read-back run through the external sorter, the temp
lists and the fused engine's flat-tuple drivers.  Generated tables carry
NULLs, VARCHAR and FLOAT columns; generated statements ORDER BY ascending,
descending and mixed keys, GROUP BY with COUNT/SUM/MIN/MAX/AVG and
COUNT(DISTINCT), HAVING, and inputs that filter to nothing.  Each runs at a
buffer of 3 to 64 pages, from a cold buffer, under ``interp`` and
``fused``: the ordered rows and the ``(page_fetches, rsi_calls,
buffer_hits)`` deltas must be equal, and the rows must equal a plain-Python
evaluation (Python's stable ``sorted``; groups compared as sets).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.engine import fuse
from repro.engine.external_sort import ExternalSorter
from repro.workloads import load_rows

COLUMNS = ("I", "K", "F", "S", "PAD")
_INDEX = {name: position for position, name in enumerate(COLUMNS)}
AGGREGATES = (
    "COUNT(*)",
    "COUNT(F)",
    "SUM(F)",
    "AVG(F)",
    "MIN(S)",
    "MAX(K)",
    "SUM(K)",
    "MIN(F)",
    "COUNT(DISTINCT K)",
)


def make_rows(count: int, seed: int, null_share: float) -> list[tuple]:
    """Unique ``I``; ``K``, ``F`` and ``S`` repeat and may be NULL.  ``F``
    is a multiple of 1/4, so float sums are exact in any order."""
    rng = random.Random(seed)

    def maybe(value):
        return None if rng.random() < null_share else value

    return [
        (
            i,
            maybe(rng.randrange(12)),
            maybe(rng.randrange(-40, 40) / 4),
            maybe(rng.choice(["", "A", "AB", "B", "BA", "Z", "ZZZZ"])),
            "p" * rng.randrange(40, 60),
        )
        for i in range(count)
    ]


def build(rows: list[tuple], buffer_pages: int) -> tuple[Database, list[tuple]]:
    """The database, and its rows in segment-scan order (placement fills
    earlier pages' gaps, so that is not insertion order): the input order
    the sorts' ties keep."""
    db = Database(buffer_pages=buffer_pages)
    db.execute(
        "CREATE TABLE T (I INTEGER, K INTEGER, F FLOAT, S VARCHAR(8), "
        "PAD VARCHAR(60))"
    )
    load_rows(db, "T", rows)
    db.execute("UPDATE STATISTICS")
    scanned = [i for (i,) in db.execute("SELECT I FROM T").rows]
    assert sorted(scanned) == list(range(len(rows)))
    return db, [rows[i] for i in scanned]


def run_both(db: Database, sql: str) -> list[tuple]:
    """The statement under both engines from a cold buffer; asserts they
    agree exactly and returns the rows."""
    seen = {}
    for mode in ("interp", "fused"):
        db.exec_mode = mode
        db.cold_cache()
        before = db.counters.snapshot()
        rows = db.execute(sql).rows
        after = db.counters.snapshot()
        seen[mode] = (
            rows,
            (
                after.page_fetches - before.page_fetches,
                after.rsi_calls - before.rsi_calls,
                after.buffer_hits - before.buffer_hits,
            ),
        )
    assert seen["fused"] == seen["interp"], sql
    return seen["fused"][0]


# -- plain-Python reference ---------------------------------------------------


def where_rows(rows: list[tuple], limit: int) -> list[tuple]:
    return [row for row in rows if row[0] < limit]


def expected_order(rows, keys: list[tuple[str, bool]], select: list[str]):
    """Stable sort, one key at a time from the last: NULLs first when
    ascending, last when descending; ties keep insertion order."""
    ordered = list(rows)
    for name, descending in reversed(keys):
        position = _INDEX[name]
        ordered = sorted(
            ordered,
            key=lambda row: (
                (0, 0) if row[position] is None else (1, row[position])
            ),
            reverse=descending,
        )
    return [tuple(row[_INDEX[name]] for name in select) for row in ordered]


def aggregate(values_rows: list[tuple], call: str):
    if call == "COUNT(*)":
        return len(values_rows)
    distinct = "DISTINCT" in call
    column = call[call.index("(") + 1 : -1].replace("DISTINCT ", "")
    values = [row[_INDEX[column]] for row in values_rows]
    values = [value for value in values if value is not None]
    if distinct:
        values = list(dict.fromkeys(values))
    name = call[: call.index("(")]
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "SUM":
        return sum(values)
    if name == "AVG":
        return sum(values) / len(values)
    return min(values) if name == "MIN" else max(values)


def expected_groups(rows, group: str | None, calls: list[str], having: int | None):
    groups: dict = {}
    for row in rows:
        key = None if group is None else row[_INDEX[group]]
        groups.setdefault(key, []).append(row)
    if group is None:
        groups = {None: rows}
    out = []
    for key, members in groups.items():
        if having is not None and not len(members) > having:
            continue
        results = tuple(aggregate(members, call) for call in calls)
        out.append(results if group is None else (key, *results))
    return out


def as_set(rows) -> list:
    return sorted(rows, key=repr)


# -- statements ---------------------------------------------------------------


def order_statement(keys: list[tuple[str, bool]], select: list[str], limit: int):
    order = ", ".join(f"{name}{' DESC' if desc else ''}" for name, desc in keys)
    sql = f"SELECT {', '.join(select)} FROM T WHERE I < {limit} ORDER BY {order}"
    return sql, keys, select, limit


def group_statement(
    group: str | None, calls: list[str], having: int | None, limit: int
):
    head = [] if group is None else [group]
    sql = f"SELECT {', '.join(head + calls)} FROM T WHERE I < {limit}"
    if group is not None:
        sql += f" GROUP BY {group}"
    if having is not None:
        sql += f" HAVING COUNT(*) > {having}"
    return sql, group, calls, having, limit


LIMITS = st.sampled_from([0, 7, 400, 10_000])

order_statements = st.builds(
    order_statement,
    st.lists(
        st.tuples(st.sampled_from(["K", "F", "S", "I"]), st.booleans()),
        min_size=1,
        max_size=3,
        unique_by=lambda key: key[0],
    ),
    st.sampled_from([["I", "K", "F", "S"], ["S", "K", "I"]]),
    LIMITS,
)

group_statements = st.builds(
    group_statement,
    st.sampled_from(["K", "S", "F", None]),
    st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=4, unique=True),
    st.sampled_from([None, 0, 3]),
    LIMITS,
)


def check_order(db, rows, statement) -> None:
    sql, keys, select, limit = statement
    got = run_both(db, sql)
    assert got == expected_order(where_rows(rows, limit), keys, select), sql


def check_groups(db, rows, statement) -> None:
    sql, group, calls, having, limit = statement
    got = run_both(db, sql)
    expected = expected_groups(where_rows(rows, limit), group, calls, having)
    assert as_set(got) == as_set(expected), sql


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(0, 700),
    seed=st.integers(0, 2**16),
    null_share=st.sampled_from([0.0, 0.1, 0.5]),
    buffer_pages=st.integers(3, 64),
    orders=st.lists(order_statements, min_size=1, max_size=3),
    groups=st.lists(group_statements, min_size=1, max_size=3),
)
def test_breakers_agree_across_engines_and_with_python(
    count, seed, null_share, buffer_pages, orders, groups
):
    db, rows = build(make_rows(count, seed, null_share), buffer_pages)
    for statement in orders:
        check_order(db, rows, statement)
    for statement in groups:
        check_groups(db, rows, statement)


@pytest.fixture
def merge_passes(monkeypatch) -> list[int]:
    """Merge passes of every external sort run while the test runs."""
    passes: list[int] = []
    sorted_list = ExternalSorter._sorted

    def recording(self, rows):
        final = sorted_list(self, rows)
        passes.append(self.merge_passes)
        return final

    monkeypatch.setattr(ExternalSorter, "_sorted", recording)
    return passes


@pytest.mark.parametrize("buffer_pages", [3, 4, 8, 64])
def test_pinned_sorts_and_groups_at_small_buffers(buffer_pages, merge_passes):
    """Five fixed statements per buffer size; at 3 and 4 pages the sorts
    need more than one merge pass."""
    db, rows = build(make_rows(700, seed=1, null_share=0.1), buffer_pages)
    everything = 10_000
    check_order(
        db,
        rows,
        order_statement(
            [("K", True), ("S", False), ("F", True)], ["I", "K", "F", "S"], everything
        ),
    )
    check_order(
        db,
        rows,
        order_statement([("S", True), ("K", False)], ["S", "K", "I"], everything),
    )
    check_groups(
        db,
        rows,
        group_statement("K", ["COUNT(*)", "SUM(F)", "MIN(S)", "AVG(F)"], 3, everything),
    )
    check_groups(
        db,
        rows,
        group_statement("S", ["COUNT(DISTINCT K)", "MAX(K)"], None, everything),
    )
    check_groups(
        db, rows, group_statement(None, ["COUNT(*)", "SUM(F)", "MIN(F)"], None, 0)
    )
    assert merge_passes, "the statements must sort externally"
    if buffer_pages <= 4:
        assert max(merge_passes) >= 2


@pytest.mark.parametrize("buffer_pages", [4, 64])
def test_distinct_aggregates_fold_over_bare_scans(buffer_pages, monkeypatch):
    """DISTINCT aggregates over a bare segment scan and over an
    index-ordered GROUP BY (a sort's tuples at 4 pages, where the planner
    sorts instead) run through the generated fold, and agree with interp
    and plain Python."""
    folded: list[bool] = []
    fold_program = fuse.fold_program

    def recording(node, alias, pairs=False):
        program = fold_program(node, alias, pairs)
        folded.append(program is not None)
        return program

    monkeypatch.setattr(fuse, "fold_program", recording)
    db, rows = build(make_rows(700, seed=2, null_share=0.1), buffer_pages)
    db.execute("CREATE INDEX TK ON T (K)")
    db.execute("UPDATE STATISTICS")
    whole = ["COUNT(DISTINCT K)", "SUM(DISTINCT F)", "MIN(DISTINCT S)", "COUNT(*)"]
    grouped = ["COUNT(DISTINCT S)", "SUM(DISTINCT F)", "MAX(DISTINCT I)", "AVG(F)"]
    for group, calls in ((None, whole), ("K", grouped)):
        sql = f"SELECT {', '.join(([group] if group else []) + calls)} FROM T"
        if group is not None:
            sql += f" GROUP BY {group}"
        plan = db.explain(sql)
        if group is None or buffer_pages == 64:
            assert "sort" not in plan, plan
        got = run_both(db, sql)
        assert as_set(got) == as_set(expected_groups(rows, group, calls, None)), sql
    assert folded == [True, True]
