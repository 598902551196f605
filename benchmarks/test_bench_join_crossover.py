"""E11 — §5: when does merging scans beat nested loops?

"The reason that merging scans is sometimes better than nested loops is
that the cost of the inner scan may be much less" — after sorting, the
inner is clustered on the join column and is never rescanned.

We sweep the outer cardinality of an equi-join whose inner has no useful
index.  Nested loops must rescan the inner segment per outer tuple (cost
grows linearly with the outer); sort-merge pays a one-time sort.  The bench
locates the crossover in both predicted and measured cost and checks the
optimizer switches methods on the right side of it.

The experiment runs in the paper-faithful mode (``REPRO_HASHJOIN=0``): §5
weighs exactly these two methods, and with hash join in the search the
optimizer answers the large outer with a hash join instead.
"""

from conftest import measure_cold, weighted
from repro import Database
from repro.baselines import LeftDeepBuilder
from repro.optimizer.binder import Binder
from repro.optimizer.plan import (
    HashJoinNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    walk_plan,
)
from repro.optimizer.predicates import to_cnf_factors
from repro.sql import parse_statement
from repro.workloads import load_rows

OUTER_SIZES = [4, 16, 64, 256, 1024]
INNER_SIZE = 1200
DISTINCT = 40


def build_db(outer_rows: int) -> Database:
    """Both relations are padded so neither fits in the 8-page pool once the
    outer grows — the regime where the paper's NL-vs-merge crossover lives
    (a buffer-resident inner would make nested loops unbeatable)."""
    db = Database(buffer_pages=8)
    db.execute("CREATE TABLE OUTR (K INTEGER, V INTEGER, PAD VARCHAR(40))")
    db.execute("CREATE TABLE INNR (K INTEGER, W INTEGER, PAD VARCHAR(40))")
    load_rows(
        db,
        "OUTR",
        [((i * 7) % DISTINCT, i, "o" * 32) for i in range(outer_rows)],
    )
    load_rows(
        db,
        "INNR",
        [((i * 11) % DISTINCT, i, "x" * 32) for i in range(INNER_SIZE)],
    )
    db.execute("UPDATE STATISTICS")
    return db


SQL = "SELECT OUTR.V, INNR.W FROM OUTR, INNR WHERE OUTR.K = INNR.K"


def build_both_plans(db):
    optimizer = db.optimizer()
    block = Binder(db.catalog).bind(parse_statement(SQL))
    factors = to_cnf_factors(block.where, block)
    builder = LeftDeepBuilder(
        block, factors, db.catalog, optimizer.estimator, optimizer.cost_model
    )
    outer = builder.cheapest_path("OUTR").node
    built = frozenset({"OUTR"})
    nl = builder.nested_loop(outer, built, "INNR")
    merge = builder.merge_with_sorts(
        outer, built, "INNR", builder.equijoin_factors(built, "INNR")[0]
    )
    return (
        optimizer.wrap_plan(block, factors, nl),
        optimizer.wrap_plan(
            Binder(db.catalog).bind(parse_statement(SQL)),
            to_cnf_factors(block.where, block),
            merge,
        ),
        optimizer,
    )


def test_join_method_crossover(report, benchmark, monkeypatch):
    monkeypatch.setenv("REPRO_HASHJOIN", "0")
    rows = []
    chosen_methods = []
    for outer_rows in OUTER_SIZES:
        db = build_db(outer_rows)
        nl_planned, merge_planned, optimizer = build_both_plans(db)
        nl_measured, __ = measure_cold(db, nl_planned)
        merge_measured, __ = measure_cold(db, merge_planned)

        chosen = db.plan(SQL)
        if outer_rows == OUTER_SIZES[0]:
            benchmark.pedantic(lambda: db.plan(SQL), rounds=3, iterations=1)
        method = "?"
        for node in walk_plan(chosen.root):
            if isinstance(node, NestedLoopJoinNode):
                method = "nested-loop"
                break
            if isinstance(node, MergeJoinNode):
                method = "merge"
                break
            if isinstance(node, HashJoinNode):
                method = "hash"
                break
        chosen_methods.append((outer_rows, method))
        rows.append(
            [
                outer_rows,
                nl_planned.estimated_total(),
                weighted(nl_measured, nl_planned.w),
                merge_planned.estimated_total(),
                weighted(merge_measured, merge_planned.w),
                method,
            ]
        )

    report.line("E11 — nested loops vs merging scans (inner without index)")
    report.line(f"inner: {INNER_SIZE} rows, {DISTINCT} distinct join values")
    report.table(
        [
            "outer rows",
            "NL pred",
            "NL meas",
            "merge pred",
            "merge meas",
            "chosen",
        ],
        rows,
        widths=[12, 12, 12, 12, 12, 14],
    )
    report.line()
    report.line(
        "NL cost grows with the outer cardinality; the sort-merge's one-time"
    )
    report.line("sort amortizes, creating the crossover the paper describes.")

    # Shape checks: NL wins for a tiny outer, merge for a large one.
    first, last = rows[0], rows[-1]
    assert first[2] <= first[4], "NL should measure cheaper on the tiny outer"
    assert last[4] <= last[2], "merge should measure cheaper on the large outer"
    # The optimizer switches methods somewhere in between.
    methods = [method for __, method in chosen_methods]
    assert methods[0] == "nested-loop"
    assert methods[-1] == "merge"
