"""``repro bench --exec`` — time end-to-end query execution, not planning.

The planning benchmark (:mod:`repro.perf.bench`) times access path
selection; this harness times what the chosen plan then *does*: scans,
SARG evaluation, tuple decoding, joins, predicates, aggregation, and
projection — the CPU path the paper's ``W``·RSICARD term models.

Each query is planned once, then executed repeatedly prepared-statement
style with a fresh executor and a cold buffer pool per run, so the
stopwatch sees steady-state execution over identical physical I/O.  In
addition to wall-clock, every query records its result checksum and the
exact :class:`~repro.rss.counters.CostCounters` deltas (page fetches, RSI
calls, buffer hits) of one cold execution; ``--compare old.json`` reports
per-query speedups and **fails** if any counter or checksum moved — an
execution-engine optimization must change how fast the work happens, not
how much work the cost model sees.

The module is deliberately self-contained over the stable public API
(``Database``, ``parse_statement``, the workload generators), so the same
file can be pointed at an older checkout via ``PYTHONPATH`` to produce
the "before" report:

    git worktree add /tmp/seed <base-commit>
    PYTHONPATH=/tmp/seed/src python src/repro/perf/bench_exec.py \
        --output BENCH_executor_seed.json
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import pstats
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.database import Database
from repro.sql import ast, parse_statement
from repro.workloads.empdept import FIG1_QUERY, build_empdept
from repro.workloads.generator import (
    build_database,
    chain_join_query,
    random_chain_spec,
    random_star_spec,
    star_join_query,
)

#: Bump when the JSON schema changes shape.
REPORT_VERSION = 1

DEFAULT_OUTPUT = "BENCH_executor.json"

#: Counter fields that must be bit-identical between compared runs.
COUNTER_FIELDS = ("page_fetches", "rsi_calls", "buffer_hits")


@dataclass(frozen=True)
class ExecCase:
    """One named benchmark point: a database builder plus a query."""

    name: str
    build: Callable[[], Database]
    sql: str
    quick: bool = False  # part of the CI smoke subset


def _empdept_cases(employees: int) -> list[ExecCase]:
    def build() -> Database:
        return build_empdept(employees=employees, departments=24, seed=7)

    return [
        ExecCase("fig1-join", build, FIG1_QUERY, quick=True),
        ExecCase(
            "emp-filter",
            build,
            "SELECT NAME, SAL FROM EMP WHERE SAL > 400 AND JOB = 2",
            quick=True,
        ),
        ExecCase(
            "emp-arith",
            build,
            "SELECT ENO, SAL * 12 + 500 FROM EMP WHERE SAL / 2 > 150",
        ),
        ExecCase(
            "emp-between-in",
            build,
            "SELECT ENO, SAL FROM EMP "
            "WHERE SAL BETWEEN 200 AND 800 AND DNO IN (1, 2, 3, 4, 5)",
        ),
        ExecCase(
            "emp-like",
            build,
            "SELECT NAME FROM EMP WHERE NAME LIKE 'EMP1%' AND SAL > 300",
        ),
        ExecCase(
            "emp-agg",
            build,
            "SELECT DNO, COUNT(*), AVG(SAL), MAX(SAL) FROM EMP "
            "GROUP BY DNO HAVING COUNT(*) > 2",
            quick=True,
        ),
        ExecCase(
            "emp-order",
            build,
            "SELECT NAME, SAL FROM EMP WHERE DNO <= 12 ORDER BY SAL DESC",
        ),
    ]


def _chain_case(relations: int, max_rows: int, quick: bool = False) -> ExecCase:
    """A chain join at one NCARD scale (``max_rows`` ≈ the largest NCARD)."""

    def build() -> Database:
        rng = random.Random(1000 + relations * 10 + max_rows)
        tables = random_chain_spec(
            relations, rng, min_rows=max_rows // 4, max_rows=max_rows
        )
        return build_database(tables, seed=relations)

    rng = random.Random(1000 + relations * 10 + max_rows)
    tables = random_chain_spec(
        relations, rng, min_rows=max_rows // 4, max_rows=max_rows
    )
    sql = chain_join_query(tables)
    return ExecCase(f"chain{relations}-n{max_rows}", build, sql, quick=quick)


def _star_case(dimensions: int, fact_rows: int, quick: bool = False) -> ExecCase:
    """A star join at one fact-table NCARD scale."""

    def build() -> Database:
        rng = random.Random(2000 + dimensions * 10 + fact_rows)
        tables = random_star_spec(dimensions, rng, fact_rows=fact_rows)
        return build_database(tables, seed=dimensions)

    rng = random.Random(2000 + dimensions * 10 + fact_rows)
    tables = random_star_spec(dimensions, rng, fact_rows=fact_rows)
    sql = star_join_query(tables)
    return ExecCase(f"star{dimensions}-n{fact_rows}", build, sql, quick=quick)


def default_cases(quick: bool = False) -> list[ExecCase]:
    """The benchmark matrix: empdept corpus + chain/star at several NCARDs."""
    cases = _empdept_cases(employees=600 if quick else 1500)
    cases += [
        _chain_case(3, 400, quick=True),
        _chain_case(3, 1600),
        _chain_case(5, 800),
        _star_case(3, 1000, quick=True),
        _star_case(3, 4000),
        _star_case(5, 2000),
    ]
    if quick:
        return [case for case in cases if case.quick]
    return cases


# ---------------------------------------------------------------------------
# the unsorted-large-join section (``--hashjoin``)
# ---------------------------------------------------------------------------

#: Execution modes the hash-join gate audits for counter fidelity.
HASHJOIN_MODES = ("interp", "compiled", "fused", "parallel")


def _unsorted_join_case(
    name: str, tables: list, sql: str, buffer_pages: int
) -> ExecCase:
    def build() -> Database:
        return build_database(tables, seed=7, buffer_pages=buffer_pages)

    return ExecCase(name, build, sql, quick=True)


def hashjoin_cases(quick: bool = False) -> list[ExecCase]:
    """Large joins over unindexed, unsorted inputs: the hash sweet spot.

    Every shape keeps at least one relation out of buffer residency so
    nested loops cannot coast on a cached inner, and none carries an
    index that would hand merge join a free order.  The DP must pick a
    hash join on each of these when ``REPRO_HASHJOIN`` allows it (the
    bench asserts it does).
    """
    from repro.workloads.generator import ColumnSpec, TableSpec

    scale = 2 if quick else 1

    def spec(name, rows, columns, pad):
        return TableSpec(name, rows // scale, columns, [], pad_bytes=pad)

    cases = [
        _unsorted_join_case(
            "hj-filtered",
            [
                spec("T1", 8000, [ColumnSpec("A", 50), ColumnSpec("J1", 500)], 80),
                spec("T2", 12000, [ColumnSpec("J1", 500), ColumnSpec("B", 10)], 80),
            ],
            "SELECT T1.A, T2.J1 FROM T1, T2 "
            "WHERE T1.J1 = T2.J1 AND T2.B = 3",
            buffer_pages=48 // scale,
        ),
        _unsorted_join_case(
            "hj-grace",
            [
                spec("T1", 8000, [ColumnSpec("A", 50), ColumnSpec("J1", 500)], 80),
                spec("T2", 12000, [ColumnSpec("J1", 500), ColumnSpec("B", 10)], 80),
            ],
            "SELECT COUNT(*) FROM T1, T2 WHERE T1.J1 = T2.J1",
            buffer_pages=48 // scale,
        ),
        _unsorted_join_case(
            "hj-chain3",
            [
                spec("C1", 4000, [ColumnSpec("A", 50), ColumnSpec("J1", 400)], 80),
                spec("C2", 6000, [ColumnSpec("J1", 400), ColumnSpec("J2", 400)], 80),
                spec("C3", 5000, [ColumnSpec("J2", 400), ColumnSpec("B", 10)], 80),
            ],
            "SELECT C1.A, C3.B FROM C1, C2, C3 "
            "WHERE C1.J1 = C2.J1 AND C2.J2 = C3.J2 AND C3.B = 3",
            buffer_pages=48 // scale,
        ),
        _unsorted_join_case(
            "hj-star2",
            [
                spec(
                    "FACT",
                    10000,
                    [
                        ColumnSpec("D1", 300),
                        ColumnSpec("D2", 300),
                        ColumnSpec("M", 50),
                    ],
                    80,
                ),
                spec("DIM1", 3000, [ColumnSpec("D1", 300), ColumnSpec("A", 10)], 80),
                spec("DIM2", 3000, [ColumnSpec("D2", 300), ColumnSpec("B", 10)], 80),
            ],
            "SELECT FACT.M, DIM1.A, DIM2.B FROM FACT, DIM1, DIM2 "
            "WHERE FACT.D1 = DIM1.D1 AND FACT.D2 = DIM2.D2 "
            "AND DIM1.A = 3 AND DIM2.B = 5",
            buffer_pages=48 // scale,
        ),
    ]
    return cases


def _count_hash_joins(db: Database, sql: str) -> int:
    from repro.optimizer.plan import HashJoinNode, walk_plan

    statement = parse_statement(sql)
    assert isinstance(statement, ast.SelectQuery)
    planned = db.plan_query(statement)
    return sum(
        isinstance(node, HashJoinNode) for node in walk_plan(planned.root)
    )


def run_hashjoin_bench(
    repeats: int | None = None,
    quick: bool = False,
    echo: Callable[[str], None] = print,
) -> dict:
    """The hash-join gate: baseline vs hash across every execution mode.

    The baseline leg re-runs the section with ``REPRO_HASHJOIN=0`` in
    fused mode — the best nested-loop/merge plan the DP can find without
    the hash alternative.  The hash leg runs all four execution modes and
    requires bit-identical counters, row counts, and checksums across
    them; the headline ``geomean_speedup`` is fused-over-baseline on the
    same runner.  Unlike ``--compare``, counters are *expected* to differ
    between the two legs: they execute different plans.
    """
    import os

    cases = hashjoin_cases(quick=quick)
    effective_repeats = repeats or (3 if quick else 5)

    # The section is vacuous unless the DP picks hash joins on it.
    for case in cases:
        db = case.build()
        hash_joins = _count_hash_joins(db, case.sql)
        if hash_joins == 0:
            raise RuntimeError(
                f"{case.name}: the DP picked no hash join; the section no "
                "longer measures what it claims to"
            )

    echo("  -- baseline (REPRO_HASHJOIN=0, fused)")
    saved = os.environ.get("REPRO_HASHJOIN")
    os.environ["REPRO_HASHJOIN"] = "0"
    try:
        baseline = [
            run_case(case, repeats=effective_repeats, mode="fused")
            for case in cases
        ]
    finally:
        if saved is None:
            del os.environ["REPRO_HASHJOIN"]
        else:
            os.environ["REPRO_HASHJOIN"] = saved
    for entry in baseline:
        echo(
            f"  {entry['name']:<16s} mean {entry['mean_ms']:9.2f} ms  "
            f"rows {entry['rows']:>6d}"
        )

    mode_sections: dict[str, list[dict]] = {}
    for mode in HASHJOIN_MODES:
        echo(f"  -- hash joins, {mode} mode")
        workers = 2 if mode == "parallel" else None
        mode_sections[mode] = [
            run_case(case, repeats=effective_repeats, mode=mode, workers=workers)
            for case in cases
        ]
        for entry in mode_sections[mode]:
            echo(
                f"  {entry['name']:<16s} mean {entry['mean_ms']:9.2f} ms  "
                f"rows {entry['rows']:>6d}  rsi {entry['rsi_calls']:>8d}"
            )

    # Counter fidelity: every mode must agree with interp exactly.
    mismatches: list[str] = []
    reference = {entry["name"]: entry for entry in mode_sections["interp"]}
    for mode in HASHJOIN_MODES[1:]:
        for entry in mode_sections[mode]:
            ref = reference[entry["name"]]
            identical = all(
                ref[fieldname] == entry[fieldname]
                for fieldname in (*COUNTER_FIELDS, "rows", "checksum")
            )
            if not identical:
                mismatches.append(f"{entry['name']}@{mode}")

    # Same-runner speedup: fused hash leg over the no-hash baseline.
    baseline_by_name = {entry["name"]: entry for entry in baseline}
    rows: list[dict] = []
    for entry in mode_sections["fused"]:
        before = baseline_by_name[entry["name"]]
        if before["checksum"] != entry["checksum"]:
            mismatches.append(f"{entry['name']}@baseline-rows")
        rows.append(
            {
                "name": entry["name"],
                "baseline_mean_ms": before["mean_ms"],
                "hash_mean_ms": entry["mean_ms"],
                "speedup": round(before["mean_ms"] / entry["mean_ms"], 3),
            }
        )
        echo(
            f"  {entry['name']:<16s} {before['mean_ms']:9.2f} ms -> "
            f"{entry['mean_ms']:9.2f} ms  {rows[-1]['speedup']:6.2f}x"
        )
    geo = math.exp(statistics.fmean(math.log(row["speedup"]) for row in rows))
    echo(f"  geomean speedup over the no-hash baseline: {geo:.2f}x")
    if mismatches:
        echo(f"  COUNTER MISMATCHES: {', '.join(mismatches)}")
    else:
        echo("  counters identical across every execution mode")

    return {
        "version": REPORT_VERSION,
        "kind": "executor-hashjoin",
        "quick": quick,
        "baseline": {"mode": "fused", "hashjoin": "off", "queries": baseline},
        "modes": mode_sections,
        "queries": mode_sections["fused"],
        "comparison": {
            "queries": rows,
            "geomean_speedup": round(geo, 3),
            "counter_mismatches": mismatches,
        },
    }


# ---------------------------------------------------------------------------
# the skew / morsel-scheduling section (``--morsel``)
# ---------------------------------------------------------------------------

#: Worker count the morsel section models and measures at.
MORSEL_WORKERS = 4

#: Contiguous ranges per worker in the skew model's static-partitioning
#: baseline (modelled from ``partition_ranges``, never executed).
STATIC_PARTITIONS_PER_WORKER = 2


@dataclass(frozen=True)
class SkewCase:
    """A skew-section case plus its page-cost model inputs.

    ``table`` names the partitioned scan's relation and ``predicate``
    tests one decoded values tuple for a match, so the bench can measure
    per-page matched-row counts (the paper's RSICARD currency) straight
    from the built database instead of asserting a skew shape.
    """

    case: ExecCase
    table: str
    predicate: Callable[[tuple], bool]


@dataclass(frozen=True)
class ScanHeavyCase:
    """A process-section case plus the spec of its worker payload.

    ``sarg`` is ``(position, op, value)`` over ``table``'s columns and
    ``out_positions`` the projected columns — enough to rebuild the exact
    ``ScanMorsel`` payload the process backend ships, so the payload can
    be timed serially in-process.
    """

    case: ExecCase
    table: str
    sarg: tuple | None
    out_positions: tuple


def morsel_cases(quick: bool = False) -> tuple[list[SkewCase], list[ScanHeavyCase]]:
    """The morsel-section matrix: skewed scans + scan-heavy direct queries.

    Skew tables draw their lead column from a Zipf and are clustered on
    it, so the hot value's rows sit on one contiguous run of pages — the
    shape that leaves most static ranges idle while one range carries
    nearly all matched rows.  Scan-heavy tables are wide unindexed
    single-table filters where decode+SARG+project dominate: the payload
    the process backend moves off the driving thread.
    """
    from repro.workloads.generator import ColumnSpec, IndexSpec, TableSpec

    scale = 2 if quick else 1

    ska = TableSpec(
        "SKA",
        12000 // scale,
        [ColumnSpec("HOT", distinct=40, zipf=1.2), ColumnSpec("VAL", distinct=1000)],
        pad_bytes=80,
        cluster_by="HOT",
    )
    skb = TableSpec(
        "SKB",
        12000 // scale,
        [ColumnSpec("HOT", distinct=60, zipf=1.0), ColumnSpec("VAL", distinct=1000)],
        pad_bytes=80,
        cluster_by="HOT",
    )
    dimh = TableSpec(
        "DIMH",
        40,
        [ColumnSpec("K", distinct=40, sequential=True), ColumnSpec("B", distinct=10)],
        indexes=[IndexSpec("IX_DIMH_K", ["K"], unique=True)],
    )

    def build(specs):
        def factory() -> Database:
            return build_database(specs, seed=11)

        return factory

    skew = [
        SkewCase(
            ExecCase(
                "skew-scan",
                build([ska]),
                "SELECT HOT, VAL FROM SKA WHERE HOT = 0",
                quick=True,
            ),
            "SKA",
            lambda values: values[0] == 0,
        ),
        SkewCase(
            ExecCase(
                "skew-filter",
                build([skb]),
                "SELECT VAL FROM SKB WHERE HOT = 0 AND VAL > 100",
                quick=True,
            ),
            "SKB",
            lambda values: values[0] == 0 and values[1] > 100,
        ),
        SkewCase(
            ExecCase(
                "skew-join",
                build([ska, dimh]),
                "SELECT SKA.VAL, DIMH.B FROM SKA, DIMH "
                "WHERE SKA.HOT = DIMH.K AND SKA.HOT = 0",
                quick=True,
            ),
            "SKA",
            lambda values: values[0] == 0,
        ),
    ]

    ts = TableSpec(
        "TS",
        16000 // scale,
        [ColumnSpec("A", distinct=50), ColumnSpec("B", distinct=1000)],
        pad_bytes=80,
    )
    tw = TableSpec(
        "TW",
        12000 // scale,
        [
            ColumnSpec("A", distinct=50),
            ColumnSpec("B", distinct=1000),
            ColumnSpec("C", distinct=12),
        ],
        pad_bytes=120,
    )
    tp = TableSpec(
        "TP",
        20000 // scale,
        [ColumnSpec("A", distinct=400), ColumnSpec("B", distinct=1000)],
        pad_bytes=60,
    )

    from repro.rss.sargs import CompareOp

    scanheavy = [
        ScanHeavyCase(
            ExecCase(
                "scanheavy-filter",
                build([ts]),
                "SELECT A, B FROM TS WHERE A < 25",
                quick=True,
            ),
            "TS",
            (0, CompareOp.LT, 25),
            (0, 1),
        ),
        ScanHeavyCase(
            ExecCase(
                "scanheavy-wide",
                build([tw]),
                "SELECT A, B, C FROM TW WHERE C >= 3",
                quick=True,
            ),
            "TW",
            (2, CompareOp.GE, 3),
            (0, 1, 2),
        ),
        ScanHeavyCase(
            ExecCase(
                "scanheavy-point",
                build([tp]),
                "SELECT B FROM TP WHERE A = 7",
                quick=True,
            ),
            "TP",
            (0, CompareOp.EQ, 7),
            (1,),
        ),
    ]
    return skew, scanheavy


def _page_match_counts(
    db: Database, table_name: str, predicate: Callable[[tuple], bool]
) -> list[int]:
    """Matched rows per page, decoded straight off the page-store snapshot."""
    from repro.rss.scan import decode_page_rows
    from repro.rss.tuples import DecodePlan

    table = db.catalog.table(table_name)
    snapshot = db.storage.scan_snapshot(table)
    decode = DecodePlan([column.datatype for column in table.columns]).decode
    counts = []
    for page_id in snapshot.page_ids:
        rows = decode_page_rows(
            page_id, snapshot.get_page(page_id), snapshot.relation_id, decode
        )
        counts.append(sum(1 for __, values in rows if predicate(values)))
    return counts


def _greedy_makespan(tasks: list[int], workers: int) -> int:
    """Max worker load when tasks go, in order, to the least-loaded worker.

    Models an idle worker pulling the next queued range — exact for the
    morsel queue, generous to static scheduling (a real static split has
    no load information at all).
    """
    loads = [0] * workers
    for cost in tasks:
        index = min(range(workers), key=loads.__getitem__)
        loads[index] += cost
    return max(loads)


def _range_costs(counts: list[int], ranges) -> list[int]:
    return [sum(counts[lo:hi]) for lo, hi in ranges]


def _worker_payload_ms(db: Database, spec: ScanHeavyCase) -> float:
    """Serial wall time of the exact payload the process backend ships.

    Freezes every morsel of the table and runs ``run_scan_morsel`` over
    them in one thread — decode, SARG matching, projection — which is
    the parallelizable fraction of the fused pipeline under the process
    backend (best of three runs).
    """
    from repro.engine.scheduler import (
        DEFAULT_MORSEL_PAGES,
        ScanMorsel,
        morsel_ranges,
        run_scan_morsel,
    )
    from repro.rss.sargs import ConjunctiveSargs, SargPredicate, Sargs

    table = db.catalog.table(spec.table)
    snapshot = db.storage.scan_snapshot(table)
    datatypes = tuple(column.datatype for column in table.columns)
    sargs = None
    if spec.sarg is not None:
        position, op, value = spec.sarg
        sargs = ConjunctiveSargs([Sargs([[SargPredicate(position, op, value)]])])
    morsels = [
        ScanMorsel(
            pages=snapshot.freeze_range(lo, hi),
            relation_id=snapshot.relation_id,
            datatypes=datatypes,
            sargs=sargs,
            out_positions=spec.out_positions,
        )
        for lo, hi in morsel_ranges(len(snapshot.page_ids), DEFAULT_MORSEL_PAGES)
    ]
    best = math.inf
    for __ in range(3):
        started = time.perf_counter()
        for morsel in morsels:
            run_scan_morsel(morsel)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def _run_leg(
    cases: list[ExecCase],
    repeats: int,
    env: dict | None = None,
    **kwargs,
) -> list[dict]:
    """Run every case under temporary environment overrides."""
    import os

    saved: dict[str, str | None] = {}
    for key, value in (env or {}).items():
        saved[key] = os.environ.get(key)
        os.environ[key] = value
    try:
        return [run_case(case, repeats=repeats, **kwargs) for case in cases]
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


def run_morsel_bench(
    repeats: int | None = None,
    quick: bool = False,
    echo: Callable[[str], None] = print,
) -> dict:
    """The morsel gate: three scheduling legs plus skew/process models.

    Every case runs fused, morsel-thread, and morsel-process at 4
    workers; counters, row counts, and checksums must be bit-identical
    across all three legs — that part is the hard gate and holds on any
    host.

    Wall-clock speedups from thread/process pools depend on the host's
    core count (CI runners are often single-core), so the headline skew
    and process numbers are *models over measured inputs*, labelled as
    such in the report: the skew speedup compares greedy makespans of
    per-range matched-row counts measured from the real database, and
    the process speedup is an Amdahl projection from the serially-timed
    worker payload.  Measured wall times for every leg are reported
    alongside, with the host's CPU count.
    """
    import os

    skew_specs, scanheavy_specs = morsel_cases(quick=quick)
    cases = [spec.case for spec in skew_specs] + [
        spec.case for spec in scanheavy_specs
    ]
    effective_repeats = repeats or (3 if quick else 5)

    legs: dict[str, list[dict]] = {}
    leg_plans = [
        ("fused", {}, {"mode": "fused"}),
        ("morsel", {}, {"mode": "parallel", "workers": MORSEL_WORKERS}),
        (
            "process",
            {"REPRO_BACKEND": "process"},
            {"mode": "parallel", "workers": MORSEL_WORKERS},
        ),
    ]
    for leg_name, env, kwargs in leg_plans:
        echo(f"  -- {leg_name} leg")
        legs[leg_name] = _run_leg(
            cases, repeats=effective_repeats, env=env, **kwargs
        )
        for entry in legs[leg_name]:
            echo(
                f"  {entry['name']:<16s} mean {entry['mean_ms']:9.2f} ms  "
                f"rows {entry['rows']:>6d}  rsi {entry['rsi_calls']:>8d}"
            )

    # The hard gate: all three legs agree on every counter, row count,
    # and checksum — scheduling must never change what the cost model sees.
    mismatches: list[str] = []
    reference = {entry["name"]: entry for entry in legs["fused"]}
    for leg_name in ("morsel", "process"):
        for entry in legs[leg_name]:
            ref = reference[entry["name"]]
            identical = all(
                ref[fieldname] == entry[fieldname]
                for fieldname in (*COUNTER_FIELDS, "rows", "checksum")
            )
            if not identical:
                mismatches.append(f"{entry['name']}@{leg_name}")

    # Skew model: measured per-range matched-row counts -> greedy makespans.
    from repro.engine.scheduler import (
        DEFAULT_MORSEL_PAGES,
        morsel_ranges,
        partition_ranges,
    )

    morsel_by_name = {entry["name"]: entry for entry in legs["morsel"]}
    skew_rows: list[dict] = []
    echo("  -- skew model (matched rows per range, greedy makespan)")
    for spec in skew_specs:
        db = spec.case.build()
        counts = _page_match_counts(db, spec.table, spec.predicate)
        pages = len(counts)
        matched = sum(counts)
        static_tasks = _range_costs(
            counts,
            partition_ranges(
                pages, MORSEL_WORKERS * STATIC_PARTITIONS_PER_WORKER
            ),
        )
        morsel_tasks = _range_costs(
            counts, morsel_ranges(pages, DEFAULT_MORSEL_PAGES)
        )
        static_makespan = _greedy_makespan(static_tasks, MORSEL_WORKERS)
        morsel_makespan = _greedy_makespan(morsel_tasks, MORSEL_WORKERS)
        projected = static_makespan / max(morsel_makespan, 1)
        skew_rows.append(
            {
                "name": spec.case.name,
                "pages": pages,
                "matched_rows": matched,
                "static_makespan": static_makespan,
                "morsel_makespan": morsel_makespan,
                "projected_speedup": round(projected, 3),
                "measured_morsel_ms": morsel_by_name[spec.case.name]["mean_ms"],
            }
        )
        echo(
            f"  {spec.case.name:<16s} makespan {static_makespan:>6d} -> "
            f"{morsel_makespan:>6d}  projected {projected:6.2f}x"
        )
    skew_geomean = _geomean([row["projected_speedup"] for row in skew_rows])
    echo(f"  skew section projected geomean: {skew_geomean:.2f}x")

    # Process model: serially-timed worker payload -> Amdahl projection.
    fused_by_name = {entry["name"]: entry for entry in legs["fused"]}
    process_by_name = {entry["name"]: entry for entry in legs["process"]}
    process_rows: list[dict] = []
    echo("  -- process model (worker payload share, Amdahl)")
    for spec in scanheavy_specs:
        db = spec.case.build()
        payload_ms = _worker_payload_ms(db, spec)
        fused_ms = fused_by_name[spec.case.name]["mean_ms"]
        share = min(payload_ms / fused_ms, 0.95)
        projected = 1.0 / ((1.0 - share) + share / MORSEL_WORKERS)
        process_rows.append(
            {
                "name": spec.case.name,
                "fused_mean_ms": fused_ms,
                "worker_payload_ms": round(payload_ms, 4),
                "parallel_share": round(share, 4),
                "projected_speedup": round(projected, 3),
                "measured_process_ms": process_by_name[spec.case.name][
                    "mean_ms"
                ],
            }
        )
        echo(
            f"  {spec.case.name:<16s} payload {payload_ms:9.2f} ms / "
            f"{fused_ms:9.2f} ms  share {share:5.2f}  "
            f"projected {projected:6.2f}x"
        )
    process_geomean = _geomean(
        [row["projected_speedup"] for row in process_rows]
    )
    echo(f"  process section projected geomean: {process_geomean:.2f}x")
    if mismatches:
        echo(f"  COUNTER MISMATCHES: {', '.join(mismatches)}")
    else:
        echo("  counters identical across all three scheduling legs")

    return {
        "version": REPORT_VERSION,
        "kind": "executor-morsel",
        "quick": quick,
        "workers": MORSEL_WORKERS,
        "host": {"cpu_count": os.cpu_count()},
        "legs": legs,
        "queries": legs["morsel"],
        "skew": {
            "queries": skew_rows,
            "projected_geomean_speedup": round(skew_geomean, 3),
            "method": (
                "per-page matched-row counts (RSICARD units) measured from "
                "the built database; ranges assigned greedily to the "
                f"least-loaded of {MORSEL_WORKERS} workers; projected "
                "speedup = static-range makespan / morsel makespan. "
                "Wall-clock only tracks this on hosts with enough cores."
            ),
        },
        "process": {
            "queries": process_rows,
            "projected_geomean_speedup": round(process_geomean, 3),
            "method": (
                "worker payload (run_scan_morsel over every frozen morsel) "
                "timed serially against the fused mean; projected = "
                f"1/((1-share)+share/{MORSEL_WORKERS}) (Amdahl). Ignores "
                "IPC serialization; wall-clock governs on multi-core hosts."
            ),
        },
        "comparison": {
            "counter_mismatches": mismatches,
            "skew_projected_geomean": round(skew_geomean, 3),
            "process_projected_geomean": round(process_geomean, 3),
        },
    }


def _checksum(rows: list[tuple]) -> str:
    digest = hashlib.sha256()
    for row in sorted(repr(row) for row in rows):
        digest.update(row.encode("utf-8"))
    return digest.hexdigest()[:16]


#: Pipeline stages profiled executions are attributed to, by module path
#: fragment (first match wins).
PROFILE_STAGES = (
    ("engine/fuse.py", "fused drivers"),
    ("engine/operators.py", "operators"),
    ("engine/compile.py", "compiled exprs"),
    ("engine/evaluator.py", "interpreter"),
    ("engine/external_sort.py", "sort"),
    ("engine/temp.py", "temp lists"),
    ("rss/scan.py", "rss scan"),
    ("rss/sargs.py", "sargs"),
    ("rss/tuples.py", "decode"),
    ("rss/btree.py", "btree"),
    ("rss/", "storage"),
    ("engine/", "engine other"),
)


def _profile_stages(execute: Callable[[], object]) -> dict[str, float]:
    """Per-pipeline-stage self-time (ms) of one profiled execution."""
    profiler = cProfile.Profile()
    profiler.enable()
    execute()
    profiler.disable()
    stages: dict[str, float] = {}
    for (filename, __, ___), (____, _____, tottime, ______, _______) in (
        pstats.Stats(profiler).stats.items()  # type: ignore[attr-defined]
    ):
        normalized = filename.replace("\\", "/")
        if "/repro/" not in normalized:
            continue
        fragment = normalized.split("/repro/", 1)[1]
        for prefix, stage in PROFILE_STAGES:
            if fragment.startswith(prefix):
                break
        else:
            stage = "other"
        stages[stage] = stages.get(stage, 0.0) + tottime * 1000.0
    return {
        stage: round(ms, 3)
        for stage, ms in sorted(stages.items(), key=lambda kv: -kv[1])
    }


def run_case(
    case: ExecCase,
    repeats: int,
    mode: str | None = None,
    profile: bool = False,
    workers: int | None = None,
) -> dict:
    """Benchmark one case: build and plan once, execute ``repeats`` times."""
    db = case.build()
    if mode is not None:
        db.exec_mode = mode
    if workers is not None:
        db.workers = workers
    statement = parse_statement(case.sql)
    assert isinstance(statement, ast.SelectQuery)
    planned = db.plan_query(statement)
    storage = db.storage

    # One cold, measured execution for the result fingerprint and the cost
    # counters (which --compare later requires to be bit-identical).
    storage.cold_cache()
    before = storage.counters.snapshot()
    result = db.executor().execute(planned)
    after = storage.counters.snapshot()
    counters = {
        "page_fetches": after.page_fetches - before.page_fetches,
        "rsi_calls": after.rsi_calls - before.rsi_calls,
        "buffer_hits": after.buffer_hits - before.buffer_hits,
    }

    times: list[float] = []
    for __ in range(repeats):
        executor = db.executor()
        storage.cold_cache()
        started = time.perf_counter()
        executor.execute(planned)
        times.append(time.perf_counter() - started)

    entry = {
        "name": case.name,
        "repeats": repeats,
        "mean_ms": round(statistics.fmean(times) * 1000.0, 4),
        "min_ms": round(min(times) * 1000.0, 4),
        "rows": len(result.rows),
        "checksum": _checksum(result.rows),
        **counters,
    }
    if profile:
        storage.cold_cache()
        entry["stages"] = _profile_stages(
            lambda: db.executor().execute(planned)
        )
    return entry


def run_bench(
    cases: list[ExecCase],
    repeats: int | None = None,
    quick: bool = False,
    mode: str | None = None,
    profile: bool = False,
    workers: list[int] | None = None,
    echo: Callable[[str], None] = print,
) -> dict:
    """Run the matrix and return the JSON-ready report.

    ``workers`` sweeps the matrix once per worker count (parallel mode);
    the report's top-level ``queries`` — the section ``--compare`` and CI
    gates read — reflects the *highest* count, and every swept count
    keeps its full per-query section under ``worker_sweep``.
    """
    from repro.engine.executor import resolve_exec_settings

    resolved_mode, resolved_workers = resolve_exec_settings(mode)
    sweep = sorted(workers) if workers else [resolved_workers]
    sweep_sections: list[dict] = []
    queries: list[dict] = []
    for count in sweep:
        if len(sweep) > 1:
            echo(f"  -- {resolved_mode} mode, {count} worker(s)")
        queries = []
        for case in cases:
            entry = run_case(
                case,
                repeats=repeats or (3 if quick else 7),
                mode=mode,
                profile=profile,
                workers=count if workers else None,
            )
            queries.append(entry)
            echo(
                f"  {entry['name']:<16s} mean {entry['mean_ms']:9.2f} ms  "
                f"min {entry['min_ms']:9.2f} ms  rows {entry['rows']:>6d}  "
                f"fetches {entry['page_fetches']:>6d}  "
                f"rsi {entry['rsi_calls']:>8d}"
            )
            if profile:
                for stage, ms in list(entry.get("stages", {}).items())[:6]:
                    echo(f"      {stage:<16s} {ms:9.2f} ms")
        sweep_sections.append(
            {
                "workers": count,
                "queries": queries,
                "total_mean_ms": round(sum(q["mean_ms"] for q in queries), 4),
            }
        )
    report = {
        "version": REPORT_VERSION,
        "kind": "executor",
        "quick": quick,
        "mode": resolved_mode,
        "workers": sweep[-1],
        "queries": queries,
        "summary": {
            "total_mean_ms": round(sum(q["mean_ms"] for q in queries), 4),
        },
    }
    if len(sweep) > 1:
        report["worker_sweep"] = sweep_sections
    return report


def load_report(path: str | Path) -> dict:
    """Load a previously written ``BENCH_executor.json``."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    if "queries" not in report:
        raise ValueError(f"{path}: not a repro bench --exec report")
    return report


def compare_reports(
    old: dict, new: dict, echo: Callable[[str], None] = print
) -> dict:
    """Per-query speedups of ``new`` over ``old`` plus counter fidelity.

    ``speedup`` > 1 means the new run executes faster.  Any difference in
    page fetches, RSI calls, buffer hits, row counts, or result checksums
    is reported as a counter mismatch — the optimization contract is that
    the physical work is unchanged.
    """
    old_by_name = {q["name"]: q for q in old["queries"]}
    rows: list[dict] = []
    mismatches: list[str] = []
    for query in new["queries"]:
        before = old_by_name.get(query["name"])
        if before is None or before["mean_ms"] <= 0.0:
            continue
        speedup = before["mean_ms"] / query["mean_ms"]
        identical = all(
            before.get(fieldname) == query.get(fieldname)
            for fieldname in (*COUNTER_FIELDS, "rows", "checksum")
        )
        if not identical:
            mismatches.append(query["name"])
        rows.append(
            {
                "name": query["name"],
                "old_mean_ms": before["mean_ms"],
                "new_mean_ms": query["mean_ms"],
                "speedup": round(speedup, 3),
                "counters_identical": identical,
            }
        )
        marker = "" if speedup >= 1.0 else "  REGRESSION"
        if not identical:
            marker += "  COUNTER MISMATCH"
        echo(
            f"  {query['name']:<16s} {before['mean_ms']:9.2f} ms -> "
            f"{query['mean_ms']:9.2f} ms  {speedup:6.2f}x{marker}"
        )
    if not rows:
        raise ValueError("no matching queries between the two reports")
    geo = math.exp(statistics.fmean(math.log(row["speedup"]) for row in rows))
    comparison = {
        "queries": rows,
        "geomean_speedup": round(geo, 3),
        "regressions": [row["name"] for row in rows if row["speedup"] < 1.0],
        "counter_mismatches": mismatches,
    }
    echo(f"  geomean speedup: {comparison['geomean_speedup']:.2f}x")
    if comparison["regressions"]:
        echo(f"  regressions: {', '.join(comparison['regressions'])}")
    if mismatches:
        echo(f"  COUNTER MISMATCHES: {', '.join(mismatches)}")
    else:
        echo("  cost counters identical on every query")
    return comparison


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """``repro bench --exec [--quick] [--mode M] [--compare OLD] [--gate X]
    [--profile] [--output PATH]``."""
    parser = argparse.ArgumentParser(
        prog="repro bench --exec",
        description="benchmark end-to-end query execution",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small matrix for CI smoke runs",
    )
    parser.add_argument(
        "--mode",
        choices=("fused", "parallel", "compiled", "interp"),
        default=None,
        help="execution mode to benchmark (default: REPRO_EXEC or fused)",
    )
    parser.add_argument(
        "--workers",
        metavar="N[,N...]",
        default=None,
        help="comma-separated worker counts to sweep (parallel mode); the "
        "report's headline queries come from the highest count",
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help=f"report path (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--compare",
        metavar="OLD_JSON",
        help="report speedups/counter fidelity against an earlier report",
    )
    parser.add_argument(
        "--gate",
        type=float,
        metavar="MIN_GEOMEAN",
        default=None,
        help="with --compare: fail unless the geomean speedup over the old "
        "report reaches this value (e.g. 0.9 = tolerate 10%% slowdown)",
    )
    parser.add_argument(
        "--hashjoin",
        action="store_true",
        help="run the unsorted-large-join section instead: hash joins in "
        "all four modes vs a REPRO_HASHJOIN=0 fused baseline; --gate "
        "bounds the geomean speedup over that baseline",
    )
    parser.add_argument(
        "--morsel",
        action="store_true",
        help="run the skew/morsel-scheduling section instead: fused, "
        "morsel-thread, and morsel-process legs at 4 workers with a "
        "hard counter-identity gate; --gate bounds the skew section's "
        "modelled makespan geomean over static ranges",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attribute one cProfile'd execution per query to pipeline "
        "stages (scan/decode/fused drivers/sort/...)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override the per-query repeat count",
    )
    args = parser.parse_args(argv)

    workers: list[int] | None = None
    if args.workers is not None:
        try:
            workers = [int(part) for part in args.workers.split(",") if part]
        except ValueError:
            workers = []
        if not workers or any(count < 1 for count in workers):
            print(
                f"error: --workers {args.workers!r}: expected a "
                "comma-separated list of positive integers",
                file=sys.stderr,
            )
            return 2

    if args.hashjoin:
        cases = hashjoin_cases(quick=args.quick)
        print(f"repro bench --exec --hashjoin: {len(cases)} queries")
        report = run_hashjoin_bench(repeats=args.repeats, quick=args.quick)
        output = Path(args.output)
        if args.output == DEFAULT_OUTPUT:
            output = Path("BENCH_executor_hashjoin.json")
        output.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {output}")
        comparison = report["comparison"]
        if comparison["counter_mismatches"]:
            print(
                "HASHJOIN GATE FAILED: counter mismatches on "
                + ", ".join(comparison["counter_mismatches"]),
                file=sys.stderr,
            )
            return 1
        if args.gate is not None and comparison["geomean_speedup"] < args.gate:
            print(
                f"HASHJOIN GATE FAILED: geomean speedup "
                f"{comparison['geomean_speedup']:.3f}x < {args.gate:.3f}x",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.morsel:
        skew_specs, scanheavy_specs = morsel_cases(quick=args.quick)
        count = len(skew_specs) + len(scanheavy_specs)
        print(f"repro bench --exec --morsel: {count} queries x 3 legs")
        report = run_morsel_bench(repeats=args.repeats, quick=args.quick)
        output = Path(args.output)
        if args.output == DEFAULT_OUTPUT:
            output = Path("BENCH_executor_morsel.json")
        output.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {output}")
        comparison = report["comparison"]
        if comparison["counter_mismatches"]:
            print(
                "MORSEL GATE FAILED: counter mismatches on "
                + ", ".join(comparison["counter_mismatches"]),
                file=sys.stderr,
            )
            return 1
        if (
            args.gate is not None
            and comparison["skew_projected_geomean"] < args.gate
        ):
            print(
                f"MORSEL GATE FAILED: skew projected geomean "
                f"{comparison['skew_projected_geomean']:.3f}x "
                f"< {args.gate:.3f}x",
                file=sys.stderr,
            )
            return 1
        return 0

    cases = default_cases(quick=args.quick)
    print(f"repro bench --exec: {len(cases)} quer{'y' if len(cases) == 1 else 'ies'}")
    report = run_bench(
        cases,
        repeats=args.repeats,
        quick=args.quick,
        mode=args.mode,
        profile=args.profile,
        workers=workers,
    )
    output = Path(args.output)
    output.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {output}")
    if args.compare:
        old = load_report(args.compare)
        if old.get("quick", False) != args.quick:
            print(
                f"error: {args.compare} is a "
                f"{'quick' if old.get('quick') else 'full'}-matrix report; "
                "compare like against like (database sizes differ)",
                file=sys.stderr,
            )
            return 2
        print(f"compare against {args.compare}:")
        comparison = compare_reports(old, report)
        report["comparison"] = comparison
        output.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        if comparison["counter_mismatches"]:
            return 1
        if args.gate is not None and comparison["geomean_speedup"] < args.gate:
            print(
                f"PERF GATE FAILED: geomean speedup "
                f"{comparison['geomean_speedup']:.3f}x < {args.gate:.3f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
