"""The ``repro check`` driver: run the static analyses over real corpora.

Five sub-checks, all on by default:

- ``--plans`` plans every query of the EMP/DEPT/JOB workload (under every
  optimizer configuration) and a stream of generated chain/star join
  queries, with structural plan checking, cost auditing, and DP prune
  auditing enabled — the whole workload suite acts as a property-test
  corpus.
- ``--costs`` re-derives the TABLE 2 formulas against every catalog the
  corpus builds and audits the collected statistics.
- ``--lint`` runs the project's ``ast``-based lint over ``src/repro``.
- ``--storage`` audits the storage invariants (index/tuple agreement, page
  reachability, checksums) over in-memory, durable, torn-page, and
  crash/recover scenarios.
- ``--fusion`` executes the workload corpus (plus a dedicated hash-join
  corpus, and a sort and aggregation corpus on a 4-page buffer, where
  sorts merge in several passes) under both engines — interpreted and
  fused — on the same
  database from a cold buffer, asserting the *ordered* row sequences,
  cost counters, and subquery evaluation cadence are bit-identical —
  fused chains must preserve every declared output order, not just row
  sets.

Exit status is non-zero when any violation is found.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Callable

from ..database import Database
from ..optimizer.planner import Optimizer
from ..workloads.empdept import FIG1_QUERY, build_empdept
from ..workloads.generator import (
    ColumnSpec,
    TableSpec,
    build_database,
    clique_join_query,
    random_chain_spec,
    random_clique_spec,
    random_select_query,
    random_star_spec,
    star_join_query,
)
from .cost_audit import audit_cost_model
from .lint import lint_repo
from .plan_check import PlanCheckError, Violation
from .storage_check import check_storage

#: Fused-engine paths no other corpus query reaches, each returning rows:
#: a multi-relation join residual and an inner residual in the nested-loop
#: match loop, a correlated inner filter that keeps the rescan probe,
#: constant factors over a join (under COUNT and GROUP BY) and over a
#: filtered scan, a computed DISTINCT over a filtered scan, and the
#: aggregates the generated fold does not cover (a filtered scan,
#: expression arguments over an index scan and over a sort, a sort of a
#: join).
FUSED_PATH_QUERIES = (
    "SELECT D.DNAME, E.NAME FROM DEPT D, EMP E WHERE D.DNO = E.DNO "
    "AND E.SAL + D.DNO > 800",
    "SELECT D.DNAME, E.NAME FROM DEPT D, EMP E WHERE D.DNO = E.DNO "
    "AND E.SAL + 0 > 700",
    "SELECT D.DNAME, E.NAME FROM DEPT D, EMP E WHERE D.DNO = E.DNO "
    "AND E.SAL > (SELECT AVG(SAL) FROM EMP X WHERE X.DNO = D.DNO)",
    "SELECT COUNT(*) FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO "
    "AND (SELECT COUNT(*) FROM JOB) > 0",
    "SELECT DEPT.LOC, COUNT(*) FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO "
    "AND (SELECT COUNT(*) FROM JOB) > 0 GROUP BY DEPT.LOC",
    "SELECT NAME FROM EMP WHERE SAL + 0 > 900 AND (SELECT COUNT(*) FROM JOB) > 0",
    "SELECT DISTINCT SAL / 100 FROM EMP WHERE SAL + 0 > 500",
    "SELECT COUNT(*), MAX(SAL) FROM EMP WHERE SAL + 0 > 500",
    "SELECT DNO, SUM(SAL + 1) FROM EMP GROUP BY DNO",
    "SELECT NAME, SUM(SAL + 1) FROM EMP GROUP BY NAME",
    "SELECT DEPT.LOC, COUNT(*) FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO "
    "GROUP BY DEPT.LOC",
)

#: The EMP/DEPT/JOB corpus: one query per planner feature.
EMPDEPT_QUERIES = (
    FIG1_QUERY,
    "SELECT NAME, SAL FROM EMP WHERE SAL > 500",
    "SELECT * FROM EMP WHERE DNO = 5",
    "SELECT * FROM EMP WHERE DNO = 5 AND JOB = 2 AND SAL < 900",
    "SELECT DNAME FROM DEPT WHERE DNO = 7",
    "SELECT NAME FROM EMP WHERE SAL BETWEEN 200 AND 400 ORDER BY SAL",
    "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO "
    "ORDER BY EMP.DNO",
    "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO",
    "SELECT DNO, AVG(SAL) FROM EMP WHERE JOB = 1 GROUP BY DNO "
    "HAVING COUNT(*) > 2",
    # Grouping on an unindexed column under selective predicates: the
    # estimated group count must stay below the estimated input rows
    # (regression corpus for the block_output_cardinality clamp).
    "SELECT DNAME, COUNT(*) FROM DEPT WHERE DNO = 3 AND LOC = 'DENVER' "
    "GROUP BY DNAME",
    "SELECT COUNT(*) FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO "
    "AND LOC = 'DENVER'",
    "SELECT DISTINCT LOC FROM DEPT",
    "SELECT DISTINCT TITLE FROM EMP, JOB WHERE EMP.JOB = JOB.JOB "
    "AND SAL > 800",
    "SELECT NAME FROM EMP WHERE DNO IN "
    "(SELECT DNO FROM DEPT WHERE LOC = 'DENVER')",
    "SELECT NAME FROM EMP X WHERE SAL > "
    "(SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO)",
    "SELECT NAME FROM EMP WHERE SAL > "
    "(SELECT AVG(SAL) FROM EMP)",
    # SARG shapes beyond one conjunction, so the fusion differential runs
    # the generated predicates' set test, OR groups and NULL constants.
    "SELECT NAME, DNO FROM EMP WHERE DNO IN (3, 7, 3, NULL)",
    "SELECT NAME FROM EMP WHERE DNO = 4 OR JOB = 2",
    "SELECT NAME FROM EMP WHERE DNO NOT IN (1, 2, 3)",
    "SELECT DNAME FROM DEPT WHERE LOC IN ('DENVER', 'NYC', 'DENVER')",
    "SELECT NAME FROM EMP WHERE (DNO = 2 OR DNO = 5) AND (JOB = 1 OR SAL > 800)",
    *FUSED_PATH_QUERIES,
)

#: (use_heuristic, use_interesting_orders) configurations to cover.
ABLATIONS = ((True, True), (False, True), (True, False))


def verifying_optimizer(
    db: Database,
    use_heuristic: bool = True,
    use_interesting_orders: bool = True,
) -> Optimizer:
    """An optimizer over ``db``'s catalog with full verification enabled."""
    return Optimizer(
        db.catalog,
        w=db.w,
        buffer_pages=db.storage.buffer.capacity,
        use_heuristic=use_heuristic,
        use_interesting_orders=use_interesting_orders,
        verify_plans=True,
    )


def _verify_query(
    db: Database,
    sql: str,
    violations: list[Violation],
    use_heuristic: bool = True,
    use_interesting_orders: bool = True,
) -> None:
    """Plan one query with verification on, collecting any violations."""
    from ..sql import parse_statement

    optimizer = verifying_optimizer(db, use_heuristic, use_interesting_orders)
    try:
        optimizer.plan_query(parse_statement(sql))
    except PlanCheckError as error:
        for violation in error.violations:
            violations.append(
                Violation(
                    violation.rule,
                    violation.where,
                    f"{violation.message} [query: {sql}]",
                )
            )


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def empdept_databases() -> list[Database]:
    """The Figure 1 database, unclustered and clustered."""
    return [
        build_empdept(employees=400, departments=20, jobs=5, seed=11),
        build_empdept(
            employees=400,
            departments=20,
            jobs=5,
            seed=11,
            clustered_emp_dno=True,
        ),
    ]


def generated_batches(
    count: int, seed: int, batch_size: int = 20
) -> list[tuple[Database, list[str]]]:
    """``count`` generated queries in batches sharing one random schema.

    Cycles through chain-join, star-join and clique-join schemas; chain
    batches use :func:`random_select_query` (random equality filters),
    star batches random filters on dimension attributes, clique batches
    random filters on any table's attribute.  Cliques of 3-5 tables are
    the dense join graphs where the join search's bound prunes most.
    """
    rng = random.Random(seed)
    batches: list[tuple[Database, list[str]]] = []
    remaining = count
    topology = 0
    while remaining > 0:
        size = min(batch_size, remaining)
        remaining -= size
        if topology == 1:
            specs = random_star_spec(rng.randint(2, 4), rng, fact_rows=600)
            db = build_database(specs, seed=rng.randrange(1 << 30))
            queries = [
                star_join_query(specs, _random_filters(specs[1:], rng))
                for __ in range(size)
            ]
        elif topology == 2:
            specs = random_clique_spec(rng.randint(3, 5), rng, max_rows=200)
            db = build_database(specs, seed=rng.randrange(1 << 30))
            queries = [
                clique_join_query(specs, _random_filters(specs, rng))
                for __ in range(size)
            ]
        else:
            specs = random_chain_spec(rng.randint(3, 5), rng, max_rows=400)
            db = build_database(specs, seed=rng.randrange(1 << 30))
            queries = [random_select_query(specs, rng) for __ in range(size)]
        batches.append((db, queries))
        topology = (topology + 1) % 3
    return batches


def _random_filters(
    specs: list[TableSpec], rng: random.Random, max_selections: int = 2
) -> list[tuple[str, str, int]]:
    """Up to ``max_selections`` equality filters on the tables' ATTR."""
    selections: list[tuple[str, str, int]] = []
    for __ in range(rng.randint(0, max_selections)):
        spec = rng.choice(specs)
        column = spec.column("ATTR")
        selections.append(
            (spec.name, "ATTR", column.low + rng.randrange(column.distinct))
        )
    return selections


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def check_plans(queries: int = 200, seed: int = 271828) -> list[Violation]:
    """Verify every corpus query's plan; returns all violations."""
    violations: list[Violation] = []
    planned = 0
    for db in empdept_databases():
        for use_heuristic, use_orders in ABLATIONS:
            for sql in EMPDEPT_QUERIES:
                _verify_query(db, sql, violations, use_heuristic, use_orders)
                planned += 1
    print(f"  empdept: {planned} plans verified")
    generated = 0
    for db, batch in generated_batches(queries, seed):
        for sql in batch:
            _verify_query(db, sql, violations)
            generated += 1
    print(f"  generated: {generated} plans verified")
    return violations


def _empty_relation_database() -> Database:
    """An empty, indexed relation with collected statistics.

    Degenerate statistics (zero pages, zero cardinality) historically
    produced out-of-range P(T) values; keep the case in the audit corpus.
    """
    db = Database()
    db.execute("CREATE TABLE EMPTY_REL (A INTEGER, B INTEGER)")
    db.execute("CREATE INDEX EMPTY_A ON EMPTY_REL (A)")
    db.execute("UPDATE STATISTICS")
    return db


def check_costs() -> list[Violation]:
    """Audit the cost model against every corpus catalog."""
    violations: list[Violation] = []
    audited = 0
    for db in [*empdept_databases(), _empty_relation_database()]:
        violations.extend(
            audit_cost_model(
                db.catalog, db.w, db.storage.buffer.capacity
            )
        )
        audited += 1
    for db, __ in generated_batches(40, seed=314159):
        violations.extend(
            audit_cost_model(db.catalog, db.w, db.storage.buffer.capacity)
        )
        audited += 1
    print(f"  cost model audited against {audited} catalogs")
    return violations


def check_lint() -> list[Violation]:
    """Run the project lint over ``src/repro``."""
    violations = lint_repo()
    print("  lint pass over src/repro complete")
    return violations


def _count_hash_joins(planned) -> int:
    """Hash-join nodes across a planned statement and its subquery plans."""
    from ..optimizer.plan import HashJoinNode, PlanNode

    def count(node: PlanNode) -> int:
        total = 1 if isinstance(node, HashJoinNode) else 0
        for child in node.children():
            total += count(child)
        return total

    total = count(planned.root)
    seen: set[int] = set()
    for sub in planned.subquery_plans.values():
        if id(sub) in seen:
            continue
        seen.add(id(sub))
        total += count(sub.root)
    return total


def _audit_fused_query(
    db: Database, sql: str, violations: list[Violation]
) -> int:
    """Execute ``sql`` under both engines and compare them.

    Every execution starts from a cold buffer on the *same* database, so
    any divergence in page fetches, buffer hits, or RSI calls is the
    fused engine's fault, not warm-cache luck.  The interpreted engine
    is the reference; the fused run must reproduce its ordered row
    sequence, counter totals, and subquery evaluation cadence exactly.
    Row lists are compared as ordered sequences: a fused chain that
    reorders rows — even for a query with no ORDER BY — is a bug,
    because fusion must be invisible.  Returns the number of hash joins
    in the plan.
    """
    from ..engine.executor import Executor

    planned = db.plan(sql)
    runs = {}
    for mode in ("interp", "fused"):
        db.storage.cold_cache()
        executor = Executor(db.storage, db.catalog, exec_mode=mode)
        before = db.storage.counters.snapshot()
        result = executor.execute(planned)
        after = db.storage.counters.snapshot()
        runtime = executor.last_runtime
        runs[mode] = (
            result.rows,
            (
                after.page_fetches - before.page_fetches,
                after.rsi_calls - before.rsi_calls,
                after.buffer_hits - before.buffer_hits,
            ),
            dict(runtime.evaluation_counts) if runtime else {},
        )
    ref_rows, ref_counters, ref_evals = runs["interp"]
    rows, counters, evals = runs["fused"]
    where = f"fusion [mode: fused] [query: {sql}]"
    if rows != ref_rows:
        violations.append(
            Violation(
                "fusion-row-order",
                where,
                "fused row sequence differs from the interpreted "
                f"reference ({len(rows)} vs {len(ref_rows)} rows)",
            )
        )
    if counters != ref_counters:
        violations.append(
            Violation(
                "fusion-counters",
                where,
                "cost counters diverged: fused "
                f"(fetches, rsi, hits)={counters} vs interp {ref_counters}",
            )
        )
    if evals != ref_evals:
        violations.append(
            Violation(
                "fusion-subquery-cadence",
                where,
                f"subquery evaluation counts diverged: fused {evals} "
                f"vs interp {ref_evals}",
            )
        )
    return _count_hash_joins(planned)


def hashjoin_corpus() -> list[tuple[Database, list[str]]]:
    """Databases whose cheapest plans include hash joins, per the DP search.

    Two shapes force the formula's crossover points: an unindexed large
    join with a filtered build side (in-memory table), and a padded join
    of two relations whose build side exceeds the buffer pool (grace
    partitioning).  Both degenerate to inner rescans or full sorts
    without a hash alternative.  Each shape has one query with a join
    residual, which the probe loop evaluates per match.
    """
    memory = build_database(
        [
            TableSpec(
                "T1",
                1500,
                [ColumnSpec("A", 50), ColumnSpec("J1", 200)],
                [],
                pad_bytes=80,
            ),
            TableSpec(
                "T2",
                2500,
                [ColumnSpec("J1", 200), ColumnSpec("B", 10)],
                [],
                pad_bytes=80,
            ),
        ],
        seed=7,
        buffer_pages=24,
    )
    grace = build_database(
        [
            TableSpec(
                "G1",
                3000,
                [ColumnSpec("A", 50), ColumnSpec("J1", 400)],
                [],
                pad_bytes=160,
            ),
            TableSpec(
                "G2",
                3000,
                [ColumnSpec("J1", 400), ColumnSpec("B", 10)],
                [],
                pad_bytes=160,
            ),
        ],
        seed=7,
        buffer_pages=32,
    )
    return [
        (
            memory,
            [
                "SELECT T1.A, T2.J1 FROM T1, T2 "
                "WHERE T1.J1 = T2.J1 AND T2.B = 3",
                "SELECT T1.A, T2.B FROM T1, T2 "
                "WHERE T1.J1 = T2.J1 AND T2.B = 3 ORDER BY T1.A",
                "SELECT T1.A, T2.J1 FROM T1, T2 "
                "WHERE T1.J1 = T2.J1 AND T2.B = 3 AND T1.A + T2.B > 5",
            ],
        ),
        (
            grace,
            [
                "SELECT G1.A, G2.B FROM G1, G2 WHERE G1.J1 = G2.J1",
                "SELECT COUNT(*) FROM G1, G2 WHERE G1.J1 = G2.J1",
                "SELECT G1.A, G2.B FROM G1, G2 "
                "WHERE G1.J1 = G2.J1 AND G1.A + G2.B > 5",
            ],
        ),
    ]


#: Buffer pages of the sort corpus: a 3-way merge fan-in, so its sorts
#: spill many runs and merge in several passes.
SORT_CORPUS_BUFFER = 4

#: Sorts and aggregates over NULLs, VARCHAR and FLOAT keys, ascending,
#: descending and mixed, with HAVING, DISTINCT, empty inputs and more
#: groups than one output batch holds.
SORT_QUERIES = (
    "SELECT I, K FROM S ORDER BY K DESC, I",
    "SELECT NAME, K, F FROM S WHERE K < 30 ORDER BY NAME DESC, F",
    "SELECT I, NAME, F FROM S ORDER BY F DESC, NAME DESC",
    "SELECT K, COUNT(*), SUM(F), MIN(NAME), MAX(F), AVG(F) FROM S GROUP BY K",
    "SELECT NAME, COUNT(DISTINCT K), COUNT(F) FROM S GROUP BY NAME "
    "HAVING COUNT(*) > 5",
    "SELECT F, COUNT(*), MAX(K) FROM S WHERE I > 100 GROUP BY F",
    "SELECT COUNT(*), SUM(F), MIN(K), MAX(NAME) FROM S WHERE K > 99",
    "SELECT K, NAME FROM S WHERE I < 0 ORDER BY NAME",
    "SELECT K, COUNT(*) FROM S WHERE I < 0 GROUP BY K",
    # 1 500 groups: more than one batch of groups leaves the fold.
    "SELECT I, COUNT(*), SUM(F) FROM S GROUP BY I",
)


def sort_corpus() -> tuple[Database, tuple[str, ...]]:
    """A relation many times the 4-page buffer, NULLs in every key column,
    with :data:`SORT_QUERIES`."""
    from ..workloads.empdept import load_rows

    rng = random.Random(1979)

    def maybe(value):
        return None if rng.random() < 0.1 else value

    db = Database(buffer_pages=SORT_CORPUS_BUFFER)
    db.execute(
        "CREATE TABLE S (I INTEGER, K INTEGER, F FLOAT, NAME VARCHAR(12), "
        "PAD VARCHAR(60))"
    )
    load_rows(
        db,
        "S",
        [
            (
                i,
                maybe(rng.randrange(60)),
                maybe(rng.randrange(-200, 200) / 8),
                maybe(rng.choice(["", "ADA", "BO", "CY", "CYD", "ZED"])),
                "p" * rng.randrange(20, 60),
            )
            for i in range(1500)
        ],
    )
    db.execute("UPDATE STATISTICS")
    return db, SORT_QUERIES


def check_fusion(queries: int = 40, seed: int = 662607) -> list[Violation]:
    """Differential audit of the fused engine against the interpreted one."""
    violations: list[Violation] = []
    executed = 0
    hash_joins = 0
    for db in empdept_databases():
        for sql in EMPDEPT_QUERIES:
            hash_joins += _audit_fused_query(db, sql, violations)
            executed += 1
    print(f"  empdept: {executed} queries: interp vs fused")
    generated = 0
    for db, batch in generated_batches(queries, seed):
        for sql in batch:
            hash_joins += _audit_fused_query(db, sql, violations)
            generated += 1
    print(f"  generated: {generated} queries: interp vs fused")
    hashed_queries = 0
    for db, batch in hashjoin_corpus():
        for sql in batch:
            hashed = _audit_fused_query(db, sql, violations)
            hash_joins += hashed
            hashed_queries += 1
            if not hashed:
                violations.append(
                    Violation(
                        "hashjoin-corpus-miss",
                        f"fusion [query: {sql}]",
                        "a hash-join corpus query planned without a hash "
                        "join — the corpus no longer exercises the operator",
                    )
                )
    print(f"  hashjoin: {hashed_queries} queries: interp vs fused")
    db, sort_queries = sort_corpus()
    for sql in sort_queries:
        _audit_fused_query(db, sql, violations)
    print(
        f"  sorts: {len(sort_queries)} queries at {SORT_CORPUS_BUFFER} pages: "
        "interp vs fused"
    )
    audited = executed + generated + hashed_queries + len(sort_queries)
    print(
        f"  {audited} queries and {hash_joins} hash joins audited "
        "for order and counter fidelity"
    )
    return violations


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """``repro check [--<section> ...]`` — exit 0 when clean."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="statically verify optimizer plans, costs, and code",
    )
    parser.add_argument(
        "--plans", action="store_true", help="plan-check the query corpora"
    )
    parser.add_argument(
        "--costs", action="store_true", help="audit the cost model"
    )
    parser.add_argument(
        "--lint", action="store_true", help="run the project lint"
    )
    parser.add_argument(
        "--storage",
        action="store_true",
        help="audit storage invariants, durability, and crash recovery",
    )
    parser.add_argument(
        "--fusion",
        action="store_true",
        help="differentially execute the corpus interp vs fused",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=200,
        help="number of generated queries for --plans (default 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=271828, help="corpus random seed"
    )
    args = parser.parse_args(argv)
    run_all = not (
        args.plans or args.costs or args.lint or args.storage or args.fusion
    )

    sections: list[tuple[str, Callable[[], list[Violation]]]] = []
    if run_all or args.lint:
        sections.append(("lint", check_lint))
    if run_all or args.costs:
        sections.append(("costs", check_costs))
    if run_all or args.storage:
        sections.append(("storage", check_storage))
    if run_all or args.fusion:
        sections.append(("fusion", lambda: check_fusion(seed=args.seed)))
    if run_all or args.plans:
        sections.append(("plans", lambda: check_plans(args.queries, args.seed)))

    failures = 0
    for name, runner in sections:
        print(f"check --{name}:")
        violations = runner()
        failures += len(violations)
        if violations:
            for violation in violations:
                print(f"  FAIL {violation}")
        else:
            print("  ok")
    if failures:
        print(f"repro check: {failures} violation(s)", file=sys.stderr)
        return 1
    print("repro check: all checks passed")
    return 0
