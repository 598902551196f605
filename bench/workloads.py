"""The five benchmark workloads: data, statements and why each exists.

Each workload generates its rows and statement lists from the seed, builds
its database(s) through the public API (DDL via ``Database.execute``, bulk
load via ``repro.workloads.load_rows``), and pairs every statement with an
expectation from :mod:`reference`.  All workloads are closed loop: a client
sends its next statement when the previous one has returned.

A *pass* is one trip through a client's fixed statement list.  The worker
measures whole passes, so the work per pass — and with one client every
counter — repeats exactly from run to run.

Literals are stratified rather than drawn freely (a fixed grid of
selectivities, shuffled by the seed), so two seeds give the same amount of
work in a different order; otherwise the seed-to-seed spread of a latency
percentile would measure the literals, not the program.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.database import Database
from repro.workloads import (
    ColumnSpec,
    IndexSpec,
    TableSpec,
    chain_join_query,
    clique_join_query,
    load_rows,
    random_chain_spec,
    random_clique_spec,
    random_star_spec,
    star_join_query,
)

import reference


@dataclass
class Statement:
    """One statement of a pass and what a correct execution returns."""

    sql: str
    kind: str  # "read" or "write"
    shape: str  # query class: warm-up runs one statement per shape
    #: ``(row count, digest)`` for reads; writes must affect exactly one row.
    expected: reference.Expectation | None = None
    ordered: bool = False
    db: int = 0  # which of the workload's databases runs it
    #: What an acknowledged write changed, for the end-of-run audit.
    effect: tuple | None = None


@dataclass
class SetupTimes:
    """Where one set-up spent its time (the ``workloads``/``catalog`` layers)."""

    rows: int = 0
    load_s: float = 0.0
    index_s: float = 0.0
    stats_s: float = 0.0
    user_bytes: int = 0


def generate_rows(spec: TableSpec, rng: random.Random) -> list[tuple]:
    """Seeded tuples for a table spec, column by column.

    Follows the conventions of ``repro.workloads.build_database`` (key-like
    ``...ID`` columns are sequential, ``zipf`` skews the draw) but keeps
    the rows, which the reference answers are computed from.
    """
    columns: list = []
    for column in spec.columns:
        domain = range(column.low, column.low + column.distinct)
        if column.sequential or (
            column.distinct >= spec.rows and column.name.endswith("ID")
        ):
            values = list(range(column.low, column.low + spec.rows))
        elif column.zipf:
            weights = [
                1.0 / rank**column.zipf
                for rank in range(1, column.distinct + 1)
            ]
            values = rng.choices(domain, weights=weights, k=spec.rows)
        else:
            values = [
                column.low + rng.randrange(column.distinct)
                for __ in range(spec.rows)
            ]
        columns.append(values)
    if spec.pad_bytes:
        columns.append(["x" * spec.pad_bytes] * spec.rows)
    return list(zip(*columns))


def load_table(
    db: Database,
    spec: TableSpec,
    rows: list[tuple],
    times: SetupTimes,
    stats_clock: Callable[[], float],
) -> None:
    """CREATE TABLE, bulk load in one transaction, then build the indexes.

    ``stats_clock`` reads the seconds spent so far inside
    ``collect_statistics`` (always 0 untraced), so the statistics pass
    that CREATE INDEX runs is booked to ``catalog`` and not to the build.
    """
    columns = ", ".join(f"{column.name} INTEGER" for column in spec.columns)
    if spec.pad_bytes:
        columns += f", PAD VARCHAR({spec.pad_bytes})"
    start = perf_counter()
    db.execute(f"CREATE TABLE {spec.name} ({columns})")
    with db.storage.atomic():
        load_rows(db, spec.name, rows)
    loaded = perf_counter()
    stats_before = stats_clock()
    for index in spec.indexes:
        unique = "UNIQUE " if index.unique else ""
        db.execute(
            f"CREATE {unique}INDEX {index.name} ON {spec.name} "
            f"({', '.join(index.columns)})"
        )
    stats_inside = stats_clock() - stats_before
    times.rows += len(rows)
    times.load_s += loaded - start
    times.index_s += perf_counter() - loaded - stats_inside
    times.stats_s += stats_inside
    times.user_bytes += len(rows) * (
        8 * len(spec.columns) + (2 + spec.pad_bytes if spec.pad_bytes else 0)
    )


def update_statistics(db: Database, times: SetupTimes) -> None:
    start = perf_counter()
    db.execute("UPDATE STATISTICS")
    times.stats_s += perf_counter() - start


def shuffled(items: list, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


class Workload:
    """Common shape of a workload; subclasses fill in data and statements."""

    name = ""
    #: One line for ``BENCHMARK.json`` and the README.
    why = ""
    clients = 1
    #: Which public API the clients drive.
    api = "Database.session()"
    #: When writes reach the disk; stated in the output with the results.
    flush_policy = "none (in memory)"

    def __init__(self, seed: int, quick: bool, threads: int, scratch: str):
        self.seed = seed
        self.quick = quick
        self.threads = threads
        self.scratch = scratch
        self.times = SetupTimes()
        self._statements: list[Statement] | None = None

    def rng(self, *stream: object) -> random.Random:
        """An independent seeded stream (string seeds hash deterministically)."""
        return random.Random(f"{self.name}/{self.seed}/{stream}")

    def scale(self, full: int, quick: int) -> int:
        return quick if self.quick else full

    # -- set-up (timed) ---------------------------------------------------------

    def build(self, stats_clock: Callable[[], float]) -> list[Database]:
        """Create, load, index and analyse the database(s); timed as set-up."""
        raise NotImplementedError

    def discard(self, dbs: list[Database]) -> None:
        """Throw a set-up away (set-up is repeated to take a median)."""
        for db in dbs:
            db.close()

    # -- statements (untimed) -----------------------------------------------------

    def connect(self, dbs: list[Database], client: int) -> list:
        """One handle per database with ``execute_statement``, for one client."""
        return [db.session(f"client-{client}") for db in dbs]

    def pass_statements(self, client: int, pass_no: int) -> list[Statement]:
        """The statements of one pass; called in pass order for each client.

        By default every pass of the single client is the same list,
        generated once.
        """
        if self._statements is None:
            self._statements = self._generate()
        return self._statements

    def _generate(self) -> list[Statement]:
        raise NotImplementedError

    def warmup(self, client: int) -> list[Statement]:
        """One statement per distinct shape, run untimed before measuring."""
        seen: dict[tuple, Statement] = {}
        for statement in self.pass_statements(client, 0):
            seen.setdefault((statement.db, statement.shape), statement)
        return list(seen.values())

    def precheck(self, dbs: list[Database]) -> tuple[int, int]:
        """Extra correctness checks before measuring: (attempted, failed)."""
        return 0, 0

    def audit(self, dbs: list[Database], acknowledged: list[tuple]) -> tuple[int, int]:
        """End-of-run checks of stored state; closes ``dbs``: (attempted, failed)."""
        self.discard(dbs)
        return 0, 0

    def file_bytes(self) -> int:
        """Bytes the database occupies on disk (0 for in-memory workloads)."""
        return 0


# -- point_read -------------------------------------------------------------------


class PointRead(Workload):
    name = "point_read"
    why = (
        "cached single-row lookups: parse, plan and session overhead dominate, "
        "so plan caching and cheaper pins show here and executor work does not"
    )

    def __init__(self, *args):
        super().__init__(*args)
        rows = self.scale(20000, 2000)
        self.spec = TableSpec(
            "ACCT",
            rows,
            [
                ColumnSpec("ID", rows, sequential=True),
                ColumnSpec("BRANCH", rows // 100),
                ColumnSpec("BAL", 10000),
                ColumnSpec("OPENED", 3650),
            ],
            [
                IndexSpec("ACCT_ID", ["ID"], unique=True),
                IndexSpec("ACCT_BRANCH", ["BRANCH"]),
            ],
            pad_bytes=40,
        )
        self.rows = generate_rows(self.spec, self.rng("rows"))

    def build(self, stats_clock):
        # 1024 buffer pages hold ACCT (400 pages) and both indexes (680 in all).
        db = Database(buffer_pages=1024)
        load_table(db, self.spec, self.rows, self.times, stats_clock)
        update_statistics(db, self.times)
        return [db]

    def _generate(self) -> list[Statement]:
        rng = self.rng("statements")
        ref = reference.PointReadRef(self.rows)
        count = self.scale(4000, 400)
        rows = self.spec.rows
        # Zipf(0.99) over a seeded permutation of the keys: some statement
        # texts repeat verbatim, most differ only in the literal.
        keys = shuffled(range(rows), rng)
        weights = [1.0 / rank**0.99 for rank in range(1, rows + 1)]
        points = iter(rng.choices(keys, weights=weights, k=count))
        branches = self.spec.column("BRANCH").distinct
        statements = []
        for number in range(count):
            if number % 10 == 9:
                branch = rng.randrange(branches)
                below = 2000 + 500 * (number // 10 % 9)
                statements.append(
                    Statement(
                        f"SELECT ID, BAL FROM ACCT WHERE BRANCH = {branch} "
                        f"AND BAL < {below}",
                        "read",
                        "branch_range",
                        ref.by_branch(branch, below),
                    )
                )
            else:
                key = next(points)
                statements.append(
                    Statement(
                        f"SELECT BAL, BRANCH FROM ACCT WHERE ID = {key}",
                        "read",
                        "point",
                        ref.by_id(key),
                    )
                )
        return statements


# -- mixed_rw ---------------------------------------------------------------------


class MixedRW(Workload):
    name = "mixed_rw"
    why = (
        "durable reads beside inserts and updates through group commit: a read "
        "gain that taxes commits, or a commit gain that stalls readers, shows"
    )
    flush_policy = "group commit: one fsync + page-table flip per drained batch"

    def __init__(self, *args):
        super().__init__(*args)
        self.clients = self.threads
        rows = self.scale(5000, 1000)
        self.acct = TableSpec(
            "ACCT",
            rows,
            [
                ColumnSpec("ID", rows, sequential=True),
                ColumnSpec("BRANCH", 50),
                ColumnSpec("BAL", 10000),
            ],
            [IndexSpec("ACCT_ID", ["ID"], unique=True)],
            pad_bytes=40,
        )
        self.hist = TableSpec(
            "HIST",
            0,
            [ColumnSpec("HID", 1), ColumnSpec("AID", 1), ColumnSpec("DELTA", 1)],
            [IndexSpec("HIST_AID", ["AID"])],
        )
        self.rows = generate_rows(self.acct, self.rng("rows"))
        self.model = reference.MixedModel(self.rows)
        self.per_pass = self.scale(800, 80)
        self._directory = ""
        self._builds = 0
        self._file_bytes = 0

    def build(self, stats_clock):
        # Durable, every default: 64 buffer pages, group commit on — one
        # fsync and page-table flip per drained batch is the flush policy.
        self._builds += 1
        self._directory = os.path.join(self.scratch, f"mixed_rw-{self._builds}")
        os.makedirs(self._directory)
        db = Database(path=self._path())
        load_table(db, self.acct, self.rows, self.times, stats_clock)
        load_table(db, self.hist, [], self.times, stats_clock)
        update_statistics(db, self.times)
        return [db]

    def _path(self) -> str:
        return os.path.join(self._directory, "bench.pages")

    def discard(self, dbs):
        super().discard(dbs)
        shutil.rmtree(self._directory, ignore_errors=True)

    def warmup(self, client):
        return self._slot_statements(client, 0, 10)

    def pass_statements(self, client, pass_no):
        return self._slot_statements(client, pass_no + 1, self.per_pass)

    def _slot_statements(self, client: int, slot: int, count: int) -> list[Statement]:
        """70 % reads, 20 % inserts, 10 % updates, over this client's accounts.

        ``slot`` numbers the list (0 is the warm-up), which keeps every
        HID unique across clients and passes.
        """
        rng = self.rng("statements", client, slot)
        kinds = shuffled(
            ["read"] * (count * 7 // 10)
            + ["insert"] * (count * 2 // 10)
            + ["update"] * (count - count * 7 // 10 - count * 2 // 10),
            rng,
        )
        own = range(client, self.acct.rows, self.clients)
        first_hid = (slot * self.clients + client) * self.per_pass
        statements = []
        for number, kind in enumerate(kinds):
            key = rng.choice(own)
            delta = rng.randrange(1, 100)
            if kind == "read":
                statement = Statement(
                    f"SELECT BAL FROM ACCT WHERE ID = {key}",
                    "read",
                    "point",
                    self.model.read(key),
                )
            elif kind == "insert":
                hid = first_hid + number
                statement = Statement(
                    f"INSERT INTO HIST VALUES ({hid}, {key}, {delta})",
                    "write",
                    "insert",
                    effect=("insert", hid, key, delta),
                )
            else:
                statement = Statement(
                    f"UPDATE ACCT SET BAL = BAL + {delta} WHERE ID = {key}",
                    "write",
                    "update",
                    effect=("update", key, delta),
                )
            if statement.effect is not None:
                self.model.apply(statement.effect)
            statements.append(statement)
        return statements

    def audit(self, dbs, acknowledged):
        """The stored state against the acknowledged writes, live and reopened."""
        (db,) = dbs
        failed = self.model.audit(db, acknowledged)
        db.close()
        self._file_bytes = sum(
            os.path.getsize(os.path.join(self._directory, name))
            for name in os.listdir(self._directory)
        )
        reopened = Database(path=self._path())
        try:
            failed += self.model.audit(reopened, acknowledged)
        finally:
            reopened.close()
        shutil.rmtree(self._directory, ignore_errors=True)
        return 4, failed

    def file_bytes(self):
        return self._file_bytes


# -- analytic / analytic_parallel --------------------------------------------------


class Analytic(Workload):
    name = "analytic"
    why = (
        "scans, sorts, aggregates and joins over tables larger than the buffer: "
        "executor and storage time dominate, skew and OR/IN expose estimator "
        "and access-path gaps"
    )
    exec_mode: str | None = None

    def __init__(self, *args):
        super().__init__(*args)
        lines = self.scale(16000, 4000)
        orders = lines // 4
        parts = lines // 20
        self.specs = [
            TableSpec(
                "PARTS",
                parts,
                [
                    ColumnSpec("PID", parts, sequential=True),
                    ColumnSpec("CAT", 20),
                    ColumnSpec("PRICE", 1000),
                ],
                [
                    IndexSpec("PARTS_PID", ["PID"], unique=True),
                    IndexSpec("PARTS_CAT", ["CAT"]),
                ],
            ),
            TableSpec(
                "ORD",
                orders,
                [
                    ColumnSpec("OID", orders, sequential=True),
                    ColumnSpec("CUST", orders // 8),
                    ColumnSpec("ODATE", 365),
                    ColumnSpec("STATUS", 3),
                    ColumnSpec("TOTAL", 20000),
                ],
                [
                    IndexSpec("ORD_OID", ["OID"], unique=True),
                    IndexSpec("ORD_CUST", ["CUST"]),
                    IndexSpec("ORD_ODATE", ["ODATE"]),
                ],
            ),
            TableSpec(
                "LINE",
                lines,
                [
                    ColumnSpec("LID", lines, sequential=True),
                    ColumnSpec("OID", orders),
                    # Zipf(1.1): the hottest part holds about a fifth of
                    # the rows, far from the uniform assumption.
                    ColumnSpec("PART", parts, zipf=1.1),
                    ColumnSpec("QTY", 50),
                    ColumnSpec("AMT", 10000),
                ],
                [
                    IndexSpec("LINE_PART", ["PART"]),
                    IndexSpec("LINE_OID", ["OID"]),
                ],
            ),
        ]
        # Named streams shared by both analytic workloads: identical rows
        # and statements, whichever engine runs them.
        rng = random.Random(f"analytic/{self.seed}/rows")
        self.rows = [generate_rows(spec, rng) for spec in self.specs]

    def build(self, stats_clock):
        # Every default: the 64-page buffer is far smaller than LINE.
        db = Database(exec_mode=self.exec_mode, workers=self.workers())
        for spec, rows in zip(self.specs, self.rows):
            load_table(db, spec, rows, self.times, stats_clock)
        update_statistics(db, self.times)
        return [db]

    def workers(self) -> int | None:
        return None

    def _generate(self) -> list[Statement]:
        """106 statements over eleven classes, in a seeded order.

        The class sizes put the median statement inside the band of full
        LINE scans (scan_filter, or_pred, in_list: 44 statements of
        similar cost) and the p90 among the aggregates and small sorts, so
        neither percentile sits on the edge between two classes; no class
        takes more than a quarter of a pass.
        """
        rng = random.Random(f"analytic/{self.seed}/statements")
        ref = reference.AnalyticRef(*self.rows)
        parts, orders, __ = (spec.rows for spec in self.specs)
        custs = self.specs[1].column("CUST").distinct
        every = 1 if not self.quick else 4  # quick keeps one in four

        def grid(values) -> list:
            return shuffled(list(values)[::every], rng)

        statements: list[Statement] = []

        def add(shape: str, sql: str, expected, ordered: bool = False) -> None:
            statements.append(Statement(sql, "read", shape, expected, ordered))

        for qty, step in zip(grid(rng.sample(range(50), 22)), range(22)):
            amt = 2000 + 300 * step
            add(
                "scan_filter",
                f"SELECT LID, AMT FROM LINE WHERE QTY = {qty} AND AMT < {amt}",
                ref.scan_filter(qty, amt),
            )
        for qty in grid(range(5, 45, 5)):
            add(
                "agg_all",
                "SELECT COUNT(*), SUM(AMT), MIN(AMT), MAX(AMT) FROM LINE "
                f"WHERE QTY >= {qty}",
                ref.agg_all(qty),
            )
        for amt in grid([3000, 6000])[: 2 if not self.quick else 1]:
            amt += rng.randrange(100)
            add(
                "group_agg",
                "SELECT PART, COUNT(*), SUM(AMT) FROM LINE "
                f"WHERE AMT < {amt} GROUP BY PART",
                ref.group_agg(amt),
            )
        for qty in grid(range(1, 9)):
            add(
                "sort",
                f"SELECT LID, AMT FROM LINE WHERE QTY < {qty} ORDER BY AMT, LID",
                ref.sort(qty),
                ordered=True,
            )
        for width in grid(range(0, 8)):
            low = rng.randrange(365 - width)
            add(
                "join2",
                "SELECT ORD.OID, ORD.CUST, LINE.AMT FROM ORD, LINE "
                "WHERE ORD.OID = LINE.OID "
                f"AND ORD.ODATE BETWEEN {low} AND {low + width}",
                ref.join2(low, low + width),
            )
        for cat in grid(rng.sample(range(20), 8)):
            cust = rng.randrange(custs)
            add(
                "join3",
                "SELECT ORD.OID, LINE.AMT, PARTS.PRICE FROM ORD, LINE, PARTS "
                "WHERE ORD.OID = LINE.OID AND LINE.PART = PARTS.PID "
                f"AND PARTS.CAT = {cat} AND ORD.CUST = {cust}",
                ref.join3(cat, cust),
            )
        for hot in grid(range(11)):
            # One hot part, one warm, two cold: a four-way index union
            # would touch a few hundred rows; a segment scan reads them all.
            chosen = (
                hot,
                rng.randrange(10, parts // 8),
                rng.randrange(parts // 8, parts),
                rng.randrange(parts // 8, parts),
            )
            add(
                "in_list",
                "SELECT LID, AMT FROM LINE WHERE PART IN "
                f"({', '.join(map(str, chosen))})",
                ref.in_list(chosen),
            )
        for __ in grid(range(11)):
            part = rng.randrange(10, parts)
            oid = rng.randrange(orders)
            add(
                "or_pred",
                f"SELECT LID FROM LINE WHERE PART = {part} OR OID = {oid}",
                ref.or_pred(part, oid),
            )
        for part in grid(range(8)):
            add(
                "skew_eq",
                f"SELECT COUNT(*), SUM(AMT) FROM LINE WHERE PART = {part}",
                ref.skew_eq(part),
            )
        for width in grid(range(10, 40, 3)):
            low = rng.randrange(orders - width)
            add(
                "index_range",
                "SELECT LID, AMT FROM LINE "
                f"WHERE OID BETWEEN {low} AND {low + width}",
                ref.index_range(low, low + width),
            )
        for cust in grid(rng.sample(range(custs), 10)):
            add(
                "subq_corr",
                f"SELECT OID FROM ORD WHERE CUST = {cust} AND TOTAL < "
                "(SELECT SUM(AMT) FROM LINE WHERE LINE.OID = ORD.OID)",
                ref.subq_corr(cust),
            )
        return shuffled(statements, rng)


#: The eleven query classes of the analytic workloads, for per-class metrics.
ANALYTIC_CLASSES = (
    "scan_filter", "agg_all", "group_agg", "sort", "join2", "join3",
    "in_list", "or_pred", "skew_eq", "index_range", "subq_corr",
)


class AnalyticParallel(Analytic):
    name = "analytic_parallel"
    why = (
        "the analytic statements under the parallel engine: a morsel, exchange "
        "or partial-aggregation change moves this and leaves analytic flat"
    )
    exec_mode = "parallel"

    def workers(self):
        return self.threads

    def precheck(self, dbs):
        """Rows and cost counters must equal the serial engine's exactly.

        One statement per class runs from a cold buffer under the serial
        fused engine, then again under the parallel engine on the same
        database; page fetches, RSI calls and buffer hits may not differ
        (the repo's bit-identical-counter invariant).
        """
        (db,) = dbs
        failed = 0
        statements = self.warmup(0)
        for statement in statements:
            observed = []
            for mode in ("fused", "parallel"):
                db.exec_mode = mode
                db.cold_cache()
                rows = db.execute(statement.sql).rows
                observed.append(
                    (reference.expect(rows, statement.ordered), db.counters.snapshot())
                )
            if observed[0] != observed[1]:
                failed += 1
        db.exec_mode = self.exec_mode
        return len(statements), failed


# -- join_search ------------------------------------------------------------------


@dataclass
class _JoinSchema:
    specs: list[TableSpec]
    query: Callable[..., str]
    joins: list[tuple[int, int, int, int]]
    rows: list[list[tuple]] = field(default_factory=list)


def _position(spec: TableSpec, column: str) -> int:
    return [c.name for c in spec.columns].index(column)


class JoinSearch(Workload):
    name = "join_search"
    why = (
        "many-table joins over tiny tables, planned every time: the DP "
        "enumeration dominates, so join-search and statistics-cache work shows "
        "here and executor work does not"
    )
    api = "Database.execute_statement()"

    #: (topology, number of tables); each gets its own small database.
    SHAPES = (
        ("chain", 6), ("chain", 8), ("chain", 10),
        ("star", 6), ("star", 7), ("star", 8),
        ("clique", 5), ("clique", 6),
    )

    def __init__(self, *args):
        super().__init__(*args)
        shapes = self.SHAPES if not self.quick else self.SHAPES[::3]
        # Topology and table sizes are part of the workload's definition,
        # so they come from a fixed stream; the seed varies data and filters.
        shape_rng = random.Random("join_search/shapes")
        data_rng = self.rng("rows")
        self.schemas = []
        for topology, tables in shapes:
            schema = self._schema(topology, tables, shape_rng)
            schema.rows = [generate_rows(spec, data_rng) for spec in schema.specs]
            self.schemas.append(schema)

    @staticmethod
    def _schema(topology: str, tables: int, rng: random.Random) -> _JoinSchema:
        if topology == "chain":
            specs = random_chain_spec(tables, rng, min_rows=20, max_rows=150)
            joins = [
                (i, _position(specs[i], f"J{i + 1}"),
                 i + 1, _position(specs[i + 1], f"J{i + 1}"))
                for i in range(tables - 1)
            ]
            return _JoinSchema(specs, chain_join_query, joins)
        if topology == "star":
            specs = random_star_spec(
                tables - 1, rng, fact_rows=300, min_dim_rows=10, max_dim_rows=75
            )
            joins = [
                (0, _position(specs[0], f"FK{n}"), n, _position(specs[n], "KEY"))
                for n in range(1, tables)
            ]
            return _JoinSchema(specs, star_join_query, joins)
        specs = random_clique_spec(tables, rng, min_rows=20, max_rows=150)
        joins = [
            (i, _position(specs[i], f"C{i + 1}_{j + 1}"),
             j, _position(specs[j], f"C{i + 1}_{j + 1}"))
            for i in range(tables)
            for j in range(i + 1, tables)
        ]
        return _JoinSchema(specs, clique_join_query, joins)

    def build(self, stats_clock):
        dbs = []
        for schema in self.schemas:
            db = Database()
            for spec, rows in zip(schema.specs, schema.rows):
                load_table(db, spec, rows, self.times, stats_clock)
            update_statistics(db, self.times)
            dbs.append(db)
        return dbs

    def connect(self, dbs, client):
        return dbs  # Database.execute_statement: no session, planned every time

    def _generate(self) -> list[Statement]:
        rng = self.rng("statements")
        statements = []
        for number, schema in enumerate(self.schemas):
            filterable = [
                table
                for table, spec in enumerate(schema.specs)
                if any(column.name == "ATTR" for column in spec.columns)
            ]
            for filters in (1, 1, 1, 2, 2, 2, 2)[:: 1 if not self.quick else 3]:
                chosen = []
                for table in rng.sample(filterable, filters):
                    spec = schema.specs[table]
                    attr = _position(spec, "ATTR")
                    # A value some row really has, so most results are non-empty.
                    value = rng.choice(schema.rows[table])[attr]
                    chosen.append((table, attr, value))
                sql = schema.query(
                    schema.specs,
                    [(schema.specs[t].name, "ATTR", v) for t, __, v in chosen],
                )
                statements.append(
                    Statement(
                        sql,
                        "read",
                        f"{len(schema.specs)}-table/{filters}-filter",
                        reference.equi_join(schema.rows, schema.joins, chosen),
                        db=number,
                    )
                )
        return shuffled(statements, rng)


WORKLOADS = {
    cls.name: cls
    for cls in (PointRead, MixedRW, Analytic, AnalyticParallel, JoinSearch)
}
