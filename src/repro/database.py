"""The top-level Database facade: a miniature System R.

``Database`` owns the catalog, the storage engine, the optimizer
configuration, and the executor, and processes SQL statements through the
paper's four phases — parsing, optimization, (interpreted) code generation,
and execution — in one statement pipeline shared with its sessions: a
SELECT reads the last committed version, pinned for the statement (also
from a thread that holds an open ``storage.atomic()`` block), and every
other statement commits through the group-commit coordinator::

    db = Database()
    db.execute("CREATE TABLE EMP (ENO INTEGER, NAME VARCHAR(20), DNO INTEGER)")
    db.execute("CREATE INDEX EMPDNO ON EMP (DNO)")
    db.execute("INSERT INTO EMP VALUES (1, 'SMITH', 50)")
    db.execute("UPDATE STATISTICS")
    result = db.execute("SELECT NAME FROM EMP WHERE DNO = 50")
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace

from .catalog.catalog import Catalog
from .catalog.statistics import collect_statistics
from .engine.evaluator import EvalEnv, evaluate
from .engine.executor import (
    SUBQUERY_CACHE_MODES,
    Executor,
    QueryResult,
    Runtime,
    resolve_exec_mode,
)
from .errors import ExecutionError, SemanticError, StorageError
from .optimizer.cost import DEFAULT_W
from .optimizer.plan import render_plan
from .optimizer.planner import Optimizer, PlannedStatement
from .rss.buffer import DEFAULT_BUFFER_PAGES
from .rss.storage import StorageEngine
from .serving.coordinator import GroupCommitCoordinator
from .serving.locks import DEFAULT_COMMIT_TIMEOUT, RWLatch
from .serving.session import Session, SnapshotStorage
from .sql import ast, parse_statement


@dataclass
class StatementResult:
    """Uniform result for any statement kind."""

    statement_type: str
    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    affected_rows: int = 0
    #: Page-table version this statement's commit landed at (writes only).
    commit_version: int | None = None
    #: Pinned version a session read executed against (reads only).
    snapshot_version: int | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> object:
        """The single value of a one-row, one-column result."""
        return QueryResult(self.columns, self.rows).scalar()


def _check_w(w: float) -> float:
    if not (math.isfinite(w) and w >= 0):
        raise ValueError(f"bad w {w!r}: expected a finite number >= 0")
    return w


def _check_cache_mode(mode: str) -> str:
    if mode not in SUBQUERY_CACHE_MODES:
        raise ValueError(
            f"bad subquery_cache_mode {mode!r}; valid "
            "modes: " + ", ".join(SUBQUERY_CACHE_MODES)
        )
    return mode


def _check_exec_mode(mode: str | None) -> str | None:
    # ``None`` defers to REPRO_EXEC, which must name a mode already.
    resolve_exec_mode(mode)
    return mode


def _check_buffer_pages(pages: int) -> int:
    # The optimizer's buffer-fit tests and merge fan-in read it as a
    # whole number of pages.
    if type(pages) is not int or pages < 1:
        raise ValueError(
            f"bad buffer_pages {pages!r}: expected a positive integer"
        )
    return pages


def _check_workers(workers: int | None) -> int | None:
    if workers is not None and (type(workers) is not int or workers < 1):
        raise ValueError(
            f"bad worker count {workers!r}: expected a positive integer"
        )
    return workers


class Database:
    """An in-process relational database with a Selinger-style optimizer."""

    def __init__(
        self,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        w: float = DEFAULT_W,
        use_heuristic: bool = True,
        use_interesting_orders: bool = True,
        subquery_cache_mode: str = "prev",
        exec_mode: str | None = None,
        workers: int | None = None,
        path: str | None = None,
        commit_timeout: float = DEFAULT_COMMIT_TIMEOUT,
    ):
        # Validated eagerly: a bad setting fails at construction, not at
        # the first SELECT after DDL and INSERTs have already run.  The
        # property setters run the same checks.
        _check_buffer_pages(buffer_pages)
        _check_w(w)
        _check_cache_mode(subquery_cache_mode)
        _check_exec_mode(exec_mode)
        _check_workers(workers)
        #: ``path`` opts into durability: statements commit to a
        #: shadow-paged backing file, and re-opening the same path recovers
        #: the last committed catalog and data.  ``None`` (the default)
        #: keeps everything in memory, with identical cost counters.
        self.catalog = Catalog()
        self.storage = StorageEngine(buffer_pages, path=path)
        if self.storage.recovered_catalog is not None:
            self.catalog = self.storage.recovered_catalog
        self.storage.catalog = self.catalog
        self.w = w
        self.use_heuristic = use_heuristic
        self.use_interesting_orders = use_interesting_orders
        self.subquery_cache_mode = subquery_cache_mode
        self.exec_mode = exec_mode
        self.workers = workers
        #: Override for the planner's §6 correlation-ordering decision;
        #: None derives it from the cache mode.
        self.correlation_ordering: bool | None = None
        #: Schema latch: reads and DML share it, DDL and UPDATE STATISTICS
        #: take it exclusively, so a statement never plans against a
        #: catalog that changes under it.
        self.ddl_latch = RWLatch()
        #: Every write statement — from any session or thread — funnels
        #: through this coordinator: one commit lock, batched page-table
        #: flips, ``DatabaseBusyError`` after ``commit_timeout`` seconds of
        #: contention.
        self._coordinator = GroupCommitCoordinator(
            self.storage, timeout=commit_timeout
        )
        self._close_lock = threading.Lock()
        self._closed = False

    # -- configuration ------------------------------------------------------------

    @property
    def w(self) -> float:
        """The cost formula's RSI-call weight W (finite, >= 0)."""
        return self._w

    @w.setter
    def w(self, value: float) -> None:
        # W >= 0 keeps plan totals monotone along join extensions, which
        # the join search's bound relies on.
        self._w = _check_w(value)

    @property
    def subquery_cache_mode(self) -> str:
        """How nested-block results are reused: one of SUBQUERY_CACHE_MODES."""
        return self._subquery_cache_mode

    @subquery_cache_mode.setter
    def subquery_cache_mode(self, value: str) -> None:
        self._subquery_cache_mode = _check_cache_mode(value)

    @property
    def exec_mode(self) -> str | None:
        """The engine: ``"fused"`` per-batch pipelines, ``"interp"`` the
        reference interpreter, or ``"parallel"``, an accepted spelling of
        ``"fused"``.  ``None`` reads ``REPRO_EXEC`` per statement (default
        fused)."""
        return self._exec_mode

    @exec_mode.setter
    def exec_mode(self, value: str | None) -> None:
        self._exec_mode = _check_exec_mode(value)

    @property
    def workers(self) -> int | None:
        """A positive worker count or ``None``: validated, read by no
        engine (callers that size the ``"parallel"`` spelling keep
        working)."""
        return self._workers

    @workers.setter
    def workers(self, value: int | None) -> None:
        self._workers = _check_workers(value)

    def optimizer(self) -> Optimizer:
        """A fresh optimizer reflecting the current configuration."""
        return Optimizer(
            self.catalog,
            w=self._w,
            buffer_pages=self.storage.buffer.capacity,
            use_heuristic=self.use_heuristic,
            use_interesting_orders=self.use_interesting_orders,
            # Ordering on a correlated reference only pays off when the
            # runtime skips repeated evaluations (§6).
            correlation_ordering=(
                self._subquery_cache_mode in ("prev", "memo")
                if self.correlation_ordering is None
                else self.correlation_ordering
            ),
        )

    def executor(self, storage=None) -> Executor:
        """A fresh executor carrying this database's execution settings.

        ``storage`` defaults to the live engine, which a write statement
        reads its own target rows through inside its batch; a SELECT
        passes the :class:`~repro.serving.session.SnapshotStorage` of its
        pin.
        """
        return Executor(
            self.storage if storage is None else storage,
            self.catalog, self._subquery_cache_mode,
            exec_mode=self._exec_mode,
        )

    @property
    def counters(self):
        """Cost counters (page fetches, RSI calls) for measurements."""
        return self.storage.counters

    def cold_cache(self) -> None:
        """Reset counters and empty the buffer pool before a measurement."""
        self.storage.counters.reset()
        self.storage.cold_cache()

    def close(self) -> None:
        """Release the backing file; the database and its sessions refuse
        every later statement.

        Idempotent: closing an already-closed database is a no-op.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.storage.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- sessions -----------------------------------------------------------

    def session(self, name: str | None = None) -> Session:
        """Open a client session (snapshot-isolated reads, queued writes).

        One session per client thread; close it (or use it as a context
        manager) when the client is done.
        """
        if self._closed:
            raise StorageError("database is closed")
        return Session(self, name)

    # -- statement processing ---------------------------------------------------------

    def execute(self, sql: str) -> StatementResult:
        """Parse, optimize, and execute one SQL statement."""
        statement = parse_statement(sql)
        return self.execute_statement(statement)

    def execute_statement(self, statement: ast.Statement) -> StatementResult:
        """Execute an already-parsed statement."""
        return self._execute(statement)

    #: Statements that take the schema latch exclusively; everything else
    #: (reads and DML) shares it.
    _EXCLUSIVE_STATEMENTS = (
        ast.CreateTableStmt,
        ast.CreateIndexStmt,
        ast.DropTableStmt,
        ast.DropIndexStmt,
        ast.UpdateStatisticsStmt,
    )

    def _execute(self, statement: ast.Statement) -> StatementResult:
        """The one statement pipeline, shared by this class and its sessions.

        A SELECT holds the schema latch shared — the catalog and the
        planner's statistics stay stable for the whole statement — and
        runs against the version it pins; DML proceeds concurrently, since
        page stability comes from the pin, not the latch.  Any other
        statement goes through the group-commit coordinator, its submitter
        holding the latch for the statement's whole trip through the
        queue, so DDL only ever commits alone (its exclusive latch has
        drained every other writer first) and DML batches never contain a
        schema change.
        """
        if self._closed:
            raise StorageError("database is closed")
        if isinstance(statement, ast.SelectQuery):
            with self.ddl_latch.shared():
                version, meta = self.storage.pin_snapshot()
                try:
                    result = self.executor(
                        SnapshotStorage(self.storage, version, meta)
                    ).execute(self.plan_query(statement))
                finally:
                    self.storage.unpin(version)
            return StatementResult(
                statement_type="SELECT",
                columns=result.columns,
                rows=result.rows,
                affected_rows=len(result.rows),
                snapshot_version=version,
            )
        latch = (
            self.ddl_latch.exclusive()
            if isinstance(statement, self._EXCLUSIVE_STATEMENTS)
            else self.ddl_latch.shared()
        )
        with latch:
            result, version = self._coordinator.submit(
                lambda: self._apply_write(statement)
            )
        return replace(result, commit_version=version)

    def _apply_write(self, statement: ast.Statement) -> StatementResult:
        """The statement body run by the group-commit leader (any thread)."""
        if isinstance(statement, ast.CreateTableStmt):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateIndexStmt):
            return self._create_index(statement)
        if isinstance(statement, ast.DropTableStmt):
            return self._drop_table(statement)
        if isinstance(statement, ast.DropIndexStmt):
            return self._drop_index(statement)
        if isinstance(statement, ast.InsertStmt):
            return self._insert(statement)
        if isinstance(statement, ast.UpdateStmt):
            return self._update(statement)
        if isinstance(statement, ast.DeleteStmt):
            return self._delete(statement)
        if isinstance(statement, ast.UpdateStatisticsStmt):
            with self.storage.atomic():
                collect_statistics(
                    self.catalog, self.storage, statement.table_name
                )
            return StatementResult(statement_type="UPDATE STATISTICS")
        raise ExecutionError(f"unsupported statement {statement!r}")

    def query(self, sql: str) -> StatementResult:
        """Alias of :meth:`execute` for read queries."""
        return self.execute(sql)

    def plan(self, sql: str) -> PlannedStatement:
        """Parse and optimize without executing."""
        statement = parse_statement(sql)
        if not isinstance(statement, ast.SelectQuery):
            raise SemanticError("plan() accepts SELECT statements only")
        return self.plan_query(statement)

    def plan_query(self, query: ast.SelectQuery) -> PlannedStatement:
        """Optimize a parsed SELECT under the current configuration."""
        return self.optimizer().plan_query(query)

    def explain(self, sql: str) -> str:
        """Human-readable plan for a SELECT statement."""
        planned = self.plan(sql)
        header = (
            f"estimated cost: {planned.estimated_total():.2f} "
            f"({planned.estimated_cost}) QCARD~{planned.qcard:.1f}"
        )
        return header + "\n" + render_plan(planned.root, w=planned.w)

    def update_statistics(self, table_name: str | None = None) -> None:
        """Programmatic UPDATE STATISTICS (one table, or all)."""
        self._execute(ast.UpdateStatisticsStmt(table_name))

    # -- DDL ----------------------------------------------------------------------------

    def _create_table(self, statement: ast.CreateTableStmt) -> StatementResult:
        table = self.catalog.create_table(
            statement.table_name,
            [(spec.name, spec.datatype) for spec in statement.columns],
            segment_name=statement.segment_name,
        )
        with self.storage.atomic():
            self.storage.ensure_segment(table.segment_name)
        return StatementResult(statement_type="CREATE TABLE")

    def _create_index(self, statement: ast.CreateIndexStmt) -> StatementResult:
        index = self.catalog.create_index(
            statement.index_name,
            statement.table_name,
            list(statement.column_names),
            unique=statement.unique,
            clustered=statement.clustered,
        )
        table = self.catalog.table(statement.table_name)
        try:
            with self.storage.atomic():
                self.storage.create_index(index, table)
                if statement.clustered:
                    self.storage.cluster_table(
                        table, index, self.catalog.indexes_on(table.name)
                    )
                # "Initial relation loading and index creation initialize
                # these statistics" — keep the habit.
                collect_statistics(self.catalog, self.storage, table.name)
        except Exception:
            self.catalog.drop_index(index.name)
            raise
        return StatementResult(statement_type="CREATE INDEX")

    def _drop_table(self, statement: ast.DropTableStmt) -> StatementResult:
        table = self.catalog.table(statement.table_name)
        with self.storage.atomic():
            for index in self.catalog.indexes_on(table.name):
                self.storage.drop_index(index.name)
            with self.storage.suppress_counting():
                for tid, values in list(self.storage._raw_scan(table)):
                    self.storage.segment(table.segment_name).delete(tid)
            self.catalog.drop_table(table.name)
        return StatementResult(statement_type="DROP TABLE")

    def _drop_index(self, statement: ast.DropIndexStmt) -> StatementResult:
        index = self.catalog.drop_index(statement.index_name)
        try:
            with self.storage.atomic():
                self.storage.drop_index(index.name)
        except BaseException:
            self.catalog.add_index(index)
            raise
        return StatementResult(statement_type="DROP INDEX")

    # -- DML ----------------------------------------------------------------------------

    def _insert(self, statement: ast.InsertStmt) -> StatementResult:
        table = self.catalog.table(statement.table_name)
        indexes = self.catalog.indexes_on(table.name)
        if statement.column_names is None:
            positions = list(range(len(table.columns)))
        else:
            positions = table.distinct_positions(statement.column_names, "INSERT")
        if statement.source is not None:
            # INSERT ... SELECT: run the query first, then load its rows
            # (materialized, so inserting into the scanned table is safe).
            source_rows = (
                self.executor().execute(self.plan_query(statement.source)).rows
            )
        else:
            source_rows = [
                tuple(_constant_value(expr) for expr in row_exprs)
                for row_exprs in statement.rows
            ]
        count = 0
        with self.storage.atomic():
            for row in source_rows:
                if len(row) != len(positions):
                    raise SemanticError(
                        f"INSERT supplies {len(row)} values for "
                        f"{len(positions)} columns"
                    )
                values: list[object] = [None] * len(table.columns)
                for position, value in zip(positions, row):
                    values[position] = table.columns[position].datatype.validate(
                        value
                    )
                self.storage.insert(table, indexes, tuple(values))
                count += 1
        return StatementResult(statement_type="INSERT", affected_rows=count)

    def _target_rows(self, table_name: str, where: ast.Expr | None):
        """Plan and run the access to a DML statement's target tuples."""
        query = ast.SelectQuery(
            select_items=(),
            from_tables=(ast.TableRef(table_name.upper(), table_name.upper()),),
            where=where,
        )
        planned = self.plan_query(query)
        return planned, list(self.executor().execute_rows(planned))

    def _update(self, statement: ast.UpdateStmt) -> StatementResult:
        table = self.catalog.table(statement.table_name)
        indexes = self.catalog.indexes_on(table.name)
        positions = table.distinct_positions(
            (column for column, __ in statement.assignments), "SET"
        )
        planned, rows = self._target_rows(statement.table_name, statement.where)
        alias = table.name
        assignments = [
            (position, self._bind_dml_expr(expr, table, alias))
            for position, (__, expr) in zip(positions, statement.assignments)
        ]
        runtime = Runtime(self.storage, self.catalog, planned)
        count = 0
        with self.storage.atomic():
            for row in rows:
                old_values = row.values[alias]
                env = EvalEnv(row=row, runtime=runtime)
                new_values = list(old_values)
                for position, bound in assignments:
                    value = evaluate(bound, env)
                    new_values[position] = table.columns[
                        position
                    ].datatype.validate(value)
                self.storage.update(
                    table, indexes, row.tids[alias], old_values, tuple(new_values)
                )
                count += 1
        return StatementResult(statement_type="UPDATE", affected_rows=count)

    def _delete(self, statement: ast.DeleteStmt) -> StatementResult:
        table = self.catalog.table(statement.table_name)
        indexes = self.catalog.indexes_on(table.name)
        __, rows = self._target_rows(statement.table_name, statement.where)
        alias = table.name
        count = 0
        with self.storage.atomic():
            for row in rows:
                self.storage.delete(
                    table, indexes, row.tids[alias], row.values[alias]
                )
                count += 1
        return StatementResult(statement_type="DELETE", affected_rows=count)

    def _bind_dml_expr(self, expr: ast.Expr, table, alias: str) -> ast.Expr:
        """Bind a SET-clause expression against the target table."""
        from .optimizer.binder import Binder

        binder = Binder(self.catalog)
        pseudo = ast.SelectQuery(
            select_items=(ast.SelectItem(expr, None),),
            from_tables=(ast.TableRef(table.name, alias),),
        )
        block = binder.bind(pseudo)
        return block.select_exprs[0]


def _constant_value(expr: ast.Expr) -> object:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Negate) and isinstance(expr.operand, ast.Literal):
        value = expr.operand.value
        if isinstance(value, (int, float)):
            return -value
    raise SemanticError("INSERT values must be literals")
