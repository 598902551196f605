"""Statement execution and nested-query evaluation (Section 6).

The :class:`Runtime` carries the services operators need across blocks:
uncorrelated subqueries are evaluated exactly once and their value (or
value set) cached; correlated subqueries are re-evaluated per referenced
candidate tuple, with the paper's optimization of skipping the
re-evaluation when the referenced value equals the previous one.
``subquery_cache_mode`` chooses between that behaviour (``"prev"``), no
caching (``"none"``), and full memoization (``"memo"``) for the E12
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog.catalog import Catalog
from ..errors import ExecutionError
from ..optimizer.bound import BoundQueryBlock, BoundSubquery
from ..optimizer.plan import DistinctNode, ProjectNode
from ..optimizer.planner import PlannedStatement
from ..rss.storage import StorageEngine
from .evaluator import EvalEnv, evaluate
from .fuse import fused_rows, output_tuples
from .operators import ExecContext, iterate
from .rows import OUTPUT_ALIAS


@dataclass
class QueryResult:
    """Materialized result of a SELECT."""

    columns: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> object:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"expected a single value, got {len(self.rows)} row(s) x "
                f"{len(self.columns)} column(s)"
            )
        return self.rows[0][0]


#: Every execution engine an entry point may select.  ``"parallel"`` is an
#: accepted spelling of ``"fused"``: it runs the fused engine unchanged.
VALID_EXEC_MODES = ("fused", "parallel", "interp")

#: Subquery result caching: previous-binding reuse (§6), none, or a memo.
SUBQUERY_CACHE_MODES = ("prev", "none", "memo")


def resolve_exec_mode(exec_mode: str | None = None) -> str:
    """The execution mode: ``"fused"`` (the default, for ``None``),
    ``"parallel"`` (the same engine), or ``"interp"``.

    Anything else — including a typo — raises a :class:`ValueError`
    naming the valid modes rather than silently falling through to a
    default engine.
    """
    mode = exec_mode or "fused"
    if mode not in VALID_EXEC_MODES:
        raise ValueError(
            f"unknown exec mode {mode!r}; valid modes: "
            + ", ".join(VALID_EXEC_MODES)
        )
    return mode


class Runtime:
    """Cross-block execution services for one statement.

    ``exec_mode`` arrives already resolved (one of
    :data:`VALID_EXEC_MODES`): the :class:`Executor` resolves it once.
    """

    def __init__(
        self,
        storage: StorageEngine,
        catalog: Catalog,
        planned: PlannedStatement,
        subquery_cache_mode: str = "prev",
        exec_mode: str = "fused",
    ):
        if subquery_cache_mode not in SUBQUERY_CACHE_MODES:
            raise ValueError(f"bad subquery_cache_mode {subquery_cache_mode!r}")
        self.interpret = exec_mode == "interp"
        self.storage = storage
        self.catalog = catalog
        self.planned = planned
        self.cache_mode = subquery_cache_mode
        self._scalar_cache: dict[int, object] = {}
        self._set_cache: dict[int, tuple[set, bool]] = {}
        self._prev_scalar: dict[int, tuple[tuple, object]] = {}
        self._prev_set: dict[int, tuple[tuple, tuple[set, bool]]] = {}
        self._memo_scalar: dict[tuple[int, tuple], object] = {}
        self._memo_set: dict[tuple[int, tuple], tuple[set, bool]] = {}
        #: Times each block was actually (re-)evaluated, keyed by block id.
        self.evaluation_counts: dict[int, int] = {}

    # -- evaluator callbacks ----------------------------------------------------

    def scalar_subquery_value(self, subquery: BoundSubquery, env: EvalEnv) -> object:
        """The single value of a scalar subquery (cached per Section 6)."""
        block = subquery.block
        if not block.is_correlated:
            key = id(block)
            if key not in self._scalar_cache:
                self._scalar_cache[key] = self._evaluate_scalar(block, None)
            return self._scalar_cache[key]
        correlation = self._correlation_key(block, env)
        if self.cache_mode == "prev":
            cached = self._prev_scalar.get(id(block))
            if cached is not None and cached[0] == correlation:
                return cached[1]
        elif self.cache_mode == "memo":
            memo_key = (id(block), correlation)
            if memo_key in self._memo_scalar:
                return self._memo_scalar[memo_key]
        value = self._evaluate_scalar(block, env)
        if self.cache_mode == "prev":
            self._prev_scalar[id(block)] = (correlation, value)
        elif self.cache_mode == "memo":
            self._memo_scalar[(id(block), correlation)] = value
        return value

    def in_subquery_set(
        self, subquery: BoundSubquery, env: EvalEnv
    ) -> tuple[set, bool]:
        """The value set of an IN-subquery plus a saw-NULL flag (cached)."""
        block = subquery.block
        if not block.is_correlated:
            key = id(block)
            if key not in self._set_cache:
                self._set_cache[key] = self._evaluate_set(block, None)
            return self._set_cache[key]
        correlation = self._correlation_key(block, env)
        if self.cache_mode == "prev":
            cached = self._prev_set.get(id(block))
            if cached is not None and cached[0] == correlation:
                return cached[1]
        elif self.cache_mode == "memo":
            memo_key = (id(block), correlation)
            if memo_key in self._memo_set:
                return self._memo_set[memo_key]
        result = self._evaluate_set(block, env)
        if self.cache_mode == "prev":
            self._prev_set[id(block)] = (correlation, result)
        elif self.cache_mode == "memo":
            self._memo_set[(id(block), correlation)] = result
        return result

    # -- block evaluation ------------------------------------------------------------

    def _correlation_key(self, block: BoundQueryBlock, env: EvalEnv) -> tuple:
        return tuple(evaluate(column, env) for column in block.correlated_columns)

    def _block_values(
        self, block: BoundQueryBlock, env: EvalEnv | None
    ) -> list[object]:
        planned = self.planned.subquery_plans.get(id(block))
        if planned is None:
            raise ExecutionError(f"no plan for nested block #{block.block_id}")
        self.evaluation_counts[block.block_id] = (
            self.evaluation_counts.get(block.block_id, 0) + 1
        )
        ctx = _context_for(self, planned)
        if ctx.interpret:
            return [
                row.values[OUTPUT_ALIAS][0]
                for row in iterate(planned.root, ctx, outer=env)
            ]
        return [
            values[0] for values in output_tuples(planned.root, ctx, outer=env)
        ]

    def _evaluate_scalar(self, block: BoundQueryBlock, env: EvalEnv | None) -> object:
        values = self._block_values(block, env)
        if not values:
            return None
        if len(values) > 1:
            raise ExecutionError(
                f"scalar subquery returned {len(values)} rows"
            )
        return values[0]

    def _evaluate_set(
        self, block: BoundQueryBlock, env: EvalEnv | None
    ) -> tuple[set, bool]:
        values = self._block_values(block, env)
        result = {value for value in values if value is not None}
        saw_null = any(value is None for value in values)
        return result, saw_null


def _context_for(runtime: Runtime, planned: PlannedStatement) -> ExecContext:
    schemas = {
        entry.alias: [column.datatype for column in entry.table.columns]
        for entry in planned.block.tables
    }
    return ExecContext(
        runtime=runtime,
        schemas=schemas,
        interpret=runtime.interpret,
    )


class Executor:
    """Runs planned statements against a storage engine."""

    def __init__(
        self,
        storage: StorageEngine,
        catalog: Catalog,
        subquery_cache_mode: str = "prev",
        exec_mode: str | None = None,
    ):
        self._storage = storage
        self._catalog = catalog
        self._cache_mode = subquery_cache_mode
        self._exec_mode = resolve_exec_mode(exec_mode)
        self.last_runtime: Runtime | None = None

    def execute(self, planned: PlannedStatement) -> QueryResult:
        """Run a planned SELECT to completion."""
        runtime = Runtime(
            self._storage, self._catalog, planned, self._cache_mode,
            exec_mode=self._exec_mode,
        )
        self.last_runtime = runtime
        ctx = _context_for(runtime, planned)
        if ctx.interpret:
            rows = [
                row.values[OUTPUT_ALIAS]
                for row in iterate(planned.root, ctx, outer=None)
            ]
        else:
            rows = list(output_tuples(planned.root, ctx))
        return QueryResult(columns=list(planned.output_names), rows=rows)

    def execute_rows(self, planned: PlannedStatement):
        """Yield pre-projection rows (with TIDs) — used by UPDATE/DELETE."""
        runtime = Runtime(
            self._storage, self._catalog, planned, self._cache_mode,
            exec_mode=self._exec_mode,
        )
        self.last_runtime = runtime
        node = planned.root
        while isinstance(node, (ProjectNode, DistinctNode)):
            node = node.child
        ctx = _context_for(runtime, planned)
        if ctx.interpret:
            return iterate(node, ctx, outer=None)
        return fused_rows(node, ctx)
