"""Selectivity factors — a faithful transcription of TABLE 1.

Each boolean factor gets a selectivity factor F, "the expected fraction of
tuples which will satisfy the predicate".  Statistics come from the catalog
(ICARD of an index on the column, high/low key values); when they are
missing, the paper's arbitrary defaults apply — chosen only so that
equality guesses are more selective than range guesses, which stay below
one half.
"""

from __future__ import annotations

from ..catalog.catalog import Catalog
from ..rss.sargs import CompareOp
from ..sql import ast
from .bound import BoundColumn, BoundQueryBlock, BoundSubquery
from .predicates import BooleanFactor

# TABLE 1's arbitrary defaults.
DEFAULT_EQ = 1.0 / 10.0
DEFAULT_RANGE = 1.0 / 3.0
DEFAULT_BETWEEN = 1.0 / 4.0
IN_LIST_CAP = 1.0 / 2.0
# Predicates the paper does not tabulate (LIKE, IS NULL); documented choice.
DEFAULT_OTHER = 1.0 / 10.0
# "Lack of statistics implies that the relation is small."
SMALL_NCARD = 10
SMALL_TCARD = 1


class SelectivityEstimator:
    """Computes F for boolean factors, and QCARD / RSICARD for blocks.

    Lookups are memoized: per-factor F values, per-block QCARDs, and the
    index-derived ICARD / key-range statistics behind them.  Every cache
    is stamped with :attr:`Catalog.version` and dropped wholesale when the
    catalog changes, so ``UPDATE STATISTICS`` (or any DDL) is visible to
    the very next estimate even on a long-lived estimator.
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._version = catalog.version
        # id() keys hold the keyed object in the value, pinning it alive
        # so the id cannot be recycled while the cache entry exists.
        self._factor_cache: dict[int, tuple[BooleanFactor, float]] = {}
        self._qcard_cache: dict[int, tuple[BoundQueryBlock, tuple[int, ...], float]] = {}
        self._icard_cache: dict[tuple[str, str], int | None] = {}
        self._key_range_cache: dict[tuple[str, str], tuple[float, float] | None] = {}

    def _validate_caches(self) -> None:
        version = self._catalog.version
        if version != self._version:
            self._version = version
            self._factor_cache.clear()
            self._qcard_cache.clear()
            self._icard_cache.clear()
            self._key_range_cache.clear()

    # -- public API -------------------------------------------------------------

    def factor_selectivity(self, factor: BooleanFactor) -> float:
        """F for one boolean factor (TABLE 1)."""
        self._validate_caches()
        cached = self._factor_cache.get(id(factor))
        if cached is None:
            cached = self._factor_cache[id(factor)] = (
                factor,
                self.expr_selectivity(factor.expr),
            )
        return cached[1]

    def expr_selectivity(self, expr: ast.Expr) -> float:
        """F for an arbitrary bound predicate expression."""
        if isinstance(expr, ast.And):
            result = 1.0
            for operand in expr.operands:
                result *= self.expr_selectivity(operand)
            return result
        if isinstance(expr, ast.Or):
            result = 0.0
            for operand in expr.operands:
                f = self.expr_selectivity(operand)
                result = result + f - result * f
            return result
        if isinstance(expr, ast.Not):
            return 1.0 - self.expr_selectivity(expr.operand)
        if isinstance(expr, ast.Comparison):
            return self._comparison(expr)
        if isinstance(expr, ast.Between):
            return self._between(expr)
        if isinstance(expr, ast.InList):
            return self._in_list(expr)
        if isinstance(expr, ast.InSubquery):
            return self._in_subquery(expr)
        if isinstance(expr, (ast.Like, ast.IsNull)):
            return 1.0 - DEFAULT_OTHER if expr.negated else DEFAULT_OTHER
        return DEFAULT_RANGE  # opaque predicate: a guess below one half

    def relation_cardinality(self, table_name: str) -> int:
        """NCARD with the small-relation default."""
        stats = self._catalog.relation_stats(table_name)
        return stats.ncard if stats is not None else SMALL_NCARD

    def block_qcard(self, block: BoundQueryBlock, factors: list[BooleanFactor]) -> float:
        """QCARD: product of FROM cardinalities times all factor F's."""
        self._validate_caches()
        factor_ids = tuple(id(factor) for factor in factors)
        cached = self._qcard_cache.get(id(block))
        if cached is not None and cached[1] == factor_ids:
            return cached[2]
        qcard = 1.0
        for entry in block.tables:
            qcard *= self.relation_cardinality(entry.table.name)
        for factor in factors:
            qcard *= self.factor_selectivity(factor)
        self._qcard_cache[id(block)] = (block, factor_ids, qcard)
        return qcard

    def block_output_cardinality(
        self, block: BoundQueryBlock, factors: list[BooleanFactor]
    ) -> float:
        """Expected rows the block returns, accounting for aggregation."""
        qcard = self.block_qcard(block, factors)
        if block.is_aggregate and not block.group_by:
            return 1.0
        if block.group_by:
            # Expected groups: bounded by the key cardinality of the first
            # grouping column when an index reveals it, and always by the
            # input cardinality itself — every group holds at least one
            # tuple, so a sub-one QCARD cannot produce a full group.
            icard = self._icard(block.group_by[0])
            if icard is not None:
                return min(qcard, float(icard))
            return min(qcard, max(1.0, qcard * DEFAULT_EQ))
        return qcard

    # -- TABLE 1 cases --------------------------------------------------------------

    def _comparison(self, expr: ast.Comparison) -> float:
        left, right = expr.left, expr.right
        # column op column
        if isinstance(left, BoundColumn) and isinstance(right, BoundColumn):
            return self._column_column(left, right, expr.op)
        # column op value (either orientation)
        if isinstance(left, BoundColumn):
            return self._column_value(left, expr.op, right)
        if isinstance(right, BoundColumn):
            return self._column_value(right, expr.op.flipped(), left)
        return _default_for_op(expr.op)

    def _column_column(
        self, left: BoundColumn, right: BoundColumn, op: CompareOp
    ) -> float:
        if op is not CompareOp.EQ:
            return DEFAULT_RANGE if op is not CompareOp.NE else 1.0 - DEFAULT_EQ
        left_icard = self._icard(left)
        right_icard = self._icard(right)
        if left_icard and right_icard:
            return 1.0 / max(left_icard, right_icard)
        if left_icard:
            return 1.0 / left_icard
        if right_icard:
            return 1.0 / right_icard
        return DEFAULT_EQ

    def _column_value(
        self, column: BoundColumn, op: CompareOp, value: ast.Expr
    ) -> float:
        if op is CompareOp.EQ:
            icard = self._icard(column)
            return 1.0 / icard if icard else DEFAULT_EQ
        if op is CompareOp.NE:
            icard = self._icard(column)
            return 1.0 - (1.0 / icard if icard else DEFAULT_EQ)
        # Open-ended comparison: linear interpolation when the column is
        # arithmetic and the value is known at access path selection time.
        known = _literal_number(value)
        key_range = self._key_range(column)
        if (
            known is not None
            and column.datatype.is_arithmetic
            and key_range is not None
        ):
            low, high = key_range
            if high <= low:
                return DEFAULT_RANGE
            if op in (CompareOp.GT, CompareOp.GE):
                fraction = (high - known) / (high - low)
            else:
                fraction = (known - low) / (high - low)
            return min(1.0, max(0.0, fraction))
        return DEFAULT_RANGE

    def _between(self, expr: ast.Between) -> float:
        column = expr.operand
        low_value = _literal_number(expr.low)
        high_value = _literal_number(expr.high)
        if (
            isinstance(column, BoundColumn)
            and column.datatype.is_arithmetic
            and low_value is not None
            and high_value is not None
        ):
            key_range = self._key_range(column)
            if key_range is not None:
                low, high = key_range
                if high > low:
                    fraction = (high_value - low_value) / (high - low)
                    return min(1.0, max(0.0, fraction))
        return DEFAULT_BETWEEN

    def _in_list(self, expr: ast.InList) -> float:
        if isinstance(expr.operand, BoundColumn):
            icard = self._icard(expr.operand)
            per_value = 1.0 / icard if icard else DEFAULT_EQ
        else:
            per_value = DEFAULT_EQ
        return min(IN_LIST_CAP, len(expr.distinct_values()) * per_value)

    def _in_subquery(self, expr: ast.InSubquery) -> float:
        subquery = expr.subquery
        assert isinstance(subquery, BoundSubquery)
        block = subquery.block
        from .predicates import to_cnf_factors

        factors = to_cnf_factors(block.where, block)
        expected = self.block_output_cardinality(block, factors)
        domain = 1.0
        for entry in block.tables:
            domain *= self.relation_cardinality(entry.table.name)
        if domain <= 0:
            return DEFAULT_EQ
        return min(1.0, max(0.0, expected / domain))

    # -- statistics lookups ------------------------------------------------------------

    def column_icard(self, column: BoundColumn) -> int | None:
        """Distinct values of a column, when an index reveals them."""
        return self._icard(column)

    def _icard(self, column: BoundColumn) -> int | None:
        """ICARD of an index whose first key column is ``column``, if any.

        A composite index reports the leading column's own cardinality
        (``prefix_icards[0]``) when collected; the full-key ICARD would
        overstate the column's distinct-value count and poison equality
        selectivities on multi-column indexes.
        """
        self._validate_caches()
        key = (column.table_name, column.column_name)
        if key in self._icard_cache:
            return self._icard_cache[key]
        index = self._catalog.index_on_column(*key)
        icard: int | None = None
        if index is not None:
            stats = self._catalog.index_stats(index.name)
            if stats is not None:
                if stats.prefix_icards and stats.prefix_icards[0] > 0:
                    icard = stats.prefix_icards[0]
                elif stats.icard > 0:
                    icard = stats.icard
        self._icard_cache[key] = icard
        return icard

    def _key_range(self, column: BoundColumn) -> tuple[float, float] | None:
        self._validate_caches()
        key = (column.table_name, column.column_name)
        if key in self._key_range_cache:
            return self._key_range_cache[key]
        result: tuple[float, float] | None = None
        index = self._catalog.index_on_column(*key)
        if index is not None:
            stats = self._catalog.index_stats(index.name)
            if stats is not None:
                low, high = stats.low_key, stats.high_key
                if isinstance(low, (int, float)) and isinstance(high, (int, float)):
                    result = (float(low), float(high))
        self._key_range_cache[key] = result
        return result


def _literal_number(expr: ast.Expr) -> float | None:
    if isinstance(expr, ast.Literal) and isinstance(expr.value, (int, float)):
        return float(expr.value)
    return None


def _default_for_op(op: CompareOp) -> float:
    if op is CompareOp.EQ:
        return DEFAULT_EQ
    if op is CompareOp.NE:
        return 1.0 - DEFAULT_EQ
    return DEFAULT_RANGE
