"""Name resolution and semantic checking (the OPTIMIZER's first phase).

The binder looks FROM-list tables up in the catalog, resolves every column
reference (searching the current block first, then enclosing blocks — an
outer hit makes the reference a correlation), rewrites subqueries into
nested bound blocks, collects aggregates, and type-checks comparisons.
"""

from __future__ import annotations

from ..catalog.catalog import Catalog
from ..datatypes import DataType, TypeKind, INTEGER, FLOAT
from ..errors import SemanticError
from ..sql import ast
from .bound import (
    AggregateRef,
    BlockTable,
    BoundColumn,
    BoundQueryBlock,
    BoundSubquery,
)


class _Scope:
    """One query block's name space during binding."""

    def __init__(self, block_id: int, tables: list[BlockTable]):
        self.block_id = block_id
        self.tables = tables
        self.by_alias = {entry.alias: entry for entry in tables}

    def resolve(self, ref: ast.ColumnRef) -> BoundColumn | None:
        """Resolve a column reference in this scope; None when absent."""
        if ref.qualifier is not None:
            entry = self.by_alias.get(ref.qualifier)
            if entry is None or not entry.table.has_column(ref.name):
                return None
            return self._bind(entry, ref.name)
        matches = [
            entry for entry in self.tables if entry.table.has_column(ref.name)
        ]
        if not matches:
            return None
        if len(matches) > 1:
            raise SemanticError(f"ambiguous column reference {ref.name!r}")
        return self._bind(matches[0], ref.name)

    def _bind(self, entry: BlockTable, column_name: str) -> BoundColumn:
        position = entry.table.column_position(column_name)
        return BoundColumn(
            alias=entry.alias,
            position=position,
            column_name=column_name,
            table_name=entry.table.name,
            datatype=entry.table.columns[position].datatype,
            block_id=self.block_id,
        )


class Binder:
    """Binds SELECT statements against a catalog."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._next_block_id = 1

    def bind(self, query: ast.SelectQuery) -> BoundQueryBlock:
        """Bind a parsed SELECT into a BoundQueryBlock tree."""
        return self._bind_block(query, outer_scopes=[])

    # -- block binding --------------------------------------------------------

    def _bind_block(
        self, query: ast.SelectQuery, outer_scopes: list[_Scope]
    ) -> BoundQueryBlock:
        block_id = self._next_block_id
        self._next_block_id += 1
        tables: list[BlockTable] = []
        seen_aliases: set[str] = set()
        for ref in query.from_tables:
            if ref.alias in seen_aliases:
                raise SemanticError(f"duplicate alias {ref.alias!r} in FROM list")
            seen_aliases.add(ref.alias)
            tables.append(BlockTable(ref.alias, self._catalog.table(ref.table_name)))
        scope = _Scope(block_id, tables)
        scopes = [scope] + outer_scopes

        state = _BlockState(block_id)

        where = (
            self._bind_expr(query.where, scopes, state, allow_aggregates=False)
            if query.where is not None
            else None
        )
        group_by = [
            self._bind_column(column, scopes, state) for column in query.group_by
        ]

        select_exprs: list[ast.Expr] = []
        output_names: list[str] = []
        if query.is_star:
            for entry in tables:
                for position, column in enumerate(entry.table.columns):
                    select_exprs.append(
                        BoundColumn(
                            alias=entry.alias,
                            position=position,
                            column_name=column.name,
                            table_name=entry.table.name,
                            datatype=column.datatype,
                            block_id=block_id,
                        )
                    )
                    output_names.append(column.name)
        else:
            for item in query.select_items:
                bound = self._bind_expr(
                    item.expr, scopes, state, allow_aggregates=True
                )
                select_exprs.append(bound)
                output_names.append(item.alias or _default_name(item.expr))

        having = (
            self._bind_expr(query.having, scopes, state, allow_aggregates=True)
            if query.having is not None
            else None
        )
        order_by = [
            (self._bind_column(item.column, scopes, state), item.descending)
            for item in query.order_by
        ]

        block = BoundQueryBlock(
            block_id=block_id,
            tables=tables,
            select_exprs=select_exprs,
            output_names=output_names,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            distinct=query.distinct,
            aggregates=state.aggregates,
            correlated_columns=state.correlated_columns,
            subqueries=state.subqueries,
        )
        self._check_aggregation_rules(block)
        return block

    # -- expression binding --------------------------------------------------------

    def _bind_expr(
        self,
        expr: ast.Expr,
        scopes: list[_Scope],
        state: "_BlockState",
        allow_aggregates: bool,
    ) -> ast.Expr:
        if isinstance(expr, ast.Literal):
            return expr
        if isinstance(expr, ast.ColumnRef):
            return self._resolve(expr, scopes, state)
        if isinstance(expr, ast.BinaryOp):
            left = self._bind_expr(expr.left, scopes, state, allow_aggregates)
            right = self._bind_expr(expr.right, scopes, state, allow_aggregates)
            for side in (left, right):
                kind = _expr_type(side)
                if kind is not None and not kind.is_arithmetic:
                    raise SemanticError(
                        f"arithmetic on non-arithmetic operand {side}"
                    )
            return ast.BinaryOp(expr.op, left, right)
        if isinstance(expr, ast.Negate):
            operand = self._bind_expr(expr.operand, scopes, state, allow_aggregates)
            return ast.Negate(operand)
        if isinstance(expr, ast.FuncCall):
            if not allow_aggregates:
                raise SemanticError(
                    f"aggregate {expr.name} not allowed in this clause"
                )
            return self._bind_aggregate(expr, scopes, state)
        if isinstance(expr, ast.Comparison):
            left = self._bind_expr(expr.left, scopes, state, allow_aggregates)
            right = self._bind_expr(expr.right, scopes, state, allow_aggregates)
            _check_comparable(left, right)
            return ast.Comparison(expr.op, left, right)
        if isinstance(expr, ast.Between):
            operand = self._bind_expr(expr.operand, scopes, state, allow_aggregates)
            low = self._bind_expr(expr.low, scopes, state, allow_aggregates)
            high = self._bind_expr(expr.high, scopes, state, allow_aggregates)
            _check_comparable(operand, low)
            _check_comparable(operand, high)
            return ast.Between(operand, low, high)
        if isinstance(expr, ast.InList):
            operand = self._bind_expr(expr.operand, scopes, state, allow_aggregates)
            for literal in expr.values:
                _check_comparable(operand, literal)
            return ast.InList(operand, expr.values)
        if isinstance(expr, ast.InSubquery):
            operand = self._bind_expr(expr.operand, scopes, state, allow_aggregates)
            subquery = self._bind_subquery(expr.subquery, scopes, state, scalar=False)
            return ast.InSubquery(operand, subquery)  # type: ignore[arg-type]
        if isinstance(expr, ast.ScalarSubquery):
            return self._bind_subquery(expr.subquery, scopes, state, scalar=True)
        if isinstance(expr, ast.IsNull):
            operand = self._bind_expr(expr.operand, scopes, state, allow_aggregates)
            return ast.IsNull(operand, expr.negated)
        if isinstance(expr, ast.Like):
            operand = self._bind_expr(expr.operand, scopes, state, allow_aggregates)
            kind = _expr_type(operand)
            if kind is not None and kind.kind is not TypeKind.VARCHAR:
                raise SemanticError("LIKE requires a string operand")
            return ast.Like(operand, expr.pattern, expr.negated)
        if isinstance(expr, ast.And):
            return ast.And(
                tuple(
                    self._bind_expr(op, scopes, state, allow_aggregates)
                    for op in expr.operands
                )
            )
        if isinstance(expr, ast.Or):
            return ast.Or(
                tuple(
                    self._bind_expr(op, scopes, state, allow_aggregates)
                    for op in expr.operands
                )
            )
        if isinstance(expr, ast.Not):
            return ast.Not(self._bind_expr(expr.operand, scopes, state, allow_aggregates))
        raise SemanticError(f"cannot bind expression {expr!r}")

    def _bind_aggregate(
        self, call: ast.FuncCall, scopes: list[_Scope], state: "_BlockState"
    ) -> AggregateRef:
        argument = None
        if call.argument is not None:
            argument = self._bind_expr(
                call.argument, scopes, state, allow_aggregates=False
            )
            kind = _expr_type(argument)
            if call.name in ("AVG", "SUM") and kind is not None and not kind.is_arithmetic:
                raise SemanticError(f"{call.name} requires an arithmetic argument")
        bound_call = ast.FuncCall(call.name, argument, call.distinct)
        for index, existing in enumerate(state.aggregates):
            if existing == bound_call:
                return AggregateRef(index)
        state.aggregates.append(bound_call)
        return AggregateRef(len(state.aggregates) - 1)

    def _bind_subquery(
        self,
        query: ast.SelectQuery,
        scopes: list[_Scope],
        state: "_BlockState",
        scalar: bool,
    ) -> BoundSubquery:
        block = self._bind_block(query, outer_scopes=scopes)
        if len(block.select_exprs) != 1:
            raise SemanticError("subquery must select exactly one expression")
        subquery = BoundSubquery(block, scalar)
        state.subqueries.append(subquery)
        # Correlation to a block at or above the current one propagates: the
        # current block must be re-evaluated when those outer values change.
        for column in block.correlated_columns:
            if column.block_id != state.block_id:
                state.add_correlated(column)
        return subquery

    def _resolve(
        self, ref: ast.ColumnRef, scopes: list[_Scope], state: "_BlockState"
    ) -> BoundColumn:
        for scope in scopes:
            bound = scope.resolve(ref)
            if bound is not None:
                if bound.block_id != state.block_id:
                    state.add_correlated(bound)
                return bound
        raise SemanticError(f"unknown column {ref}")

    def _bind_column(
        self, ref: ast.ColumnRef, scopes: list[_Scope], state: "_BlockState"
    ) -> BoundColumn:
        bound = self._resolve(ref, scopes, state)
        if bound.block_id != state.block_id:
            raise SemanticError(
                f"GROUP BY / ORDER BY column {ref} must belong to this query block"
            )
        return bound

    # -- validation ---------------------------------------------------------------

    def _check_aggregation_rules(self, block: BoundQueryBlock) -> None:
        if not block.is_aggregate:
            if block.having is not None:
                raise SemanticError("HAVING requires GROUP BY or aggregates")
            return
        group_keys = {
            (column.alias, column.position) for column in block.group_by
        }
        for expr in list(block.select_exprs) + (
            [block.having] if block.having is not None else []
        ):
            for column in _plain_columns(expr, block.block_id):
                if (column.alias, column.position) not in group_keys:
                    raise SemanticError(
                        f"column {column} must appear in GROUP BY or inside "
                        "an aggregate"
                    )
        for column, __ in block.order_by:
            if (column.alias, column.position) not in group_keys:
                raise SemanticError(
                    f"ORDER BY column {column} must be a grouping column"
                )


class _BlockState:
    """Mutable accumulation while binding one block."""

    def __init__(self, block_id: int):
        self.block_id = block_id
        self.aggregates: list[ast.FuncCall] = []
        self.correlated_columns: list[BoundColumn] = []
        self.subqueries: list[BoundSubquery] = []

    def add_correlated(self, column: BoundColumn) -> None:
        """Record an outer-block column this block depends on."""
        if column not in self.correlated_columns:
            self.correlated_columns.append(column)


# -- helpers -----------------------------------------------------------------


def _default_name(expr: ast.Expr) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    return str(expr)


def _expr_type(expr: ast.Expr) -> DataType | None:
    """Static type of a bound expression; None when undeterminable."""
    if isinstance(expr, BoundColumn):
        return expr.datatype
    if isinstance(expr, ast.Literal):
        if isinstance(expr.value, bool) or expr.value is None:
            return None
        if isinstance(expr.value, int):
            return INTEGER
        if isinstance(expr.value, float):
            return FLOAT
        return DataType(TypeKind.VARCHAR, max(1, len(str(expr.value))))
    if isinstance(expr, (ast.BinaryOp, ast.Negate)):
        return FLOAT
    if isinstance(expr, AggregateRef):
        return None
    if isinstance(expr, BoundSubquery):
        return _expr_type(expr.block.select_exprs[0])
    return None


def _check_comparable(left: ast.Expr, right: ast.Expr) -> None:
    left_type = _expr_type(left)
    right_type = _expr_type(right)
    if left_type is None or right_type is None:
        return
    if left_type.is_arithmetic != right_type.is_arithmetic:
        raise SemanticError(
            f"type mismatch: cannot compare {left} ({left_type}) "
            f"with {right} ({right_type})"
        )


def _plain_columns(expr: ast.Expr, block_id: int):
    """Yield this block's BoundColumns that are outside aggregate calls."""
    for node in ast.walk_expr(expr):
        if isinstance(node, BoundColumn) and node.block_id == block_id:
            yield node

