"""Bound (name-resolved) query structures.

The binder rewrites the parser's AST into trees whose column references are
:class:`BoundColumn` nodes carrying the table, alias, ordinal position, and
datatype, and whose subqueries are :class:`BoundSubquery` nodes holding a
nested :class:`BoundQueryBlock`.  Everything downstream — selectivity, cost,
planning, execution — works on bound trees only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..catalog.schema import TableDef
from ..datatypes import DataType
from ..sql import ast


@dataclass(frozen=True)
class BoundColumn(ast.Expr):
    """A resolved column reference.

    ``block_id`` identifies the query block whose FROM list introduced the
    alias; a reference with a block id different from the block it occurs in
    is a *correlation* reference (Section 6).
    """

    alias: str
    position: int
    column_name: str
    table_name: str
    datatype: DataType
    block_id: int

    def __str__(self) -> str:
        return f"{self.alias}.{self.column_name}"


@dataclass(frozen=True)
class BoundSubquery(ast.Expr):
    """A nested query block used as a predicate operand.

    ``scalar`` distinguishes ``expr op (SELECT ...)`` (single value) from
    ``expr IN (SELECT ...)`` (set of values).
    """

    block: "BoundQueryBlock"
    scalar: bool

    def __str__(self) -> str:
        kind = "scalar" if self.scalar else "set"
        return f"<{kind} subquery #{self.block.block_id}>"


@dataclass(frozen=True)
class AggregateRef(ast.Expr):
    """A reference to the value of aggregate ``index`` of the current block.

    Produced when select-list/HAVING expressions are rewritten after
    aggregation: ``AVG(SAL)`` becomes ``AggregateRef(0)`` once the aggregate
    node computes it.
    """

    index: int

    def __str__(self) -> str:
        return f"<agg {self.index}>"


@dataclass
class BlockTable:
    """One FROM-list entry of a bound block."""

    alias: str
    table: TableDef

    def __str__(self) -> str:
        if self.alias == self.table.name:
            return self.table.name
        return f"{self.table.name} {self.alias}"


@dataclass
class BoundQueryBlock:
    """A name-resolved query block.

    ``correlated_columns`` lists the outer-block columns this block (or any
    block nested inside it) references; a non-empty list makes this a
    correlation subquery that must be re-evaluated per outer candidate tuple.
    """

    block_id: int
    tables: list[BlockTable]
    select_exprs: list[ast.Expr]
    output_names: list[str]
    where: ast.Expr | None
    group_by: list[BoundColumn]
    having: ast.Expr | None
    order_by: list[tuple[BoundColumn, bool]]  # (column, descending)
    distinct: bool
    aggregates: list[ast.FuncCall] = field(default_factory=list)
    correlated_columns: list[BoundColumn] = field(default_factory=list)
    subqueries: list[BoundSubquery] = field(default_factory=list)

    @property
    def is_correlated(self) -> bool:
        """Whether this block references any enclosing block's columns."""
        return bool(self.correlated_columns)

    @property
    def is_aggregate(self) -> bool:
        """Whether this block groups or computes aggregates."""
        return bool(self.aggregates) or bool(self.group_by)

    def alias_table(self, alias: str) -> TableDef:
        """The TableDef behind a FROM-list alias."""
        for entry in self.tables:
            if entry.alias == alias:
                return entry.table
        raise KeyError(alias)

    @property
    def aliases(self) -> list[str]:
        """The block's FROM-list aliases, in order."""
        return [entry.alias for entry in self.tables]

    def __str__(self) -> str:
        tables = ", ".join(str(entry) for entry in self.tables)
        return f"<block #{self.block_id} FROM {tables}>"
