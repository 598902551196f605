"""Boolean factors, sargability, and index matching (Sections 3-4).

The WHERE tree is considered in conjunctive normal form; every conjunct is a
*boolean factor* that every result tuple must satisfy.  A factor is
*sargable* when it can be put into the form ``column comparison-operator
value`` (or a DNF of such), in which case the RSS can filter tuples below
the RSI.  An index *matches* a factor when the factor's columns are an
initial substring of the index key, which lets an index scan bound its key
range instead of reading the whole relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..catalog.schema import IndexDef
from ..rss.sargs import CompareOp
from ..sql import ast
from .bound import BoundColumn, BoundQueryBlock, BoundSubquery

# Distributing OR over AND is exponential; past this many conjuncts we keep
# the expression as a single opaque (residual) factor instead.
_CNF_LIMIT = 64


# ---------------------------------------------------------------------------
# sargable forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleSarg:
    """``column op value`` where value is evaluable without this relation.

    ``value`` may be a Literal, an uncorrelated scalar subquery, an outer
    block's column (correlation), or — when a join predicate is turned into
    a probe on the inner relation — a column of an already-joined relation.
    """

    column: BoundColumn
    op: CompareOp
    value: ast.Expr

    def __str__(self) -> str:
        return f"{self.column} {self.op.value} {self.value}"


@dataclass(frozen=True)
class SargExpression:
    """DNF of simple sargable predicates: OR of AND-groups."""

    groups: tuple[tuple[SimpleSarg, ...], ...]

    def __str__(self) -> str:
        rendered = [
            " AND ".join(str(pred) for pred in group) for group in self.groups
        ]
        return " OR ".join(f"({clause})" for clause in rendered)


@dataclass
class BooleanFactor:
    """One conjunct of the CNF WHERE tree, with its analysis attached."""

    expr: ast.Expr
    aliases: frozenset[str]
    sarg: SargExpression | None = None
    join: "JoinPredicate | None" = None
    selectivity: float = 1.0

    @property
    def is_local(self) -> bool:
        """True when at most one relation is referenced."""
        return len(self.aliases) <= 1

    @property
    def is_join_predicate(self) -> bool:
        """True for simple column-op-column factors across relations."""
        return self.join is not None

    def __str__(self) -> str:
        return str(self.expr)


@dataclass(frozen=True)
class JoinPredicate:
    """A factor of the form ``T1.c1 op T2.c2`` relating two relations."""

    left: BoundColumn
    right: BoundColumn
    op: CompareOp

    @property
    def is_equijoin(self) -> bool:
        """True when the join operator is equality."""
        return self.op is CompareOp.EQ

    def column_for(self, alias: str) -> BoundColumn:
        """The side of the predicate belonging to ``alias``."""
        if self.left.alias == alias:
            return self.left
        if self.right.alias == alias:
            return self.right
        raise KeyError(alias)

    def other_column(self, alias: str) -> BoundColumn:
        """The side of the predicate NOT belonging to ``alias``."""
        if self.left.alias == alias:
            return self.right
        if self.right.alias == alias:
            return self.left
        raise KeyError(alias)


# ---------------------------------------------------------------------------
# CNF conversion
# ---------------------------------------------------------------------------


def to_cnf_factors(expr: ast.Expr | None, block: BoundQueryBlock) -> list[BooleanFactor]:
    """Convert a bound WHERE tree into analyzed boolean factors."""
    if expr is None:
        return []
    pushed = _push_not(expr, negate=False)
    conjuncts = _conjuncts(pushed)
    factors = [_analyze_factor(conjunct, block) for conjunct in conjuncts]
    return factors


def _push_not(expr: ast.Expr, negate: bool) -> ast.Expr:
    """Push NOT down to atoms (De Morgan), negating comparisons in place."""
    if isinstance(expr, ast.Not):
        return _push_not(expr.operand, not negate)
    if isinstance(expr, ast.And):
        operands = tuple(_push_not(op, negate) for op in expr.operands)
        return ast.Or(operands) if negate else ast.And(operands)
    if isinstance(expr, ast.Or):
        operands = tuple(_push_not(op, negate) for op in expr.operands)
        return ast.And(operands) if negate else ast.Or(operands)
    if not negate:
        return expr
    if isinstance(expr, ast.Comparison):
        return ast.Comparison(expr.op.negated(), expr.left, expr.right)
    if isinstance(expr, ast.Between):
        # NOT (x BETWEEN a AND b)  ==  x < a OR x > b
        return ast.Or(
            (
                ast.Comparison(CompareOp.LT, expr.operand, expr.low),
                ast.Comparison(CompareOp.GT, expr.operand, expr.high),
            )
        )
    if isinstance(expr, ast.InList):
        conjuncts = tuple(
            ast.Comparison(CompareOp.NE, expr.operand, value)
            for value in expr.values
        )
        return conjuncts[0] if len(conjuncts) == 1 else ast.And(conjuncts)
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(expr.operand, not expr.negated)
    if isinstance(expr, ast.Like):
        return ast.Like(expr.operand, expr.pattern, not expr.negated)
    return ast.Not(expr)


def _conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    """Flatten to CNF conjuncts, distributing OR over AND with a size cap."""
    if isinstance(expr, ast.And):
        result: list[ast.Expr] = []
        for operand in expr.operands:
            result.extend(_conjuncts(operand))
        return result
    if isinstance(expr, ast.Or):
        # CNF of each disjunct, then cross-product of their conjunct sets.
        per_disjunct = [_conjuncts(operand) for operand in expr.operands]
        total = 1
        for conjuncts in per_disjunct:
            total *= len(conjuncts)
            if total > _CNF_LIMIT:
                return [expr]  # too big: keep as one opaque factor
        result = []
        for combo in itertools.product(*per_disjunct):
            flattened: list[ast.Expr] = []
            for part in combo:
                if isinstance(part, ast.Or):
                    flattened.extend(part.operands)
                else:
                    flattened.append(part)
            result.append(
                flattened[0] if len(flattened) == 1 else ast.Or(tuple(flattened))
            )
        return result
    return [expr]


# ---------------------------------------------------------------------------
# factor analysis
# ---------------------------------------------------------------------------


def _analyze_factor(expr: ast.Expr, block: BoundQueryBlock) -> BooleanFactor:
    aliases = frozenset(local_aliases(expr, block.block_id))
    factor = BooleanFactor(expr=expr, aliases=aliases)
    if len(aliases) == 2 and isinstance(expr, ast.Comparison):
        join = _as_join_predicate(expr, block.block_id)
        if join is not None:
            factor.join = join
    if len(aliases) == 1:
        factor.sarg = _as_sarg_expression(expr, next(iter(aliases)), block.block_id)
    return factor


def local_aliases(expr: ast.Expr, block_id: int) -> set[str]:
    """Aliases of *this* block referenced anywhere in the expression."""
    found: set[str] = set()
    for node in ast.walk_expr(expr):
        if isinstance(node, BoundColumn) and node.block_id == block_id:
            found.add(node.alias)
    return found


def _as_join_predicate(expr: ast.Comparison, block_id: int) -> JoinPredicate | None:
    left, right = expr.left, expr.right
    if (
        isinstance(left, BoundColumn)
        and isinstance(right, BoundColumn)
        and left.block_id == block_id
        and right.block_id == block_id
        and left.alias != right.alias
    ):
        return JoinPredicate(left, right, expr.op)
    return None


def _as_sarg_expression(
    expr: ast.Expr, alias: str, block_id: int
) -> SargExpression | None:
    """The DNF sargable form of a single-relation factor, if one exists."""
    groups = _sarg_groups(expr, alias, block_id)
    if groups is None:
        return None
    return SargExpression(tuple(tuple(group) for group in groups))


def _sarg_groups(
    expr: ast.Expr, alias: str, block_id: int
) -> list[list[SimpleSarg]] | None:
    if isinstance(expr, ast.Or):
        groups: list[list[SimpleSarg]] = []
        for operand in expr.operands:
            sub = _sarg_groups(operand, alias, block_id)
            if sub is None:
                return None
            groups.extend(sub)
        return groups
    if isinstance(expr, ast.And):
        # Inside a conjunct this only occurs beneath an OR kept opaque;
        # AND of sargables is a single group (cross product of operands).
        combined: list[list[SimpleSarg]] = [[]]
        for operand in expr.operands:
            sub = _sarg_groups(operand, alias, block_id)
            if sub is None:
                return None
            combined = [
                existing + list(addition)
                for existing in combined
                for addition in sub
            ]
            if len(combined) > _CNF_LIMIT:
                return None
        return combined
    if isinstance(expr, ast.Comparison):
        simple = _as_simple_sarg(expr, alias, block_id)
        return [[simple]] if simple is not None else None
    if isinstance(expr, ast.Between):
        if not _is_local_column(expr.operand, alias, block_id):
            return None
        if not _is_constant_for(expr.low, alias, block_id) or not _is_constant_for(
            expr.high, alias, block_id
        ):
            return None
        column = expr.operand
        assert isinstance(column, BoundColumn)
        return [
            [
                SimpleSarg(column, CompareOp.GE, expr.low),
                SimpleSarg(column, CompareOp.LE, expr.high),
            ]
        ]
    if isinstance(expr, ast.InList):
        if not _is_local_column(expr.operand, alias, block_id):
            return None
        column = expr.operand
        assert isinstance(column, BoundColumn)
        # One group per literal the list can match; a list of NULLs alone
        # keeps one ``= NULL`` group, which rejects every tuple (no groups
        # at all would accept every tuple).
        values = expr.distinct_values() or expr.values[:1]
        return [[SimpleSarg(column, CompareOp.EQ, value)] for value in values]
    return None


def _as_simple_sarg(
    expr: ast.Comparison, alias: str, block_id: int
) -> SimpleSarg | None:
    left, right = expr.left, expr.right
    if _is_local_column(left, alias, block_id) and _is_constant_for(
        right, alias, block_id
    ):
        assert isinstance(left, BoundColumn)
        return SimpleSarg(left, expr.op, right)
    if _is_local_column(right, alias, block_id) and _is_constant_for(
        left, alias, block_id
    ):
        assert isinstance(right, BoundColumn)
        return SimpleSarg(right, expr.op.flipped(), left)
    return None


def _is_local_column(expr: ast.Expr, alias: str, block_id: int) -> bool:
    return (
        isinstance(expr, BoundColumn)
        and expr.alias == alias
        and expr.block_id == block_id
    )


def _is_constant_for(expr: ast.Expr, alias: str, block_id: int) -> bool:
    """True when ``expr`` can be evaluated without tuples of ``alias``.

    Literals always qualify; outer-block columns are bound by the time the
    scan opens; uncorrelated scalar subqueries are evaluated first
    (Section 6).  Any reference to a same-block alias disqualifies — those
    become join predicates or residual filters instead.
    """
    if isinstance(expr, BoundSubquery):
        return expr.scalar and not expr.block.is_correlated
    for node in ast.walk_expr(expr):
        if isinstance(node, BoundColumn) and node.block_id == block_id:
            return False
        if isinstance(node, BoundSubquery):
            if not node.scalar or node.block.is_correlated:
                return False
    return True


# ---------------------------------------------------------------------------
# factor partitioning (shared by the DP search and the baseline planners)
# ---------------------------------------------------------------------------


@dataclass
class FactorPartition:
    """Boolean factors grouped by the role they play in planning."""

    constant: list[BooleanFactor] = field(default_factory=list)
    local: dict[str, list[BooleanFactor]] = field(default_factory=dict)
    joins: list[BooleanFactor] = field(default_factory=list)
    multi: list[BooleanFactor] = field(default_factory=list)


def partition_factors(
    factors: list[BooleanFactor], aliases: list[str]
) -> FactorPartition:
    """Split factors into constant / single-relation / join / multi-relation."""
    partition = FactorPartition(local={alias: [] for alias in aliases})
    for factor in factors:
        if not factor.aliases:
            partition.constant.append(factor)
        elif len(factor.aliases) == 1:
            partition.local[next(iter(factor.aliases))].append(factor)
        elif factor.join is not None:
            partition.joins.append(factor)
        else:
            partition.multi.append(factor)
    return partition


# ---------------------------------------------------------------------------
# join predicates as probe sargs, and index matching
# ---------------------------------------------------------------------------


def join_factor_as_sarg(factor: BooleanFactor, inner_alias: str) -> SimpleSarg | None:
    """Turn a join predicate into a probe SARG on the inner relation.

    During a nested-loop join the outer tuple's value is known, so
    ``INNER.c = OUTER.c`` behaves exactly like ``INNER.c = value``.
    """
    if factor.join is None:
        return None
    join = factor.join
    if join.left.alias == inner_alias:
        return SimpleSarg(join.left, join.op, join.right)
    if join.right.alias == inner_alias:
        return SimpleSarg(join.right, join.op.flipped(), join.left)
    return None


@dataclass
class IndexMatch:
    """The result of matching sargable factors against one index.

    ``equal_prefix`` holds one equality SARG per leading index column;
    ``range_sargs`` hold inequality SARGs on the column right after the
    prefix.  Matched factors bound the key range; everything else stays a
    plain SARG or residual.
    """

    index: IndexDef
    equal_prefix: list[SimpleSarg] = field(default_factory=list)
    range_sargs: list[SimpleSarg] = field(default_factory=list)
    matched_factors: list[BooleanFactor] = field(default_factory=list)

    @property
    def matches_anything(self) -> bool:
        """True when any factor bound the index key range."""
        return bool(self.equal_prefix) or bool(self.range_sargs)

    @property
    def is_unique_equal(self) -> bool:
        """A unique index fully bound by equality predicates: at most 1 row."""
        return self.index.unique and len(self.equal_prefix) == len(
            self.index.column_names
        )


def match_index(
    index: IndexDef, factors: list[BooleanFactor], alias: str
) -> IndexMatch:
    """Match boolean factors against an index (initial-substring rule).

    Only factors whose sargable form is a single AND-group over one column
    can bound the B-tree scan: equality groups extend the prefix, and at
    most one column of range predicates closes it.
    """
    match = IndexMatch(index)
    remaining = list(factors)
    for column_name in index.column_names:
        equal = _find_single_column_factor(
            remaining, alias, column_name, equality=True
        )
        if equal is not None:
            factor, sarg = equal
            match.equal_prefix.append(sarg)
            match.matched_factors.append(factor)
            remaining.remove(factor)
            continue
        ranged = _find_single_column_factor(
            remaining, alias, column_name, equality=False
        )
        if ranged is not None:
            factor, __ = ranged
            group = factor.sarg.groups[0]  # type: ignore[union-attr]
            match.range_sargs.extend(group)
            match.matched_factors.append(factor)
            remaining.remove(factor)
        break  # the initial substring ends at the first non-equal column
    return match


def _find_single_column_factor(
    factors: list[BooleanFactor],
    alias: str,
    column_name: str,
    equality: bool,
) -> tuple[BooleanFactor, SimpleSarg] | None:
    range_ops = (CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE)
    for factor in factors:
        if factor.sarg is None or len(factor.sarg.groups) != 1:
            continue
        group = factor.sarg.groups[0]
        if any(
            pred.column.alias != alias or pred.column.column_name != column_name
            for pred in group
        ):
            continue
        if equality:
            if len(group) == 1 and group[0].op is CompareOp.EQ:
                return factor, group[0]
        else:
            if all(pred.op in range_ops for pred in group):
                return factor, group[0]
    return None
