"""Expression evaluation with SQL three-valued logic.

Value expressions evaluate to Python values (or ``None`` for NULL);
predicates evaluate to ``True`` / ``False`` / ``None`` (unknown).  Filters
keep a row only when the predicate is ``True``.

Evaluation environments chain outward: a correlated subquery's scans
evaluate their probe values against the enclosing block's current row by
walking the chain, which is exactly the "candidate tuple of a higher level
query block" mechanism of Section 6.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..datatypes import compare_values
from ..errors import ExecutionError
from ..rss.sargs import CompareOp
from ..sql import ast
from ..optimizer.bound import AggregateRef, BoundColumn, BoundSubquery
from .rows import AGGREGATE_ALIAS, Row


@dataclass
class EvalEnv:
    """A row plus the chain of enclosing rows and the runtime services."""

    row: Row
    runtime: object  # duck-typed: scalar_subquery_value / in_subquery_set
    outer: "EvalEnv | None" = None

    def lookup(self, alias: str) -> tuple | None:
        """Find an alias's tuple in this row or any enclosing row."""
        env: EvalEnv | None = self
        while env is not None:
            if alias in env.row.values:
                return env.row.values[alias]
            env = env.outer
        return None

    def child(self, row: Row) -> "EvalEnv":
        """A sibling environment for another row at the same nesting depth."""
        return EvalEnv(row=row, runtime=self.runtime, outer=self.outer)


def evaluate(expr: ast.Expr, env: EvalEnv) -> object:
    """Evaluate a bound expression; predicates may return None (unknown)."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, BoundColumn):
        values = env.lookup(expr.alias)
        if values is None:
            raise ExecutionError(f"no row bound for alias {expr.alias!r}")
        return values[expr.position]
    if isinstance(expr, AggregateRef):
        aggregates = env.lookup(AGGREGATE_ALIAS)
        if aggregates is None:
            raise ExecutionError("aggregate referenced outside aggregation")
        return aggregates[expr.index]
    if isinstance(expr, BoundSubquery):
        return env.runtime.scalar_subquery_value(expr, env)  # type: ignore[attr-defined]
    if isinstance(expr, ast.BinaryOp):
        return _arithmetic(expr, env)
    if isinstance(expr, ast.Negate):
        value = evaluate(expr.operand, env)
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"cannot negate {value!r}")
        return -value
    if isinstance(expr, ast.Comparison):
        return _comparison(expr, env)
    if isinstance(expr, ast.Between):
        return _between(expr, env)
    if isinstance(expr, ast.InList):
        return _in_list(expr, env)
    if isinstance(expr, ast.InSubquery):
        return _in_subquery(expr, env)
    if isinstance(expr, ast.IsNull):
        value = evaluate(expr.operand, env)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, ast.Like):
        return _like(expr, env)
    if isinstance(expr, ast.And):
        return _kleene_and(expr.operands, env)
    if isinstance(expr, ast.Or):
        return _kleene_or(expr.operands, env)
    if isinstance(expr, ast.Not):
        inner = evaluate(expr.operand, env)
        if inner is None:
            return None
        return not inner
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


def predicate_holds(expr: ast.Expr, env: EvalEnv) -> bool:
    """A filter keeps a row only on TRUE; unknown counts as not satisfied."""
    return evaluate(expr, env) is True


# -- helpers ------------------------------------------------------------------


def _arithmetic(expr: ast.BinaryOp, env: EvalEnv) -> object:
    left = evaluate(expr.left, env)
    right = evaluate(expr.right, env)
    if left is None or right is None:
        return None
    for operand in (left, right):
        if not isinstance(operand, (int, float)) or isinstance(operand, bool):
            raise ExecutionError(f"arithmetic on non-numeric value {operand!r}")
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if right == 0:
        raise ExecutionError("division by zero")
    return left / right


def _comparison(expr: ast.Comparison, env: EvalEnv) -> bool | None:
    left = evaluate(expr.left, env)
    right = evaluate(expr.right, env)
    ordering = compare_values(left, right)
    if ordering is None:
        return None
    if expr.op is CompareOp.EQ:
        return ordering == 0
    if expr.op is CompareOp.NE:
        return ordering != 0
    if expr.op is CompareOp.LT:
        return ordering < 0
    if expr.op is CompareOp.LE:
        return ordering <= 0
    if expr.op is CompareOp.GT:
        return ordering > 0
    return ordering >= 0


def _between(expr: ast.Between, env: EvalEnv) -> bool | None:
    operand = evaluate(expr.operand, env)
    low = evaluate(expr.low, env)
    high = evaluate(expr.high, env)
    lower = compare_values(operand, low)
    upper = compare_values(operand, high)
    if lower is None or upper is None:
        return None
    return lower >= 0 and upper <= 0


def _in_list(expr: ast.InList, env: EvalEnv) -> bool | None:
    operand = evaluate(expr.operand, env)
    if operand is None:
        return None
    saw_null = False
    for literal in expr.values:
        value = evaluate(literal, env)
        ordering = compare_values(operand, value)
        if ordering is None:
            saw_null = True
        elif ordering == 0:
            return True
    return None if saw_null else False


def _in_subquery(expr: ast.InSubquery, env: EvalEnv) -> bool | None:
    operand = evaluate(expr.operand, env)
    if operand is None:
        return None
    subquery = expr.subquery
    assert isinstance(subquery, BoundSubquery)
    values, saw_null = env.runtime.in_subquery_set(subquery, env)  # type: ignore[attr-defined]
    if operand in values:
        return True
    # Integers and floats compare equal across types, but hash-based lookup
    # already handles that (hash(1) == hash(1.0) in Python).
    return None if saw_null else False


def like_regex(like_pattern: str) -> re.Pattern[str]:
    """The compiled regex for a LIKE pattern (``%`` → ``.*``, ``_`` → ``.``).

    Pure on purpose: an earlier module-level memo dict here was written
    from inside plan compilation, which concurrent client sessions run
    on several threads at once.  The compiled path already calls this once per
    plan (``engine/compile.py``), and the interpreter path rides
    ``re.compile``'s internal cache, so the memo bought nothing.
    """
    regex_parts: list[str] = []
    for char in like_pattern:
        if char == "%":
            regex_parts.append(".*")
        elif char == "_":
            regex_parts.append(".")
        else:
            regex_parts.append(re.escape(char))
    return re.compile("^" + "".join(regex_parts) + "$", re.DOTALL)


def _like(expr: ast.Like, env: EvalEnv) -> bool | None:
    operand = evaluate(expr.operand, env)
    if operand is None:
        return None
    if not isinstance(operand, str):
        raise ExecutionError("LIKE requires a string operand")
    matched = like_regex(expr.pattern).match(operand) is not None
    return (not matched) if expr.negated else matched


def _kleene_and(operands: tuple[ast.Expr, ...], env: EvalEnv) -> bool | None:
    saw_unknown = False
    for operand in operands:
        value = evaluate(operand, env)
        if value is False:
            return False
        if value is None:
            saw_unknown = True
    return None if saw_unknown else True


def _kleene_or(operands: tuple[ast.Expr, ...], env: EvalEnv) -> bool | None:
    saw_unknown = False
    for operand in operands:
        value = evaluate(operand, env)
        if value is True:
            return True
        if value is None:
            saw_unknown = True
    return None if saw_unknown else False
