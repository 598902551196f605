"""One-time compilation of bound expressions into closure chains.

The reference interpreter (:func:`repro.engine.evaluator.evaluate`) re-walks
the bound AST with ``isinstance`` dispatch for every candidate tuple — the
RSI_CALLS CPU cost the paper's ``W`` term models.  This module hoists all
per-query-constant work out of the per-row loop: each plan node's
expressions are compiled **once** into a chain of plain Python closures
that the operators then call per row.

What the compiler pre-resolves:

- **Column access.**  A :class:`~repro.optimizer.bound.BoundColumn` whose
  alias belongs to the executing block compiles to a direct
  ``env.row.values[alias][position]`` probe; only genuinely correlated
  references (outer-block aliases, Section 6) walk the enclosing
  environment chain.  Uncorrelated queries therefore never pay the
  O(depth) ``EvalEnv.lookup`` walk.
- **Comparison operators.**  Pre-bound at compile time.  When both
  operand types are statically known (column datatypes, literal types)
  the comparison lowers to raw ``<`` orderings with a NULL guard —
  semantically identical to :func:`~repro.datatypes.compare_values`
  three-way comparison, including its treatment of NaN; otherwise the
  reference three-way compare is kept.
- **Constant folding.**  Subtrees built purely from literals evaluate at
  compile time (``10000 / 12`` is one closure returning a constant).
- **CNF factor ordering.**  Conjunctions of *effect-free* boolean factors
  are reordered cheapest-first so a cheap comparison can reject a row
  before an expensive LIKE runs.  Factors containing subqueries are never
  reordered or folded across: a subquery evaluation does real page
  fetches, so its per-row evaluation pattern (and hence the cost
  counters) must match the reference interpreter exactly.

Three-valued logic, NULL handling, and error behaviour on well-typed
queries are preserved exactly; ``tests/test_compiled_eval.py`` gates the
equivalence differentially against ``evaluate()``.  Passing
``interpret=True`` makes every compiled program a thin wrapper over the
reference interpreter, which is how the differential tests and
``exec_mode="interp"`` runs drive both paths through identical operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..datatypes import DataType, TypeKind, compare_values
from ..errors import ExecutionError
from ..rss.sargs import CompareOp
from ..sql import ast
from ..optimizer.bound import AggregateRef, BoundColumn, BoundSubquery
from .evaluator import EvalEnv, evaluate, like_regex
from .rows import AGGREGATE_ALIAS

#: A compiled expression: evaluates one row's environment to a value
#: (predicates return True / False / None for unknown).
EvalFn = Callable[[EvalEnv], object]

#: Rank assigned to any factor containing a subquery; such factors are
#: never reordered (their evaluations move the cost counters).
_SUBQUERY_RANK = 1_000_000

_NUMERIC_TYPES = (int, float)


@dataclass
class Compiled:
    """A compiled expression plus the metadata folding/ordering needs."""

    fn: EvalFn
    const: bool = False
    value: object = None
    rank: int = 1
    #: "num" / "str" when the value's scalar family is statically known.
    static_type: str | None = None



def _const(value: object) -> Compiled:
    def fn(env: EvalEnv, _v: object = value) -> object:
        return _v

    return Compiled(fn=fn, const=True, value=value, rank=0, static_type=_value_type(value))


def _value_type(value: object) -> str | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, _NUMERIC_TYPES):
        return "num"
    if isinstance(value, str):
        return "str"
    return None


def _datatype_family(datatype: DataType) -> str:
    return "num" if datatype.kind in (TypeKind.INTEGER, TypeKind.FLOAT) else "str"


class ExprCompiler:
    """Compiles bound expressions for one query block's execution.

    ``local_aliases`` are the aliases whose tuples live in the executing
    block's own rows; everything else resolves through the outer
    environment chain.  With ``interpret=True`` every compiled program
    defers to the reference interpreter (differential/ablation mode).
    """

    def __init__(self, local_aliases, interpret: bool = False):
        self._local = frozenset(local_aliases)
        self.interpret = interpret

    # -- public API -------------------------------------------------------------

    def expr_fn(self, expr: ast.Expr) -> EvalFn:
        """A closure evaluating ``expr`` against an environment."""
        if self.interpret:
            def fn(env: EvalEnv, _e: ast.Expr = expr) -> object:
                return evaluate(_e, env)

            return fn
        return self._compile(expr).fn

    def truth_fn(self, expr: ast.Expr) -> EvalFn:
        """Like :meth:`expr_fn`; the result is read as a truth value."""
        return self.expr_fn(expr)

    def conjunction(self, predicates) -> Callable[[EvalEnv], bool] | None:
        """One closure deciding whether every predicate holds (is TRUE).

        Returns ``None`` when the conjunction is vacuously true.  Pure
        factors are ordered cheapest-first; conjunctions containing a
        subquery keep the plan's factor order so the per-row subquery
        evaluation pattern (and its cost-counter footprint) is unchanged.
        """
        predicates = list(predicates)
        if not predicates:
            return None
        if self.interpret:
            exprs = tuple(predicates)

            def interp(env: EvalEnv, _exprs=exprs) -> bool:
                for expr in _exprs:
                    if evaluate(expr, env) is not True:
                        return False
                return True

            return interp
        compiled = [self._compile(expr) for expr in predicates]
        if any(c.rank >= _SUBQUERY_RANK for c in compiled):
            fns = tuple(c.fn for c in compiled)
        else:
            compiled.sort(key=lambda c: c.rank)
            if any(c.const and c.value is not True for c in compiled):
                return lambda env: False
            fns = tuple(c.fn for c in compiled if not c.const)
            if not fns:
                return None
        if len(fns) == 1:
            single = fns[0]

            def one(env: EvalEnv, _f: EvalFn = single) -> bool:
                return _f(env) is True

            return one

        def conj(env: EvalEnv, _fns=fns) -> bool:
            for f in _fns:
                if f(env) is not True:
                    return False
            return True

        return conj

    def column_getter(self, column: BoundColumn) -> Callable:
        """A row-level getter for one column of a composite row."""

        def get(row, _a: str = column.alias, _p: int = column.position):
            return row.values[_a][_p]

        return get

    # -- dispatch ---------------------------------------------------------------

    def _compile(self, expr: ast.Expr) -> Compiled:
        if isinstance(expr, ast.Literal):
            return _const(expr.value)
        if isinstance(expr, BoundColumn):
            return self._column(expr)
        if isinstance(expr, AggregateRef):
            return self._aggregate_ref(expr)
        if isinstance(expr, BoundSubquery):
            return self._scalar_subquery(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._arithmetic(expr)
        if isinstance(expr, ast.Negate):
            return self._negate(expr)
        if isinstance(expr, ast.Comparison):
            return self._comparison(expr)
        if isinstance(expr, ast.Between):
            return self._between(expr)
        if isinstance(expr, ast.InList):
            return self._in_list(expr)
        if isinstance(expr, ast.InSubquery):
            return self._in_subquery(expr)
        if isinstance(expr, ast.IsNull):
            return self._is_null(expr)
        if isinstance(expr, ast.Like):
            return self._like(expr)
        if isinstance(expr, ast.And):
            return self._kleene(expr.operands, is_and=True)
        if isinstance(expr, ast.Or):
            return self._kleene(expr.operands, is_and=False)
        if isinstance(expr, ast.Not):
            return self._not(expr)
        raise ExecutionError(f"cannot compile expression {expr!r}")

    # -- leaves -----------------------------------------------------------------

    def _column(self, expr: BoundColumn) -> Compiled:
        family = _datatype_family(expr.datatype)
        if expr.alias in self._local:
            def local(env: EvalEnv, _a: str = expr.alias, _p: int = expr.position):
                try:
                    return env.row.values[_a][_p]
                except KeyError:
                    raise ExecutionError(f"no row bound for alias {_a!r}") from None

            return Compiled(fn=local, rank=1, static_type=family)

        def outer(env: EvalEnv, _a: str = expr.alias, _p: int = expr.position):
            e: EvalEnv | None = env
            while e is not None:
                values = e.row.values.get(_a)
                if values is not None:
                    return values[_p]
                e = e.outer
            raise ExecutionError(f"no row bound for alias {_a!r}")

        return Compiled(fn=outer, rank=3, static_type=family)

    def _aggregate_ref(self, expr: AggregateRef) -> Compiled:
        def fn(env: EvalEnv, _i: int = expr.index):
            e: EvalEnv | None = env
            while e is not None:
                aggregates = e.row.values.get(AGGREGATE_ALIAS)
                if aggregates is not None:
                    return aggregates[_i]
                e = e.outer
            raise ExecutionError("aggregate referenced outside aggregation")

        return Compiled(fn=fn, rank=1)

    def _scalar_subquery(self, expr: BoundSubquery) -> Compiled:
        def fn(env: EvalEnv, _sub: BoundSubquery = expr):
            return env.runtime.scalar_subquery_value(_sub, env)  # type: ignore[attr-defined]

        return Compiled(fn=fn, rank=_SUBQUERY_RANK)

    # -- arithmetic -------------------------------------------------------------

    def _arithmetic(self, expr: ast.BinaryOp) -> Compiled:
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        typed = left.static_type == "num" and right.static_type == "num"
        lf, rf, op = left.fn, right.fn, expr.op

        if op == "+":
            def fn(env: EvalEnv) -> object:
                l = lf(env)
                r = rf(env)
                if l is None or r is None:
                    return None
                if not typed:
                    _require_numeric(l, r)
                return l + r
        elif op == "-":
            def fn(env: EvalEnv) -> object:
                l = lf(env)
                r = rf(env)
                if l is None or r is None:
                    return None
                if not typed:
                    _require_numeric(l, r)
                return l - r
        elif op == "*":
            def fn(env: EvalEnv) -> object:
                l = lf(env)
                r = rf(env)
                if l is None or r is None:
                    return None
                if not typed:
                    _require_numeric(l, r)
                return l * r
        else:
            def fn(env: EvalEnv) -> object:
                l = lf(env)
                r = rf(env)
                if l is None or r is None:
                    return None
                if not typed:
                    _require_numeric(l, r)
                if r == 0:
                    raise ExecutionError("division by zero")
                return l / r

        rank = 2 + left.rank + right.rank
        return self._fold(fn, (left, right), rank, static_type="num")

    def _negate(self, expr: ast.Negate) -> Compiled:
        operand = self._compile(expr.operand)
        of = operand.fn
        typed = operand.static_type == "num"

        def fn(env: EvalEnv) -> object:
            value = of(env)
            if value is None:
                return None
            if not typed and (type(value) not in _NUMERIC_TYPES):
                raise ExecutionError(f"cannot negate {value!r}")
            return -value

        return self._fold(fn, (operand,), 1 + operand.rank, static_type="num")

    # -- comparisons ------------------------------------------------------------

    def _comparison(self, expr: ast.Comparison) -> Compiled:
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        rank = 2 + left.rank + right.rank
        lf, rf = left.fn, right.fn
        if (
            left.static_type is not None
            and left.static_type == right.static_type
        ):
            fn = _ordered_comparison(expr.op, lf, rf)
        else:
            test = _ORDERING_TEST[expr.op]

            def fn(env: EvalEnv, _t=test) -> object:
                ordering = compare_values(lf(env), rf(env))
                if ordering is None:
                    return None
                return _t(ordering)

        return self._fold(fn, (left, right), rank)

    def _between(self, expr: ast.Between) -> Compiled:
        operand = self._compile(expr.operand)
        low = self._compile(expr.low)
        high = self._compile(expr.high)
        rank = 3 + operand.rank + low.rank + high.rank
        of, lf, hf = operand.fn, low.fn, high.fn
        types = {operand.static_type, low.static_type, high.static_type}
        if len(types) == 1 and None not in types:
            def fn(env: EvalEnv) -> object:
                o = of(env)
                lo = lf(env)
                hi = hf(env)
                if o is None or lo is None or hi is None:
                    return None
                return (not (o < lo)) and (not (hi < o))
        else:
            def fn(env: EvalEnv) -> object:
                o = of(env)
                lower = compare_values(o, lf(env))
                upper = compare_values(o, hf(env))
                if lower is None or upper is None:
                    return None
                return lower >= 0 and upper <= 0

        return self._fold(fn, (operand, low, high), rank)

    def _in_list(self, expr: ast.InList) -> Compiled:
        operand = self._compile(expr.operand)
        values = tuple(literal.value for literal in expr.values)
        rank = 2 + operand.rank + len(values)
        of = operand.fn
        value_types = {_value_type(v) for v in values if v is not None}
        if (
            operand.static_type is not None
            and value_types <= {operand.static_type}
        ):
            non_null = tuple(v for v in values if v is not None)
            saw_null = any(v is None for v in values)

            def fn(env: EvalEnv) -> object:
                o = of(env)
                if o is None:
                    return None
                for v in non_null:
                    if not (o < v or v < o):
                        return True
                return None if saw_null else False
        else:
            def fn(env: EvalEnv) -> object:
                o = of(env)
                if o is None:
                    return None
                unknown = False
                for v in values:
                    ordering = compare_values(o, v)
                    if ordering is None:
                        unknown = True
                    elif ordering == 0:
                        return True
                return None if unknown else False

        return self._fold(fn, (operand,), rank)

    def _in_subquery(self, expr: ast.InSubquery) -> Compiled:
        subquery = expr.subquery
        assert isinstance(subquery, BoundSubquery)
        operand = self._compile(expr.operand)
        of = operand.fn

        def fn(env: EvalEnv, _sub: BoundSubquery = subquery) -> object:
            o = of(env)
            if o is None:
                return None
            values, saw_null = env.runtime.in_subquery_set(_sub, env)  # type: ignore[attr-defined]
            if o in values:
                return True
            return None if saw_null else False

        return Compiled(fn=fn, rank=_SUBQUERY_RANK)

    def _is_null(self, expr: ast.IsNull) -> Compiled:
        operand = self._compile(expr.operand)
        of = operand.fn
        if expr.negated:
            def fn(env: EvalEnv) -> object:
                return of(env) is not None
        else:
            def fn(env: EvalEnv) -> object:
                return of(env) is None

        return self._fold(fn, (operand,), 1 + operand.rank)

    def _like(self, expr: ast.Like) -> Compiled:
        operand = self._compile(expr.operand)
        pattern = like_regex(expr.pattern)
        negated = expr.negated
        of = operand.fn

        def fn(env: EvalEnv) -> object:
            o = of(env)
            if o is None:
                return None
            if type(o) is not str:
                raise ExecutionError("LIKE requires a string operand")
            matched = pattern.match(o) is not None
            return (not matched) if negated else matched

        return self._fold(fn, (operand,), 8 + operand.rank)

    # -- boolean connectives ----------------------------------------------------

    def _kleene(self, operands, is_and: bool) -> Compiled:
        compiled = [self._compile(op) for op in operands]
        rank = 1 + sum(c.rank for c in compiled)
        effectful = any(c.rank >= _SUBQUERY_RANK for c in compiled)
        absorbing = False if is_and else True
        if not effectful:
            # Reordering and folding are observationally safe: no operand
            # moves the cost counters, and AND/OR are commutative in 3VL.
            compiled.sort(key=lambda c: c.rank)
            if any(c.const and c.value is absorbing for c in compiled):
                return _const(absorbing)
            forced_unknown = any(c.const and c.value is None for c in compiled)
            runtime = [c for c in compiled if not c.const]
            if not runtime:
                return _const(None if forced_unknown else (not absorbing))
        else:
            forced_unknown = False
            runtime = compiled
        fns = tuple(c.fn for c in runtime)
        if is_and:
            def fn(env: EvalEnv, _fns=fns, _unknown=forced_unknown) -> object:
                saw_unknown = _unknown
                for f in _fns:
                    value = f(env)
                    if value is False:
                        return False
                    if value is None:
                        saw_unknown = True
                return None if saw_unknown else True
        else:
            def fn(env: EvalEnv, _fns=fns, _unknown=forced_unknown) -> object:
                saw_unknown = _unknown
                for f in _fns:
                    value = f(env)
                    if value is True:
                        return True
                    if value is None:
                        saw_unknown = True
                return None if saw_unknown else False

        return Compiled(fn=fn, rank=rank)

    def _not(self, expr: ast.Not) -> Compiled:
        operand = self._compile(expr.operand)
        of = operand.fn

        def fn(env: EvalEnv) -> object:
            value = of(env)
            if value is None:
                return None
            return not value

        return self._fold(fn, (operand,), 1 + operand.rank)

    # -- folding ----------------------------------------------------------------

    def _fold(
        self,
        fn: EvalFn,
        children,
        rank: int,
        static_type: str | None = None,
    ) -> Compiled:
        """Fold to a constant when every input is one (errors defer to runtime)."""
        if all(child.const for child in children):
            try:
                value = fn(None)  # type: ignore[arg-type]
            except Exception:
                return Compiled(fn=fn, rank=rank, static_type=static_type)
            folded = _const(value)
            if static_type is not None and folded.static_type is None:
                folded.static_type = static_type
            return folded
        return Compiled(fn=fn, rank=rank, static_type=static_type)


def _require_numeric(left: object, right: object) -> None:
    for operand in (left, right):
        if type(operand) not in _NUMERIC_TYPES:
            raise ExecutionError(f"arithmetic on non-numeric value {operand!r}")


#: Ordering-sign tests per comparison operator (reference three-way path).
_ORDERING_TEST = {
    CompareOp.EQ: lambda o: o == 0,
    CompareOp.NE: lambda o: o != 0,
    CompareOp.LT: lambda o: o < 0,
    CompareOp.LE: lambda o: o <= 0,
    CompareOp.GT: lambda o: o > 0,
    CompareOp.GE: lambda o: o >= 0,
}


def _ordered_comparison(op: CompareOp, lf: EvalFn, rf: EvalFn) -> EvalFn:
    """A typed comparison lowered to raw ``<`` orderings with a NULL guard.

    Written as combinations of ``<`` so the result matches the reference
    three-way :func:`~repro.datatypes.compare_values` exactly (including
    NaN, which compares "equal" under three-way ordering).
    """
    if op is CompareOp.EQ:
        def fn(env: EvalEnv) -> object:
            l = lf(env)
            r = rf(env)
            if l is None or r is None:
                return None
            return not (l < r or r < l)
    elif op is CompareOp.NE:
        def fn(env: EvalEnv) -> object:
            l = lf(env)
            r = rf(env)
            if l is None or r is None:
                return None
            return bool(l < r or r < l)
    elif op is CompareOp.LT:
        def fn(env: EvalEnv) -> object:
            l = lf(env)
            r = rf(env)
            if l is None or r is None:
                return None
            return l < r
    elif op is CompareOp.LE:
        def fn(env: EvalEnv) -> object:
            l = lf(env)
            r = rf(env)
            if l is None or r is None:
                return None
            return not (r < l)
    elif op is CompareOp.GT:
        def fn(env: EvalEnv) -> object:
            l = lf(env)
            r = rf(env)
            if l is None or r is None:
                return None
            return r < l
    else:
        def fn(env: EvalEnv) -> object:
            l = lf(env)
            r = rf(env)
            if l is None or r is None:
                return None
            return not (l < r)

    return fn


# ---------------------------------------------------------------------------
# three-way comparators for join/sort keys
# ---------------------------------------------------------------------------


def ordering_fns(
    left: DataType, right: DataType, interpret: bool = False
) -> tuple[Callable, Callable]:
    """``(eq, ge)`` comparators for two non-NULL join key values.

    Typed key pairs lower to raw ``<``; mixed families (or ``interpret``
    mode) keep the reference three-way compare (which raises on genuinely
    incomparable values).
    """
    if not interpret and _datatype_family(left) == _datatype_family(right):
        def eq(a, b) -> bool:
            return not (a < b or b < a)

        def ge(a, b) -> bool:
            return not (a < b)

        return eq, ge

    def eq_generic(a, b) -> bool:
        return compare_values(a, b) == 0

    def ge_generic(a, b) -> bool:
        return compare_values(a, b) >= 0

    return eq_generic, ge_generic
