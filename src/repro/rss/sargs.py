"""Search arguments (SARGs) evaluated below the RSI.

A *sargable* predicate has the form ``column comparison-operator value``.
SARGs are a boolean expression of such predicates in disjunctive normal
form: an OR of AND-groups (Section 3).  Scans apply SARGs to a tuple before
returning it, so tuples rejected by a SARG cost a page visit but **not** an
RSI call — that asymmetry is why the optimizer's RSICARD counts only tuples
surviving the sargable boolean factors.

Scans test SARGs through one generated function per SARG *shape* — the
column positions, operators and column kinds of an AND of DNFs, with the
constants left out (:func:`sarg_program`).  The function is generated once
per shape and cached; a plan node looks its program up once, and a scan
open only binds the constants (:meth:`SargProgram.bind`).  Generated source
holds column positions and operator templates only: constants arrive as
arguments and are never formatted into it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from ..datatypes import DataType, TypeKind, compare_values

#: A compiled SARG matcher: tuple values in, keep/reject out.
TupleMatcher = Callable[[tuple], bool]


class CompareOp(enum.Enum):
    """Comparison operators usable in a simple predicate."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def evaluate(self, left: object, right: object) -> bool:
        """Apply this operator; NULL on either side yields False (unknown)."""
        ordering = compare_values(left, right)
        if ordering is None:
            return False
        if self is CompareOp.EQ:
            return ordering == 0
        if self is CompareOp.NE:
            return ordering != 0
        if self is CompareOp.LT:
            return ordering < 0
        if self is CompareOp.LE:
            return ordering <= 0
        if self is CompareOp.GT:
            return ordering > 0
        return ordering >= 0

    def flipped(self) -> "CompareOp":
        """The operator with operands swapped (``5 < x`` becomes ``x > 5``)."""
        return _FLIPPED[self]

    def negated(self) -> "CompareOp":
        """The complementary operator (NOT (a < b) is a >= b)."""
        return _NEGATED[self]


_FLIPPED = {
    CompareOp.EQ: CompareOp.EQ,
    CompareOp.NE: CompareOp.NE,
    CompareOp.LT: CompareOp.GT,
    CompareOp.LE: CompareOp.GE,
    CompareOp.GT: CompareOp.LT,
    CompareOp.GE: CompareOp.LE,
}

_NEGATED = {
    CompareOp.EQ: CompareOp.NE,
    CompareOp.NE: CompareOp.EQ,
    CompareOp.LT: CompareOp.GE,
    CompareOp.LE: CompareOp.GT,
    CompareOp.GT: CompareOp.LE,
    CompareOp.GE: CompareOp.LT,
}


@dataclass(frozen=True)
class SargPredicate:
    """One simple predicate: ``values[column_position] op value``."""

    column_position: int
    op: CompareOp
    value: object

    def matches(self, values: tuple) -> bool:
        """Whether a tuple's values satisfy this expression."""
        return self.op.evaluate(values[self.column_position], self.value)

    def __str__(self) -> str:
        return f"col{self.column_position} {self.op.value} {self.value!r}"


class Sargs:
    """A DNF search-argument expression: OR of AND-groups of simple predicates.

    An empty expression (no groups) matches everything, so scans can always
    carry a ``Sargs`` instance.
    """

    def __init__(self, groups: list[list[SargPredicate]] | None = None):
        self.groups = groups or []

    @classmethod
    def conjunction(cls, predicates: list[SargPredicate]) -> "Sargs":
        """A single AND-group (the common case: conjunctive boolean factors)."""
        return cls([list(predicates)]) if predicates else cls()

    def matches(self, values: tuple) -> bool:
        """Whether a tuple's values satisfy this expression."""
        if not self.groups:
            return True
        return any(
            all(predicate.matches(values) for predicate in group)
            for group in self.groups
        )

    def is_empty(self) -> bool:
        """True when the expression has no groups, i.e. matches every tuple."""
        return not self.groups

    def __str__(self) -> str:
        if not self.groups:
            return "<always>"
        rendered = [
            " AND ".join(str(predicate) for predicate in group)
            for group in self.groups
        ]
        return " OR ".join(f"({clause})" for clause in rendered)


# ---------------------------------------------------------------------------
# compiled predicates
# ---------------------------------------------------------------------------
#
# A shape compiles to one function whose body is the whole AND of DNFs as a
# single expression, short-circuiting in the order of ``Sargs.matches``
# (parts, groups, predicates).  It comes in two forms:
#
# - the *typed* form compares with raw ``<`` (the exact decomposition of
#   ``compare_values``, NaN and mixed int/float included) and tests an IN
#   list on an INTEGER or VARCHAR column as one ``frozenset`` membership.
#   It binds only constants of their column's family (never NULL, never
#   ``bool``; ``int`` or ``str`` exactly for a set); stored values always
#   belong to it.
# - the *reference* form calls ``CompareOp.evaluate`` per predicate.  It
#   takes every other binding and runs the interp engine, raising
#   ``SemanticError`` on a family mismatch exactly where the reference does.

#: A compiled SARG matcher: tuple values in, keep/reject out.
TupleMatcher = Callable[[tuple], bool]

#: One predicate of a shape: column position, operator and column kind
#: (:func:`column_kind`).
ShapePredicate = tuple[int, CompareOp, str]

#: An AND of DNFs: per part, per OR-ed group, the AND-ed predicates.
SargShape = tuple[tuple[tuple[ShapePredicate, ...], ...], ...]


def column_kind(datatype: DataType) -> str:
    """A column's kind in a SARG shape: ``"int"``, ``"float"`` or ``"str"``."""
    if datatype.kind is TypeKind.INTEGER:
        return "int"
    return "float" if datatype.kind is TypeKind.FLOAT else "str"


#: Typed comparison templates over a non-NULL column value ``x`` and a
#: constant ``c`` of the same family.
_TYPED = {
    CompareOp.EQ: "not ({x} < {c} or {c} < {x})",
    CompareOp.NE: "({x} < {c} or {c} < {x})",
    CompareOp.LT: "{x} < {c}",
    CompareOp.LE: "not ({c} < {x})",
    CompareOp.GT: "{c} < {x}",
    CompareOp.GE: "not ({x} < {c})",
}

#: What the generated source may name: the reference operators and, by
#: column kind, the constant types the typed form binds (``T_``) and a
#: ``frozenset`` IN test binds (``S_``).
_NAMESPACE = {
    **{op.name: op.evaluate for op in CompareOp},
    "T_int": (int, float),
    "T_float": (int, float),
    "T_str": (str,),
    "S_int": (int,),
    "S_str": (str,),
}


def _is_in_set(part: tuple[tuple[ShapePredicate, ...], ...]) -> bool:
    """True for an IN list the typed form tests as one set membership:
    two or more single-equality groups on one INTEGER or VARCHAR column."""
    position, __, kind = part[0][0]
    return (
        len(part) > 1
        and kind in ("int", "str")
        and all(group == ((position, CompareOp.EQ, kind),) for group in part)
    )


def _source(shape: SargShape, typed: bool) -> str | None:
    """The ``make(c0, c1, ...)`` source of one form of a shape, or ``None``
    when no part can reject a tuple.  ``make`` returns the matcher, or
    ``None`` when the typed form cannot bind its constants."""
    checks: list[str] = []
    prologue: list[str] = []
    loads: dict[int, None] = {}  # the typed form reads each column once
    clauses: list[str] = []

    def term(predicate: ShapePredicate, c: str) -> str:
        position, op, kind = predicate
        if not typed:
            return f"{op.name}(values[{position}], {c})"
        loads[position] = None
        checks.append(f"type({c}) not in T_{kind}")
        x = f"v{position}"
        return f"{x} is not None and {_TYPED[op].format(x=x, c=c)}"

    index = 0
    for part in shape:
        first = index
        index += sum(len(group) for group in part)
        if not part or not part[0]:
            continue  # true without evaluating anything, as in Sargs.matches
        if typed and _is_in_set(part):
            position, __, kind = part[0][0]
            names = [f"c{i}" for i in range(first, index)]
            checks.extend(f"type({name}) not in S_{kind}" for name in names)
            prologue.append(f"    s{first} = frozenset(({', '.join(names)}))")
            loads[position] = None
            clauses.append(f"v{position} in s{first}")
            continue
        constant = first
        disjuncts: list[str] = []
        for group in part:
            if not group:
                disjuncts.append("True")  # the groups after it never evaluate
                break
            conjuncts = []
            for predicate in group:
                conjuncts.append(term(predicate, f"c{constant}"))
                constant += 1
            disjuncts.append(" and ".join(conjuncts))
        clauses.append(" or ".join(f"({d})" for d in disjuncts))
    if not clauses:
        return None
    if checks:
        prologue.insert(0, f"    if {' or '.join(checks)}:\n        return None")
    return "\n".join(
        [
            f"def make({', '.join(f'c{i}' for i in range(index))}):",
            *prologue,
            "    def match(values):",
            *(f"        v{position} = values[{position}]" for position in loads),
            f"        return {' and '.join(f'({c})' for c in clauses)}",
            "    return match",
        ]
    )


def _define(source: str | None) -> Callable | None:
    if source is None:
        return None
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<sarg program>", "exec"), namespace)
    return namespace["make"]


class SargProgram:
    """The generated predicate of one SARG shape, ready to bind constants.

    ``source`` is the typed form's (the reference form's when the program
    is reference-only), kept for inspection.
    """

    __slots__ = ("source", "_typed", "_reference")

    def __init__(self, shape: SargShape, typed: bool):
        reference = _source(shape, typed=False)
        source = _source(shape, typed=True) if typed else None
        self.source = source or reference
        self._typed = _define(source)
        self._reference = _define(reference)

    def bind(self, constants: Sequence[object]) -> TupleMatcher | None:
        """The matcher for one scan open, or ``None`` when it matches every
        tuple.  ``constants`` come in shape order: part, group, predicate."""
        if self._typed is not None:
            matcher = self._typed(*constants)
            if matcher is not None:
                return matcher
        if self._reference is None:
            return None
        return self._reference(*constants)


@lru_cache(maxsize=1024)
def sarg_program(shape: SargShape, typed: bool = True) -> SargProgram:
    """The cached program of one shape; ``typed=False`` gives the
    reference-only program the interp engine runs."""
    return SargProgram(shape, typed)


def compile_matcher(
    sargs: Sargs | None,
    datatypes: list[DataType] | None = None,
) -> TupleMatcher | None:
    """A matcher equivalent to ``sargs.matches`` (``None`` matches every
    tuple); ``datatypes`` enables the typed form."""
    if sargs is None:
        return None
    part = tuple(
        tuple(
            (
                p.column_position,
                p.op,
                "" if datatypes is None else column_kind(datatypes[p.column_position]),
            )
            for p in group
        )
        for group in sargs.groups
    )
    program = sarg_program((part,), datatypes is not None)
    return program.bind([p.value for group in sargs.groups for p in group])
