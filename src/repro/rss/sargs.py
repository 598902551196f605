"""Search arguments (SARGs) evaluated below the RSI.

A *sargable* predicate has the form ``column comparison-operator value``.
SARGs are a boolean expression of such predicates in disjunctive normal
form: an OR of AND-groups (Section 3).  Scans apply SARGs to a tuple before
returning it, so tuples rejected by a SARG cost a page visit but **not** an
RSI call — that asymmetry is why the optimizer's RSICARD counts only tuples
surviving the sargable boolean factors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

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
        """True when nothing is stored here."""
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
# compiled matchers
# ---------------------------------------------------------------------------
#
# ``SargPredicate.matches`` pays enum dispatch plus a three-way compare per
# tuple.  A compiled matcher binds the operator and comparison value into a
# plain closure once per scan open; when the column's type family is known
# and the value belongs to it, the closure uses raw ``<`` orderings (the
# exact decomposition of ``compare_values``, NaN included).  NULL column
# values never match, and a NULL comparison value rejects every tuple —
# both identical to ``CompareOp.evaluate``.


def type_family(datatype: DataType) -> str:
    """The comparison family of a column type: ``"num"`` or ``"str"``."""
    return "num" if datatype.kind is not TypeKind.VARCHAR else "str"


def _value_family(value: object) -> str | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return "num"
    if isinstance(value, str):
        return "str"
    return None


def _reject_all(values: tuple) -> bool:
    return False


def _fast_eq(position: int, value: object) -> TupleMatcher:
    def pred(values: tuple) -> bool:
        x = values[position]
        return x is not None and not (x < value or value < x)

    return pred


def _fast_ne(position: int, value: object) -> TupleMatcher:
    def pred(values: tuple) -> bool:
        x = values[position]
        return x is not None and bool(x < value or value < x)

    return pred


def _fast_lt(position: int, value: object) -> TupleMatcher:
    def pred(values: tuple) -> bool:
        x = values[position]
        return x is not None and x < value

    return pred


def _fast_le(position: int, value: object) -> TupleMatcher:
    def pred(values: tuple) -> bool:
        x = values[position]
        return x is not None and not (value < x)

    return pred


def _fast_gt(position: int, value: object) -> TupleMatcher:
    def pred(values: tuple) -> bool:
        x = values[position]
        return x is not None and value < x

    return pred


def _fast_ge(position: int, value: object) -> TupleMatcher:
    def pred(values: tuple) -> bool:
        x = values[position]
        return x is not None and not (x < value)

    return pred


_FAST_PREDS = {
    CompareOp.EQ: _fast_eq,
    CompareOp.NE: _fast_ne,
    CompareOp.LT: _fast_lt,
    CompareOp.LE: _fast_le,
    CompareOp.GT: _fast_gt,
    CompareOp.GE: _fast_ge,
}


def predicate_factory(
    position: int, op: CompareOp, column_family: str | None = None
) -> Callable[[object], TupleMatcher]:
    """A per-scan-open factory binding a comparison value into a matcher.

    The type dispatch happens here, once per plan node; the returned
    ``make(value)`` is called at scan open (probe values change per open)
    and only picks between the prebuilt fast and reference forms.
    """
    fast = _FAST_PREDS[op]

    def make(value: object) -> TupleMatcher:
        if value is None:
            return _reject_all
        if column_family is not None and _value_family(value) == column_family:
            return fast(position, value)

        def pred(values: tuple) -> bool:
            return op.evaluate(values[position], value)

        return pred

    return make


def dnf_matcher(groups: list[list[TupleMatcher]]) -> TupleMatcher | None:
    """Combine per-predicate matchers into one DNF matcher (OR of ANDs).

    Returns ``None`` for an empty expression (matches everything) — and an
    empty AND-group is vacuously true, which makes the whole disjunction
    vacuously true as well.
    """
    if not groups or any(not group for group in groups):
        return None
    if len(groups) == 1:
        predicates = tuple(groups[0])
        if len(predicates) == 1:
            return predicates[0]

        def conj(values: tuple, _preds=predicates) -> bool:
            for pred in _preds:
                if not pred(values):
                    return False
            return True

        return conj
    compiled_groups = tuple(tuple(group) for group in groups)

    def dnf(values: tuple, _groups=compiled_groups) -> bool:
        for group in _groups:
            for pred in group:
                if not pred(values):
                    break
            else:
                return True
        return False

    return dnf


def and_matcher(parts: Iterable[TupleMatcher | None]) -> TupleMatcher | None:
    """Conjoin part matchers (one per sargable factor); ``None`` parts drop."""
    kept = [part for part in parts if part is not None]
    if not kept:
        return None
    if len(kept) == 1:
        return kept[0]
    compiled = tuple(kept)

    def conj(values: tuple, _parts=compiled) -> bool:
        for part in _parts:
            if not part(values):
                return False
        return True

    return conj


def compile_matcher(
    sargs: Sargs | None,
    datatypes: list[DataType] | None = None,
) -> TupleMatcher | None:
    """Compile an existing SARG expression into a closure matcher.

    Equivalent to ``sargs.matches`` (gated differentially in
    ``tests/test_rss_scans.py``); ``datatypes`` enables the typed fast
    path per column.
    """
    if sargs is None or sargs.is_empty():
        return None
    groups: list[list[TupleMatcher]] = []
    for group in sargs.groups:
        compiled_group: list[TupleMatcher] = []
        for predicate in group:
            family = None
            if datatypes is not None:
                family = type_family(datatypes[predicate.column_position])
            make = predicate_factory(predicate.column_position, predicate.op, family)
            compiled_group.append(make(predicate.value))
        groups.append(compiled_group)
    return dnf_matcher(groups)
