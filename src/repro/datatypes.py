"""Column datatypes and value helpers shared across the whole system.

System R supported a handful of scalar types; we implement the three that the
paper's cost model distinguishes (arithmetic vs. non-arithmetic types matter
for the Table 1 interpolation rules):

- ``INTEGER`` — signed 64-bit integer, 8 bytes on a page.
- ``FLOAT``   — IEEE double, 8 bytes on a page.
- ``VARCHAR(n)`` — variable-length string up to *n* bytes, stored with a
  2-byte length prefix.

Values may be NULL.  Comparisons involving NULL evaluate to unknown, which the
engine treats as "does not satisfy the predicate", matching SQL semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import SemanticError


class TypeKind(enum.Enum):
    """The scalar type families known to the system."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    VARCHAR = "VARCHAR"


@dataclass(frozen=True)
class DataType:
    """A concrete column type: a kind plus (for VARCHAR) a maximum length."""

    kind: TypeKind
    length: int = 0  # maximum byte length; only meaningful for VARCHAR

    def __post_init__(self) -> None:
        if self.kind is TypeKind.VARCHAR and self.length <= 0:
            raise SemanticError("VARCHAR requires a positive length")

    @property
    def is_arithmetic(self) -> bool:
        """True for types where Table 1's linear interpolation applies."""
        return self.kind in (TypeKind.INTEGER, TypeKind.FLOAT)

    def max_encoded_size(self) -> int:
        """Worst-case bytes this type occupies inside a stored tuple."""
        if self.kind is TypeKind.VARCHAR:
            return 2 + self.length
        return 8

    def validate(self, value: object) -> object:
        """Coerce and range-check a Python value for this type.

        Returns the canonical Python value (int, float, or str), or ``None``
        for NULL.  Raises :class:`SemanticError` on a type mismatch or an
        INTEGER outside the signed 64-bit range it is stored in.
        """
        if value is None:
            return None
        if self.kind is TypeKind.INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SemanticError(f"expected INTEGER, got {value!r}")
            if not -(2**63) <= value < 2**63:
                raise SemanticError(f"INTEGER out of range: {value}")
            return value
        if self.kind is TypeKind.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SemanticError(f"expected FLOAT, got {value!r}")
            return float(value)
        if not isinstance(value, str):
            raise SemanticError(f"expected VARCHAR, got {value!r}")
        if len(value.encode("utf-8")) > self.length:
            raise SemanticError(
                f"string of {len(value)} chars exceeds VARCHAR({self.length})"
            )
        return value

    def __str__(self) -> str:
        if self.kind is TypeKind.VARCHAR:
            return f"VARCHAR({self.length})"
        return self.kind.value


INTEGER = DataType(TypeKind.INTEGER)
FLOAT = DataType(TypeKind.FLOAT)


def varchar(length: int) -> DataType:
    """Convenience constructor for ``VARCHAR(length)``."""
    return DataType(TypeKind.VARCHAR, length)


def compare_values(left: object, right: object) -> int | None:
    """Three-way compare two column values; ``None`` if either is NULL.

    Mixed int/float comparisons are allowed (both are arithmetic); comparing
    a number with a string raises :class:`SemanticError` because the planner
    should have rejected the query earlier.
    """
    if left is None or right is None:
        return None
    left_num = isinstance(left, (int, float))
    right_num = isinstance(right, (int, float))
    if left_num != right_num:
        raise SemanticError(f"cannot compare {left!r} with {right!r}")
    if left < right:  # type: ignore[operator]
        return -1
    if left > right:  # type: ignore[operator]
        return 1
    return 0
