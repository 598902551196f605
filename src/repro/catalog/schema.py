"""Schema objects: columns, tables, and indexes.

These are pure descriptions; storage lives in :mod:`repro.rss` and the
catalog that owns them lives in :mod:`repro.catalog.catalog`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..datatypes import DataType
from ..errors import CatalogError, SemanticError


@dataclass(frozen=True)
class Column:
    """A named, typed column of a relation."""

    name: str
    datatype: DataType

    def __str__(self) -> str:
        return f"{self.name} {self.datatype}"


class TableDef:
    """Definition of a stored relation.

    A table is identified by name and by a small integer ``relation_id``
    which tags every stored tuple (segments may interleave tuples of several
    relations, exactly as in the RSS).
    """

    def __init__(
        self,
        name: str,
        columns: list[Column],
        relation_id: int,
        segment_name: str,
    ):
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        seen: set[str] = set()
        for column in columns:
            if column.name in seen:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {name!r}"
                )
            seen.add(column.name)
        self.name = name
        self.columns = list(columns)
        self.relation_id = relation_id
        self.segment_name = segment_name
        self._index: dict[str, int] = {
            column.name: position for position, column in enumerate(columns)
        }

    def column_position(self, column_name: str) -> int:
        """Ordinal position of a column, raising on unknown names."""
        try:
            return self._index[column_name]
        except KeyError:
            raise SemanticError(
                f"table {self.name!r} has no column {column_name!r}"
            ) from None

    def distinct_positions(
        self, column_names: Iterable[str], clause: str
    ) -> list[int]:
        """Positions of ``column_names``; a column named twice is an error.

        ``clause`` names the statement part in the message (``INSERT``,
        ``SET``, ``CREATE INDEX``).
        """
        positions: list[int] = []
        for name in column_names:
            position = self.column_position(name.upper())
            if position in positions:
                raise SemanticError(
                    f"column {name.upper()!r} named twice in {clause}"
                )
            positions.append(position)
        return positions

    def column(self, column_name: str) -> Column:
        """The column definition for a name; raises on unknown names."""
        return self.columns[self.column_position(column_name)]

    def has_column(self, column_name: str) -> bool:
        """Whether the table has a column of this name."""
        return column_name in self._index

    @property
    def column_names(self) -> list[str]:
        """Column names in ordinal position order."""
        return [column.name for column in self.columns]

    def __repr__(self) -> str:
        cols = ", ".join(str(column) for column in self.columns)
        return f"TableDef({self.name}: {cols})"


@dataclass
class IndexDef:
    """Definition of a B-tree index on one or more columns of a table.

    ``clustered`` mirrors the paper's notion: tuples were inserted into
    segment pages in index-key order and that proximity is maintained, so a
    scan through the index touches each data page only once.
    """

    name: str
    table_name: str
    column_names: list[str]
    unique: bool = False
    clustered: bool = False
    key_positions: list[int] = field(default_factory=list)

    def key_of(self, values: tuple) -> tuple:
        """Extract this index's key from a full tuple of column values."""
        return tuple(values[position] for position in self.key_positions)

    def __repr__(self) -> str:
        flags = []
        if self.unique:
            flags.append("unique")
        if self.clustered:
            flags.append("clustered")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        columns = ", ".join(self.column_names)
        return f"IndexDef({self.name} on {self.table_name}({columns}){suffix})"
