"""The system catalog: tables, indexes, and their statistics.

The OPTIMIZER's catalog-lookup phase (Section 2) resolves table and column
names here and retrieves the statistics and available access paths used in
access path selection.
"""

from __future__ import annotations

from ..datatypes import DataType
from ..errors import CatalogError, SemanticError
from .schema import Column, IndexDef, TableDef
from .statistics import IndexStats, RelationStats


class Catalog:
    """In-memory catalog of table and index definitions plus statistics."""

    def __init__(self) -> None:
        self._tables: dict[str, TableDef] = {}
        self._indexes: dict[str, IndexDef] = {}
        self._indexes_by_table: dict[str, list[str]] = {}
        self._relation_stats: dict[str, RelationStats] = {}
        self._index_stats: dict[str, IndexStats] = {}
        self._next_relation_id = 1
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter, bumped by every schema or statistics change.

        Caches built over catalog lookups (selectivity factors, per-table
        index lists, cost-model statistics) key their validity on this:
        ``UPDATE STATISTICS``, CREATE/DROP TABLE and CREATE/DROP INDEX all
        advance it, so a stale cache is detected by one int compare.
        """
        return self._version

    # -- tables ----------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: list[tuple[str, DataType]],
        segment_name: str | None = None,
    ) -> TableDef:
        """Register a new table; names are case-insensitive (stored upper)."""
        key = name.upper()
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = TableDef(
            key,
            [Column(column_name.upper(), datatype) for column_name, datatype in columns],
            self._next_relation_id,
            (segment_name or key).upper(),
        )
        self._next_relation_id += 1
        self._version += 1
        self._tables[key] = table
        self._indexes_by_table[key] = []
        return table

    def drop_table(self, name: str) -> TableDef:
        """Remove a table, its indexes, and its statistics."""
        key = name.upper()
        table = self.table(key)
        for index_name in list(self._indexes_by_table[key]):
            self.drop_index(index_name)
        del self._tables[key]
        del self._indexes_by_table[key]
        self._relation_stats.pop(key, None)
        self._version += 1
        return table

    def table(self, name: str) -> TableDef:
        """Look a table up by name; raises SemanticError when unknown."""
        try:
            return self._tables[name.upper()]
        except KeyError:
            raise SemanticError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Whether a table of this name exists."""
        return name.upper() in self._tables

    def tables(self) -> list[TableDef]:
        """Every table definition, in creation order."""
        return list(self._tables.values())

    # -- indexes ------------------------------------------------------------------

    def create_index(
        self,
        name: str,
        table_name: str,
        column_names: list[str],
        unique: bool = False,
        clustered: bool = False,
    ) -> IndexDef:
        """Register an index; at most one clustered index per table."""
        key = name.upper()
        if key in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        table = self.table(table_name)
        positions = table.distinct_positions(column_names, "CREATE INDEX")
        if clustered and any(
            existing.clustered for existing in self.indexes_on(table.name)
        ):
            raise CatalogError(
                f"table {table.name!r} already has a clustered index"
            )
        index = IndexDef(
            name=key,
            table_name=table.name,
            column_names=[column.upper() for column in column_names],
            unique=unique,
            clustered=clustered,
            key_positions=positions,
        )
        self._indexes[key] = index
        self._indexes_by_table[table.name].append(key)
        self._version += 1
        return index

    def drop_index(self, name: str) -> IndexDef:
        """Remove an index definition and its statistics."""
        key = name.upper()
        try:
            index = self._indexes.pop(key)
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None
        self._indexes_by_table[index.table_name].remove(key)
        self._index_stats.pop(key, None)
        self._version += 1
        return index

    def add_index(self, index: IndexDef) -> None:
        """Re-register a previously dropped definition (DDL rollback)."""
        key = index.name.upper()
        if key in self._indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        self._indexes[key] = index
        self._indexes_by_table[index.table_name].append(key)
        self._version += 1

    def index(self, name: str) -> IndexDef:
        """Look an index up by name; raises CatalogError when unknown."""
        try:
            return self._indexes[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None

    def indexes_on(self, table_name: str) -> list[IndexDef]:
        """All indexes defined on a table, in creation order."""
        return [
            self._indexes[index_name]
            for index_name in self._indexes_by_table.get(table_name.upper(), [])
        ]

    def index_on_column(self, table_name: str, column_name: str) -> IndexDef | None:
        """An index whose *first* key column is ``column_name``, if any.

        Table 1's selectivity formulas consult "the index on column"; when
        several qualify, the one with statistics (or the first) is returned.
        """
        for index in self.indexes_on(table_name):
            if index.column_names[0] == column_name.upper():
                return index
        return None

    # -- statistics --------------------------------------------------------------

    def set_relation_stats(self, table_name: str, stats: RelationStats) -> None:
        """Install NCARD/TCARD/P for a relation (UPDATE STATISTICS does this)."""
        self._relation_stats[table_name.upper()] = stats
        self._version += 1

    def relation_stats(self, table_name: str) -> RelationStats | None:
        """Statistics for a relation, or None when never collected.

        A missing entry reproduces the paper's "lack of statistics implies
        the relation is small" rule: the optimizer then falls back to the
        arbitrary default selectivity factors.
        """
        return self._relation_stats.get(table_name.upper())

    def set_index_stats(self, index_name: str, stats: IndexStats) -> None:
        """Install ICARD/NINDX/key-range for an index."""
        self._index_stats[index_name.upper()] = stats
        self._version += 1

    def index_stats(self, index_name: str) -> IndexStats | None:
        """Statistics for an index, or None when never collected."""
        return self._index_stats.get(index_name.upper())

    def clear_statistics(self) -> None:
        """Forget all statistics (used by the no-statistics ablation)."""
        self._relation_stats.clear()
        self._index_stats.clear()
        self._version += 1
