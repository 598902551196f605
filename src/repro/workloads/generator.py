"""Synthetic schema, data, and query generation.

Workloads are described declaratively (:class:`TableSpec` and friends) and
materialized into a fresh :class:`~repro.database.Database`; query
generators then produce SQL over that schema.  Everything is seeded for
reproducibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..database import Database
from .empdept import load_rows


@dataclass
class ColumnSpec:
    """An integer column drawn uniformly from ``distinct`` values.

    Values range over [low, low + distinct); ``distinct`` therefore plays
    the role ICARD will measure once an index exists on the column.
    ``sequential`` columns instead take the values low, low+1, ... in row
    order (key-like, duplicate-free).  A nonzero ``zipf`` exponent skews
    the draw: value rank ``r`` (1-based) is drawn with weight
    ``1 / r**zipf``, so ``zipf=1.4`` over ``distinct=40`` puts roughly a
    third of all rows on the hottest value — the shape that starves
    static range partitioning.
    """

    name: str
    distinct: int
    low: int = 0
    sequential: bool = False
    zipf: float = 0.0


@dataclass
class IndexSpec:
    """Declarative index description for a synthetic table."""
    name: str
    columns: list[str]
    unique: bool = False
    clustered: bool = False


@dataclass
class TableSpec:
    """Declarative description of one synthetic table."""
    name: str
    rows: int
    columns: list[ColumnSpec]
    indexes: list[IndexSpec] = field(default_factory=list)
    pad_bytes: int = 0  # adds a PAD VARCHAR column to widen tuples

    def column(self, name: str) -> ColumnSpec:
        """The column spec for a name; raises KeyError when absent."""
        for column in self.columns:
            if column.name == name:
                return column
        raise KeyError(name)


def build_database(
    tables: list[TableSpec],
    seed: int = 0,
    buffer_pages: int = 64,
    collect_stats: bool = True,
) -> Database:
    """Materialize a schema spec into a populated database."""
    rng = random.Random(seed)
    db = Database(buffer_pages=buffer_pages)
    for spec in tables:
        columns_sql = ", ".join(
            f"{column.name} INTEGER" for column in spec.columns
        )
        if spec.pad_bytes:
            columns_sql += f", PAD VARCHAR({spec.pad_bytes})"
        db.execute(f"CREATE TABLE {spec.name} ({columns_sql})")
        rows = []
        padding = "x" * spec.pad_bytes
        zipf_values = {
            column.name: _zipf_values(column, spec.rows, rng)
            for column in spec.columns
            if column.zipf
        }
        for row_number in range(spec.rows):
            row = []
            for column in spec.columns:
                if column.sequential or (
                    column.distinct >= spec.rows and column.name.endswith("ID")
                ):
                    # Key-like columns get distinct sequential values.
                    row.append(column.low + row_number)
                elif column.zipf:
                    row.append(zipf_values[column.name][row_number])
                else:
                    row.append(column.low + rng.randrange(column.distinct))
            if spec.pad_bytes:
                row.append(padding)
            rows.append(tuple(row))
        load_rows(db, spec.name, rows)
        for index in spec.indexes:
            unique = "UNIQUE " if index.unique else ""
            cluster = " CLUSTER" if index.clustered else ""
            columns = ", ".join(index.columns)
            db.execute(
                f"CREATE {unique}INDEX {index.name} ON {spec.name} "
                f"({columns}){cluster}"
            )
    if collect_stats:
        db.execute("UPDATE STATISTICS")
    return db


def _zipf_values(
    column: ColumnSpec, rows: int, rng: random.Random
) -> list[int]:
    """``rows`` draws from a Zipf(``column.zipf``) over the value domain.

    Rank 1 (weight ``1/1**s``) maps to ``column.low``, rank 2 to
    ``low + 1``, and so on — deterministic given the seeded ``rng``.
    """
    weights = [
        1.0 / (rank ** column.zipf) for rank in range(1, column.distinct + 1)
    ]
    values = [column.low + rank for rank in range(column.distinct)]
    return rng.choices(values, weights=weights, k=rows)


def random_chain_spec(
    count: int,
    rng: random.Random,
    min_rows: int = 50,
    max_rows: int = 800,
    index_probability: float = 0.7,
    pad_bytes: int = 0,
) -> list[TableSpec]:
    """A chain-join schema: T1.J1 = T2.J1, T2.J2 = T3.J2, ...

    Each table Ti has an id column, join columns shared with its chain
    neighbours, and a filterable attribute column; indexes appear on join
    columns with the given probability.  The two sides of each join draw
    from one shared domain whose cardinality is comparable to the table
    sizes, so join outputs stay selective (FK-like), as in realistic
    workloads.
    """
    row_counts = [rng.randint(min_rows, max_rows) for __ in range(count)]
    join_domains = [
        rng.randint(max(10, min(row_counts) // 2), max(row_counts))
        for __ in range(max(0, count - 1))
    ]
    tables: list[TableSpec] = []
    for position in range(count):
        rows = row_counts[position]
        columns = [ColumnSpec(f"TID", distinct=rows * 2, low=0)]
        if position > 0:
            columns.append(
                ColumnSpec(f"J{position}", distinct=join_domains[position - 1])
            )
        if position < count - 1:
            columns.append(
                ColumnSpec(f"J{position + 1}", distinct=join_domains[position])
            )
        columns.append(ColumnSpec("ATTR", distinct=rng.randint(4, 100)))
        indexes = []
        for column in columns[1:]:
            if rng.random() < index_probability:
                indexes.append(
                    IndexSpec(f"IX_T{position + 1}_{column.name}", [column.name])
                )
        tables.append(
            TableSpec(
                name=f"T{position + 1}",
                rows=rows,
                columns=columns,
                indexes=indexes,
                pad_bytes=pad_bytes,
            )
        )
    return tables


def chain_join_query(
    tables: list[TableSpec],
    selections: list[tuple[str, str, int]] | None = None,
) -> str:
    """The natural chain join over :func:`random_chain_spec` tables.

    ``selections`` are extra (table, column, value) equality filters.
    """
    froms = ", ".join(spec.name for spec in tables)
    predicates = [
        f"{tables[i].name}.J{i + 1} = {tables[i + 1].name}.J{i + 1}"
        for i in range(len(tables) - 1)
    ]
    for table, column, value in selections or []:
        predicates.append(f"{table}.{column} = {value}")
    where = " AND ".join(predicates)
    return f"SELECT * FROM {froms} WHERE {where}"


def random_star_spec(
    dimensions: int,
    rng: random.Random,
    fact_rows: int = 2000,
    min_dim_rows: int = 20,
    max_dim_rows: int = 200,
    index_probability: float = 1.0,
    pad_bytes: int = 0,
) -> list[TableSpec]:
    """A star schema: FACT with one FK per dimension table.

    Dimension ``DIMi`` has ``rows`` distinct ``KEY`` values (0..rows-1,
    unique); FACT.FKi draws uniformly from that domain, so every
    FACT-DIM join is FK-like.  All relations join only through FACT —
    the topology that stresses the DP's extension fan-out most.
    """
    specs: list[TableSpec] = []
    fact_columns = [ColumnSpec("FID", distinct=fact_rows * 2)]
    for number in range(1, dimensions + 1):
        dim_rows = rng.randint(min_dim_rows, max_dim_rows)
        dim_columns = [
            ColumnSpec("KEY", distinct=dim_rows, sequential=True),
            ColumnSpec("ATTR", distinct=rng.randint(4, 50)),
        ]
        indexes = [IndexSpec(f"IX_DIM{number}_KEY", ["KEY"], unique=True)]
        if rng.random() < index_probability:
            indexes.append(IndexSpec(f"IX_DIM{number}_ATTR", ["ATTR"]))
        specs.append(
            TableSpec(
                name=f"DIM{number}",
                rows=dim_rows,
                columns=dim_columns,
                indexes=indexes,
                pad_bytes=pad_bytes,
            )
        )
        fact_columns.append(ColumnSpec(f"FK{number}", distinct=dim_rows))
    fact_indexes = [
        IndexSpec(f"IX_FACT_FK{number}", [f"FK{number}"])
        for number in range(1, dimensions + 1)
        if rng.random() < index_probability
    ]
    specs.insert(
        0,
        TableSpec(
            name="FACT",
            rows=fact_rows,
            columns=fact_columns,
            indexes=fact_indexes,
            pad_bytes=pad_bytes,
        ),
    )
    return specs


def star_join_query(
    specs: list[TableSpec],
    selections: list[tuple[str, str, int]] | None = None,
) -> str:
    """The natural star join over :func:`random_star_spec` tables."""
    froms = ", ".join(spec.name for spec in specs)
    predicates = [
        f"FACT.FK{number} = DIM{number}.KEY"
        for number in range(1, len(specs))
    ]
    for table, column, value in selections or []:
        predicates.append(f"{table}.{column} = {value}")
    return f"SELECT * FROM {froms} WHERE {' AND '.join(predicates)}"


def random_clique_spec(
    count: int,
    rng: random.Random,
    min_rows: int = 50,
    max_rows: int = 400,
    index_probability: float = 0.5,
    pad_bytes: int = 0,
) -> list[TableSpec]:
    """A clique-join schema: every pair of tables shares a join column.

    Table Ti carries one column ``C{i}_{j}`` per partner Tj (i < j names
    the shared domain), all drawn from one domain per pair.  With every
    relation connected to every other, the join-order heuristic never
    prunes an extension, so the DP visits all 2^n subsets — the worst
    case for enumeration cost.
    """
    row_counts = [rng.randint(min_rows, max_rows) for __ in range(count)]
    domains = {
        (i, j): rng.randint(max(10, min(row_counts) // 2), max(row_counts))
        for i in range(count)
        for j in range(i + 1, count)
    }
    tables: list[TableSpec] = []
    for position in range(count):
        rows = row_counts[position]
        columns = [ColumnSpec("TID", distinct=rows * 2, low=0)]
        for other in range(count):
            if other == position:
                continue
            pair = (min(position, other), max(position, other))
            columns.append(
                ColumnSpec(
                    f"C{pair[0] + 1}_{pair[1] + 1}", distinct=domains[pair]
                )
            )
        columns.append(ColumnSpec("ATTR", distinct=rng.randint(4, 100)))
        indexes = [
            IndexSpec(f"IX_T{position + 1}_{column.name}", [column.name])
            for column in columns[1:]
            if rng.random() < index_probability
        ]
        tables.append(
            TableSpec(
                name=f"T{position + 1}",
                rows=rows,
                columns=columns,
                indexes=indexes,
                pad_bytes=pad_bytes,
            )
        )
    return tables


def clique_join_query(
    tables: list[TableSpec],
    selections: list[tuple[str, str, int]] | None = None,
) -> str:
    """The all-pairs equi-join over :func:`random_clique_spec` tables."""
    froms = ", ".join(spec.name for spec in tables)
    predicates = [
        f"T{i + 1}.C{i + 1}_{j + 1} = T{j + 1}.C{i + 1}_{j + 1}"
        for i in range(len(tables))
        for j in range(i + 1, len(tables))
    ]
    for table, column, value in selections or []:
        predicates.append(f"{table}.{column} = {value}")
    return f"SELECT * FROM {froms} WHERE {' AND '.join(predicates)}"


def random_select_query(
    tables: list[TableSpec], rng: random.Random, max_selections: int = 2
) -> str:
    """A chain join with up to ``max_selections`` random equality filters."""
    selections: list[tuple[str, str, int]] = []
    count = rng.randint(0, max_selections)
    for __ in range(count):
        spec = rng.choice(tables)
        column = rng.choice([c for c in spec.columns if c.name == "ATTR"])
        value = column.low + rng.randrange(column.distinct)
        selections.append((spec.name, column.name, value))
    return chain_join_query(tables, selections)
