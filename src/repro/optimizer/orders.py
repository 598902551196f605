"""Interesting orders and order equivalence classes (Sections 4-5).

A tuple order is *interesting* if it is required by GROUP BY or ORDER BY, or
if it is on a join column (merge joins consume such orders).  Columns linked
by equi-join predicates belong to one *order equivalence class*: given
``E.DNO = D.DNO`` and ``D.DNO = F.DNO``, an order on any of the three serves
a merge on any other, so the optimizer saves only the best solution per
class rather than per column.

Orders are canonicalized to tuples of class ids, truncated to the longest
prefix that is still interesting; two plans whose orders differ only beyond
that prefix are interchangeable and the cheaper one wins.

Canonical keys are *interned*: :meth:`InterestingOrders.canonicalize`
memoizes its result per produced order and always hands back the same
tuple object for equal keys.  The join search canonicalizes once per
candidate plan, so interning turns the hot path's repeated
canonicalization into one dict hit and makes equal keys
identity-comparable (dict probes on interned keys short-circuit on
``is`` before falling back to ``==``).
"""

from __future__ import annotations

from .bound import BoundColumn, BoundQueryBlock
from .predicates import BooleanFactor

ColumnKey = tuple[str, int]  # (alias, column position)
OrderKey = tuple[int, ...]  # canonical: tuple of equivalence-class ids

UNORDERED: OrderKey = ()


class InterestingOrders:
    """Equivalence classes plus the set of orders worth keeping plans for."""

    def __init__(
        self,
        block: BoundQueryBlock,
        factors: list[BooleanFactor],
        extra_single_columns: list[ColumnKey] | None = None,
    ):
        self._parent: dict[ColumnKey, ColumnKey] = {}
        self._class_ids: dict[ColumnKey, int] = {}
        self._next_class_id = 1

        join_columns: list[ColumnKey] = []
        for factor in factors:
            if factor.join is not None and factor.join.is_equijoin:
                left = _key(factor.join.left)
                right = _key(factor.join.right)
                self._union(left, right)
                join_columns.extend((left, right))
        # Columns referenced by correlated subqueries: an order on them
        # makes consecutive re-evaluations skippable (§6), so plans
        # producing that order are worth remembering.
        join_columns.extend(extra_single_columns or [])

        # Interesting sequences: ORDER BY and GROUP BY column lists.
        self._sequences: list[OrderKey] = []
        if block.order_by and all(not descending for __, descending in block.order_by):
            self._sequences.append(
                tuple(self.class_of(_key(column)) for column, __ in block.order_by)
            )
        if block.group_by:
            self._sequences.append(
                tuple(self.class_of(_key(column)) for column in block.group_by)
            )
        # Every join column defines a single-column interesting order.
        self._single_classes = {self.class_of(column) for column in join_columns}

        # Interning tables: one canonical tuple object per distinct key.
        self._interned: dict[OrderKey, OrderKey] = {UNORDERED: UNORDERED}
        self._canonical_cache: dict[OrderKey, OrderKey] = {}

    # -- class structure -------------------------------------------------------

    def _find(self, key: ColumnKey) -> ColumnKey:
        parent = self._parent.setdefault(key, key)
        if parent == key:
            return key
        root = self._find(parent)
        self._parent[key] = root
        return root

    def _union(self, left: ColumnKey, right: ColumnKey) -> None:
        left_root, right_root = self._find(left), self._find(right)
        if left_root != right_root:
            self._parent[right_root] = left_root

    def class_of(self, key: ColumnKey) -> int:
        """Stable small-integer id of the column's equivalence class."""
        root = self._find(key)
        if root not in self._class_ids:
            self._class_ids[root] = self._next_class_id
            self._next_class_id += 1
        return self._class_ids[root]

    def class_of_column(self, column: BoundColumn) -> int:
        """Equivalence-class id of a bound column."""
        return self.class_of(_key(column))

    # -- canonical order keys ------------------------------------------------------

    def order_key(self, columns: list[ColumnKey]) -> OrderKey:
        """Class-id tuple for a column sequence."""
        return tuple(self.class_of(column) for column in columns)

    def intern(self, key: OrderKey) -> OrderKey:
        """The canonical tuple object for ``key`` (identity-stable)."""
        interned = self._interned.get(key)
        if interned is None:
            interned = self._interned[key] = key
        return interned

    def canonicalize(self, produced: OrderKey) -> OrderKey:
        """Truncate a produced order to its longest interesting prefix.

        An order whose very first class is uninteresting collapses to
        UNORDERED; otherwise we keep the prefix while it can still serve
        some interesting sequence or single-column order.  Results are
        memoized and interned: equal inputs return the identical tuple.
        """
        cached = self._canonical_cache.get(produced)
        if cached is not None:
            return cached
        kept: list[int] = []
        for position, class_id in enumerate(produced):
            prefix = tuple(kept) + (class_id,)
            if any(
                sequence[: len(prefix)] == prefix for sequence in self._sequences
            ):
                kept.append(class_id)
                continue
            if position == 0 and class_id in self._single_classes:
                kept.append(class_id)
                continue
            break
        result = self.intern(tuple(kept))
        self._canonical_cache[self.intern(produced)] = result
        return result

    def satisfies(self, produced: OrderKey, required: OrderKey) -> bool:
        """True when a produced order subsumes the required one (prefix rule)."""
        return produced[: len(required)] == required

    def required_for_block(self, block: BoundQueryBlock) -> OrderKey:
        """The order the final plan must deliver before projection.

        Grouping needs the group columns in sequence; otherwise ORDER BY
        (all-ascending) is the requirement.  Descending orders are always
        produced by an explicit sort, so they impose no access-path order.
        """
        if block.group_by:
            return tuple(
                self.class_of(_key(column)) for column in block.group_by
            )
        if block.order_by and all(not desc for __, desc in block.order_by):
            return tuple(
                self.class_of(_key(column)) for column, __ in block.order_by
            )
        return UNORDERED


def _key(column: BoundColumn) -> ColumnKey:
    return (column.alias, column.position)
