"""Cost-model auditing: re-derive TABLE 1 / TABLE 2 quantities and check
the algebraic invariants every cost computation must satisfy.

Three layers:

- ``audit_statement`` walks a planned statement: every boolean factor's
  selectivity factor F must lie in ``[0, 1]``, every node's cost components
  must be finite and non-negative, costs must be monotone along the outer
  spine (a join never costs less than its outer input), nested-loop and
  merge costs must be consistent with the paper's ``C-outer + N * C-inner``
  shape, hash-join costs must match the Table-2-style build/probe formula
  exactly (including the grace spill term) with the smaller input chosen
  as the build side, and cardinality estimates must respect operator
  semantics (sorts preserve rows, filters and grouping never increase
  them).
- ``audit_cost_model`` re-derives the TABLE 2 access path formulas for
  every table and index in a catalog and compares them against what
  :class:`~repro.optimizer.cost.CostModel` actually returns, including the
  clustered ≤ non-clustered dominance and monotonicity in the matched
  selectivity; it also sanity-checks the statistics themselves.
- ``audit_search_stats`` verifies the DP search's pruning decisions: no
  pruned candidate may have been cheaper than the surviving solution of
  its (relation set, order class) equivalence class, every bound-pruned
  candidate must cost strictly more than the bound U, and the chosen
  plan's finished total must not exceed U.
"""

from __future__ import annotations

import math

from ..catalog.catalog import Catalog
from ..optimizer.bound import BoundQueryBlock
from ..optimizer.cost import (
    Cost,
    CostModel,
    DEFAULT_W,
    HASH_TUPLE_FACTOR,
    tuple_byte_width,
)
from ..optimizer.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    HashJoinNode,
    IndexAccess,
    MergeJoinNode,
    NestedLoopJoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from ..optimizer.planner import PlannedStatement
from ..optimizer.predicates import BooleanFactor
from ..optimizer.selectivity import SelectivityEstimator
from .plan_check import Violation

#: Relative tolerance for floating-point cost comparisons.
_EPS = 1e-6


def _leq(a: float, b: float) -> bool:
    """``a <= b`` with a relative-and-absolute float tolerance."""
    return a <= b + _EPS * max(1.0, abs(a), abs(b))


def _close(a: float, b: float) -> bool:
    """``a == b`` under the same tolerance (never compare floats with ==)."""
    return _leq(a, b) and _leq(b, a)


# ---------------------------------------------------------------------------
# statement-level audit
# ---------------------------------------------------------------------------


def audit_statement(
    planned: PlannedStatement, catalog: Catalog
) -> list[Violation]:
    """Audit one planned statement's selectivities and plan-tree costs."""
    violations: list[Violation] = []
    estimator = SelectivityEstimator(catalog)
    checked: set[int] = set()
    stack: list[PlannedStatement] = [planned]
    for sub in planned.subquery_plans.values():
        stack.append(sub)
    for statement in stack:
        if id(statement) in checked:
            continue
        checked.add(id(statement))
        _audit_selectivities(statement, estimator, violations)
        auditor = _PlanAuditor(catalog, violations)
        auditor.audit(statement.root)
    return violations


def _audit_selectivities(
    planned: PlannedStatement,
    estimator: SelectivityEstimator,
    violations: list[Violation],
) -> None:
    """TABLE 1: every selectivity factor F is a fraction in [0, 1]."""
    for factor in planned.factors:
        f = estimator.factor_selectivity(factor)
        if not math.isfinite(f) or f < 0.0 or f > 1.0:
            violations.append(
                Violation(
                    "selectivity-out-of-range",
                    f"block #{planned.block.block_id}",
                    f"factor {factor} has selectivity {f!r}, outside [0, 1]",
                )
            )


class _PlanAuditor:
    """Walks one plan tree checking the numeric cost/cardinality invariants."""

    def __init__(self, catalog: Catalog, violations: list[Violation]):
        self._catalog = catalog
        self._violations = violations

    def audit(self, root: PlanNode) -> None:
        """Audit every node of the tree."""
        self._audit_node(root)

    def _audit_node(self, node: PlanNode) -> None:
        for child in node.children():
            self._audit_node(child)
        self._basic_numbers(node)
        if isinstance(node, ScanNode):
            self._audit_scan(node)
        elif isinstance(node, NestedLoopJoinNode):
            self._audit_nested_loop(node)
        elif isinstance(node, MergeJoinNode):
            self._audit_merge(node)
        elif isinstance(node, HashJoinNode):
            self._audit_hash_join(node)
        elif isinstance(node, SortNode):
            self._audit_sort(node)
        elif isinstance(node, FilterNode):
            self._shrinking(node, node.child)
        elif isinstance(node, AggregateNode):
            self._audit_aggregate(node)
        elif isinstance(node, ProjectNode):
            self._preserving(node, node.child)
        elif isinstance(node, DistinctNode):
            self._shrinking(node, node.child)
        else:
            self._flag(
                "unknown-node",
                node,
                f"no cost audit for plan node type {type(node).__name__}",
            )

    # -- per-node invariants ---------------------------------------------------

    def _basic_numbers(self, node: PlanNode) -> None:
        for name, value in (
            ("cost.pages", node.cost.pages),
            ("cost.rsi", node.cost.rsi),
            ("rows", node.rows),
            ("buffer_claim", node.buffer_claim),
        ):
            if not math.isfinite(value):
                self._flag("non-finite", node, f"{name} is {value!r}")
            elif value < 0.0:
                self._flag("negative-estimate", node, f"{name} is {value!r}")

    def _audit_scan(self, node: ScanNode) -> None:
        stats = self._catalog.relation_stats(node.table.name)
        if stats is not None and not _leq(node.rows, float(stats.ncard)):
            self._flag(
                "rows-exceed-ncard",
                node,
                f"scan estimates {node.rows:.3f} rows but NCARD is "
                f"{stats.ncard} — some selectivity escaped [0, 1]",
            )
        if isinstance(node.access, IndexAccess):
            index_stats = self._catalog.index_stats(node.access.index.name)
            if (
                node.access.index.unique
                and index_stats is not None
                and stats is not None
                and len(node.access.low) == len(node.access.index.key_positions)
                and node.access.low == node.access.high
                and node.access.low_inclusive
                and node.access.high_inclusive
                and not _leq(node.cost.pages, 2.0)
                and _close(node.cost.rsi, 1.0)
            ):
                # A fully-bound unique index is the paper's 1 + 1 + W case.
                self._flag(
                    "unique-path-cost",
                    node,
                    f"fully-bound unique index fetch costs {node.cost} "
                    "instead of the paper's 2 pages + W",
                )

    def _audit_nested_loop(self, node: NestedLoopJoinNode) -> None:
        outer, inner = node.outer, node.inner
        probes = max(0.0, outer.rows)
        expected_rsi = outer.cost.rsi + inner.cost.rsi * probes
        if not _close(node.cost.rsi, expected_rsi):
            self._flag(
                "nested-loop-inconsistent",
                node,
                f"RSI calls {node.cost.rsi:.3f} != C-outer + N * C-inner = "
                f"{expected_rsi:.3f}",
            )
        upper = outer.cost.pages + inner.cost.pages * probes
        if not _leq(outer.cost.pages, node.cost.pages) or not _leq(
            node.cost.pages, upper
        ):
            self._flag(
                "nested-loop-inconsistent",
                node,
                f"page fetches {node.cost.pages:.3f} outside "
                f"[C-outer, C-outer + N * C-inner] = "
                f"[{outer.cost.pages:.3f}, {upper:.3f}]",
            )

    def _audit_merge(self, node: MergeJoinNode) -> None:
        floor = node.outer.cost + node.inner.cost
        if not _leq(floor.pages, node.cost.pages) or not _leq(
            floor.rsi, node.cost.rsi
        ):
            self._flag(
                "merge-inconsistent",
                node,
                f"merge cost {node.cost} is below the sum of its ordered "
                f"inputs ({floor})",
            )

    def _audit_hash_join(self, node: HashJoinNode) -> None:
        """Re-derive the Table-2-style hash-join formula exactly.

        The build-side rule (smaller input builds) and the full cost
        formula — both the in-memory case and the grace spill term — are
        recomputed from the node's own inputs, so a plan that carries a
        hash join the formula would not have priced this way is flagged.
        """
        outer, inner = node.outer, node.inner
        probe_rows = max(0.0, outer.rows)
        build_rows = max(0.0, inner.rows)
        if not _leq(build_rows, probe_rows):
            self._flag(
                "hash-build-side",
                node,
                f"build side has {build_rows:.3f} rows but the probe side "
                f"only {probe_rows:.3f} — the smaller input must build",
            )
        expected_rsi = (
            outer.cost.rsi
            + inner.cost.rsi
            + HASH_TUPLE_FACTOR * (build_rows + probe_rows)
            + max(0.0, node.matches)
        )
        expected_pages = outer.cost.pages + inner.cost.pages
        if node.partitions > 1:
            inner_bytes = tuple_byte_width(inner.table)
            outer_bytes = sum(
                tuple_byte_width(scan.table)
                for scan in _scan_nodes(outer)
            )
            spill_pages = CostModel.temp_pages(
                build_rows, inner_bytes
            ) + CostModel.temp_pages(probe_rows, outer_bytes)
            expected_pages += 2.0 * spill_pages
            expected_rsi += 2.0 * (build_rows + probe_rows)
        if not _close(node.cost.rsi, expected_rsi):
            self._flag(
                "hash-inconsistent",
                node,
                f"RSI calls {node.cost.rsi:.3f} != C-outer + C-inner + "
                f"C-hash * (build + probe) + matches = {expected_rsi:.3f}",
            )
        if not _close(node.cost.pages, expected_pages):
            self._flag(
                "hash-inconsistent",
                node,
                f"page fetches {node.cost.pages:.3f} != re-derived "
                f"{expected_pages:.3f} (partitions={node.partitions})",
            )

    def _audit_sort(self, node: SortNode) -> None:
        if not _close(node.rows, node.child.rows):
            self._flag(
                "sort-changes-rows",
                node,
                f"sort emits {node.rows:.3f} rows but its input has "
                f"{node.child.rows:.3f}",
            )
        self._cost_monotone(node, node.child)

    def _audit_aggregate(self, node: AggregateNode) -> None:
        self._cost_monotone(node, node.child)
        if node.group_by:
            if not _leq(node.rows, node.child.rows):
                self._flag(
                    "groups-exceed-input",
                    node,
                    f"grouping estimates {node.rows:.3f} groups from "
                    f"{node.child.rows:.3f} input rows",
                )
        elif not _close(node.rows, 1.0):
            self._flag(
                "aggregate-cardinality",
                node,
                f"a whole-input aggregate returns one row, not {node.rows!r}",
            )

    def _shrinking(self, node: PlanNode, child: PlanNode) -> None:
        self._cost_monotone(node, child)
        if not _leq(node.rows, child.rows):
            self._flag(
                "rows-increase",
                node,
                f"{type(node).__name__} cannot increase rows: "
                f"{child.rows:.3f} -> {node.rows:.3f}",
            )

    def _preserving(self, node: PlanNode, child: PlanNode) -> None:
        self._cost_monotone(node, child)
        if not _close(node.rows, child.rows):
            self._flag(
                "rows-change",
                node,
                f"{type(node).__name__} must preserve rows: "
                f"{child.rows:.3f} -> {node.rows:.3f}",
            )

    def _cost_monotone(self, node: PlanNode, child: PlanNode) -> None:
        if not _leq(child.cost.pages, node.cost.pages) or not _leq(
            child.cost.rsi, node.cost.rsi
        ):
            self._flag(
                "cost-not-monotone",
                node,
                f"cost {node.cost} is below its input's cost {child.cost}",
            )

    def _flag(self, rule: str, node: PlanNode, message: str) -> None:
        self._violations.append(Violation(rule, node.label(), message))


def _scan_nodes(node: PlanNode):
    """Every ScanNode of a subtree, for composite tuple-width re-derivation."""
    if isinstance(node, ScanNode):
        yield node
        return
    for child in node.children():
        yield from _scan_nodes(child)


# ---------------------------------------------------------------------------
# catalog-wide cost model audit (TABLE 2 re-derivation)
# ---------------------------------------------------------------------------

#: Matched-selectivity samples for the TABLE 2 monotonicity check.
_SELECTIVITY_SAMPLES = (0.0, 0.1, 0.25, 0.5, 1.0)


def audit_cost_model(
    catalog: Catalog,
    w: float = DEFAULT_W,
    buffer_pages: int = 64,
) -> list[Violation]:
    """Re-derive TABLE 2 for every table/index and audit the statistics."""
    violations: list[Violation] = []
    model = CostModel(catalog, w, buffer_pages)
    _audit_cost_algebra(violations)
    for table in catalog.tables():
        where = f"table {table.name}"
        stats = catalog.relation_stats(table.name)
        if stats is not None:
            if stats.ncard < 0 or stats.tcard < 0:
                violations.append(
                    Violation(
                        "bad-statistics",
                        where,
                        f"negative cardinality: NCARD={stats.ncard} "
                        f"TCARD={stats.tcard}",
                    )
                )
            if not 0.0 < stats.fraction <= 1.0:
                violations.append(
                    Violation(
                        "bad-statistics",
                        where,
                        f"P(T)={stats.fraction!r} is not a fraction in (0, 1]",
                    )
                )
            if stats.ncard > 0 and stats.tcard > stats.ncard:
                violations.append(
                    Violation(
                        "bad-statistics",
                        where,
                        f"TCARD={stats.tcard} exceeds NCARD={stats.ncard}: "
                        "more occupied pages than tuples",
                    )
                )
            if stats.ncard == 0 and stats.tcard != 0:
                violations.append(
                    Violation(
                        "bad-statistics",
                        where,
                        f"empty relation still reports TCARD={stats.tcard}",
                    )
                )
        # Segment scan: TCARD/P + W * RSICARD, re-derived.
        scan = model.segment_scan_cost(table, rsicard=model.ncard(table))
        expected_pages = model.tcard(table) / model.fraction(table)
        if not _close(scan.pages, expected_pages) or scan.pages < 0.0:
            violations.append(
                Violation(
                    "table2-mismatch",
                    where,
                    f"segment scan pages {scan.pages:.3f} != TCARD/P = "
                    f"{expected_pages:.3f}",
                )
            )
        for index in catalog.indexes_on(table.name):
            _audit_index_formulas(model, catalog, table, index, violations)
    return violations


def _audit_index_formulas(
    model: CostModel, catalog: Catalog, table, index, violations: list[Violation]
) -> None:
    where = f"index {index.name}"
    stats = catalog.index_stats(index.name)
    relation = catalog.relation_stats(table.name)
    if stats is not None:
        if stats.nindx < 0 or stats.icard < 0:
            violations.append(
                Violation(
                    "bad-statistics",
                    where,
                    f"negative index statistics: NINDX={stats.nindx} "
                    f"ICARD={stats.icard}",
                )
            )
        if relation is not None and stats.icard > max(1, relation.ncard):
            violations.append(
                Violation(
                    "bad-statistics",
                    where,
                    f"ICARD={stats.icard} exceeds NCARD={relation.ncard}: "
                    "more distinct keys than tuples",
                )
            )
        if stats.prefix_icards:
            # A longer prefix can only distinguish more keys, and the
            # full-width prefix is ICARD itself by definition.
            if stats.prefix_icards[-1] != stats.icard:
                violations.append(
                    Violation(
                        "bad-statistics",
                        where,
                        f"full prefix cardinality {stats.prefix_icards[-1]} "
                        f"!= ICARD={stats.icard}",
                    )
                )
            if any(
                narrow > wide
                for narrow, wide in zip(
                    stats.prefix_icards, stats.prefix_icards[1:]
                )
            ):
                violations.append(
                    Violation(
                        "bad-statistics",
                        where,
                        f"prefix cardinalities {list(stats.prefix_icards)} "
                        "are not nondecreasing in prefix length",
                    )
                )
            if len(stats.prefix_icards) != len(index.column_names):
                violations.append(
                    Violation(
                        "bad-statistics",
                        where,
                        f"{len(stats.prefix_icards)} prefix cardinalities "
                        f"for a {len(index.column_names)}-column key",
                    )
                )
    unique = model.unique_index_cost()
    if not _close(unique.pages, 2.0) or not _close(unique.rsi, 1.0):
        violations.append(
            Violation(
                "table2-mismatch",
                where,
                f"unique index cost {unique} != the paper's 1 + 1 + W",
            )
        )
    nindx = model.nindx(index)
    tcard, ncard = model.tcard(table), model.ncard(table)
    fits = tcard + nindx <= model.buffer_pages
    previous = None
    for fraction in _SELECTIVITY_SAMPLES:
        cost = model.matching_index_cost(index, table, fraction, rsicard=0.0)
        if index.clustered or fits:
            expected = fraction * (nindx + tcard)
        else:
            expected = fraction * (nindx + ncard)
        if not _close(cost.pages, expected):
            violations.append(
                Violation(
                    "table2-mismatch",
                    where,
                    f"matching index pages {cost.pages:.3f} at F={fraction} "
                    f"!= re-derived {expected:.3f}",
                )
            )
        clustered_form = fraction * (nindx + tcard)
        nonclustered_form = fraction * (nindx + ncard)
        if not _leq(clustered_form, nonclustered_form):
            violations.append(
                Violation(
                    "clustered-dominance",
                    where,
                    f"clustered formula {clustered_form:.3f} exceeds "
                    f"non-clustered {nonclustered_form:.3f} at F={fraction}",
                )
            )
        if cost.pages < 0.0:
            violations.append(
                Violation(
                    "negative-estimate",
                    where,
                    f"matching index cost is negative at F={fraction}",
                )
            )
        if previous is not None and not _leq(previous, cost.pages):
            violations.append(
                Violation(
                    "table2-not-monotone",
                    where,
                    f"matching index pages decreased from {previous:.3f} "
                    f"as F grew to {fraction}",
                )
            )
        previous = cost.pages
    non_matching = model.non_matching_index_cost(index, table, rsicard=0.0)
    full_matching = model.matching_index_cost(index, table, 1.0, rsicard=0.0)
    if not _close(non_matching.pages, full_matching.pages):
        violations.append(
            Violation(
                "table2-mismatch",
                where,
                f"non-matching index pages {non_matching.pages:.3f} != the "
                f"matching formula at F=1 ({full_matching.pages:.3f})",
            )
        )


def _audit_cost_algebra(violations: list[Violation]) -> None:
    """Spot-check the Cost value type's algebraic invariants."""
    samples = (
        Cost(0.0, 0.0),
        Cost(1.5, 3.0),
        Cost(10.0, 0.5),
        Cost(1000.0, 250000.0),
    )
    for a in samples:
        for b in samples:
            total = a + b
            if not _close(total.pages, a.pages + b.pages) or not _close(
                total.rsi, a.rsi + b.rsi
            ):
                violations.append(
                    Violation(
                        "cost-algebra",
                        "Cost.__add__",
                        f"{a} + {b} produced {total}",
                    )
                )
            if not _leq(a.pages, total.pages) or not _leq(a.rsi, total.rsi):
                violations.append(
                    Violation(
                        "cost-algebra",
                        "Cost.__add__",
                        f"addition of {b} shrank {a} to {total}",
                    )
                )
        for factor in (0.0, 0.5, 2.0):
            scaled = a.scaled(factor)
            if not _close(scaled.pages, a.pages * factor) or not _close(
                scaled.rsi, a.rsi * factor
            ):
                violations.append(
                    Violation(
                        "cost-algebra",
                        "Cost.scaled",
                        f"{a}.scaled({factor}) produced {scaled}",
                    )
                )
        for w in (0.0, DEFAULT_W, 1.0):
            if a.total(w) < 0.0:
                violations.append(
                    Violation(
                        "cost-algebra",
                        "Cost.total",
                        f"{a}.total({w}) is negative",
                    )
                )


# ---------------------------------------------------------------------------
# DP search prune audit
# ---------------------------------------------------------------------------


def audit_search_stats(stats) -> list[Violation]:
    """Verify recorded DP prunes: no pruned plan beat its survivor or U.

    ``stats`` is a :class:`~repro.optimizer.joins.SearchStats` whose
    ``pruned`` / ``bound_pruned`` / ``survivor_totals`` fields were filled
    by a search run with ``record_prunes=True`` (the ``REPRO_CHECK=1``
    flag arranges this).  A pruned candidate cheaper than the surviving
    entry of its (relation set, order class) would mean the DP discarded
    the optimum.  A bound-pruned candidate must cost strictly more than
    the bound U, and the chosen plan's finished total must be at most U:
    a bound below the optimum would have pruned the optimum's prefixes.
    """
    violations: list[Violation] = []
    survivors = stats.survivor_totals
    for record in stats.bound_pruned:
        if not record.total > stats.bound:
            violations.append(
                Violation(
                    "bound-prune-within-bound",
                    _subset_label(stats, record.mask),
                    f"a candidate with order {record.order_key} costing "
                    f"{record.total:.4f} was bound-pruned but does not "
                    f"exceed the bound {stats.bound:.4f}",
                )
            )
    if stats.chosen_total is not None and not _leq(
        stats.chosen_total, stats.bound
    ):
        violations.append(
            Violation(
                "bound-below-optimum",
                _subset_label(stats, (1 << len(stats.alias_order)) - 1),
                f"the chosen plan's finished total {stats.chosen_total:.4f} "
                f"exceeds the bound {stats.bound:.4f}",
            )
        )
    for record in stats.pruned:
        key = (record.mask, record.order_key)
        survivor = survivors.get(key)
        where = _subset_label(stats, record.mask)
        if survivor is None:
            violations.append(
                Violation(
                    "prune-without-survivor",
                    where,
                    f"a candidate with order {record.order_key} was pruned "
                    "but no solution survived in its equivalence class",
                )
            )
        elif not _leq(survivor, record.total):
            violations.append(
                Violation(
                    "inadmissible-prune",
                    where,
                    f"pruned candidate cost {record.total:.4f} beats the "
                    f"surviving solution's {survivor:.4f} for order "
                    f"{record.order_key}",
                )
            )
    return violations


def _subset_label(stats, mask: int) -> str:
    # Prune records carry bitmask subset keys; translate them back to
    # alias names only here, at the reporting boundary.
    return "{" + ", ".join(sorted(stats.aliases_of(mask))) + "}"
