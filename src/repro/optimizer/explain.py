"""Search-tree and plan rendering: regenerates Figures 2-6 style output.

The paper walks its EMP/DEPT/JOB example through the optimizer's search
tree: access paths for single relations (Fig. 2), the surviving solutions
after the single-relation pass (Fig. 3), the nested-loop and merge-join
extensions for pairs (Figs. 4-5), and the three-relation tree (Fig. 6).
These helpers render the same artifacts from a live :class:`JoinSearch`.
"""

from __future__ import annotations

from ..catalog.catalog import Catalog
from .access_paths import enumerate_paths
from .bound import BoundQueryBlock
from .cost import CostModel
from .joins import JoinSearch
from .orders import InterestingOrders, OrderKey
from .plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    HashJoinNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SegmentAccess,
    SortNode,
)
from .predicates import BooleanFactor
from .selectivity import SelectivityEstimator


def plan_summary(node: PlanNode) -> str:
    """A compact single-line rendering of a plan subtree."""
    if isinstance(node, ScanNode):
        if isinstance(node.access, SegmentAccess):
            return f"seg({node.alias})"
        return f"idx({node.alias}.{node.access.index.name})"
    if isinstance(node, NestedLoopJoinNode):
        return f"NL({plan_summary(node.outer)}, {plan_summary(node.inner)})"
    if isinstance(node, MergeJoinNode):
        return (
            f"MERGE({plan_summary(node.outer)}, {plan_summary(node.inner)} "
            f"on {node.outer_column}={node.inner_column})"
        )
    if isinstance(node, HashJoinNode):
        keys = ",".join(f"{o}={i}" for o, i in node.keys)
        grace = f" grace x{node.partitions}" if node.partitions > 1 else ""
        return (
            f"HASH({plan_summary(node.outer)}, build {plan_summary(node.inner)}"
            f"{grace} on {keys})"
        )
    if isinstance(node, SortNode):
        keys = ",".join(str(column) for column, __ in node.keys) or "?"
        return f"SORT({plan_summary(node.child)} by {keys})"
    if isinstance(node, FilterNode):
        return f"FILTER({plan_summary(node.child)})"
    if isinstance(node, (AggregateNode, ProjectNode, DistinctNode)):
        return f"{type(node).__name__}({plan_summary(node.child)})"
    children = ", ".join(plan_summary(child) for child in node.children())
    return f"{type(node).__name__}({children})"


def format_order(order_key: OrderKey) -> str:
    """Render an order key for the search-tree listings."""
    if not order_key:
        return "unordered"
    return "order<" + ",".join(str(class_id) for class_id in order_key) + ">"


def render_single_relation_paths(
    block: BoundQueryBlock,
    factors: list[BooleanFactor],
    catalog: Catalog,
    estimator: SelectivityEstimator,
    cost_model: CostModel,
    orders: InterestingOrders,
) -> str:
    """Figure 2: every access path per relation, with cost and ordering."""
    lines = ["Access paths for single relations (local predicates only):"]
    for entry in block.tables:
        alias = entry.alias
        local = [
            factor
            for factor in factors
            if factor.aliases == frozenset({alias})
        ]
        lines.append(f"  {alias} ({entry.table.name}):")
        candidates = enumerate_paths(
            alias, entry.table, local, catalog, estimator, cost_model, orders
        )
        best_total = min(
            cost_model.total(candidate.node.cost) for candidate in candidates
        )
        kept_orders: dict[OrderKey, float] = {}
        for candidate in candidates:
            total = cost_model.total(candidate.node.cost)
            key = candidate.order_key
            if key not in kept_orders or total < kept_orders[key]:
                kept_orders[key] = total
        for candidate in candidates:
            total = cost_model.total(candidate.node.cost)
            pruned = total > kept_orders[candidate.order_key] or (
                candidate.order_key == () and total > best_total
            )
            marker = "pruned" if pruned else "kept"
            lines.append(
                f"    {candidate.node.access.describe():<40s} "
                f"cost={total:8.2f} rows~{candidate.node.rows:8.1f} "
                f"{format_order(candidate.order_key):<14s} [{marker}]"
            )
    return "\n".join(lines)


def render_search_tree(search: JoinSearch, cost_model: CostModel) -> str:
    """Figures 3-6: the surviving DP solutions, by subset size."""
    lines = ["Join search tree (cheapest solution per relation set and order):"]
    # ``best`` is keyed by bitmask; translate to alias names for display.
    subsets = [(search.aliases_of(mask), mask) for mask in search.best]
    subsets.sort(key=lambda pair: (len(pair[0]), sorted(pair[0])))
    current_size = 0
    for aliases, mask in subsets:
        if len(aliases) != current_size:
            current_size = len(aliases)
            lines.append(f"-- {current_size} relation(s) --")
        name = "{" + ", ".join(sorted(aliases)) + "}"
        for order_key, entry in sorted(search.solutions_for(mask).items()):
            lines.append(
                f"  {name:<28s} {format_order(order_key):<14s} "
                f"cost={cost_model.total(entry.cost):10.2f} "
                f"rows~{entry.rows:10.1f}  {plan_summary(entry.plan)}"
            )
    return "\n".join(lines)


def solutions_table(
    search: JoinSearch, cost_model: CostModel, size: int
) -> list[dict]:
    """Structured dump of DP solutions of one subset size (for benchmarks)."""
    rows: list[dict] = []
    for mask in search.best:
        aliases = search.aliases_of(mask)
        if len(aliases) != size:
            continue
        for order_key, entry in search.solutions_for(mask).items():
            rows.append(
                {
                    "relations": tuple(sorted(aliases)),
                    "order": order_key,
                    "cost": cost_model.total(entry.cost),
                    "rows": entry.rows,
                    "plan": plan_summary(entry.plan),
                }
            )
    rows.sort(key=lambda row: (row["relations"], row["order"]))
    return rows
