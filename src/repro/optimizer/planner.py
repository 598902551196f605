"""Whole-statement planning: the OPTIMIZER's access path selection phase.

For each query block: convert the WHERE tree to boolean factors, build the
interesting-order equivalence classes, run the join search, then pick the
cheapest complete solution — comparing order-satisfying solutions against
the cheapest unordered solution plus the cost of sorting QCARD tuples —
and wrap it with grouping, ordering, projection, and duplicate elimination.

Nested query blocks are planned recursively; at execution time uncorrelated
subqueries are evaluated once before first use and correlated subqueries
are re-evaluated per referenced candidate tuple (Section 6).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..catalog.catalog import Catalog
from ..sql import ast
from .binder import Binder
from .bound import BoundColumn, BoundQueryBlock
from .cost import Cost, CostModel, DEFAULT_W, tuple_byte_width
from .joins import JoinSearch, SearchStats
from .orders import InterestingOrders
from .plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    PlanNode,
    ProjectNode,
    SortNode,
)
from .predicates import BooleanFactor, to_cnf_factors
from .selectivity import SelectivityEstimator


def check_enabled() -> bool:
    """Whether the ``REPRO_CHECK`` environment flag requests verification.

    With ``REPRO_CHECK=1`` every ``plan_query()`` result is statically
    verified (structural plan check, cost audit, DP prune audit) before it
    is returned; a violated invariant raises
    :class:`~repro.analysis.plan_check.PlanCheckError` instead of silently
    running a wrong plan.
    """
    return os.environ.get("REPRO_CHECK", "") not in ("", "0")


def hash_join_enabled() -> bool:
    """Whether the DP search offers hash join as a join method.

    On by default; ``REPRO_HASHJOIN=0`` (or ``off``) restricts the search
    to the paper's NL/merge repertoire — the switch the equivalence tests
    use.
    """
    return os.environ.get("REPRO_HASHJOIN", "") not in ("0", "off")


@dataclass
class CorrelationInfo:
    """One correlated subquery's cost profile for ordering decisions (§6)."""

    column: BoundColumn  # this block's column the subquery references
    class_id: int
    eval_total: float  # weighted cost of one re-evaluation
    distinct: float  # expected distinct referenced values


@dataclass
class PlannedStatement:
    """A fully planned SELECT: plan tree plus everything needed to run it."""

    root: PlanNode
    block: BoundQueryBlock
    output_names: list[str]
    w: float
    qcard: float
    subquery_plans: dict[int, "PlannedStatement"] = field(default_factory=dict)
    search_stats: SearchStats | None = None
    factors: list[BooleanFactor] = field(default_factory=list)
    #: Weighted cost of nested-block evaluations (uncorrelated blocks once,
    #: correlated blocks per candidate tuple under the chosen order).
    nested_eval_total: float = 0.0

    @property
    def estimated_cost(self) -> Cost:
        """Predicted cost of the root plan node."""
        return self.root.cost

    def estimated_total(self) -> float:
        """Weighted total including nested-block evaluation costs."""
        return self.root.cost.total(self.w) + self.nested_eval_total


class Optimizer:
    """Configurable access path selector.

    ``use_heuristic`` and ``use_interesting_orders`` exist for the ablation
    experiments; both default to the paper's behaviour.
    """

    def __init__(
        self,
        catalog: Catalog,
        w: float = DEFAULT_W,
        buffer_pages: int = 64,
        use_heuristic: bool = True,
        use_interesting_orders: bool = True,
        correlation_ordering: bool = True,
        verify_plans: bool | None = None,
        use_hash_join: bool | None = None,
    ):
        self._catalog = catalog
        self.w = w
        self._buffer_pages = buffer_pages
        self._use_heuristic = use_heuristic
        self._use_orders = use_interesting_orders
        #: None defers to the REPRO_HASHJOIN environment flag at plan time.
        self.use_hash_join = use_hash_join
        # §6: when the runtime skips re-evaluation on repeated referenced
        # values, plans ordered on the referenced column become attractive
        # ("it might even pay to sort the referenced relation").
        self._correlation_ordering = correlation_ordering
        #: None defers to the REPRO_CHECK environment flag at plan time.
        self.verify_plans = verify_plans
        self._estimator = SelectivityEstimator(catalog)
        self._cost_model = CostModel(catalog, w, buffer_pages)

    @property
    def cost_model(self) -> CostModel:
        """The cost model this optimizer prices plans with."""
        return self._cost_model

    @property
    def estimator(self) -> SelectivityEstimator:
        """The TABLE 1 selectivity estimator in use."""
        return self._estimator

    # -- entry points ------------------------------------------------------------

    def verification_enabled(self) -> bool:
        """Whether this optimizer statically verifies its own output."""
        if self.verify_plans is not None:
            return self.verify_plans
        return check_enabled()

    def hash_join_allowed(self) -> bool:
        """Whether the join search may consider hash joins."""
        if self.use_hash_join is not None:
            return self.use_hash_join
        return hash_join_enabled()

    def plan_query(self, query: ast.SelectQuery) -> PlannedStatement:
        """Bind and plan a parsed SELECT statement."""
        block = Binder(self._catalog).bind(query)
        planned = self.plan_block(block)
        if self.verification_enabled():
            # Imported lazily: the analysis package imports the optimizer.
            from ..analysis.plan_check import verify_planned

            verify_planned(planned, self._catalog)
        return planned

    def plan_block(self, block: BoundQueryBlock) -> PlannedStatement:
        """Plan one bound query block (nested blocks recursively)."""
        factors = to_cnf_factors(block.where, block)
        # Nested blocks are planned first: their evaluation costs feed the
        # outer block's ordering decisions (§6).
        subquery_plans = self._plan_subqueries(block)
        correlations = self._correlation_info(block, subquery_plans)
        orders = InterestingOrders(
            block,
            factors,
            extra_single_columns=[
                (info.column.alias, info.column.position)
                for info in correlations
            ],
        )
        for info in correlations:
            info.class_id = orders.class_of(
                (info.column.alias, info.column.position)
            )
        search = JoinSearch(
            block,
            factors,
            self._catalog,
            self._estimator,
            self._cost_model,
            orders,
            use_heuristic=self._use_heuristic,
            use_interesting_orders=self._use_orders,
            record_prunes=self.verification_enabled(),
            use_hash_join=self.hash_join_allowed(),
        )
        # Bounded by the greedy chain's finished total only where that
        # total is the one solution choice compares: correlated blocks add
        # re-evaluation costs there, so blocks with subqueries run unbounded.
        solutions = search.search(
            None
            if block.subqueries
            else lambda found: min(
                self._cost_model.total(plan.cost)
                for plan, __ in self._finished_candidates(
                    block, orders, found, []
                )
            )
        )
        root, correlation_total, search.stats.chosen_total = (
            self._choose_solution(block, orders, solutions, correlations)
        )
        root = self._apply_constant_factors(root, search.constant_factors)
        root = self._finish_block(block, factors, orders, root)

        uncorrelated_total = sum(
            subquery_plans[id(sub.block)].estimated_total()
            for sub in block.subqueries
            if not sub.block.is_correlated
        )
        planned = PlannedStatement(
            root=root,
            block=block,
            output_names=list(block.output_names),
            w=self.w,
            qcard=self._estimator.block_qcard(block, factors),
            search_stats=search.stats,
            factors=factors,
            subquery_plans=subquery_plans,
            nested_eval_total=uncorrelated_total + correlation_total,
        )
        return planned

    def run_join_search(
        self, block: BoundQueryBlock
    ) -> tuple[JoinSearch, InterestingOrders, list[BooleanFactor]]:
        """Expose the raw DP for the search-tree experiments (Figures 3-6)."""
        factors = to_cnf_factors(block.where, block)
        orders = InterestingOrders(block, factors)
        search = JoinSearch(
            block,
            factors,
            self._catalog,
            self._estimator,
            self._cost_model,
            orders,
            use_heuristic=self._use_heuristic,
            use_interesting_orders=self._use_orders,
            use_hash_join=self.hash_join_allowed(),
        )
        search.search()
        return search, orders, factors

    def wrap_plan(
        self,
        block: BoundQueryBlock,
        factors: list[BooleanFactor],
        root: PlanNode,
    ) -> PlannedStatement:
        """Finish an externally built join tree into a runnable statement.

        Used by the baseline planners: applies constant factors, guarantees
        the grouping order, adds aggregation / ORDER BY sort / projection /
        DISTINCT, and plans nested blocks.
        """
        from .predicates import partition_factors

        orders = InterestingOrders(block, factors)
        partition = partition_factors(factors, block.aliases)
        root = self._apply_constant_factors(root, partition.constant)
        if block.group_by:
            wanted = tuple(
                (column.alias, column.position) for column in block.group_by
            )
            if root.order_columns[: len(wanted)] != wanted:
                row_bytes = sum(
                    tuple_byte_width(entry.table) for entry in block.tables
                )
                root = self._sort_plan(
                    root,
                    [(column, False) for column in block.group_by],
                    row_bytes,
                )
        root = self._finish_block(block, factors, orders, root)
        planned = PlannedStatement(
            root=root,
            block=block,
            output_names=list(block.output_names),
            w=self.w,
            qcard=self._estimator.block_qcard(block, factors),
            factors=factors,
        )
        planned.subquery_plans = self._plan_subqueries(block)
        return planned

    # -- solution choice ------------------------------------------------------------

    def _choose_solution(
        self,
        block: BoundQueryBlock,
        orders: InterestingOrders,
        solutions,
        correlations: list["CorrelationInfo"],
    ) -> tuple[PlanNode, float, float]:
        """Pick the cheapest complete solution.

        Each candidate's total is its plan cost, plus — when required — the
        cost of sorting into the GROUP BY / ORDER BY order, plus the cost
        of re-evaluating correlated subqueries under the candidate's tuple
        order (ordered candidates amortize repeated referenced values).
        Returns the plan, its correlation term and its whole total.
        """
        best_plan: PlanNode | None = None
        best_total = float("inf")
        best_corr = 0.0
        for plan, order_key in self._finished_candidates(
            block, orders, solutions, correlations
        ):
            correlation_total = self._correlation_term(
                correlations, tuple(order_key), plan.rows
            )
            total = self._cost_model.total(plan.cost) + correlation_total
            if total < best_total:
                best_total = total
                best_plan = plan
                best_corr = correlation_total
        assert best_plan is not None
        return best_plan, best_corr, best_total

    def _finished_candidates(
        self,
        block: BoundQueryBlock,
        orders: InterestingOrders,
        solutions,
        correlations: list["CorrelationInfo"],
    ) -> list[tuple[PlanNode, tuple]]:
        """Complete solutions finished into the order the block requires.

        An entry lacking the GROUP BY / ORDER BY order gets the sort that
        supplies it.  When correlations exist, explicitly sorting on the
        referenced column is offered as its own candidate (§6).
        """
        # The required order (grouping correctness!) applies regardless of
        # whether interesting-order bookkeeping is enabled; with the
        # bookkeeping off, no entry carries an order, so a sort is added.
        required = orders.required_for_block(block)
        needs_sort_keys = self._required_sort_keys(block)
        composite_bytes = sum(
            tuple_byte_width(entry.table) for entry in block.tables
        )

        candidates: list[tuple[PlanNode, tuple]] = []
        for entry in solutions.values():
            if required and orders.satisfies(entry.order_key, required):
                candidates.append((entry.plan, entry.order_key))
            elif required:
                candidates.append(
                    (
                        self._sort_plan(
                            entry.plan, needs_sort_keys, composite_bytes
                        ),
                        required,
                    )
                )
            else:
                candidates.append((entry.plan, entry.order_key))
                # "It might even pay to sort the referenced relation": offer
                # a sorted variant per correlated reference.
                for info in correlations:
                    if entry.order_key[:1] == (info.class_id,):
                        continue
                    sorted_plan = self._sort_plan(
                        entry.plan, [(info.column, False)], composite_bytes
                    )
                    candidates.append((sorted_plan, (info.class_id,)))
        return candidates

    def _correlation_term(
        self,
        correlations: list["CorrelationInfo"],
        order_key: tuple,
        candidate_rows: float,
    ) -> float:
        """Predicted cost of correlated re-evaluations under a tuple order."""
        total = 0.0
        for info in correlations:
            if self._correlation_ordering and order_key[:1] == (info.class_id,):
                evaluations = min(max(1.0, candidate_rows), info.distinct)
            else:
                evaluations = max(1.0, candidate_rows)
            total += info.eval_total * evaluations
        return total

    def _correlation_info(
        self,
        block: BoundQueryBlock,
        subquery_plans: dict[int, PlannedStatement],
    ) -> list["CorrelationInfo"]:
        """Cost profiles of this block's correlated subqueries (§6).

        Only single-column correlations to this block produce a useful
        ordering; the "NCARD > ICARD clue" (an index on the referenced
        column) supplies the distinct-value estimate.
        """
        infos: list[CorrelationInfo] = []
        for subquery in block.subqueries:
            sub_block = subquery.block
            if not sub_block.is_correlated:
                continue
            local_refs = [
                column
                for column in sub_block.correlated_columns
                if column.block_id == block.block_id
            ]
            if len(local_refs) != 1:
                continue
            column = local_refs[0]
            icard = self._estimator.column_icard(column)
            if icard is None:
                distinct = max(
                    1.0,
                    self._estimator.relation_cardinality(column.table_name)
                    * 0.1,
                )
            else:
                distinct = float(icard)
            infos.append(
                CorrelationInfo(
                    column=column,
                    class_id=0,  # assigned once InterestingOrders exists
                    eval_total=subquery_plans[id(sub_block)].estimated_total(),
                    distinct=distinct,
                )
            )
        return infos

    def _required_sort_keys(
        self, block: BoundQueryBlock
    ) -> list[tuple[BoundColumn, bool]]:
        if block.group_by:
            return [(column, False) for column in block.group_by]
        return [(column, desc) for column, desc in block.order_by]

    def _sort_plan(
        self,
        child: PlanNode,
        keys: list[tuple[BoundColumn, bool]],
        row_bytes: int,
    ) -> SortNode:
        build = self._cost_model.sort_build_cost(child.cost, child.rows, row_bytes)
        read_back = self._cost_model.temp_scan_cost(child.rows, row_bytes)
        return SortNode(
            child=child,
            keys=list(keys),
            cost=build + read_back,
            rows=child.rows,
            order_columns=tuple(
                (column.alias, column.position) for column, __ in keys
            ),
        )

    def _apply_constant_factors(
        self, root: PlanNode, constant_factors: list[BooleanFactor]
    ) -> PlanNode:
        if not constant_factors:
            return root
        selectivity = 1.0
        for factor in constant_factors:
            selectivity *= self._estimator.factor_selectivity(factor)
        return FilterNode(
            child=root,
            predicates=[factor.expr for factor in constant_factors],
            cost=root.cost,
            rows=root.rows * selectivity,
            order_columns=root.order_columns,
        )

    def _finish_block(
        self,
        block: BoundQueryBlock,
        factors: list[BooleanFactor],
        orders: InterestingOrders,
        root: PlanNode,
    ) -> PlanNode:
        if block.is_aggregate:
            out_rows = self._estimator.block_output_cardinality(block, factors)
            root = AggregateNode(
                child=root,
                group_by=list(block.group_by),
                aggregates=list(block.aggregates),
                having=block.having,
                cost=root.cost,
                rows=out_rows,
                order_columns=tuple(
                    (column.alias, column.position) for column in block.group_by
                ),
            )
        if block.order_by:
            produced = root.order_columns
            wanted = tuple(
                (column.alias, column.position) for column, __ in block.order_by
            )
            ascending = all(not desc for __, desc in block.order_by)
            if self._use_orders:
                # Order equivalence classes: an order on one side of an
                # equi-join serves ORDER BY on the other side.
                produced_key = tuple(
                    orders.class_of(column) for column in produced
                )
                wanted_key = tuple(orders.class_of(column) for column in wanted)
            else:
                produced_key, wanted_key = produced, wanted
            already = ascending and produced_key[: len(wanted_key)] == wanted_key
            if not already:
                row_bytes = sum(
                    tuple_byte_width(entry.table) for entry in block.tables
                )
                root = self._sort_plan(
                    root,
                    [(column, desc) for column, desc in block.order_by],
                    row_bytes,
                )
        root = ProjectNode(
            child=root,
            exprs=list(block.select_exprs),
            names=list(block.output_names),
            cost=root.cost,
            rows=root.rows,
            order_columns=root.order_columns,
        )
        if block.distinct:
            root = DistinctNode(
                child=root,
                cost=root.cost,
                rows=root.rows,
                order_columns=root.order_columns,
            )
        return root

    # -- nested blocks ------------------------------------------------------------------

    def _plan_subqueries(
        self, block: BoundQueryBlock
    ) -> dict[int, PlannedStatement]:
        """Plan every nested block, returning the flat plan registry."""
        plans: dict[int, PlannedStatement] = {}
        for subquery in block.subqueries:
            child = self.plan_block(subquery.block)
            plans[id(subquery.block)] = child
            plans.update(child.subquery_plans)
        return plans
