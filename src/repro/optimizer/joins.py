"""Dynamic-programming join enumeration (Section 5).

The search finds the best join order by solving successively larger subsets
of the FROM list.  For every subset it keeps the cheapest solution per
interesting-order equivalence class plus the cheapest unordered solution.
Extensions are left-deep: the composite so far is the outer, the new
relation the inner, joined by nested loops (inner accessed through any of
its paths, join predicates becoming probe SARGs) or by merging scans (both
sides ordered on the join column, sorting whichever side lacks the order).

The join-order heuristic defers Cartesian products: a relation with no join
predicate linking it to the composite is considered only when no connected
relation remains.

Bounded search: given the planner's finished-total function, a search
over three or more relations first builds a greedy chain — from the
smallest relation, always joining the candidate extension with the fewest
estimated composite rows — through the same ``_extend`` the DP uses.  The
cheapest finished total of the chain's complete solutions is U, and the DP
then drops every non-final candidate whose total is strictly above U.  With
W >= 0 a plan's total never falls as it grows, so no such candidate can be
a prefix of a plan costing at most U, and the chosen plan is unchanged.

Representation: relation subsets are interned integer bitmasks.  Every
alias gets a bit position at construction; ``best``, the prune records,
and ``SearchStats.survivor_totals`` are keyed by ``int`` masks, relation
connectivity is a per-alias adjacency mask (``_connects`` is one AND),
and factor applicability is a subset test on precomputed factor masks.
Derived quantities the seed enumerator recomputed per candidate —
subset cardinalities, composite tuple widths, factor selectivities,
canonical order keys, and inner-relation access path enumerations (keyed
by the inner's buffer-fit level, ``_fit_level``) — are memoized, so the
per-extension constant factor stays close to the cost arithmetic itself
(the paper's "a few thousand instructions" claim, Section 8).
``aliases_of``/``mask_of`` translate at the boundary for audits and
rendering.

Admit, then build: an extension computes each candidate's pages and RSI
calls as floats, in the order ``Cost.__add__`` and ``nested_loop_cost``
use, so its total is the built plan's to the bit.  ``_admit`` settles
every counter and prune on that total, and only a candidate it admits
gets its ``Cost``, its join node and any sort node on a merge input.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from ..catalog.catalog import Catalog
from ..errors import PlannerError
from ..sql import ast
from .access_paths import (
    PathCandidate,
    enumerate_paths,
    inner_resident_cap,
    probe_factor,
)
from .bound import BoundColumn, BoundQueryBlock
from .cost import Cost, CostModel, tuple_byte_width
from .orders import InterestingOrders, OrderKey, UNORDERED
from .plan import (
    HashJoinNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    PlanNode,
    ScanNode,
    SortNode,
)
from .predicates import BooleanFactor, join_factor_as_sarg, partition_factors
from .selectivity import SelectivityEstimator


@dataclass
class JoinEntry:
    """The cheapest known solution for (relation subset, order class)."""

    plan: PlanNode
    order_key: OrderKey
    #: The plan's weighted total, ``CostModel.total(plan.cost)``.
    total: float

    @property
    def cost(self) -> Cost:
        """The entry's predicted cost."""
        return self.plan.cost

    @property
    def rows(self) -> float:
        """The entry's estimated output cardinality."""
        return self.plan.rows


@dataclass(frozen=True)
class PrunedCandidate:
    """A solution the DP discarded, kept for the prune audit.

    Recorded only under ``record_prunes`` (the ``REPRO_CHECK=1`` path):
    the cost auditor verifies that every pruned candidate really was no
    cheaper than the survivor of its (relation set, order class), and
    that every bound-pruned candidate really cost more than the bound.
    ``mask`` is the search's bitmask subset key; translate it through
    ``SearchStats.alias_order`` at the audit boundary.
    """

    mask: int
    order_key: OrderKey
    total: float


@dataclass
class SearchStats:
    """Bookkeeping for the optimization-cost experiments (E10, A3).

    An unbounded search (``search()`` with no argument, as the experiments
    run it) counts exactly the paper's DP.  Under the bound, the counters
    mean:

    - ``plans_considered`` also counts the greedy chain's candidates and
      every bound-pruned candidate: it is the work done.
    - ``entries_stored`` counts stored entries only, so it falls: a
      bound-pruned candidate is never stored.
    - ``subsets_expanded`` and ``extensions_pruned_by_heuristic`` keep
      their unbounded values: placeholders make the bounded DP visit every
      subset the unbounded one visits.
    - ``bound_prunes`` counts the candidates dropped for a total above
      ``bound``; it stays 0 in an unbounded search.

    When the bounded answer costs more than U and the search runs again
    unbounded, ``bound`` is ``inf`` and only ``plans_considered`` still
    counts the discarded attempt.
    """

    plans_considered: int = 0
    entries_stored: int = 0
    subsets_expanded: int = 0
    extensions_pruned_by_heuristic: int = 0
    bound_prunes: int = 0
    #: U, the greedy chain's cheapest finished total; ``inf`` when unbounded.
    bound: float = math.inf
    #: The finished total of the solution the planner chose (set by the
    #: planner; the bound audit checks it never exceeds ``bound``).
    chosen_total: float | None = None
    #: Bit position -> alias name, so mask keys can be translated back to
    #: relation sets outside the search (prune audit, rendering).
    alias_order: tuple[str, ...] = ()
    #: Filled only when the search runs with ``record_prunes=True``:
    #: dominance prunes, and bound prunes with their own totals.
    pruned: list[PrunedCandidate] = field(default_factory=list)
    bound_pruned: list[PrunedCandidate] = field(default_factory=list)
    survivor_totals: dict[tuple[int, OrderKey], float] = field(
        default_factory=dict
    )

    def aliases_of(self, mask: int) -> frozenset[str]:
        """Translate a subset bitmask back into its alias names."""
        return frozenset(
            alias
            for position, alias in enumerate(self.alias_order)
            if mask >> position & 1
        )


class JoinSearch:
    """One DP search over a bound query block's FROM list."""

    def __init__(
        self,
        block: BoundQueryBlock,
        factors: list[BooleanFactor],
        catalog: Catalog,
        estimator: SelectivityEstimator,
        cost_model: CostModel,
        orders: InterestingOrders,
        use_heuristic: bool = True,
        use_interesting_orders: bool = True,
        record_prunes: bool = False,
        use_hash_join: bool = True,
    ):
        self._block = block
        self._catalog = catalog
        self._estimator = estimator
        self._cost = cost_model
        self._orders = orders
        self._use_heuristic = use_heuristic
        self._use_orders = use_interesting_orders
        self._record_prunes = record_prunes
        self._use_hash = use_hash_join
        self.stats = SearchStats()

        self._aliases = block.aliases
        partition = partition_factors(factors, self._aliases)
        self._local = partition.local
        self._join_factors = partition.joins
        self._multi_factors = partition.multi
        self.constant_factors = partition.constant

        # -- bitmask universe: one bit per FROM-list alias -----------------
        self._bit_of: dict[str, int] = {
            alias: position for position, alias in enumerate(self._aliases)
        }
        count = len(self._aliases)
        self._full_mask = (1 << count) - 1
        self.stats.alias_order = tuple(self._aliases)

        # Per-alias adjacency: which other relations share a join factor.
        self._adjacency = [0] * count
        # Join/multi factors paired with their alias masks, and indexed by
        # the alias they touch (a factor becomes newly applicable only
        # through one of its own relations joining the composite).
        self._subset_factors: list[tuple[BooleanFactor, int]] = []
        self._joins_touching: list[list[tuple[BooleanFactor, int]]] = [
            [] for __ in range(count)
        ]
        self._multi_touching: list[list[tuple[BooleanFactor, int]]] = [
            [] for __ in range(count)
        ]
        for factor in self._join_factors:
            mask = self._mask_of_aliases(factor.aliases)
            self._subset_factors.append((factor, mask))
            for position in _bits(mask):
                self._adjacency[position] |= mask & ~(1 << position)
                self._joins_touching[position].append((factor, mask))
        for factor in self._multi_factors:
            mask = self._mask_of_aliases(factor.aliases)
            self._subset_factors.append((factor, mask))
            for position in _bits(mask):
                self._multi_touching[position].append((factor, mask))

        # Per-alias constants, fetched exactly once per search.
        self._tables = [self._block.alias_table(alias) for alias in self._aliases]
        self._alias_bytes = [tuple_byte_width(table) for table in self._tables]
        self._alias_rows = [0.0] * count

        # Memoization layers for the extension loop.
        self._selectivity_cache: dict[int, tuple[BooleanFactor, float]] = {}
        self._subset_rows_cache: dict[int, float] = {}
        self._composite_bytes_cache: dict[int, int] = {}
        self._plain_paths: list[list[PathCandidate]] = [[] for __ in range(count)]
        self._merge_side: dict[int, tuple[PathCandidate, Cost, float]] = {}
        # Sorted buffer-fit thresholds per alias, built on first use by
        # ``_fit_level``.
        self._fit_thresholds: list[list[float] | None] = [None] * count
        self._inner_paths: dict[
            tuple[int, tuple[int, ...], int],
            list[tuple[PathCandidate, float | None]],
        ] = {}
        self._cheapest_inner: dict[
            tuple[int, tuple[int, ...], int, float],
            tuple[PathCandidate, float | None, float, float],
        ] = {}
        #: Non-final candidates with a total above this are dropped.
        self._bound = math.inf

        #: Per subset mask, the cheapest entry per order class.  ``None``
        #: holds the place of a class whose candidates were all bound-pruned:
        #: the unbounded search's first candidate would have taken that
        #: place, so subsets and classes keep the unbounded order and ties
        #: between equal-cost plans fall the same way.
        self.best: dict[int, dict[OrderKey, JoinEntry | None]] = {}
        self._masks_by_size: list[list[int]] = [
            [] for __ in range(count + 1)
        ]

    # -- public API -------------------------------------------------------------

    def search(
        self,
        finished_total: Callable[[dict[OrderKey, JoinEntry]], float]
        | None = None,
    ) -> dict[OrderKey, JoinEntry]:
        """Run the DP; returns the solutions for the full FROM list.

        ``finished_total`` maps complete solutions to the cheapest total a
        finished plan built from them costs (required sort included).  When
        given and the block has three or more relations, the DP is bounded
        by that total over the greedy chain's solutions (module docstring).
        """
        for alias in self._aliases:
            self._seed_single(alias)
        if finished_total is not None and len(self._aliases) >= 3:
            bound = finished_total(self._greedy_chain())
            # Two float sums of one mathematical total may differ in the
            # last bits; the slack keeps such a tie from deciding a prune.
            self._bound = bound * (1.0 + _BOUND_SLACK)
            self._expand_all()
            found = self.solutions_for(self._full_mask)
            if found and finished_total(found) <= self._bound:
                self.stats.bound = bound
            else:
                self._search_again_unbounded()
        else:
            self._expand_all()
        solutions = self.solutions_for(self._full_mask)
        if not solutions:
            raise PlannerError("join search produced no complete solution")
        if self._record_prunes:
            # Snapshot the survivors so the prune audit can replay every
            # discard decision against the entry that beat it.
            for mask, entries in self.best.items():
                for key, entry in entries.items():
                    if entry is not None:
                        self.stats.survivor_totals[(mask, key)] = entry.total
        return solutions

    def _expand_all(self) -> None:
        for size in range(2, len(self._aliases) + 1):
            for mask in list(self._masks_by_size[size - 1]):
                self.stats.subsets_expanded += 1
                for position in self._candidate_extensions(mask):
                    self._extend(mask, position)

    def _search_again_unbounded(self) -> None:
        """Discard a bounded answer dearer than U and run the plain DP.

        The DP keeps one entry per (subset, order class), and the cheaper
        entry may claim more buffer, making its extensions dearer: under
        buffer pressure the DP's answer can cost more than the chain's.
        Its prefixes may then lie above U.  The search restarts from fresh
        stats and seeds; only ``plans_considered`` keeps the discarded work.
        """
        self.stats = SearchStats(
            alias_order=self.stats.alias_order,
            plans_considered=self.stats.plans_considered,
        )
        self.best.clear()
        for masks in self._masks_by_size:
            masks.clear()
        self._bound = math.inf
        for alias in self._aliases:
            self._seed_single(alias)
        self._expand_all()

    def _forget_composites(self) -> None:
        """Drop every multi-relation entry, leaving only the seeds."""
        for masks in self._masks_by_size[2:]:
            for mask in masks:
                del self.best[mask]
            masks.clear()

    def _greedy_chain(self) -> dict[OrderKey, JoinEntry]:
        """Build one left-deep chain of the DP's own extensions.

        Starts from the relation with the fewest estimated rows and joins,
        at each step, the candidate extension whose composite has the fewest
        estimated rows.  Returns the chain's complete solutions and leaves
        only the seeds in the solution table.  The chain runs with its own
        scratch stats, so none of its prune records reach the prune audit;
        its candidates are added to ``plans_considered``.  The memo caches
        it fills are kept for the DP.
        """
        stats, self.stats = self.stats, SearchStats()
        mask = 1 << min(range(len(self._aliases)), key=self._alias_rows.__getitem__)
        while mask != self._full_mask:
            position = min(
                self._candidate_extensions(mask),
                key=lambda p: self._subset_rows(mask | 1 << p),
            )
            self._extend(mask, position)
            mask |= 1 << position
        solutions = self.solutions_for(mask)
        self._forget_composites()
        stats.plans_considered += self.stats.plans_considered
        self.stats = stats
        return solutions

    def mask_of(self, aliases: Iterable[str]) -> int:
        """The bitmask subset key for a collection of alias names."""
        return self._mask_of_aliases(aliases)

    def aliases_of(self, mask: int) -> frozenset[str]:
        """The alias names a bitmask subset key denotes."""
        return self.stats.aliases_of(mask)

    def solutions_for(
        self, aliases: Iterable[str] | int
    ) -> dict[OrderKey, JoinEntry]:
        """Surviving entries for one relation subset (names or mask)."""
        mask = aliases if isinstance(aliases, int) else self.mask_of(aliases)
        table = self.best.get(mask, {})
        return {key: entry for key, entry in table.items() if entry is not None}

    def cheapest(self, solutions: dict[OrderKey, JoinEntry]) -> JoinEntry:
        """The minimum-total entry of a solution set."""
        return min(solutions.values(), key=_total)

    def total_entries(self) -> int:
        """Entries stored across all subsets (the 2^n-bound metric)."""
        return sum(len(_live(entries)) for entries in self.best.values())

    # -- DP seeding and extension ---------------------------------------------------

    def _seed_single(self, alias: str) -> None:
        position = self._bit_of[alias]
        table = self._tables[position]
        candidates = enumerate_paths(
            alias,
            table,
            self._local[alias],
            self._catalog,
            self._estimator,
            self._cost,
            self._orders,
        )
        self._plain_paths[position] = candidates
        rows = self._cost.ncard(table)
        for factor in self._local[alias]:
            rows *= self._factor_selectivity(factor)
        self._alias_rows[position] = rows
        mask = 1 << position
        for candidate in candidates:
            key = self._canonical(candidate.order_key)
            total = self._cost.total(candidate.node.cost)
            if self._admit(mask, key, total):
                self.best[mask][key] = JoinEntry(candidate.node, key, total)

    def _candidate_extensions(self, mask: int) -> list[int]:
        remaining_mask = self._full_mask & ~mask
        if not remaining_mask:
            return []
        remaining = list(_bits(remaining_mask))
        if not self._use_heuristic:
            return remaining
        connected = [
            position
            for position in remaining
            if self._adjacency[position] & mask
        ]
        if connected:
            self.stats.extensions_pruned_by_heuristic += len(remaining) - len(
                connected
            )
            return connected
        return remaining  # Cartesian product cannot be deferred any further

    def _connects(self, alias: str, mask: int) -> bool:
        return bool(self._adjacency[self._bit_of[alias]] & mask)

    def _extend(self, mask: int, position: int) -> None:
        bit = 1 << position
        new_mask = mask | bit
        rows_out = self._subset_rows(new_mask)
        connecting = [
            factor
            for factor, factor_mask in self._joins_touching[position]
            if not factor_mask & ~new_mask
        ]
        if not _live(self.best[mask]):
            self._hold_extension_places(mask, position, new_mask, connecting)
            return
        newly_applicable = [
            factor.expr
            for factor, factor_mask in self._multi_touching[position]
            if not factor_mask & ~new_mask
        ]
        self._extend_nested_loop(
            mask, position, new_mask, rows_out, connecting, newly_applicable
        )
        self._extend_merge(
            mask, position, new_mask, rows_out, connecting, newly_applicable
        )
        if self._use_hash:
            self._extend_hash(
                mask, position, new_mask, rows_out, connecting, newly_applicable
            )

    def _hold_extension_places(
        self,
        mask: int,
        position: int,
        new_mask: int,
        connecting: list[BooleanFactor],
    ) -> None:
        """Extend a subset whose entries were all bound-pruned.

        Every candidate would cost more than its pruned outer, so none is
        built; only the order classes the nested-loop, merge and hash
        candidates would have reached are held, in their unbounded order.
        """
        table = self._table(new_mask)
        for key in self.best[mask]:
            table.setdefault(key, None)
        alias = self._aliases[position]
        equijoins = [
            f for f in connecting if f.join is not None and f.join.is_equijoin
        ]
        for factor in equijoins:
            join = factor.join
            assert join is not None
            merge_class = self._orders.class_of_column(join.column_for(alias))
            table.setdefault(self._canonical((merge_class,)), None)
        if (
            self._use_hash
            and equijoins
            and self._alias_rows[position] <= self._subset_rows(mask)
        ):
            table.setdefault(UNORDERED, None)

    # -- nested loops ---------------------------------------------------------------

    def _extend_nested_loop(
        self,
        mask: int,
        position: int,
        new_mask: int,
        rows_out: float,
        connecting: list[BooleanFactor],
        extra_residual: list[ast.Expr],
    ) -> None:
        alias = self._aliases[position]
        probe_ids = tuple(id(factor) for factor in connecting)
        w = self._cost.w
        for key, entry in list(self.best[mask].items()):
            if entry is None:
                self._table(new_mask).setdefault(key, None)
                continue
            outer = entry.plan
            # Buffer pages left for the inner depend on how much of the
            # pool the outer pipeline (including prior resident inners)
            # already claims.
            available = self._cost.inner_available_buffer(outer.buffer_claim)
            inner, cap, inner_pages, inner_rsi = self._cheapest_inner_for(
                position, connecting, probe_ids, available, outer.rows
            )
            self.stats.plans_considered += 1
            # ``nested_loop_cost``: the outer's cost plus N probes.
            pages = outer.cost.pages + inner_pages
            rsi = outer.cost.rsi + inner_rsi
            total = pages + w * rsi
            self._check_monotone("nested-loop", outer, pages, rsi)
            if not self._admit(new_mask, key, total):
                continue
            join_residual = [
                factor.expr
                for factor in connecting
                if join_factor_as_sarg(factor, alias) is None
            ]
            self.best[new_mask][key] = JoinEntry(
                NestedLoopJoinNode(
                    outer=outer,
                    inner=inner.node,
                    residual=join_residual + extra_residual,
                    cost=Cost(pages, rsi),
                    rows=rows_out,
                    order_columns=outer.order_columns,
                    buffer_claim=outer.buffer_claim
                    + (cap if cap is not None else 2.0),
                ),
                key,
                total,
            )

    def _fit_level(self, position: int, available: float) -> int:
        """How many of the alias's buffer-fit thresholds ``available``
        reaches: its footprints with the segment (TCARD/P) and with each
        index (TCARD + NINDX), as ``relation_resident_pages`` gives them.

        ``enumerate_paths`` (through ``_relation_fits_in_buffer``) and
        ``inner_resident_cap`` read the inner's available buffer only in
        ``footprint <= available`` tests against exactly these footprints,
        so two buffers at one level cost every inner path alike.
        """
        thresholds = self._fit_thresholds[position]
        if thresholds is None:
            table = self._tables[position]
            thresholds = self._fit_thresholds[position] = sorted(
                self._cost.relation_resident_pages(table, index)
                for index in [None, *self._catalog.indexes_on(table.name)]
            )
        return bisect_right(thresholds, available)

    def _cheapest_inner_for(
        self,
        position: int,
        connecting: list[BooleanFactor],
        probe_ids: tuple[int, ...],
        available: float,
        outer_rows: float,
    ) -> tuple[PathCandidate, float | None, float, float]:
        """The inner path (with its cap) cheapest under ``outer_rows``
        probes, and the pages and RSI calls those probes add, memoized: the
        choice depends on nothing else."""
        key = (position, probe_ids, self._fit_level(position, available), outer_rows)
        cached = self._cheapest_inner.get(key)
        if cached is None:
            # ``nested_loop_cost`` over the probes alone, as floats.
            probes = max(0.0, outer_rows)
            options: list[tuple[PathCandidate, float | None, float, float]] = []
            for candidate, cap in self._inner_candidates(
                position, connecting, probe_ids, available
            ):
                cost = candidate.node.cost
                pages = cost.pages * probes
                if cap is not None:
                    pages = min(pages, cap)
                options.append((candidate, cap, pages, cost.rsi * probes))
            w = self._cost.w
            cached = self._cheapest_inner[key] = min(
                options, key=lambda option: option[2] + w * option[3]
            )
        return cached

    def _inner_candidates(
        self,
        position: int,
        connecting: list[BooleanFactor],
        probe_ids: tuple[int, ...],
        available: float,
    ) -> list[tuple[PathCandidate, float | None]]:
        """Costed inner paths with their resident caps, memoized.

        Many outer entries share one buffer fit level, and many subsets
        share one connecting-factor set: the (alias, probes, fit level)
        triple fully determines the candidate list, so the seed's
        per-entry ``enumerate_paths`` call collapses into a dict hit.
        """
        key = (position, probe_ids, self._fit_level(position, available))
        cached = self._inner_paths.get(key)
        if cached is None:
            alias = self._aliases[position]
            candidates = enumerate_paths(
                alias,
                self._tables[position],
                self._local[alias],
                self._catalog,
                self._estimator,
                self._cost,
                self._orders,
                probe_factors=[
                    probe_factor(factor, sarg)
                    for factor in connecting
                    if (sarg := join_factor_as_sarg(factor, alias)) is not None
                ],
                available_buffer=available,
            )
            cached = self._inner_paths[key] = [
                (
                    candidate,
                    inner_resident_cap(self._cost, candidate.node, available),
                )
                for candidate in candidates
            ]
        return cached

    # -- merging scans ----------------------------------------------------------------

    def _extend_merge(
        self,
        mask: int,
        position: int,
        new_mask: int,
        rows_out: float,
        connecting: list[BooleanFactor],
        extra_residual: list[ast.Expr],
    ) -> None:
        equijoins = [
            f for f in connecting if f.join is not None and f.join.is_equijoin
        ]
        if not equijoins:
            return
        alias = self._aliases[position]
        inner_rows = self._alias_rows[position]
        entries = _live(self.best[mask])
        cheapest_outer = min(entries, key=_total)
        w = self._cost.w
        for merge_factor in equijoins:
            join = merge_factor.join
            assert join is not None
            inner_column = join.column_for(alias)
            outer_column = join.other_column(alias)
            merge_class = self._orders.class_of_column(inner_column)
            key = self._canonical((merge_class,))
            matches = self._merge_matches(mask, position, merge_factor)
            inner_options = self._merge_inner_options(
                position, inner_column, merge_class, inner_rows, matches
            )
            outer_options = self._merge_outer_options(
                mask, entries, cheapest_outer, outer_column, merge_class
            )
            for outer in outer_options:
                for inner in inner_options:
                    self.stats.plans_considered += 1
                    pages = outer.cost.pages + inner.cost.pages
                    rsi = outer.cost.rsi + inner.cost.rsi
                    total = pages + w * rsi
                    self._check_monotone("merge", outer, pages, rsi)
                    if not self._admit(new_mask, key, total):
                        continue
                    residual = [
                        f.expr for f in equijoins if f is not merge_factor
                    ] + [
                        f.expr
                        for f in connecting
                        if f.join is not None and not f.join.is_equijoin
                    ] + extra_residual
                    outer_plan = outer.build()
                    inner_plan = inner.build()
                    self.best[new_mask][key] = JoinEntry(
                        MergeJoinNode(
                            outer=outer_plan,
                            inner=inner_plan,
                            outer_column=outer_column,
                            inner_column=inner_column,
                            residual=residual,
                            cost=Cost(pages, rsi),
                            rows=rows_out,
                            order_columns=(
                                (outer_column.alias, outer_column.position),
                            ),
                            buffer_claim=outer_plan.buffer_claim
                            + inner_plan.buffer_claim,
                        ),
                        key,
                        total,
                    )

    def _merge_inner_side(
        self, position: int
    ) -> tuple[PathCandidate, Cost, float]:
        """Per-alias constants of the sorted-inner option, memoized:
        the cheapest plain path, its sort build cost, and TEMPPAGES."""
        cached = self._merge_side.get(position)
        if cached is None:
            plain_paths = self._plain_paths[position]
            cheapest = min(
                plain_paths, key=lambda c: self._cost.total(c.node.cost)
            )
            inner_rows = self._alias_rows[position]
            inner_bytes = self._alias_bytes[position]
            temp_pages = self._cost.temp_pages(inner_rows, inner_bytes)
            build = self._cost.sort_build_cost(
                cheapest.node.cost, inner_rows, inner_bytes
            )
            cached = self._merge_side[position] = (cheapest, build, temp_pages)
        return cached

    def _merge_inner_options(
        self,
        position: int,
        inner_column: BoundColumn,
        merge_class: int,
        inner_rows: float,
        matches: float,
    ) -> list[_MergeInput]:
        """Ways to present the inner relation in join-column order.

        Either an index path already ordered on the merge class, or the
        cheapest path sorted into a temporary list.  The option's cost is
        the *total* inner-side contribution: one ordered pass plus the RSI
        traffic of emitting matches (group re-reads included).
        """
        options: list[_MergeInput] = []
        for candidate in self._plain_paths[position]:
            if candidate.order_key[:1] == (merge_class,):
                cost = Cost(
                    pages=candidate.node.cost.pages,
                    rsi=max(candidate.node.cost.rsi, matches),
                )
                options.append(
                    _MergeInput(cost, self._cost.total(cost), candidate.node)
                )
        cheapest, build, temp_pages = self._merge_inner_side(position)
        sort_total = build + Cost(pages=temp_pages, rsi=max(inner_rows, matches))
        self._check_monotone(
            "sorted-inner", cheapest.node, sort_total.pages, sort_total.rsi
        )
        options.append(
            _MergeInput(
                sort_total, self._cost.total(sort_total), cheapest.node, inner_column
            )
        )
        # Keep at most the two cheapest inner options; more never win.
        options.sort(key=_total)
        return options[:2]

    def _merge_outer_options(
        self,
        mask: int,
        entries: list[JoinEntry],
        cheapest: JoinEntry,
        outer_column: BoundColumn,
        merge_class: int,
    ) -> list[_MergeInput]:
        """Outer sides ordered on the merge class: reuse an order or sort."""
        options: list[_MergeInput] = []
        for entry in entries:
            if entry.order_key[:1] == (merge_class,):
                options.append(_MergeInput(entry.cost, entry.total, entry.plan))
        outer_bytes = self._composite_bytes(mask)
        build = self._cost.sort_build_cost(
            cheapest.cost, cheapest.rows, outer_bytes
        )
        sort_cost = build + self._cost.temp_scan_cost(cheapest.rows, outer_bytes)
        self._check_monotone(
            "sorted-outer", cheapest.plan, sort_cost.pages, sort_cost.rsi
        )
        options.append(
            _MergeInput(
                sort_cost, self._cost.total(sort_cost), cheapest.plan, outer_column
            )
        )
        options.sort(key=_total)
        return options[:2]

    # -- hash join --------------------------------------------------------------------

    def _extend_hash(
        self,
        mask: int,
        position: int,
        new_mask: int,
        rows_out: float,
        connecting: list[BooleanFactor],
        extra_residual: list[ast.Expr],
    ) -> None:
        """Hash the new relation and probe it with the composite.

        The new relation is the build side, so a candidate is recorded
        only when its cardinality does not exceed the composite's (the
        build-side rule: hash the smaller input).  The DP enumerates the
        mirrored join order separately, which covers the opposite case.
        All connecting equijoins become hash-key pairs; everything else
        stays residual.  Hash output carries no order, so the plan is
        recorded UNORDERED and competes against sort-enforced ordered
        plans at solution choice.
        """
        equijoins = [
            f for f in connecting if f.join is not None and f.join.is_equijoin
        ]
        if not equijoins:
            return
        alias = self._aliases[position]
        build_rows = self._alias_rows[position]
        probe_rows = self._subset_rows(mask)
        if build_rows > probe_rows:
            return
        build = min(
            (
                candidate
                for candidate in self._plain_paths[position]
                if isinstance(candidate.node, ScanNode)
            ),
            key=lambda c: self._cost.total(c.node.cost),
        )
        matches = probe_rows * build_rows
        for factor in equijoins:
            matches *= self._factor_selectivity(factor)
        outer = min(_live(self.best[mask]), key=_total)
        available = self._cost.inner_available_buffer(outer.plan.buffer_claim)
        inner_bytes = self._alias_bytes[position]
        self.stats.plans_considered += 1
        cost, partitions = self._cost.hash_join_cost(
            outer.cost,
            outer.rows,
            build.node.cost,
            build_rows,
            matches,
            self._composite_bytes(mask),
            inner_bytes,
            available_buffer=available,
        )
        self._check_monotone("hash", outer.plan, cost.pages, cost.rsi)
        total = self._cost.total(cost)
        if not self._admit(new_mask, UNORDERED, total):
            return
        keys: list[tuple[BoundColumn, BoundColumn]] = []
        for factor in equijoins:
            join = factor.join
            assert join is not None
            keys.append((join.other_column(alias), join.column_for(alias)))
        residual = [
            f.expr
            for f in connecting
            if f.join is None or not f.join.is_equijoin
        ] + extra_residual
        build_pages = self._cost.temp_pages(build_rows, inner_bytes)
        self.best[new_mask][UNORDERED] = JoinEntry(
            HashJoinNode(
                outer=outer.plan,
                inner=build.node,
                keys=keys,
                residual=residual,
                matches=matches,
                partitions=partitions,
                cost=cost,
                rows=rows_out,
                order_columns=(),
                buffer_claim=outer.plan.buffer_claim
                + min(build_pages, available),
            ),
            UNORDERED,
            total,
        )

    # -- estimates --------------------------------------------------------------------

    def _subset_rows(self, mask: int) -> float:
        rows = self._subset_rows_cache.get(mask)
        if rows is None:
            rows = 1.0
            for position in _bits(mask):
                rows *= self._alias_rows[position]
            for factor, factor_mask in self._subset_factors:
                if not factor_mask & ~mask:
                    rows *= self._factor_selectivity(factor)
            self._subset_rows_cache[mask] = rows
        return rows

    def _merge_matches(
        self, mask: int, position: int, merge_factor: BooleanFactor
    ) -> float:
        """Expected tuples crossing the inner RSI during the merge."""
        return (
            self._subset_rows(mask)
            * self._alias_rows[position]
            * self._factor_selectivity(merge_factor)
        )

    def _factor_selectivity(self, factor: BooleanFactor) -> float:
        key = id(factor)
        cached = self._selectivity_cache.get(key)
        if cached is None:
            # The factor reference in the value pins the object alive, so
            # its id cannot be recycled while the cache holds it.
            cached = self._selectivity_cache[key] = (
                factor,
                self._estimator.factor_selectivity(factor),
            )
        return cached[1]

    def _composite_bytes(self, mask: int) -> int:
        cached = self._composite_bytes_cache.get(mask)
        if cached is None:
            cached = self._composite_bytes_cache[mask] = sum(
                self._alias_bytes[position] for position in _bits(mask)
            )
        return cached

    # -- solution table ----------------------------------------------------------------

    def _mask_of_aliases(self, aliases: Iterable[str]) -> int:
        mask = 0
        for alias in aliases:
            mask |= 1 << self._bit_of[alias]
        return mask

    def _canonical(self, order: OrderKey) -> OrderKey:
        if not self._use_orders:
            return UNORDERED
        return self._orders.canonicalize(order)

    def _check_monotone(
        self, method: str, outer: PlanNode | _MergeInput, pages: float, rsi: float
    ) -> None:
        """Under ``record_prunes``: an extension never costs less than its
        outer input, the premise that makes the bound exact.  Every
        candidate is checked, built or not."""
        if self._record_prunes and pages + self._cost.w * rsi < self._cost.total(
            outer.cost
        ):
            # Imported lazily: the analysis package imports the optimizer.
            from ..analysis.plan_check import PlanCheckError, Violation

            raise PlanCheckError(
                [
                    Violation(
                        "extension-not-monotone",
                        outer.label(),
                        f"{method} extension costs {Cost(pages, rsi)}, below "
                        f"its outer input's {outer.cost}",
                    )
                ]
            )

    def _table(self, mask: int) -> dict[OrderKey, JoinEntry | None]:
        table = self.best.get(mask)
        if table is None:
            table = self.best[mask] = {}
            self._masks_by_size[mask.bit_count()].append(mask)
        return table

    def _admit(self, mask: int, key: OrderKey, total: float) -> bool:
        """Count one candidate for (``mask``, ``key``) and decide, from its
        total alone, whether it becomes that class's entry.

        True means the caller builds the plan and stores it in ``best``;
        every other outcome (bound prune, placeholder, dominance prune and
        its audit record) is settled here, before anything is built.
        """
        self.stats.plans_considered += 1
        if total > self._bound and mask != self._full_mask:
            self.stats.bound_prunes += 1
            if self._record_prunes:
                self.stats.bound_pruned.append(PrunedCandidate(mask, key, total))
            self._table(mask).setdefault(key, None)
            return False
        table = self.best.get(mask)
        if table is None:
            table = self._table(mask)
        existing = table.get(key)
        if existing is None:
            self.stats.entries_stored += 1
            return True
        if total < existing.total:
            if self._record_prunes:
                self.stats.pruned.append(PrunedCandidate(mask, key, existing.total))
            return True
        if self._record_prunes:
            self.stats.pruned.append(PrunedCandidate(mask, key, total))
        return False


class _MergeInput(NamedTuple):
    """One way to present a merge input in join-column order.

    Either ``plan`` already has the order (``sort_on`` is None), or it is
    the input a sort on ``sort_on`` would read; the sort node is built only
    for a merge candidate the DP keeps.  ``cost`` is the input's whole
    contribution to the merge.
    """

    cost: Cost
    total: float
    plan: PlanNode
    sort_on: BoundColumn | None = None

    def build(self) -> PlanNode:
        """The input's plan, sort node included."""
        column = self.sort_on
        if column is None:
            return self.plan
        return SortNode(
            child=self.plan,
            keys=[(column, False)],
            cost=self.cost,
            rows=self.plan.rows,
            order_columns=((column.alias, column.position),),
        )

    def label(self) -> str:
        """The built plan's label (for check violations)."""
        return self.build().label()


#: Relative slack on U: a candidate is bound-pruned only when its total
#: exceeds U by more than float rounding can explain.
_BOUND_SLACK = 1e-9


def _total(item: JoinEntry | _MergeInput) -> float:
    """Sort and ``min`` key: an entry's or merge input's weighted total."""
    return item.total


def _live(table: dict[OrderKey, JoinEntry | None]) -> list[JoinEntry]:
    """A table's entries, without bound-pruned placeholders."""
    return [entry for entry in table.values() if entry is not None]


def _bits(mask: int):
    """Bit positions set in ``mask``, lowest first."""
    position = 0
    while mask:
        if mask & 1:
            yield position
        mask >>= 1
        position += 1
