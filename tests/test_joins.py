"""Unit tests for the dynamic-programming join enumeration."""

import math
import os
import random
from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.check import verifying_optimizer
from repro.analysis.plan_check import PlanCheckError

from repro.catalog import Catalog, IndexStats, RelationStats
from repro.datatypes import INTEGER
from repro.optimizer.binder import Binder
from repro.optimizer.cost import CostModel
from repro.optimizer import joins
from repro.optimizer.joins import JoinEntry, JoinSearch
from repro.optimizer.orders import InterestingOrders
from repro.optimizer.plan import (
    HashJoinNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    ScanNode,
    SortNode,
    render_plan,
    walk_plan,
)
from repro.optimizer.planner import Optimizer
from repro.optimizer.predicates import to_cnf_factors
from repro.optimizer.selectivity import SelectivityEstimator
from repro.sql import parse_statement
from repro.workloads.empdept import FIG1_QUERY
from repro.workloads.generator import (
    build_database,
    chain_join_query,
    clique_join_query,
    random_chain_spec,
    random_clique_spec,
    random_star_spec,
    star_join_query,
)


@pytest.fixture
def catalog():
    catalog = Catalog()
    for name, rows, pages in (("T1", 1000, 20), ("T2", 500, 10), ("T3", 100, 4)):
        catalog.create_table(
            name, [("ID", INTEGER), ("A", INTEGER), ("B", INTEGER)]
        )
        catalog.set_relation_stats(name, RelationStats(rows, pages, 1.0))
    catalog.create_index("T1_A", "T1", ["A"])
    catalog.set_index_stats("T1_A", IndexStats(40, 4, 1, 40))
    catalog.create_index("T2_A", "T2", ["A"])
    catalog.set_index_stats("T2_A", IndexStats(40, 3, 1, 40))
    catalog.create_index("T2_B", "T2", ["B"])
    catalog.set_index_stats("T2_B", IndexStats(25, 3, 1, 25))
    catalog.create_index("T3_B", "T3", ["B"])
    catalog.set_index_stats("T3_B", IndexStats(25, 2, 1, 25))
    return catalog


def search_for(catalog, sql, **kwargs) -> JoinSearch:
    block = Binder(catalog).bind(parse_statement(sql))
    factors = to_cnf_factors(block.where, block)
    orders = InterestingOrders(block, factors)
    search = JoinSearch(
        block,
        factors,
        catalog,
        SelectivityEstimator(catalog),
        CostModel(catalog, w=0.05),
        orders,
        **kwargs,
    )
    search.search()
    return search


CHAIN = (
    "SELECT * FROM T1, T2, T3 "
    "WHERE T1.A = T2.A AND T2.B = T3.B"
)


class TestSearchStructure:
    def test_all_single_subsets_seeded(self, catalog):
        search = search_for(catalog, CHAIN)
        for name in ("T1", "T2", "T3"):
            assert search.solutions_for({name})

    def test_full_solution_exists(self, catalog):
        search = search_for(catalog, CHAIN)
        assert search.solutions_for({"T1", "T2", "T3"})

    def test_heuristic_skips_cartesian_pair(self, catalog):
        search = search_for(catalog, CHAIN)
        # T1 and T3 are not directly connected: the pair must never form.
        assert not search.solutions_for({"T1", "T3"})

    def test_heuristic_disabled_allows_cartesian_pair(self, catalog):
        search = search_for(catalog, CHAIN, use_heuristic=False)
        assert search.solutions_for({"T1", "T3"})

    def test_heuristic_reduces_stored_entries(self, catalog):
        with_h = search_for(catalog, CHAIN)
        without_h = search_for(catalog, CHAIN, use_heuristic=False)
        assert with_h.total_entries() < without_h.total_entries()

    def test_same_best_cost_with_and_without_heuristic_when_connected(
        self, catalog
    ):
        model = CostModel(catalog, w=0.05)
        with_h = search_for(catalog, CHAIN)
        without_h = search_for(catalog, CHAIN, use_heuristic=False)
        full = {"T1", "T2", "T3"}
        best_with = min(
            model.total(e.cost) for e in with_h.solutions_for(full).values()
        )
        best_without = min(
            model.total(e.cost) for e in without_h.solutions_for(full).values()
        )
        # For a connected chain the heuristic loses nothing here.
        assert best_with <= best_without * 1.0001

    def test_storage_bound(self, catalog):
        # "At most 2^n subsets times the number of interesting orders."
        search = search_for(catalog, CHAIN)
        order_count = 3  # classes: A-class, B-class, plus unordered
        assert search.total_entries() <= (2**3) * order_count

    def test_disconnected_query_still_plans(self, catalog):
        search = search_for(catalog, "SELECT * FROM T1, T2 WHERE T1.ID = 5")
        full = {"T1", "T2"}
        assert search.solutions_for(full)
        entry = search.cheapest(search.solutions_for(full))
        assert isinstance(entry.plan, NestedLoopJoinNode)


class TestMethods:
    def test_both_methods_considered(self, catalog):
        search = search_for(catalog, CHAIN)
        full = {"T1", "T2", "T3"}
        kinds = set()
        for entry in search.solutions_for(full).values():
            for node in walk_plan(entry.plan):
                kinds.add(type(node))
        assert NestedLoopJoinNode in kinds or MergeJoinNode in kinds

    def test_merge_entry_carries_order(self, catalog):
        search = search_for(catalog, CHAIN)
        pair = {"T1", "T2"}
        ordered = [key for key in search.solutions_for(pair) if key]
        assert ordered  # some ordered solution exists for the join column

    def test_nested_loop_preserves_outer_order(self, catalog):
        search = search_for(catalog, CHAIN)
        pair = {"T1", "T2"}
        for key, entry in search.solutions_for(pair).items():
            if isinstance(entry.plan, NestedLoopJoinNode):
                assert entry.plan.order_columns == entry.plan.outer.order_columns

    def test_interesting_orders_disabled_keeps_single_entry(self, catalog):
        search = search_for(catalog, CHAIN, use_interesting_orders=False)
        for entries in search.best.values():
            assert len(entries) == 1

    def test_orders_enabled_never_costs_more(self, catalog):
        model = CostModel(catalog, w=0.05)
        full = {"T1", "T2", "T3"}
        with_orders = search_for(catalog, CHAIN)
        without = search_for(catalog, CHAIN, use_interesting_orders=False)
        best_with = min(
            model.total(e.cost) for e in with_orders.solutions_for(full).values()
        )
        best_without = min(
            model.total(e.cost) for e in without.solutions_for(full).values()
        )
        assert best_with <= best_without * 1.0001


class TestEstimates:
    def test_rows_independent_of_join_order(self, catalog):
        search = search_for(catalog, CHAIN)
        full = {"T1", "T2", "T3"}
        rows = {round(entry.rows, 6) for entry in search.solutions_for(full).values()}
        assert len(rows) == 1  # "cardinality is the same regardless of order"

    def test_stats_populated(self, catalog):
        search = search_for(catalog, CHAIN)
        assert search.stats.plans_considered > 0
        assert search.stats.entries_stored > 0
        assert search.stats.subsets_expanded > 0


# ---------------------------------------------------------------------------
# the bounded search: same plan as the unbounded DP, less work
# ---------------------------------------------------------------------------

_search = JoinSearch.search


@contextmanager
def unbounded():
    """Plan as the unbounded DP does: the planner's bound is ignored."""
    with mock.patch.object(
        JoinSearch, "search", lambda self, finished_total=None: _search(self)
    ):
        yield


@lru_cache(maxsize=16)
def _generated(topology: str, relations: int, seed: int):
    rng = random.Random(seed)
    if topology == "chain":
        specs = random_chain_spec(relations, rng, min_rows=20, max_rows=150)
        return build_database(specs, seed=seed), specs, chain_join_query
    if topology == "star":
        specs = random_star_spec(relations - 1, rng, fact_rows=300, max_dim_rows=75)
        return build_database(specs, seed=seed), specs, star_join_query
    specs = random_clique_spec(relations, rng, min_rows=20, max_rows=150)
    return build_database(specs, seed=seed), specs, clique_join_query


def _plan_both(db, sql, hash_join: bool):
    flag = "1" if hash_join else "0"
    with mock.patch.dict(os.environ, {"REPRO_HASHJOIN": flag}):
        optimizer = verifying_optimizer(db)
        bounded = optimizer.plan_query(parse_statement(sql))
        with unbounded():
            reference = optimizer.plan_query(parse_statement(sql))
    return bounded, reference


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    topology=st.sampled_from(["chain", "star", "clique"]),
    relations=st.integers(min_value=3, max_value=8),
    seed=st.integers(min_value=0, max_value=3),
    hash_join=st.booleans(),
    data=st.data(),
)
def test_bounded_search_chooses_the_unbounded_plan(
    topology, relations, seed, hash_join, data
):
    if topology == "clique":
        relations = min(relations, 6)  # 2^n subsets: keep the reference quick
    db, specs, query = _generated(topology, relations, seed)
    filterable = [s for s in specs if any(c.name == "ATTR" for c in s.columns)]
    filtered = data.draw(
        st.lists(st.sampled_from(filterable), max_size=2, unique_by=id)
    )
    selections = [
        (spec.name, "ATTR", data.draw(st.integers(0, spec.column("ATTR").distinct)))
        for spec in filtered
    ]
    sql = query(specs, selections)
    spec = data.draw(st.sampled_from(specs))
    column = f"{spec.name}.{data.draw(st.sampled_from(spec.columns)).name}"
    tail = data.draw(st.sampled_from(["", "order", "group"]))
    if tail == "order":
        sql += f" ORDER BY {column}"
    elif tail == "group":
        sql = sql.replace("SELECT *", f"SELECT {column}, COUNT(*)")
        sql += f" GROUP BY {column}"

    bounded, reference = _plan_both(db, sql, hash_join)
    assert render_plan(bounded.root, w=bounded.w) == render_plan(
        reference.root, w=reference.w
    )
    assert bounded.estimated_total() == reference.estimated_total()
    stats = bounded.search_stats
    assert stats.chosen_total <= stats.bound * (1 + 1e-9)
    assert stats.subsets_expanded == reference.search_stats.subsets_expanded


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT NAME FROM EMP WHERE DNO = 7",
        "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO "
        "ORDER BY EMP.DNO",
        "SELECT NAME, TITLE, DNAME FROM EMP, DEPT, JOB "
        "WHERE EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB "
        "AND SAL > (SELECT AVG(SAL) FROM EMP)",
        "SELECT NAME FROM EMP, DEPT, JOB "
        "WHERE EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB AND EMP.SAL > "
        "(SELECT AVG(E2.SAL) FROM EMP E2 WHERE E2.DNO = EMP.DNO)",
    ],
    ids=["one-relation", "two-relations", "subquery", "correlated"],
)
def test_unbounded_blocks_record_the_unbounded_stats(empdept, sql):
    """Blocks of one or two relations, and blocks with a subquery, are
    planned exactly as before: every search records the same stats."""
    bounded, reference = _plan_both(empdept, sql, hash_join=True)
    pairs = [(bounded, reference)] + list(
        zip(bounded.subquery_plans.values(), reference.subquery_plans.values())
    )
    for planned, expected in pairs:
        assert planned.search_stats == expected.search_stats
        assert planned.search_stats.bound == math.inf


def test_bounded_search_prunes_and_counts_its_work(empdept):
    bounded, reference = _plan_both(empdept, FIG1_QUERY, hash_join=True)
    stats = bounded.search_stats
    assert stats.bound < math.inf and stats.bound_prunes > 0
    assert len(stats.bound_pruned) == stats.bound_prunes
    expected = reference.search_stats
    assert stats.entries_stored < expected.entries_stored
    assert stats.subsets_expanded == expected.subsets_expanded
    assert (
        stats.extensions_pruned_by_heuristic
        == expected.extensions_pruned_by_heuristic
    )
    assert expected.bound_prunes == 0


def _pressed_star(dimensions: int, seed: int):
    """Padded star tables over a 12-page buffer: buffer-aware costing."""
    specs = random_star_spec(
        dimensions,
        random.Random(seed),
        fact_rows=1200,
        max_dim_rows=300,
        pad_bytes=60,
    )
    return build_database(specs, seed=seed, buffer_pages=12), specs


@pytest.mark.parametrize("tail", ["", " ORDER BY DIM1.ATTR", "group"])
def test_equal_cost_ties_fall_as_unbounded(tail):
    """Merge joins taken in either order often cost exactly the same here.
    Bound-pruned order classes keep their places in the solution tables,
    so the bounded search breaks every such tie the unbounded way."""
    db, specs = _pressed_star(4, seed=0)
    sql = star_join_query(specs)
    if tail == "group":
        sql = sql.replace("SELECT *", "SELECT DIM2.ATTR, COUNT(*)")
        sql += " GROUP BY DIM2.ATTR"
    else:
        sql += tail
    bounded, reference = _plan_both(db, sql, hash_join=False)
    assert bounded.search_stats.bound_prunes > 0
    assert render_plan(bounded.root, w=bounded.w) == render_plan(
        reference.root, w=reference.w
    )


def test_dearer_dp_answer_searches_again_unbounded():
    """Under buffer pressure the DP's answer can cost more than the chain's:
    a cheaper entry may claim more buffer and make its extensions dearer.
    The search then runs again without the bound and plans as before."""
    db, specs = _pressed_star(3, seed=17)
    bounded, reference = _plan_both(db, star_join_query(specs), hash_join=False)
    assert bounded.search_stats.bound == math.inf  # the bound was dropped
    assert render_plan(bounded.root, w=bounded.w) == render_plan(
        reference.root, w=reference.w
    )
    assert bounded.estimated_total() == reference.estimated_total()
    assert (
        bounded.search_stats.plans_considered
        > reference.search_stats.plans_considered
    )


def test_negative_w_breaks_monotonicity_under_check(catalog):
    """W >= 0 makes totals grow along extensions; the checked search
    refuses a cost model that breaks that premise."""
    block = Binder(catalog).bind(parse_statement(CHAIN))
    factors = to_cnf_factors(block.where, block)
    search = JoinSearch(
        block,
        factors,
        catalog,
        SelectivityEstimator(catalog),
        CostModel(catalog, w=-1.0),
        InterestingOrders(block, factors),
        record_prunes=True,
    )
    with pytest.raises(PlanCheckError, match="extension-not-monotone"):
        search.search()


# ---------------------------------------------------------------------------
# admit, then build; the inner-path memo keyed by buffer-fit level
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _padded(topology: str, relations: int, seed: int):
    """Padded tables whose footprints straddle buffers of 4-64 pages.

    ``("star", 4, 17)`` holds the rows of ``_pressed_star(3, seed=17)``;
    the buffer size enters only through the optimizer, so one database
    serves every buffer.
    """
    rng = random.Random(seed)
    if topology == "star":
        specs = random_star_spec(
            relations - 1, rng, fact_rows=1200, max_dim_rows=300, pad_bytes=60
        )
        return build_database(specs, seed=seed), star_join_query(specs)
    specs = random_chain_spec(
        relations, rng, min_rows=40, max_rows=600, pad_bytes=60
    )
    return build_database(specs, seed=seed), chain_join_query(specs)


def _plan_at(db, sql, buffer_pages: int, hash_join: bool):
    optimizer = Optimizer(
        db.catalog,
        w=db.w,
        buffer_pages=buffer_pages,
        verify_plans=True,
        use_hash_join=hash_join,
    )
    return optimizer.plan_query(parse_statement(sql))


@contextmanager
def exact_buffers():
    """Key the inner-path memo by the available buffer itself."""
    with mock.patch.object(
        JoinSearch, "_fit_level", lambda self, position, available: available
    ):
        yield


def _assert_same_planning(planned, reference):
    assert render_plan(planned.root, w=planned.w) == render_plan(
        reference.root, w=reference.w
    )
    assert planned.estimated_total() == reference.estimated_total()
    # Every counter, and (verified planning) every prune record.
    assert planned.search_stats == reference.search_stats


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    topology=st.sampled_from(["star", "chain"]),
    relations=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=2),
    buffer_pages=st.integers(min_value=4, max_value=64),
    hash_join=st.booleans(),
)
# The 12-page star of the bounded-search tests, and a chain whose inners
# are left buffers on both sides of an index footprint.
@example(topology="star", relations=4, seed=17, buffer_pages=12, hash_join=False)
@example(topology="chain", relations=5, seed=1, buffer_pages=24, hash_join=False)
def test_fit_level_memo_plans_as_exact_buffers(
    topology, relations, seed, buffer_pages, hash_join
):
    db, sql = _padded(topology, relations, seed)
    planned = _plan_at(db, sql, buffer_pages, hash_join)
    with exact_buffers():
        reference = _plan_at(db, sql, buffer_pages, hash_join)
    _assert_same_planning(planned, reference)


def test_one_fit_level_serves_distinct_buffers():
    """Under a 12-page buffer, outer entries leave an inner different
    buffers that fall into one fit level; the shared memo entry plans
    exactly as separate ones would."""
    db, sql = _padded("star", 4, 17)
    seen: dict[tuple, set[float]] = {}
    fit_level = JoinSearch._fit_level

    def spy(self, position, available):
        level = fit_level(self, position, available)
        seen.setdefault((id(self), position, level), set()).add(available)
        return level

    with mock.patch.object(JoinSearch, "_fit_level", spy):
        planned = _plan_at(db, sql, 12, hash_join=False)
    assert any(len(buffers) > 1 for buffers in seen.values())
    with exact_buffers():
        reference = _plan_at(db, sql, 12, hash_join=False)
    _assert_same_planning(planned, reference)


def test_losing_candidates_build_nothing():
    """Every join node the search builds becomes a solution entry, and
    every sort node it builds is an input of one of those merge joins."""
    specs = random_star_spec(
        7, random.Random(0), fact_rows=300, min_dim_rows=10, max_dim_rows=75
    )
    db = build_database(specs, seed=0)
    sql = star_join_query(specs, [(specs[2].name, "ATTR", 3)])
    built: list = []
    entries: list = []

    def recording(cls, into):
        def make(*args, **kwargs):
            made = cls(*args, **kwargs)
            into.append(made)
            return made

        return make

    with mock.patch.multiple(
        joins,
        NestedLoopJoinNode=recording(NestedLoopJoinNode, built),
        MergeJoinNode=recording(MergeJoinNode, built),
        HashJoinNode=recording(HashJoinNode, built),
        SortNode=recording(SortNode, built),
        JoinEntry=recording(JoinEntry, entries),
    ):
        planned = db.plan_query(parse_statement(sql))
    kept = {id(entry.plan) for entry in entries}
    join_nodes = [node for node in built if not isinstance(node, SortNode)]
    assert join_nodes and all(id(node) in kept for node in join_nodes)
    merge_inputs = {
        id(child)
        for node in join_nodes
        if isinstance(node, MergeJoinNode)
        for child in node.children()
    }
    sorts = [node for node in built if isinstance(node, SortNode)]
    assert sorts and all(id(node) in merge_inputs for node in sorts)
    assert len(built) < planned.search_stats.plans_considered / 4
