"""Unit tests for TABLE 1 selectivity factors — exact numeric checks."""

import pytest

from repro.catalog import Catalog, IndexStats, RelationStats
from repro.datatypes import FLOAT, INTEGER, varchar
from repro.optimizer.binder import Binder
from repro.optimizer.predicates import to_cnf_factors
from repro.optimizer.selectivity import (
    DEFAULT_BETWEEN,
    DEFAULT_EQ,
    DEFAULT_RANGE,
    SelectivityEstimator,
)
from repro.sql import parse_statement


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.create_table(
        "EMP",
        [
            ("ENO", INTEGER),
            ("NAME", varchar(20)),
            ("DNO", INTEGER),
            ("SAL", FLOAT),
        ],
    )
    catalog.create_table("DEPT", [("DNO", INTEGER), ("LOC", varchar(20))])
    catalog.create_index("EMP_DNO", "EMP", ["DNO"])
    catalog.create_index("EMP_SAL", "EMP", ["SAL"])
    catalog.create_index("DEPT_DNO", "DEPT", ["DNO"])
    catalog.set_relation_stats("EMP", RelationStats(10000, 100, 1.0))
    catalog.set_relation_stats("DEPT", RelationStats(50, 2, 1.0))
    catalog.set_index_stats("EMP_DNO", IndexStats(icard=50, nindx=10, low_key=1, high_key=50))
    catalog.set_index_stats(
        "EMP_SAL", IndexStats(icard=1000, nindx=30, low_key=0.0, high_key=1000.0)
    )
    catalog.set_index_stats("DEPT_DNO", IndexStats(icard=50, nindx=2, low_key=1, high_key=50))
    return catalog


def selectivity(catalog, where, tables="EMP"):
    block = Binder(catalog).bind(
        parse_statement(f"SELECT * FROM {tables} WHERE {where}")
    )
    factors = to_cnf_factors(block.where, block)
    assert len(factors) == 1
    return SelectivityEstimator(catalog).factor_selectivity(factors[0])


class TestEqualPredicates:
    def test_equal_with_index(self, catalog):
        # F = 1 / ICARD(column index)
        assert selectivity(catalog, "DNO = 7") == pytest.approx(1 / 50)

    def test_equal_without_index(self, catalog):
        assert selectivity(catalog, "ENO = 7") == pytest.approx(DEFAULT_EQ)

    def test_not_equal(self, catalog):
        assert selectivity(catalog, "DNO <> 7") == pytest.approx(1 - 1 / 50)

    def test_column_eq_column_both_indexed(self, catalog):
        # F = 1 / max(ICARD(c1), ICARD(c2))
        value = selectivity(catalog, "EMP.DNO = DEPT.DNO", tables="EMP, DEPT")
        assert value == pytest.approx(1 / 50)

    def test_column_eq_column_one_indexed(self, catalog):
        value = selectivity(catalog, "EMP.ENO = DEPT.DNO", tables="EMP, DEPT")
        assert value == pytest.approx(1 / 50)

    def test_column_eq_column_neither_indexed(self, catalog):
        value = selectivity(catalog, "EMP.NAME = DEPT.LOC", tables="EMP, DEPT")
        assert value == pytest.approx(DEFAULT_EQ)


class TestRangePredicates:
    def test_greater_interpolates(self, catalog):
        # F = (high - value) / (high - low) = (1000 - 750) / 1000
        assert selectivity(catalog, "SAL > 750") == pytest.approx(0.25)

    def test_less_interpolates(self, catalog):
        assert selectivity(catalog, "SAL < 250") == pytest.approx(0.25)

    def test_out_of_range_clamps(self, catalog):
        assert selectivity(catalog, "SAL > 5000") == 0.0
        assert selectivity(catalog, "SAL < 5000") == 1.0

    def test_no_stats_default(self, catalog):
        assert selectivity(catalog, "ENO > 7") == pytest.approx(DEFAULT_RANGE)

    def test_non_arithmetic_default(self, catalog):
        assert selectivity(catalog, "NAME > 'M'") == pytest.approx(DEFAULT_RANGE)

    def test_between_interpolates(self, catalog):
        # F = (v2 - v1) / (high - low)
        assert selectivity(catalog, "SAL BETWEEN 100 AND 300") == pytest.approx(0.2)

    def test_between_default(self, catalog):
        assert selectivity(catalog, "ENO BETWEEN 1 AND 2") == pytest.approx(
            DEFAULT_BETWEEN
        )


class TestInPredicates:
    def test_in_list(self, catalog):
        # F = n * (1/ICARD), here 3/50
        assert selectivity(catalog, "DNO IN (1, 2, 3)") == pytest.approx(3 / 50)

    def test_in_list_capped_at_half(self, catalog):
        values = ", ".join(str(i) for i in range(40))
        assert selectivity(catalog, f"DNO IN ({values})") == pytest.approx(0.5)

    def test_in_list_counts_distinct_literals(self, catalog):
        # A repeated literal selects nothing new: 8 copies of one value are
        # one value's worth, and (1, 2, 1) is two values' worth.
        assert selectivity(catalog, "DNO IN (5, 5, 5, 5, 5, 5, 5, 5)") == (
            pytest.approx(1 / 50)
        )
        assert selectivity(catalog, "DNO IN (1, 2, 1)") == pytest.approx(2 / 50)

    def test_in_list_ignores_null_literals(self, catalog):
        # DNO = NULL is never true under WHERE, so NULL adds no value.
        assert selectivity(catalog, "DNO IN (5, NULL)") == pytest.approx(1 / 50)
        assert selectivity(catalog, "DNO IN (NULL)") == 0.0

    def test_not_in_list_unchanged(self, catalog):
        # NOT IN is a conjunction of <> factors, one per literal as written
        # (a NULL among them makes every row unknown, so none is dropped).
        block = Binder(catalog).bind(
            parse_statement("SELECT * FROM EMP WHERE DNO NOT IN (1, 1, NULL)")
        )
        factors = to_cnf_factors(block.where, block)
        estimator = SelectivityEstimator(catalog)
        assert [estimator.factor_selectivity(f) for f in factors] == [
            pytest.approx(1 - 1 / 50)
        ] * 3

    def test_in_subquery(self, catalog):
        # F = expected subquery cardinality / product of subquery FROM
        # cardinalities.  LOC has no index: F_sub = 1/10, so the ratio is
        # (50 * 1/10) / 50 = 1/10.
        value = selectivity(
            catalog, "DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'X')"
        )
        assert value == pytest.approx(1 / 10)

    def test_in_subquery_unfiltered_is_one(self, catalog):
        value = selectivity(catalog, "DNO IN (SELECT DNO FROM DEPT)")
        assert value == pytest.approx(1.0)


class TestBooleanCombinations:
    def test_or(self, catalog):
        # F = f1 + f2 - f1*f2 with f1 = 1/50, f2 = 1/10
        f1, f2 = 1 / 50, DEFAULT_EQ
        assert selectivity(catalog, "DNO = 1 OR ENO = 2") == pytest.approx(
            f1 + f2 - f1 * f2
        )

    def test_not(self, catalog):
        assert selectivity(catalog, "NOT NAME LIKE 'A%'") == pytest.approx(0.9)

    def test_and_within_factor(self, catalog):
        # AND inside an OR-preserved factor multiplies.
        block = Binder(catalog).bind(
            parse_statement("SELECT * FROM EMP WHERE DNO = 1 AND ENO = 2")
        )
        factors = to_cnf_factors(block.where, block)
        estimator = SelectivityEstimator(catalog)
        product = 1.0
        for factor in factors:
            product *= estimator.factor_selectivity(factor)
        assert product == pytest.approx((1 / 50) * DEFAULT_EQ)


class TestCardinalities:
    def test_qcard(self, catalog):
        block = Binder(catalog).bind(
            parse_statement(
                "SELECT * FROM EMP, DEPT "
                "WHERE EMP.DNO = DEPT.DNO AND EMP.DNO = 7"
            )
        )
        factors = to_cnf_factors(block.where, block)
        estimator = SelectivityEstimator(catalog)
        qcard = estimator.block_qcard(block, factors)
        assert qcard == pytest.approx(10000 * 50 * (1 / 50) * (1 / 50))

    def test_missing_stats_means_small(self, catalog):
        catalog.create_table("TINY", [("X", INTEGER)])
        estimator = SelectivityEstimator(catalog)
        assert estimator.relation_cardinality("TINY") == 10

    def test_aggregate_block_returns_one(self, catalog):
        block = Binder(catalog).bind(
            parse_statement("SELECT AVG(SAL) FROM EMP")
        )
        estimator = SelectivityEstimator(catalog)
        assert estimator.block_output_cardinality(block, []) == 1.0

    def test_group_by_bounded_by_icard(self, catalog):
        block = Binder(catalog).bind(
            parse_statement("SELECT DNO, AVG(SAL) FROM EMP GROUP BY DNO")
        )
        estimator = SelectivityEstimator(catalog)
        assert estimator.block_output_cardinality(block, []) == pytest.approx(50)
