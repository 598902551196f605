"""End-to-end tests for the Database facade (DDL, DML, queries)."""

import pytest

from repro import Database, IntegrityError, SemanticError
from repro.errors import CatalogError, ExecutionError


@pytest.fixture
def people(db):
    db.execute(
        "CREATE TABLE P (ID INTEGER, NAME VARCHAR(20), AGE INTEGER, CITY VARCHAR(20))"
    )
    db.execute("CREATE UNIQUE INDEX P_ID ON P (ID)")
    rows = [
        (1, "ANN", 30, "DENVER"),
        (2, "BOB", 25, "NYC"),
        (3, "CAL", 35, "DENVER"),
        (4, "DEE", 25, "SAN JOSE"),
        (5, "ELI", 40, "NYC"),
    ]
    for row in rows:
        db.execute(
            f"INSERT INTO P VALUES ({row[0]}, '{row[1]}', {row[2]}, '{row[3]}')"
        )
    db.execute("UPDATE STATISTICS")
    return db


class TestDdl:
    def test_create_and_query_empty(self, db):
        db.execute("CREATE TABLE T (A INTEGER)")
        assert db.execute("SELECT * FROM T").rows == []

    def test_duplicate_table(self, db):
        db.execute("CREATE TABLE T (A INTEGER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE T (A INTEGER)")

    def test_drop_table(self, db):
        db.execute("CREATE TABLE T (A INTEGER)")
        db.execute("DROP TABLE T")
        with pytest.raises(SemanticError):
            db.execute("SELECT * FROM T")

    def test_create_index_on_populated_table(self, people):
        people.execute("CREATE INDEX P_AGE ON P (AGE)")
        result = people.execute("SELECT NAME FROM P WHERE AGE = 25")
        assert sorted(result.rows) == [("BOB",), ("DEE",)]

    def test_drop_index(self, people):
        people.execute("CREATE INDEX P_AGE ON P (AGE)")
        people.execute("DROP INDEX P_AGE")
        result = people.execute("SELECT NAME FROM P WHERE AGE = 25")
        assert sorted(result.rows) == [("BOB",), ("DEE",)]

    def test_clustered_index_reorganizes(self, people):
        people.execute("CREATE INDEX P_AGE ON P (AGE) CLUSTER")
        ages = [row[0] for row in people.execute("SELECT AGE FROM P").rows]
        assert ages == sorted(ages)


class TestInsert:
    def test_affected_rows(self, db):
        db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(5))")
        result = db.execute("INSERT INTO T VALUES (1, 'a'), (2, 'b')")
        assert result.affected_rows == 2

    def test_column_list_reorders(self, db):
        db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(5))")
        db.execute("INSERT INTO T (B, A) VALUES ('x', 9)")
        assert db.execute("SELECT A, B FROM T").rows == [(9, "x")]

    def test_missing_columns_become_null(self, db):
        db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(5))")
        db.execute("INSERT INTO T (A) VALUES (1)")
        assert db.execute("SELECT B FROM T").rows == [(None,)]

    def test_type_validation(self, db):
        db.execute("CREATE TABLE T (A INTEGER)")
        with pytest.raises(SemanticError):
            db.execute("INSERT INTO T VALUES ('nope')")

    def test_unique_violation(self, people):
        with pytest.raises(IntegrityError):
            people.execute("INSERT INTO P VALUES (1, 'DUP', 1, 'X')")

    def test_arity_check(self, db):
        db.execute("CREATE TABLE T (A INTEGER, B INTEGER)")
        with pytest.raises(SemanticError):
            db.execute("INSERT INTO T VALUES (1)")


@pytest.mark.parametrize(
    "sql",
    [
        "INSERT INTO T (A, A) VALUES (1, 2)",
        "UPDATE T SET A = 5, A = 6",
        "CREATE INDEX I ON T (A, A)",
    ],
    ids=["insert", "update", "create-index"],
)
def test_column_named_twice_is_rejected(db, sql):
    db.execute("CREATE TABLE T (A INTEGER, B INTEGER)")
    db.execute("INSERT INTO T VALUES (1, 1)")
    with pytest.raises(SemanticError, match="'A' named twice"):
        db.execute(sql)
    assert db.execute("SELECT A, B FROM T").rows == [(1, 1)]
    assert db.catalog.indexes_on("T") == []


#: One bad value per validated setting, checked alike at construction and
#: on assignment.
BAD_SETTINGS = [
    ("w", float("nan")),
    ("w", float("inf")),
    ("w", -1.0),
    ("subquery_cache_mode", "memoize"),
    ("exec_mode", "bogus"),
    ("workers", 0),
    ("workers", "x"),
    ("workers", 2.5),
]
BAD_SETTING_IDS = [
    "w-nan", "w-inf", "w-negative", "cache-memoize",
    "exec-bogus", "workers-zero", "workers-str", "workers-float",
]
#: Settings fixed at construction (no setter), checked there only.
BAD_FIXED_SETTINGS = [
    ("buffer_pages", 0),
    ("buffer_pages", -3),
    ("buffer_pages", 1.5),
    ("buffer_pages", "x"),
    ("buffer_pages", True),
]
BAD_FIXED_SETTING_IDS = [
    "buffer-zero", "buffer-negative", "buffer-float", "buffer-str", "buffer-bool",
]


@pytest.mark.parametrize(
    "setting,bad",
    BAD_SETTINGS + BAD_FIXED_SETTINGS,
    ids=BAD_SETTING_IDS + BAD_FIXED_SETTING_IDS,
)
def test_bad_settings_fail_at_construction(setting, bad):
    """A setting that would break the first SELECT fails before any DDL or
    INSERT can run, naming the bad value."""
    with pytest.raises(ValueError, match=str(bad)):
        Database(**{setting: bad})


@pytest.mark.parametrize("setting,bad", BAD_SETTINGS, ids=BAD_SETTING_IDS)
def test_bad_settings_fail_at_assignment(setting, bad):
    """Assignment runs the construction check: a bad value raises at once
    and the setting keeps its previous, valid value."""
    db = Database()
    before = getattr(db, setting)
    with pytest.raises(ValueError, match=str(bad)):
        setattr(db, setting, bad)
    assert getattr(db, setting) == before


def test_valid_settings_assign():
    db = Database()
    db.w = 0.0
    db.subquery_cache_mode = "memo"
    db.exec_mode = "interp"
    db.workers = 3
    assert (db.w, db.subquery_cache_mode) == (0.0, "memo")
    assert (db.exec_mode, db.workers) == ("interp", 3)
    assert db.optimizer().w == 0.0
    db.exec_mode = None
    db.workers = None
    assert (db.exec_mode, db.workers) == (None, None)


class TestUpdateDelete:
    def test_update_with_where(self, people):
        result = people.execute("UPDATE P SET AGE = 26 WHERE NAME = 'BOB'")
        assert result.affected_rows == 1
        assert people.execute("SELECT AGE FROM P WHERE NAME = 'BOB'").rows == [(26,)]

    def test_update_expression(self, people):
        people.execute("UPDATE P SET AGE = AGE + 1 WHERE CITY = 'DENVER'")
        ages = dict(people.execute("SELECT NAME, AGE FROM P").rows)
        assert ages["ANN"] == 31 and ages["CAL"] == 36
        assert ages["BOB"] == 25

    def test_update_maintains_index(self, people):
        people.execute("UPDATE P SET ID = 10 WHERE NAME = 'ANN'")
        assert people.execute("SELECT NAME FROM P WHERE ID = 10").rows == [("ANN",)]
        assert people.execute("SELECT NAME FROM P WHERE ID = 1").rows == []

    def test_update_all_rows(self, people):
        result = people.execute("UPDATE P SET AGE = 0")
        assert result.affected_rows == 5

    def test_delete_with_where(self, people):
        result = people.execute("DELETE FROM P WHERE CITY = 'NYC'")
        assert result.affected_rows == 2
        assert len(people.execute("SELECT * FROM P").rows) == 3

    def test_delete_all(self, people):
        people.execute("DELETE FROM P")
        assert people.execute("SELECT * FROM P").rows == []

    def test_delete_via_subquery(self, people):
        people.execute(
            "DELETE FROM P WHERE AGE < (SELECT AVG(AGE) FROM P)"
        )
        names = sorted(row[0] for row in people.execute("SELECT NAME FROM P").rows)
        assert names == ["CAL", "ELI"]


class TestQueries:
    def test_projection_names(self, people):
        result = people.execute("SELECT NAME AS WHO, AGE FROM P WHERE ID = 1")
        assert result.columns == ["WHO", "AGE"]
        assert result.rows == [("ANN", 30)]

    def test_expressions_in_select(self, people):
        result = people.execute("SELECT AGE * 2 FROM P WHERE ID = 2")
        assert result.rows == [(50,)]

    def test_order_by_desc(self, people):
        result = people.execute("SELECT NAME FROM P ORDER BY AGE DESC, NAME")
        assert [row[0] for row in result.rows] == ["ELI", "CAL", "ANN", "BOB", "DEE"]

    def test_distinct(self, people):
        result = people.execute("SELECT DISTINCT CITY FROM P")
        assert sorted(row[0] for row in result.rows) == [
            "DENVER",
            "NYC",
            "SAN JOSE",
        ]

    def test_group_by_with_having(self, people):
        result = people.execute(
            "SELECT CITY, COUNT(*) FROM P GROUP BY CITY HAVING COUNT(*) > 1"
        )
        assert sorted(result.rows) == [("DENVER", 2), ("NYC", 2)]

    def test_aggregates(self, people):
        result = people.execute(
            "SELECT COUNT(*), MIN(AGE), MAX(AGE), SUM(AGE), AVG(AGE) FROM P"
        )
        assert result.rows == [(5, 25, 40, 155, 31.0)]

    def test_aggregate_on_empty_table(self, db):
        db.execute("CREATE TABLE T (A INTEGER)")
        result = db.execute("SELECT COUNT(*), AVG(A) FROM T")
        assert result.rows == [(0, None)]

    def test_count_ignores_nulls(self, db):
        db.execute("CREATE TABLE T (A INTEGER)")
        db.execute("INSERT INTO T VALUES (1), (NULL), (3)")
        result = db.execute("SELECT COUNT(A), COUNT(*) FROM T")
        assert result.rows == [(2, 3)]

    def test_count_distinct(self, people):
        result = people.execute("SELECT COUNT(DISTINCT AGE) FROM P")
        assert result.rows == [(4,)]

    def test_self_join(self, people):
        result = people.execute(
            "SELECT X.NAME, Y.NAME FROM P X, P Y "
            "WHERE X.AGE = Y.AGE AND X.ID < Y.ID"
        )
        assert result.rows == [("BOB", "DEE")]

    def test_null_comparisons_filtered(self, db):
        db.execute("CREATE TABLE T (A INTEGER)")
        db.execute("INSERT INTO T VALUES (1), (NULL)")
        assert db.execute("SELECT * FROM T WHERE A = 1").rows == [(1,)]
        assert db.execute("SELECT * FROM T WHERE A <> 1").rows == []
        assert db.execute("SELECT * FROM T WHERE A IS NULL").rows == [(None,)]

    def test_scalar_subquery_errors_on_many_rows(self, people):
        with pytest.raises(ExecutionError):
            people.execute(
                "SELECT NAME FROM P WHERE AGE = (SELECT AGE FROM P WHERE CITY='NYC')"
            )

    def test_scalar_subquery_empty_is_null(self, people):
        result = people.execute(
            "SELECT NAME FROM P WHERE AGE = (SELECT AGE FROM P WHERE ID = 99)"
        )
        assert result.rows == []

    def test_statement_result_len_and_iter(self, people):
        result = people.execute("SELECT ID FROM P")
        assert len(result) == 5
        assert sorted(result)[0] == (1,)

    def test_scalar_helper(self, people):
        assert people.execute("SELECT COUNT(*) FROM P").scalar() == 5
