"""Unit tests for execution operators: temp lists, sorting, merge joins."""

import pytest

from repro import Database
from repro.datatypes import INTEGER, varchar
from repro.engine.operators import _RowLayout, _sort_rows
from repro.engine.rows import Row
from repro.engine.temp import TempList
from repro.optimizer.bound import BoundColumn
from repro.optimizer.plan import MergeJoinNode, walk_plan
from repro.rss import StorageEngine
from repro.workloads import load_rows


def column(alias, position):
    return BoundColumn(alias, position, f"C{position}", alias, INTEGER, 1)


class TestTempList:
    def make_rows(self, count):
        return [(i, f"name{i}") for i in range(count)]

    def test_roundtrip(self):
        storage = StorageEngine()
        temp = TempList(storage, [INTEGER, varchar(12)])
        rows = self.make_rows(10)
        temp.extend(rows)
        back = list(temp.scan())
        assert back == rows

    def test_counts_inserts_and_reads(self):
        storage = StorageEngine()
        temp = TempList(storage, [INTEGER, varchar(12)])
        storage.counters.reset()
        temp.extend(self.make_rows(100))
        assert storage.counters.rsi_calls == 100
        build_fetches = storage.counters.page_fetches
        assert build_fetches >= 1
        list(temp.scan())
        assert storage.counters.rsi_calls == 200

    def test_multi_page(self):
        storage = StorageEngine()
        temp = TempList(storage, [INTEGER, varchar(12)])
        temp.extend(self.make_rows(2000))
        assert temp.page_count() > 1
        assert len(list(temp.scan())) == 2000

    def test_drop_frees_pages(self):
        storage = StorageEngine()
        temp = TempList(storage, [INTEGER, varchar(12)])
        temp.extend(self.make_rows(50))
        before = len(storage.store)
        temp.drop()
        assert len(storage.store) < before

    def test_missing_alias_encoded_as_nulls(self):
        storage = StorageEngine()
        layout = _RowLayout([("T", [INTEGER]), ("U", [INTEGER])])
        temp = TempList(storage, layout.datatypes)
        temp.append(layout.flatten(Row(values={"T": (1,)})))
        row = layout.wrap(next(temp.scan()))
        assert row.values["U"] == (None,)


class TestSortRows:
    def rows(self, values):
        return [Row(values={"T": v}) for v in values]

    def test_single_key_ascending(self):
        rows = self.rows([(3,), (1,), (2,)])
        out = _sort_rows(rows, [(column("T", 0), False)])
        assert [r.values["T"][0] for r in out] == [1, 2, 3]

    def test_descending(self):
        rows = self.rows([(3,), (1,), (2,)])
        out = _sort_rows(rows, [(column("T", 0), True)])
        assert [r.values["T"][0] for r in out] == [3, 2, 1]

    def test_multi_key_mixed_direction(self):
        rows = self.rows([(1, 5), (2, 3), (1, 7), (2, 1)])
        out = _sort_rows(
            rows, [(column("T", 0), False), (column("T", 1), True)]
        )
        assert [r.values["T"] for r in out] == [(1, 7), (1, 5), (2, 3), (2, 1)]

    def test_nulls_first(self):
        rows = self.rows([(2,), (None,), (1,)])
        out = _sort_rows(rows, [(column("T", 0), False)])
        assert [r.values["T"][0] for r in out] == [None, 1, 2]

    def test_stability(self):
        rows = [Row(values={"T": (1, i)}) for i in range(5)]
        out = _sort_rows(rows, [(column("T", 0), False)])
        assert [r.values["T"][1] for r in out] == [0, 1, 2, 3, 4]


@pytest.fixture(scope="module")
def merge_db():
    """Index-less tables too big for the buffer: sorting to merge wins.

    With a tiny buffer pool the nested-loop inner cannot stay resident, so
    its rescans are charged (and measured) in full and the sort-merge plan
    is chosen.
    """
    db = Database(buffer_pages=3)
    db.execute("CREATE TABLE L (K INTEGER, V INTEGER, PAD VARCHAR(60))")
    db.execute("CREATE TABLE R (K INTEGER, W INTEGER, PAD VARCHAR(60))")
    load_rows(db, "L", [(i % 17, i, "x" * 52) for i in range(300)])
    load_rows(db, "R", [(i % 17, i * 10, "y" * 52) for i in range(200)])
    db.execute("UPDATE STATISTICS")
    return db


class TestMergeJoinExecution:
    @pytest.fixture(autouse=True)
    def _no_hash_join(self, monkeypatch):
        # These tests exercise the merge-join operator; with hash join in
        # the search space the DP prefers it on this index-less corpus.
        monkeypatch.setenv("REPRO_HASHJOIN", "0")

    def expected(self, db):
        left = db.execute("SELECT K, V FROM L").rows
        right = db.execute("SELECT K, W FROM R").rows
        return sorted(
            (lk, lv, rw)
            for lk, lv in left
            for rk, rw in right
            if lk == rk
        )

    def test_merge_join_chosen_and_correct(self, merge_db):
        sql = "SELECT L.K, L.V, R.W FROM L, R WHERE L.K = R.K"
        planned = merge_db.plan(sql)
        merges = [
            n for n in walk_plan(planned.root) if isinstance(n, MergeJoinNode)
        ]
        assert merges, "expected a merge join for the index-less equi-join"
        result = merge_db.executor().execute(planned)
        assert sorted(result.rows) == self.expected(merge_db)

    def test_duplicate_outer_keys_replay_inner_group(self, merge_db):
        # 300 x 200 over 17 keys: every outer key repeats, exercising the
        # group-rewind path.  Count result size exactly.
        result = merge_db.execute(
            "SELECT L.V FROM L, R WHERE L.K = R.K"
        )
        expected_count = len(self.expected(merge_db))
        assert len(result.rows) == expected_count

    def test_replays_counted_as_rsi_calls(self, merge_db):
        sql = "SELECT L.V FROM L, R WHERE L.K = R.K"
        planned = merge_db.plan(sql)
        merge_db.cold_cache()
        merge_db.executor().execute(planned)
        measured = merge_db.counters.snapshot()
        # Join output is ~3530 rows; inner tuples must cross the RSI at
        # least once per match.
        output = len(self.expected(merge_db))
        assert measured.rsi_calls >= output

    def test_merge_with_null_keys_excluded(self, db):
        db.execute("CREATE TABLE A (K INTEGER)")
        db.execute("CREATE TABLE B (K INTEGER)")
        load_rows(db, "A", [(1,), (None,), (2,)])
        load_rows(db, "B", [(1,), (None,), (3,)])
        db.execute("UPDATE STATISTICS")
        result = db.execute("SELECT A.K FROM A, B WHERE A.K = B.K")
        assert result.rows == [(1,)]

    def test_non_equijoin_residual(self, merge_db):
        result = merge_db.execute(
            "SELECT L.K, R.K FROM L, R WHERE L.K = R.K AND L.V < R.W"
        )
        left = merge_db.execute("SELECT K, V FROM L").rows
        right = merge_db.execute("SELECT K, W FROM R").rows
        expected = sorted(
            (lk, rk)
            for lk, lv in left
            for rk, rw in right
            if lk == rk and lv < rw
        )
        assert sorted(result.rows) == expected
