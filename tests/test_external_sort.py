"""Tests for the multi-pass external merge sort (§5: "several passes")."""

import random

import pytest

from repro import Database
from repro.datatypes import INTEGER
from repro.engine.external_sort import ExternalSorter
from repro.rss import StorageEngine
from repro.sorting import merge_fan_in, merge_passes, temp_rows_per_page, workspace_rows
from repro.workloads import load_rows


def make_rows(count, seed=0):
    rng = random.Random(seed)
    return [(rng.randrange(10_000), i) for i in range(count)]


def sorter_for(storage, memory_rows, fan_in=None):
    return ExternalSorter(
        storage,
        [INTEGER, INTEGER],
        [(0, False)],
        memory_rows=memory_rows,
        fan_in=fan_in,
    )


class TestSortingMath:
    def test_rows_per_page(self):
        assert temp_rows_per_page(row_bytes=40) == (4096 - 8) // 44

    def test_workspace_rows(self):
        assert workspace_rows(10, 40) == 10 * temp_rows_per_page(40)

    def test_fan_in_minimum(self):
        assert merge_fan_in(1) == 2
        assert merge_fan_in(10) == 9

    def test_pass_counts(self):
        # One run: no merge passes.
        assert merge_passes(10, buffer_pages=64, row_bytes=40) == 0
        # Force tiny workspace via huge rows.
        per = workspace_rows(2, 40)
        assert merge_passes(per * 3, buffer_pages=2, row_bytes=40) >= 1

    def test_zero_rows(self):
        assert merge_passes(0, 4, 40) == 0


class TestExternalSorter:
    def test_in_memory_path(self):
        storage = StorageEngine()
        sorter = sorter_for(storage, memory_rows=1000)
        rows = make_rows(100)
        output = [r[0] for r in sorter.sort(iter(rows))]
        assert output == sorted(r[0] for r in rows)
        assert sorter.initial_runs == 1
        assert sorter.merge_passes == 0

    def test_multi_run_single_pass(self):
        storage = StorageEngine()
        sorter = sorter_for(storage, memory_rows=50, fan_in=8)
        rows = make_rows(300)
        output = [r[0] for r in sorter.sort(iter(rows))]
        assert output == sorted(r[0] for r in rows)
        assert sorter.initial_runs == 6
        assert sorter.merge_passes == 1

    def test_multi_pass(self):
        storage = StorageEngine()
        sorter = sorter_for(storage, memory_rows=20, fan_in=2)
        rows = make_rows(300)
        output = [r[0] for r in sorter.sort(iter(rows))]
        assert output == sorted(r[0] for r in rows)
        assert sorter.initial_runs == 15
        assert sorter.merge_passes == 4  # ceil(log2(15))

    def test_stability_within_equal_keys(self):
        storage = StorageEngine()
        sorter = sorter_for(storage, memory_rows=1000)
        rows = [(1, i) for i in range(50)]
        output = [r[1] for r in sorter.sort(iter(rows))]
        assert output == list(range(50))

    def test_empty_input(self):
        storage = StorageEngine()
        sorter = sorter_for(storage, memory_rows=10)
        assert list(sorter.sort(iter([]))) == []

    def test_temp_pages_freed(self):
        storage = StorageEngine()
        sorter = sorter_for(storage, memory_rows=20, fan_in=2)
        before = len(storage.store)
        list(sorter.sort(iter(make_rows(200))))
        assert len(storage.store) == before

    def test_descending_keys(self):
        storage = StorageEngine()
        sorter = ExternalSorter(
            storage,
            [INTEGER, INTEGER],
            [(0, True)],
            memory_rows=30,
            fan_in=3,
        )
        rows = make_rows(200)
        output = [r[0] for r in sorter.sort(iter(rows))]
        assert output == sorted(
            (r[0] for r in rows), reverse=True
        )

    def test_rejects_tiny_workspace(self):
        with pytest.raises(ValueError):
            sorter_for(StorageEngine(), memory_rows=1)


class TestEndToEndMultiPass:
    def test_sorted_query_with_tiny_buffer(self):
        """A big ORDER BY on a 2-page buffer goes multi-pass and stays right."""
        db = Database(buffer_pages=2)
        db.execute("CREATE TABLE S (K INTEGER, PAD VARCHAR(80))")
        rng = random.Random(5)
        load_rows(
            db, "S", [(rng.randrange(100_000), "x" * 72) for __ in range(3000)]
        )
        db.execute("UPDATE STATISTICS")
        result = db.execute("SELECT K FROM S ORDER BY K")
        values = [row[0] for row in result.rows]
        assert values == sorted(values)
        assert len(values) == 3000

    def test_measured_sort_cost_tracks_pass_prediction(self):
        """Predicted pass-counted sort pages track the measured fetches."""
        db = Database(buffer_pages=2)
        db.execute("CREATE TABLE S (K INTEGER, PAD VARCHAR(80))")
        rng = random.Random(5)
        load_rows(
            db, "S", [(rng.randrange(100_000), "x" * 72) for __ in range(3000)]
        )
        db.execute("UPDATE STATISTICS")
        planned = db.plan("SELECT K FROM S ORDER BY K")
        db.cold_cache()
        db.executor().execute(planned)
        measured = db.counters.snapshot()
        # Both sides count the same run/merge traffic, within slack for
        # fractional pages and buffer re-reads.
        assert measured.page_fetches == pytest.approx(
            planned.estimated_cost.pages, rel=0.5
        )
        assert measured.rsi_calls == pytest.approx(
            planned.estimated_cost.rsi, rel=0.5
        )
