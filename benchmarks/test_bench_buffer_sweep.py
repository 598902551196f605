"""A5 — extra ablation: the effective buffer size.

Table 2's alternative formulas hinge on "if this number fits in the System
R buffer", and the nested-loop residency reasoning depends on what the
buffer can hold.  Sweeping the pool size shows plan choices flipping (index
probes vs sort-merge vs resident rescans) and both predicted and measured
costs falling as the pool grows.

The sweep runs in the paper-faithful mode (``REPRO_HASHJOIN=0``): Table 2's
buffer-fit formulas price nested loops and merge scans, and with hash join
in the search the small pools pick a hash join instead.
"""

from conftest import measure_cold, weighted
from repro import Database
from repro.optimizer.explain import plan_summary
from repro.workloads import load_rows

BUFFERS = [2, 4, 8, 16, 48, 128]
SQL = (
    "SELECT L.V, R.W FROM L, R "
    "WHERE L.K = R.K AND R.F = 3"
)


def build(buffer_pages: int) -> Database:
    db = Database(buffer_pages=buffer_pages)
    db.execute("CREATE TABLE L (K INTEGER, V INTEGER, PAD VARCHAR(52))")
    db.execute("CREATE TABLE R (K INTEGER, W INTEGER, F INTEGER, PAD VARCHAR(52))")
    load_rows(db, "L", [((i * 7) % 60, i, "x" * 44) for i in range(900)])
    load_rows(
        db,
        "R",
        [((i * 11) % 60, i, i % 9, "y" * 44) for i in range(700)],
    )
    db.execute("CREATE INDEX L_K ON L (K)")
    db.execute("CREATE INDEX R_F ON R (F)")
    db.execute("UPDATE STATISTICS")
    return db


def test_buffer_size_sweep(report, benchmark, monkeypatch):
    monkeypatch.setenv("REPRO_HASHJOIN", "0")
    rows = []
    measured_costs = []
    reference_rows = None
    for buffer_pages in BUFFERS:
        db = build(buffer_pages)
        planned = db.plan(SQL)
        if buffer_pages == BUFFERS[0]:
            benchmark.pedantic(lambda: db.plan(SQL), rounds=3, iterations=1)
        measured, result = measure_cold(db, planned)
        cost = weighted(measured, planned.w)
        measured_costs.append(cost)
        if reference_rows is None:
            reference_rows = sorted(result.rows)
        else:
            assert sorted(result.rows) == reference_rows
        rows.append(
            [
                buffer_pages,
                planned.estimated_total(),
                cost,
                measured.page_fetches,
                plan_summary(planned.root)[:58],
            ]
        )

    report.line("A5 — effective buffer size sweep (same data, same query)")
    report.table(
        ["buffer", "pred cost", "meas cost", "fetches", "plan"],
        rows,
        widths=[8, 12, 12, 9, 60],
    )
    report.line()
    report.line(
        "Bigger pools unlock the buffer-fit formulas and resident inners;"
    )
    report.line("the chosen plan and its measured cost both respond.")

    # Measured cost must never get *worse* as the buffer grows (within noise).
    for earlier, later in zip(measured_costs, measured_costs[1:]):
        assert later <= earlier * 1.25
    # And the largest pool beats the smallest clearly.
    assert measured_costs[-1] < measured_costs[0]
    # At least two distinct plan shapes appear across the sweep.
    assert len({row[4] for row in rows}) >= 2
