"""E9 — §7 claim: "the true optimal path is selected in a large majority of
cases ... the ordering among estimated costs is precisely the same as that
among the actual measured costs".

For randomized join workloads we enumerate every candidate plan, execute
each against a cold buffer, and check (a) how often the optimizer's pick is
the measured optimum (or within 25% of it), and (b) the Spearman rank
correlation between predicted and measured cost across the plan space.

Two regimes are reported:

- **covered statistics** — every join/selection column is indexed, so the
  TABLE 1 formulas run on real ICARDs and key ranges (the System R
  setting the paper's claim was made in);
- **sparse statistics** — 50% of indexes are missing and the arbitrary
  1/10-style defaults fill the gaps, showing how much of the claim is owed
  to the statistics.

The experiment runs in the paper-faithful mode (``REPRO_HASHJOIN=0``): the
§7 claim is about the System R search space of nested loops and merge
scans, and the exhaustive enumerator it is measured against has no hash
join either.
"""

import random

from scipy import stats as scipy_stats

from conftest import measure_cold, weighted
from repro.baselines import ExhaustivePlanner
from repro.optimizer.binder import Binder
from repro.sql import parse_statement
from repro.workloads import build_database, random_chain_spec, random_select_query

QUERIES = 6
MAX_PLANS = 50


def run_regime(report, label, index_probability, seed_base):
    rng = random.Random(7 + seed_base)
    rows_header = []
    optimal = near_optimal = skipped_total = 0
    correlations = []
    for number in range(QUERIES):
        tables = random_chain_spec(
            rng.choice([2, 3]),
            rng,
            min_rows=150,
            max_rows=450,
            index_probability=index_probability,
            pad_bytes=60,
        )
        db = build_database(tables, seed=seed_base + number, buffer_pages=12)
        sql = random_select_query(tables, rng)
        chosen = db.plan(sql)
        planner = ExhaustivePlanner(db.optimizer(), db.catalog)
        block = Binder(db.catalog).bind(parse_statement(sql))
        candidates = planner.enumerate_statements(block, max_plans=MAX_PLANS)
        # Plans predicted two orders of magnitude above the chosen plan are
        # not executed (Cartesian-first disasters never measure best).
        cap = chosen.estimated_total() * 100 + 100
        runnable = [p for p in candidates if p.estimated_total() <= cap]
        skipped_total += len(candidates) - len(runnable)

        predicted, measured = [], []
        for planned in runnable:
            snapshot, __ = measure_cold(db, planned)
            predicted.append(planned.estimated_total())
            measured.append(weighted(snapshot, planned.w))
        chosen_snapshot, __ = measure_cold(db, chosen)
        chosen_measured = weighted(chosen_snapshot, chosen.w)
        best_measured = min(measured + [chosen_measured])
        is_optimal = chosen_measured <= best_measured * 1.001
        is_near = chosen_measured <= best_measured * 1.25
        optimal += is_optimal
        near_optimal += is_near
        rho = scipy_stats.spearmanr(predicted, measured).statistic
        correlations.append(rho)
        rows_header.append(
            [
                f"Q{number}",
                len(runnable),
                chosen_measured,
                best_measured,
                "yes" if is_optimal else ("near" if is_near else "NO"),
                rho,
            ]
        )

    mean_rho = sum(correlations) / len(correlations)
    report.line(f"--- {label} ---")
    report.table(
        ["query", "plans", "chosen (meas)", "best (meas)", "optimal?", "spearman"],
        rows_header,
        widths=[8, 8, 16, 14, 10, 12],
    )
    report.line(
        f"optimal: {optimal}/{QUERIES}; within 25%: {near_optimal}/{QUERIES}; "
        f"mean Spearman: {mean_rho:.3f}; skipped (pred >100x): {skipped_total}"
    )
    report.line()
    return optimal, near_optimal, mean_rho


def test_plan_quality(report, benchmark, monkeypatch):
    monkeypatch.setenv("REPRO_HASHJOIN", "0")
    report.line("E9 — plan quality against the exhaustively measured optimum")
    report.line()

    def covered():
        return run_regime(report, "covered statistics (every column indexed)", 1.0, 100)

    cov_optimal, cov_near, cov_rho = benchmark.pedantic(
        covered, rounds=1, iterations=1
    )
    sparse_optimal, sparse_near, sparse_rho = run_regime(
        report, "sparse statistics (50% of indexes missing)", 0.5, 200
    )

    report.line(
        'paper: "the true optimal path is selected in a large majority of'
    )
    report.line(
        'cases", "ordering among the estimated costs is precisely the same'
    )
    report.line('as that among the actual measured costs" (in many cases).')
    report.line()
    report.line(
        "The claim holds when the statistics cover the predicates; with the"
    )
    report.line(
        "arbitrary defaults standing in, near-ties get decided by guesses."
    )

    # With covered statistics the paper's claim must reproduce.
    assert cov_near >= QUERIES - 1, "covered: large majority near-optimal"
    assert cov_rho > 0.5
    # Sparse statistics may not do better than covered.
    assert sparse_near <= cov_near or sparse_rho <= cov_rho + 0.2
