"""``repro bench --serving`` — concurrent-serving throughput.

Sweeps the stress harness's mixed read/write workload over a grid of
client counts against a durable database, group commit batching the
page-table flips.  Each cell reuses
:func:`repro.serving.stress.run_stress`, so a cell only counts if its
snapshot-isolation invariants verified clean — a benchmark number from a
run that broke isolation would be meaningless.

The report (``BENCH_serving.json``) records per-cell throughput so the
scaling under write contention is a committed, comparable artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from ..serving.stress import run_stress

DEFAULT_OUTPUT = "BENCH_serving.json"
CLIENT_COUNTS = (1, 4, 16, 32)
QUICK_CLIENT_COUNTS = (1, 8)


def run_grid(
    client_counts=CLIENT_COUNTS, statements: int = 30, seed: int = 0
) -> dict:
    """Run the sweep and return the report dict."""
    cells = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-serving-") as scratch:
        for clients in client_counts:
            cell_dir = os.path.join(scratch, f"c{clients}")
            os.makedirs(cell_dir)
            report = run_stress(
                os.path.join(cell_dir, "bench.pages"),
                clients=clients,
                statements=statements,
                seed=seed,
            )
            throughput = (
                report.outcomes / report.elapsed if report.elapsed > 0 else 0.0
            )
            cells.append(
                {
                    "clients": clients,
                    "statements": report.statements,
                    "outcomes": report.outcomes,
                    "committed": report.committed,
                    "busy_timeouts": report.busy_timeouts,
                    "elapsed_s": round(report.elapsed, 4),
                    "throughput_stmt_s": round(throughput, 1),
                    "isolation_ok": report.ok,
                }
            )
    return {
        "benchmark": "serving",
        "workload": {
            "statements_per_client": statements,
            "seed": seed,
            "mix": "45% log reads, 20% group reads, 25% inserts, "
            "7% group updates, 2% churn, 1% update statistics",
        },
        "cells": cells,
    }


def render(report: dict) -> str:
    lines = [
        f"{'clients':>7}  {'stmt/s':>8}  {'committed':>9}  {'busy':>5}  isolation"
    ]
    for cell in report["cells"]:
        lines.append(
            f"{cell['clients']:>7}  "
            f"{cell['throughput_stmt_s']:>8.1f}  {cell['committed']:>9}  "
            f"{cell['busy_timeouts']:>5}  "
            f"{'ok' if cell['isolation_ok'] else 'VIOLATED'}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """``repro bench --serving [--quick] [--output PATH]``."""
    parser = argparse.ArgumentParser(
        prog="repro bench --serving",
        description="benchmark concurrent serving throughput vs client count",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small client grid for CI smoke runs",
    )
    parser.add_argument(
        "--statements",
        type=int,
        default=30,
        help="statements per client (default 30)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help=f"report path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    counts = QUICK_CLIENT_COUNTS if args.quick else CLIENT_COUNTS
    report = run_grid(counts, statements=args.statements, seed=args.seed)
    print(render(report))
    broken = [cell for cell in report["cells"] if not cell["isolation_ok"]]
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    if broken:
        print(
            f"{len(broken)} cell(s) broke snapshot isolation", file=sys.stderr
        )
        return 1
    return 0
