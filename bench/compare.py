"""Compare benchmark result files: ``python3 bench/compare.py A.json B.json …``.

The files are ``bench/run.py --out`` results and alternate base, new,
base, new, …: ``A1 B1 A2 B2`` is two pairs.  Files whose stamps differ in
``seconds``, ``trace``, ``quick`` or ``threads`` measured different things
and are refused.  One row is printed per (workload, metric) with the base
median, the new median, new ÷ base, the bound and a verdict.

The bound of a (workload, metric) pair comes from ``bench/bounds.json``,
which records the A/A spread it was derived from; a pair not listed there
falls back on the metric's bound in ``BENCHMARK.json``.

- ``unresolved``  the base runs' own spread (interquartile distance ÷
  median) is wider than the bound, or there are fewer than two base runs to
  take a spread from: nothing can be said;
- ``regressed``   the new median is worse than the base median by more
  than the bound;
- ``improved``    with ten or more pairs: the new side wins at least nine
  tenths of the pairs (ties count for neither side) *and* the medians
  differ by more than the base runs' interquartile distance; with fewer
  pairs: better by more than the bound, which is a hint, not a claim;
- ``unchanged``   otherwise.

Per-layer metrics carry no bound; their rows say ``info``.  ``fail_ratio``
regresses whenever more operations fail than at the base.  The exit code
is 1 if any row regressed or is unresolved.

``python3 bench/compare.py --bounds A1.json A2.json …`` takes five or more
runs of *one* commit instead and prints a new ``bounds.json``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)

#: Stamp fields that must agree between the files of one comparison.
SAME_SETTINGS = ("seconds", "trace", "quick", "threads")
#: End-to-end metrics BENCHMARK.json cannot carry (see bench/README.md).
WORKLOAD_METRICS = {"write_p50_ms": "lower", "write_tail_ms": "lower"}
BOUNDS_RULE = (
    "bound = max(0.05, 2 x spread), rounded up to a whole percent and capped "
    "at 0.25; spread = interquartile distance / median over the A/A runs"
)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_spec() -> dict[str, dict]:
    """Metric name -> ``{better, bound}`` (no bound for a per-layer metric)."""
    spec = load_json(os.path.join(ROOT_DIR, "BENCHMARK.json"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    top = max(m["bound"] for m in spec["end_to_end"])
    for name, better in WORKLOAD_METRICS.items():
        metrics[name] = {"better": better, "bound": top}
    return metrics


def load_runs(paths: list[str]) -> list[dict[tuple[str, str], float]]:
    """``(workload, metric) -> value`` per file; the settings must agree."""
    runs, settings = [], None
    for path in paths:
        data = load_json(path)
        these = {key: data["stamp"].get(key) for key in SAME_SETTINGS}
        if settings is None:
            settings = these
        elif these != settings:
            raise SystemExit(
                f"{path} was run with {these}, {paths[0]} with {settings}: "
                "not comparable"
            )
        values = {}
        for workload, result in data["results"].items():
            for metric, entry in {**result["extra"], **result["metrics"]}.items():
                values[(workload, metric)] = entry["value"]
        runs.append(values)
    return runs


def spread(values: list[float]) -> float | None:
    """Interquartile distance; None with fewer than two values."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    base_spread = spread(base)
    if base_spread is None or base_median == 0:
        return "unresolved"
    worse_by = sign * (new_median - base_median) / abs(base_median)
    if base_spread / abs(base_median) > bound:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if len(base) >= 10:
        wins = sum(sign * (n - b) < 0 for b, n in zip(base, new))
        losses = sum(sign * (n - b) > 0 for b, n in zip(base, new))
        won = wins >= 0.9 * (wins + losses) and wins > 0
        if won and abs(new_median - base_median) > base_spread:
            return "improved"
        return "unchanged"
    return "improved" if -worse_by > bound else "unchanged"


def compare(paths: list[str]) -> int:
    spec = load_spec()
    recorded = load_json(os.path.join(BENCH_DIR, "bounds.json"))["bounds"]
    runs = load_runs(paths)
    base_runs, new_runs = runs[0::2], runs[1::2]
    keys = [key for key in base_runs[0] if all(key in run for run in base_runs + new_runs)]
    print(f"{len(base_runs)} pair(s); base = {paths[0]} …, new = {paths[1]} …")
    print(f"{'workload':18s} {'metric':38s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    bad = 0
    for workload, metric in keys:
        base = [run[(workload, metric)] for run in base_runs]
        new = [run[(workload, metric)] for run in new_runs]
        base_median, new_median = statistics.median(base), statistics.median(new)
        entry = spec.get(metric, {})
        bound = recorded.get(workload, {}).get(metric, entry).get("bound")
        if metric == "fail_ratio":
            outcome = "regressed" if new_median > base_median else "unchanged"
        elif bound is None:
            outcome = "info"
        else:
            outcome = verdict(base, new, entry["better"], bound)
        bad += outcome in ("regressed", "unresolved")
        ratio = f"{new_median / base_median:9.4f}" if base_median else f"{'-':>9s}"
        shown = f"{bound:6.2f}" if bound is not None else f"{'-':>6s}"
        print(f"{workload:18s} {metric:38s} {base_median:12.4f} {new_median:12.4f} "
              f"{ratio} {shown}  {outcome}")
    if len(base_runs) < 2:
        print("one pair gives no spread to judge a difference against: every "
              "bounded row is unresolved; run two pairs or more")
    elif len(base_runs) < 10:
        print("fewer than ten pairs: 'improved' is a hint; a gain is claimed from "
              "ten or more alternating pairs")
    return 1 if bad else 0


def record_bounds(paths: list[str]) -> int:
    """Print ``bounds.json`` from five or more untraced runs of one commit."""
    if len(paths) < 5:
        print("--bounds needs five or more runs of one commit", file=sys.stderr)
        return 2
    spec = load_spec()
    runs = load_runs(paths)
    stamps = [load_json(path)["stamp"] for path in paths]
    recorded = {key: stamps[0][key] for key in ("commit", "nproc", "python", *SAME_SETTINGS)}
    recorded["seeds"] = [stamp["seed"] for stamp in stamps]
    workloads: dict[str, list[str]] = {}
    for workload, metric in runs[0]:
        if "bound" not in spec.get(metric, {}):
            continue
        values = [float(f"{run[(workload, metric)]:.6g}") for run in runs]
        share = spread(values) / statistics.median(values)
        entry = {
            "spread": round(share, 4),
            "bound": min(0.25, max(0.05, math.ceil(200 * share) / 100)),
            "values": values,
        }
        workloads.setdefault(workload, []).append(
            f'   "{metric}": {json.dumps(entry)}'
        )
    # One line per (workload, metric), so a re-recording diffs row by row.
    print("{")
    print(f' "rule": {json.dumps(BOUNDS_RULE)},')
    print(f' "recorded": {json.dumps(recorded)},')
    print(' "bounds": {')
    print(",\n".join(
        f'  "{workload}": {{\n' + ",\n".join(lines) + "\n  }"
        for workload, lines in workloads.items()
    ))
    print(" }\n}")
    return 0


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if paths[:1] == ["--bounds"]:
        return record_bounds(paths[1:])
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(paths)


if __name__ == "__main__":
    sys.exit(main())
