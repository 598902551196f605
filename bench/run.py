"""The repo benchmark: ``python3 bench/run.py [--workload NAME] [--seed N]
[--seconds S] [--trace 0|1] [--quick] [--out FILE]``.

Runs each requested workload in its own fresh subprocess (``worker.py``)
with every ``REPRO_*`` environment variable removed, so no mode switch
leaks in from the caller's shell, and prints every metric by name with its
unit.  The last line of output is one JSON object::

    {"correct": true, "attempted": 28002, "failed": 0,
     "metrics": {"stmt_per_s": {"value": 2676.4, "unit": "1/s"}, ...}}

``--trace 0`` (the default) reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from a traced run.  With one workload the
metric names are bare; with all five they are prefixed ``<workload>/``.
That line carries exactly the metrics ``BENCHMARK.json`` names;
``fail_ratio`` and, on ``mixed_rw``, ``write_p50_ms``/``write_tail_ms`` are
printed above it and written to ``--out`` as ``extra``.  The thread count
is ``min(nproc, 2)`` and is not an option.  The exit code is non-zero if any
correctness check failed.

See ``bench/README.md`` for what the workloads and metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
WORKLOADS = ("point_read", "mixed_rw", "analytic", "analytic_parallel", "join_search")


def git_commit() -> str:
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR, text=True,
            capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_worker(workload: str, args, env: dict) -> dict | None:
    """Run one workload in a fresh interpreter; None if it produced no result."""
    command = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        command.append("--quick")
    if args.out and args.trace:
        command += ["--spans", f"{args.out}.{workload}.spans.jsonl"]
    done = subprocess.run(command, env=env, text=True, stdout=subprocess.PIPE)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small tables, short lists, one set-up: a smoke run")
    parser.add_argument("--out", help="also write the stamped results here as JSON")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT_DIR, "src", "repro")):
        print("bench/run.py measures the program under src/, which is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else 15.0

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result = run_worker(name, args, env)
        if result is None:
            print(f"{name}: the worker produced no result", file=sys.stderr)
            return 3
        results[name] = result
        info = result["info"]
        print(
            f"# {name}: {info['loop']} loop, {info['clients']} client(s) via "
            f"{info['api']}, {info['passes']} passes x "
            f"{info['statements_per_pass']} statements in {info['measured_s']:.2f} s, "
            f"percentiles per pass then median over passes, tail = p{info['tail_percentile']}"
            + (f", write tail = p{info['write_tail_percentile']} of "
               f"{info['writes_per_pass']} writes per pass"
               if info["writes_per_pass"] else "")
            + f", {info['threads']} thread(s), flush policy: {info['flush_policy']}"
        )
        print(f"{name:18s} {'ops_attempted':40s} {result['attempted']:>14d} count")
        print(f"{name:18s} {'ops_failed':40s} {result['failed']:>14d} count")
        for metric, entry in {**result["extra"], **result["metrics"]}.items():
            print(f"{name:18s} {metric:40s} {entry['value']:>14.6f} {entry['unit']}")
        if info["first_error"]:
            print(f"{name}: first failure: {info['first_error']}", file=sys.stderr)

    if args.out:
        info = next(iter(results.values()))["info"]
        stamp = {
            "commit": git_commit(), "seed": args.seed,
            "nproc": len(os.sched_getaffinity(0)), "threads": info["threads"],
            "python": platform.python_version(), "loop": info["loop"],
            "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"stamp": stamp, "results": results}, handle, indent=1)
            handle.write("\n")

    single = len(names) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (metric if single else f"{name}/{metric}"): entry
            for name, r in results.items()
            for metric, entry in r["metrics"].items()
        },
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
