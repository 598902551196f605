"""One workload, one process: set up, warm up, measure whole passes, verify.

``run.py`` starts this file in a fresh subprocess per workload and reads the
single JSON object it prints.  The phases:

1. generate rows and build the database(s) — several times, for a median
   ``setup_s`` (in a traced run the last build is traced, for ``catalog``
   and ``workloads`` times);
2. one untimed statement per distinct shape, then workload prechecks;
3. cold buffer, then whole passes over the fixed statement list until the
   next pass would overshoot ``--seconds``; every result is checked against
   :mod:`reference` as it arrives;
4. the end-of-run audit, and metrics.

The untraced run reports the end-to-end metrics.  A traced run installs the
span wrappers of :mod:`trace` on every second pass and reports the
per-layer metrics from those; the untraced passes between them are the
baseline for ``trace.overhead_ratio``.  The ``rss.*`` counts come from
pass 0, which starts from a cold buffer in both kinds of run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import threading
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SOURCE_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: How often set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 3


def thread_count() -> int:
    """Client threads and parallel-engine workers: ``min(nproc, 2)``.

    More threads than processors would measure the scheduler.  This is the
    one place the count is worked out; the result is stamped with it.
    """
    return min(len(os.sched_getaffinity(0)), 2)


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered) + 0.5) - 1))
    return ordered[rank]


def tail_fraction(per_pass: int) -> float:
    """p99 where one pass has ten samples beyond it, else p90.

    ``per_pass`` is the statement count of one pass, which the workload
    fixes: the percentile may not depend on how many passes a faster or
    slower program fits into the run.
    """
    return 0.99 if per_pass >= 1000 else 0.90


def median_over_passes(passes, fraction: float, kind: str | None = None) -> float:
    """A latency percentile (s) of each pass; the median over the passes.

    ``kind`` keeps only the statements of that kind ("write").  Taking the
    median over passes means interference during one pass (this is a
    shared sandbox) moves nothing.
    """
    per_pass = [
        sorted(
            latency
            for statements, latencies in zip(p.statements, p.latencies)
            for statement, latency in zip(statements, latencies)
            if kind is None or statement.kind == kind
        )
        for p in passes
    ]
    return statistics.median(percentile(l, fraction) for l in per_pass)


class Client:
    """One closed-loop client: sends, times and checks its statements."""

    def __init__(self, number: int, handles: list, counters: list):
        self.number = number
        self.handles = handles
        self.counters = counters
        self.attempted = 0
        self.failed = 0
        self.busy = 0
        self.first_error: str | None = None
        self.acknowledged: list[tuple] = []
        self.versions: set[int] = set()
        self.sent = 0

    def run(self, statements, tracer, parse) -> list[float]:
        """Execute a statement list; returns one latency (s) per statement."""
        from repro.errors import DatabaseBusyError

        import reference

        latencies = []
        for statement in statements:
            handle = self.handles[statement.db]
            if tracer is not None:
                counters = self.counters[statement.db]
                fetches, calls = counters.page_fetches, counters.rsi_calls
                tracer.begin("client." + statement.kind, (self.number, self.sent))
            self.sent += 1
            start = perf_counter()
            error = None
            try:
                result = handle.execute_statement(parse(statement.sql))
            except Exception as exc:  # any failure is a failed operation
                error = exc
            latencies.append(perf_counter() - start)
            if tracer is not None:
                tracer.end(
                    (counters.page_fetches - fetches, counters.rsi_calls - calls)
                )
            self.attempted += 1
            if error is not None:
                ok = False
                self.busy += isinstance(error, DatabaseBusyError)
                problem = repr(error)
            elif statement.expected is not None:
                got = reference.expect(result.rows, statement.ordered)
                ok = got == statement.expected
                problem = f"got {got}, expected {statement.expected}"
            else:
                ok = result.affected_rows == 1 and result.commit_version is not None
                problem = f"write affected {result.affected_rows} rows"
                if ok:
                    self.acknowledged.append(statement.effect)
                    self.versions.add(result.commit_version)
            if not ok:
                self.failed += 1
                if self.first_error is None:
                    self.first_error = f"{statement.sql}: {problem}"
        return latencies


class Pass:
    """One measured pass: its statements, latencies and wall time."""

    def __init__(self, statements: list[list], traced: bool):
        self.statements = statements
        self.traced = traced
        self.latencies: list[list[float]] = [[] for __ in statements]
        self.wall_s = 0.0

    def count(self, kind: str | None = None) -> int:
        return sum(
            kind is None or statement.kind == kind
            for client in self.statements
            for statement in client
        )


class Measurement:
    """Runs whole passes on every client until the time budget is used.

    Clients meet at a barrier between passes; its action (run by exactly
    one thread while the others wait) closes the finished pass, decides
    whether another fits, and prepares it — so pass wall times exclude
    statement generation and every client always runs the same passes.
    """

    def __init__(self, workload, dbs, clients, seconds, tracer):
        from repro.sql import parse_statement

        self.workload = workload
        self.dbs = dbs
        self.clients = clients
        self.seconds = seconds
        self.tracer = tracer
        self.parse = parse_statement
        self.traced_parse = (
            tracer.wrap("sql.parse", parse_statement) if tracer else None
        )
        self.passes: list[Pass] = []
        self.more = True
        self.error: BaseException | None = None
        self.first_pass_counters = None
        self._started = 0.0
        self._barrier = threading.Barrier(len(clients), action=self._between)

    def _between(self) -> None:
        now = perf_counter()
        if self.passes:
            self.passes[-1].wall_s = now - self._started
        if len(self.passes) == 1:
            self.first_pass_counters = [db.counters.snapshot() for db in self.dbs]
        elapsed = sum(p.wall_s for p in self.passes)
        least = 2 if self.tracer else 1  # a traced run needs a traced pass
        self.more = len(self.passes) < least or (
            elapsed + elapsed / len(self.passes) / 2 < self.seconds
        )
        if not self.more:
            return
        number = len(self.passes)
        # Odd passes are traced, even ones are not, so drift between
        # passes cannot pass for tracing overhead.
        traced = self.tracer is not None and number % 2 == 1
        if traced:
            self.tracer.install()
        elif self.tracer is not None:
            self.tracer.uninstall()
        self.passes.append(
            Pass(
                [
                    self.workload.pass_statements(client.number, number)
                    for client in self.clients
                ],
                traced,
            )
        )
        if number == 0:
            # The counted pass starts cold, so its counts do not depend on
            # what the warm-up and prechecks left in the buffer.
            for db in self.dbs:
                db.cold_cache()
        self._started = perf_counter()

    def _client_loop(self, client: Client) -> None:
        try:
            while True:
                self._barrier.wait()
                if not self.more:
                    return
                current = self.passes[-1]
                current.latencies[client.number] = client.run(
                    current.statements[client.number],
                    self.tracer if current.traced else None,
                    self.traced_parse if current.traced else self.parse,
                )
        except threading.BrokenBarrierError:
            return
        except BaseException as exc:  # a bug here must not hang the others
            self.error = exc
            self._barrier.abort()

    def run(self) -> None:
        threads = [
            threading.Thread(target=self._client_loop, args=(client,))
            for client in self.clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.tracer is not None:
            self.tracer.uninstall()
        if self.error is not None:
            raise self.error


def end_to_end_metrics(setup_samples, passes, failed_measured) -> dict:
    """Every end-to-end metric of ``BENCHMARK.json``, as ``name -> (value, unit)``.

    Throughput and both latency percentiles are computed per pass and the
    median over passes is reported.
    """
    # A failed statement is not work done.
    correct_share = 1 - failed_measured / sum(p.count() for p in passes)
    tail = tail_fraction(passes[0].count())
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "stmt_per_s": (
            correct_share
            * statistics.median(p.count() / p.wall_s for p in passes),
            "1/s",
        ),
        "lat_p50_ms": (median_over_passes(passes, 0.50) * 1e3, "ms"),
        "lat_tail_ms": (median_over_passes(passes, tail) * 1e3, "ms"),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def write_latency_metrics(passes, prefix: str = "") -> dict:
    """``write_p50_ms`` and ``write_tail_ms`` from untraced passes.

    Empty for a workload without writes.  An untraced run reports them
    beside the end-to-end metrics, for ``compare.py`` to gate; a traced run
    takes them from its untraced passes, as ``serving.write_*``.
    """
    writes = passes[0].count("write")
    if not writes:
        return {}
    return {
        f"{prefix}write_p50_ms": (
            median_over_passes(passes, 0.50, "write") * 1e3, "ms"),
        f"{prefix}write_tail_ms": (
            median_over_passes(passes, tail_fraction(writes), "write") * 1e3, "ms"),
    }


def layer_metrics(workload, measurement, tracer, clients, w: float) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    import trace as tracing
    from workloads import ANALYTIC_CLASSES

    first = measurement.passes[0]
    traced = [p for p in measurement.passes if p.traced]
    untraced = [p for p in measurement.passes if not p.traced]
    spans = tracer.spans()
    roots = [s for s in spans if s.layer == "client"]
    kind_of = {s.statement: s.name.partition(".")[2] for s in roots}
    statements = len(roots)
    root_s = sum(s.duration_ns for s in roots) / 1e9
    self_s = tracing.self_seconds_by_layer(spans)
    children = tracing.child_seconds_by_layer(spans)

    def spans_named(name):
        return [s for s in spans if s.name == name]

    def mean_ms(total_s):
        return total_s / statements * 1e3

    # A call that raised has no attrs; it is a failed statement, not a plan.
    plans = [s for s in spans_named("optimizer.plan_query") if s.attrs]
    read_plans = [s for s in plans if kind_of.get(s.statement) == "read"]
    read_roots = [s for s in roots if s.name == "client.read"]
    measured_cost = sum(s.attrs[0] + w * s.attrs[1] for s in read_roots)
    estimated_cost = sum(s.attrs[1] for s in read_plans)
    rows_out = sum(s.attrs or 0 for s in spans_named("engine.execute"))
    rsi_calls = sum(s.attrs[1] for s in read_roots)

    served = spans_named("serving.statement")
    read_overhead = [
        s.duration_ns / 1e9
        - children[(s.thread, s.seq)]["optimizer"]
        - children[(s.thread, s.seq)]["engine"]
        for s in served
        if kind_of.get(s.statement) == "read"
    ]
    write_wait = sorted(
        s.self_ns / 1e9 for s in served if kind_of.get(s.statement) == "write"
    )
    commits = sorted(s.duration_ns / 1e9 for s in spans_named("rss.commit_batch"))

    by_shape: dict[str, list[float]] = {}
    for p in traced:
        for statement_list, latencies in zip(p.statements, p.latencies):
            for statement, latency in zip(statement_list, latencies):
                by_shape.setdefault(statement.shape, []).append(latency)

    # Pass 0 starts from cold_cache(), which zeroes the counters, so the
    # snapshots taken at its end are that pass's totals.
    fetches = sum(c.page_fetches for c in measurement.first_pass_counters)
    calls = sum(c.rsi_calls for c in measurement.first_pass_counters)
    hits = sum(c.buffer_hits for c in measurement.first_pass_counters)

    acknowledged = sum(len(c.acknowledged) for c in clients)
    versions = set().union(*(c.versions for c in clients))
    times = workload.times
    inserted = sum(
        1 for c in clients for effect in c.acknowledged if effect[0] == "insert"
    )
    user_bytes = times.user_bytes + 24 * inserted

    def p50_ms(values):
        return percentile(values, 0.5) * 1e3 if values else 0.0

    metrics = {
        "sql.parse_ms_per_stmt": (mean_ms(self_s["sql"]), "ms"),
        "optimizer.plan_ms_per_stmt": (mean_ms(self_s["optimizer"]), "ms"),
        "optimizer.plans_considered_per_stmt": (
            sum(s.attrs[0] for s in plans) / statements, "count"),
        "optimizer.est_cost_per_stmt": (
            sum(s.attrs[1] for s in plans) / statements, "cost"),
        "optimizer.cost_ratio": (
            measured_cost / estimated_cost if estimated_cost else 0.0, "ratio"),
        "engine.exec_ms_per_stmt": (mean_ms(self_s["engine"]), "ms"),
        "engine.rows_out_per_s": (
            rows_out / self_s["engine"] if self_s["engine"] else 0.0, "1/s"),
        "engine.rsi_per_row_out": (rsi_calls / max(1, rows_out), "ratio"),
        "rss.page_fetches_per_stmt": (fetches / first.count(), "count"),
        "rss.rsi_calls_per_stmt": (calls / first.count(), "count"),
        "rss.buffer_hit_rate": (
            hits / (hits + fetches) if hits + fetches else 0.0, "ratio"),
        "rss.commit_ms_p50": (p50_ms(commits), "ms"),
        "rss.commits": (float(len(versions)), "count"),
        "rss.stmts_per_commit": (
            acknowledged / len(versions) if versions else 0.0, "ratio"),
        "rss.file_bytes_per_user_byte": (
            workload.file_bytes() / user_bytes, "ratio"),
        "serving.read_overhead_ms": (
            statistics.fmean(read_overhead) * 1e3 if read_overhead else 0.0, "ms"),
        "serving.write_wait_ms_p50": (p50_ms(write_wait), "ms"),
        # Write latency as a client sees it, so from the passes without
        # wrappers; 0 on a workload without writes.
        "serving.write_p50_ms": (0.0, "ms"),
        "serving.write_tail_ms": (0.0, "ms"),
        **write_latency_metrics(untraced, "serving."),
        "serving.busy_errors": (float(sum(c.busy for c in clients)), "count"),
        "catalog.stats_s": (times.stats_s, "s"),
        "workloads.load_rows_per_s": (times.rows / times.load_s, "1/s"),
        "workloads.index_build_s": (times.index_s, "s"),
        "trace.overhead_ratio": (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in untraced), "ratio"),
        "trace.layer_coverage": (
            sum(self_s[layer] for layer in tracing.LAYERS) / root_s, "ratio"),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_share"] = (self_s[layer] / root_s, "ratio")
    for name in ANALYTIC_CLASSES:
        metrics[f"class.{name}.p50_ms"] = (
            p50_ms(sorted(by_shape.get(name, []))), "ms")
    return metrics


def run_workload(args) -> dict:
    """Run one workload start to finish; returns the result object."""
    import trace as tracing
    from workloads import WORKLOADS, SetupTimes

    scratch = os.path.join(BENCH_DIR, "out", f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    try:
        threads = thread_count()
        workload = WORKLOADS[args.workload](args.seed, args.quick, threads, scratch)
        tracer = tracing.Tracer() if args.trace else None
        repeats = 1 if args.quick else SETUP_REPEATS
        setup_samples = []
        dbs = []
        for repeat in range(repeats):
            last = repeat == repeats - 1
            if tracer is not None and last:
                tracer.install()
            workload.times = SetupTimes()
            start = perf_counter()
            dbs = workload.build(
                (lambda: tracer.seconds_in("catalog.collect_statistics"))
                if tracer is not None and last
                else (lambda: 0.0)
            )
            setup_samples.append(perf_counter() - start)
            if not last:
                workload.discard(dbs)
        if tracer is not None:
            tracer.uninstall()
            tracer.clear()

        clients = [
            Client(
                number,
                workload.connect(dbs, number),
                [db.counters for db in dbs],
            )
            for number in range(workload.clients)
        ]
        measurement = Measurement(workload, dbs, clients, args.seconds, tracer)
        for client in clients:
            client.run(workload.warmup(client.number), None, measurement.parse)
        checks, check_failures = workload.precheck(dbs)
        before = sum(c.failed for c in clients)
        measurement.run()
        failed_measured = sum(c.failed for c in clients) - before

        w = dbs[0].w
        acknowledged = [e for c in clients for e in c.acknowledged]
        audits, audit_failures = workload.audit(dbs, acknowledged)
        attempted = sum(c.attempted for c in clients) + checks + audits
        failed = sum(c.failed for c in clients) + check_failures + audit_failures

        # ``metrics`` is the set BENCHMARK.json names, the same on every
        # workload; ``extra`` holds the end-to-end metrics that exist only
        # on some workloads or are 0 on a healthy run, which BENCHMARK.json
        # cannot carry.  compare.py gates both.
        extra = {"fail_ratio": (failed / attempted, "ratio")}
        if tracer is None:
            measured = end_to_end_metrics(
                setup_samples, measurement.passes, failed_measured
            )
            extra.update(write_latency_metrics(measurement.passes))
        else:
            measured = layer_metrics(workload, measurement, tracer, clients, w)
            if args.spans:
                tracer.write(args.spans)

        def entries(values: dict) -> dict:
            return {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()
            }

        per_pass = measurement.passes[0].count()
        writes_per_pass = measurement.passes[0].count("write")
        return {
            "workload": workload.name,
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": entries(measured),
            "extra": entries(extra),
            "info": {
                "seed": args.seed,
                "trace": int(args.trace),
                "quick": args.quick,
                "loop": "closed",
                "clients": workload.clients,
                "threads": threads,
                "api": workload.api,
                "passes": len(measurement.passes),
                "statements_per_pass": per_pass,
                "measured_s": sum(p.wall_s for p in measurement.passes),
                "tail_percentile": round(tail_fraction(per_pass) * 100),
                "writes_per_pass": writes_per_pass,
                "write_tail_percentile": round(tail_fraction(writes_per_pass) * 100),
                "setup_samples_s": setup_samples,
                "flush_policy": workload.flush_policy,
                "first_error": next(
                    (c.first_error for c in clients if c.first_error), None
                ),
            },
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE_DIR, "repro")):
        print(f"no program to measure: {SOURCE_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    for path in (SOURCE_DIR, BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)
    result = run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
