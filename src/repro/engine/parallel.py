"""Worker-pool parallel execution of fused scan pipelines.

``REPRO_EXEC=parallel`` schedules the fused ``Scan→Filter*→Project``
chains over page morsels of a segment concurrently: the segment's page
list is snapshotted once per driver call
(:meth:`repro.rss.storage.StorageEngine.scan_snapshot`), split into
morsels, and each morsel is handed to a worker running the one scan
kernel (:func:`repro.engine.scheduler.scan_pages`) with the *same*
chunk processor — built once in :mod:`repro.engine.fuse` from the same
compiled closures — the serial driver applies over ``scan.batches()``.
This module owns only what is parallel-specific: eligibility, the
gather, and the exchanges.  A nested-loop join gets an exchange operator
instead: equality probe SARGs hash-repartition the inner relation once
per statement, and workers answer probes by bucket lookup rather than
by rescanning the inner pages.

Counter fidelity is the contract that keeps every parallel run's cost
counters bit-identical to ``fused`` (``repro check --fusion`` checks it):

- **RSI calls** are order-independent sums.  Every worker counts into its
  own private :class:`~repro.rss.counters.CostCounters` and the driving
  thread folds them into the statement's counters with
  :meth:`~repro.rss.counters.CostCounters.merge` as results drain; the
  sum is exact because counters only ever increment outside
  :class:`~repro.rss.counters.CostCounters`.
- **Page fetches and buffer hits** depend on LRU order, so workers never
  touch the buffer pool: they read frozen pages directly from the page
  store (a plain dict lookup with no counter effects), and the driving
  thread *replays* ``BufferPool.fetch`` in exact serial page order,
  lazily, as batches are pulled downstream.  The fetch/hit trace is
  therefore byte-identical to the serial engine's, including its
  interleaving with any downstream breaker's page traffic.

Row order is preserved by construction: morsels are contiguous page
ranges, the gather concatenates morsel results in submission order, and
hash buckets are built in (page, slot) order, so every driver emits rows
in exactly the serial scan order — no sort is needed to keep
order-dependent plans honest.

Eligibility is strict and failure is silent: a chain whose SARG values,
residuals, filters, or projections contain a subquery, or whose access
path is an index (the B-tree descent *is* the fetch trace), builds no
parallel driver and :mod:`repro.engine.fuse` falls back to the serial
fused driver.  Subqueries still parallelize internally — their own plans
compile their own drivers — while the enclosing chain keeps its exact
per-probe evaluation cadence.

Scheduling lives in :mod:`repro.engine.scheduler`: scans decompose
into fixed-size page morsels pulled from the thread pool's shared queue
by idle workers (work-stealing by construction).  On top of the
scheduler the two serial breakers go parallel:
:func:`parallel_aggregate_driver` feeds per-morsel partial aggregates to
the shared streaming fold driver, and :func:`parallel_run_sorter` feeds
per-worker sorted runs into the external sort's k-way merge.
"""

from __future__ import annotations

import heapq
from functools import partial

from ..optimizer.bound import BoundSubquery
from ..optimizer.plan import (
    AggregateNode,
    HashJoinNode,
    IndexAccess,
    NestedLoopJoinNode,
    ScanNode,
)
from ..rss.counters import CostCounters
from ..rss.sargs import CompareOp, SargProgram, sarg_program
from ..rss.scan import page_rows
from ..rss.tuples import DecodePlan
from ..sql import ast
from .evaluator import EvalEnv
from .external_sort import _HeapKey, _sorted_run
from .operators import (
    ExecContext,
    _build_hash_join,
    _build_nested_loop,
    _build_scan,
    _HashJoinProgram,
    _program,
    _ScanProgram,
    build_hash_table,
    compile_sarg_matcher,
)
from .rows import Row
from .scheduler import (
    fold_pages,
    get_backend,
    morsel_pages,
    morsel_ranges,
    partition_ranges,
    scan_pages,
)

#: Outer rows per probe task for the nested-loop exchange.
_PROBE_CHUNK = 64

#: Below this workspace size a parallel sorted run is not worth the
#: slice/merge overhead; the run sorts serially (results are identical
#: either way — ``parallel_run_sorter`` is differentially gated).
_SORT_SLICE_MIN_ROWS = 512


# ---------------------------------------------------------------------------
# eligibility
# ---------------------------------------------------------------------------

#: Expression nodes that evaluate through the runtime's subquery machinery.
#: ``walk_expr`` yields (and does not descend into) both forms.
_SUBQUERY_NODES = (BoundSubquery, ast.InSubquery)


def _subquery_free(exprs) -> bool:
    """True when no expression reaches the runtime's subquery machinery.

    Subquery evaluation mutates statement-scoped caches and fetches pages
    mid-expression; both would break worker confinement and the replayed
    fetch trace, so any subquery anywhere in a chain vetoes parallelism.
    """
    for expr in exprs:
        for node in ast.walk_expr(expr):
            if type(node) in _SUBQUERY_NODES:
                return False
    return True


def _scan_exprs(node: ScanNode) -> list:
    exprs = list(node.residual)
    for expression in node.sargs:
        for group in expression.groups:
            for pred in group:
                exprs.append(pred.value)
    return exprs


def _segment_scan_eligible(node: ScanNode, program: _ScanProgram) -> bool:
    """Parallel drivers handle plain segment scans only.

    An index scan's B-tree descent and per-entry data-page fetches *are*
    its cost trace — there is no counter-free way to compute them ahead on
    a worker — so index access paths stay on the serial fused driver.
    """
    if isinstance(node.access, IndexAccess):
        return False
    return not program.low_fns and not program.high_fns


# ---------------------------------------------------------------------------
# morsel-scheduled segment scans
# ---------------------------------------------------------------------------


def _morsel_results(
    scan_node: ScanNode,
    program: _ScanProgram,
    ctx: ExecContext,
    outer: EvalEnv | None,
    make_task,
):
    """Fan a segment scan's page morsels out; yield ``(page_ids, result)``
    per morsel in submission order with its private counters merged.

    ``make_task(pages, relation_id, plan, matcher)`` returns the
    zero-argument worker task running the scan kernel over one morsel's
    frozen ``(page_id, Page)`` pairs.  The caller replays
    ``buffer.fetch`` over each morsel's ``page_ids`` — lazily, at the
    point the serial scan would have fetched them.
    """
    snapshot = ctx.storage.scan_snapshot(scan_node.table)
    page_ids = snapshot.page_ids
    if not page_ids:
        return
    plan = program.decode_plan
    matcher = compile_sarg_matcher(program, ctx.env(Row(), outer))
    ranges = morsel_ranges(len(page_ids), morsel_pages())
    tasks = [
        make_task(
            snapshot.freeze_range(lo, hi), snapshot.relation_id, plan, matcher
        )
        for lo, hi in ranges
    ]
    merge = ctx.storage.counters.merge
    results = get_backend(ctx.workers).imap(tasks)
    for (lo, hi), result in zip(ranges, results):
        merge(result[0])
        yield page_ids[lo:hi], result


def parallel_scan_driver(
    scan_node: ScanNode,
    program: _ScanProgram,
    exprs: list,
    make_process,
):
    """A morsel-parallel ``Scan→Filter*→Project?`` driver, or ``None``.

    ``make_process(ctx, outer)`` is the chain's chunk processor factory
    from :mod:`repro.engine.fuse` — the very closures the serial driver
    runs — and ``exprs`` the filter and projection expressions it
    evaluates, for the subquery veto.  Each task runs the scan kernel
    with a processor (and mutable environment) of its own.
    """
    if not _segment_scan_eligible(scan_node, program):
        return None
    if not _subquery_free(_scan_exprs(scan_node) + exprs):
        return None

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        def make_task(pages, relation_id, plan, matcher):
            return partial(
                scan_pages,
                pages,
                relation_id,
                plan,
                matcher,
                make_process(ctx, outer),
            )

        fetch = ctx.storage.buffer.fetch
        for page_ids, (__, pages) in _morsel_results(
            scan_node, program, ctx, outer, make_task
        ):
            for page_id, chunks in zip(page_ids, pages):
                fetch(page_id)
                for out in chunks:
                    if out:
                        yield out

    return driver


# ---------------------------------------------------------------------------
# exchange: hash-repartitioned nested-loop probes
# ---------------------------------------------------------------------------


def _probe_keys(
    program: _ScanProgram, typed: bool
) -> tuple[tuple[int, ...], tuple, SargProgram, tuple]:
    """Split SARG parts into hash-key equality conjuncts and the rest.

    A part whose DNF is a single group of all-equality predicates is a
    conjunction of ``column = probe-value`` terms: its column positions
    become hash-key components and its value closures compute the probe
    key.  Remaining parts form a shape of their own, whose program each
    probe binds into a matcher over its bucket candidates.
    """
    key_positions: list[int] = []
    key_value_fns: list = []
    rest_shape: list = []
    rest_value_fns: list = []
    values = iter(program.sarg_values)
    for part in program.sarg_shape:
        fns = [next(values) for group in part for __ in group]
        if len(part) == 1 and all(op is CompareOp.EQ for __, op, ___ in part[0]):
            key_positions.extend(position for position, __, ___ in part[0])
            key_value_fns.extend(fns)
        else:
            rest_shape.append(part)
            rest_value_fns.extend(fns)
    return (
        tuple(key_positions),
        tuple(key_value_fns),
        sarg_program(tuple(rest_shape), typed),
        tuple(rest_value_fns),
    )


def _build_buckets(
    snapshot, plan: DecodePlan, key_positions: tuple[int, ...]
) -> dict[tuple, list]:
    """Hash-repartition the frozen inner relation by its probe-key columns.

    Built once per statement from the page-store snapshot (no counter
    effects), in (page, slot) order so every bucket preserves the serial
    scan order.  Rows with a NULL key component are excluded: SQL
    equality never matches NULL, exactly as the serial matcher's
    reject-all behaviour for a NULL comparison value.
    """
    buckets: dict[tuple, list] = {}
    get_page = snapshot.get_page
    relation_id = snapshot.relation_id
    for page_id in snapshot.page_ids:
        for item in page_rows(page_id, get_page(page_id), relation_id, plan):
            values = item[1]
            key = tuple([values[position] for position in key_positions])
            if None in key:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [item]
            else:
                bucket.append(item)
    return buckets


def _probe_chunk(
    ctx: ExecContext,
    outer: EvalEnv | None,
    outer_rows: list[Row],
    buckets: dict[tuple, list],
    key_value_fns,
    rest_program: SargProgram,
    rest_value_fns,
    inner_alias: str,
    inner_test,
    residual,
) -> tuple[CostCounters, list[list[Row]]]:
    """One worker task: answer a chunk of probes by hash lookup.

    Per outer row this reproduces exactly what one serial inner scan
    computes — the SARG-matched tuple set (now a bucket plus the residual
    SARG matcher), its RSI charge, the inner residual test, and the join
    residual — against private environments and counters.  The driving
    thread replays the probe's page fetches.
    """
    counters = CostCounters()
    count_rsi = counters.count_rsi_call
    probe_env = ctx.env(Row(), outer)
    inner_env = ctx.env(Row(), probe_env)
    join_env = ctx.env(Row(), outer)
    no_match: list = []
    results: list[list[Row]] = []
    for outer_row in outer_rows:
        probe_env.row = outer_row
        key = tuple([fn(probe_env) for fn in key_value_fns])
        if None in key:
            matched = no_match
        else:
            matched = buckets.get(key, no_match)
            if matched and rest_value_fns:
                rest = rest_program.bind([fn(probe_env) for fn in rest_value_fns])
                if rest is not None:
                    matched = [item for item in matched if rest(item[1])]
        count_rsi(len(matched))
        out: list[Row] = []
        append = out.append
        outer_values = outer_row.values
        outer_tids = outer_row.tids
        for tid, values in matched:
            if inner_test is not None:
                inner_env.row = Row(
                    values={inner_alias: values}, tids={inner_alias: tid}
                )
                if not inner_test(inner_env):
                    continue
            merged = Row(
                values={**outer_values, inner_alias: values},
                tids={**outer_tids, inner_alias: tid},
            )
            if residual is not None:
                join_env.row = merged
                if not residual(join_env):
                    continue
            append(merged)
        results.append(out)
    return counters, results


def parallel_nested_loop_driver(node: NestedLoopJoinNode, ctx: ExecContext):
    """A hash-exchange nested-loop driver, or ``None`` when ineligible.

    Eligible when the inner is a plain segment scan whose SARGs include
    at least one all-equality conjunct and no expression anywhere in the
    probe (SARG values, inner residual, join residual) contains a
    subquery.  The serial driver rescans every inner page per outer row;
    here the relation is hashed once and each probe is a bucket lookup,
    while the per-probe page fetches are replayed through the buffer pool
    so the cost trace is unchanged.
    """
    inner = node.inner
    inner_program: _ScanProgram = _program(inner, ctx, _build_scan)
    if not _segment_scan_eligible(inner, inner_program):
        return None
    if not _subquery_free(_scan_exprs(inner) + list(node.residual)):
        return None
    key_positions, key_value_fns, rest_program, rest_value_fns = _probe_keys(
        inner_program, not ctx.interpret
    )
    if not key_positions:
        return None
    residual = _program(node, ctx, _build_nested_loop)
    inner_alias = inner.alias
    inner_test = inner_program.residual
    plan = inner_program.decode_plan
    inner_table = inner.table
    from .fuse import _fused_program

    outer_source = _fused_program(node.outer, ctx)

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        snapshot = ctx.storage.scan_snapshot(inner_table)
        inner_pages = snapshot.page_ids
        buckets = _build_buckets(snapshot, plan, key_positions)
        backend = get_backend(ctx.workers)
        fetch = ctx.storage.buffer.fetch
        merge = ctx.storage.counters.merge
        for outer_batch in outer_source(ctx, outer):
            tasks = [
                (
                    lambda rows=outer_batch[lo:hi]: _probe_chunk(
                        ctx,
                        outer,
                        rows,
                        buckets,
                        key_value_fns,
                        rest_program,
                        rest_value_fns,
                        inner_alias,
                        inner_test,
                        residual,
                    )
                )
                for lo, hi in partition_ranges(
                    len(outer_batch), max(backend.workers, len(outer_batch) // _PROBE_CHUNK)
                )
            ]
            out: list[Row] = []
            extend = out.extend
            for counters, results in backend.imap(tasks):
                merge(counters)
                for probe_out in results:
                    for page_id in inner_pages:
                        fetch(page_id)
                    extend(probe_out)
            if out:
                yield out

    return driver


# ---------------------------------------------------------------------------
# exchange: partitioned probes over a shared hash-join build table
# ---------------------------------------------------------------------------


def parallel_hash_join_driver(node: HashJoinNode, ctx: ExecContext):
    """A partitioned-probe hash-join driver, or ``None`` when ineligible.

    The build side is consumed serially on the driving thread through the
    same counted inner scan the serial operator uses, so the build's
    fetch/RSI trace is the statement's own.  The finished table is then
    shared read-only: workers answer contiguous chunks of outer-batch
    probes with private counters that the gather merges in chunk order,
    and chunk results concatenate back into the serial emit order.  Grace
    plans (``partitions > 1``) spill through counted temp lists whose
    traffic is inherently serial, so they stay on the serial driver (the
    fuse dispatch never routes them here).
    """
    if not _subquery_free(node.residual):
        return None
    program: _HashJoinProgram = _program(node, ctx, _build_hash_join)
    from .fuse import _fused_program, probe_hash_table

    outer_source = _fused_program(node.outer, ctx)

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        table = build_hash_table(node, program, ctx, outer)

        def probe_chunk(outer_rows: list[Row]) -> tuple[CostCounters, list[Row]]:
            # The serial probe loop against a private environment and
            # private counters.  The table is frozen before any task is
            # submitted and probes never touch the buffer pool, so no
            # fetch replay is needed.
            counters = CostCounters()
            joined = probe_hash_table(
                outer_rows,
                table,
                program,
                ctx.env(Row(), outer),
                counters.count_rsi_call,
            )
            return counters, joined

        backend = get_backend(ctx.workers)
        merge = ctx.storage.counters.merge
        for outer_batch in outer_source(ctx, outer):
            tasks = [
                partial(probe_chunk, outer_batch[lo:hi])
                for lo, hi in partition_ranges(
                    len(outer_batch),
                    max(backend.workers, len(outer_batch) // _PROBE_CHUNK),
                )
            ]
            out: list[Row] = []
            extend = out.extend
            for counters, rows in backend.imap(tasks):
                merge(counters)
                extend(rows)
            if out:
                yield out

    return driver


# ---------------------------------------------------------------------------
# breaker: partial aggregation over scan morsels
# ---------------------------------------------------------------------------


def parallel_aggregate_driver(node: AggregateNode, ctx: ExecContext):
    """A morsel-parallel ``Scan→Aggregate`` driver, or ``None``.

    Eligible exactly where the serial streaming fold of
    ``fuse._aggregate_driver`` is (bare scan, no residual, plain-column
    keys and arguments) plus the parallel preconditions (segment access,
    subquery-free SARG values and HAVING).  Workers run the fold kernel
    over their morsels; the shared fold driver merges a morsel's first
    run into the previous morsel's last run when they share a key
    (:meth:`_AggState.merge` — the mergeable-partial twin of the
    counter-merge discipline), so group boundaries, representatives,
    and results reproduce the serial scan-order fold bit-for-bit.
    Aggregate folds touch no counters, so the fetch replay per morsel
    keeps the serial page trace.
    """
    from .fuse import scan_fold_driver, scan_fold_shape

    shape = scan_fold_shape(node, ctx)
    if shape is None:
        return None
    scan_node, scan_program, key_positions, arg_positions = shape
    if not _segment_scan_eligible(scan_node, scan_program):
        return None
    having_exprs = [] if node.having is None else [node.having]
    if not _subquery_free(_scan_exprs(scan_node) + having_exprs):
        return None
    aggregates = tuple(node.aggregates)

    def make_task(pages, relation_id, plan, matcher):
        return partial(
            fold_pages,
            pages,
            relation_id,
            plan,
            matcher,
            key_positions,
            arg_positions,
            aggregates,
        )

    def morsel_runs(ctx: ExecContext, outer: EvalEnv | None):
        fetch = ctx.storage.buffer.fetch
        for page_ids, (__, ___, runs) in _morsel_results(
            scan_node, scan_program, ctx, outer, make_task
        ):
            for page_id in page_ids:
                fetch(page_id)
            yield runs

    return scan_fold_driver(node, ctx, shape, morsel_runs)


# ---------------------------------------------------------------------------
# breaker: parallel sorted-run generation
# ---------------------------------------------------------------------------


def parallel_run_sorter(ctx: ExecContext, keys):
    """A drop-in ``run_sorter`` for :class:`ExternalSorter`: per-worker
    sorted slices k-way-merged into one run.

    The workspace splits into contiguous slices, each stably sorted on a
    pool worker, and ``heapq.merge`` reassembles them — equal keys prefer the earlier
    slice, which combined with slice contiguity and per-slice stability
    reproduces the serial stable sort's order exactly.  Run boundaries,
    contents, and temp-list traffic are untouched, so the sort's cost
    trace is bit-identical to the serial sorter's.
    """
    keys = list(keys)

    def sort_run(rows):
        backend = get_backend(ctx.workers)
        if backend.workers <= 1 or len(rows) < _SORT_SLICE_MIN_ROWS:
            return _sorted_run(rows, keys)
        slices = [
            rows[lo:hi]
            for lo, hi in partition_ranges(len(rows), backend.workers)
        ]
        tasks = [
            (lambda part=part: _sorted_run(part, keys)) for part in slices
        ]
        ordered = list(backend.imap(tasks))

        def merge_key(row, _keys=keys):
            return _HeapKey(row, _keys)

        return list(heapq.merge(*ordered, key=merge_key))

    return sort_run
