"""Pipeline fusion: one compiled per-batch driver per fusible chain.

The generator-per-operator engine in :mod:`repro.engine.operators` pays a
Python frame hand-off for every tuple crossing every operator — the exact
tuple-at-a-time tax the paper's W·RSICARD term models.  This module walks
a physical plan once, identifies maximal fusible chains
(``Scan→Filter*→Project``), and compiles each into a **single driver
closure** that rides the page-aligned ``batches()`` interface of
:mod:`repro.rss.scan`: one loop consumes a whole batch, evaluating the
residual, filter, and projection closures inline with zero intermediate
generators.

Pipeline breakers terminate chains and couple them batch-at-a-time:

- **Sort** materializes its input (the fused chain below is consumed
  whole) and re-emits the ordered output in batches.
- **Aggregate** folds a group-ordered batch stream through the shared
  streaming-aggregation core.
- **Merge join** consumes its outer side as fused batches but pulls its
  inner side tuple-at-a-time: the inner may be abandoned early, and
  batch-granular RSI accounting would charge tuples the reference engine
  never pulled (see :func:`_lazy_rows`).
- **Nested-loop join** probes its inner once per outer row and joins
  the matches in one loop: an eligible segment-scan inner is answered
  from a hash of the relation (:func:`_hash_prober`), any other inner
  re-opens its scan (:func:`_rescan_prober`).
- **Subquery-effect barriers** need no special casing: subquery-bearing
  factors are never reordered by :mod:`repro.engine.compile`, and fused
  drivers reuse the *same* compiled conjunction closures as the reference
  operators, so the per-row evaluation cadence (3VL short-circuiting,
  subquery cache hits, cost-counter footprint) is identical by
  construction.

A chain's per-tuple work is written once, as a **chunk processor**
mapping SARG-matched ``(tid, values)`` pairs to an output batch, which
the chain's driver applies over ``scan.batches()``.

Counter fidelity: ``batches()`` does no RSI accounting; drivers charge
``CostCounters.count_rsi_call(len(batch))`` before a batch is processed.
Totals match the tuple-at-a-time path exactly because every batched
stream here is fully consumed — the only partial consumer in the engine
(the merge-join inner) stays on the per-tuple path.

Drivers are compiled once per plan node and cached on
``PlanNode.compiled`` (keys ``"fused"`` and ``"fused_out"``); they
capture only compiled programs and plan constants, never an execution
context, so a cached plan re-executes with fresh runtimes.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Iterator

from ..errors import ExecutionError
from ..optimizer.bound import BoundColumn, BoundSubquery
from ..optimizer.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    HashJoinNode,
    IndexAccess,
    MergeJoinNode,
    NestedLoopJoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from ..optimizer.predicates import SargExpression
from ..rss.sargs import CompareOp, SargProgram, TupleMatcher, sarg_program
from ..rss.scan import page_rows
from ..rss.storage import ScanSnapshot
from ..rss.tuples import DecodePlan
from ..sql import ast
from .evaluator import EvalEnv
from .operators import (
    ExecContext,
    _AggState,
    _build_aggregate,
    _build_filter,
    _build_hash_join,
    _build_merge,
    _build_nested_loop,
    _build_project,
    _build_scan,
    _HashJoinProgram,
    _local_aliases,
    _program,
    _ScanProgram,
    aggregate_rows,
    build_hash_table,
    iterate,
    merge_join_rows,
    open_scan,
    sort_rows,
)
from .rows import AGGREGATE_ALIAS, OUTPUT_ALIAS, Row

#: Rows per re-emitted batch downstream of a pipeline breaker.
BREAKER_BATCH_SIZE = 1024

#: A compiled batch driver: executes one plan subtree against a context,
#: yielding lists of composite rows.
BatchDriver = Callable[[ExecContext, "EvalEnv | None"], Iterator[list[Row]]]


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def fused_batches(
    node: PlanNode, ctx: ExecContext, outer: EvalEnv | None = None
) -> Iterator[list[Row]]:
    """Execute a plan subtree through its fused per-batch drivers."""
    return _fused_program(node, ctx)(ctx, outer)


def fused_rows(
    node: PlanNode, ctx: ExecContext, outer: EvalEnv | None = None
) -> Iterator[Row]:
    """Row stream over :func:`fused_batches`.

    Laziness is batch-granular: pulling one row surfaces (and charges RSI
    for) the whole batch it arrived in.  Every consumer reached through
    :func:`repro.engine.operators.iterate` — statement execution, DML row
    collection, subquery materialization — consumes its stream fully, so
    the totals are identical to tuple-at-a-time iteration.  Partial
    consumers needing an exact per-tuple trace (the merge-join inner) use
    :func:`_lazy_rows` instead.
    """
    return chain.from_iterable(fused_batches(node, ctx, outer))


def output_tuples(
    node: PlanNode, ctx: ExecContext, outer: EvalEnv | None = None
) -> Iterator[tuple]:
    """Bare ``__out__`` tuples of a plan whose consumer reads only them.

    The top-level executor and subquery materialization never look at a
    projected row's alias tuples or TIDs, so their chains skip composite
    ``Row`` construction entirely and emit output tuples straight from
    decoded storage tuples.
    """
    return chain.from_iterable(_output_program(node, ctx)(ctx, outer))


def describe_chains(node: PlanNode) -> list[str]:
    """One line per fused pipeline stage of a plan (for ``repro check``)."""
    chains: list[str] = []
    _collect_chains(node, chains)
    return chains


# ---------------------------------------------------------------------------
# driver compilation
# ---------------------------------------------------------------------------


def _fused_program(node: PlanNode, ctx: ExecContext) -> BatchDriver:
    cache = node.compiled
    if "fused" not in cache:
        cache["fused"] = _build_fused(node, ctx)
    return cache["fused"]


def _build_fused(node: PlanNode, ctx: ExecContext) -> BatchDriver:
    """Compile one plan subtree into its batch driver.

    Dispatches on every plan node type (enforced by the
    ``walker-not-exhaustive`` lint rule): chain heads collapse through
    :func:`_collapse`, breakers get coupling drivers.
    """
    if isinstance(node, (ProjectNode, FilterNode, ScanNode)):
        project, filters, bottom = _collapse(node)
        if isinstance(bottom, ScanNode):
            return _scan_chain_driver(bottom, filters, project, ctx)
        preds = [_program(f, ctx, _build_filter) for f in filters]
        fns = None if project is None else _program(project, ctx, _build_project)
        source = _fused_program(bottom, ctx)
        return _row_chain_driver(source, preds, fns)
    if isinstance(node, NestedLoopJoinNode):
        return _nested_loop_driver(node, ctx)
    if isinstance(node, MergeJoinNode):
        return _merge_join_driver(node, ctx)
    if isinstance(node, HashJoinNode):
        return _hash_join_driver(node, ctx)
    if isinstance(node, SortNode):
        return _sort_driver(node, ctx)
    if isinstance(node, AggregateNode):
        return _aggregate_driver(node, ctx)
    if isinstance(node, DistinctNode):
        return _distinct_driver(node, ctx)
    raise ExecutionError(f"no fused driver for plan node {type(node).__name__}")


def _collapse(
    node: PlanNode,
) -> tuple[ProjectNode | None, list[FilterNode], PlanNode]:
    """Split ``Project?→Filter*→X`` into its fusible stages.

    Filters are returned bottom-up — the order the reference operators
    evaluate them in, which subquery-bearing factors must keep.
    """
    project: ProjectNode | None = None
    if isinstance(node, ProjectNode):
        project = node
        node = node.child
    filters: list[FilterNode] = []
    while isinstance(node, FilterNode):
        filters.append(node)
        node = node.child
    filters.reverse()
    return project, filters, node


def _combine(preds) -> Callable[[EvalEnv], bool] | None:
    """One short-circuiting closure over a cascade of conjunction programs."""
    fns = tuple(fn for fn in preds if fn is not None)
    if not fns:
        return None
    if len(fns) == 1:
        return fns[0]

    def conj(env: EvalEnv, _fns=fns) -> bool:
        for fn in _fns:
            if not fn(env):
                return False
        return True

    return conj


def _column_positions(exprs, alias: str) -> tuple[int, ...] | None:
    """The projected column positions when every expression is a plain
    column of the scan ``alias`` — the output tuple is then an
    ``itemgetter`` over the decoded values, and no compiled closure
    could observe a difference."""
    positions = []
    for expr in exprs:
        if type(expr) is not BoundColumn or expr.alias != alias:
            return None
        positions.append(expr.position)
    return tuple(positions) or None


def columns_getter(positions: tuple[int, ...]):
    """An ``itemgetter`` building an output tuple straight from one
    scan's decoded values (a 1-tuple for a single position)."""
    if len(positions) == 1:
        get = itemgetter(positions[0])

        def single(values: tuple, _get=get) -> tuple:
            return (_get(values),)

        return single
    return itemgetter(*positions)


def _rebatch(rows: Iterator[Row], size: int = BREAKER_BATCH_SIZE):
    """Chunk a row stream back into batches downstream of a breaker."""
    rows = iter(rows)
    while True:
        batch = list(islice(rows, size))
        if not batch:
            return
        yield batch


# ---------------------------------------------------------------------------
# fused chains over a scan
# ---------------------------------------------------------------------------


def _scan_driver(scan_node: ScanNode, process, ctx: ExecContext) -> BatchDriver:
    """Run a chain's chunk processor over its scan's batches.

    ``process(env, chunk)`` maps SARG-matched ``(tid, values)`` pairs to
    an output batch, with ``env`` a mutable environment fresh per open.
    RSI is charged chunk-at-a-time *before* residual evaluation — the
    same point in the stream the per-tuple path charges each tuple, so
    fully consumed chains land on identical totals.
    """
    program = _program(scan_node, ctx, _build_scan)

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        scan = open_scan(scan_node, program, ctx, outer)
        if scan is None:
            return
        count_rsi = ctx.storage.counters.count_rsi_call
        env = ctx.env(Row(), outer)
        for batch in scan.batches():
            count_rsi(len(batch))
            out = process(env, batch)
            if out:
                yield out

    return driver


def _chain_closures(
    scan_node: ScanNode,
    filters: list[FilterNode],
    project: ProjectNode | None,
    ctx: ExecContext,
):
    """A chain's combined predicate and projection closures (or ``None``)."""
    preds = [_program(scan_node, ctx, _build_scan).residual]
    preds.extend(_program(f, ctx, _build_filter) for f in filters)
    fns = None if project is None else _program(project, ctx, _build_project)
    return _combine(preds), fns


def _scan_chain_driver(
    scan_node: ScanNode,
    filters: list[FilterNode],
    project: ProjectNode | None,
    ctx: ExecContext,
) -> BatchDriver:
    """The core fusion: ``Scan→Filter*→Project?`` as one loop per chunk,
    in four flavors by which of the predicate and projection exist."""
    alias = scan_node.alias
    test, fns = _chain_closures(scan_node, filters, project, ctx)

    if test is None and fns is None:

        def process(env: EvalEnv, chunk):
            return [
                Row(values={alias: values}, tids={alias: tid})
                for tid, values in chunk
            ]

    elif fns is None:

        def process(env: EvalEnv, chunk):
            out = []
            append = out.append
            for tid, values in chunk:
                row = Row(values={alias: values}, tids={alias: tid})
                env.row = row
                if test(env):
                    append(row)
            return out

    elif test is None:

        def process(env: EvalEnv, chunk):
            out = []
            append = out.append
            for tid, values in chunk:
                tids = {alias: tid}
                env.row = Row(values={alias: values}, tids=tids)
                append(
                    Row(
                        values={
                            alias: values,
                            OUTPUT_ALIAS: tuple([fn(env) for fn in fns]),
                        },
                        tids=tids,
                    )
                )
            return out

    else:

        def process(env: EvalEnv, chunk):
            out = []
            append = out.append
            for tid, values in chunk:
                tids = {alias: tid}
                env.row = Row(values={alias: values}, tids=tids)
                if test(env):
                    append(
                        Row(
                            values={
                                alias: values,
                                OUTPUT_ALIAS: tuple([fn(env) for fn in fns]),
                            },
                            tids=tids,
                        )
                    )
            return out

    return _scan_driver(scan_node, process, ctx)


def _row_chain_driver(
    source: BatchDriver, preds, fns
) -> BatchDriver:
    """``Filter*→Project?`` applied over a breaker's batch stream in one
    loop per batch (no per-operator generators)."""
    test = _combine(preds)
    if test is None and fns is None:
        return source

    if fns is None:

        def filter_driver(ctx: ExecContext, outer: EvalEnv | None):
            env = ctx.env(Row(), outer)
            for batch in source(ctx, outer):
                out = []
                append = out.append
                for row in batch:
                    env.row = row
                    if test(env):
                        append(row)
                if out:
                    yield out

        return filter_driver

    if test is None:

        def project_driver(ctx: ExecContext, outer: EvalEnv | None):
            env = ctx.env(Row(), outer)
            for batch in source(ctx, outer):
                out = []
                append = out.append
                for row in batch:
                    env.row = row
                    output = tuple([fn(env) for fn in fns])
                    append(
                        Row(
                            values={**row.values, OUTPUT_ALIAS: output},
                            tids=row.tids,
                        )
                    )
                yield out

        return project_driver

    def chain_driver(ctx: ExecContext, outer: EvalEnv | None):
        env = ctx.env(Row(), outer)
        for batch in source(ctx, outer):
            out = []
            append = out.append
            for row in batch:
                env.row = row
                if test(env):
                    output = tuple([fn(env) for fn in fns])
                    append(
                        Row(
                            values={**row.values, OUTPUT_ALIAS: output},
                            tids=row.tids,
                        )
                    )
            if out:
                yield out

    return chain_driver


# ---------------------------------------------------------------------------
# breakers
# ---------------------------------------------------------------------------


def _nested_loop_driver(node: NestedLoopJoinNode, ctx: ExecContext) -> BatchDriver:
    """Nested loops: per outer row, one probe of the inner and one match loop.

    A probe yields the inner tuples its SARGs match, in the serial scan's
    order and already charged their RSI calls; the match loop below, the
    only one, applies the inner residual, merges the composite ``Row``
    and applies the join residual.  The probe is the hash probe of
    :func:`_hash_prober` when the inner is eligible and re-opens the
    inner access (:func:`_rescan_prober`) otherwise.
    """
    residual = _program(node, ctx, _build_nested_loop)
    inner = node.inner
    inner_program = _program(inner, ctx, _build_scan)
    inner_alias = inner.alias
    inner_test = inner_program.residual
    outer_source = _fused_program(node.outer, ctx)
    open_probe = _hash_prober(node, inner_program) or _rescan_prober(
        inner, inner_program
    )

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        # One probe environment re-points at each outer row in turn; the
        # inner residual environment chains through it for correlation.
        probe_env = ctx.env(Row(), outer)
        inner_env = ctx.env(Row(), probe_env)
        join_env = ctx.env(Row(), outer)
        probe = open_probe(ctx)
        for outer_batch in outer_source(ctx, outer):
            out = []
            append = out.append
            for outer_row in outer_batch:
                probe_env.row = outer_row
                outer_values = outer_row.values
                outer_tids = outer_row.tids
                for batch in probe(probe_env):
                    for tid, values in batch:
                        if inner_test is not None:
                            inner_env.row = Row(
                                values={inner_alias: values},
                                tids={inner_alias: tid},
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
            if out:
                yield out

    return driver


def _rescan_prober(inner: ScanNode, program: _ScanProgram):
    """Probes that re-open the inner access per outer row.

    The scan re-opens against the outer row (probe SARGs and index bounds
    re-evaluate) and is always fully consumed, so batch-at-a-time RSI
    charging is exact.
    """

    def open_probe(ctx: ExecContext):
        count_rsi = ctx.storage.counters.count_rsi_call
        # Pages of the inner relation decode once across all probes of
        # this driver call; fetches and counters are probe-exact (the cache
        # dies with the driver call, before any tuple can change).
        decode_cache: dict = {}

        def probe(env: EvalEnv):
            scan = open_scan(inner, program, ctx, env, decode_cache)
            if scan is None:
                return
            for batch in scan.batches():
                count_rsi(len(batch))
                yield batch

        return probe

    return open_probe


#: Expression nodes that evaluate through the runtime's subquery machinery.
#: ``walk_expr`` yields (and does not descend into) both forms.
_SUBQUERY_NODES = (BoundSubquery, ast.InSubquery)


def _subquery_free(exprs) -> bool:
    """True when no expression reaches the runtime's subquery machinery.

    A subquery fetches pages and moves statement-scoped caches in the
    middle of a probe, which the hash probe's replayed fetch trace could
    not reproduce.
    """
    for expr in exprs:
        for node in ast.walk_expr(expr):
            if type(node) in _SUBQUERY_NODES:
                return False
    return True


def _probe_exprs(node: NestedLoopJoinNode) -> list:
    """Every expression a probe evaluates: SARG values, inner and join
    residuals."""
    exprs = list(node.inner.residual) + list(node.residual)
    for expression in node.inner.sargs:
        for group in expression.groups:
            exprs.extend(pred.value for pred in group)
    return exprs


def _reads_outer_row(expression: SargExpression, aliases: set[str]) -> bool:
    """True when a SARG part's values read a column of the join's outer
    row; otherwise they are constants or outer-block references, fixed
    for one driver call."""
    return any(
        type(node) is BoundColumn and node.alias in aliases
        for group in expression.groups
        for pred in group
        for node in ast.walk_expr(pred.value)
    )


def _probe_keys(
    node: NestedLoopJoinNode, program: _ScanProgram
) -> tuple[tuple[int, ...], tuple, SargProgram, tuple, SargProgram, tuple] | None:
    """Split SARG parts into fixed parts, hash-key conjuncts and the rest.

    A part whose values read nothing of the outer row is *fixed*: it binds
    once per driver call and filters the rows before they are hashed.  A
    row-bound part whose DNF is a single group of all-equality predicates
    is a conjunction of ``column = probe-value`` terms: its column
    positions become hash-key components and its value closures compute
    the probe key.  Remaining parts form a shape of their own, whose
    program each probe binds into a matcher over its bucket.  ``None``
    when no part is an all-equality conjunction (ineligible).
    """
    outer_aliases = set(_local_aliases(node.outer))
    hashable = False
    key_positions: list[int] = []
    key_value_fns: list = []
    fixed_shape: list = []
    fixed_value_fns: list = []
    rest_shape: list = []
    rest_value_fns: list = []
    values = iter(program.sarg_values)
    for part, expression in zip(program.sarg_shape, node.inner.sargs):
        fns = [next(values) for group in part for __ in group]
        equality = len(part) == 1 and all(
            op is CompareOp.EQ for __, op, ___ in part[0]
        )
        hashable = hashable or (equality and bool(part[0]))
        if not _reads_outer_row(expression, outer_aliases):
            fixed_shape.append(part)
            fixed_value_fns.extend(fns)
        elif equality:
            key_positions.extend(position for position, __, ___ in part[0])
            key_value_fns.extend(fns)
        else:
            rest_shape.append(part)
            rest_value_fns.extend(fns)
    if not hashable:
        return None
    return (
        tuple(key_positions),
        tuple(key_value_fns),
        sarg_program(tuple(fixed_shape)),
        tuple(fixed_value_fns),
        sarg_program(tuple(rest_shape)),
        tuple(rest_value_fns),
    )


def _build_buckets(
    snapshot: ScanSnapshot,
    plan: DecodePlan,
    key_positions: tuple[int, ...],
    keep: TupleMatcher | None,
) -> dict[tuple, list]:
    """Hash the frozen inner relation by its probe-key columns.

    Read from the page-store snapshot (no counter effects) in (page, slot)
    order, so every bucket keeps the serial scan order.  Rows ``keep``
    (the fixed SARG parts' matcher) rejects are left out, and so are rows
    with a NULL key component: SQL equality never matches NULL, exactly
    as the serial matcher rejects every tuple for a NULL probe value.
    """
    buckets: dict[tuple, list] = {}
    get_page = snapshot.get_page
    relation_id = snapshot.relation_id
    for page_id in snapshot.page_ids:
        for item in page_rows(page_id, get_page(page_id), relation_id, plan):
            values = item[1]
            if keep is not None and not keep(values):
                continue
            key = tuple([values[position] for position in key_positions])
            if None in key:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [item]
            else:
                bucket.append(item)
    return buckets


def _hash_prober(node: NestedLoopJoinNode, program: _ScanProgram):
    """Hash probes of a segment-scan inner, or ``None`` when ineligible.

    Eligible: the inner is a plain segment scan, at least one SARG part
    is an all-equality conjunction, and nothing the probe evaluates
    contains a subquery.  An index inner is never eligible: its B-tree
    descent and per-entry data-page fetches *are* its cost trace.

    The inner relation is hashed on the first probe of a driver call, so
    a join whose outer yields nothing decodes no inner page.  Only rows
    the fixed SARG parts (constants, outer-block references) match are
    hashed, keyed on the parts bound to the outer row.  Each probe
    is then a bucket lookup that reproduces one serial inner scan's cost
    trace exactly: it charges one RSI call per SARG-matched tuple and
    replays ``BufferPool.note_fetch`` over every inner page in segment
    order, as the rescan would have fetched them, without resolving the
    pages it does not read.  The match loop has no counter
    effects (no subqueries), so the trace is the serial one.
    """
    inner = node.inner
    if isinstance(inner.access, IndexAccess) or not _subquery_free(
        _probe_exprs(node)
    ):
        return None
    split = _probe_keys(node, program)
    if split is None:
        return None
    (
        key_positions,
        key_value_fns,
        fixed_program,
        fixed_value_fns,
        rest_program,
        rest_value_fns,
    ) = split
    table = inner.table
    plan = program.decode_plan

    def open_probe(ctx: ExecContext):
        storage = ctx.storage
        count_rsi = storage.counters.count_rsi_call
        note_fetch = storage.buffer.note_fetch
        buckets: dict[tuple, list] | None = None
        inner_pages: tuple[int, ...] = ()
        no_match: list = []

        def probe(env: EvalEnv):
            nonlocal buckets, inner_pages
            if buckets is None:
                snapshot = storage.scan_snapshot(table)
                inner_pages = snapshot.page_ids
                keep = fixed_program.bind([fn(env) for fn in fixed_value_fns])
                buckets = _build_buckets(snapshot, plan, key_positions, keep)
            key = tuple([fn(env) for fn in key_value_fns])
            matched = no_match if None in key else buckets.get(key, no_match)
            if matched and rest_value_fns:
                rest = rest_program.bind([fn(env) for fn in rest_value_fns])
                if rest is not None:
                    matched = [item for item in matched if rest(item[1])]
            count_rsi(len(matched))
            for page_id in inner_pages:
                note_fetch(page_id)
            return (matched,)

        return probe

    return open_probe


def _hash_join_driver(node: HashJoinNode, ctx: ExecContext) -> BatchDriver:
    """Hash join with the probe loop inlined over fused outer batches.

    The build side is bucketed once per driver call (once per statement)
    through the same counted scan consumption as the reference operator,
    so the fetch trace and RSI totals are identical; each probed bucket
    charges one RSI call per delivered tuple, exactly like the per-tuple
    path.  Grace-partitioned plans run the serial partitioned code in
    every mode and only re-batch its output here.
    """
    if node.partitions > 1:

        def grace_driver(ctx: ExecContext, outer: EvalEnv | None):
            serial = replace(ctx, fused=False)
            yield from _rebatch(iterate(node, serial, outer))

        return grace_driver

    program = _program(node, ctx, _build_hash_join)
    outer_source = _fused_program(node.outer, ctx)

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        count_rsi = ctx.storage.counters.count_rsi_call
        table = build_hash_table(node, program, ctx, outer)
        env = ctx.env(Row(), outer)
        for outer_batch in outer_source(ctx, outer):
            out = probe_hash_table(outer_batch, table, program, env, count_rsi)
            if out:
                yield out

    return driver


def probe_hash_table(
    outer_rows: list[Row],
    table: dict[tuple, list[Row]],
    program: _HashJoinProgram,
    env: EvalEnv,
    count_rsi: Callable[[int], None],
) -> list[Row]:
    """The probe loop over one batch of outer rows.

    Each probed bucket charges its size in RSI calls before the residual
    runs, exactly like the per-tuple path; a key with a NULL component
    is never in the table, so the bucket miss handles 3VL.
    """
    getters = program.outer_getters
    residual = program.residual
    out: list[Row] = []
    append = out.append
    for outer_row in outer_rows:
        key = tuple([getter(outer_row) for getter in getters])
        bucket = table.get(key)
        if bucket is None:
            continue
        count_rsi(len(bucket))
        if residual is None:
            for inner_row in bucket:
                append(outer_row.merged(inner_row))
        else:
            for inner_row in bucket:
                merged = outer_row.merged(inner_row)
                env.row = merged
                if residual(env):
                    append(merged)
    return out


def _merge_join_driver(node: MergeJoinNode, ctx: ExecContext) -> BatchDriver:
    """Merge join over a fused outer and a tuple-at-a-time inner.

    The outer side is always exhausted, so it fuses; the inner may be
    abandoned mid-stream, so it must stay on the exact per-tuple path
    (:func:`_lazy_rows`) to keep RSI and page-fetch traces identical.
    """
    program = _program(node, ctx, _build_merge)
    outer_source = _fused_program(node.outer, ctx)

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        joined = merge_join_rows(
            program,
            ctx.storage.counters.count_rsi_call,
            ctx.env(Row(), outer),
            chain.from_iterable(outer_source(ctx, outer)),
            _lazy_rows(node.inner, ctx, outer),
        )
        yield from _rebatch(joined)

    return driver


def _lazy_rows(
    node: PlanNode, ctx: ExecContext, outer: EvalEnv | None
) -> Iterator[Row]:
    """A genuinely tuple-at-a-time stream for partially-consumed inputs.

    A sort's *input* is fully consumed by the sorter even when the sorted
    output is abandoned, so sorts fuse their input and stay lazy on
    output (run pages are read back only as rows are pulled).  Everything
    else rides the per-tuple reference operators — for a bare scan that
    is already a single compiled loop, so nothing is lost.
    """
    if isinstance(node, SortNode):
        return sort_rows(
            node, ctx, chain.from_iterable(fused_batches(node.child, ctx, outer))
        )
    return iterate(node, replace(ctx, fused=False), outer)


def _sort_driver(node: SortNode, ctx: ExecContext) -> BatchDriver:
    source = _fused_program(node.child, ctx)

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        ordered = sort_rows(
            node, ctx, chain.from_iterable(source(ctx, outer))
        )
        yield from _rebatch(ordered)

    return driver


def _aggregate_driver(node: AggregateNode, ctx: ExecContext) -> BatchDriver:
    shape = scan_fold_shape(node, ctx)
    if shape is not None:
        return scan_fold_driver(node, ctx, shape)
    program = _program(node, ctx, _build_aggregate)
    source = _fused_program(node.child, ctx)

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        grouped = aggregate_rows(
            node, program, ctx, outer, chain.from_iterable(source(ctx, outer))
        )
        yield from _rebatch(grouped)

    return driver


def scan_fold_shape(node: AggregateNode, ctx: ExecContext):
    """``(scan node, scan program, key positions, argument positions)``
    when ``Scan→Aggregate`` can fold decoded storage tuples directly.

    That needs a bare scan below (group order from an index, or none for
    ungrouped aggregates), no residual, and every grouping key and
    aggregate argument a plain column of that scan; ``None`` otherwise.
    Argument positions align with ``node.aggregates`` (``None`` marks
    ``COUNT(*)``).
    """
    project, filters, bottom = _collapse(node.child)
    if project is not None or filters or not isinstance(bottom, ScanNode):
        return None
    scan_program = _program(bottom, ctx, _build_scan)
    if scan_program.residual is not None:
        return None
    alias = bottom.alias
    for column in node.group_by:
        if column.alias != alias:
            return None
    arg_positions: list[int | None] = []
    for call in node.aggregates:
        if call.argument is None:
            arg_positions.append(None)
        elif (
            type(call.argument) is BoundColumn
            and call.argument.alias == alias
        ):
            arg_positions.append(call.argument.position)
        else:
            return None
    key_positions = tuple(column.position for column in node.group_by)
    return bottom, scan_program, key_positions, tuple(arg_positions)


def scan_fold_driver(node: AggregateNode, ctx: ExecContext, shape) -> BatchDriver:
    """``Scan→Aggregate`` folded over decoded storage tuples.

    The per-tuple fold (:func:`run_folder`) indexes the decoded values
    tuple directly — no composite ``Row``, no environment, no
    compiled-closure calls below the group boundary.
    One representative ``Row`` per *group* is built at emit for HAVING
    and downstream projection, exactly as the reference streaming
    aggregation builds it.

    The folder runs over ``scan.batches()`` and finished groups emit
    between batches (a HAVING subquery keeps its place in the fetch
    trace).
    """
    scan_node, scan_program, key_positions, arg_positions = shape
    alias = scan_node.alias
    aggregates = tuple(node.aggregates)
    having = _program(node, ctx, _build_aggregate).having
    grouped = bool(node.group_by)

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        having_env = None if having is None else ctx.env(Row(), outer)
        emitted: list[Row] = []
        runs: list[tuple] = []

        def emit(representative: Row, states) -> None:
            results = tuple([state.result() for state in states])
            out = representative.with_alias(AGGREGATE_ALIAS, results)
            if having is not None:
                having_env.row = out
                if having(having_env) is not True:
                    return
            emitted.append(out)

        def flush(count: int) -> None:
            for __, states, tid, values in runs[:count]:
                emit(Row(values={alias: values}, tids={alias: tid}), states)
            del runs[:count]

        scan = open_scan(scan_node, scan_program, ctx, outer)
        if scan is not None:
            count_rsi = ctx.storage.counters.count_rsi_call
            fold = run_folder(runs, key_positions, arg_positions, aggregates)
            for batch in scan.batches():
                count_rsi(len(batch))
                fold(batch)
                if len(runs) > 1:
                    flush(len(runs) - 1)
        if runs:
            flush(1)
        elif not grouped:
            # Aggregates over an empty input still produce one row.
            emit(Row(), [_AggState(call) for call in aggregates])
        if emitted:
            yield emitted

    return driver


def run_folder(
    runs: list[tuple],
    key_positions: tuple[int, ...],
    arg_positions: tuple[int | None, ...],
    calls,
):
    """A chunk processor folding rows into per-group aggregate states.

    Appends ``(key, states, tid, values)`` to ``runs`` in
    first-occurrence order under streaming (adjacency) group semantics —
    a key reappearing after another opens a new run — with ``tid`` and
    ``values`` those of the run's first row.  The open group carries
    across calls, so a consumer may emit and drop every run but the
    last between chunks.
    """
    current_key: object = None
    states: list[_AggState] = []

    def fold(chunk) -> None:
        nonlocal current_key, states
        for tid, values in chunk:
            key = tuple([values[p] for p in key_positions])
            if key != current_key:
                current_key = key
                states = [_AggState(call) for call in calls]
                runs.append((key, states, tid, values))
            for state, position in zip(states, arg_positions):
                state.add(None if position is None else values[position])

    return fold


def _distinct_driver(node: DistinctNode, ctx: ExecContext) -> BatchDriver:
    source = _fused_program(node.child, ctx)

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        seen: set[tuple] = set()
        add = seen.add
        for batch in source(ctx, outer):
            out = []
            append = out.append
            for row in batch:
                key = row.values[OUTPUT_ALIAS]
                if key not in seen:
                    add(key)
                    append(row)
            if out:
                yield out

    return driver


# ---------------------------------------------------------------------------
# output-tuple fast path
# ---------------------------------------------------------------------------


def _output_program(node: PlanNode, ctx: ExecContext) -> BatchDriver:
    cache = node.compiled
    if "fused_out" not in cache:
        cache["fused_out"] = _build_output(node, ctx)
    return cache["fused_out"]


def _build_output(node: PlanNode, ctx: ExecContext) -> BatchDriver:
    """A driver yielding batches of bare output tuples (no ``Row``s)."""
    if isinstance(node, DistinctNode):
        source = _output_program(node.child, ctx)

        def distinct_driver(ctx: ExecContext, outer: EvalEnv | None):
            seen: set[tuple] = set()
            add = seen.add
            for batch in source(ctx, outer):
                out = []
                append = out.append
                for item in batch:
                    if item not in seen:
                        add(item)
                        append(item)
                if out:
                    yield out

        return distinct_driver
    if isinstance(node, ProjectNode):
        project, filters, bottom = _collapse(node)
        assert project is not None
        if isinstance(bottom, ScanNode):
            return _scan_output_driver(bottom, filters, project, ctx)
        preds = [_program(f, ctx, _build_filter) for f in filters]
        return _row_output_driver(
            _fused_program(bottom, ctx), preds, project, ctx
        )

    # No projection at the root (defensive): read the materialized alias.
    source = _fused_program(node, ctx)

    def alias_driver(ctx: ExecContext, outer: EvalEnv | None):
        for batch in source(ctx, outer):
            yield [row.values[OUTPUT_ALIAS] for row in batch]

    return alias_driver


def _scan_output_driver(
    scan_node: ScanNode,
    filters: list[FilterNode],
    project: ProjectNode,
    ctx: ExecContext,
) -> BatchDriver:
    """``Scan→Filter*→Project`` emitting output tuples directly.

    When the whole select list is plain columns of the scanned relation
    the projection collapses to a single :func:`operator.itemgetter` over
    the decoded storage tuple — no environment, no ``Row``, no closure
    calls per column — and, unfiltered, the processor never touches its
    environment.
    """
    alias = scan_node.alias
    test, fns = _chain_closures(scan_node, filters, project, ctx)
    positions = _column_positions(project.exprs, alias)

    if test is None and positions is not None:
        getter = columns_getter(positions)

        def process(env: EvalEnv, chunk):
            return [getter(values) for __, values in chunk]

    elif test is None:

        def process(env: EvalEnv, chunk):
            out = []
            append = out.append
            for __, values in chunk:
                env.row = Row(values={alias: values})
                append(tuple([fn(env) for fn in fns]))
            return out

    elif positions is not None:
        fast = columns_getter(positions)

        def process(env: EvalEnv, chunk):
            out = []
            append = out.append
            for __, values in chunk:
                env.row = Row(values={alias: values})
                if test(env):
                    append(fast(values))
            return out

    else:

        def process(env: EvalEnv, chunk):
            out = []
            append = out.append
            for __, values in chunk:
                env.row = Row(values={alias: values})
                if test(env):
                    append(tuple([fn(env) for fn in fns]))
            return out

    return _scan_driver(scan_node, process, ctx)


def _row_output_driver(
    source: BatchDriver, preds, project: ProjectNode, ctx: ExecContext
) -> BatchDriver:
    """``Filter*→Project`` over a breaker's batches, emitting bare tuples."""
    test = _combine(preds)
    fns = _program(project, ctx, _build_project)

    if test is None:

        def project_driver(ctx: ExecContext, outer: EvalEnv | None):
            env = ctx.env(Row(), outer)
            for batch in source(ctx, outer):
                out = []
                append = out.append
                for row in batch:
                    env.row = row
                    append(tuple([fn(env) for fn in fns]))
                yield out

        return project_driver

    def chain_driver(ctx: ExecContext, outer: EvalEnv | None):
        env = ctx.env(Row(), outer)
        for batch in source(ctx, outer):
            out = []
            append = out.append
            for row in batch:
                env.row = row
                if test(env):
                    append(tuple([fn(env) for fn in fns]))
            if out:
                yield out

    return chain_driver


# ---------------------------------------------------------------------------
# plan inspection (repro check --fusion)
# ---------------------------------------------------------------------------


def _collect_chains(node: PlanNode, chains: list[str]) -> None:
    if isinstance(node, (ProjectNode, FilterNode, ScanNode)):
        project, filters, bottom = _collapse(node)
        label_parts: list[str] = []
        if project is not None:
            label_parts.append("project")
        if filters:
            label_parts.append(f"filter x{len(filters)}")
        if isinstance(bottom, ScanNode):
            suffix = " +residual" if bottom.residual else ""
            label_parts.append(f"scan {bottom.alias}{suffix}")
            chains.append(" <- ".join(label_parts))
            return
        if label_parts:
            chains.append(" <- ".join(label_parts) + " <- [breaker batches]")
        _collect_chains(bottom, chains)
        return
    if isinstance(node, MergeJoinNode):
        chains.append("merge join (fused outer, tuple-at-a-time inner)")
        _collect_chains(node.outer, chains)
        if isinstance(node.inner, SortNode):
            _collect_chains(node.inner.child, chains)
        return
    if isinstance(node, NestedLoopJoinNode):
        chains.append(
            f"nested-loop join (inlined inner scan {node.inner.alias})"
        )
        _collect_chains(node.outer, chains)
        return
    if isinstance(node, HashJoinNode):
        grace = f", grace x{node.partitions}" if node.partitions > 1 else ""
        chains.append(
            f"hash join (build {node.inner.alias}{grace}, fused probe)"
        )
        _collect_chains(node.outer, chains)
        return
    for child in node.children():
        _collect_chains(child, chains)
