"""The parallel engine: the fused engine plus one hash exchange.

``exec_mode="parallel"`` runs every plan through the fused drivers of
:mod:`repro.engine.fuse` except one shape.  A nested-loop join whose inner
is a plain segment scan with at least one all-equality probe SARG is
answered from a **hash exchange**: the inner relation is hashed once per
statement on its probe-key columns, and each outer batch is split into
probe chunks that run on the worker pool of
:mod:`repro.engine.scheduler`.  The serial fused driver rescans every
inner page per outer row; the exchange turns each probe into a bucket
lookup.

Counter fidelity is the contract that keeps a parallel run's cost
counters bit-identical to ``fused`` (``repro check --fusion`` checks it):

- **RSI calls** are order-independent sums.  Every probe chunk counts
  into its own private :class:`~repro.rss.counters.CostCounters` and the
  driving thread folds them into the statement's counters with
  :meth:`~repro.rss.counters.CostCounters.merge` as results drain; the
  sum is exact because counters only ever increment outside
  :class:`~repro.rss.counters.CostCounters`.
- **Page fetches and buffer hits** depend on LRU order, so workers never
  touch the buffer pool: the buckets are built from pages read straight
  from the page store (a plain dict lookup with no counter effects), and
  the driving thread *replays* ``BufferPool.fetch`` over every inner
  page once per probe, in probe order, exactly as the serial rescan
  fetched them.

Row order is preserved by construction: buckets are built in (page,
slot) order, probe chunks are contiguous slices of the outer batch, and
the gather concatenates chunk results in submission order.

Eligibility is strict and failure is silent: a join whose SARG values,
inner residual or join residual contain a subquery, or whose inner is an
index scan (the B-tree descent *is* the fetch trace), builds no exchange
and :mod:`repro.engine.fuse` falls back to the serial fused driver.
"""

from __future__ import annotations

from ..optimizer.bound import BoundSubquery
from ..optimizer.plan import IndexAccess, NestedLoopJoinNode, ScanNode
from ..rss.counters import CostCounters
from ..rss.sargs import CompareOp, SargProgram, sarg_program
from ..rss.scan import page_rows
from ..rss.tuples import DecodePlan
from ..sql import ast
from .evaluator import EvalEnv
from .operators import (
    ExecContext,
    _build_nested_loop,
    _build_scan,
    _program,
    _ScanProgram,
)
from .rows import Row
from .scheduler import get_backend

#: Outer rows per probe task for the nested-loop exchange.
_PROBE_CHUNK = 64


def partition_ranges(count: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(count)`` into at most ``parts`` contiguous ranges."""
    parts = max(1, min(parts, count))
    base, extra = divmod(count, parts)
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


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
    fetch trace, so any subquery anywhere in the join vetoes the exchange.
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
    """The exchange hashes plain segment-scan inners only.

    An index scan's B-tree descent and per-entry data-page fetches *are*
    its cost trace — there is no counter-free way to compute them ahead of
    the probes — so index inners stay on the serial fused driver.
    """
    if isinstance(node.access, IndexAccess):
        return False
    return not program.low_fns and not program.high_fns


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
