"""Plan operators: iterators that pull rows through the chosen access paths.

Each plan node type has an ``_iter_*`` function; :func:`iterate` dispatches.
Operators receive an :class:`ExecContext` (runtime services plus the
current block's alias schemas) and an optional outer :class:`EvalEnv`
chain carrying enclosing blocks' candidate tuples for correlation and
nested-loop probes.

Expressions never evaluate by tree-walking here.  On first execution each
node's predicates, projections, and SARG value expressions are compiled
once (:mod:`repro.engine.compile`) into closure programs cached on the
node (``PlanNode.compiled``, keyed by execution mode), and the per-row
loops call those closures against a single mutated environment per
operator — no per-row ``EvalEnv`` construction, no ``isinstance``
dispatch, no alias-chain walks for block-local columns.  Expressions
evaluated at *open* (SARG comparison values, index bounds) compile with an
empty local-alias set: their environment's own row is empty, and probe or
correlation values genuinely live in the enclosing chain.

RSI accounting stays exact: scans are consumed through uncounted
``batches()`` and every consumed tuple is charged via
``CostCounters.count_rsi_call`` at the moment it surfaces, so partial
consumption (a merge join that stops pulling) counts precisely the tuples
the tuple-at-a-time interface would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..datatypes import DataType
from ..errors import ExecutionError
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
    walk_plan,
)
from ..rss.sargs import SargProgram, SargShape, column_kind, sarg_program
from ..rss.tuples import DecodePlan
from ..sql import ast
from .compile import EvalFn, ExprCompiler, ordering_fns
from .evaluator import EvalEnv
from .rows import AGGREGATE_ALIAS, OUTPUT_ALIAS, Row


@dataclass
class ExecContext:
    """Per-block execution context."""

    runtime: object  # Runtime (duck-typed to avoid an import cycle)
    schemas: dict[str, list[DataType]]
    #: When set, compiled programs are thin wrappers over the reference
    #: interpreter — identical operators, interpreted expressions.
    interpret: bool = False
    #: When set, plans execute through the fused per-batch drivers of
    #: :mod:`repro.engine.fuse` instead of one generator per operator.
    fused: bool = False

    @property
    def storage(self):
        """The storage engine behind this execution."""
        return self.runtime.storage  # type: ignore[attr-defined]

    def env(self, row: Row, outer: EvalEnv | None) -> EvalEnv:
        """An evaluation environment for one row plus the enclosing chain."""
        return EvalEnv(row=row, runtime=self.runtime, outer=outer)


def iterate(
    node: PlanNode, ctx: ExecContext, outer: EvalEnv | None = None
) -> Iterator[Row]:
    """Execute a plan node, yielding composite rows.

    In fused mode the whole subtree is handed to the pipeline compiler,
    which drives maximal Scan→Filter→Project chains as single per-batch
    closures; the generator-per-operator dispatch below is the
    ``interp`` reference path, and the per-tuple path the fused engine
    keeps for grace hash joins and merge-join inners.
    """
    if ctx.fused:
        from .fuse import fused_rows

        return fused_rows(node, ctx, outer)
    if isinstance(node, ScanNode):
        return _iter_scan(node, ctx, outer)
    if isinstance(node, FilterNode):
        return _iter_filter(node, ctx, outer)
    if isinstance(node, NestedLoopJoinNode):
        return _iter_nested_loop(node, ctx, outer)
    if isinstance(node, MergeJoinNode):
        return _iter_merge_join(node, ctx, outer)
    if isinstance(node, HashJoinNode):
        return _iter_hash_join(node, ctx, outer)
    if isinstance(node, SortNode):
        return _iter_sort(node, ctx, outer)
    if isinstance(node, AggregateNode):
        return _iter_aggregate(node, ctx, outer)
    if isinstance(node, ProjectNode):
        return _iter_project(node, ctx, outer)
    if isinstance(node, DistinctNode):
        return _iter_distinct(node, ctx, outer)
    raise ExecutionError(f"no operator for plan node {type(node).__name__}")


# ---------------------------------------------------------------------------
# compiled-program cache
# ---------------------------------------------------------------------------


def _program(node: PlanNode, ctx: ExecContext, build: Callable):
    """The node's compiled program for the context's execution mode."""
    key = "interp" if ctx.interpret else "compiled"
    cache = node.compiled
    if key not in cache:
        cache[key] = build(node, ctx)
    return cache[key]


def _local_aliases(node: PlanNode) -> tuple[str, ...]:
    """Aliases whose tuples are present in the rows this subtree produces."""
    return tuple(
        scan.alias for scan in walk_plan(node) if isinstance(scan, ScanNode)
    )


def _compiler(node: PlanNode, ctx: ExecContext) -> ExprCompiler:
    return ExprCompiler(_local_aliases(node), interpret=ctx.interpret)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


@dataclass
class _ScanProgram:
    """Everything per-query-constant about opening and driving one scan."""

    decode_plan: DecodePlan
    #: the SARGs' shape (per sargable factor, per DNF group, per predicate:
    #: column position, operator, column kind), so the fused nested-loop
    #: hash probe can recognize equality probe keys without re-walking
    #: the plan
    sarg_shape: SargShape
    #: one value closure per shape predicate, in shape order
    sarg_values: tuple[EvalFn, ...]
    #: the shape's generated predicate; a scan open binds the values
    sarg: SargProgram
    low_fns: tuple[EvalFn, ...] = ()
    high_fns: tuple[EvalFn, ...] = ()
    residual: Callable[[EvalEnv], bool] | None = None


def _build_scan(node: ScanNode, ctx: ExecContext) -> _ScanProgram:
    # SARG values and index bounds evaluate at open against an empty row,
    # so every column they mention resolves through the enclosing chain.
    opens = ExprCompiler((), interpret=ctx.interpret)
    shape = tuple(
        tuple(
            tuple(
                (pred.column.position, pred.op, column_kind(pred.column.datatype))
                for pred in group
            )
            for group in expression.groups
        )
        for expression in node.sargs
    )
    sarg_values = tuple(
        opens.expr_fn(pred.value)
        for expression in node.sargs
        for group in expression.groups
        for pred in group
    )
    low_fns: tuple[EvalFn, ...] = ()
    high_fns: tuple[EvalFn, ...] = ()
    if isinstance(node.access, IndexAccess):
        low_fns = tuple(opens.expr_fn(expr) for expr in node.access.low)
        high_fns = tuple(opens.expr_fn(expr) for expr in node.access.high)
    residual = ExprCompiler((node.alias,), interpret=ctx.interpret).conjunction(
        node.residual
    )
    return _ScanProgram(
        decode_plan=DecodePlan(ctx.schemas[node.alias]),
        sarg_shape=shape,
        sarg_values=sarg_values,
        sarg=sarg_program(shape, not ctx.interpret),
        low_fns=low_fns,
        high_fns=high_fns,
        residual=residual,
    )


def open_scan(
    node: ScanNode,
    program: _ScanProgram,
    ctx: ExecContext,
    outer: EvalEnv | None,
    decode_cache: dict | None = None,
):
    """Open the node's RSS scan: evaluate SARG values and index bounds
    against the enclosing environment chain, compile the matcher, and
    return the scan — or ``None`` when a NULL bound can never match.

    ``decode_cache`` (fused nested-loop probes only) is shared across
    repeated opens of the same node so unchanged pages decode once; page
    fetches and counters are unaffected (see :mod:`repro.rss.scan`).
    """
    value_env = ctx.env(Row(), outer)
    matcher = None
    if program.sarg_values:
        # Probe and correlation values bind into the generated predicate.
        matcher = program.sarg.bind([fn(value_env) for fn in program.sarg_values])
    storage = ctx.storage
    if not program.low_fns and not program.high_fns and not isinstance(
        node.access, IndexAccess
    ):
        return storage.segment_scan(
            node.table,
            matcher=matcher,
            decode_plan=program.decode_plan,
            decode_cache=decode_cache,
        )
    access = node.access
    assert isinstance(access, IndexAccess)
    low = tuple(fn(value_env) for fn in program.low_fns)
    high = tuple(fn(value_env) for fn in program.high_fns)
    if any(value is None for value in low) or any(
        value is None for value in high
    ):
        return None  # a NULL bound can never be satisfied
    return storage.index_scan(
        access.index,
        node.table,
        low=low or None,
        high=high or None,
        low_inclusive=access.low_inclusive,
        high_inclusive=access.high_inclusive,
        matcher=matcher,
        decode_plan=program.decode_plan,
        decode_cache=decode_cache,
    )


def _iter_scan(
    node: ScanNode, ctx: ExecContext, outer: EvalEnv | None
) -> Iterator[Row]:
    program: _ScanProgram = _program(node, ctx, _build_scan)
    scan = open_scan(node, program, ctx, outer)
    if scan is None:
        return
    count_rsi = ctx.storage.counters.count_rsi_call
    alias = node.alias
    residual = program.residual
    if residual is None:
        for batch in scan.batches():
            for tid, values in batch:
                count_rsi()
                yield Row(values={alias: values}, tids={alias: tid})
    else:
        env = ctx.env(Row(), outer)
        for batch in scan.batches():
            for tid, values in batch:
                count_rsi()
                row = Row(values={alias: values}, tids={alias: tid})
                env.row = row
                if residual(env):
                    yield row


# ---------------------------------------------------------------------------
# filters and joins
# ---------------------------------------------------------------------------


def _build_filter(node: FilterNode, ctx: ExecContext):
    return _compiler(node.child, ctx).conjunction(node.predicates)


def _iter_filter(
    node: FilterNode, ctx: ExecContext, outer: EvalEnv | None
) -> Iterator[Row]:
    keep = _program(node, ctx, _build_filter)
    child = iterate(node.child, ctx, outer)
    if keep is None:
        yield from child
        return
    env = ctx.env(Row(), outer)
    for row in child:
        env.row = row
        if keep(env):
            yield row


def _build_nested_loop(node: NestedLoopJoinNode, ctx: ExecContext):
    return _compiler(node, ctx).conjunction(node.residual)


def _iter_nested_loop(
    node: NestedLoopJoinNode, ctx: ExecContext, outer: EvalEnv | None
) -> Iterator[Row]:
    residual = _program(node, ctx, _build_nested_loop)
    probe_env = ctx.env(Row(), outer)
    env = ctx.env(Row(), outer)
    for outer_row in iterate(node.outer, ctx, outer):
        # The inner pipeline is exhausted before the next outer row, so one
        # probe environment is safely re-pointed at each outer row in turn.
        probe_env.row = outer_row
        if residual is None:
            for inner_row in iterate(node.inner, ctx, probe_env):
                yield outer_row.merged(inner_row)
        else:
            for inner_row in iterate(node.inner, ctx, probe_env):
                merged = outer_row.merged(inner_row)
                env.row = merged
                if residual(env):
                    yield merged


@dataclass
class _MergeProgram:
    outer_get: Callable[[Row], object]
    inner_get: Callable[[Row], object]
    key_eq: Callable[[object, object], bool]
    key_ge: Callable[[object, object], bool]
    residual: Callable[[EvalEnv], bool] | None


def _build_merge(node: MergeJoinNode, ctx: ExecContext) -> _MergeProgram:
    compiler = _compiler(node, ctx)
    key_eq, key_ge = ordering_fns(
        node.outer_column.datatype,
        node.inner_column.datatype,
        interpret=ctx.interpret,
    )
    return _MergeProgram(
        outer_get=compiler.column_getter(node.outer_column),
        inner_get=compiler.column_getter(node.inner_column),
        key_eq=key_eq,
        key_ge=key_ge,
        residual=compiler.conjunction(node.residual),
    )


_EMPTY_MARKER = object()


def _iter_merge_join(
    node: MergeJoinNode, ctx: ExecContext, outer: EvalEnv | None
) -> Iterator[Row]:
    program: _MergeProgram = _program(node, ctx, _build_merge)
    return merge_join_rows(
        program,
        ctx.storage.counters.count_rsi_call,
        ctx.env(Row(), outer),
        iterate(node.outer, ctx, outer),
        iterate(node.inner, ctx, outer),
    )


def merge_join_rows(
    program: _MergeProgram,
    count_rsi: Callable[[], None],
    env: EvalEnv,
    outer_rows: Iterator[Row],
    inner_rows: Iterator[Row],
) -> Iterator[Row]:
    """Synchronized merging scans with join-group rewind.

    The inner's current group is buffered; when consecutive outer tuples
    carry the same join value the group is replayed, and each replayed
    tuple is counted as an RSI call — that re-retrieval is exactly what the
    cost formulas charge for.  The outer input is always fully consumed;
    the inner is pulled tuple-at-a-time and may be abandoned early, so
    callers must hand in a genuinely lazy inner iterator.
    """
    inner_key = program.inner_get
    outer_get = program.outer_get
    key_eq = program.key_eq
    key_ge = program.key_ge
    residual = program.residual

    inner_iter = iter(inner_rows)
    inner_current = next(inner_iter, None)
    group: list[Row] = []
    group_key: object = _EMPTY_MARKER
    group_served_once = False

    for outer_row in outer_rows:
        outer_key = outer_get(outer_row)
        if outer_key is None:
            continue  # NULL join keys never match
        if group_key is not _EMPTY_MARKER and key_eq(outer_key, group_key):
            replay = True
        else:
            # Advance the inner scan to the first key >= outer_key.
            while inner_current is not None:
                key = inner_key(inner_current)
                if key is not None and key_ge(key, outer_key):
                    break
                inner_current = next(inner_iter, None)
            group = []
            group_key = outer_key
            group_served_once = False
            while inner_current is not None:
                key = inner_key(inner_current)
                if key is None or not key_eq(key, outer_key):
                    break
                group.append(inner_current)
                inner_current = next(inner_iter, None)
            replay = False
        for inner_row in group:
            if replay or group_served_once:
                # Re-retrieving a buffered group tuple is an RSI call.
                count_rsi()
            merged = outer_row.merged(inner_row)
            if residual is not None:
                env.row = merged
                if not residual(env):
                    continue
            yield merged
        group_served_once = True


# ---------------------------------------------------------------------------
# hash join
# ---------------------------------------------------------------------------


@dataclass
class _HashJoinProgram:
    """Per-query-constant parts of a build/probe hash join."""

    outer_getters: tuple[Callable[[Row], object], ...]
    inner_getters: tuple[Callable[[Row], object], ...]
    #: per key column: a deterministic 32-bit hash of one value, used only
    #: for grace partition assignment (never Python's randomized str hash,
    #: so partition contents — and therefore temp page counts — are
    #: identical across runs and processes).
    partition_fns: tuple[Callable[[object], int], ...]
    residual: Callable[[EvalEnv], bool] | None


def _partition_value_fn(datatype: DataType) -> Callable[[object], int]:
    if column_kind(datatype) == "str":
        from zlib import crc32

        return lambda value: crc32(str(value).encode())
    # Python's numeric hash is not seed-randomized and agrees across int
    # and float representations of the same value (hash(1) == hash(1.0)),
    # so equal keys always land in the same partition.
    return lambda value: hash(value) & 0xFFFFFFFF


def _build_hash_join(node: HashJoinNode, ctx: ExecContext) -> _HashJoinProgram:
    compiler = _compiler(node, ctx)
    return _HashJoinProgram(
        outer_getters=tuple(
            compiler.column_getter(outer_col) for outer_col, __ in node.keys
        ),
        inner_getters=tuple(
            compiler.column_getter(inner_col) for __, inner_col in node.keys
        ),
        partition_fns=tuple(
            _partition_value_fn(inner_col.datatype) for __, inner_col in node.keys
        ),
        residual=compiler.conjunction(node.residual),
    )


def build_hash_table(
    node: HashJoinNode,
    program: _HashJoinProgram,
    ctx: ExecContext,
    outer: EvalEnv | None,
) -> dict[tuple, list[Row]]:
    """Scan the build (inner) side once and bucket it by join key.

    The scan is fully counted — pages through the buffer pool, one RSI
    call per tuple — exactly like any other consumption of that access
    path, so the fetch trace is identical in every execution mode.  Rows
    with a NULL key component never enter the table (an equijoin on NULL
    is not true under 3VL).  Runs once per execution of the join — once
    per statement for a top-level query.
    """
    getters = program.inner_getters
    table: dict[tuple, list[Row]] = {}
    for row in _iter_scan(node.inner, ctx, outer):
        key = tuple([getter(row) for getter in getters])
        if None in key:
            continue
        bucket = table.get(key)
        if bucket is None:
            table[key] = [row]
        else:
            bucket.append(row)
    return table


def hash_join_rows(
    program: _HashJoinProgram,
    count_rsi: Callable[..., None],
    env: EvalEnv,
    table: dict[tuple, list[Row]],
    outer_rows: Iterator[Row],
) -> Iterator[Row]:
    """Probe the built table with each outer row.

    Every tuple delivered from a bucket is one RSI call — the same
    consumption charge the merge join pays for group replays and the cost
    formula's ``matches`` term predicts.  A probe key with a NULL
    component can never be in the table, so the bucket miss handles 3VL.
    """
    getters = program.outer_getters
    residual = program.residual
    for outer_row in outer_rows:
        key = tuple([getter(outer_row) for getter in getters])
        bucket = table.get(key)
        if bucket is None:
            continue
        count_rsi(len(bucket))
        if residual is None:
            for inner_row in bucket:
                yield outer_row.merged(inner_row)
        else:
            for inner_row in bucket:
                merged = outer_row.merged(inner_row)
                env.row = merged
                if residual(env):
                    yield merged


def _iter_hash_join(
    node: HashJoinNode, ctx: ExecContext, outer: EvalEnv | None
) -> Iterator[Row]:
    program: _HashJoinProgram = _program(node, ctx, _build_hash_join)
    if node.partitions > 1:
        return _grace_hash_join(node, program, ctx, outer)
    table = build_hash_table(node, program, ctx, outer)
    return hash_join_rows(
        program,
        ctx.storage.counters.count_rsi_call,
        ctx.env(Row(), outer),
        table,
        iterate(node.outer, ctx, outer),
    )


def _grace_hash_join(
    node: HashJoinNode,
    program: _HashJoinProgram,
    ctx: ExecContext,
    outer: EvalEnv | None,
) -> Iterator[Row]:
    """Grace-partitioned path for builds that exceed their buffer share.

    Both inputs are hash-partitioned into counted temporary lists (one
    write plus one read-back per tuple — the spill term of the plan's
    cost), then each partition pair is joined in memory.  All execution
    modes run this same serial code, so rows and counters agree
    trivially; the deterministic partition hash keeps temp page counts
    stable across runs.
    """
    from .temp import TempList

    count = node.partitions
    fns = program.partition_fns
    inner_schema = [(node.inner.alias, ctx.schemas[node.inner.alias])]
    outer_aliases = sorted(_local_aliases(node.outer))
    outer_schema = [(alias, ctx.schemas[alias]) for alias in outer_aliases]
    storage = ctx.storage
    build_parts = [TempList(storage, inner_schema) for __ in range(count)]
    probe_parts = [TempList(storage, outer_schema) for __ in range(count)]
    inner_getters = program.inner_getters
    outer_getters = program.outer_getters
    try:
        for row in _iter_scan(node.inner, ctx, outer):
            key = tuple([getter(row) for getter in inner_getters])
            if None in key:
                continue
            build_parts[_partition_of(key, fns, count)].append(row)
        for row in iterate(node.outer, ctx, outer):
            key = tuple([getter(row) for getter in outer_getters])
            if None in key:
                continue
            probe_parts[_partition_of(key, fns, count)].append(row)
        count_rsi = storage.counters.count_rsi_call
        env = ctx.env(Row(), outer)
        for build_part, probe_part in zip(build_parts, probe_parts):
            table: dict[tuple, list[Row]] = {}
            for row in build_part.scan():
                key = tuple([getter(row) for getter in inner_getters])
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
            yield from hash_join_rows(
                program, count_rsi, env, table, probe_part.scan()
            )
    finally:
        for part in build_parts:
            part.drop()
        for part in probe_parts:
            part.drop()


def _partition_of(
    key: tuple, fns: tuple[Callable[[object], int], ...], count: int
) -> int:
    """Stable partition assignment for one join key."""
    total = 0
    for value, fn in zip(key, fns):
        total = (total * 31 + fn(value)) & 0xFFFFFFFF
    return total % count


# ---------------------------------------------------------------------------
# sorting
# ---------------------------------------------------------------------------


def _sort_rows(rows: list[Row], keys) -> list[Row]:
    """Stable multi-key sort with NULLs first and per-key direction."""
    ordered = list(rows)
    for column, descending in reversed(list(keys)):
        def sort_key(row: Row, column=column):
            value = row.values[column.alias][column.position]
            return (0, 0) if value is None else (1, value)

        ordered.sort(key=sort_key, reverse=descending)
    return ordered


def sort_rows(
    node: SortNode, ctx: ExecContext, child_rows: Iterator[Row]
) -> Iterator[Row]:
    """Sort into a temporary list, spilling to multi-pass runs when the
    input exceeds a buffer-pool-sized workspace (§5: "several passes").

    The input stream is always fully consumed; the sorted output is lazy
    (run pages are read back only as rows are pulled), so partial
    consumers see the same page-fetch pattern on every path.
    """
    from ..rss.tuples import max_record_size
    from ..sorting import workspace_rows
    from .external_sort import ExternalSorter

    aliases = sorted(_local_aliases(node.child))
    materializable = aliases and all(alias in ctx.schemas for alias in aliases)
    has_aggregate = any(
        isinstance(n, AggregateNode) for n in walk_plan(node.child)
    )
    if not materializable or has_aggregate:
        # Post-aggregation (pseudo-alias) sorts stay in memory.
        return iter(_sort_rows(list(child_rows), node.keys))
    schema = [(alias, ctx.schemas[alias]) for alias in aliases]
    row_bytes = sum(
        max_record_size(datatypes) for __, datatypes in schema
    )
    sorter = ExternalSorter(
        ctx.storage,
        schema,
        node.keys,
        memory_rows=workspace_rows(ctx.storage.buffer.capacity, row_bytes),
    )
    return sorter.sort(child_rows)


def _iter_sort(
    node: SortNode, ctx: ExecContext, outer: EvalEnv | None
) -> Iterator[Row]:
    return sort_rows(node, ctx, iterate(node.child, ctx, outer))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


class _AggState:
    """Accumulator for one aggregate call within one group."""

    def __init__(self, call: ast.FuncCall):
        self.call = call
        self.count = 0
        self.total: float | int = 0
        self.minimum: object = None
        self.maximum: object = None
        self.distinct: set | None = set() if call.distinct else None

    def add(self, value: object) -> None:
        """Fold one input value into the accumulator."""
        if self.call.argument is None:  # COUNT(*)
            self.count += 1
            return
        if value is None:
            return
        if self.distinct is not None:
            if value in self.distinct:
                return
            self.distinct.add(value)
        self.count += 1
        name = self.call.name
        if name in ("SUM", "AVG"):
            self.total += value  # type: ignore[operator]
        elif name == "MIN":
            if self.minimum is None or value < self.minimum:  # type: ignore[operator]
                self.minimum = value
        elif name == "MAX":
            if self.maximum is None or value > self.maximum:  # type: ignore[operator]
                self.maximum = value

    def result(self) -> object:
        """The aggregate's final value for the finished group."""
        name = self.call.name
        if name == "COUNT":
            return self.count
        if self.count == 0:
            return None
        if name == "SUM":
            return self.total
        if name == "AVG":
            return self.total / self.count
        if name == "MIN":
            return self.minimum
        return self.maximum


@dataclass
class _AggregateProgram:
    key_getters: tuple[Callable[[Row], object], ...]
    #: aligned with ``node.aggregates``; None marks COUNT(*)
    arg_fns: tuple[EvalFn | None, ...]
    having: Callable[[EvalEnv], object] | None = None


def _build_aggregate(node: AggregateNode, ctx: ExecContext) -> _AggregateProgram:
    compiler = _compiler(node.child, ctx)
    arg_fns = tuple(
        None if call.argument is None else compiler.expr_fn(call.argument)
        for call in node.aggregates
    )
    having = None
    if node.having is not None:
        having = compiler.truth_fn(node.having)
    return _AggregateProgram(
        key_getters=tuple(
            compiler.column_getter(column) for column in node.group_by
        ),
        arg_fns=arg_fns,
        having=having,
    )


def _iter_aggregate(
    node: AggregateNode, ctx: ExecContext, outer: EvalEnv | None
) -> Iterator[Row]:
    program: _AggregateProgram = _program(node, ctx, _build_aggregate)
    return aggregate_rows(
        node, program, ctx, outer, iterate(node.child, ctx, outer)
    )


def aggregate_rows(
    node: AggregateNode,
    program: _AggregateProgram,
    ctx: ExecContext,
    outer: EvalEnv | None,
    child_rows: Iterator[Row],
) -> Iterator[Row]:
    """Streaming aggregation over input ordered on the grouping columns."""
    key_getters = program.key_getters
    arg_fns = program.arg_fns
    having = program.having
    arg_env = ctx.env(Row(), outer)
    having_env = ctx.env(Row(), outer)

    def emit(representative: Row, states: list[_AggState]) -> Row | None:
        results = tuple(state.result() for state in states)
        out = representative.with_alias(AGGREGATE_ALIAS, results)
        if having is not None:
            having_env.row = out
            if having(having_env) is not True:
                return None
        return out

    current_key: object = _EMPTY_MARKER
    representative: Row | None = None
    states: list[_AggState] = []
    saw_rows = False
    for row in child_rows:
        saw_rows = True
        key = tuple([getter(row) for getter in key_getters])
        if current_key is _EMPTY_MARKER or key != current_key:
            if representative is not None:
                out = emit(representative, states)
                if out is not None:
                    yield out
            current_key = key
            representative = row
            states = [_AggState(call) for call in node.aggregates]
        arg_env.row = row
        for state, fn in zip(states, arg_fns):
            state.add(None if fn is None else fn(arg_env))
    if representative is not None:
        out = emit(representative, states)
        if out is not None:
            yield out
    elif not saw_rows and not node.group_by:
        # Aggregates over an empty input still produce one row.
        out = emit(Row(), [_AggState(call) for call in node.aggregates])
        if out is not None:
            yield out


# ---------------------------------------------------------------------------
# projection / distinct
# ---------------------------------------------------------------------------


def _build_project(node: ProjectNode, ctx: ExecContext):
    compiler = _compiler(node.child, ctx)
    return tuple(compiler.expr_fn(expr) for expr in node.exprs)


def _iter_project(
    node: ProjectNode, ctx: ExecContext, outer: EvalEnv | None
) -> Iterator[Row]:
    fns = _program(node, ctx, _build_project)
    env = ctx.env(Row(), outer)
    for row in iterate(node.child, ctx, outer):
        env.row = row
        output = tuple([fn(env) for fn in fns])
        yield Row(values={**row.values, OUTPUT_ALIAS: output}, tids=row.tids)


def _iter_distinct(
    node: DistinctNode, ctx: ExecContext, outer: EvalEnv | None
) -> Iterator[Row]:
    seen: set[tuple] = set()
    for row in iterate(node.child, ctx, outer):
        key = row.values[OUTPUT_ALIAS]
        if key in seen:
            continue
        seen.add(key)
        yield row
