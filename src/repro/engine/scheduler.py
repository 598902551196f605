"""One scan kernel, morsel-driven scheduling, pluggable backends.

**The kernel.**  :func:`scan_pages` is the engine's one page loop —
decode a page, SARG-match below the tuple interface, charge RSI per
page-aligned chunk of at most ``DEFAULT_BATCH_SIZE`` rows, hand the
chunk to a *chunk processor* — and every scheduler runs it: thread
workers call it over a morsel's pages with the chain's compiled
processor, process workers reach it through the picklable
:func:`run_scan_morsel` / :func:`run_agg_morsel` wrappers, and the
serial fused driver applies the same processors over
``scan.batches()``.  Streaming-group folding is the same kernel with
:func:`run_folder` as its processor (:func:`fold_pages`).

**Scheduling.**  A scan decomposes into small fixed-size page morsels
(``REPRO_MORSEL_PAGES``, default 4) that are all submitted eagerly, so
the pool's internal queue *is* the shared work queue and any idle
worker pulls the next morsel — work-stealing by construction, no
per-range assignment to get wrong when matching tuples cluster on a
few pages.

Counter fidelity never depends on the range shapes: every task counts
into a private :class:`~repro.rss.counters.CostCounters` merged at the
gather in deterministic morsel (submission) order, and the driving
thread replays ``BufferPool.fetch`` in serial page order as results
drain.  Rows and counters are therefore bit-identical to the fused
engine at any worker count and any morsel size.

Three backends sit behind one seam — ``imap(tasks)`` yields results in
submission order with eager submission:

- :class:`SerialBackend` runs tasks inline (worker count <= 1).
- :class:`ThreadBackend` drives compiled closures on a reusable
  ``ThreadPoolExecutor`` (GIL-bound; wins only where workers release the
  GIL, but the scheduling and counter discipline are identical).
- :class:`ProcessBackend` (``REPRO_BACKEND=process``) forks a
  ``multiprocessing`` pool and ships **picklable morsel specs** —
  frozen ``(page_id, Page)`` pairs from the scan snapshot plus
  value-bound SARGs (:class:`~repro.rss.sargs.ConjunctiveSargs`) — to
  worker processes, which decode, SARG-match, and project with private
  counters.  This is the first configuration where scan+filter+project
  uses multiple cores.  Closures never cross the process boundary:
  drivers whose per-tuple work is an unpicklable compiled closure return
  raw ``(tid, values)`` chunks and apply the closure at the gather, and
  the probe/sort exchanges pin themselves to the thread backend.

Pools are registered per ``(kind, workers)`` pair and shut down by
:func:`shutdown_backends` — wired to ``Database.close()`` and ``atexit``
so long-lived serving processes do not leak ``repro-worker`` threads or
forked children.  A later statement simply re-creates pools on demand.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from ..datatypes import DataType
from ..rss.counters import CostCounters
from ..rss.sargs import ConjunctiveSargs, compile_matcher
from ..rss.scan import DEFAULT_BATCH_SIZE, decode_page_rows
from ..rss.tuples import DecodePlan
from .operators import _AggState

#: Pages per morsel: small enough that no task holds a hot range hostage,
#: large enough to amortize per-task dispatch.
DEFAULT_MORSEL_PAGES = 4

#: Every execution backend an entry point may select.
VALID_BACKENDS = ("thread", "process")


def resolve_backend(backend: str | None = None) -> str:
    """The execution backend: ``"thread"`` (default) or ``"process"``.

    ``None`` falls back to the ``REPRO_BACKEND`` environment variable;
    anything else — including a typo — raises a :class:`ValueError`
    naming the valid backends rather than silently running serial.
    """
    choice = backend or os.environ.get("REPRO_BACKEND", "thread")
    if choice not in VALID_BACKENDS:
        raise ValueError(
            f"unknown backend {choice!r}; valid backends: "
            + ", ".join(VALID_BACKENDS)
        )
    return choice


def morsel_pages() -> int:
    """Pages per scan morsel, from ``REPRO_MORSEL_PAGES`` (default 4)."""
    text = os.environ.get("REPRO_MORSEL_PAGES")
    if text is None:
        return DEFAULT_MORSEL_PAGES
    try:
        pages = int(text)
    except ValueError:
        pages = 0
    if pages < 1:
        raise ValueError(
            f"bad morsel size {text!r} from REPRO_MORSEL_PAGES: "
            "expected a positive integer"
        )
    return pages


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


def morsel_ranges(count: int, pages: int) -> list[tuple[int, int]]:
    """Split ``range(count)`` into fixed-size morsels of ``pages`` pages."""
    return [
        (start, min(start + pages, count)) for start in range(0, count, pages)
    ]


# ---------------------------------------------------------------------------
# execution backends
# ---------------------------------------------------------------------------


class SerialBackend:
    """Runs tasks inline on the driving thread (worker count <= 1)."""

    kind = "serial"
    workers = 1

    def imap(self, tasks) -> Iterator:
        for task in tasks:
            yield task()

    def shutdown(self) -> None:
        """Nothing to release."""


class ThreadBackend:
    """A reusable thread pool yielding task results in submission order.

    Submission is eager (workers race ahead of the gather), delivery is
    ordered — the shape the counter-replay gather needs.
    """

    kind = "thread"

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-worker"
        )

    def imap(self, tasks) -> Iterator:
        futures = [self._pool.submit(task) for task in tasks]
        for future in futures:
            yield future.result()

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


class ProcessBackend:
    """A forked process pool yielding task results in submission order.

    Tasks must be picklable zero-argument callables over picklable data
    (``functools.partial`` of a module-level function and a frozen
    morsel spec); results and worker exceptions travel back the same
    way, so a failed morsel raises at the gather exactly where a thread
    task would.  Fork start keeps the parent's imports without
    re-executing them.
    """

    kind = "process"

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = multiprocessing.get_context("fork").Pool(
            processes=workers
        )

    def imap(self, tasks) -> Iterator:
        results = [self._pool.apply_async(task) for task in tasks]
        for result in results:
            yield result.get()

    def shutdown(self) -> None:
        self._pool.terminate()
        self._pool.join()


_SERIAL = SerialBackend()

Backend = SerialBackend | ThreadBackend | ProcessBackend


class _BackendRegistry:
    """Worker pools keyed by ``(kind, workers)``, reused across statements."""

    def __init__(self) -> None:
        # Created and read only by statements' driving threads while no
        # worker tasks of their own are in flight; workers never reach it.
        # concurrency: driver-confined
        self._pools: dict[tuple[str, int], ThreadBackend | ProcessBackend] = {}

    def get(self, workers: int, kind: str) -> Backend:
        if workers <= 1:
            return _SERIAL
        key = (kind, workers)
        backend = self._pools.get(key)
        if backend is None:
            backend = (
                ProcessBackend(workers)
                if kind == "process"
                else ThreadBackend(workers)
            )
            self._pools[key] = backend
        return backend

    def shutdown(self) -> None:
        pools = list(self._pools.values())
        self._pools.clear()
        for pool in pools:
            pool.shutdown()


_REGISTRY = _BackendRegistry()


def get_backend(workers: int, kind: str = "thread") -> Backend:
    """The execution backend for a worker count; pools are reused."""
    return _REGISTRY.get(workers, kind)


def shutdown_backends() -> None:
    """Shut down every pooled backend (threads joined, children reaped).

    Wired to ``Database.close()`` and ``atexit`` so serving processes do
    not leak ``repro-worker`` threads; the next parallel statement simply
    re-creates its pool through :func:`get_backend`.
    """
    _REGISTRY.shutdown()


atexit.register(shutdown_backends)


# ---------------------------------------------------------------------------
# the scan kernel and its backend-independent chunk processors
# ---------------------------------------------------------------------------


def scan_pages(
    pages, relation_id: int, decode, matcher, process
) -> tuple[CostCounters, list[list]]:
    """The scan kernel: decode, SARG-match, and process ``(page_id, Page)``
    pairs.

    Counts into a private :class:`CostCounters` and never touches the
    buffer pool (the driving thread replays fetches in serial page order
    as results drain).  Matched rows are chunked exactly as the serial
    scan's page-aligned batches, so RSI charges land in identical
    quanta.  Returns the counters and, per page, ``process(chunk)`` for
    each of its chunks.
    """
    counters = CostCounters()
    count_rsi = counters.count_rsi_call
    results: list[list] = []
    for page_id, page in pages:
        rows = decode_page_rows(page_id, page, relation_id, decode)
        if matcher is not None:
            rows = [item for item in rows if matcher(item[1])]
        chunks: list = []
        for start in range(0, len(rows), DEFAULT_BATCH_SIZE):
            chunk = rows[start : start + DEFAULT_BATCH_SIZE]
            count_rsi(len(chunk))
            chunks.append(process(chunk))
        results.append(chunks)
    return counters, results


def columns_getter(positions: tuple[int, ...]):
    """An ``itemgetter`` building an output tuple straight from one
    scan's decoded values (a 1-tuple for a single position)."""
    if len(positions) == 1:
        get = itemgetter(positions[0])

        def single(values: tuple, _get=get) -> tuple:
            return (_get(values),)

        return single
    return itemgetter(*positions)


def columns_processor(positions: tuple[int, ...]):
    """The all-plain-columns chunk processor: bare output tuples with no
    environment, no ``Row``, and no closure call per column."""
    getter = columns_getter(positions)

    def process(chunk):
        return [getter(values) for __, values in chunk]

    return process


def raw_chunk(chunk):
    """The pass-through processor: process workers return ``(tid,
    values)`` chunks for the driver's unpicklable closures."""
    return chunk


def run_folder(
    runs: list[tuple],
    key_positions: tuple[int, ...],
    arg_positions: tuple[int | None, ...],
    calls,
):
    """A chunk processor folding rows into per-group partial states.

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


def fold_pages(
    pages,
    relation_id: int,
    decode,
    matcher,
    key_positions: tuple[int, ...],
    arg_positions: tuple[int | None, ...],
    calls,
) -> tuple[CostCounters, int, list[tuple]]:
    """The scan kernel with a :func:`run_folder` processor: one morsel's
    ``(counters, page_count, runs)``."""
    runs: list[tuple] = []
    counters, results = scan_pages(
        pages,
        relation_id,
        decode,
        matcher,
        run_folder(runs, key_positions, arg_positions, calls),
    )
    return counters, len(results), runs


# ---------------------------------------------------------------------------
# picklable morsel payloads (ProcessBackend worker functions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanMorsel:
    """A self-contained scan task a worker process can run from a pickle.

    Pages are materialized driver-side from the scan snapshot (the same
    counter-free page-store lookup thread tasks are handed); SARGs arrive
    value-bound — probe and correlation values were already evaluated on
    the driving thread, which is what the drivers' subquery-free
    eligibility guarantees is pure — and the matcher is recompiled in
    the worker via :func:`~repro.rss.sargs.compile_matcher`, the exact
    factory the serial scan open uses.
    """

    pages: tuple[tuple[int, object], ...]
    relation_id: int
    datatypes: tuple[DataType, ...]
    sargs: ConjunctiveSargs | None
    #: When set, workers build bare output tuples via ``itemgetter`` —
    #: the all-plain-columns fast path; ``None`` returns raw
    #: ``(tid, values)`` chunks for the driver's compiled closures.
    out_positions: tuple[int, ...] | None


def run_scan_morsel(morsel: ScanMorsel) -> tuple[CostCounters, list[list]]:
    """One process-pool task: compile the morsel's spec, run the kernel."""
    datatypes = list(morsel.datatypes)
    return scan_pages(
        morsel.pages,
        morsel.relation_id,
        DecodePlan(datatypes).decode,
        compile_matcher(morsel.sargs, datatypes),
        raw_chunk
        if morsel.out_positions is None
        else columns_processor(morsel.out_positions),
    )


@dataclass(frozen=True)
class AggCallSpec:
    """A picklable stand-in for ``ast.FuncCall`` inside ``_AggState``.

    ``argument`` carries the argument's column position (``None`` marks
    ``COUNT(*)``) — the accumulator only ever asks ``argument is None``,
    ``name``, and ``distinct``.
    """

    name: str
    argument: int | None
    distinct: bool


@dataclass(frozen=True)
class AggMorsel:
    """A partial-aggregation task a worker process can run from a pickle."""

    pages: tuple[tuple[int, object], ...]
    relation_id: int
    datatypes: tuple[DataType, ...]
    sargs: ConjunctiveSargs | None
    key_positions: tuple[int, ...]
    #: Aligned with ``calls``; ``None`` marks ``COUNT(*)``.
    arg_positions: tuple[int | None, ...]
    calls: tuple[AggCallSpec, ...]


def run_agg_morsel(
    morsel: AggMorsel,
) -> tuple[CostCounters, int, list[tuple]]:
    """One process-pool task: fold a morsel into per-group partial states.

    The gather merges a morsel's first run into its predecessor's last
    only when they share a key, so the reassembled group sequence is
    exactly the serial scan-order fold's.
    """
    datatypes = list(morsel.datatypes)
    return fold_pages(
        morsel.pages,
        morsel.relation_id,
        DecodePlan(datatypes).decode,
        compile_matcher(morsel.sargs, datatypes),
        morsel.key_positions,
        morsel.arg_positions,
        morsel.calls,
    )
