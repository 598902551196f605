"""One scan kernel, morsel-driven scheduling, one worker pool per count.

**The kernel.**  :func:`scan_pages` is the engine's one page loop —
decode a page, SARG-match below the tuple interface, charge RSI per
page-aligned chunk of at most ``DEFAULT_BATCH_SIZE`` rows, hand the
chunk to a *chunk processor* — and every scheduler runs it: pool
workers call it over a morsel's pages with the chain's compiled
processor, and the serial fused driver applies the same processors over
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

Two backends sit behind one seam — ``imap(tasks)`` yields results in
submission order with eager submission: :class:`SerialBackend` runs
tasks inline (worker count <= 1), and :class:`ThreadBackend` drives
compiled closures on a reusable ``ThreadPoolExecutor`` (GIL-bound; wins
only where workers release the GIL, but the scheduling and counter
discipline are identical).

Pools are keyed by worker count and shared by every database in the
process.  A database that builds a parallel executor holds them
(:func:`hold_backends`) until it closes (:func:`release_backends`); the
last holder's release shuts them down, so a long-lived serving process
does not leak ``repro-worker`` threads, and closing one database never
pulls the pool from under a statement another database is running.
:func:`shutdown_backends` (also run at exit) reclaims them outright; a
later statement re-creates pools on demand.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter
from typing import Iterator

from ..rss.counters import CostCounters
from ..rss.scan import DEFAULT_BATCH_SIZE, decode_page_rows
from .operators import _AggState

#: Pages per morsel: small enough that no task holds a hot range hostage,
#: large enough to amortize per-task dispatch.
DEFAULT_MORSEL_PAGES = 4


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


_SERIAL = SerialBackend()

Backend = SerialBackend | ThreadBackend


class _BackendRegistry:
    """Thread pools keyed by worker count, reused across statements, and
    the databases holding them (weakly: a database dropped unclosed
    stops holding)."""

    def __init__(self) -> None:
        # Statements of several client threads reach it at once.
        self._lock = threading.Lock()
        self._pools: dict[int, ThreadBackend] = {}
        self._holders: weakref.WeakSet = weakref.WeakSet()

    def get(self, workers: int) -> Backend:
        if workers <= 1:
            return _SERIAL
        with self._lock:
            backend = self._pools.get(workers)
            if backend is None:
                backend = ThreadBackend(workers)
                self._pools[workers] = backend
        return backend

    def hold(self, holder: object) -> None:
        with self._lock:
            self._holders.add(holder)

    def release(self, holder: object) -> None:
        with self._lock:
            self._holders.discard(holder)
            if self._holders:
                return
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.shutdown()

    def shutdown(self) -> None:
        with self._lock:
            self._holders.clear()
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.shutdown()


_REGISTRY = _BackendRegistry()


def get_backend(workers: int) -> Backend:
    """The execution backend for a worker count; pools are reused."""
    return _REGISTRY.get(workers)


def hold_backends(holder: object) -> None:
    """Keep the pools alive until ``holder`` releases them."""
    _REGISTRY.hold(holder)


def release_backends(holder: object) -> None:
    """Drop ``holder``'s hold; the last hold released shuts the pools down."""
    _REGISTRY.release(holder)


def shutdown_backends() -> None:
    """Shut down every pooled backend and forget every holder.

    Run at exit; the next parallel statement re-creates its pool through
    :func:`get_backend`.
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
