"""One worker pool per worker count, shared by every database.

The parallel engine (:mod:`repro.engine.parallel`) hands its nested-loop
exchange's probe chunks to a backend behind one seam: ``imap(tasks)``
submits every task eagerly and yields the results in submission order,
the shape the exchange's gather needs to merge private counters and
replay page fetches in serial order.  :class:`SerialBackend` runs tasks
inline (worker count <= 1), and :class:`ThreadBackend` drives them on a
reusable ``ThreadPoolExecutor``.

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
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator


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
