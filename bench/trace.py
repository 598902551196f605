"""Span tracing from the benchmark's side of the program's layer boundaries.

A :class:`Tracer` records one span per call into a layer: name, start, end,
the span that caused it (its parent on the same thread) and the statement
it belongs to.  Spans are kept in memory and only written out when the run
ends.  Nothing inside ``src/`` knows about tracing: :meth:`Tracer.install`
replaces the layers' public entry points with timing wrappers, at class or
module level, and :meth:`Tracer.uninstall` puts the originals back.  The
untraced run never constructs a tracer.

Span names are ``<layer>.<entry point>``; the layer is the part before the
first dot.  A span's *self time* is its duration minus the durations of
its direct children, so per-layer self times add up to the duration of the
root spans exactly.

Every wrapped entry point is coarse — a handful of calls per statement.
Page-level ``rss`` work (buffer fetches, record decoding) happens inside
generators the executor drains, so it is charged to the ``engine`` span
that drives it; the ``rss`` layer's own spans are the snapshot pin, the
tuple writes and the commit.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, NamedTuple

#: The layers whose self times are reported as shares of statement time.
LAYERS = ("sql", "optimizer", "engine", "rss", "serving")


class Span(NamedTuple):
    thread: int
    seq: int
    parent: int  # ``seq`` of the enclosing span on this thread, or -1
    statement: object  # identifier shared by the spans of one statement
    name: str
    start_ns: int
    end_ns: int
    self_ns: int
    attrs: object  # small per-span payload (rows out, plan statistics)

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class _ThreadState:
    """One thread's open-span stack and finished spans."""

    __slots__ = ("number", "stack", "done", "next_seq", "statement")

    def __init__(self, number: int):
        self.number = number
        #: Open spans: ``[name, seq, start_ns, children_ns]``.
        self.stack: list[list] = []
        self.done: list[Span] = []
        self.next_seq = 0
        self.statement: object = None


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def begin(self, name: str, statement: object = None) -> None:
        """Open a span; ``statement`` tags it and everything beneath it."""
        state = self._state()
        if statement is not None:
            state.statement = statement
        state.stack.append([name, state.next_seq, perf_counter_ns(), 0])
        state.next_seq += 1

    def end(self, attrs: object = None) -> None:
        """Close the innermost open span of this thread."""
        end_ns = perf_counter_ns()
        state = self._state()
        name, seq, start_ns, children_ns = state.stack.pop()
        duration = end_ns - start_ns
        parent = -1
        if state.stack:
            state.stack[-1][3] += duration
            parent = state.stack[-1][1]
        state.done.append(
            Span(
                state.number, seq, parent, state.statement, name,
                start_ns, end_ns, duration - children_ns, attrs,
            )
        )

    def wrap(
        self,
        name: str,
        function: Callable,
        describe: Callable[[object], object] | None = None,
        drain: bool = False,
    ) -> Callable:
        """``function`` with a span around each call.

        ``describe`` turns the return value into the span's ``attrs``;
        ``drain`` materialises a returned iterator inside the span, so
        lazily produced rows are timed where they are produced.
        """

        def traced(*args, **kwargs):
            self.begin(name)
            attrs = None
            try:
                result = function(*args, **kwargs)
                if drain:
                    result = list(result)
                if describe is not None:
                    attrs = describe(result)
                return result
            finally:
                self.end(attrs)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # -- wrapping the program's entry points ------------------------------------

    def install(self) -> None:
        """Wrap each layer's public entry points (idempotent)."""
        if self._patches:
            return
        import repro.database as database
        from repro.engine.executor import Executor
        from repro.rss.storage import StorageEngine
        from repro.serving.session import Session

        def plan_facts(planned):
            stats = planned.search_stats
            considered = stats.plans_considered if stats is not None else 0
            return considered, planned.estimated_total()

        targets = [
            (database.Database, "plan_query", "optimizer.plan_query", plan_facts, False),
            (Executor, "execute", "engine.execute", lambda r: len(r.rows), False),
            (Executor, "execute_rows", "engine.execute_rows", None, True),
            (StorageEngine, "pin_snapshot", "rss.pin_snapshot", None, False),
            (StorageEngine, "commit_batch", "rss.commit_batch", None, False),
            (StorageEngine, "insert", "rss.insert", None, False),
            (StorageEngine, "update", "rss.update", None, False),
            (StorageEngine, "delete", "rss.delete", None, False),
            (Session, "execute_statement", "serving.statement", None, False),
            (database.Database, "execute_statement", "serving.statement", None, False),
            # ``Database`` calls the name it imported, so patch it there.
            (database, "collect_statistics", "catalog.collect_statistics", None, False),
        ]
        for owner, attribute, name, describe, drain in targets:
            original = getattr(owner, attribute)
            setattr(owner, attribute, self.wrap(name, original, describe, drain))
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every entry point :meth:`install` replaced."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reading back ------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Every finished span, grouped by thread in completion order."""
        with self._lock:
            threads = list(self._threads)
        return [span for state in threads for span in state.done]

    def clear(self) -> None:
        """Forget every finished span (set-up spans, before measuring)."""
        with self._lock:
            for state in self._threads:
                state.done.clear()

    def seconds_in(self, name: str) -> float:
        """Total duration so far of this thread's finished spans called ``name``."""
        return sum(
            span.duration_ns for span in self._state().done if span.name == name
        ) / 1e9

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span._asdict()) + "\n")


def self_seconds_by_layer(spans: list[Span]) -> dict[str, float]:
    """Self time per layer, in seconds."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += span.self_ns / 1e9
    return totals


def child_seconds_by_layer(spans: list[Span]) -> dict[tuple[int, int], dict]:
    """For each ``(thread, seq)`` span: its direct children's time by layer."""
    children: dict[tuple[int, int], dict] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.parent >= 0:
            children[(span.thread, span.parent)][span.layer] += (
                span.duration_ns / 1e9
            )
    return children
