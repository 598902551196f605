"""External merge sort: "sorting, which may involve several passes" (§5).

The sorter works on flat value tuples.  When its input exceeds the memory
workspace (bounded by the buffer pool size), tuples are sorted in
workspace-sized *runs*, each written to a temporary list, and runs are
merged ``fan_in`` at a time until one sorted run remains.  Every run write
and read moves real pages through the buffer pool and counts one RSI call
per tuple, so multi-pass sorts cost exactly what the cost model's
pass-counting formula predicts.

Order is the reference order of :func:`repro.engine.operators._sort_rows`:
per key, NULLs first when ascending and last when descending; equal keys
keep their input order.  One key function per key shape
(:func:`sort_key`) serves both the run sort (``list.sort``) and the merge
(``heapq.merge``, which breaks ties by run, i.e. by input order).
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

from ..datatypes import DataType, TypeKind
from ..rss.storage import StorageEngine
from ..sorting import merge_fan_in
from .temp import TempList

#: One sort key: position in the flat tuple, descending.
SortKey = tuple[int, bool]


class _Descending:
    """A string that orders inverted (a descending string key)."""

    __slots__ = ("value",)

    def __init__(self, value: str | None):
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and self.value == other.value


@lru_cache(maxsize=256)
def sort_key(shape: tuple[tuple[int, bool, bool], ...]) -> Callable[[tuple], tuple]:
    """The ascending sort key of flat tuples for one key shape.

    ``shape`` holds per key its position, whether it is descending, and
    whether its column is a string.  Each key contributes a NULL flag and
    the value: ``v is not None, v`` puts NULLs first; a descending key is
    inverted — ``v is None`` then ``-v``, or a :class:`_Descending`
    string — which puts them last.
    """
    parts: list[str] = []
    for position, descending, is_str in shape:
        v = f"values[{position}]"
        if not descending:
            parts.append(f"{v} is not None, {v}")
        elif is_str:
            parts.append(f"{v} is None, Descending({v})")
        else:
            parts.append(f"{v} is None, None if {v} is None else -{v}")
    source = f"def key(values):\n    return ({''.join(p + ', ' for p in parts)})\n"
    namespace: dict = {"Descending": _Descending}
    exec(compile(source, "<sort key>", "exec"), namespace)
    return namespace["key"]


class ExternalSorter:
    """Run-generating, multi-pass merging sorter over flat value tuples."""

    def __init__(
        self,
        storage: StorageEngine,
        datatypes: Sequence[DataType],
        keys: Sequence[SortKey],
        memory_rows: int,
        fan_in: int | None = None,
    ):
        if memory_rows < 2:
            raise ValueError("sort workspace must hold at least two rows")
        self._storage = storage
        self._datatypes = list(datatypes)
        self._key = sort_key(
            tuple(
                (position, descending, datatypes[position].kind is TypeKind.VARCHAR)
                for position, descending in keys
            )
        )
        self._memory_rows = memory_rows
        self._fan_in = fan_in or merge_fan_in(storage.buffer.capacity)
        #: Merge passes performed by the last sort.
        self.merge_passes = 0
        #: Initial runs generated by the last sort.
        self.initial_runs = 0

    def sort(self, rows: Iterable[tuple]) -> Iterator[tuple]:
        """Sort tuples; yields them in key order, charging each tuple's
        read-back RSI call as it surfaces (exact for partial consumers).

        Nothing runs before the first tuple is pulled.  Inputs fitting in
        the workspace are sorted in memory and still materialized through
        one temporary list (System R sorts *into* a temporary list);
        larger inputs go through run generation and as many merge passes
        as the fan-in requires.  The final list is dropped when the output
        is exhausted or closed.
        """
        final = self._sorted(rows)
        try:
            yield from final.scan()
        finally:
            final.drop()

    def sort_pages(self, rows: Iterable[tuple]) -> Iterator[list[tuple]]:
        """:meth:`sort` a page at a time, for consumers that read to the
        end (each page's read-back RSI calls are charged when it is
        fetched)."""
        final = self._sorted(rows)
        try:
            yield from final.pages()
        finally:
            final.drop()

    # -- internals ----------------------------------------------------------

    def _sorted(self, rows: Iterable[tuple]) -> TempList:
        """Generate runs and merge them; the one sorted list that remains."""
        self.merge_passes = 0
        runs: list[TempList] = []
        rows = iter(rows)
        memory_rows = self._memory_rows
        while True:
            # A run is written as soon as its last tuple is pulled, and its
            # workspace released before the next run's tuples are pulled.
            workspace = list(islice(rows, memory_rows))
            count = len(workspace)
            if count or not runs:
                runs.append(self._write_run(workspace))
            del workspace
            if count < memory_rows:
                break
        self.initial_runs = len(runs)

        while len(runs) > 1:
            self.merge_passes += 1
            next_runs: list[TempList] = []
            for start in range(0, len(runs), self._fan_in):
                group = runs[start : start + self._fan_in]
                if len(group) == 1:
                    next_runs.append(group[0])
                    continue
                next_runs.append(self._merge_group(group))
            runs = next_runs
        return runs[0]

    def _write_run(self, workspace: list[tuple]) -> TempList:
        workspace.sort(key=self._key)
        run = TempList(self._storage, self._datatypes)
        run.extend(workspace)
        return run

    def _merge_group(self, group: list[TempList]) -> TempList:
        # Streamed tuple-at-a-time: a run's next page is fetched, and the
        # output's next page allocated, at the tuple that needs it.
        merged = TempList(self._storage, self._datatypes)
        merged.extend(
            heapq.merge(
                *(chain.from_iterable(run.pages()) for run in group),
                key=self._key,
            )
        )
        for run in group:
            run.drop()
        return merged
