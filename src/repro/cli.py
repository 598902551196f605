"""An interactive SQL shell for the miniature System R.

Run with ``python -m repro``.  Statements end with ``;``.  Meta-commands:

- ``\\q`` — quit
- ``\\d`` — list tables; ``\\d NAME`` — describe one table and its indexes
- ``\\timing`` — toggle per-statement timing and cost counters
- ``\\explain SELECT ...;`` or ``EXPLAIN SELECT ...;`` — show the plan
- ``\\i FILE`` — execute statements from a file
"""

from __future__ import annotations

import sys
import time
from typing import Iterable, TextIO

from .database import Database, StatementResult
from .errors import ReproError


def format_table(columns: list[str], rows: list[tuple], limit: int = 100) -> str:
    """Align a result set as a text table (capped at ``limit`` rows)."""
    shown = rows[:limit]
    rendered = [
        ["NULL" if value is None else str(value) for value in row]
        for row in shown
    ]
    widths = [len(name) for name in columns]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(name.ljust(width) for name, width in zip(columns, widths)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in rendered:
        lines.append(
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    if len(rows) > limit:
        lines.append(f"... ({len(rows) - limit} more rows)")
    return "\n".join(lines)


class Shell:
    """Reads statements, executes them, prints results."""

    def __init__(
        self,
        db: Database | None = None,
        out: TextIO | None = None,
    ):
        self.db = db or Database()
        self.out = out or sys.stdout
        self.timing = False
        self._buffer: list[str] = []
        self._done = False

    # -- line handling ----------------------------------------------------------

    def handle_line(self, line: str) -> None:
        """Feed one input line to the shell."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("\\"):
            self._meta_command(stripped)
            return
        if not stripped and not self._buffer:
            return
        self._buffer.append(line)
        joined = "\n".join(self._buffer)
        if joined.rstrip().endswith(";"):
            self._buffer = []
            self._run_statement(joined.rstrip().rstrip(";"))

    def run(self, lines: Iterable[str]) -> None:
        """Drive the shell from an iterable of input lines."""
        for line in lines:
            if self._done:
                break
            self.handle_line(line)

    @property
    def finished(self) -> bool:
        """True once a quit command has been processed."""
        return self._done

    # -- commands --------------------------------------------------------------------

    def _meta_command(self, command: str) -> None:
        parts = command.split()
        name = parts[0].lower()
        if name in ("\\q", "\\quit"):
            self._done = True
        elif name == "\\d":
            if len(parts) > 1:
                self._describe(parts[1])
            else:
                self._list_tables()
        elif name == "\\timing":
            self.timing = not self.timing
            self._print(f"timing {'on' if self.timing else 'off'}")
        elif name == "\\i":
            if len(parts) < 2:
                self._print("usage: \\i FILE")
                return
            try:
                with open(parts[1], encoding="utf-8") as handle:
                    self.run(handle)
            except OSError as error:
                self._print(f"error: {error}")
        elif name == "\\explain":
            rest = command[len("\\explain") :].strip().rstrip(";")
            self._explain(rest)
        else:
            self._print(f"unknown command {parts[0]!r}")

    def _run_statement(self, sql: str) -> None:
        upper = sql.lstrip().upper()
        if upper.startswith("EXPLAIN "):
            self._explain(sql.lstrip()[len("EXPLAIN ") :])
            return
        started = time.perf_counter()
        self.db.counters.reset()
        try:
            result = self.db.execute(sql)
        except ReproError as error:
            self._print(f"error: {error}")
            return
        elapsed = time.perf_counter() - started
        self._print_result(result)
        if self.timing:
            counters = self.db.counters
            self._print(
                f"time: {elapsed * 1000:.1f} ms; "
                f"{counters.page_fetches} page fetches, "
                f"{counters.rsi_calls} RSI calls"
            )

    def _explain(self, sql: str) -> None:
        try:
            self._print(self.db.explain(sql))
        except ReproError as error:
            self._print(f"error: {error}")

    def _print_result(self, result: StatementResult) -> None:
        if result.statement_type == "SELECT":
            self._print(format_table(result.columns, result.rows))
            self._print(f"({len(result.rows)} row(s))")
        elif result.statement_type in ("INSERT", "UPDATE", "DELETE"):
            self._print(
                f"{result.statement_type}: {result.affected_rows} row(s)"
            )
        else:
            self._print(f"{result.statement_type}: ok")

    def _list_tables(self) -> None:
        tables = self.db.catalog.tables()
        if not tables:
            self._print("(no tables)")
            return
        for table in sorted(tables, key=lambda t: t.name):
            stats = self.db.catalog.relation_stats(table.name)
            suffix = f"  [{stats}]" if stats else "  [no statistics]"
            self._print(f"{table.name}{suffix}")

    def _describe(self, name: str) -> None:
        try:
            table = self.db.catalog.table(name)
        except ReproError as error:
            self._print(f"error: {error}")
            return
        self._print(f"table {table.name}:")
        for column in table.columns:
            self._print(f"  {column}")
        for index in self.db.catalog.indexes_on(table.name):
            stats = self.db.catalog.index_stats(index.name)
            suffix = f"  [{stats}]" if stats else ""
            self._print(f"  {index!r}{suffix}")

    def _print(self, text: str) -> None:
        print(text, file=self.out)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``.

    ``python -m repro check [--plans|--costs|--lint|--storage|--fusion]``
    runs the verification suite and ``python -m repro stress [--clients
    N|--fault SPEC|--fault-smoke]`` the concurrent-serving stress harness
    instead of the shell.  ``--db PATH`` opens (or creates) a durable
    database backed by ``PATH``; any other arguments are read as SQL
    script files before the interactive prompt starts.  Fault plans in
    ``REPRO_FAULTS`` (e.g. ``pagetable.flip@1:crash``) are armed before
    the first statement.  A bad ``REPRO_FAULTS`` plan, a database path
    that cannot be opened, or a script that cannot be read is reported as
    ``error: ...`` on stderr with exit status 2.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "check":
        from .analysis.check import main as check_main

        return check_main(argv[1:])
    if argv and argv[0] == "stress":
        from .serving.stress import main as stress_main

        return stress_main(argv[1:])
    db_path: str | None = None
    if "--db" in argv:
        position = argv.index("--db")
        if position + 1 >= len(argv):
            print("usage: --db PATH", file=sys.stderr)
            return 2
        db_path = argv[position + 1]
        del argv[position : position + 2]
    from .rss.faults import arm_from_env

    try:
        arm_from_env()
        db = Database(path=db_path)
    except (OSError, ValueError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    shell = Shell(db)
    print("repro — a miniature System R. \\q to quit; statements end with ;")
    for path in argv:
        try:
            handle = open(path, encoding="utf-8")
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        with handle:
            shell.run(handle)
    try:
        while not shell.finished:
            prompt = "repro> " if not shell._buffer else "  ...> "
            try:
                line = input(prompt)
            except EOFError:
                break
            shell.handle_line(line)
    except KeyboardInterrupt:
        pass
    return 0
