"""Tests for the interactive SQL shell."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import Shell, format_table, main


def run_shell(lines, db=None):
    out = io.StringIO()
    shell = Shell(db=db, out=out)
    shell.run(lines)
    return shell, out.getvalue()


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["A", "LONGNAME"], [(1, "x"), (22, "yy")])
        lines = text.splitlines()
        assert lines[0] == "A  | LONGNAME"
        assert lines[2] == "1  | x       "

    def test_null_rendering(self):
        text = format_table(["A"], [(None,)])
        assert "NULL" in text

    def test_row_limit(self):
        text = format_table(["A"], [(i,) for i in range(150)], limit=100)
        assert "(50 more rows)" in text


class TestStatements:
    def test_full_session(self):
        __, output = run_shell(
            [
                "CREATE TABLE T (A INTEGER, B VARCHAR(8));",
                "INSERT INTO T VALUES (1, 'one'), (2, 'two');",
                "SELECT * FROM T;",
            ]
        )
        assert "CREATE TABLE: ok" in output
        assert "INSERT: 2 row(s)" in output
        assert "one" in output
        assert "(2 row(s))" in output

    def test_multiline_statement(self):
        __, output = run_shell(
            [
                "CREATE TABLE T (A INTEGER);",
                "SELECT *",
                "FROM T",
                "WHERE A = 1;",
            ]
        )
        assert "(0 row(s))" in output

    def test_error_reported_not_raised(self):
        __, output = run_shell(["SELECT * FROM NOPE;"])
        assert "error:" in output

    def test_explain(self):
        __, output = run_shell(
            [
                "CREATE TABLE T (A INTEGER);",
                "EXPLAIN SELECT * FROM T;",
            ]
        )
        assert "estimated cost" in output
        assert "segment scan" in output

    def test_timing_toggle(self):
        __, output = run_shell(
            [
                "\\timing",
                "CREATE TABLE T (A INTEGER);",
                "SELECT * FROM T;",
            ]
        )
        assert "timing on" in output
        assert "page fetches" in output


class TestMetaCommands:
    def test_quit(self):
        shell, __ = run_shell(["\\q", "SELECT * FROM NOPE;"])
        assert shell.finished

    def test_list_tables_empty(self):
        __, output = run_shell(["\\d"])
        assert "(no tables)" in output

    def test_list_and_describe(self):
        __, output = run_shell(
            [
                "CREATE TABLE T (A INTEGER, B VARCHAR(4));",
                "CREATE INDEX T_A ON T (A);",
                "\\d",
                "\\d T",
            ]
        )
        assert "table T:" in output
        assert "A INTEGER" in output
        assert "T_A" in output

    def test_describe_unknown(self):
        __, output = run_shell(["\\d NOPE"])
        assert "error:" in output

    def test_unknown_command(self):
        __, output = run_shell(["\\frobnicate"])
        assert "unknown command" in output

    def test_input_file(self, tmp_path):
        script = tmp_path / "setup.sql"
        script.write_text(
            "CREATE TABLE T (A INTEGER);\nINSERT INTO T VALUES (7);\n"
        )
        __, output = run_shell([f"\\i {script}", "SELECT A FROM T;"])
        assert "7" in output

    def test_input_file_missing(self):
        __, output = run_shell(["\\i /no/such/file.sql"])
        assert "error:" in output


class TestMain:
    @pytest.mark.parametrize(
        "setting,expected",
        [
            ("REPRO_EXEC=bogus", "unknown exec mode 'bogus'"),
            ("REPRO_EXEC=compiled", "valid modes: fused, parallel, interp"),
            ("REPRO_EXEC=parallel:2", "unknown exec mode 'parallel:2'"),
            ("REPRO_FAULTS=nosuch@1:error", "unknown fault point 'nosuch'"),
            ("--db", "No such file or directory"),
        ],
        ids=["exec", "exec-retired", "workers", "faults", "db-path"],
    )
    def test_bad_setting_is_reported_not_raised(
        self, tmp_path, monkeypatch, capsys, setting, expected
    ):
        for name in ("REPRO_EXEC", "REPRO_FAULTS"):
            monkeypatch.delenv(name, raising=False)
        script = tmp_path / "empty.sql"
        script.write_text("")
        argv = [str(script)]
        if setting == "--db":
            argv = ["--db", str(tmp_path / "nosuch" / "x.db"), *argv]
        else:
            name, __, value = setting.partition("=")
            monkeypatch.setenv(name, value)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert expected in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_script_argument(self, tmp_path, capsys, kind):
        target = tmp_path / "nosuch.sql" if kind == "missing" else tmp_path
        assert main([str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


#: Verified planning, the stress harness's storage audit, and ``repro
#: check`` with ``tomllib`` unimportable, as it is on Python 3.10.
_WITHOUT_TOMLLIB = """
import sys
sys.modules["tomllib"] = None

from repro import Database
db = Database()
db.execute("CREATE TABLE T (A INTEGER)")
db.execute("INSERT INTO T VALUES (1)")
assert db.execute("SELECT A FROM T WHERE A = 1").rows == [(1,)]

import repro.serving.stress
from repro.analysis.storage_check import verify_storage
assert verify_storage(db) == []

from repro.cli import main
assert main(["check", "--lint"]) == 0
"""


def test_runs_without_tomllib():
    src = Path(repro.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "REPRO_CHECK": "1"}
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_TOMLLIB],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
