"""``repro check`` exit codes and report formats across the sub-checks.

The lint runs for real against ``src/repro`` (it passes) and against a
fixture tree seeded with a violation (it fails).  The corpus sections
(``--storage``, ``--fusion``, ``--plans``, ``--costs``) are exercised for
dispatch and exit-code plumbing with stubbed runners: their multi-minute
corpora have their own tests, and the plumbing is what this file owns.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import check as check_module
from repro.analysis.check import main as check_main
from repro.analysis.plan_check import Violation
from repro.cli import main as cli_main


def write(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


# ---------------------------------------------------------------------------
# exit codes on the real tree
# ---------------------------------------------------------------------------


def test_lint_passes_on_the_real_tree(capsys):
    assert check_main(["--lint"]) == 0
    assert "check --lint:" in capsys.readouterr().out


def test_cli_dispatches_check(capsys):
    assert cli_main(["check", "--lint"]) == 0
    assert "all checks passed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# seeded failure: the lint can actually fail
# ---------------------------------------------------------------------------


def test_lint_fails_on_seeded_counter_mutation(tmp_path, capsys, monkeypatch):
    write(tmp_path, "pkg/optimizer/plan.py", "class PlanNode:\n    pass\n")
    write(
        tmp_path,
        "pkg/engine/sneaky.py",
        """
        def bump(counters):
            counters.rsi_calls += 1
        """,
    )
    monkeypatch.setattr(
        check_module,
        "check_lint",
        lambda: check_module.lint_repo(tmp_path / "pkg"),
    )
    assert check_main(["--lint"]) == 1
    assert "counter-mutation" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# corpus sections: dispatch and exit-code plumbing (stubbed runners)
# ---------------------------------------------------------------------------

_CORPUS_SECTIONS = {
    "--storage": "check_storage",
    "--fusion": "check_fusion",
    "--plans": "check_plans",
    "--costs": "check_costs",
}


@pytest.mark.parametrize("flag,runner", sorted(_CORPUS_SECTIONS.items()))
def test_corpus_section_clean_exit(flag, runner, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(
        check_module, runner, lambda *a, **kw: calls.append(1) or []
    )
    assert check_main([flag]) == 0
    assert calls == [1]
    assert f"check {flag}:" in capsys.readouterr().out


@pytest.mark.parametrize("flag,runner", sorted(_CORPUS_SECTIONS.items()))
def test_corpus_section_violation_exit(flag, runner, capsys, monkeypatch):
    seeded = [Violation("seeded-rule", "somewhere", "seeded violation")]
    monkeypatch.setattr(check_module, runner, lambda *a, **kw: list(seeded))
    assert check_main([flag]) == 1
    captured = capsys.readouterr()
    assert "FAIL [seeded-rule] somewhere: seeded violation" in captured.out
    assert "1 violation(s)" in captured.err


#: Every section ``repro check`` runs with no flags, in run order.
_ALL_SECTIONS = ("lint", "costs", "storage", "fusion", "plans")


def test_run_all_covers_every_section(capsys, monkeypatch):
    ran = []
    for section in _ALL_SECTIONS:
        monkeypatch.setattr(
            check_module,
            f"check_{section}",
            lambda *a, __name=section, **kw: ran.append(__name) or [],
        )
    assert check_main([]) == 0
    assert ran == list(_ALL_SECTIONS)
    headers = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("check --")
    ]
    assert headers == [f"check --{section}:" for section in _ALL_SECTIONS]
