"""The project lint: the repo itself must be clean, and each rule must fire.

Rule tests build a miniature package layout under ``tmp_path`` containing
exactly one violation and assert the lint reports it; the walker rule gets
its own synthetic ``optimizer/plan.py`` so the subclass discovery is
exercised too.
"""

from __future__ import annotations

import textwrap

from repro.analysis.lint import lint_repo, plan_node_subclasses


def write(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def by_rule(tmp_path, rule):
    return [v for v in lint_repo(tmp_path) if v.rule == rule]


#: A plan algebra for the synthetic-root tests (two node types).
_FAKE_PLAN = """
    class PlanNode:
        pass

    class AlphaNode(PlanNode):
        pass

    class BetaNode(PlanNode):
        pass
"""


def test_repo_is_lint_clean():
    assert lint_repo() == []


def test_discovers_plan_node_subclasses():
    names = plan_node_subclasses()
    assert "ScanNode" in names
    assert "NestedLoopJoinNode" in names
    assert len(names) >= 8


def test_flags_float_eq_in_cost_code(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "optimizer/costing.py",
        """
        def same(a, b):
            return a.pages == b.pages
        """,
    )
    # The identical comparison outside cost modules is allowed.
    write(
        tmp_path,
        "engine/costing.py",
        """
        def same(a, b):
            return a.pages == b.pages
        """,
    )
    violations = by_rule(tmp_path, "float-eq")
    assert len(violations) == 1
    assert "optimizer/costing.py" in violations[0].where


def test_flags_counter_mutation_outside_rss(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/sneaky.py",
        """
        def bump(counters):
            counters.rsi_calls += 1
        """,
    )
    # The same mutation inside rss/ is the storage layer doing its job.
    write(
        tmp_path,
        "rss/counting.py",
        """
        def bump(counters):
            counters.rsi_calls += 1
        """,
    )
    violations = by_rule(tmp_path, "counter-mutation")
    assert len(violations) == 1
    assert "engine/sneaky.py" in violations[0].where


def test_flags_non_exhaustive_walker(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/operators.py",
        """
        def iterate(node):
            if isinstance(node, AlphaNode):
                return []
        """,
    )
    violations = by_rule(tmp_path, "walker-not-exhaustive")
    missing_dispatch = [v for v in violations if "BetaNode" in v.message]
    assert len(missing_dispatch) == 1
    assert "engine/operators.py" in missing_dispatch[0].where


def test_accepts_exhaustive_walker(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/operators.py",
        """
        def iterate(node):
            if isinstance(node, AlphaNode):
                return []
            if isinstance(node, BetaNode):
                return []
        """,
    )
    violations = by_rule(tmp_path, "walker-not-exhaustive")
    assert not any("engine/operators.py" in v.where for v in violations)


def test_flags_bare_except_in_rss(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "rss/sloppy.py",
        """
        def read(page):
            try:
                return page.decode()
            except:
                return None
        """,
    )
    violations = by_rule(tmp_path, "no-swallowed-exceptions")
    assert len(violations) == 1
    assert "rss/sloppy.py" in violations[0].where


def test_flags_broad_except_without_reraise(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "rss/sloppy.py",
        """
        def read(page):
            try:
                return page.decode()
            except Exception as error:
                log(error)
                return None
        """,
    )
    violations = by_rule(tmp_path, "no-swallowed-exceptions")
    assert len(violations) == 1
    assert "Exception" in violations[0].message


def test_flags_pass_only_handler(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "rss/sloppy.py",
        """
        def close(handle):
            try:
                handle.close()
            except OSError:
                pass
        """,
    )
    violations = by_rule(tmp_path, "no-swallowed-exceptions")
    assert len(violations) == 1


def test_accepts_broad_except_that_reraises(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "rss/careful.py",
        """
        def commit(store):
            try:
                store.flip()
            except BaseException:
                store.undo()
                raise
            except Exception as error:
                raise StorageError(str(error)) from error
        """,
    )
    assert by_rule(tmp_path, "no-swallowed-exceptions") == []


def test_swallow_rule_only_applies_to_rss(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/elsewhere.py",
        """
        def read(page):
            try:
                return page.decode()
            except Exception:
                return None
        """,
    )
    assert by_rule(tmp_path, "no-swallowed-exceptions") == []


def test_fused_build_is_a_registered_walker(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/fuse.py",
        """
        def _build_fused(node, ctx):
            if isinstance(node, AlphaNode):
                return []
        """,
    )
    violations = by_rule(tmp_path, "walker-not-exhaustive")
    missing = [
        v
        for v in violations
        if "engine/fuse.py" in v.where and "BetaNode" in v.message
    ]
    assert len(missing) == 1
