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


def test_flags_mutable_default(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/util.py",
        """
        def collect(into=[]):
            return into
        """,
    )
    violations = by_rule(tmp_path, "mutable-default")
    assert len(violations) == 1
    assert "engine/util.py" in violations[0].where


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


def test_flags_frozenset_in_joinsearch_hot_path(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "optimizer/joins.py",
        """
        class JoinSearch:
            def __init__(self, aliases):
                self._setup = frozenset(aliases)  # allowed: construction

            def _extend(self, subset, alias):
                return frozenset(subset) | {alias}
        """,
    )
    violations = by_rule(tmp_path, "joinsearch-hot-path")
    assert len(violations) == 1
    assert "_extend" in violations[0].message


def test_flags_catalog_lookup_in_joinsearch_hot_path(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "optimizer/joins.py",
        """
        class JoinSearch:
            def __init__(self, catalog):
                self._stats = catalog.relation_stats("T")  # allowed

            def _subset_rows(self, catalog, mask):
                return catalog.relation_stats("T").ncard
        """,
    )
    violations = by_rule(tmp_path, "joinsearch-hot-path")
    assert len(violations) == 1
    assert "relation_stats" in violations[0].message
    assert "_subset_rows" in violations[0].message


def test_joinsearch_rule_ignores_other_classes(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "optimizer/joins.py",
        """
        class Helper:
            def anywhere(self, catalog):
                return catalog.index_stats("I")
        """,
    )
    assert by_rule(tmp_path, "joinsearch-hot-path") == []


def test_flags_interpreter_call_in_executor_loop(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/operators.py",
        """
        def iterate(node):
            if isinstance(node, AlphaNode):  # dispatch outside loops: fine
                return []
            if isinstance(node, BetaNode):
                return []

        def _iter_filter(rows, predicate, runtime):
            for row in rows:
                if evaluate(predicate, row):
                    yield row
        """,
    )
    violations = by_rule(tmp_path, "executor-hot-path")
    assert len(violations) == 1
    assert "evaluate" in violations[0].message


def test_flags_evalenv_and_isinstance_in_scan_loop(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "rss/scan.py",
        """
        def scan(pages, runtime):
            for page in pages:
                assert isinstance(page, Page)  # narrowing assert: exempt
                env = EvalEnv(row=None, runtime=runtime)
                if isinstance(page, DataPage):
                    yield env
        """,
    )
    violations = by_rule(tmp_path, "executor-hot-path")
    assert len(violations) == 2
    messages = " ".join(v.message for v in violations)
    assert "EvalEnv" in messages
    assert "isinstance" in messages


def test_hot_path_rule_covers_temp_and_external_sort(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/temp.py",
        """
        def drain(pages, plan):
            for page in pages:
                yield decode_tuple(page, plan)
        """,
    )
    write(
        tmp_path,
        "engine/external_sort.py",
        """
        def spill(rows, key):
            for row in rows:
                if predicate_holds(key, row):
                    yield row
        """,
    )
    violations = by_rule(tmp_path, "executor-hot-path")
    assert len(violations) == 2
    wheres = " ".join(v.where for v in violations)
    assert "engine/temp.py" in wheres
    assert "engine/external_sort.py" in wheres


def test_flags_hash_build_inside_loop(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/fuse.py",
        """
        def probe_batches(batches, node, program, ctx):
            for batch in batches:
                table = build_hash_table(node, program, ctx, None)
                yield table
        """,
    )
    violations = by_rule(tmp_path, "executor-hot-path")
    assert len(violations) == 1
    assert "build" in violations[0].message


def test_flags_hash_join_handoff_in_fused_loop(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/fuse.py",
        """
        def driver(batches, node, ctx):
            for batch in batches:
                yield list(hash_join_rows(node, ctx, None))
        """,
    )
    violations = by_rule(tmp_path, "executor-hot-path")
    assert len(violations) == 1
    assert "hash_join_rows" in violations[0].message


def test_flags_isinstance_in_compiled_closure(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/compile.py",
        """
        def _compile_like(expr):
            if isinstance(expr, str):  # compile-time dispatch: fine
                pattern = expr

            def run(env):
                operand = env.row
                if isinstance(operand, str):
                    return pattern == operand
                return None

            return run
        """,
    )
    violations = by_rule(tmp_path, "executor-hot-path")
    assert len(violations) == 1
    assert "closure" in violations[0].message


def test_accepts_compiled_hot_loop(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/operators.py",
        """
        def _iter_filter(rows, program, env):
            for row in rows:
                env.row = row
                if program(env) is True:
                    yield row
        """,
    )
    assert by_rule(tmp_path, "executor-hot-path") == []


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


def test_flags_generator_handoff_in_fused_loop(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/fuse.py",
        """
        def _chain_driver(batches, node, ctx):
            for batch in batches:
                for row in iterate(node, ctx):
                    yield row
        """,
    )
    violations = by_rule(tmp_path, "executor-hot-path")
    assert len(violations) == 1
    assert "hand-off" in violations[0].message
    assert "iterate" in violations[0].message


def test_flags_iter_operator_handoff_in_fused_loop(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/fuse.py",
        """
        def _sort_driver(node, ctx, batches):
            for batch in batches:
                rows = _iter_sort(node, ctx)
                yield rows
        """,
    )
    violations = by_rule(tmp_path, "executor-hot-path")
    assert len(violations) == 1
    assert "_iter_sort" in violations[0].message


def test_accepts_handoff_outside_fused_loops(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/fuse.py",
        """
        def _lazy_rows(node, ctx):
            return iterate(node, ctx)
        """,
    )
    assert by_rule(tmp_path, "executor-hot-path") == []


def test_handoff_rule_only_applies_to_fuse_module(tmp_path):
    write(tmp_path, "optimizer/plan.py", _FAKE_PLAN)
    write(
        tmp_path,
        "engine/other.py",
        """
        def drain(nodes, ctx):
            for node in nodes:
                yield list(iterate(node, ctx))
        """,
    )
    assert by_rule(tmp_path, "executor-hot-path") == []


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
