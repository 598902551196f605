"""Project-specific lint: an ``ast``-based pass over ``src/repro``.

Generic linters cannot know this project's rules, so this pass enforces
them directly on the parsed source:

- **no-float-eq** — cost-sensitive modules (``optimizer/``, ``analysis/``)
  may not compare float-valued expressions with ``==`` / ``!=``; cost and
  cardinality comparisons must use tolerant helpers or inequalities.
- **mutable-default** — no function may use a mutable default argument
  (``[]``, ``{}``, ``set()`` and friends) anywhere in the package.
- **counter-mutation** — the cost counters in :mod:`repro.rss.counters`
  (``page_fetches``, ``rsi_calls``, ``buffer_hits``) may only be assigned
  or incremented inside ``rss/``; everyone else observes them through
  snapshots or ``reset()``.
- **walker-not-exhaustive** — every registered plan walker must dispatch
  with ``isinstance`` on *every* :class:`~repro.optimizer.plan.PlanNode`
  subclass, so adding a plan node type cannot silently fall through.
- **joinsearch-hot-path** — the DP join search keys subsets by interned
  integer bitmasks and precomputes its catalog statistics: no method of
  ``JoinSearch`` outside ``__init__`` may build a ``frozenset`` or call a
  catalog statistics lookup (``relation_stats``, ``index_stats``,
  ``indexes_on``, ``index_on_column``).  This pins the hot-path overhaul
  so a future change cannot quietly reintroduce per-extension hashing of
  alias sets or repeated catalog dictionary probes.
- **no-swallowed-exceptions** — the storage layer (``rss/``) guarantees
  statement atomicity, which dies silently if an error is swallowed on
  the way up: no bare ``except``, no ``except Exception`` /
  ``BaseException`` handler that fails to re-raise, and no handler of any
  type whose body is only ``pass``.
- **executor-hot-path** — the execution engine compiles expressions,
  SARG matchers, and decode plans once per plan/scan open; per-tuple
  loops must run only the compiled artifacts.  Inside ``for``/``while``
  bodies of ``engine/operators.py``, ``engine/fuse.py``,
  ``engine/temp.py``, ``engine/external_sort.py``, and
  ``rss/scan.py`` there may be no call to ``evaluate`` /
  ``predicate_holds`` / ``decode_tuple``, no ``EvalEnv`` construction,
  and no ``isinstance`` dispatch (``assert`` statements are exempt —
  they exist for type narrowing).  Hash-join build and probe loops obey
  the same discipline: ``build_hash_table`` may never run inside a loop
  (the build side is bucketed once per statement and shared across
  batches).  Fused drivers additionally may not
  hand off to a per-tuple generator (``iterate``, ``fused_rows``,
  ``hash_join_rows`` or any ``_iter_*`` operator) from inside a loop: a
  chain either fuses a stage into the driver's batch loop or breaks at a
  declared pipeline breaker.  The
  closures built by :mod:`repro.engine.compile` are themselves per-row
  code, so nested functions there may not call ``isinstance`` or build
  ``EvalEnv`` either (canonical values use ``type(x) is ...`` checks
  instead).

The subclass list is discovered by parsing ``optimizer/plan.py``, never
hard-coded, so the lint stays correct as the plan algebra grows.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .plan_check import Violation

#: Modules whose float values must never be compared with ``==``.
_COST_MODULE_PREFIXES = ("optimizer/", "analysis/")

#: Attribute names that are float-valued throughout the codebase.
_FLOAT_ATTRS = frozenset(
    {
        "pages",
        "rsi",
        "rows",
        "buffer_claim",
        "selectivity",
        "fraction",
        "qcard",
        "nested_eval_total",
        "eval_total",
        "distinct_total",
    }
)

#: Calls whose results are float-valued costs.
_FLOAT_METHODS = frozenset({"total", "scaled"})

#: Counter fields that only ``rss/`` may mutate.
_COUNTER_FIELDS = frozenset({"page_fetches", "rsi_calls", "buffer_hits"})

#: Every plan walker: (module path relative to src/repro, function name).
#: Each must dispatch on every PlanNode subclass.
_PLAN_WALKERS = (
    ("engine/operators.py", "iterate"),
    ("engine/fuse.py", "_build_fused"),
    ("optimizer/explain.py", "plan_summary"),
    ("analysis/plan_check.py", "_walk"),
    ("analysis/cost_audit.py", "_audit_node"),
)


def package_root() -> Path:
    """The ``src/repro`` directory this module lives in."""
    return Path(__file__).resolve().parent.parent


def lint_repo(root: Path | None = None) -> list[Violation]:
    """Run every lint rule over the package; returns all violations."""
    root = package_root() if root is None else root
    violations: list[Violation] = []
    trees: dict[str, ast.Module] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as error:
            violations.append(
                Violation("syntax-error", f"{relative}:{error.lineno}", str(error))
            )
            continue
        trees[relative] = tree
        _check_mutable_defaults(relative, tree, violations)
        if relative.startswith(_COST_MODULE_PREFIXES):
            _check_float_eq(relative, tree, violations)
        if not relative.startswith("rss/"):
            _check_counter_mutation(relative, tree, violations)
        else:
            _check_swallowed_exceptions(relative, tree, violations)
        if relative == "optimizer/joins.py":
            _check_joinsearch_hot_path(relative, tree, violations)
        if relative in _EXECUTOR_HOT_PATH_MODULES:
            _check_executor_hot_path(relative, tree, violations)
        if relative == "engine/compile.py":
            _check_compiled_closures(relative, tree, violations)
    _check_walkers(trees, violations, root)
    return violations


# ---------------------------------------------------------------------------
# rule: mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "OrderedDict"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _MUTABLE_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _MUTABLE_CALLS:
            return True
    return False


def _check_mutable_defaults(
    relative: str, tree: ast.Module, violations: list[Violation]
) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                violations.append(
                    Violation(
                        "mutable-default",
                        f"{relative}:{default.lineno}",
                        f"function {node.name!r} has a mutable default "
                        "argument; use None and create it in the body",
                    )
                )


# ---------------------------------------------------------------------------
# rule: no float == in cost code
# ---------------------------------------------------------------------------


def _is_floatish(node: ast.expr) -> bool:
    """Whether an expression is float-valued by this project's conventions."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Attribute):
        return node.attr in _FLOAT_ATTRS
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "float":
            return True
        if isinstance(func, ast.Attribute) and func.attr in _FLOAT_METHODS:
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True  # true division always produces a float
    if isinstance(node, (ast.BinOp, ast.UnaryOp)):
        operands = (
            [node.left, node.right]
            if isinstance(node, ast.BinOp)
            else [node.operand]
        )
        return any(_is_floatish(operand) for operand in operands)
    return False


def _check_float_eq(
    relative: str, tree: ast.Module, violations: list[Violation]
) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_floatish(left) or _is_floatish(right):
                violations.append(
                    Violation(
                        "float-eq",
                        f"{relative}:{node.lineno}",
                        "float-valued expressions compared with == / != in "
                        "cost code; use a tolerant comparison",
                    )
                )


# ---------------------------------------------------------------------------
# rule: counters mutated only inside rss/
# ---------------------------------------------------------------------------


def _check_counter_mutation(
    relative: str, tree: ast.Module, violations: list[Violation]
) -> None:
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr in _COUNTER_FIELDS
                # `self.page_fetches = 0` inside counters.py itself is the
                # dataclass definition; everywhere else it is a mutation.
                and not (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and relative == "rss/counters.py"
                )
            ):
                violations.append(
                    Violation(
                        "counter-mutation",
                        f"{relative}:{node.lineno}",
                        f"cost counter {target.attr!r} mutated outside rss/;"
                        " only the storage layer may count cost events",
                    )
                )


# ---------------------------------------------------------------------------
# rule: the storage layer never swallows exceptions
# ---------------------------------------------------------------------------

#: Exception names so broad that catching them without re-raising hides
#: injected faults and real corruption alike.
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Whether a handler body contains a ``raise`` of its own.

    Nested function definitions are skipped — a ``raise`` inside a closure
    defined in the handler does not re-raise the caught exception.
    """
    stack: list[ast.AST] = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _exception_names(handler: ast.ExceptHandler) -> list[str]:
    if handler.type is None:
        return []
    types = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names: list[str] = []
    for node in types:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _check_swallowed_exceptions(
    relative: str, tree: ast.Module, violations: list[Violation]
) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        where = f"{relative}:{node.lineno}"
        if node.type is None:
            violations.append(
                Violation(
                    "no-swallowed-exceptions",
                    where,
                    "bare except in the storage layer; name the exception "
                    "and re-raise what you cannot handle",
                )
            )
            continue
        broad = [
            name
            for name in _exception_names(node)
            if name in _BROAD_EXCEPTIONS
        ]
        if broad and not _handler_reraises(node):
            violations.append(
                Violation(
                    "no-swallowed-exceptions",
                    where,
                    f"except {broad[0]} without re-raising swallows "
                    "injected faults and corruption; handle a narrower "
                    "type or re-raise",
                )
            )
        elif all(isinstance(stmt, ast.Pass) for stmt in node.body):
            violations.append(
                Violation(
                    "no-swallowed-exceptions",
                    where,
                    "pass-only exception handler silently drops a storage "
                    "error",
                )
            )


# ---------------------------------------------------------------------------
# rule: the join-search hot path stays on bitmasks and memoized stats
# ---------------------------------------------------------------------------

#: Catalog statistics lookups that must not run per-extension; the search
#: fetches them once at construction and memoizes.
_CATALOG_STAT_METHODS = frozenset(
    {"relation_stats", "index_stats", "indexes_on", "index_on_column"}
)

#: JoinSearch methods that run before the DP loop and may do setup work.
_JOINSEARCH_SETUP_METHODS = frozenset({"__init__"})


def _check_joinsearch_hot_path(
    relative: str, tree: ast.Module, violations: list[Violation]
) -> None:
    for klass in tree.body:
        if not (isinstance(klass, ast.ClassDef) and klass.name == "JoinSearch"):
            continue
        for func in klass.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name in _JOINSEARCH_SETUP_METHODS:
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if isinstance(callee, ast.Name) and callee.id == "frozenset":
                    violations.append(
                        Violation(
                            "joinsearch-hot-path",
                            f"{relative}:{node.lineno}",
                            f"frozenset built in JoinSearch.{func.name}; "
                            "subset keys are interned bitmasks — translate "
                            "to alias sets only at the audit boundary",
                        )
                    )
                elif (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in _CATALOG_STAT_METHODS
                ):
                    violations.append(
                        Violation(
                            "joinsearch-hot-path",
                            f"{relative}:{node.lineno}",
                            f"catalog lookup {callee.attr!r} in "
                            f"JoinSearch.{func.name}; fetch statistics once "
                            "at construction and memoize",
                        )
                    )


# ---------------------------------------------------------------------------
# rule: the execution engine's per-tuple loops run only compiled artifacts
# ---------------------------------------------------------------------------

#: Modules whose ``for``/``while`` bodies are per-tuple hot paths.
_EXECUTOR_HOT_PATH_MODULES = frozenset(
    {
        "engine/operators.py",
        "engine/fuse.py",
        "engine/temp.py",
        "engine/external_sort.py",
        "rss/scan.py",
    }
)

#: Interpreter entry points that must only run at compile/open time.
_HOT_PATH_BANNED_CALLS = frozenset({"evaluate", "predicate_holds", "decode_tuple"})

#: Per-tuple generator entry points a fused driver loop must never call:
#: fusion exists to eliminate the per-tuple frame hand-off, so a chain
#: either inlines a stage or breaks at a declared pipeline breaker.
_FUSED_HANDOFF_CALLS = frozenset({"iterate", "fused_rows", "hash_join_rows"})


def _walk_skipping_asserts(node: ast.AST):
    """``ast.walk`` over a statement, pruning ``assert`` subtrees.

    ``assert isinstance(...)`` narrows types for mypy and vanishes under
    ``-O``; it is not dispatch, so the hot-path rules ignore it.
    """
    stack: list[ast.AST] = [node]
    while stack:
        child = stack.pop()
        if isinstance(child, ast.Assert):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _call_name(node: ast.Call) -> str | None:
    callee = node.func
    if isinstance(callee, ast.Name):
        return callee.id
    if isinstance(callee, ast.Attribute):
        return callee.attr
    return None


def _check_executor_hot_path(
    relative: str, tree: ast.Module, violations: list[Violation]
) -> None:
    flagged: set[int] = set()  # nested loops are walked repeatedly
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for statement in loop.body + loop.orelse:
            for node in _walk_skipping_asserts(statement):
                if not isinstance(node, ast.Call) or node.lineno in flagged:
                    continue
                name = _call_name(node)
                if name in _HOT_PATH_BANNED_CALLS:
                    flagged.add(node.lineno)
                    violations.append(
                        Violation(
                            "executor-hot-path",
                            f"{relative}:{node.lineno}",
                            f"interpreter entry point {name!r} called inside "
                            "a per-tuple loop; compile it once per plan or "
                            "scan open instead",
                        )
                    )
                elif name == "EvalEnv":
                    flagged.add(node.lineno)
                    violations.append(
                        Violation(
                            "executor-hot-path",
                            f"{relative}:{node.lineno}",
                            "EvalEnv constructed inside a per-tuple loop; "
                            "build one environment per open and mutate "
                            "its row instead",
                        )
                    )
                elif name == "isinstance":
                    flagged.add(node.lineno)
                    violations.append(
                        Violation(
                            "executor-hot-path",
                            f"{relative}:{node.lineno}",
                            "isinstance dispatch inside a per-tuple loop; "
                            "resolve the variant at compile/open time",
                        )
                    )
                elif name == "build_hash_table":
                    flagged.add(node.lineno)
                    violations.append(
                        Violation(
                            "executor-hot-path",
                            f"{relative}:{node.lineno}",
                            "hash-join build inside a loop; bucket the "
                            "build side once per statement and share the "
                            "table across batches",
                        )
                    )
                elif relative == "engine/fuse.py" and name is not None and (
                    name in _FUSED_HANDOFF_CALLS or name.startswith("_iter_")
                ):
                    flagged.add(node.lineno)
                    violations.append(
                        Violation(
                            "executor-hot-path",
                            f"{relative}:{node.lineno}",
                            f"per-tuple generator hand-off {name!r} inside "
                            "a fused driver loop; fuse the stage into the "
                            "batch loop or break the chain at a pipeline "
                            "breaker",
                        )
                    )


def _check_compiled_closures(
    relative: str, tree: ast.Module, violations: list[Violation]
) -> None:
    """Nested functions in ``engine/compile.py`` are per-row closures."""
    toplevel_functions: set[ast.AST] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            toplevel_functions.add(node)
    flagged: set[int] = set()
    for outer in toplevel_functions:
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(
                inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            for node in _walk_skipping_asserts(inner):
                if not isinstance(node, ast.Call) or node.lineno in flagged:
                    continue
                name = _call_name(node)
                if name in ("isinstance", "EvalEnv"):
                    flagged.add(node.lineno)
                    violations.append(
                        Violation(
                            "executor-hot-path",
                            f"{relative}:{node.lineno}",
                            f"{name} used inside a compiled closure; "
                            "closures run per row — use type(x) checks on "
                            "canonical values and reuse environments",
                        )
                    )


# ---------------------------------------------------------------------------
# rule: exhaustive plan-node dispatch
# ---------------------------------------------------------------------------


def plan_node_subclasses(root: Path | None = None) -> list[str]:
    """PlanNode subclass names, discovered by parsing ``optimizer/plan.py``."""
    root = package_root() if root is None else root
    tree = ast.parse((root / "optimizer" / "plan.py").read_text(encoding="utf-8"))
    names: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "PlanNode"
            for base in node.bases
        ):
            names.append(node.name)
    return names


def _isinstance_targets(func: ast.AST) -> set[str]:
    """Names used as the class argument of ``isinstance`` calls in a body."""
    targets: set[str] = set()
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        classes = node.args[1]
        elements = (
            list(classes.elts) if isinstance(classes, ast.Tuple) else [classes]
        )
        for element in elements:
            if isinstance(element, ast.Name):
                targets.add(element.id)
            elif isinstance(element, ast.Attribute):
                targets.add(element.attr)
    return targets


def _find_function(tree: ast.Module, name: str) -> ast.AST | None:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
    return None


def _check_walkers(
    trees: dict[str, ast.Module],
    violations: list[Violation],
    root: Path | None = None,
) -> None:
    try:
        subclasses = plan_node_subclasses(root)
    except (OSError, SyntaxError) as error:
        violations.append(
            Violation("walker-not-exhaustive", "optimizer/plan.py", str(error))
        )
        return
    for relative, function_name in _PLAN_WALKERS:
        where = f"{relative}:{function_name}"
        tree = trees.get(relative)
        if tree is None:
            violations.append(
                Violation(
                    "walker-not-exhaustive",
                    where,
                    "registered plan walker module is missing",
                )
            )
            continue
        func = _find_function(tree, function_name)
        if func is None:
            violations.append(
                Violation(
                    "walker-not-exhaustive",
                    where,
                    "registered plan walker function is missing",
                )
            )
            continue
        handled = _isinstance_targets(func)
        missing = [name for name in subclasses if name not in handled]
        if missing:
            violations.append(
                Violation(
                    "walker-not-exhaustive",
                    where,
                    "plan walker does not dispatch on "
                    + ", ".join(missing),
                )
            )
