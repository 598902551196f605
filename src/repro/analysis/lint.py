"""Project-specific lint: an ``ast``-based pass over ``src/repro``.

Generic linters cannot know this project's rules, so this pass enforces
the four that guard correctness directly on the parsed source:

- **float-eq** — cost-sensitive modules (``optimizer/``, ``analysis/``)
  may not compare float-valued expressions with ``==`` / ``!=``; cost and
  cardinality comparisons must use tolerant helpers or inequalities.
- **counter-mutation** — the cost counters in :mod:`repro.rss.counters`
  (``page_fetches``, ``rsi_calls``, ``buffer_hits``) may only be assigned
  or incremented inside ``rss/``; everyone else observes them through
  snapshots or ``reset()``.
- **no-swallowed-exceptions** — the storage layer (``rss/``) guarantees
  statement atomicity, which dies silently if an error is swallowed on
  the way up: no bare ``except``, no ``except Exception`` /
  ``BaseException`` handler that fails to re-raise, and no handler of any
  type whose body is only ``pass``.
- **walker-not-exhaustive** — every registered plan walker must dispatch
  with ``isinstance`` on *every* :class:`~repro.optimizer.plan.PlanNode`
  subclass, so adding a plan node type cannot silently fall through.  The
  subclass list is discovered by parsing ``optimizer/plan.py``, never
  hard-coded, so the lint stays correct as the plan algebra grows.

Mutable default arguments are ruff's B006 (``pyproject.toml`` selects
``B``); how fast the executor and join-search loops run is measured end
to end by ``bench/run.py``, not asserted here.
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
        if relative.startswith(_COST_MODULE_PREFIXES):
            _check_float_eq(relative, tree, violations)
        if not relative.startswith("rss/"):
            _check_counter_mutation(relative, tree, violations)
        else:
            _check_swallowed_exceptions(relative, tree, violations)
    _check_walkers(trees, violations, root)
    return violations


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
