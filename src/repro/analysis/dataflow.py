"""Whole-program symbol table and call graph over ``src/repro``.

The per-rule lints in :mod:`repro.analysis.lint` see one module at a time;
the concurrency questions the ROADMAP's parallelism items raise — *who can
reach this cache? which functions mutate that attribute?* — need the whole
program.  This module parses every module of the package once and builds:

- a **symbol table**: every module, class, top-level function, and method,
  plus every module-level assignment (with a mutability judgement on the
  assigned value);
- a **call graph**: resolved edges from each function to the functions and
  methods it calls *or references* (a function passed as a callback is an
  edge too — the builder cannot know it is never invoked);
- **mutation records**: every site where a function assigns or mutates a
  module-level name, a ``self`` attribute, a parameter's attribute, or an
  attribute of some object it did not create locally.

Resolution is deliberately an *over*-approximation: an attribute call
``x.batches()`` links to every ``batches`` method in the package, because
for effect propagation and reachability a false edge is safe and a missing
edge is not.  Locally-created values (a list built in the function, an
object instantiated and never escaping through ``self`` or a global) are
tracked so their mutation does not count — mutating what you just made is
not a side effect.

The dead-code pass rides on the same graph: a function nobody references —
starting from the entry modules (``cli.py``, ``__main__.py``,
``database.py``), the test and benchmark trees, dunder protocol methods,
and ``# repro: keep`` annotations — is reported for deletion.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .plan_check import Violation

#: Constructor names whose results are definitely mutable containers.
MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "deque", "Counter"}
)

#: Method names that mutate their receiver (containers and friends).
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "sort",
        "reverse",
        "appendleft",
        "popleft",
    }
)

#: AST node types whose value is a mutable container literal.
_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)


# ---------------------------------------------------------------------------
# symbol table records
# ---------------------------------------------------------------------------


@dataclass
class GlobalVar:
    """One module-level assignment."""

    module: str
    name: str
    lineno: int
    #: "container" (list/dict/set literal or constructor), "instance" (a
    #: call to a package class), or "other" (constants, Structs, ...).
    kind: str

    @property
    def key(self) -> str:
        """Stable report key, e.g. ``engine/evaluator.py::_LIKE_CACHE``."""
        return f"{self.module}::{self.name}"


@dataclass
class ClassInfo:
    """One class definition with its attribute inventory."""

    module: str
    name: str
    lineno: int
    bases: list[str]
    methods: dict[str, "FunctionInfo"] = field(default_factory=dict)
    #: Attributes declared in the class body (annotations, dataclass
    #: fields) or assigned on ``self``, mapped to first-seen line.
    attrs: dict[str, int] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}::{self.name}"


@dataclass
class FunctionInfo:
    """One top-level function or method (nested defs fold into it)."""

    module: str
    name: str
    lineno: int
    klass: str | None = None
    node: ast.AST | None = field(default=None, repr=False)
    params: tuple[str, ...] = ()
    decorators: tuple[str, ...] = ()
    #: Whether the def line (or the line above) carries ``# repro: keep``.
    keep: bool = False

    @property
    def qualname(self) -> str:
        if self.klass:
            return f"{self.module}::{self.klass}.{self.name}"
        return f"{self.module}::{self.name}"


@dataclass(frozen=True)
class Mutation:
    """One site where a function mutates state it did not create."""

    #: "global" / "global-attr" / "self-attr" / "param-attr" / "unknown-attr"
    kind: str
    #: The mutated name: a module-level variable for "global", an
    #: attribute name for the ``*-attr`` kinds.
    target: str
    lineno: int
    #: Extra context: the global's module, the parameter's name, ...
    detail: str = ""


@dataclass
class ModuleInfo:
    """One parsed module of the package."""

    relpath: str
    tree: ast.Module = field(repr=False)
    #: local name -> "module.symbol" or "module" (resolved within root).
    imports: dict[str, str] = field(default_factory=dict)
    globals: dict[str, GlobalVar] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    source_lines: list[str] = field(default_factory=list, repr=False)


# ---------------------------------------------------------------------------
# the program graph
# ---------------------------------------------------------------------------


class ProgramGraph:
    """Symbol table + call graph for one package tree."""

    def __init__(self, root: Path):
        self.root = root
        self.modules: dict[str, ModuleInfo] = {}
        #: qualname -> FunctionInfo for every function and method.
        self.functions: dict[str, FunctionInfo] = {}
        #: class name -> [ClassInfo] (names may repeat across modules).
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        #: method name -> {qualnames} across all classes.
        self.methods_by_name: dict[str, set[str]] = {}
        #: top-level function name -> {qualnames} across modules.
        self.functions_by_name: dict[str, set[str]] = {}
        #: resolved edges: caller qualname -> set of callee qualnames.
        self.calls: dict[str, set[str]] = {}
        #: qualname -> mutation records found in its body.
        self.mutations: dict[str, list[Mutation]] = {}
        #: module relpath -> names referenced at module level (registration
        #: code outside any function roots reachability).
        self.module_level_refs: dict[str, set[str]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, root: Path | None = None) -> "ProgramGraph":
        """Parse every module under ``root`` and resolve the call graph."""
        if root is None:
            root = Path(__file__).resolve().parent.parent
        graph = cls(root)
        for path in sorted(root.rglob("*.py")):
            graph._parse_module(path)
        graph._index_symbols()
        for module in graph.modules.values():
            graph._analyze_module(module)
        return graph

    def _parse_module(self, path: Path) -> None:
        relpath = path.relative_to(self.root).as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError:
            return  # the lint reports syntax errors; skip here
        module = ModuleInfo(
            relpath=relpath, tree=tree, source_lines=source.splitlines()
        )
        self.modules[relpath] = module
        for node in tree.body:
            self._collect_toplevel(module, node)
        # Imports inside function bodies (the lazy-import idiom used to
        # break cycles) resolve the same as top-level ones; without them
        # the call graph loses whole subsystems (e.g. the fused drivers,
        # which executor.py imports lazily).
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    module.imports.setdefault(local, alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(relpath, node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    module.imports.setdefault(
                        local, f"{base}.{alias.name}" if base else alias.name
                    )

    def _collect_toplevel(self, module: ModuleInfo, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                module.imports[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = self._import_base(module.relpath, node)
            for alias in node.names:
                local = alias.asname or alias.name
                module.imports[local] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = self._function_info(
                module, node, klass=None
            )
        elif isinstance(node, ast.ClassDef):
            self._collect_class(module, node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            self._collect_global(module, node)

    def _function_info(
        self,
        module: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        klass: str | None,
    ) -> FunctionInfo:
        args = node.args
        params = tuple(
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        )
        decorators = tuple(
            _attr_or_name(d) or "" for d in node.decorator_list
        )
        return FunctionInfo(
            module=module.relpath,
            name=node.name,
            lineno=node.lineno,
            klass=klass,
            node=node,
            params=params,
            decorators=decorators,
            keep=_keep_annotated(module.source_lines, node.lineno),
        )

    def _collect_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        info = ClassInfo(
            module=module.relpath,
            name=node.name,
            lineno=node.lineno,
            bases=[name for name in map(_attr_or_name, node.bases) if name],
        )
        module.classes[node.name] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = self._function_info(
                    module, stmt, klass=node.name
                )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                info.attrs.setdefault(stmt.target.id, stmt.lineno)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.attrs.setdefault(target.id, stmt.lineno)

    def _collect_global(
        self, module: ModuleInfo, node: ast.Assign | ast.AnnAssign
    ) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        value = node.value
        if value is None:
            return
        kind = self._value_kind(module, value)
        for target in targets:
            if isinstance(target, ast.Name):
                module.globals[target.id] = GlobalVar(
                    module=module.relpath,
                    name=target.id,
                    lineno=node.lineno,
                    kind=kind,
                )

    def _value_kind(self, module: ModuleInfo, value: ast.expr) -> str:
        if isinstance(value, _MUTABLE_LITERALS):
            return "container"
        if isinstance(value, ast.Call):
            name = _attr_or_name(value.func)
            if name is None:
                return "other"
            tail = name.split(".")[-1]
            if tail in MUTABLE_CALLS:
                return "container"
            # A call to a class defined in this package builds a shared
            # instance; anything else (struct.Struct, re.compile,
            # register_point, frozenset) is treated as inert unless some
            # function later mutates the name.
            if tail in module.classes or tail[:1].isupper():
                return "instance"
        return "other"

    @staticmethod
    def _import_base(relpath: str, node: ast.ImportFrom) -> str:
        """Dotted module path of a from-import, package-relative."""
        if node.level == 0:
            name = node.module or ""
            # absolute imports of the package itself: strip the package name
            parts = name.split(".")
            return ".".join(parts[1:]) if len(parts) > 1 else ""
        package_dir = Path(relpath).parent
        for __ in range(node.level - 1):
            package_dir = package_dir.parent
        base = ".".join(p for p in package_dir.as_posix().split("/") if p != ".")
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    # -- symbol indexing ---------------------------------------------------

    def _index_symbols(self) -> None:
        for module in self.modules.values():
            for func in module.functions.values():
                self.functions[func.qualname] = func
                self.functions_by_name.setdefault(func.name, set()).add(
                    func.qualname
                )
            for klass in module.classes.values():
                self.classes_by_name.setdefault(klass.name, []).append(klass)
                for method in klass.methods.values():
                    self.functions[method.qualname] = method
                    self.methods_by_name.setdefault(method.name, set()).add(
                        method.qualname
                    )
        # `self.attr = ...` assignments also declare class attributes.
        for module in self.modules.values():
            for klass in module.classes.values():
                for method in klass.methods.values():
                    assert method.node is not None
                    for node in ast.walk(method.node):
                        if (
                            isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                        ):
                            targets = (
                                node.targets
                                if isinstance(node, ast.Assign)
                                else [node.target]
                            )
                            for target in targets:
                                if (
                                    isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"
                                ):
                                    klass.attrs.setdefault(
                                        target.attr, node.lineno
                                    )

    # -- per-function analysis ---------------------------------------------

    def _analyze_module(self, module: ModuleInfo) -> None:
        refs: set[str] = set()
        for node in module.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for sub in ast.walk(node):
                name = _ref_name(sub)
                if name:
                    refs.add(name)
        self.module_level_refs[module.relpath] = refs
        for func in module.functions.values():
            self._analyze_function(module, func)
        for klass in module.classes.values():
            for method in klass.methods.values():
                self._analyze_function(module, method)

    def _analyze_function(self, module: ModuleInfo, func: FunctionInfo) -> None:
        assert func.node is not None
        analyzer = _BodyAnalyzer(self, module, func)
        analyzer.run()
        self.calls[func.qualname] = analyzer.edges
        self.mutations[func.qualname] = analyzer.mutations

    # -- queries -----------------------------------------------------------

    def resolve_call(
        self, module: ModuleInfo, func: FunctionInfo, name: str, is_attr: bool
    ) -> set[str]:
        """Possible targets of calling (or referencing) ``name``."""
        targets: set[str] = set()
        if not is_attr:
            if name in module.functions:
                targets.add(module.functions[name].qualname)
                return targets
            if name in module.classes:
                klass = module.classes[name]
                init = klass.methods.get("__init__")
                if init is not None:
                    targets.add(init.qualname)
                return targets
            imported = module.imports.get(name)
            if imported is not None:
                return self._resolve_imported(imported)
            return targets
        # attribute call/reference: over-approximate by bare name.
        targets |= self.methods_by_name.get(name, set())
        targets |= self.functions_by_name.get(name, set())
        return targets

    def _resolve_imported(self, dotted: str) -> set[str]:
        """Resolve ``pkg.module.symbol`` (package-relative) to qualnames."""
        parts = dotted.split(".")
        for split in range(len(parts), 0, -1):
            module_path = "/".join(parts[:split]) + ".py"
            module = self.modules.get(module_path)
            if module is None:
                module = self.modules.get(
                    "/".join(parts[:split]) + "/__init__.py"
                )
            if module is None:
                continue
            remainder = parts[split:]
            if not remainder:
                return set()
            symbol = remainder[0]
            if symbol in module.functions:
                return {module.functions[symbol].qualname}
            if symbol in module.classes:
                klass = module.classes[symbol]
                init = klass.methods.get("__init__")
                return {init.qualname} if init is not None else set()
            # re-exported through __init__: fall through to name match.
            return self.functions_by_name.get(symbol, set()) | self.methods_by_name.get(symbol, set())
        return set()

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Transitive closure over call/reference edges."""
        seen: set[str] = set()
        stack = [q for q in roots if q in self.functions]
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            stack.extend(self.calls.get(qualname, ()))
        return seen

    def class_of(self, module: str, name: str) -> ClassInfo | None:
        """The class ``name`` defined in ``module``, if any."""
        info = self.modules.get(module)
        if info is None:
            return None
        return info.classes.get(name)

    def classes_declaring(self, attr: str) -> list[ClassInfo]:
        """Every class that declares attribute ``attr``."""
        return [
            klass
            for classes in self.classes_by_name.values()
            for klass in classes
            if attr in klass.attrs
        ]


# ---------------------------------------------------------------------------
# body analysis: edges, mutations, local-origin tracking
# ---------------------------------------------------------------------------


#: Origin descriptors for local names (flow-insensitive, last-write-wins
#: would need ordering; first-write-wins is fine for this codebase's style).
_FRESH = ("fresh",)


class _BodyAnalyzer:
    """Single pass over one function body (nested defs included)."""

    def __init__(
        self, graph: ProgramGraph, module: ModuleInfo, func: FunctionInfo
    ):
        self.graph = graph
        self.module = module
        self.func = func
        self.edges: set[str] = set()
        self.mutations: list[Mutation] = []
        #: local name -> origin tuple:
        #: ("fresh",) | ("param", name) | ("self-attr", attr)
        #: | ("global", name) | ("param-attr", param, attr)
        self.origins: dict[str, tuple] = {}
        self.declared_globals: set[str] = set()

    def run(self) -> None:
        node = self.func.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for param in self.func.params:
            self.origins[param] = ("param", param)
        # First pass: origins and `global` declarations, in source order.
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                self.declared_globals.update(sub.names)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        self._record_origin(target.id, sub.value)
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                if isinstance(sub.target, ast.Name):
                    self._record_origin(sub.target.id, sub.value)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                for name in _bound_names(sub.target):
                    self.origins.setdefault(name, _FRESH)
            elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
                for name in _bound_names(sub.optional_vars):
                    self.origins.setdefault(name, _FRESH)
            elif isinstance(sub, ast.comprehension):
                for name in _bound_names(sub.target):
                    self.origins.setdefault(name, _FRESH)
        # Second pass: edges and mutations.
        for sub in ast.walk(node):
            self._visit(sub)

    # -- origins -----------------------------------------------------------

    def _record_origin(self, name: str, value: ast.expr) -> None:
        if name in self.origins:
            return  # first write wins
        self.origins[name] = self._origin_of(value)

    def _origin_of(self, value: ast.expr) -> tuple:
        if isinstance(value, ast.Name):
            if value.id in self.origins:
                return self.origins[value.id]
            if value.id in self.module.globals:
                return ("global", value.id)
            return _FRESH
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
            base = value.value.id
            if base == "self":
                return ("self-attr", value.attr)
            base_origin = self.origins.get(base)
            if base_origin is not None and base_origin[0] == "param":
                return ("param-attr", base_origin[1], value.attr)
            if base in self.module.globals:
                return ("global", base)
        return _FRESH

    # -- visiting ----------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                self._visit_store(target, node.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._visit_store(target, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            # bare reference to a function: callback registration edge.
            self.edges.update(
                self.graph.resolve_call(self.module, self.func, node.id, False)
            )

    def _visit_call(self, node: ast.Call) -> None:
        callee = node.func
        if isinstance(callee, ast.Name):
            self.edges.update(
                self.graph.resolve_call(self.module, self.func, callee.id, False)
            )
        elif isinstance(callee, ast.Attribute):
            self.edges.update(
                self.graph.resolve_call(
                    self.module, self.func, callee.attr, True
                )
            )
            if callee.attr in MUTATOR_METHODS:
                self._mutation_through(callee.value, node.lineno, callee.attr)
        # A bound method passed as a call argument is a callback
        # registration edge, like the bare-Name case below.
        for value in [*node.args, *(kw.value for kw in node.keywords)]:
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                self.edges.update(
                    self.graph.resolve_call(
                        self.module, self.func, value.attr, True
                    )
                )

    def _visit_store(self, target: ast.expr, lineno: int) -> None:
        if isinstance(target, ast.Name):
            if (
                target.id in self.declared_globals
                and target.id in self.module.globals
            ):
                self.mutations.append(
                    Mutation("global", target.id, lineno, self.module.relpath)
                )
            return
        if isinstance(target, ast.Subscript):
            self._mutation_through(target.value, lineno, "[]=")
            return
        if isinstance(target, ast.Attribute):
            self._attr_store(target, lineno)

    def _attr_store(self, target: ast.Attribute, lineno: int) -> None:
        base = target.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                self.mutations.append(
                    Mutation(
                        "self-attr",
                        target.attr,
                        lineno,
                        self.func.klass or "",
                    )
                )
                return
            origin = self.origins.get(base.id)
            if origin is None and base.id in self.module.globals:
                origin = ("global", base.id)
            self._attr_mutation_from_origin(origin, target.attr, lineno)
            return
        # self.x.y = ... — mutation through a self attribute.
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            self.mutations.append(
                Mutation("self-attr", base.attr, lineno, self.func.klass or "")
            )

    def _mutation_through(
        self, base: ast.expr, lineno: int, how: str
    ) -> None:
        """A mutating operation reached through expression ``base``."""
        if isinstance(base, ast.Name):
            origin = self.origins.get(base.id)
            if origin is None and base.id in self.module.globals:
                origin = ("global", base.id)
            self._attr_mutation_from_origin(origin, how, lineno, base.id)
            return
        if isinstance(base, ast.Attribute):
            inner = base.value
            if isinstance(inner, ast.Name):
                if inner.id == "self":
                    self.mutations.append(
                        Mutation(
                            "self-attr",
                            base.attr,
                            lineno,
                            self.func.klass or "",
                        )
                    )
                    return
                origin = self.origins.get(inner.id)
                if origin is None and inner.id in self.module.globals:
                    origin = ("global", inner.id)
                if origin is not None and origin[0] == "global":
                    self.mutations.append(
                        Mutation(
                            "global-attr", origin[1], lineno, base.attr
                        )
                    )
                    return
                if origin is not None and origin[0] == "param":
                    self.mutations.append(
                        Mutation("param-attr", base.attr, lineno, origin[1])
                    )
                    return
                if origin is not None and origin[0] == "self-attr":
                    self.mutations.append(
                        Mutation(
                            "self-attr",
                            origin[1],
                            lineno,
                            self.func.klass or "",
                        )
                    )
                    return
                if origin is None or origin[0] != "fresh":
                    self.mutations.append(
                        Mutation("unknown-attr", base.attr, lineno)
                    )

    def _attr_mutation_from_origin(
        self,
        origin: tuple | None,
        attr: str,
        lineno: int,
        base_name: str = "",
    ) -> None:
        if origin is None:
            self.mutations.append(Mutation("unknown-attr", attr, lineno))
            return
        kind = origin[0]
        if kind == "fresh":
            return  # mutating what this function created: not a side effect
        if kind == "global":
            self.mutations.append(
                Mutation("global", origin[1], lineno, self.module.relpath)
            )
        elif kind == "param":
            self.mutations.append(
                Mutation("param-attr", attr, lineno, origin[1])
            )
        elif kind == "self-attr":
            self.mutations.append(
                Mutation("self-attr", origin[1], lineno, self.func.klass or "")
            )
        elif kind == "param-attr":
            self.mutations.append(
                Mutation("param-attr", origin[2], lineno, origin[1])
            )


# ---------------------------------------------------------------------------
# dead code
# ---------------------------------------------------------------------------

#: Functions that are entry points by convention, never dead.
_ENTRY_MODULES = ("cli.py", "__main__.py", "database.py")

#: Decorators that imply external invocation (properties are read as
#: attributes; fixtures/parametrize are called by pytest).
_LIVE_DECORATORS = frozenset(
    {"property", "setter", "getter", "deleter", "cached_property", "fixture",
     "contextmanager", "classmethod", "staticmethod", "abstractmethod"}
)


def find_dead_code(
    graph: ProgramGraph, consumer_roots: Iterable[Path] = ()
) -> list[Violation]:
    """Functions unreachable from the entry points and external consumers.

    ``consumer_roots`` are directories outside the package (tests,
    benchmarks, examples) whose name references keep package functions
    alive.  A bare-name match is enough: the graph cannot see how pytest
    or a benchmark harness calls in, so it errs on keeping things.
    """
    external_names: set[str] = set()
    for root in consumer_roots:
        for path in sorted(Path(root).rglob("*.py")):
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except (OSError, SyntaxError):
                continue
            for node in ast.walk(tree):
                name = _ref_name(node)
                if name:
                    external_names.add(name)

    roots: list[str] = []
    for qualname, func in graph.functions.items():
        if func.module in _ENTRY_MODULES:
            roots.append(qualname)
        elif func.name in external_names:
            roots.append(qualname)
        elif func.name.startswith("__") and func.name.endswith("__"):
            roots.append(qualname)
        elif func.keep:
            roots.append(qualname)
        elif any(d.split(".")[-1] in _LIVE_DECORATORS for d in func.decorators):
            roots.append(qualname)
    # Module-level registration code (fault-point tables, __all__ wiring)
    # roots whatever it references.
    for relpath, refs in graph.module_level_refs.items():
        for name in refs:
            roots.extend(graph.functions_by_name.get(name, ()))
            roots.extend(graph.methods_by_name.get(name, ()))

    live = graph.reachable(roots)
    violations: list[Violation] = []
    for qualname, func in sorted(graph.functions.items()):
        if qualname in live:
            continue
        violations.append(
            Violation(
                "dead-code",
                f"{func.module}:{func.lineno}",
                f"{_display(func)} is unreachable from cli.py, database.py, "
                "the test/benchmark trees, and registered walkers; delete it "
                "or annotate the def with '# repro: keep'",
            )
        )
    return violations


def _display(func: FunctionInfo) -> str:
    if func.klass:
        return f"method {func.klass}.{func.name}"
    return f"function {func.name}"


# ---------------------------------------------------------------------------
# small AST helpers
# ---------------------------------------------------------------------------


def _attr_or_name(node: ast.expr) -> str | None:
    """Dotted name of a Name/Attribute chain, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _ref_name(node: ast.AST) -> str | None:
    """The bare name a Load reference or attribute access points at."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def _bound_names(target: ast.expr) -> Iterator[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


def _keep_annotated(source_lines: list[str], lineno: int) -> bool:
    """Whether the def line or the line above says ``# repro: keep``."""
    for line_index in (lineno - 1, lineno - 2):
        if 0 <= line_index < len(source_lines):
            if "# repro: keep" in source_lines[line_index]:
                return True
    return False
