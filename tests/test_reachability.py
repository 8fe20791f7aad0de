"""`src/crossedcat` holds only what the package runs or exports.

The scan parses every module of the package with `ast`.  It starts from
`cli.main`, `cli.entry`, every name in `__init__._EXPORTS` and every
top-level definition of `__init__` itself, and follows each name a reached
definition reads to the top-level function, class or constant that defines
it, through the package's relative imports (at any depth) and through
`module.name` attributes.  A reached class brings its whole body, methods
included; a reached module also runs its import-time statements that
define nothing.  Every top-level definition must be reached, apart from
EXEMPT.
"""

from __future__ import annotations

import ast

from conftest import ROOT

PACKAGE = ROOT / "src" / "crossedcat"

# The bounded word walk, which no command runs.  It stays in the
# package because the benchmark reads it by name: perfbench/traced_cli.py
# wraps enumerate_words and check_coherence, and perfbench/tests calls
# check_coherence; it leaves the package when the benchmark stops reading it.
EXEMPT = {
    ("words", "moves"),             # called only by check_coherence
    ("words", "enumerate_words"),   # wrapped by perfbench/traced_cli.py
    ("words", "check_coherence"),   # wrapped by perfbench/traced_cli.py, called by its tests
    ("words", "_trace"),            # called only by check_coherence
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)


def _defined_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


class Package:
    """Each module's top-level definitions, its import-time statements that
    define nothing, and the names its relative imports bind, to (submodule,
    name there) or, for a submodule itself, (submodule, None)."""

    def __init__(self):
        self.defs: dict[str, dict[str, ast.AST]] = {}
        self.statements: dict[str, list[ast.AST]] = {}
        self.bound: dict[str, dict[str, tuple]] = {}
        for path in sorted(PACKAGE.glob("*.py")):
            module, tree = path.stem, ast.parse(path.read_text(), str(path))
            self.defs[module] = {name: node for node in tree.body
                                 if isinstance(node, DEFINITIONS) for name in _defined_names(node)}
            self.statements[module] = [node for node in tree.body
                                       if not isinstance(node, (*DEFINITIONS, ast.Import,
                                                                ast.ImportFrom))]
            self.bound[module] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        self.bound[module][alias.asname or alias.name] = (
                            (node.module, alias.name) if node.module else (alias.name, None))

    def resolve(self, module: str, name: str):
        """(module, name) of the definition `name` reads in `module`,
        (submodule, None) for a submodule, or None outside the package
        (builtins, locals, other packages)."""
        if name in self.defs[module]:
            return module, name
        target = self.bound[module].get(name)
        if target is None or target[1] is None:
            return target
        return self.resolve(*target)

    def reads(self, module: str, node) -> set:
        """The definitions and submodules `node` reads."""
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(self.resolve(module, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                owner = self.resolve(module, sub.value.id)
                if owner is not None and owner[1] is None:
                    out.add(self.resolve(owner[0], sub.attr))
        return out - {None}

    def unreached(self, roots) -> set[tuple[str, str]]:
        seen, loaded, todo = set(), set(), list(roots)
        while todo:
            item = todo.pop()
            if item in seen:
                continue
            seen.add(item)
            module, name = item
            if module not in loaded:
                loaded.add(module)
                for node in self.statements[module]:
                    todo.extend(self.reads(module, node))
            if name is not None:
                todo.extend(self.reads(module, self.defs[module][name]))
        return {(m, name) for m, names in self.defs.items() for name in names} - seen


def _roots(package: Package) -> list:
    exports = ast.literal_eval(package.defs["__init__"]["_EXPORTS"].value)
    return [("cli", "main"), ("cli", "entry"),
            *(("__init__", name) for name in package.defs["__init__"]),
            *((module, None) for module in exports),
            *(package.resolve(module, name) for module, names in exports.items()
              for name in names)]


def test_every_definition_in_the_package_is_run_or_exported():
    package = Package()
    assert package.unreached(_roots(package)) == EXEMPT


def test_the_scan_sees_an_unreached_definition_and_a_dropped_root():
    """The scan itself: a helper nothing reads is unreached, and so is what
    only an export read once the export is gone."""
    package = Package()
    package.defs["report"]["orphan"] = ast.parse("def orphan():\n    return 1\n").body[0]
    assert package.unreached(_roots(package)) == EXEMPT | {("report", "orphan")}
    package = Package()
    roots = [r for r in _roots(package) if r != ("jsonio", "save_category")]
    assert package.unreached(roots) == EXEMPT | {("jsonio", "save_category"),
                                                 ("jsonio", "category_to_json")}
