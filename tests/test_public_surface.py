"""Every public library name and every import has a reader.

A name in a module's __all__ that nothing in the library or the
benchmark reads is surface with no caller: only its own tests keep it
alive.  This test parses src/asymmbench and perfbench and requires each
such name to be read (as a Name or an attribute) somewhere outside its
own definition.  An import alone does not count, so neither the
__init__ re-export nor an import that nothing uses keeps a name alive.
The few names kept for tests and references are listed below with the
reason each stays.

The same holds for imports: each name an import binds in the package or
in the tests must be read, as a Name, in the module that imports it.  The
package itself imports only the standard library, numpy and its own
modules: scipy and other installed packages are not dependencies.
"""
import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "asymmbench"
BENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"

# Public names read by no library or benchmark code, each with its reason.
ALLOWED = {
    "twirl_state": "reference twirl the orbit tests compare against; ROADMAP item 5 needs it",
}


def exported(tree: ast.Module) -> list[str]:
    """The names a module lists in __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def read_names(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """Names tree reads as a Name or an attribute, outside the subtree skip."""
    inside = set() if skip is None else {id(n) for n in ast.walk(skip)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


def unread_exports() -> list[tuple[str, str]]:
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
    }
    # The names each top-level statement reads, from one walk of each tree,
    # and how many statements of all modules read each name.
    reads = {id(stmt): read_names(stmt) for tree in trees.values() for stmt in tree.body}
    readers = Counter(name for names in reads.values() for name in names)
    found = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        definitions = _definitions(tree)
        for name in exported(tree):
            # A definition that reads its own name (recursion) is no reader.
            node = definitions.get(name)
            own = node is not None and name in reads[id(node)]
            if readers[name] - own == 0:
                found.append((path.stem, name))
    return found


def test_reader_ignores_imports_and_the_own_definition():
    tree = ast.parse(
        "from m import a\n__all__ = ['f', 'g']\n"
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    return h.g\n"
    )
    reads = read_names(tree, _definitions(tree)["f"])
    assert "a" not in reads and "f" not in reads and "g" in reads
    assert exported(tree) == ["f", "g"]


def test_every_public_name_has_a_reader():
    unread = unread_exports()
    assert sorted(name for _, name in unread if name not in ALLOWED) == []
    # every allowed name is still public and still unread, so the list stays exact
    assert set(ALLOWED) == {name for _, name in unread}


def unread_imports(tree: ast.Module) -> list[str]:
    """Names the imports of tree bind that tree never reads as a Name.

    `import a.b` binds a; from __future__ imports bind nothing.
    """
    bound, loaded = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return [name for name in bound if name not in loaded]


def test_import_reader_counts_loads_only():
    tree = ast.parse(
        "from __future__ import annotations\nimport a.b\nimport c as d\n"
        "from e import f, g as h\nf = 1\nprint(d, a.b)\n"
    )
    assert unread_imports(tree) == ["f", "h"]


def test_every_import_is_read():
    unread = [
        (path.relative_to(ROOT).as_posix(), name)
        for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
        for name in unread_imports(ast.parse(path.read_text()))
    ]
    assert unread == []


def foreign_imports(tree: ast.Module) -> list[str]:
    """Modules tree imports from outside the standard library, numpy and asymmbench.

    Relative imports are the package's own.
    """
    allowed = sys.stdlib_module_names | {"numpy", "asymmbench"}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in allowed]


def test_foreign_import_detector():
    tree = ast.parse(
        "from __future__ import annotations\nimport scipy\nimport numpy.linalg as la\n"
        "from scipy.linalg import expm\nfrom . import linalg\nfrom collections import Counter\n"
        "import asymmbench.qtypes\ndef f():\n    import hypothesis\n"
    )
    assert foreign_imports(tree) == ["scipy", "scipy.linalg", "hypothesis"]


def test_package_imports_only_the_standard_library_and_numpy():
    found = [
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in foreign_imports(ast.parse(path.read_text()))
    ]
    assert found == []
