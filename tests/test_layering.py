"""Module layering of the sepham package, checked on its source with ast.

Every import sits at module level, so the dependency order between modules
is visible at the top of each file and no import cycle hides behind a lazy
import inside a function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sepham"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert {"core.py", "oracle.py", "cli.py"} <= {p.name for p in MODULES}


def test_no_import_inside_a_function():
    offenders = []
    for path in MODULES:
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                offenders += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert offenders == []


def _package_imports(path):
    """Sibling modules imported at module level by one sepham module."""
    out = set()
    for node in _parse(path).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_no_import_cycle():
    graph = {p.stem: _package_imports(p) for p in MODULES}
    done, path = set(), []

    def visit(mod):
        assert mod not in path, "import cycle: " + " -> ".join(path + [mod])
        if mod in done:
            return
        path.append(mod)
        for dep in sorted(graph.get(mod, ())):
            visit(dep)
        path.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)
