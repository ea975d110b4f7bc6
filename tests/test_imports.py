"""Every import in `src/oogen` is used: each name an import statement binds
is read somewhere in its module (as a name, or as the root of an attribute
chain such as `ir.INT`), or listed in the module's `__all__`. No linter
ships with the project, so this is the check that a deleted class or
function leaves no stale import behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "oogen"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names the imports in `source` bind and nothing in it reads."""
    tree = ast.parse(source)
    bound, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            # `import a.b` binds `a`.
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return sorted(bound - read - exported)


def test_the_checker_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c as d, e\nsys.exit(e)\n") == [
        "d", "os"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.f()\n") == []
    assert unused_imports("from m import x\n__all__ = ['x']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
