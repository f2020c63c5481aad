"""Every imported name is used: a static scan of the package, tests and demos.

A name bound by an import must be read somewhere in its module, as a name
or as the base of an attribute (`module.attr`), or be listed in the
module's `__all__`.  `__future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src/spinegeo", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    # attribute chains end in a Name node, so reading `a.b.c` reads `a`
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in read and name not in exported]


def test_the_scan_sees_the_sources():
    assert len(FILES) > 20
    assert ROOT / "src/spinegeo/spine.py" in FILES


def test_the_scan_flags_an_unused_import_only():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom x import a, b, c\n"
              "__all__ = ['c']\nprint(os.sep, a)\n")
    assert unused_imports(source) == ["j", "b"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
