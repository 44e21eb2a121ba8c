"""No module of the package or its tests imports a name it never uses.

The toolchain ships no linter, so this walks each module's syntax tree: a
name bound by an import must appear as a name somewhere in the module.
Package ``__init__.py`` files are skipped, since they import to re-export.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unused_imports(source: str) -> list[str]:
    """Names the module imports and never refers to, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_unused_and_used_imports():
    source = "import os\nimport numpy.linalg\nfrom json import dumps as d, loads\nloads(numpy.linalg)\n"
    assert unused_imports(source) == ["d", "os"]


def test_no_unused_imports_in_src_or_tests():
    found = {}
    for top in ("src", "tests"):
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                if name.endswith(".py") and name != "__init__.py":
                    path = os.path.join(folder, name)
                    with open(path) as fh:
                        unused = unused_imports(fh.read())
                    if unused:
                        found[os.path.relpath(path, ROOT)] = unused
    assert found == {}
