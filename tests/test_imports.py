"""Every name a ``maxtherm`` module imports is used in that module.

No linter is a dependency, so this parses the sources with ``ast``.  The
package ``__init__`` is exempt: its imports are the re-exports.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parents[1] / "src" / "maxtherm").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_sources_are_found():
    assert {"ifs.py", "semiring.py", "transport.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = "import os\nfrom typing import List, Tuple\n\nx: Tuple[int] = os.sep\n"
    assert unused_imports(source) == ["List"]
