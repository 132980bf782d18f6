import ast
from pathlib import Path

import pytest

import quasigray

MODULES = sorted(Path(quasigray.__file__).parent.glob("*.py"))


def _unused_imports(path):
    """The names ``path`` imports but never loads, other than those its
    ``__all__`` exports and ``from __future__`` features."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == set()


def test_the_guard_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom operator import mul, add\n\nadd(os.sep, 1)\n")
    assert _unused_imports(module) == {"mul"}
