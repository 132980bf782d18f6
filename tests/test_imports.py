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


# the one loop that steps a counter and the one that replays its report
STEPPERS = {"enumerate_cycle", "CycleReport.replay"}


def _advance_readers(path):
    """The qualified names of the functions in ``path`` that read an
    attribute ``advance``, with ``<module>`` for code outside any."""
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "advance":
                if isinstance(child.ctx, ast.Load):
                    readers.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return readers


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_enumeration_and_the_replay_step_a_counter(path):
    assert _advance_readers(path) <= STEPPERS


def test_the_guard_sees_a_step_outside_them(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class R:\n"
        "    def replay(self):\n"
        "        self.counter.advance(1)\n"
        "    def again(self, c):\n"
        "        return c.advance\n"
        "def run(c):\n"
        "    c.advance = None\n"
    )
    assert _advance_readers(module) == {"R.replay", "R.again"}
