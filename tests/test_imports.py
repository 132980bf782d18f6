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


def _unreferenced_private_names(paths):
    """The module-level ``_private`` names that ``paths`` define, as
    ``(file name, name)``, that no code among them loads, reads as an
    attribute or imports."""
    defined = set()
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((path.name, n) for n in names if n[:1] == "_" and n[:2] != "__")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return {(file, name) for file, name in defined if name not in used}


def test_every_private_name_is_used():
    assert _unreferenced_private_names(MODULES) == set()


def test_the_guard_sees_an_unused_private_name(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(
        "_N = 1\n_M, _T = 2, 3\n\n"
        "def _used():\n    return _N\n\n"
        "def _dead():\n    _local = 4\n    return _local\n\n"
        "class _Box:\n    _slot = 5\n"
    )
    b.write_text("from a import _used, _Box\n\n_used(_Box._slot)\nprint(obj._M)\n")
    assert _unreferenced_private_names([a, b]) == {("a.py", "_T"), ("a.py", "_dead")}


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


def _environment_reads(path):
    """The lines of ``path`` that import ``os`` or read an ``environ`` or
    ``getenv`` attribute, so that its output could depend on more than its
    arguments."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "os" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "os"
        else:
            hit = isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        if hit:
            lines.add(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    assert _environment_reads(path) == set()


def test_the_guard_sees_an_environment_read(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import sys, os.path\n"
        "from os import getenv\n"
        "import operator\n"
        "cap = sys.modules['os'].environ.get('CAP')\n"
        "home = getenv('HOME')\n"
        "args = sys.argv\n"
    )
    assert _environment_reads(module) == {1, 2, 4}
