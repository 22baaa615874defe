"""Every name the package defines is used by the package or exported.

A function, class, method or module-level constant under src/spectough
that nothing in src/spectough names outside its own definition, and that
``spectough.__all__`` does not list, is dead code or a test-only helper,
which belongs under tests/.  A name counts as used wherever its bare text
appears as a variable, an attribute or an imported name, so the check
errs toward passing.  Dunder names are called by the language and are
exempt.
"""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

import spectough

PACKAGE = pathlib.Path(spectough.__file__).parent


def _occurrences(tree: ast.AST) -> Counter:
    """How often each bare name appears in ``tree`` as a variable, an
    attribute or a part of an imported name."""
    count = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            count[node.id] += 1
        elif isinstance(node, ast.Attribute):
            count[node.attr] += 1
        elif isinstance(node, ast.alias):
            count.update(node.name.split("."))
    return count


def _definitions(module: ast.Module):
    """(name, node) for every function, class and method of ``module``,
    nested ones included, and every module-level constant."""
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
    for node in module.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def unused_names(root: pathlib.Path, exported: set[str]) -> list[str]:
    """``file:line name`` for each definition under ``root`` whose name
    appears only inside that definition, unless ``exported`` lists it."""
    modules = {path: ast.parse(path.read_text(), str(path))
               for path in sorted(root.rglob("*.py"))}
    total = sum((_occurrences(module) for module in modules.values()),
                Counter())
    return [f"{path.relative_to(root)}:{node.lineno} {name}"
            for path, module in modules.items()
            for name, node in _definitions(module)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in exported
            and total[name] == _occurrences(node)[name]]


def test_every_definition_is_named_elsewhere():
    assert unused_names(PACKAGE, set(spectough.__all__)) == []


def test_flags_a_helper_named_only_by_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "def used(n):\n    return n < LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used(n)\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    def size(self):\n        return len(self)\n")
    (tmp_path / "b.py").write_text("from a import Box\n")
    assert set(unused_names(tmp_path, set())) == {
        "a.py:2 UNUSED", "a.py:5 recursive", "a.py:10 size"}
    assert unused_names(tmp_path, {"UNUSED", "recursive", "size"}) == []
