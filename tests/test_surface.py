"""The public surface: every public function, class, method and property
of the package is used by the package itself, so no name exists only for
tests or for nobody."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "etale_quadrics"


def trees():
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def public_definitions(tree):
    """(name, line, owning class or None) of each public top-level function
    and class, and of each public method or property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, None
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield sub.name, sub.lineno, node.name


def registered(node):
    """Whether a def is decorated by verify's check registry, `@_check(...)`."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_check" for d in node.decorator_list
    )


def test_every_public_name_is_used_in_the_package():
    """A method or property counts as used only where package code reads it
    as an attribute (`.name`); a function or class also where code names or
    imports it, or registers it: a def decorated by verify's check registry
    is used by `run_checks`, which reads the registry.  Words in docstrings
    and comments do not count."""
    attributes, names = set(), set()
    for tree in trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif registered(node):
                names.add(node.name)
    unused = []
    for path, tree in trees().items():
        for name, line, owner in public_definitions(tree):
            used = name in attributes or (owner is None and name in names)
            if not used:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []


def test_no_two_classes_share_a_public_method_name():
    """Attribute reads cannot tell two classes' methods of one name apart,
    so a shared name would let one hide that the other is unused."""
    owners = defaultdict(list)
    for path, tree in trees().items():
        for name, line, owner in public_definitions(tree):
            if owner is not None:
                owners[name].append(f"{path.name}:{line} {owner}")
    assert {name: where for name, where in owners.items() if len(where) > 1} == {}
