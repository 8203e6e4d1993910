"""The public surface: every public function, class, method and property
of the package is used by the package itself, so no name exists only for
tests or for nobody."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "etale_quadrics"
# the README documents the parse_presentation / format_presentation round trip
ALLOWED = {"format_presentation"}


def public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (
                    sub
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                )


def test_every_public_name_is_used_in_the_package():
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    lines = [
        (path, number, line)
        for path, text in sources.items()
        for number, line in enumerate(text.splitlines(), 1)
    ]
    defined, unused = set(), []
    for path, text in sources.items():
        for node in public_definitions(ast.parse(text)):
            defined.add(node.name)
            word = re.compile(rf"\b{node.name}\b")
            own_line = (path, node.lineno)
            used = any(word.search(line) for p, n, line in lines if (p, n) != own_line)
            if not used and node.name not in ALLOWED:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
    assert ALLOWED <= defined
