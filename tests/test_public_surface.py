"""Every public top-level name of the package has a reader outside the tests.

A name counts as read when some other place in `src/` (the package's
`__init__.py` re-exports aside) refers to it, or when `bench/` or the README
names it.  A use inside the name's own definition does not count.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tvae_harness"


def _top_level_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def _unread_public_names() -> list[str]:
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    del modules["__init__"]
    # (module, top-level statement index) -> the names that statement reads
    reads = {
        (mod, i): _referenced(node)
        for mod, tree in modules.items()
        for i, node in enumerate(tree.body)
    }
    texts = [(ROOT / "README.md").read_text()]
    texts += [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    words = set(re.findall(r"\w+", "\n".join(texts)))
    unread = []
    for mod, tree in modules.items():
        for i, node in enumerate(tree.body):
            for name in _top_level_names(node):
                if name.startswith("_") or name in words:
                    continue
                if not any(name in names for key, names in reads.items() if key != (mod, i)):
                    unread.append(f"{mod}.{name}")
    return unread


def test_every_public_name_has_a_reader_outside_the_tests():
    assert _unread_public_names() == []
