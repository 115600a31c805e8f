"""The exit-code contract in the source: one error class per exit code, and
no catch-all that turns a harness bug into a result.

`DataError` exits 1 and `AgentError` exits 2; any other exception is a bug
and exits 3 through the one boundary handler in `cli.main`.  A handler for
`Exception`, `BaseException` or everything (a bare `except:`) anywhere else
must re-raise what it caught.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tvae_harness"
CATCH_ALL = {"Exception", "BaseException"}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _caught_names(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return {"BaseException"}  # a bare `except:`
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id for t in types if isinstance(t, ast.Name)}


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True if the handler's body has a bare `raise` or raises the caught name."""
    return any(
        isinstance(node, ast.Raise)
        and (
            node.exc is None
            or (isinstance(node.exc, ast.Name) and node.exc.id == handler.name)
        )
        for stmt in handler.body
        for node in ast.walk(stmt)
    )


def _catch_alls() -> list[tuple[str, str, int, bool]]:
    """(module, enclosing function, line, re-raises) of every catch-all handler."""
    found = []
    for mod, tree in _modules().items():
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and _caught_names(node) & CATCH_ALL:
                func = parent.get(node)
                while func is not None and not isinstance(func, ast.FunctionDef):
                    func = parent.get(func)
                name = func.name if func is not None else "<module>"
                found.append((mod, name, node.lineno, _reraises(node)))
    return found


def test_only_the_cli_boundary_swallows_every_exception():
    swallowing = [(mod, func, line) for mod, func, line, reraises in _catch_alls() if not reraises]
    assert [(mod, func) for mod, func, _ in swallowing] == [("cli", "main")], swallowing


def test_errors_module_defines_the_only_exception_classes():
    defined = {
        (mod, node.name)
        for mod, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(base, ast.Name) and (base.id in CATCH_ALL or base.id.endswith("Error"))
            for base in node.bases
        )
    }
    assert defined == {("errors", "DataError"), ("errors", "AgentError")}
