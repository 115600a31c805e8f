"""Records are value objects: built once, never assigned to.

Every record is a `@dataclass(slots=True)`, not `frozen=True`: a frozen
dataclass sets each field through `object.__setattr__`, which made every
record 2-3x dearer to build, about 15 of them per white-box turn.
Immutability is checked here in the source instead.  A record has no `__dict__`, so a store to a
misspelt attribute still raises, but a store to a field would not, so:

- every `@dataclass` is written `@dataclass(slots=True)`;
- the only attribute stores are `self.<name>` in a method of a class that is
  not a dataclass (the agent handles and the HTTP pool), plus the one listed
  in `OTHER_STORES`;
- no code calls `setattr`, `delattr` or `__setattr__`/`__delattr__`.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tvae_harness"

# (module, function, target) of every attribute store that is not `self.<name>`.
OTHER_STORES = {
    ("records", "read_records", "exc.args"),  # the message gains the line number
}
SETATTR_NAMES = {"setattr", "delattr", "__setattr__", "__delattr__"}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _is_dataclass_decorator(node: ast.expr) -> bool:
    func = node.func if isinstance(node, ast.Call) else node
    return (isinstance(func, ast.Name) and func.id == "dataclass") or (
        isinstance(func, ast.Attribute) and func.attr == "dataclass"
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_is_dataclass_decorator(d) for d in node.decorator_list)


def _parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _enclosing_function(node: ast.AST, parent: dict[ast.AST, ast.AST]) -> ast.AST | None:
    node = parent.get(node)
    while node is not None and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        node = parent.get(node)
    return node


def _is_self_store_in_method(target: ast.Attribute, parent: dict[ast.AST, ast.AST]) -> bool:
    """`self.<name>` whose nearest function is a method of a non-dataclass class."""
    func = _enclosing_function(target, parent)
    if func is None or not isinstance(target.value, ast.Name) or target.value.id != "self":
        return False
    owner = parent.get(func)
    params = func.args.posonlyargs + func.args.args
    return (
        isinstance(owner, ast.ClassDef)
        and not _is_dataclass(owner)
        and bool(params)
        and params[0].arg == "self"
    )


def _function_name(node: ast.AST, parent: dict[ast.AST, ast.AST]) -> str:
    func = _enclosing_function(node, parent)
    return func.name if func is not None else "<module>"


def test_every_dataclass_is_slotted_and_not_frozen():
    bad = [
        (mod, node.name, ast.unparse(dec))
        for mod, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for dec in node.decorator_list
        if _is_dataclass_decorator(dec) and ast.unparse(dec) != "dataclass(slots=True)"
    ]
    assert bad == []


def test_no_attribute_store_outside_self_of_a_plain_class():
    """Every kind of store: `=`, `+=`, annotated, `del`, and tuple, `for` and
    `with` targets all give the attribute a `Store` or `Del` context."""
    stores = set()
    for mod, tree in _modules().items():
        parent = _parents(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and not _is_self_store_in_method(node, parent)
            ):
                stores.add((mod, _function_name(node, parent), ast.unparse(node)))
    assert stores == OTHER_STORES


def test_no_setattr_calls():
    calls = set()
    for mod, tree in _modules().items():
        parent = _parents(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in SETATTR_NAMES:
                calls.add((mod, _function_name(node, parent), ast.unparse(node)))
    assert calls == set()
