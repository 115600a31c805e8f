"""Every public top-level name of the package has a reader in the package,
and every defaulted parameter takes more than one value in the package.

A name counts as read when some other place in `src/` (the package's
`__init__.py` re-exports aside) refers to it.  A use inside the name's own
definition does not count, and neither does a mention in the tests, the
README or `bench/`: a public name that only they read is a second path
that the program does not run.
"""

from __future__ import annotations

import ast
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
    unread = []
    for mod, tree in modules.items():
        for i, node in enumerate(tree.body):
            for name in _top_level_names(node):
                if name.startswith("_"):
                    continue
                if not any(name in names for key, names in reads.items() if key != (mod, i)):
                    unread.append(f"{mod}.{name}")
    return unread


def test_every_public_name_has_a_reader_outside_the_tests():
    assert _unread_public_names() == []


def _defaulted_params(
    func: ast.FunctionDef | ast.AsyncFunctionDef, bound: bool
) -> dict[str, int | None]:
    """Each parameter of `func` that has a default -> its index among the
    positional arguments of a call (None for a keyword-only one)."""
    args = func.args
    positional = [a.arg for a in args.posonlyargs + args.args][int(bound):]
    params: dict[str, int | None] = {
        name: i for i, name in enumerate(positional) if i >= len(positional) - len(args.defaults)
    }
    params.update((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return params


def _passed(call: ast.Call, name: str, index: int | None) -> str | None:
    """The literal a call passes for a parameter, as its `ast.dump`; None when
    the call leaves the default, passes a non-literal, or unpacks arguments."""
    for kw in call.keywords:
        if kw.arg == name:
            return _literal(kw.value)
    if index is not None:
        before = call.args[: index + 1]
        if any(isinstance(a, ast.Starred) for a in before):
            return None
        if index < len(call.args):
            return _literal(call.args[index])
    return None


def _literal(node: ast.expr) -> str | None:
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):  # not a literal, or e.g. an unhashable set item
        return None
    return ast.dump(node)


def _one_value_params() -> list[str]:
    """Each defaulted parameter that every call in the package passes as one
    and the same literal.  A call is matched to a definition by the name it
    calls, so it counts for every function or method of that name."""
    defs: list[tuple[str, str, dict[str, int | None]]] = []  # (called as, label, params)
    calls: dict[str | None, list[ast.Call]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(item): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for item in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls = owner.get(id(node))
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                params = _defaulted_params(node, bound=cls is not None and not static)
                label = f"{path.stem}.{cls.name}.{node.name}" if cls else f"{path.stem}.{node.name}"
                defs.append((node.name, label, params))
                if cls is not None and node.name == "__init__":
                    defs.append((cls.name, label, params))
    flagged = []
    for called, label, params in defs:
        for param, index in params.items():
            passed = {_passed(call, param, index) for call in calls.get(called, [])}
            if len(passed) == 1 and None not in passed:
                flagged.append(f"{label}.{param}")
    return flagged


def test_no_defaulted_parameter_takes_one_value_in_every_call():
    # A parameter that every call in the package sets to the same literal is
    # a mode that nothing selects: its other branch runs only in tests.
    assert _one_value_params() == []
