"""Only the run-directory writers touch --out.

A command hands its output files to `cli._write_outputs`, which makes the
run directory and writes them, and then to `cli._write_manifest`, which
writes `manifest.json` last.  It calls them once its inputs are checked and
its agent has answered, so a bad input or a failed agent leaves no --out.
`cmd_report` writes its one --out file itself: that --out is a file, not a
run directory.  A command that made a directory or wrote a file on its own
would show up here as a new site.
"""

from __future__ import annotations

import ast

from test_record_stores import _function_name, _modules, _parents

WRITE_CALLS = {"mkdir", "makedirs", "write_lines", "_atomic_write", "write_bytes", "write_text"}
# (function, call) of every call in `cli` that makes a directory or writes a file.
WRITE_SITES = {
    ("_atomic_write", "write_bytes"),
    ("_write_outputs", "mkdir"),
    ("_write_outputs", "_atomic_write"),
    ("_write_outputs", "write_lines"),
    ("_write_manifest", "_atomic_write"),
    ("cmd_report", "_atomic_write"),
}


def test_only_the_run_writers_make_or_write_files():
    tree = _modules()["cli"]
    parent = _parents(tree)
    sites = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in WRITE_CALLS:
                sites.add((_function_name(node, parent), name))
    assert sites == WRITE_SITES
