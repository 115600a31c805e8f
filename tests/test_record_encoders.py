"""One encoder per record form.

Every JSONL record (dataset, sample, case, case result, trace and reward
lines) and every wire body is written as text in one pass by its own
writer, checked against `json.dumps` of a reference dict in
`test_record_equivalence.py`.  So `json`'s generic encoder is used in the
source only where no such writer exists:

- the three indented documents: the manifest, `objective.json` and the
  JSON report;
- the escape of an action text in a turn's <action> block.

A second, generic record encoder would show up here as a new site.
"""

from __future__ import annotations

import ast

from test_record_stores import _function_name, _modules, _parents

ENCODERS = {"dump", "dumps", "JSONEncoder"}
ENCODER_SITES = {
    ("cli", "_write_manifest", "json.dumps"),
    ("cli", "cmd_score", "json.dumps"),  # objective.json
    ("metric_suite", "emit_report", "json.dumps"),
    ("tvae_codec", "emit_action_json", "json.dumps"),
}


def test_json_encoders_are_used_only_at_the_listed_sites():
    sites = set()
    for mod, tree in _modules().items():
        parent = _parents(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ENCODERS:  # any module alias
                sites.add((mod, _function_name(node, parent), ast.unparse(node)))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("json"):
                for alias in node.names:  # an encoder imported under any name
                    if alias.name in ENCODERS or alias.name.endswith("make_encoder"):
                        sites.add((mod, "<import>", alias.name))
    assert sites == ENCODER_SITES
