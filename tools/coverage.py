"""Line coverage of `src/` under the tier-1 suite, run in this process.

    python3 tools/coverage.py [--check]

Runs `pytest` on `tests/` under `sys.settrace` and `threading.settrace`,
since the runners execute turns on pool threads.  The executable lines of
each `src/` module are the lines of its compiled code objects (`co_lines`).
A line that only a subprocess reaches counts as missed.

`COVERAGE.json` at the repository root lists every line that never ran, in
file and line order: its path, number and text, and the argument that keeps
it.  A rerun carries an argument over to the line with the same file and
text when that pair names one line in both the old listing and the new; a
repeated text gets no argument, so that a new line never inherits one.
Without `--check` the file is rewritten.  With `--check` it is left alone,
and the exit status is 1 when an unreached line has no argument or the file
lists other lines than the run found.  Either way the status is pytest's
when the suite fails, and 2 on any other argument.

Standard library and pytest only; the traced run takes a few minutes, so it
is not part of tier-1.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPORT = ROOT / "COVERAGE.json"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some instruction of `path`'s code belongs to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None and line > 0)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def trace_suite() -> tuple[int, dict[str, set[int]]]:
    """Run pytest on `tests/`; its exit status and the lines that ran in each
    `src/` file, keyed by absolute path."""
    import pytest

    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def tracer_for(filename: str):
        seen = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        local = tracers.get(filename)
        if local is None:
            local = tracers[filename] = tracer_for(filename)
        return local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    return int(status), ran


def unreached(ran: dict[str, set[int]]) -> list[dict[str, object]]:
    """Every executable line of `src/` that did not run, in file and line order."""
    report = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            report.append({
                "file": path.relative_to(ROOT).as_posix(),
                "line": line,
                "text": text[line - 1].strip(),
            })
    return report


def carried_arguments(old: list[dict], report: list[dict]) -> dict[tuple[str, str], str]:
    """The old arguments keyed by (file, text), for keys that name exactly
    one line in `old` and one in `report`."""
    def once(entries: list[dict]) -> set[tuple[str, str]]:
        counts = Counter((e["file"], e["text"]) for e in entries)
        return {key for key, n in counts.items() if n == 1}

    unique = once(old) & once(report)
    return {
        (e["file"], e["text"]): e["argument"]
        for e in old
        if e.get("argument") and (e["file"], e["text"]) in unique
    }


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print(f"usage: python3 tools/coverage.py [--check]\ncoverage: unexpected arguments {argv}",
              file=sys.stderr)
        return 2
    check = argv == ["--check"]
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    status, ran = trace_suite()
    if status != 0:
        print(f"coverage: the suite failed (pytest exit {status}); nothing recorded")
        return status

    old = json.loads(REPORT.read_text(encoding="utf-8")) if REPORT.exists() else []
    report = unreached(ran)
    arguments = carried_arguments(old, report)
    for entry in report:
        entry["argument"] = arguments.get((entry["file"], entry["text"]))
    bare = [e for e in report if not e["argument"]]
    for e in report:
        mark = "  " if e["argument"] else "! "
        print(f"{mark}{e['file']}:{e['line']}: {e['text']}")
    print(f"coverage: {len(report)} unreached lines in src/, {len(bare)} without an argument")

    if not check:
        REPORT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        return 0
    if report != old:
        print(f"coverage: {REPORT.name} lists other lines; rerun without --check")
        return 1
    return 1 if bare else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
