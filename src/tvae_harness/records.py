"""The one reader and writer of JSONL record files: one JSON object per
line, blank lines ignored, and any other bad line a `DataError` that names
it (so a bad input file exits 1, never 3)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .errors import DataError

# What a record parser raises on a wrongly shaped JSON object.
PARSE_ERRORS = (KeyError, ValueError, TypeError, IndexError, AttributeError)


def read_records(
    path: str | Path,
    parse: Callable[[dict[str, Any]], Any],
    what: str,
    limit: int | None = None,
    skip_invalid: bool = False,
) -> list[Any]:
    """Parse each non-blank line of `path` into a record with `parse`.

    A line that is not UTF-8 JSON, not an object, or that `parse` rejects
    with one of `PARSE_ERRORS` or a `DataError` raises a `DataError` whose
    message starts with `line N: `.  With
    `skip_invalid` bad lines are logged and dropped instead.  `limit` caps
    the number of records kept.
    """
    records: list[Any] = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            if limit is not None and len(records) >= limit:
                break
            if not line.strip():
                continue
            try:
                try:
                    obj = json.loads(line.decode("utf-8"))
                except ValueError as exc:
                    raise DataError(f"invalid JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise DataError("line is not a JSON object")
                try:
                    records.append(parse(obj))
                except PARSE_ERRORS as exc:
                    raise DataError(f"bad {what}: {exc!r}") from exc
            except DataError as exc:
                exc.args = (f"line {line_no}: {exc}",)
                if not skip_invalid:
                    raise
                import logging  # loaded only once a line is dropped

                logging.getLogger(__name__).warning(
                    "dropping invalid %s from %s: %s", what, path, exc
                )
    return records


def write_records(path: str | Path, objs: Iterable[Mapping[str, Any]]) -> None:
    """Write one compact JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
