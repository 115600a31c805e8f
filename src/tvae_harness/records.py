"""The one reader and writer of JSONL record files: one JSON object per
line, blank lines ignored, and any other bad line a `DataError` that names
it (so a bad input file exits 1, never 3).  It also decides each record
value's JSON type: a value is checked, never coerced (a boolean is not an
integer or a number, and a number is not a string).

A reader checks a list of values in bulk and a record once, with built-ins
that loop in C (`numbers`, `map`, a set of types, a `{value: member}` table
per enum), not with one Python call per value.  Every check and every error
message is the one the per-value rule gives."""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import DataError

_E = TypeVar("_E", bound=Enum)

# What a record parser raises on a wrongly shaped JSON object (OverflowError:
# a number beyond the float range).
PARSE_ERRORS = (KeyError, ValueError, TypeError, IndexError, AttributeError, OverflowError)
_NAMES = {str: "string", int: "integer", bool: "boolean", list: "list"}
_FLOAT = frozenset({float})
_NUMBER = frozenset({int, float})


def json_value(obj: Mapping[str, Any], key: str, kind: type, subject: str) -> Any:
    """`obj[key]` when its type is exactly `kind`, else a `DataError`."""
    value = obj[key]
    if type(value) is not kind:
        raise DataError(f"{subject}: invalid {key} (must be a JSON {_NAMES[kind]}, got {value!r})")
    return value


def number(raw: Any) -> float | None:
    """`raw` as a float if it is a JSON number within the float range, else
    None.  A non-finite float passes: a reader that needs a finite one checks."""
    if type(raw) not in (int, float):  # a JSON boolean is not a number
        return None
    try:
        return float(raw)
    except OverflowError:  # an integer beyond the float range
        return None


def numbers(raw: Sequence[Any]) -> tuple[float, ...] | None:
    """Each item of `raw` as a float if every one is a JSON number within the
    float range, else None: `number` of each, checked once per list."""
    types = set(map(type, raw))
    if types <= _FLOAT:
        return tuple(raw)
    if not types <= _NUMBER:  # a JSON boolean is not a number
        return None
    try:
        return tuple(map(float, raw))
    except OverflowError:  # an integer beyond the float range
        return None


def coordinate_pair(raw: Any) -> tuple[float, float] | None:
    """`raw` as an (x, y) if it is a list of two `number`s, else None."""
    return numbers(raw) if isinstance(raw, (list, tuple)) and len(raw) == 2 else None


def member(table: Mapping[Any, _E], raw: Any, enum: type[_E]) -> _E:
    """`table[raw]`, where `table` maps each value of `enum` to its member; on
    a miss, the ValueError `enum(raw)` raises (an unhashable `raw` too)."""
    try:
        return table[raw]
    except (KeyError, TypeError):
        raise ValueError(f"{raw!r} is not a valid {enum.__qualname__}") from None


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


def unique_trajectories(parse: Callable[[dict[str, Any]], Any], key: str) -> Callable[..., Any]:
    """`parse` for `read_records`, where a line whose trajectory id (its
    `key`, which `parse` checked) an earlier line had is a bad line."""
    seen: set[str] = set()

    def parse_unique(obj: dict[str, Any]) -> Any:
        record = parse(obj)
        if obj[key] in seen:
            raise ValueError(f"duplicate trajectory id {obj[key]!r}")
        seen.add(obj[key])
        return record

    return parse_unique


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each of `lines`, a compact JSON object, and a newline after it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
