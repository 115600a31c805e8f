"""Offline GUI trajectory records: loading, validation, and normalization.

A trajectory is an instruction plus ordered ground-truth steps.  Screens are
opaque string references; the harness never inspects pixels.  All spatial
values are stored relative in [0, 1] with 6-decimal canonical rounding so
that save -> load round-trips are bit-exact.  A coordinate's space is its
magnitude: one with a component > 1.0 is raw pixels (`ActionRecord.in_pixels`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import DataError
from .records import (
    coordinate_pair,
    json_value,
    member,
    number,
    numbers,
    read_records,
    unique_trajectories,
)

COORD_DECIMALS = 6


class ActionKind(str, Enum):
    CLICK = "click"
    LONG_PRESS = "long_press"
    SCROLL = "scroll"
    INPUT_TEXT = "input_text"
    NAVIGATE_BACK = "navigate_back"
    OPEN_APP = "open_app"
    WAIT = "wait"


class ScrollDirection(str, Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"


# Each enum's one {value: member} table, which every reader looks tokens up in.
ACTION_KINDS = {k.value: k for k in ActionKind}
SCROLL_DIRECTIONS = {d.value: d for d in ScrollDirection}

SPATIAL_KINDS = frozenset({ActionKind.CLICK, ActionKind.LONG_PRESS})
TEXT_KINDS = frozenset({ActionKind.INPUT_TEXT, ActionKind.OPEN_APP})
# The parameters of an action in check order, with the kinds that carry
# each, and per kind which of them it carries.
_PARAMS = {"coordinate": "spatial", "direction": "scroll", "text": "textual", "seconds": "wait"}
_SHAPES = {
    k: (k in SPATIAL_KINDS, k is ActionKind.SCROLL, k in TEXT_KINDS, k is ActionKind.WAIT)
    for k in ActionKind
}


def round_coord(value: float) -> float:
    return round(float(value), COORD_DECIMALS)


@dataclass(slots=True)
class ActionRecord:
    """A single executable GUI action.

    Exactly the parameters demanded by `kind` are present; all others are
    None, and every number is finite.  A coordinate is relative [0, 1]
    unless `in_pixels`: raw pixels of agent or dataset input that
    `normalize_action` has not yet converted.
    """

    kind: ActionKind
    coordinate: tuple[float, float] | None = None
    direction: ScrollDirection | None = None
    text: str | None = None
    seconds: float | None = None

    def __post_init__(self) -> None:
        k, coord, text, secs = self.kind, self.coordinate, self.text, self.seconds
        shape = (coord is not None, self.direction is not None, text is not None, secs is not None)
        if shape != _SHAPES[k]:
            name, kinds = next(p for p, w, h in zip(_PARAMS.items(), _SHAPES[k], shape) if w != h)
            raise DataError(f"{k.value}: invalid {name} (required iff {kinds})")
        if text is not None and not text:
            raise DataError(f"{k.value}: invalid text (must be non-empty)")
        if secs is not None:
            if secs < 0:
                raise DataError(f"{k.value}: invalid seconds (must be >= 0)")
            if not math.isfinite(secs):
                raise DataError(f"{k.value}: invalid seconds (must be finite)")
        if coord is not None:
            x, y = coord
            if x < 0 or y < 0:
                raise DataError(f"negative coordinate {(x, y)}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DataError(f"{k.value}: invalid coordinate (({x}, {y}) is not finite)")

    def in_pixels(self) -> bool:
        """True when the coordinate has a component > 1.0, so is raw pixels."""
        c = self.coordinate
        return c is not None and (c[0] > 1.0 or c[1] > 1.0)

    def is_spatial(self) -> bool:
        return self.kind in SPATIAL_KINDS

    def is_textual(self) -> bool:
        return self.kind in TEXT_KINDS


def check_box_and_dims(
    subject: str, box_field: str, bbox: Sequence[float] | None, dims: Sequence[int] | None
) -> None:
    """The one rule for the target box and screen size of a step, sample or
    case: `dims` is a positive (width, height) and `bbox` a relative
    (x0, y0, x1, y1) with 0 <= x0 < x1 <= 1 and 0 <= y0 < y1 <= 1."""
    if dims is not None and not (len(dims) == 2 and dims[0] > 0 and dims[1] > 0):
        raise DataError(f"{subject}: invalid screen_dims ({dims} is not a positive size)")
    if bbox is not None and not (
        len(bbox) == 4 and 0 <= bbox[0] < bbox[2] <= 1 and 0 <= bbox[1] < bbox[3] <= 1
    ):
        raise DataError(f"{subject}: invalid {box_field} (bad box {bbox})")


@dataclass(slots=True)
class StepRecord:
    """One ground-truth step: pre-action screen, action, and reference effect."""

    index: int
    screen_ref: str
    gt_action: ActionRecord
    reference_effect: str
    screen_dims: tuple[int, int] | None = None
    gt_bbox: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise DataError("step: invalid index (must be >= 0)")
        if not self.screen_ref:
            raise DataError("step: invalid screen_ref (must be non-empty)")
        if not self.reference_effect.strip():  # a turn's effect is read stripped
            raise DataError("step: invalid reference_effect (must be non-empty)")
        check_box_and_dims("step", "gt_bbox", self.gt_bbox, self.screen_dims)


@dataclass(slots=True)
class TrajectoryRecord:
    id: str
    instruction: str
    steps: tuple[StepRecord, ...]
    terminal_screen_ref: str
    allows_revisits: bool = False

    def __post_init__(self) -> None:
        if not self.steps:
            raise DataError(f"{self.id}: invalid steps (must be non-empty)")
        for t, step in enumerate(self.steps):
            if step.index != t:
                raise DataError(
                    f"{self.id}: invalid steps "
                    f"(index {step.index} at position {t}; want contiguous 0..T-1)"
                )
        if not self.allows_revisits:
            refs = [s.screen_ref for s in self.steps] + [self.terminal_screen_ref]
            if len(set(refs)) != len(refs):
                raise DataError(
                    f"{self.id}: invalid screen_ref (repeated screen without allows_revisits flag)"
                )

    def __len__(self) -> int:
        return len(self.steps)


def normalize_action(action: ActionRecord, dims: tuple[int, int] | None = None) -> ActionRecord:
    """Convert a pixel coordinate to relative [0,1] space.

    An action that is not `in_pixels` is returned unchanged.  Conversion
    requires `dims` and rounds to the canonical 6 decimals.

    Raises DataError when no dims are supplied, or when the converted
    coordinate falls outside [0,1].
    """
    if not action.in_pixels():
        return action
    if dims is None:
        raise DataError(f"{action.kind.value}: absolute coordinates without screen_dims")
    x, y = action.coordinate  # type: ignore[misc]
    w, h = dims
    rel = (round(x / w, COORD_DECIMALS), round(y / h, COORD_DECIMALS))
    if rel[0] > 1 or rel[1] > 1:
        raise DataError(
            f"{action.kind.value}: invalid coordinate "
            f"(({rel[0]}, {rel[1]}) outside [0,1] after conversion)"
        )
    return ActionRecord(action.kind, rel)  # only a spatial kind holds a coordinate


# -- JSON (dataset form: "kind" discriminator, ActionRecord field names) ----


def action_line(action: ActionRecord) -> str:
    """The dataset form of `action` as `json.dumps(obj, separators=(",", ":"))`
    writes it, with no dict: the one writer of an action's dataset form.  Its
    coordinate components are rounded as `round_coord` rounds them.  Numbers
    are finite, so each is written as its `repr`, and a text goes through
    `json`'s own ASCII escaper."""
    head = '{"kind":"' + action.kind._value_
    if action.coordinate is not None:
        x, y = action.coordinate
        x, y = round(x, COORD_DECIMALS), round(y, COORD_DECIMALS)
        return f'{head}","coordinate":[{x!r},{y!r}]}}'
    if action.direction is not None:
        return f'{head}","direction":"{action.direction._value_}"}}'
    if action.text is not None:
        return f'{head}","text":{_json_str(action.text)}}}'
    if action.seconds is not None:
        return f'{head}","seconds":{action.seconds!r}}}'
    return head + '"}'


_ACTION_FIELDS = frozenset({"kind", *_PARAMS})


def action_from_json(obj: Mapping[str, Any]) -> ActionRecord:
    """A dataset-form action; its values obey the turn parser's rules.  A
    null parameter is an absent one, and each present one is checked, in
    the order text, coordinate, seconds, direction, before `ActionRecord`
    checks that `kind` carries exactly these."""
    if type(obj) is not dict and not isinstance(obj, Mapping):
        raise DataError("action: invalid object (must be a JSON object)")
    if not obj.keys() <= _ACTION_FIELDS:
        unknown = set(obj) - _ACTION_FIELDS
        raise DataError(f"action: invalid fields (unknown keys {sorted(unknown)})")
    try:
        kind = member(ACTION_KINDS, obj["kind"], ActionKind)
    except (KeyError, ValueError) as exc:
        raise DataError(f"action: invalid kind ({exc})") from exc
    coord, direction, text, raw_seconds = map(obj.get, _PARAMS)
    if text is not None:
        json_value(obj, "text", str, "action")
    coordinate = None
    if coord is not None and (coordinate := coordinate_pair(coord)) is None:
        raise DataError(f"action: invalid coordinate (must be [x, y] numbers, got {coord!r})")
    seconds = None
    if raw_seconds is not None and (seconds := number(raw_seconds)) is None:
        raise DataError(f"action: invalid seconds (must be a number, got {raw_seconds!r})")
    if direction is not None:
        direction = member(SCROLL_DIRECTIONS, direction, ScrollDirection)
    return ActionRecord(kind, coordinate, direction, text, seconds)


def _step_line(step: StepRecord) -> str:
    dims, box = step.screen_dims, step.gt_bbox
    dims_key = "" if dims is None else f'"screen_dims":[{dims[0]!r},{dims[1]!r}],'
    box_key = "" if box is None else f'"gt_bbox":[{",".join(map(repr, rounded_box(box)))}],'
    return (
        f'{{"index":{step.index!r},"screen_ref":{_json_str(step.screen_ref)},{dims_key}'
        f'"gt_action":{action_line(step.gt_action)},{box_key}'
        f'"reference_effect":{_json_str(step.reference_effect)}}}'
    )


def trajectory_line(traj: TrajectoryRecord) -> str:
    """A dataset line, written as `action_line` writes an action."""
    revisits = '"allows_revisits":true,' if traj.allows_revisits else ""
    return (
        f'{{"id":{_json_str(traj.id)},"instruction":{_json_str(traj.instruction)},'
        f'"terminal_screen_ref":{_json_str(traj.terminal_screen_ref)},{revisits}'
        f'"steps":[{",".join(map(_step_line, traj.steps))}]}}'
    )


def rounded_box(bbox: Sequence[float]) -> list[float]:
    """A box of floats as written: each component rounded as `round_coord` does."""
    return [round(v, COORD_DECIMALS) for v in bbox]


def bbox_from_json(
    obj: Mapping[str, Any], key: str, dims: tuple[int, int] | None, subject: str
) -> tuple[float, float, float, float] | None:
    """The box at `key` of a step, sample or case line, or None: four JSON
    numbers, a pixel box (a component > 1.0) scaled by `dims`, 6 decimals."""
    if obj.get(key) is None:
        return None
    raw = json_value(obj, key, list, subject)
    if len(raw) != 4:
        raise DataError(f"{subject}: invalid {key} (must have 4 components)")
    vals = numbers(raw)
    if vals is None:
        raise DataError(f"{subject}: invalid {key} (must be 4 numbers, got {raw!r})")
    x0, y0, x1, y1 = vals
    if x0 > 1.0 or y0 > 1.0 or x1 > 1.0 or y1 > 1.0:  # not max(): a NaN is no pixel
        if dims is None:
            raise DataError(f"{subject}: absolute {key} without screen_dims")
        w, h = dims
        x0, y0, x1, y1 = x0 / w, y0 / h, x1 / w, y1 / h
    return (
        round(x0, COORD_DECIMALS), round(y0, COORD_DECIMALS),
        round(x1, COORD_DECIMALS), round(y1, COORD_DECIMALS),
    )


_INT = frozenset({int})


def screen_dims_from_json(obj: Mapping[str, Any], subject: str) -> tuple[int, int] | None:
    """The checked `screen_dims` of a step, sample or case line, which its
    pixel coordinates are converted with: JSON integers within the float
    range, a positive size."""
    raw = obj.get("screen_dims")
    if raw is None:
        return None
    if not (isinstance(raw, list) and set(map(type, raw)) <= _INT):
        raise DataError(f"{subject}: invalid screen_dims (must be JSON integers, got {raw!r})")
    check_box_and_dims(subject, "screen_dims", None, raw)  # before dims scale a pixel value
    if numbers(raw) is None:  # a pixel value divided by it would overflow
        raise DataError(
            f"{subject}: invalid screen_dims ({raw!r} has a component beyond the float range)"
        )
    return (raw[0], raw[1])


def _step_from_json(obj: Mapping[str, Any], traj_id: str) -> StepRecord:
    for key in ("index", "screen_ref", "gt_action", "reference_effect"):
        if key not in obj:
            raise DataError(f"{traj_id}: invalid {key} (missing step field)")
    index = json_value(obj, "index", int, traj_id)
    subject = f"{traj_id}[{index}]"
    dims = screen_dims_from_json(obj, subject)
    return StepRecord(
        index=index,
        screen_ref=json_value(obj, "screen_ref", str, subject),
        gt_action=normalize_action(action_from_json(obj["gt_action"]), dims),
        reference_effect=json_value(obj, "reference_effect", str, subject),
        screen_dims=dims,
        gt_bbox=bbox_from_json(obj, "gt_bbox", dims, subject),
    )


def trajectory_from_json(obj: Mapping[str, Any]) -> TrajectoryRecord:
    for key in ("id", "instruction", "terminal_screen_ref", "steps"):
        if key not in obj:
            raise DataError(f"{obj.get('id', '?')}: invalid {key} (missing field)")
    traj_id = json_value(obj, "id", str, "trajectory")
    revisits = "allows_revisits" in obj and json_value(obj, "allows_revisits", bool, traj_id)
    return TrajectoryRecord(
        id=traj_id,
        instruction=json_value(obj, "instruction", str, traj_id),
        steps=tuple(_step_from_json(s, traj_id) for s in json_value(obj, "steps", list, traj_id)),
        terminal_screen_ref=json_value(obj, "terminal_screen_ref", str, traj_id),
        allows_revisits=revisits,
    )


def load_dataset(
    path: str | Path, limit: int | None = None, skip_invalid: bool = False
) -> list[TrajectoryRecord]:
    """Load trajectories from a JSONL file, one object per line.

    Absolute pixel coordinates are converted to relative form via per-step
    screen_dims.  Validation is fail-fast; a repeated id is a bad line.  With
    `skip_invalid` offending lines are logged and dropped instead.
    """
    parse = unique_trajectories(trajectory_from_json, "id")
    return read_records(path, parse, "trajectory", limit=limit, skip_invalid=skip_invalid)


def describe_action(action: ActionRecord) -> str:
    """Short human-readable rendering, used in synthesized effect text."""
    k = action.kind
    if k in SPATIAL_KINDS:
        x, y = action.coordinate  # type: ignore[misc]
        return f"{k._value_} at ({x:g}, {y:g})"
    if k is ActionKind.SCROLL:
        return f"scroll {action.direction._value_}"  # type: ignore[union-attr]
    if k in TEXT_KINDS:
        return f"{k._value_} '{action.text}'"
    if k is ActionKind.WAIT:
        return f"wait {action.seconds:g}s"
    return k._value_
