"""Offline GUI trajectory records: loading, validation, and normalization.

A trajectory is an instruction plus ordered ground-truth steps.  Screens are
opaque string references; the harness never inspects pixels.  All spatial
values are stored relative in [0, 1] with 6-decimal canonical rounding so
that save -> load round-trips are bit-exact.  A coordinate's space is its
magnitude: one with a component > 1.0 is raw pixels (`ActionRecord.in_pixels`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .errors import DataError
from .records import coordinate_pair, json_value, number, read_records, write_records

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
        if not self.reference_effect:
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
    rel = (round_coord(x / w), round_coord(y / h))
    if rel[0] > 1 or rel[1] > 1:
        raise DataError(
            f"{action.kind.value}: invalid coordinate "
            f"(({rel[0]}, {rel[1]}) outside [0,1] after conversion)"
        )
    return replace(action, coordinate=rel)


# -- JSON (dataset form: "kind" discriminator, ActionRecord field names) ----


def action_to_json(action: ActionRecord) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": action.kind.value}
    if action.coordinate is not None:
        out["coordinate"] = [round_coord(action.coordinate[0]), round_coord(action.coordinate[1])]
    if action.direction is not None:
        out["direction"] = action.direction.value
    if action.text is not None:
        out["text"] = action.text
    if action.seconds is not None:
        out["seconds"] = action.seconds
    return out


_ACTION_FIELDS = {"kind", "coordinate", "direction", "text", "seconds"}


def action_from_json(obj: Mapping[str, Any]) -> ActionRecord:
    """A dataset-form action; its values obey the turn parser's rules."""
    if not isinstance(obj, Mapping):
        raise DataError("action: invalid object (must be a JSON object)")
    unknown = set(obj) - _ACTION_FIELDS
    if unknown:
        raise DataError(f"action: invalid fields (unknown keys {sorted(unknown)})")
    try:
        kind = ActionKind(obj["kind"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"action: invalid kind ({exc})") from exc
    coord, direction = obj.get("coordinate"), obj.get("direction")
    text = json_value(obj, "text", str, "action") if obj.get("text") is not None else None
    raw_seconds = obj.get("seconds")
    coordinate = coordinate_pair(coord)
    if coord is not None and coordinate is None:
        raise DataError(f"action: invalid coordinate (must be [x, y] numbers, got {coord!r})")
    seconds = number(raw_seconds)
    if raw_seconds is not None and seconds is None:
        raise DataError(f"action: invalid seconds (must be a number, got {raw_seconds!r})")
    return ActionRecord(
        kind=kind,
        coordinate=coordinate,
        direction=ScrollDirection(direction) if direction is not None else None,
        text=text,
        seconds=seconds,
    )


def step_to_json(step: StepRecord) -> dict[str, Any]:
    out: dict[str, Any] = {"index": step.index, "screen_ref": step.screen_ref}
    if step.screen_dims is not None:
        out["screen_dims"] = list(step.screen_dims)
    out["gt_action"] = action_to_json(step.gt_action)
    if step.gt_bbox is not None:
        out["gt_bbox"] = [round_coord(v) for v in step.gt_bbox]
    out["reference_effect"] = step.reference_effect
    return out


def trajectory_to_json(traj: TrajectoryRecord) -> dict[str, Any]:
    out: dict[str, Any] = {
        "id": traj.id,
        "instruction": traj.instruction,
        "terminal_screen_ref": traj.terminal_screen_ref,
    }
    if traj.allows_revisits:
        out["allows_revisits"] = True
    out["steps"] = [step_to_json(s) for s in traj.steps]
    return out


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
    vals = [number(v) for v in raw]
    if None in vals:
        raise DataError(f"{subject}: invalid {key} (must be 4 numbers, got {raw!r})")
    if any(v > 1.0 for v in vals):
        if dims is None:
            raise DataError(f"{subject}: absolute {key} without screen_dims")
        w, h = dims
        vals = [vals[0] / w, vals[1] / h, vals[2] / w, vals[3] / h]
    return (round_coord(vals[0]), round_coord(vals[1]), round_coord(vals[2]), round_coord(vals[3]))


def screen_dims_from_json(obj: Mapping[str, Any], subject: str) -> tuple[int, int] | None:
    """The checked `screen_dims` of a step, sample or case line, which its
    pixel coordinates are converted with: JSON integers, a positive size."""
    raw = obj.get("screen_dims")
    if raw is not None and not (isinstance(raw, list) and all(type(v) is int for v in raw)):
        raise DataError(f"{subject}: invalid screen_dims (must be JSON integers, got {raw!r})")
    check_box_and_dims(subject, "screen_dims", None, raw)  # before dims scale a pixel value
    return None if raw is None else (raw[0], raw[1])


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
    seen: set[str] = set()

    def parse(obj: Mapping[str, Any]) -> TrajectoryRecord:
        traj = trajectory_from_json(obj)
        if traj.id in seen:
            raise ValueError(f"duplicate trajectory id {traj.id!r}")
        seen.add(traj.id)
        return traj

    return read_records(path, parse, "trajectory", limit=limit, skip_invalid=skip_invalid)


def save_dataset(trajs: Iterable[TrajectoryRecord], path: str | Path) -> None:
    """Write trajectories as canonical JSONL (compact, fixed key order)."""
    write_records(path, (trajectory_to_json(t) for t in trajs))


def describe_action(action: ActionRecord) -> str:
    """Short human-readable rendering, used in synthesized effect text."""
    k = action.kind
    if k in SPATIAL_KINDS:
        x, y = action.coordinate  # type: ignore[misc]
        return f"{k.value} at ({x:g}, {y:g})"
    if k is ActionKind.SCROLL:
        return f"scroll {action.direction.value}"  # type: ignore[union-attr]
    if k in TEXT_KINDS:
        return f"{k.value} '{action.text}'"
    if k is ActionKind.WAIT:
        return f"wait {action.seconds:g}s"
    return k.value
