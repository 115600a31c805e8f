"""Offline GUI trajectory records: loading, validation, and normalization.

A trajectory is an instruction plus ordered ground-truth steps.  Screens are
opaque string references; the harness never inspects pixels.  All spatial
values are stored relative in [0, 1] with 6-decimal canonical rounding so
that save -> load round-trips are bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .errors import DataError
from .records import read_records, write_records

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


class CoordinateSpace(str, Enum):
    RELATIVE = "relative"
    PIXEL = "pixel"


SPATIAL_KINDS = frozenset({ActionKind.CLICK, ActionKind.LONG_PRESS})
TEXT_KINDS = frozenset({ActionKind.INPUT_TEXT, ActionKind.OPEN_APP})


def round_coord(value: float) -> float:
    return round(float(value), COORD_DECIMALS)


@dataclass(frozen=True)
class ActionRecord:
    """A single executable GUI action.

    Exactly the parameters demanded by `kind` are present; all others are
    None, and every number is finite.  `coordinate_space` tracks whether
    spatial values are relative or raw pixels (agent output before
    normalization).
    """

    kind: ActionKind
    coordinate: tuple[float, float] | None = None
    direction: ScrollDirection | None = None
    text: str | None = None
    seconds: float | None = None
    coordinate_space: CoordinateSpace = CoordinateSpace.RELATIVE

    def __post_init__(self) -> None:
        k = self.kind
        want_coord = k in SPATIAL_KINDS
        want_dir = k is ActionKind.SCROLL
        want_text = k in TEXT_KINDS
        want_secs = k is ActionKind.WAIT
        if want_coord != (self.coordinate is not None):
            raise DataError(f"{k.value}: invalid coordinate (required iff spatial)")
        if want_dir != (self.direction is not None):
            raise DataError(f"{k.value}: invalid direction (required iff scroll)")
        if want_text != (self.text is not None):
            raise DataError(f"{k.value}: invalid text (required iff textual)")
        if want_secs != (self.seconds is not None):
            raise DataError(f"{k.value}: invalid seconds (required iff wait)")
        if self.text is not None and not self.text:
            raise DataError(f"{k.value}: invalid text (must be non-empty)")
        if self.seconds is not None:
            if self.seconds < 0:
                raise DataError(f"{k.value}: invalid seconds (must be >= 0)")
            if not math.isfinite(self.seconds):
                raise DataError(f"{k.value}: invalid seconds (must be finite)")
        if self.coordinate is not None:
            x, y = self.coordinate
            if x < 0 or y < 0:
                raise DataError(f"negative coordinate {(x, y)}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DataError(f"{k.value}: invalid coordinate (({x}, {y}) is not finite)")
            if self.coordinate_space is CoordinateSpace.RELATIVE and (x > 1 or y > 1):
                raise DataError(
                    f"{k.value}: invalid coordinate (({x}, {y}) outside [0,1] in relative space)"
                )

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def screen_after(self, step_index: int) -> str:
        """Screen reached once the step at `step_index` executes correctly."""
        nxt = step_index + 1
        if nxt < len(self.steps):
            return self.steps[nxt].screen_ref
        return self.terminal_screen_ref


def normalize_action(action: ActionRecord, dims: tuple[int, int] | None = None) -> ActionRecord:
    """Convert pixel coordinates to relative [0,1] space.

    Non-spatial actions and coordinates already within [0,1] pass through
    unchanged (space flag forced to relative).  Conversion requires `dims`
    and rounds to the canonical 6 decimals.

    Raises DataError when a component is < 0, when a component is > 1.0 and
    no dims are supplied, or when the converted coordinate falls outside
    [0,1].
    """
    if action.coordinate is None:
        return action
    x, y = action.coordinate
    if x < 0 or y < 0:
        raise DataError(f"negative coordinate {(x, y)}")
    if x <= 1.0 and y <= 1.0:
        if action.coordinate_space is CoordinateSpace.RELATIVE:
            return action
        return replace(action, coordinate_space=CoordinateSpace.RELATIVE)
    if dims is None:
        raise DataError(f"{action.kind.value}: absolute coordinates without screen_dims")
    w, h = dims
    rel = (round_coord(x / w), round_coord(y / h))
    if rel[0] > 1 or rel[1] > 1:
        raise DataError(
            f"{action.kind.value}: invalid coordinate "
            f"(({rel[0]}, {rel[1]}) outside [0,1] after conversion)"
        )
    return replace(action, coordinate=rel, coordinate_space=CoordinateSpace.RELATIVE)


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
    if not isinstance(obj, Mapping):
        raise DataError("action: invalid object (must be a JSON object)")
    unknown = set(obj) - _ACTION_FIELDS
    if unknown:
        raise DataError(f"action: invalid fields (unknown keys {sorted(unknown)})")
    try:
        kind = ActionKind(obj["kind"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"action: invalid kind ({exc})") from exc
    coord = obj.get("coordinate")
    direction = obj.get("direction")
    space = CoordinateSpace.RELATIVE
    if coord is not None and (float(coord[0]) > 1.0 or float(coord[1]) > 1.0):
        space = CoordinateSpace.PIXEL  # absolute input; normalized downstream
    return ActionRecord(
        kind=kind,
        coordinate=(float(coord[0]), float(coord[1])) if coord is not None else None,
        direction=ScrollDirection(direction) if direction is not None else None,
        text=obj.get("text"),
        seconds=float(obj["seconds"]) if obj.get("seconds") is not None else None,
        coordinate_space=space,
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


def _normalize_bbox(
    raw: list[float], dims: tuple[int, int] | None, subject: str
) -> tuple[float, float, float, float]:
    if len(raw) != 4:
        raise DataError(f"{subject}: invalid gt_bbox (must have 4 components)")
    vals = [float(v) for v in raw]
    if any(v > 1.0 for v in vals):
        if dims is None:
            raise DataError(f"{subject}: absolute gt_bbox without screen_dims")
        w, h = dims
        vals = [vals[0] / w, vals[1] / h, vals[2] / w, vals[3] / h]
    return (round_coord(vals[0]), round_coord(vals[1]), round_coord(vals[2]), round_coord(vals[3]))


def _step_from_json(obj: Mapping[str, Any], traj_id: str) -> StepRecord:
    for key in ("index", "screen_ref", "gt_action", "reference_effect"):
        if key not in obj:
            raise DataError(f"{traj_id}: invalid {key} (missing step field)")
    dims_raw = obj.get("screen_dims")
    dims = tuple(int(v) for v in dims_raw) if dims_raw is not None else None
    subject = f"{traj_id}[{obj['index']}]"
    check_box_and_dims(subject, "gt_bbox", None, dims)  # before dims scale a pixel value
    action = action_from_json(obj["gt_action"])
    if action.coordinate is not None and max(action.coordinate) > 1.0 and dims is None:
        raise DataError(f"{subject}: absolute coordinates without screen_dims")
    action = normalize_action(action, dims)
    bbox_raw = obj.get("gt_bbox")
    bbox = _normalize_bbox(bbox_raw, dims, subject) if bbox_raw is not None else None
    return StepRecord(
        index=int(obj["index"]),
        screen_ref=str(obj["screen_ref"]),
        gt_action=action,
        reference_effect=str(obj["reference_effect"]),
        screen_dims=dims,
        gt_bbox=bbox,
    )


def trajectory_from_json(obj: Mapping[str, Any]) -> TrajectoryRecord:
    for key in ("id", "instruction", "terminal_screen_ref", "steps"):
        if key not in obj:
            raise DataError(f"{obj.get('id', '?')}: invalid {key} (missing field)")
    traj_id = str(obj["id"])
    steps = tuple(_step_from_json(s, traj_id) for s in obj["steps"])
    return TrajectoryRecord(
        id=traj_id,
        instruction=str(obj["instruction"]),
        steps=steps,
        terminal_screen_ref=str(obj["terminal_screen_ref"]),
        allows_revisits=bool(obj.get("allows_revisits", False)),
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
