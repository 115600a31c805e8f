from __future__ import annotations

import json
import math
import random

import pytest

from tvae_harness.errors import DataError
from tvae_harness.trajectory_store import (
    ActionKind,
    ActionRecord,
    ScrollDirection,
    StepRecord,
    TrajectoryRecord,
    action_from_json,
    action_line,
    load_dataset,
    normalize_action,
)
from tvae_harness.synthdata import make_dataset

from conftest import random_valid_action, save_dataset


def _write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def _traj_obj(**overrides):
    obj = {
        "id": "t1",
        "instruction": "Open settings and toggle wifi.",
        "terminal_screen_ref": "t1/end",
        "steps": [
            {
                "index": 0,
                "screen_ref": "t1/s0",
                "screen_dims": [1080, 2400],
                "gt_action": {"kind": "click", "coordinate": [540, 2100]},
                "gt_bbox": [500, 2000, 580, 2200],
                "reference_effect": "The settings panel opens.",
            },
            {
                "index": 1,
                "screen_ref": "t1/s1",
                "gt_action": {"kind": "scroll", "direction": "down"},
                "reference_effect": "The list scrolls to reveal wifi.",
            },
            {
                "index": 2,
                "screen_ref": "t1/s2",
                "gt_action": {"kind": "input_text", "text": "home network"},
                "reference_effect": "The network name is typed in.",
            },
        ],
    }
    obj.update(overrides)
    return obj


def test_load_single_trajectory(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_lines(path, [_traj_obj()])
    records = load_dataset(path)
    assert len(records) == 1
    assert len(records[0].steps) == 3


def test_absolute_coordinates_converted(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_lines(path, [_traj_obj()])
    step0 = load_dataset(path)[0].steps[0]
    assert step0.gt_action.coordinate == (0.5, 0.875)
    assert not step0.gt_action.in_pixels()
    # bbox converted through the same dims
    assert step0.gt_bbox == (round(500 / 1080, 6), round(2000 / 2400, 6),
                             round(580 / 1080, 6), round(2200 / 2400, 6))


def test_out_of_screen_coordinate_rejected(tmp_path):
    obj = _traj_obj()
    obj["steps"][0]["gt_action"]["coordinate"] = [1200, 100]
    path = tmp_path / "d.jsonl"
    _write_lines(path, [obj])
    with pytest.raises(DataError, match=r"^line 1: click: invalid coordinate \(.* after conversion\)$"):
        load_dataset(path)


def test_absolute_without_dims_rejected(tmp_path):
    obj = _traj_obj()
    del obj["steps"][0]["screen_dims"]
    path = tmp_path / "d.jsonl"
    _write_lines(path, [obj])
    with pytest.raises(DataError, match="^line 1: .*: absolute coordinates without screen_dims$"):
        load_dataset(path)


def test_malformed_json_line_reports_line_number(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(_traj_obj()) + "\n{not json\n", encoding="utf-8")
    with pytest.raises(DataError, match="^line 2: invalid JSON: "):
        load_dataset(path)


def test_skip_invalid_drops_and_continues(tmp_path):
    good = _traj_obj()
    bad = _traj_obj(id="t2")
    bad["steps"][0]["gt_action"]["coordinate"] = [99999, 1]
    path = tmp_path / "d.jsonl"
    _write_lines(path, [bad, good])
    records = load_dataset(path, skip_invalid=True)
    assert [r.id for r in records] == ["t1"]


def test_limit(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_lines(path, [_traj_obj(id=f"t{i}") for i in range(5)])
    assert len(load_dataset(path, limit=2)) == 2


def test_load_is_deterministic(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_lines(path, [_traj_obj()])
    assert load_dataset(path) == load_dataset(path)


def test_save_load_round_trip_is_identity_on_canonical_records(tmp_path):
    trajs = make_dataset(10, (1, 6), seed=4)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_dataset(trajs, p1)
    loaded = load_dataset(p1)
    assert loaded == trajs
    save_dataset(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_duplicate_screen_refs_rejected_without_flag(tmp_path):
    obj = _traj_obj()
    obj["steps"][1]["screen_ref"] = "t1/s0"
    path = tmp_path / "d.jsonl"
    _write_lines(path, [obj])
    with pytest.raises(DataError, match="invalid screen_ref .repeated screen"):
        load_dataset(path)
    obj["allows_revisits"] = True
    _write_lines(path, [obj])
    assert load_dataset(path)[0].allows_revisits


def test_allows_revisits_round_trips_through_save_and_load(tmp_path):
    # the flag is written only when set, and a revisiting trajectory reads back
    # only with it
    revisit, plain = make_dataset(2, (2, 3), seed=6)
    step = revisit.steps[0]
    loop = StepRecord(len(revisit), step.screen_ref, step.gt_action, step.reference_effect)
    revisit = TrajectoryRecord(
        revisit.id, revisit.instruction, (*revisit.steps, loop), revisit.terminal_screen_ref,
        allows_revisits=True,
    )
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset([revisit, plain], p1)
    first, second = (json.loads(line) for line in p1.read_text().splitlines())
    assert first["allows_revisits"] is True and "allows_revisits" not in second
    assert list(first).index("allows_revisits") == list(first).index("steps") - 1
    loaded = load_dataset(p1)
    assert loaded == [revisit, plain]
    save_dataset(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_non_contiguous_indices_rejected():
    step = StepRecord(
        index=1,
        screen_ref="s",
        gt_action=ActionRecord(kind=ActionKind.NAVIGATE_BACK),
        reference_effect="Back.",
    )
    with pytest.raises(DataError, match="^x: invalid steps .index 1 at position 0"):
        TrajectoryRecord(id="x", instruction="i", steps=(step,), terminal_screen_ref="end")


# -- normalize_action ---------------------------------------------------------


def test_normalize_passthrough_relative():
    a = ActionRecord(kind=ActionKind.CLICK, coordinate=(0.5, 0.5))
    assert normalize_action(a) is a


def test_normalize_paper_coordinates():
    a = ActionRecord(kind=ActionKind.CLICK, coordinate=(317.0, 1190.0))
    out = normalize_action(a, (1080, 2400))
    assert out.coordinate == (0.293519, 0.495833)
    assert not out.in_pixels()


def test_normalize_non_spatial_identity():
    a = ActionRecord(kind=ActionKind.WAIT, seconds=5.0)
    assert normalize_action(a, (1080, 2400)) is a


def test_normalize_requires_dims_for_pixels():
    a = ActionRecord(kind=ActionKind.CLICK, coordinate=(317.0, 1190.0))
    with pytest.raises(DataError, match="^click: absolute coordinates without screen_dims$"):
        normalize_action(a, None)


def test_normalize_rejects_negative():
    with pytest.raises(DataError, match=r"^negative coordinate \(-0.1, 0.5\)$"):
        ActionRecord(kind=ActionKind.CLICK, coordinate=(-0.1, 0.5))


def test_normalize_is_idempotent(rng: random.Random):
    dims = (2048, 2048)  # covers the pixel range the generator draws from
    for _ in range(500):
        a = random_valid_action(rng)
        once = normalize_action(a, dims)
        assert normalize_action(once, dims) == once


# -- field discipline -----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=ActionKind.CLICK),  # spatial without coordinate
        dict(kind=ActionKind.SCROLL),  # scroll without direction
        dict(kind=ActionKind.SCROLL, direction=ScrollDirection.UP, coordinate=(0.5, 0.5)),
        dict(kind=ActionKind.INPUT_TEXT, text=""),
        dict(kind=ActionKind.NAVIGATE_BACK, text="x"),
        dict(kind=ActionKind.WAIT, seconds=-1.0),
        dict(kind=ActionKind.WAIT),
    ],
)
def test_action_field_discipline(kwargs):
    with pytest.raises(DataError, match=f"^{kwargs['kind'].value}: invalid "):
        ActionRecord(**kwargs)


_PARAM_VALUES = {
    "coordinate": (0.5, 0.5), "direction": ScrollDirection.UP, "text": "hi", "seconds": 1.0,
}
_CARRIED = {
    ActionKind.CLICK: "coordinate",
    ActionKind.LONG_PRESS: "coordinate",
    ActionKind.SCROLL: "direction",
    ActionKind.INPUT_TEXT: "text",
    ActionKind.OPEN_APP: "text",
    ActionKind.WAIT: "seconds",
    ActionKind.NAVIGATE_BACK: None,
}
_RULES = {"coordinate": "spatial", "direction": "scroll", "text": "textual", "seconds": "wait"}


def _shape_cases():
    """Each kind with each parameter it carries missing and each other one
    extra, with the message the record has always raised for it."""
    for kind, carried in _CARRIED.items():
        for param, rule in _RULES.items():
            kwargs = {carried: _PARAM_VALUES[carried]} if carried else {}
            if param == carried:
                del kwargs[param]
            else:
                kwargs[param] = _PARAM_VALUES[param]
            yield kind, kwargs, f"{kind.value}: invalid {param} (required iff {rule})"


@pytest.mark.parametrize(
    "kind, kwargs, message",
    [
        *_shape_cases(),
        # several parameters differ: the first in coordinate, direction,
        # text, seconds order is named
        (ActionKind.CLICK, dict(text="x"), "click: invalid coordinate (required iff spatial)"),
        (ActionKind.WAIT, dict(seconds=1.0, direction=ScrollDirection.UP, coordinate=(0.1, 0.1)),
         "wait: invalid coordinate (required iff spatial)"),
        (ActionKind.CLICK, dict(coordinate=(-0.1, 0.5)), "negative coordinate (-0.1, 0.5)"),
        (ActionKind.LONG_PRESS, dict(coordinate=(0.5, -3.0)), "negative coordinate (0.5, -3.0)"),
        (ActionKind.CLICK, dict(coordinate=(math.nan, 0.5)),
         "click: invalid coordinate ((nan, 0.5) is not finite)"),
        (ActionKind.CLICK, dict(coordinate=(0.5, math.inf)),
         "click: invalid coordinate ((0.5, inf) is not finite)"),
        (ActionKind.CLICK, dict(coordinate=(-math.inf, 0.5)), "negative coordinate (-inf, 0.5)"),
        (ActionKind.INPUT_TEXT, dict(text=""), "input_text: invalid text (must be non-empty)"),
        (ActionKind.OPEN_APP, dict(text=""), "open_app: invalid text (must be non-empty)"),
        (ActionKind.WAIT, dict(seconds=-1.0), "wait: invalid seconds (must be >= 0)"),
        (ActionKind.WAIT, dict(seconds=math.nan), "wait: invalid seconds (must be finite)"),
        (ActionKind.WAIT, dict(seconds=math.inf), "wait: invalid seconds (must be finite)"),
        (ActionKind.WAIT, dict(seconds=-math.inf), "wait: invalid seconds (must be >= 0)"),
    ],
)
def test_action_record_messages(kind, kwargs, message):
    with pytest.raises(DataError) as info:
        ActionRecord(kind=kind, **kwargs)
    assert str(info.value) == message


def test_action_json_round_trip(rng: random.Random):
    for _ in range(300):
        a = random_valid_action(rng)
        assert action_from_json(json.loads(action_line(a))) == a


def test_action_json_rejects_unknown_fields():
    with pytest.raises(DataError, match=r"^action: invalid fields \(unknown keys \['extra'\]\)$"):
        action_from_json({"kind": "click", "coordinate": [0.5, 0.5], "extra": 1})
