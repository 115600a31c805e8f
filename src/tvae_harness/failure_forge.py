"""Synthesis of plausible-but-wrong actions, mixed training samples, and
failure-injection benchmark cases.

Five corruption modes model realistic GUI failures (one fixed mixture,
0.30/0.25/0.20/0.15/0.10): slightly misaligned coordinates, a semantically
related but wrong action type, grounding to a different region, waiting when
interaction is required, and clicking dead screen margin.  Every corrupted
action is guaranteed to fail the match predicate against its ground truth,
with enough geometric margin that a near-repeat of the corruption can never
be mistaken for a correct recovery.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Mapping, Sequence

from .errors import DataError
from .records import json_value, member
from .reward_engine import DELTA, distance_to_bbox, euclidean, match_action
from .seeding import stable_seed
from .trajectory_store import (
    ActionKind,
    ActionRecord,
    StepRecord,
    TrajectoryRecord,
    action_from_json,
    action_line,
    bbox_from_json,
    check_box_and_dims,
    describe_action,
    normalize_action,
    round_coord,
    rounded_box,
    screen_dims_from_json,
)
from .tvae_codec import HistoryEntry, Verification, history_entry_from_json, history_entry_line

Bbox = tuple[float, float, float, float]


class FailureMode(str, Enum):
    COORDINATE_OFFSET = "coordinate_offset"
    ACTION_TYPE_ERROR = "action_type_error"
    TARGET_MISIDENTIFICATION = "target_misidentification"
    TIMING_ERROR = "timing_error"
    NULL_CLICK = "null_click"


FAILURE_MODES = {m.value: m for m in FailureMode}

DEFAULT_FAILURE_WEIGHTS: dict[FailureMode, float] = {
    FailureMode.COORDINATE_OFFSET: 0.30,
    FailureMode.ACTION_TYPE_ERROR: 0.25,
    FailureMode.TARGET_MISIDENTIFICATION: 0.20,
    FailureMode.TIMING_ERROR: 0.15,
    FailureMode.NULL_CLICK: 0.10,
}

# Minimal closure of "semantically related" type confusions; the long_press
# for click swap is the canonical example.
DEFAULT_RELATED_KINDS: dict[ActionKind, ActionKind] = {
    ActionKind.CLICK: ActionKind.LONG_PRESS,
    ActionKind.LONG_PRESS: ActionKind.CLICK,
    ActionKind.SCROLL: ActionKind.CLICK,
    ActionKind.INPUT_TEXT: ActionKind.CLICK,
    ActionKind.OPEN_APP: ActionKind.CLICK,
    ActionKind.WAIT: ActionKind.CLICK,
}

WAIT_CHOICES = (1.0, 2.0, 3.0, 5.0)

# Corruption geometry.  MARGIN keeps every corrupted coordinate strictly
# farther than `reward_engine.REPEAT_EPSILON` from the correct region, so
# "repeated" and "recovered" stay mutually exclusive.  FRAME is the dead
# margin band used by null clicks; JUMP_MIN is the least distance at which a
# misidentified target lands from the true one.
MARGIN = 0.05
FRAME = 0.03
JUMP_MIN = 0.28
MAX_TRIES = 200
_MAX_REDRAWS = 1000

_MODES = tuple(FailureMode)
_CUM_WEIGHTS = tuple(accumulate(DEFAULT_FAILURE_WEIGHTS[m] for m in _MODES))


def _draw_mode(rng: random.Random) -> FailureMode:
    # The draw of rng.choices(_MODES, cum_weights=_CUM_WEIGHTS, k=1)[0].
    point = rng.random() * (_CUM_WEIGHTS[-1] + 0.0)
    return _MODES[bisect(_CUM_WEIGHTS, point, 0, len(_MODES) - 1)]


def _region_distance(point: tuple[float, float], gt: ActionRecord, bbox: Bbox | None) -> float:
    """Distance from `point` to the region where a same-kind action would
    count as matching the ground truth."""
    if bbox is not None:
        return distance_to_bbox(point, bbox)
    assert gt.coordinate is not None
    return euclidean(point, gt.coordinate) - DELTA


_FALLBACK_POINTS = (
    (0.01, 0.01), (0.99, 0.01), (0.01, 0.99), (0.99, 0.99),
    (0.5, 0.01), (0.5, 0.99), (0.01, 0.5), (0.99, 0.5),
)


def _pick_coordinate(rng: random.Random, accept, proposals) -> tuple[float, float] | None:
    for _ in range(MAX_TRIES):
        x, y = proposals(rng)
        if 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and accept((x, y)):
            return (round_coord(x), round_coord(y))
    for candidate in _FALLBACK_POINTS:
        if accept(candidate):
            return candidate
    return None


def corrupt_action(
    gt: ActionRecord,
    bbox: Bbox | None,
    mode: FailureMode,
    rng: random.Random,
) -> ActionRecord:
    """Produce a plausible erroneous variant of `gt` under `mode`.

    The result is guaranteed to fail match_action against `gt` (with the
    given bbox).  Raises DataError when the mode makes no sense for the
    action kind, e.g. a coordinate offset of navigate_back.
    """
    result = _corrupt(gt, bbox, mode, rng, ())
    if result is None:
        raise DataError(f"failure mode {mode.value} not applicable to action kind {gt.kind.value}")
    return result


def _corrupt(
    gt: ActionRecord,
    bbox: Bbox | None,
    mode: FailureMode,
    rng: random.Random,
    known_bboxes: Sequence[Bbox],
) -> ActionRecord | None:
    """The corruption of `gt` under `mode`, or None when the mode cannot
    apply (with no draw from `rng` when the action kind rules it out).  Each
    rule forces a miss: another kind, or a point over MARGIN from the region."""
    if mode is FailureMode.COORDINATE_OFFSET:
        center = gt.coordinate
        if center is None:
            return None

        def propose(r: random.Random) -> tuple[float, float]:
            radius = r.uniform(0.05, 0.40)
            angle = r.uniform(0.0, 2.0 * math.pi)
            return (center[0] + radius * math.cos(angle), center[1] + radius * math.sin(angle))

        coord = _pick_coordinate(rng, lambda p: _region_distance(p, gt, bbox) > MARGIN, propose)
        return None if coord is None else ActionRecord(kind=gt.kind, coordinate=coord)

    elif mode is FailureMode.TARGET_MISIDENTIFICATION:
        center = gt.coordinate
        if center is None:
            return None

        def propose_far(r: random.Random) -> tuple[float, float]:
            return (r.uniform(0.03, 0.97), r.uniform(0.03, 0.97))

        coord = _pick_coordinate(
            rng,
            lambda p: (
                euclidean(p, center) >= JUMP_MIN and _region_distance(p, gt, bbox) > MARGIN
            ),
            propose_far,
        )
        return None if coord is None else ActionRecord(kind=gt.kind, coordinate=coord)

    elif mode is FailureMode.ACTION_TYPE_ERROR:
        if gt.kind not in DEFAULT_RELATED_KINDS:
            return None
        # Every related kind is a click or a long press.
        if gt.coordinate is not None:
            coord = (round_coord(gt.coordinate[0]), round_coord(gt.coordinate[1]))
        elif bbox is not None:
            coord = (round_coord((bbox[0] + bbox[2]) / 2), round_coord((bbox[1] + bbox[3]) / 2))
        else:
            coord = (round_coord(rng.uniform(0.2, 0.8)), round_coord(rng.uniform(0.2, 0.8)))
        return ActionRecord(kind=DEFAULT_RELATED_KINDS[gt.kind], coordinate=coord)

    elif mode is FailureMode.TIMING_ERROR:
        if gt.kind is ActionKind.WAIT:
            return None
        return ActionRecord(kind=ActionKind.WAIT, seconds=rng.choice(WAIT_CHOICES))

    else:  # null click: dead margin frame of the screen, outside every known box
        boxes = list(known_bboxes)
        if bbox is not None and bbox not in boxes:
            boxes.append(bbox)

        def propose_margin(r: random.Random) -> tuple[float, float]:
            side = r.randrange(4)
            along = r.uniform(0.0, 1.0)
            across = r.uniform(0.0, FRAME)
            if side == 0:
                return (along, across)
            if side == 1:
                return (along, 1.0 - across)
            if side == 2:
                return (across, along)
            return (1.0 - across, along)

        def accept_margin(p: tuple[float, float]) -> bool:
            if any(distance_to_bbox(p, b) <= 0.0 for b in boxes):
                return False
            if gt.is_spatial() and _region_distance(p, gt, bbox) <= MARGIN:
                return False
            return True

        coord = _pick_coordinate(rng, accept_margin, propose_margin)
        return None if coord is None else ActionRecord(kind=ActionKind.CLICK, coordinate=coord)


def sample_corruption(
    gt: ActionRecord,
    bbox: Bbox | None,
    rng: random.Random,
    known_bboxes: Sequence[Bbox] = (),
) -> tuple[FailureMode, ActionRecord]:
    """Draw a mode from the fixed mixture and corrupt; inapplicable modes
    trigger a redraw so the global mixture is preserved over heterogeneous
    action distributions."""
    for _ in range(_MAX_REDRAWS):
        mode = _draw_mode(rng)
        result = _corrupt(gt, bbox, mode, rng, known_bboxes)
        if result is not None:
            return mode, result
    raise DataError(f"failure mode any not applicable to action kind {gt.kind.value}")


# -- sample and benchmark construction ----------------------------------------


class SampleType(str, Enum):
    TYPE_A = "type_a"
    TYPE_B = "type_b"


SAMPLE_TYPES = {t.value: t for t in SampleType}


def _check_failed_entry(
    subject: str, history: tuple[HistoryEntry, ...], recovery: ActionRecord, bbox: Bbox | None
) -> None:
    """A failure record's history ends in the failed entry, whose action
    does not match the recovery action (no corruption does)."""
    if not history:
        raise DataError(f"{subject}: invalid history (must end in the failed entry)")
    if match_action(history[-1].action, recovery, bbox):
        raise DataError(f"{subject}: invalid history (failed entry matches the recovery action)")


@dataclass(slots=True)
class SyntheticSample:
    """One training sample: success continuation (A) or failure recovery (B).

    Type B pairs the unchanged pre-action screen with a history whose last
    entry claims the erroneous action executed; the target is the NO_CHANGE
    diagnosis plus the original step's correct action.
    """

    sample_type: SampleType
    instruction: str
    input_screen_ref: str
    history: tuple[HistoryEntry, ...]
    target_action: ActionRecord
    target_effect: str
    failure_mode: FailureMode | None = None
    target_bbox: Bbox | None = None
    screen_dims: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        check_box_and_dims("sample", "target_bbox", self.target_bbox, self.screen_dims)
        if self.sample_type is SampleType.TYPE_B:
            _check_failed_entry("sample", self.history, self.target_action, self.target_bbox)

    @property
    def target_verification(self) -> Verification:
        if self.sample_type is SampleType.TYPE_A:
            return Verification.SUCCESS
        return Verification.NO_CHANGE


@dataclass(slots=True)
class FailureCase:
    """A robustness-slice probe: unchanged screen, history ending in the
    erroneous action, and the ground-truth recovery."""

    source: tuple[str, int]
    instruction: str
    screen_ref: str
    history: tuple[HistoryEntry, ...]
    gt_recovery: ActionRecord
    mode: FailureMode
    gt_bbox: Bbox | None = None
    screen_dims: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        check_box_and_dims("failure_case", "gt_bbox", self.gt_bbox, self.screen_dims)
        if not self.screen_ref:  # the probe's step needs one
            raise DataError("failure_case: invalid screen_ref (must be non-empty)")
        _check_failed_entry("failure_case", self.history, self.gt_recovery, self.gt_bbox)

    @property
    def erroneous(self) -> ActionRecord:
        return self.history[-1].action


def mismatched_effect(described: str) -> str:
    """The effect a wrong action claims, from its `describe_action` text."""
    return f"The screen will show the result of {described}."


def _success_history(steps: Sequence[StepRecord], upto: int) -> tuple[HistoryEntry, ...]:
    return tuple(
        HistoryEntry(s.gt_action, s.reference_effect, Verification.SUCCESS)
        for s in steps[:upto]
    )


def _failed_entry(
    step: StepRecord, rng: random.Random, known: Sequence[Bbox]
) -> tuple[FailureMode, HistoryEntry]:
    """A sampled corruption of `step`'s action, as the history entry that
    claims it executed."""
    mode, err = sample_corruption(step.gt_action, step.gt_bbox, rng, known)
    return mode, HistoryEntry(err, mismatched_effect(describe_action(err)), Verification.SUCCESS)


def _type_b_quotas(trajs: Sequence[TrajectoryRecord], ratio_b: float) -> list[int]:
    """Largest-remainder apportionment of the global type-B count (half-up
    rounded fraction of all steps) across trajectories."""
    total = sum(len(t) for t in trajs)
    target = math.floor(total * ratio_b + 0.5)
    quotas = [len(t) * ratio_b for t in trajs]
    base = [min(math.floor(q), len(t)) for q, t in zip(quotas, trajs)]
    remaining = target - sum(base)
    order = sorted(
        range(len(trajs)),
        key=lambda i: (-(quotas[i] - math.floor(quotas[i])), i),
    )
    for i in order:
        if remaining <= 0:
            break
        if base[i] < len(trajs[i]):
            base[i] += 1
            remaining -= 1
    return base


def build_sft_dataset(
    trajs: Sequence[TrajectoryRecord],
    ratio_b: float,
    seed: int = 0,
) -> list[SyntheticSample]:
    """Expand trajectories into type A samples plus a ratio_b fraction of
    type B failure-recovery samples.

    Deterministic per (seed, trajectory id): trajectories may be generated
    in parallel without changing the output.  A trajectory's generator is
    seeded on its first draw, so one with no type B sample seeds none.
    """
    if not trajs:
        raise DataError("no trajectories")
    if not 0 <= ratio_b <= 1:
        raise DataError("sft: invalid ratio_b (must be in [0,1])")
    quotas = _type_b_quotas(trajs, ratio_b)
    samples: list[SyntheticSample] = []
    for traj, quota in zip(trajs, quotas):
        chosen: set[int] = set()
        if quota:
            rng = random.Random(stable_seed(seed, "sft", traj.id))
            known = [s.gt_bbox for s in traj.steps if s.gt_bbox is not None]
            chosen = set(rng.sample(range(len(traj)), quota))
        for t, step in enumerate(traj.steps):
            sample = SyntheticSample(
                sample_type=SampleType.TYPE_A,
                instruction=traj.instruction,
                input_screen_ref=step.screen_ref,
                history=_success_history(traj.steps, t),
                target_action=step.gt_action,
                target_effect=step.reference_effect,
                target_bbox=step.gt_bbox,
                screen_dims=step.screen_dims,
            )
            samples.append(sample)
            if t in chosen:
                mode, failed = _failed_entry(step, rng, known)
                samples.append(replace(
                    sample, sample_type=SampleType.TYPE_B,
                    history=sample.history + (failed,), failure_mode=mode,
                ))
    return samples


def build_robustness_bench(
    trajs: Sequence[TrajectoryRecord],
    per_traj: int,
    seed: int = 0,
) -> list[FailureCase]:
    """Create failure-injection cases from sampled steps of each trajectory."""
    if not trajs:
        raise DataError("no trajectories")
    if per_traj < 1:
        raise DataError("bench: invalid per_traj (must be >= 1)")
    cases: list[FailureCase] = []
    for traj in trajs:
        rng = random.Random(stable_seed(seed, "bench", traj.id))
        known = [s.gt_bbox for s in traj.steps if s.gt_bbox is not None]
        count = min(per_traj, len(traj))
        for t in sorted(rng.sample(range(len(traj)), count)):
            step = traj.steps[t]
            mode, failed = _failed_entry(step, rng, known)
            cases.append(
                FailureCase(
                    source=(traj.id, t),
                    instruction=traj.instruction,
                    screen_ref=step.screen_ref,
                    history=_success_history(traj.steps, t) + (failed,),
                    gt_recovery=step.gt_action,
                    mode=mode,
                    gt_bbox=step.gt_bbox,
                    screen_dims=step.screen_dims,
                )
            )
    return cases


# -- serialization -------------------------------------------------------------


def _box_and_dims(key: str, bbox: Bbox | None, dims: tuple[int, int] | None) -> str:
    """The optional box (rounded as `rounded_box` rounds it) and `screen_dims`
    keys that end a sample or case line, each with its leading comma."""
    tail = ""
    if bbox is not None:
        tail = f',"{key}":[{",".join(map(repr, rounded_box(bbox)))}]'
    if dims is not None:
        tail += f',"screen_dims":[{dims[0]!r},{dims[1]!r}]'
    return tail


def sample_line(sample: SyntheticSample) -> str:
    """A `samples.jsonl` line, as `sim_engine.trace_line` writes a trace: the
    text `json.dumps(obj, separators=(",", ":"))` makes of the sample's dict
    form, written in one pass with no dict tree."""
    mode = sample.failure_mode
    mode_key = "" if mode is None else f',"failure_mode":"{mode._value_}"'
    return (
        f'{{"sample_type":"{sample.sample_type._value_}",'
        f'"instruction":{_json_str(sample.instruction)},'
        f'"input_screen_ref":{_json_str(sample.input_screen_ref)},'
        f'"history":[{",".join(map(history_entry_line, sample.history))}],'
        f'"target_verification":"{sample.target_verification._value_}",'
        f'"target_action":{action_line(sample.target_action)},'
        f'"target_effect":{_json_str(sample.target_effect)}'
        f'{mode_key}{_box_and_dims("target_bbox", sample.target_bbox, sample.screen_dims)}}}'
    )


def sample_from_json(obj: Mapping[str, Any]) -> SyntheticSample:
    """A sample line; pixel coordinates in it are converted with its
    `screen_dims` (without them a pixel coordinate is a bad line), and its
    `target_verification` must be the one its `sample_type` gives."""
    dims = screen_dims_from_json(obj, "sample")
    history = json_value(obj, "history", list, "sample")
    sample = SyntheticSample(
        sample_type=member(SAMPLE_TYPES, obj["sample_type"], SampleType),
        instruction=json_value(obj, "instruction", str, "sample"),
        input_screen_ref=json_value(obj, "input_screen_ref", str, "sample"),
        history=tuple(history_entry_from_json(h, dims) for h in history),
        target_action=normalize_action(action_from_json(obj["target_action"]), dims),
        target_effect=json_value(obj, "target_effect", str, "sample"),
        failure_mode=(
            member(FAILURE_MODES, obj["failure_mode"], FailureMode)
            if "failure_mode" in obj
            else None
        ),
        target_bbox=bbox_from_json(obj, "target_bbox", dims, "sample"),
        screen_dims=dims,
    )
    target = sample.target_verification
    if obj["target_verification"] != target._value_:
        kind = "A" if target is Verification.SUCCESS else "B"
        raise DataError(f"sample: invalid target_verification (type {kind} => {target.value})")
    return sample


def failure_case_line(case: FailureCase) -> str:
    """A `cases.jsonl` line, written as `sample_line` writes a sample."""
    return (
        f'{{"source":[{_json_str(case.source[0])},{case.source[1]!r}],'
        f'"instruction":{_json_str(case.instruction)},'
        f'"screen_ref":{_json_str(case.screen_ref)},'
        f'"history":[{",".join(map(history_entry_line, case.history))}],'
        f'"gt_recovery":{action_line(case.gt_recovery)},'
        f'"erroneous":{action_line(case.erroneous)},'
        f'"mode":"{case.mode._value_}"'
        f'{_box_and_dims("gt_bbox", case.gt_bbox, case.screen_dims)}}}'
    )


def failure_case_from_json(obj: Mapping[str, Any]) -> FailureCase:
    """A case line; pixel coordinates as in `sample_from_json`, and its
    `erroneous` must be the action of its last history entry."""
    dims = screen_dims_from_json(obj, "failure_case")
    traj_id, step = source = json_value(obj, "source", list, "failure_case")
    if type(traj_id) is not str or type(step) is not int or step < 0:
        raise DataError(f"failure_case: invalid source (must be [id, index], got {source!r})")
    history = json_value(obj, "history", list, "failure_case")
    case = FailureCase(
        source=(traj_id, step),
        instruction=json_value(obj, "instruction", str, "failure_case"),
        screen_ref=json_value(obj, "screen_ref", str, "failure_case"),
        history=tuple(history_entry_from_json(h, dims) for h in history),
        gt_recovery=normalize_action(action_from_json(obj["gt_recovery"]), dims),
        mode=member(FAILURE_MODES, obj["mode"], FailureMode),
        gt_bbox=bbox_from_json(obj, "gt_bbox", dims, "failure_case"),
        screen_dims=dims,
    )
    if normalize_action(action_from_json(obj["erroneous"]), dims) != case.erroneous:
        raise DataError("failure_case: invalid history (last entry must be erroneous)")
    return case

