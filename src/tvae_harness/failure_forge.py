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
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Any, Mapping, Sequence

from .errors import EmptyDatasetError, InvariantViolationError, ModeInapplicableError
from .reward_engine import DELTA, distance_to_bbox, euclidean, match_action
from .seeding import stable_seed
from .trajectory_store import (
    ActionKind,
    ActionRecord,
    ScrollDirection,
    StepRecord,
    TrajectoryRecord,
    action_from_json,
    action_to_json,
    check_box_and_dims,
    describe_action,
    round_coord,
)
from .tvae_codec import HistoryEntry, Verification, history_entry_from_json, history_entry_to_json

Bbox = tuple[float, float, float, float]


class FailureMode(str, Enum):
    COORDINATE_OFFSET = "coordinate_offset"
    ACTION_TYPE_ERROR = "action_type_error"
    TARGET_MISIDENTIFICATION = "target_misidentification"
    TIMING_ERROR = "timing_error"
    NULL_CLICK = "null_click"


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
        candidate = proposals(rng)
        if candidate is None:
            continue
        x, y = candidate
        if 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and accept((x, y)):
            return (round_coord(x), round_coord(y))
    for candidate in _FALLBACK_POINTS:
        if accept(candidate):
            return candidate
    return None


def _applicable(mode: FailureMode, gt: ActionRecord) -> bool:
    spatial = gt.is_spatial()
    if mode is FailureMode.COORDINATE_OFFSET:
        return spatial
    if mode is FailureMode.TARGET_MISIDENTIFICATION:
        return spatial
    if mode is FailureMode.ACTION_TYPE_ERROR:
        return gt.kind in DEFAULT_RELATED_KINDS
    if mode is FailureMode.TIMING_ERROR:
        return gt.kind is not ActionKind.WAIT
    return True  # null click applies everywhere the screen has a margin


def corrupt_action(
    gt: ActionRecord,
    bbox: Bbox | None,
    mode: FailureMode,
    rng: random.Random,
    known_bboxes: Sequence[Bbox] = (),
) -> ActionRecord:
    """Produce a plausible erroneous variant of `gt` under `mode`.

    The result is guaranteed to fail match_action against `gt` (with the
    given bbox).  Raises ModeInapplicableError when the mode makes no
    sense for the action kind, e.g. a coordinate offset of navigate_back.
    """
    if not _applicable(mode, gt):
        raise ModeInapplicableError(mode.value, gt.kind.value)
    result = _corrupt(gt, bbox, mode, rng, known_bboxes)
    if match_action(result, gt, bbox):
        raise InvariantViolationError("forge", mode.value, "corruption matched ground truth")
    return result


def _corrupt(
    gt: ActionRecord,
    bbox: Bbox | None,
    mode: FailureMode,
    rng: random.Random,
    known_bboxes: Sequence[Bbox],
) -> ActionRecord:
    if mode is FailureMode.COORDINATE_OFFSET:
        center = gt.coordinate
        assert center is not None

        def propose(r: random.Random) -> tuple[float, float]:
            radius = r.uniform(0.05, 0.40)
            angle = r.uniform(0.0, 2.0 * math.pi)
            return (center[0] + radius * math.cos(angle), center[1] + radius * math.sin(angle))

        coord = _pick_coordinate(rng, lambda p: _region_distance(p, gt, bbox) > MARGIN, propose)
        if coord is None:
            raise ModeInapplicableError(mode.value, gt.kind.value)
        return ActionRecord(kind=gt.kind, coordinate=coord)

    if mode is FailureMode.TARGET_MISIDENTIFICATION:
        center = gt.coordinate
        assert center is not None

        def propose_far(r: random.Random) -> tuple[float, float]:
            return (r.uniform(0.03, 0.97), r.uniform(0.03, 0.97))

        coord = _pick_coordinate(
            rng,
            lambda p: (
                euclidean(p, center) >= JUMP_MIN and _region_distance(p, gt, bbox) > MARGIN
            ),
            propose_far,
        )
        if coord is None:
            raise ModeInapplicableError(mode.value, gt.kind.value)
        return ActionRecord(kind=gt.kind, coordinate=coord)

    if mode is FailureMode.ACTION_TYPE_ERROR:
        new_kind = DEFAULT_RELATED_KINDS[gt.kind]
        if new_kind in (ActionKind.CLICK, ActionKind.LONG_PRESS):
            if gt.coordinate is not None:
                coord = (round_coord(gt.coordinate[0]), round_coord(gt.coordinate[1]))
            elif bbox is not None:
                coord = (round_coord((bbox[0] + bbox[2]) / 2), round_coord((bbox[1] + bbox[3]) / 2))
            else:
                coord = (round_coord(rng.uniform(0.2, 0.8)), round_coord(rng.uniform(0.2, 0.8)))
            return ActionRecord(kind=new_kind, coordinate=coord)
        if new_kind is ActionKind.SCROLL:
            return ActionRecord(kind=new_kind, direction=rng.choice(list(ScrollDirection)))
        raise ModeInapplicableError(mode.value, gt.kind.value)

    if mode is FailureMode.TIMING_ERROR:
        return ActionRecord(kind=ActionKind.WAIT, seconds=rng.choice(WAIT_CHOICES))

    # Null click: dead margin frame of the screen, outside every known box.
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
    if coord is None:
        raise ModeInapplicableError(mode.value, gt.kind.value)
    return ActionRecord(kind=ActionKind.CLICK, coordinate=coord)


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
        # corrupt_action would raise before touching rng; skip the raise.
        if not _applicable(mode, gt):
            continue
        try:
            return mode, corrupt_action(gt, bbox, mode, rng, known_bboxes)
        except ModeInapplicableError:
            continue
    raise ModeInapplicableError("any", gt.kind.value)


# -- sample and benchmark construction ----------------------------------------


class SampleType(str, Enum):
    TYPE_A = "type_a"
    TYPE_B = "type_b"


@dataclass(frozen=True)
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
    target_verification: Verification
    target_action: ActionRecord
    target_effect: str
    failure_mode: FailureMode | None = None
    target_bbox: Bbox | None = None
    screen_dims: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        check_box_and_dims("sample", "target_bbox", self.target_bbox, self.screen_dims)
        if self.sample_type is SampleType.TYPE_A:
            if self.target_verification is not Verification.SUCCESS:
                raise InvariantViolationError("sample", "target_verification", "type A => SUCCESS")
        else:
            if self.target_verification is not Verification.NO_CHANGE:
                raise InvariantViolationError("sample", "target_verification", "type B => NO_CHANGE")
            if not self.history:
                raise InvariantViolationError("sample", "history", "type B needs the failed entry")


@dataclass(frozen=True)
class FailureCase:
    """A robustness-slice probe: unchanged screen, history ending in the
    erroneous action, and the ground-truth recovery."""

    source: tuple[str, int]
    instruction: str
    screen_ref: str
    history: tuple[HistoryEntry, ...]
    gt_recovery: ActionRecord
    erroneous: ActionRecord
    mode: FailureMode
    gt_bbox: Bbox | None = None
    screen_dims: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        check_box_and_dims("failure_case", "gt_bbox", self.gt_bbox, self.screen_dims)
        if not self.history:
            raise InvariantViolationError("failure_case", "history", "must end in erroneous entry")
        if self.history[-1].action != self.erroneous:
            raise InvariantViolationError("failure_case", "history", "last entry must be erroneous")
        if match_action(self.erroneous, self.gt_recovery, self.gt_bbox):
            raise InvariantViolationError(
                "failure_case", "erroneous", "must not match the recovery action"
            )


def mismatched_effect(action: ActionRecord) -> str:
    return f"The screen will show the result of {describe_action(action)}."


def _success_history(steps: Sequence[StepRecord], upto: int) -> tuple[HistoryEntry, ...]:
    return tuple(
        HistoryEntry(s.gt_action, s.reference_effect, Verification.SUCCESS)
        for s in steps[:upto]
    )


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
    ratio_b: float = 0.3,
    seed: int = 0,
) -> list[SyntheticSample]:
    """Expand trajectories into type A samples plus a ratio_b fraction of
    type B failure-recovery samples.

    Deterministic per (seed, trajectory id): trajectories may be generated
    in parallel without changing the output.
    """
    if not trajs:
        raise EmptyDatasetError("no trajectories")
    if not 0 <= ratio_b <= 1:
        raise InvariantViolationError("sft", "ratio_b", "must be in [0,1]")
    quotas = _type_b_quotas(trajs, ratio_b)
    samples: list[SyntheticSample] = []
    for traj, quota in zip(trajs, quotas):
        rng = random.Random(stable_seed(seed, "sft", traj.id))
        known = [s.gt_bbox for s in traj.steps if s.gt_bbox is not None]
        chosen = set(rng.sample(range(len(traj)), quota)) if quota else set()
        for t, step in enumerate(traj.steps):
            history = _success_history(traj.steps, t)
            samples.append(
                SyntheticSample(
                    sample_type=SampleType.TYPE_A,
                    instruction=traj.instruction,
                    input_screen_ref=step.screen_ref,
                    history=history,
                    target_verification=Verification.SUCCESS,
                    target_action=step.gt_action,
                    target_effect=step.reference_effect,
                    target_bbox=step.gt_bbox,
                    screen_dims=step.screen_dims,
                )
            )
            if t in chosen:
                mode, err = sample_corruption(step.gt_action, step.gt_bbox, rng, known)
                err_entry = HistoryEntry(err, mismatched_effect(err), Verification.SUCCESS)
                samples.append(
                    SyntheticSample(
                        sample_type=SampleType.TYPE_B,
                        instruction=traj.instruction,
                        input_screen_ref=step.screen_ref,
                        history=history + (err_entry,),
                        target_verification=Verification.NO_CHANGE,
                        target_action=step.gt_action,
                        target_effect=step.reference_effect,
                        failure_mode=mode,
                        target_bbox=step.gt_bbox,
                        screen_dims=step.screen_dims,
                    )
                )
    return samples


def build_robustness_bench(
    trajs: Sequence[TrajectoryRecord],
    per_traj: int = 1,
    seed: int = 0,
) -> list[FailureCase]:
    """Create failure-injection cases from sampled steps of each trajectory."""
    if not trajs:
        raise EmptyDatasetError("no trajectories")
    if per_traj < 1:
        raise InvariantViolationError("bench", "per_traj", "must be >= 1")
    cases: list[FailureCase] = []
    for traj in trajs:
        rng = random.Random(stable_seed(seed, "bench", traj.id))
        known = [s.gt_bbox for s in traj.steps if s.gt_bbox is not None]
        count = min(per_traj, len(traj))
        for t in sorted(rng.sample(range(len(traj)), count)):
            step = traj.steps[t]
            mode, err = sample_corruption(step.gt_action, step.gt_bbox, rng, known)
            err_entry = HistoryEntry(err, mismatched_effect(err), Verification.SUCCESS)
            cases.append(
                FailureCase(
                    source=(traj.id, t),
                    instruction=traj.instruction,
                    screen_ref=step.screen_ref,
                    history=_success_history(traj.steps, t) + (err_entry,),
                    gt_recovery=step.gt_action,
                    erroneous=err,
                    mode=mode,
                    gt_bbox=step.gt_bbox,
                    screen_dims=step.screen_dims,
                )
            )
    return cases


# -- serialization -------------------------------------------------------------


def sample_to_json(sample: SyntheticSample) -> dict[str, Any]:
    out: dict[str, Any] = {
        "sample_type": sample.sample_type.value,
        "instruction": sample.instruction,
        "input_screen_ref": sample.input_screen_ref,
        "history": [history_entry_to_json(h) for h in sample.history],
        "target_verification": sample.target_verification.value,
        "target_action": action_to_json(sample.target_action),
        "target_effect": sample.target_effect,
    }
    if sample.failure_mode is not None:
        out["failure_mode"] = sample.failure_mode.value
    if sample.target_bbox is not None:
        out["target_bbox"] = [round_coord(v) for v in sample.target_bbox]
    if sample.screen_dims is not None:
        out["screen_dims"] = list(sample.screen_dims)
    return out


def sample_from_json(obj: Mapping[str, Any]) -> SyntheticSample:
    return SyntheticSample(
        sample_type=SampleType(obj["sample_type"]),
        instruction=str(obj["instruction"]),
        input_screen_ref=str(obj["input_screen_ref"]),
        history=tuple(history_entry_from_json(h) for h in obj["history"]),
        target_verification=Verification(obj["target_verification"]),
        target_action=action_from_json(obj["target_action"]),
        target_effect=str(obj["target_effect"]),
        failure_mode=FailureMode(obj["failure_mode"]) if obj.get("failure_mode") else None,
        target_bbox=tuple(obj["target_bbox"]) if obj.get("target_bbox") is not None else None,
        screen_dims=tuple(obj["screen_dims"]) if obj.get("screen_dims") is not None else None,
    )


def failure_case_to_json(case: FailureCase) -> dict[str, Any]:
    out: dict[str, Any] = {
        "source": [case.source[0], case.source[1]],
        "instruction": case.instruction,
        "screen_ref": case.screen_ref,
        "history": [history_entry_to_json(h) for h in case.history],
        "gt_recovery": action_to_json(case.gt_recovery),
        "erroneous": action_to_json(case.erroneous),
        "mode": case.mode.value,
    }
    if case.gt_bbox is not None:
        out["gt_bbox"] = [round_coord(v) for v in case.gt_bbox]
    if case.screen_dims is not None:
        out["screen_dims"] = list(case.screen_dims)
    return out


def failure_case_from_json(obj: Mapping[str, Any]) -> FailureCase:
    return FailureCase(
        source=(str(obj["source"][0]), int(obj["source"][1])),
        instruction=str(obj["instruction"]),
        screen_ref=str(obj["screen_ref"]),
        history=tuple(history_entry_from_json(h) for h in obj["history"]),
        gt_recovery=action_from_json(obj["gt_recovery"]),
        erroneous=action_from_json(obj["erroneous"]),
        mode=FailureMode(obj["mode"]),
        gt_bbox=tuple(obj["gt_bbox"]) if obj.get("gt_bbox") is not None else None,
        screen_dims=tuple(obj["screen_dims"]) if obj.get("screen_dims") is not None else None,
    )

