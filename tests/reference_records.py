"""Reference record readers and writers: the original per-value code.

Kept verbatim in behaviour (one `number` call per JSON value, one `Enum(raw)`
call per token, an `isinstance(obj, Mapping)` per action, a generator per
`<= 0` log-prob check, `.value` and `round_coord` per written value) so the
bulk readers and writers of `tvae_harness` can be checked against it for
equal records, equal JSON objects and identical errors.  The one rule the
bulk readers add is that a `screen_dims` component lies within the float
range; this module accepts such a line as the original did.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from tvae_harness.agent_bus import WIRE_SCHEMA_VERSION, Observation
from tvae_harness.errors import DataError
from tvae_harness.failure_forge import FailureCase, FailureMode, SampleType, SyntheticSample
from tvae_harness.grpo_core import GroupOutput
from tvae_harness.reward_engine import RewardBreakdown
from tvae_harness.sim_engine import AttemptLog, CaseResult, SimTrace
from tvae_harness.trajectory_store import (
    ActionKind,
    ActionRecord,
    ScrollDirection,
    StepRecord,
    TrajectoryRecord,
    check_box_and_dims,
    normalize_action,
    round_coord,
)
from tvae_harness.tvae_codec import HistoryEntry, Verification

_NAMES = {str: "string", int: "integer", bool: "boolean", list: "list"}


def json_value(obj: Mapping[str, Any], key: str, kind: type, subject: str) -> Any:
    value = obj[key]
    if type(value) is not kind:
        raise DataError(f"{subject}: invalid {key} (must be a JSON {_NAMES[kind]}, got {value!r})")
    return value


def number(raw: Any) -> float | None:
    if type(raw) not in (int, float):
        return None
    try:
        return float(raw)
    except OverflowError:
        return None


def coordinate_pair(raw: Any) -> tuple[float, float] | None:
    ok = isinstance(raw, (list, tuple)) and len(raw) == 2
    x, y = (number(raw[0]), number(raw[1])) if ok else (None, None)
    return (x, y) if x is not None and y is not None else None


# -- dataset -------------------------------------------------------------------

_ACTION_FIELDS = {"kind", "coordinate", "direction", "text", "seconds"}


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


def bbox_from_json(obj, key, dims, subject):
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


def screen_dims_from_json(obj, subject):
    raw = obj.get("screen_dims")
    if raw is not None and not (isinstance(raw, list) and all(type(v) is int for v in raw)):
        raise DataError(f"{subject}: invalid screen_dims (must be JSON integers, got {raw!r})")
    check_box_and_dims(subject, "screen_dims", None, raw)
    return None if raw is None else (raw[0], raw[1])


def _step_from_json(obj, traj_id):
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


# -- history, samples and cases ---------------------------------------------------


def history_entry_to_json(entry: HistoryEntry) -> dict[str, Any]:
    return {
        "action": action_to_json(entry.action),
        "expected_effect": entry.expected_effect,
        "verification": entry.verification.value,
    }


def history_entry_from_json(obj, dims):
    return HistoryEntry(
        action=normalize_action(action_from_json(obj["action"]), dims),
        expected_effect=json_value(obj, "expected_effect", str, "history"),
        verification=Verification(obj["verification"]),
    )


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
    dims = screen_dims_from_json(obj, "sample")
    history = json_value(obj, "history", list, "sample")
    sample = SyntheticSample(
        sample_type=SampleType(obj["sample_type"]),
        instruction=json_value(obj, "instruction", str, "sample"),
        input_screen_ref=json_value(obj, "input_screen_ref", str, "sample"),
        history=tuple(history_entry_from_json(h, dims) for h in history),
        target_action=normalize_action(action_from_json(obj["target_action"]), dims),
        target_effect=json_value(obj, "target_effect", str, "sample"),
        failure_mode=FailureMode(obj["failure_mode"]) if "failure_mode" in obj else None,
        target_bbox=bbox_from_json(obj, "target_bbox", dims, "sample"),
        screen_dims=dims,
    )
    target = sample.target_verification
    if obj["target_verification"] != target.value:
        kind = "A" if target is Verification.SUCCESS else "B"
        raise DataError(f"sample: invalid target_verification (type {kind} => {target.value})")
    return sample


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
        mode=FailureMode(obj["mode"]),
        gt_bbox=bbox_from_json(obj, "gt_bbox", dims, "failure_case"),
        screen_dims=dims,
    )
    if normalize_action(action_from_json(obj["erroneous"]), dims) != case.erroneous:
        raise DataError("failure_case: invalid history (last entry must be erroneous)")
    return case


def case_result_to_json(case: FailureCase, result: CaseResult) -> dict[str, Any]:
    return {
        "source": list(case.source),
        "repeated": result.repeated,
        "recovered": result.recovered,
        "issued": None if result.issued is None else result.issued.kind.value,
    }


def reward_to_json(b: RewardBreakdown) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "r_act": b.r_act,
        "r_eff": b.r_eff,
        "r_ver": b.r_ver,
        "total": b.total,
        "similarity": "token-f1",
    }
    if b.parse_error is not None:
        obj["parse_error"] = b.parse_error
    return obj


def observation_to_json(obs: Observation) -> dict[str, Any]:
    return {
        "schema_version": WIRE_SCHEMA_VERSION,
        "instruction": obs.instruction,
        "screen_ref": obs.screen_ref,
        "history": [history_entry_to_json(h) for h in obs.history],
        "budget_remaining": obs.step_budget_remaining,
    }


# -- group outputs --------------------------------------------------------------------

_LOGPROB_TOL = 1e-9


def group_output(**fields: Any) -> GroupOutput:
    """A `GroupOutput` checked by the original per-value rules, built without
    running the record's own check."""
    new, old, ref = fields["logprobs_new"], fields["logprobs_old"], fields["logprobs_ref"]
    n = len(new)
    if n < 1:
        raise DataError("output must have at least one token")
    if len(old) != n or len(ref) != n:
        raise DataError(f"log-prob lengths differ: {n}/{len(old)}/{len(ref)}")
    for seq in (new, old, ref):
        if any(v > _LOGPROB_TOL for v in seq):
            raise DataError("group_output: invalid logprobs (must be <= 0)")
    for dist in (fields.get("dist_new"), fields.get("dist_ref")):
        if dist is not None and len(dist) != n:
            raise DataError("distribution rows must align with tokens")
    out = object.__new__(GroupOutput)
    for name in GroupOutput.__slots__:
        setattr(out, name, fields.get(name))
    return out


def group_output_from_json(obj: Mapping[str, Any], reward: float | None = None) -> GroupOutput:
    if "reward" not in obj and reward is None:
        raise DataError("group_output: invalid reward (missing and no fallback)")
    return group_output(
        reward=_finite([obj.get("reward", reward)], "reward")[0],
        logprobs_new=_finite_list(obj, "logprobs_new"),
        logprobs_old=_finite_list(obj, "logprobs_old"),
        logprobs_ref=_finite_list(obj, "logprobs_ref"),
        dist_new=_dist_from_json(obj, "dist_new"),
        dist_ref=_dist_from_json(obj, "dist_ref"),
    )


def _finite(raw, key):
    floats = tuple(map(number, raw))
    if None in floats or not all(map(math.isfinite, floats)):
        raise DataError(f"group_output: invalid {key} (must be finite JSON numbers, got {raw!r})")
    return floats


def _finite_list(obj, key):
    return _finite(json_value(obj, key, list, "group_output"), key)


def _dist_from_json(obj, key):
    if obj.get(key) is None:
        return None
    return tuple(_finite(row, key) for row in json_value(obj, key, list, "group_output"))


# -- traces -------------------------------------------------------------------------


def _issued_to_json(action):
    if action is None:
        return None
    obj = action_to_json(action)
    if action.in_pixels():
        obj["coordinate_space"] = "pixel"
    return obj


def _issued_from_json(obj):
    if obj is None:
        return None
    if type(obj) is not dict:
        raise DataError(f"issued: invalid action (must be a JSON object or null, got {obj!r})")
    obj = dict(obj)
    space = obj.pop("coordinate_space", "relative")
    action = action_from_json(obj)
    rounded_to_one = space == "pixel" and 1.0 in (action.coordinate or ())
    if space != ("pixel" if action.in_pixels() else "relative") and not rounded_to_one:
        raise DataError(f"issued: invalid coordinate_space ({space!r} is not its coordinate's)")
    return action


def trace_to_json(trace: SimTrace) -> dict[str, Any]:
    return {
        "trajectory_id": trace.trajectory_id,
        "outcome": trace.outcome.value,
        "steps_used": trace.steps_used,
        "t_gt": trace.t_gt,
        "final_cursor": trace.final_cursor,
        "attempts": [
            {
                "attempt": n,
                "gt_step": gt_step,
                "issued": _issued_to_json(a.issued),
                "matched": a.matched,
                "advanced": a.matched,
                "predicted_verification": (
                    a.predicted_verification.value if a.predicted_verification else None
                ),
                "target_verification": target.value,
                "parse_warnings": list(a.parse_warnings),
            }
            for n, (a, (gt_step, target)) in enumerate(zip(trace.attempts, trace.attempt_targets()))
        ],
    }


_DERIVED_ATTEMPT_KEYS = {
    "attempt": "must be its position, {}",
    "gt_step": "must count the matches before it, {}",
    "advanced": "must equal matched",
    "target_verification": "must be {}: SUCCESS first and after a match, NO_CHANGE after a miss",
}
_DERIVED_TRACE_KEYS = {
    "steps_used": "must count the attempts",
    "final_cursor": "must count the matches",
    "outcome": "must follow from the attempts",
}


def _check_derived(tid, written, derived, rules):
    for key, rule in rules.items():
        value = derived[key]
        if type(written[key]) is not type(value) or written[key] != value:
            raise DataError(f"{tid}: invalid {key} ({rule.format(value)})")


def trace_from_json(obj: Mapping[str, Any]) -> SimTrace:
    tid = json_value(obj, "trajectory_id", str, "trace")
    attempts: list[AttemptLog] = []
    for a in obj["attempts"]:
        warnings, predicted = a.get("parse_warnings", []), a.get("predicted_verification")
        if not isinstance(warnings, list) or not all(isinstance(w, str) for w in warnings):
            raise DataError(f"{tid}: invalid parse_warnings (must be a JSON list of strings)")
        log = AttemptLog(
            issued=_issued_from_json(a.get("issued")),
            matched=json_value(a, "matched", bool, tid),
            predicted_verification=Verification(predicted) if predicted is not None else None,
            parse_warnings=tuple(warnings),
        )
        if (log.issued is None) != (predicted is None):
            raise DataError(f"{tid}: invalid issued (null exactly when predicted_verification is)")
        if log.issued is None and log.matched:
            raise DataError(f"{tid}: invalid matched (an attempt that issued nothing cannot match)")
        attempts.append(log)
    trace = SimTrace(tid, json_value(obj, "t_gt", int, tid), tuple(attempts))
    if not max(1, trace.final_cursor) <= trace.t_gt <= trace.steps_used:
        raise DataError(f"{tid}: invalid t_gt (must be in [max(1, final_cursor), steps_used])")
    derived = trace_to_json(trace)
    for written, rebuilt in zip(obj["attempts"], derived["attempts"]):
        _check_derived(tid, written, rebuilt, _DERIVED_ATTEMPT_KEYS)
    _check_derived(tid, obj, derived, _DERIVED_TRACE_KEYS)
    return trace
