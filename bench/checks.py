"""Correctness checks on the outputs of one benchmark run.

Each check reads the files a command wrote and compares them with what the
benchmark's own inputs imply, using only `json`, `math` and `numpy`; none of
it calls the package under test.  A check returns a list of error strings
(empty when the outputs are correct).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from inputs import group_sizes, read_jsonl

DELTA = 0.14
BUDGET_MULTIPLIER = 2.0
FAILURE_MODES = {
    "coordinate_offset", "action_type_error", "target_misidentification",
    "timing_error", "null_click",
}
MAX_ERRORS = 5


def digest(paths: list[Path]) -> str:
    """sha256 over the named files' names and bytes, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def normalized_step(step: dict[str, Any]) -> dict[str, Any]:
    """A dataset step with pixel coordinates and boxes in relative space,
    rounded to 6 decimals as the dataset format specifies."""
    dims = step.get("screen_dims")
    action = dict(step["gt_action"])
    if "coordinate" in action:
        x, y = action["coordinate"]
        if x > 1.0 or y > 1.0:
            x, y = round(x / dims[0], 6), round(y / dims[1], 6)
        action["coordinate"] = [x, y]
    bbox = step.get("gt_bbox")
    if bbox is not None and any(v > 1.0 for v in bbox):
        w, h = dims
        bbox = [round(bbox[0] / w, 6), round(bbox[1] / h, 6),
                round(bbox[2] / w, 6), round(bbox[3] / h, 6)]
    return {"action": action, "bbox": bbox, "dims": dims}


def matches(pred: dict[str, Any] | None, gt: dict[str, Any], bbox: list[float] | None) -> bool:
    """The documented match rule, on dataset-form relative actions."""
    if pred is None or pred["kind"] != gt["kind"]:
        return False
    kind = gt["kind"]
    if kind in ("click", "long_press"):
        x, y = pred["coordinate"]
        if bbox is not None:
            return bbox[0] <= x <= bbox[2] and bbox[1] <= y <= bbox[3]
        gx, gy = gt["coordinate"]
        return math.hypot(x - gx, y - gy) <= DELTA
    if kind == "scroll":
        return pred["direction"] == gt["direction"]
    if kind in ("input_text", "open_app"):
        return pred["text"].strip().casefold() == gt["text"].strip().casefold()
    return True


def same_action(a: dict[str, Any], b: dict[str, Any]) -> bool:
    if a.keys() != b.keys():
        return False
    for key, value in a.items():
        if key == "coordinate":
            if any(abs(p - q) > 1e-9 for p, q in zip(value, b[key])):
                return False
        elif value != b[key]:
            return False
    return True


class Errors(list):
    def add(self, message: str) -> None:
        if len(self) < MAX_ERRORS:
            self.append(message)
        elif len(self) == MAX_ERRORS:
            self.append("... further errors suppressed")


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- simulate ---------------------------------------------------------------------


def check_traces(
    trajs: list[dict[str, Any]], out: Path, plan: dict[str, list[int]] | None = None
) -> tuple[Errors, int]:
    """Check `simulate` outputs: one trace per trajectory in input order, the
    idempotent transition rule attempt by attempt, the budget, outcomes, the
    verification targets and report.json's task and step metrics.  With a
    `plan` (remote agent), the exact matched/unmatched sequence is known too.

    Returns the errors and the number of agent turns the traces record."""
    errors = Errors()
    traces = read_jsonl(out / "traces.jsonl")
    if len(traces) != len(trajs):
        errors.add(f"{len(traces)} traces for {len(trajs)} trajectories")
        return errors, 0
    turns = 0
    first_try = completed = 0
    progress = 0.0
    overhead = 0
    tm_hits = sr_hits = predictions = 0
    for traj, trace in zip(trajs, traces):
        tid = traj["id"]
        steps = [normalized_step(s) for s in traj["steps"]]
        size = len(steps)
        budget = math.ceil(BUDGET_MULTIPLIER * size)
        attempts = trace["attempts"]
        turns += len(attempts)
        if trace["trajectory_id"] != tid or trace["t_gt"] != size:
            errors.add(f"{tid}: trace is for {trace['trajectory_id']} / {trace['t_gt']} steps")
            continue
        if trace["steps_used"] != len(attempts) or len(attempts) > budget:
            errors.add(f"{tid}: {len(attempts)} attempts, steps_used {trace['steps_used']}")
        cursor = 0
        prev_matched = None
        seen_steps = set()
        if plan is not None:
            expected = [m for w in plan[tid] for m in [False] * w + [True]]
            if [a["matched"] for a in attempts] != expected:
                errors.add(f"{tid}: matched sequence differs from the agent's plan")
        for n, attempt in enumerate(attempts):
            if attempt["attempt"] != n or attempt["gt_step"] != cursor:
                errors.add(f"{tid}#{n}: attempt/gt_step {attempt['attempt']}/{attempt['gt_step']}")
                break
            want_target = "SUCCESS" if prev_matched in (None, True) else "NO_CHANGE"
            if attempt["target_verification"] != want_target:
                errors.add(f"{tid}#{n}: target verification {attempt['target_verification']}")
            issued = attempt["issued"]
            # Coordinates left in pixel space could not be grounded and cannot match.
            space = issued.get("coordinate_space", "relative") if issued else None
            grounded = issued if space == "relative" else None
            step = steps[cursor]
            if attempt["matched"] != matches(grounded, step["action"], step["bbox"]):
                errors.add(f"{tid}#{n}: matched={attempt['matched']} contradicts the match rule")
            if attempt["advanced"] != attempt["matched"]:
                errors.add(f"{tid}#{n}: advanced differs from matched")
            if cursor not in seen_steps:
                seen_steps.add(cursor)
                predictions += 1
                tm_hits += issued is not None and issued["kind"] == step["action"]["kind"]
                sr_hits += attempt["matched"]
            prev_matched = attempt["matched"]
            cursor += attempt["matched"]
        if trace["final_cursor"] != cursor:
            errors.add(f"{tid}: final_cursor {trace['final_cursor']} != {cursor}")
        if cursor == size:
            outcome = (
                "completed_first_try" if all(a["matched"] for a in attempts)
                else "completed_with_recovery"
            )
            completed += 1
            overhead += len(attempts) - size
        else:
            outcome = "budget_exhausted"
            if len(attempts) != budget:
                errors.add(f"{tid}: stopped after {len(attempts)} of {budget} attempts")
        first_try += outcome == "completed_first_try"
        if trace["outcome"] != outcome:
            errors.add(f"{tid}: outcome {trace['outcome']}, expected {outcome}")
        prefix = 0
        for attempt in attempts:
            if not attempt["matched"]:
                break
            prefix += 1
        progress += prefix / size

    report = json.loads((out / "report.json").read_text())
    n = len(trajs)
    want = {
        "tsr": first_try / n,
        "sim_tsr": completed / n,
        "pg": progress / n,
        "tm": tm_hits / predictions,
        "sr": sr_hits / predictions,
    }
    for key, value in want.items():
        if not _close(float(report[key]), value):
            errors.add(f"report.json {key}={report[key]}, expected {value}")
    aso = overhead / completed if completed else "inf"
    if aso == "inf" and report["aso"] != "inf" or aso != "inf" and not _close(report["aso"], aso):
        errors.add(f"report.json aso={report['aso']}, expected {aso}")
    return errors, turns


# -- synth / bench-robust / score -----------------------------------------------------


def _history_ok(history: list[dict[str, Any]], steps: list[dict[str, Any]], upto: int) -> bool:
    if len(history) < upto:
        return False
    return all(
        same_action(history[t]["action"], steps[t]["action"])
        and history[t]["verification"] == "SUCCESS"
        for t in range(upto)
    )


def check_samples(trajs: list[dict[str, Any]], path: Path, ratio_b: float) -> tuple[Errors, int]:
    """Type A samples mirror every step in order; type B samples (a global
    ratio_b share, rounded half up) follow their step's type A sample and end
    in an erroneous history entry that fails the match rule."""
    errors = Errors()
    samples = read_jsonl(path)
    total = sum(len(t["steps"]) for t in trajs)
    want_b = math.floor(total * ratio_b + 0.5)
    if len(samples) != total + want_b:
        errors.add(f"{len(samples)} samples, expected {total} + {want_b}")
        return errors, len(samples)
    i = 0
    type_b = 0
    for traj in trajs:
        steps = [normalized_step(s) for s in traj["steps"]]
        for t, raw_step in enumerate(traj["steps"]):
            step = steps[t]
            a = samples[i]
            i += 1
            if (
                a["sample_type"] != "type_a"
                or a["input_screen_ref"] != raw_step["screen_ref"]
                or not same_action(a["target_action"], step["action"])
                or a["target_effect"] != raw_step["reference_effect"]
                or len(a["history"]) != t
                or not _history_ok(a["history"], steps, t)
            ):
                errors.add(f"sample {i}: not the type A sample of {raw_step['screen_ref']}")
            if i < len(samples) and samples[i]["sample_type"] == "type_b":
                b = samples[i]
                i += 1
                type_b += 1
                last = b["history"][-1]["action"] if b["history"] else None
                if (
                    b["input_screen_ref"] != raw_step["screen_ref"]
                    or b["target_verification"] != "NO_CHANGE"
                    or b.get("failure_mode") not in FAILURE_MODES
                    or len(b["history"]) != t + 1
                    or not _history_ok(b["history"], steps, t)
                    or matches(last, step["action"], step["bbox"])
                ):
                    errors.add(f"sample {i}: bad type B sample for {raw_step['screen_ref']}")
    if type_b != want_b:
        errors.add(f"{type_b} type B samples, expected {want_b}")
    return errors, len(samples)


def check_robust(trajs: list[dict[str, Any]], out: Path, per_traj: int) -> tuple[Errors, int]:
    """Cases come from real steps, carry an erroneous action that fails the
    match rule, and the loopy agent repeats every one: LR 1, RSR 0."""
    errors = Errors()
    cases = read_jsonl(out / "cases.jsonl")
    results = read_jsonl(out / "case_results.jsonl")
    by_id = {t["id"]: t for t in trajs}
    want = sum(min(per_traj, len(t["steps"])) for t in trajs)
    if len(cases) != want or len(results) != want:
        errors.add(f"{len(cases)} cases / {len(results)} results, expected {want}")
        return errors, len(cases)
    for case, result in zip(cases, results):
        traj_id, t = case["source"]
        traj = by_id.get(traj_id)
        if traj is None or not 0 <= t < len(traj["steps"]):
            errors.add(f"case from unknown step {case['source']}")
            continue
        steps = [normalized_step(s) for s in traj["steps"]]
        step = steps[t]
        if (
            case["screen_ref"] != traj["steps"][t]["screen_ref"]
            or not same_action(case["gt_recovery"], step["action"])
            or case["mode"] not in FAILURE_MODES
            or matches(case["erroneous"], step["action"], step["bbox"])
            or not same_action(case["history"][-1]["action"], case["erroneous"])
            or not _history_ok(case["history"], steps, t)
        ):
            errors.add(f"case {case['source']}: inconsistent with its trajectory")
        if result["source"] != case["source"] or not result["repeated"] or result["recovered"]:
            errors.add(f"case {case['source']}: loopy result {result}")
    report = json.loads((out / "report.json").read_text())
    if report["lr"] != 1.0 or report["rsr"] != 0.0:
        errors.add(f"report.json LR {report['lr']} RSR {report['rsr']}, expected 1.0 / 0.0")
    return errors, len(cases)


def _objective(rewards: list[float], members: list[dict[str, Any]]) -> float:
    """The documented group objective: population-std advantages, clipped
    surrogate (ratio window 0.2), minus 0.05 times the mean k3 KL."""
    r = np.asarray(rewards, dtype=np.float64)
    adv = np.zeros_like(r) if np.all(r == r[0]) else (r - r.mean()) / (r.std() + 1e-8)
    surrogate, kl = [], []
    for a, m in zip(adv, members):
        new = np.asarray(m["logprobs_new"], dtype=np.float64)
        old = np.asarray(m["logprobs_old"], dtype=np.float64)
        ref = np.asarray(m["logprobs_ref"], dtype=np.float64)
        rho = np.exp(new - old)
        surrogate.append(np.minimum(rho * a, np.clip(rho, 0.8, 1.2) * a).mean())
        log_r = ref - new
        kl.append(np.mean(np.exp(log_r) - 1.0 - log_r))
    return float(np.mean(surrogate)) - 0.05 * float(np.mean(kl))


def check_score(
    out: Path, expected: list[dict[str, Any]], groups: list[dict[str, Any]]
) -> tuple[Errors, int]:
    """Each reward matches the one its output was built to earn, and the
    objective of every group matches an independent recomputation."""
    errors = Errors()
    rewards = read_jsonl(out / "rewards.jsonl")
    if len(rewards) != len(expected):
        errors.add(f"{len(rewards)} rewards for {len(expected)} outputs")
        return errors, len(rewards)
    for n, (got, want) in enumerate(zip(rewards, expected), 1):
        if (
            got["r_act"] != want["r_act"]
            or got["r_ver"] != want["r_ver"]
            or not _close(got["r_eff"], want["r_eff"], 1e-12)
            or not _close(got["total"], want["total"], 1e-12)
            or ("parse_error" in got) != want["parse_error"]
        ):
            errors.add(f"rewards line {n}: {got}, expected {want}")
    objective = json.loads((out / "objective.json").read_text())
    sizes = group_sizes(len(expected))
    if len(objective["groups"]) != len(sizes) or len(groups) != len(sizes):
        errors.add(f"{len(objective['groups'])} objective groups, expected {len(sizes)}")
        return errors, len(rewards)
    cursor = 0
    values = []
    for g, (report, group) in enumerate(zip(objective["groups"], groups), 1):
        members = group["outputs"]
        totals = [r["total"] for r in rewards[cursor:cursor + len(members)]]
        cursor += len(members)
        want = _objective(totals, members)
        values.append(want)
        if report["rewards"] != totals or not _close(report["objective"], want, 1e-9):
            errors.add(f"group {g}: objective {report['objective']}, expected {want}")
    if not _close(objective["mean_objective"], sum(values) / len(values), 1e-9):
        errors.add(f"mean_objective {objective['mean_objective']}")
    return errors, len(rewards)
