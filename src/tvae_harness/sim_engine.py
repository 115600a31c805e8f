"""Pseudo-online episode loop built on failure idempotency.

A matching action advances the simulated screen to the recorded next one; a
mismatch (including an unparseable turn) returns the unchanged screen and
burns one attempt.  Episodes stop on completion or when the attempt budget
(ceil of budget_multiplier times ground-truth length) runs out.  Because
wrong actions never mutate state, recorded offline trajectories stand in for
a live environment.

A trace keeps only what the run decided: each attempt's issued action, match
flag, predicted verification and parse warnings.  Its ground-truth steps,
verification targets, step count, final cursor and outcome follow from the
match flags and are computed by `SimTrace`; the trace reader re-derives them
and refuses a line whose written values disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from random import Random
from typing import Any, Callable, Iterator, Mapping, Sequence

from .agent_bus import AgentHandle, Observation, Rng
from .errors import DataError
from .failure_forge import FailureCase
from .records import json_value, member
from .reward_engine import actions_approx_equal, ground, match_action
from .seeding import stable_seed
from .trajectory_store import (
    ActionRecord,
    StepRecord,
    TrajectoryRecord,
    action_from_json,
    action_line,
)
from .tvae_codec import VERIFICATIONS, HistoryEntry, TvaeOutput, Verification, parse_tvae


# Every attempt copies the episode history, so an episode costs time
# quadratic in its budget; this bound keeps a looping agent's run short.
MAX_BUDGET_MULTIPLIER = 100.0


@dataclass(slots=True)
class SimConfig:
    budget_multiplier: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.budget_multiplier <= MAX_BUDGET_MULTIPLIER:
            raise DataError(
                f"sim_config: invalid budget_multiplier (must be in [1, {MAX_BUDGET_MULTIPLIER:g}])"
            )


def episode_budget(cfg: SimConfig, t_gt: int) -> int:
    return math.ceil(cfg.budget_multiplier * t_gt)


@dataclass(slots=True)
class AttemptLog:
    issued: ActionRecord | None
    matched: bool  # a match is what advances the episode
    predicted_verification: Verification | None
    parse_warnings: tuple[str, ...] = ()


class Outcome(str, Enum):
    COMPLETED_FIRST_TRY = "completed_first_try"
    COMPLETED_WITH_RECOVERY = "completed_with_recovery"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(slots=True)
class SimTrace:
    trajectory_id: str
    t_gt: int
    attempts: tuple[AttemptLog, ...]

    @property
    def steps_used(self) -> int:
        return len(self.attempts)

    @property
    def final_cursor(self) -> int:
        return sum(a.matched for a in self.attempts)

    @property
    def outcome(self) -> Outcome:
        return self.outcome_given(self.final_cursor)

    def outcome_given(self, matches: int) -> Outcome:
        """The outcome when `matches` of the attempts matched: completed once
        `t_gt` attempts matched, and on the first try when no attempt missed."""
        if matches < self.t_gt:
            return Outcome.BUDGET_EXHAUSTED
        if matches == len(self.attempts):
            return Outcome.COMPLETED_FIRST_TRY
        return Outcome.COMPLETED_WITH_RECOVERY

    def attempt_targets(self) -> Iterator[tuple[int, Verification]]:
        """Each attempt's ground-truth step (the matches before it) and
        verification target: SUCCESS first and after a match, NO_CHANGE after
        a miss, so honesty is audited without dataset labels."""
        gt_step, target = 0, Verification.SUCCESS
        for a in self.attempts:
            yield gt_step, target
            gt_step += a.matched
            target = Verification.SUCCESS if a.matched else Verification.NO_CHANGE


def transition(
    history: tuple[HistoryEntry, ...],
    issued: ActionRecord | None,
    gt: StepRecord,
    turn: TvaeOutput | None = None,
    parse_warnings: tuple[str, ...] = (),
) -> tuple[tuple[HistoryEntry, ...], AttemptLog]:
    """Decide one attempt at step `gt` under the idempotent transition rule.

    Match: the episode advances, and with it the screen.  Mismatch: the
    screen is unchanged.  Either way the attempt is consumed, and `turn`
    supplies the effect text and verification of the entry appended to
    `history`; a None `issued` (unparseable turn) appends none.
    """
    matched = issued is not None and match_action(issued, gt.gt_action, gt.gt_bbox)
    if turn is not None and issued is not None:
        effect = turn.expected_effect or "(no effect stated)"
        history = history + (HistoryEntry(issued, effect, turn.verification),)
    predicted = turn.verification if turn is not None else None
    return history, AttemptLog(issued, matched, predicted, parse_warnings)


def _interpret(
    raw: str, dims: tuple[int, int] | None
) -> tuple[TvaeOutput | None, ActionRecord | None, tuple[str, ...]]:
    """`parse_tvae` plus `ground` with the screen size `dims`.

    A turn that does not parse (a `DataError`) is an unparseable turn: no
    action, one warning.  An action whose coordinate cannot be converted
    keeps its raw space and gains a warning; it then never matches or
    repeats.  Any other exception is a harness bug and propagates.
    """
    try:
        turn = parse_tvae(raw)
    except DataError as exc:
        return None, None, (f"unparseable turn: {exc}",)
    action, problem = ground(turn.action, dims)
    return turn, action, turn.warnings if problem is None else (*turn.warnings, problem)


def _seeded_on_first_draw(*parts: object) -> Rng:
    """A turn's `rng`: the generator of `stable_seed(*parts)`, made at the
    first call, so an agent that never draws never pays for seeding it."""
    rng: Random | None = None

    def draws() -> Random:
        nonlocal rng
        if rng is None:
            rng = Random(stable_seed(*parts))
        return rng

    return draws


def run_episode(traj: TrajectoryRecord, agent: AgentHandle, cfg: SimConfig) -> SimTrace:
    """Drive one agent through one trajectory under the transition rule.  The
    episode's position is its attempt log: `cursor` counts the matches in `logs`.
    Its turns draw from one generator, seeded on the first draw."""
    t_gt = len(traj.steps)
    budget = episode_budget(cfg, t_gt)
    rng = _seeded_on_first_draw(cfg.seed, "episode", traj.id)
    cursor, history = 0, ()
    logs: list[AttemptLog] = []
    while cursor < t_gt and len(logs) < budget:
        gt = traj.steps[cursor]
        obs = Observation(
            instruction=traj.instruction,
            screen_ref=gt.screen_ref,
            history=history,
            step_budget_remaining=budget - len(logs),
        )
        raw = agent.turn(obs, gt if agent.white_box else None, rng)
        turn, action, warnings = _interpret(raw, gt.screen_dims)
        history, log = transition(history, action, gt, turn=turn, parse_warnings=warnings)
        logs.append(log)
        cursor += log.matched
    return SimTrace(trajectory_id=traj.id, t_gt=t_gt, attempts=tuple(logs))


@dataclass(slots=True)
class CaseResult:
    repeated: bool
    recovered: bool
    issued: ActionRecord | None


def run_failure_case(case: FailureCase, agent: AgentHandle, cfg: SimConfig) -> CaseResult:
    """Probe one failure slice with a single-turn query, whose generator is
    seeded on its first draw (a loopy agent, which re-issues the failed
    action, never draws).

    `repeated` flags a near-identical re-issue of the erroneous action;
    `recovered` flags a match against the ground-truth recovery.  A valid
    case makes these mutually exclusive.
    """
    obs = Observation(
        instruction=case.instruction,
        screen_ref=case.screen_ref,
        history=case.history,
        step_budget_remaining=1,
    )
    gt_step = None
    if agent.white_box:  # only a white-box agent is shown the step it probes
        gt_step = StepRecord(
            index=case.source[1],
            screen_ref=case.screen_ref,
            gt_action=case.gt_recovery,
            reference_effect="The correct target responds and the screen moves on.",
            screen_dims=case.screen_dims,
            gt_bbox=case.gt_bbox,
        )
    rng = _seeded_on_first_draw(cfg.seed, "case", case.source[0], case.source[1])
    raw = agent.turn(obs, gt_step, rng)
    _, action, _ = _interpret(raw, case.screen_dims)
    repeated = actions_approx_equal(action, case.erroneous)
    recovered = match_action(action, case.gt_recovery, case.gt_bbox)
    return CaseResult(repeated=repeated, recovered=recovered, issued=action)


def _run_all(
    run: Callable[[Any, AgentHandle, SimConfig], Any],
    items: Sequence[Any],
    agent: AgentHandle,
    cfg: SimConfig,
    workers: int,
) -> list[Any]:
    """`run(item, agent, cfg)` for every item, results in input order.

    Runs on `min(workers, agent.max_inflight, len(items))` threads, or
    serially in the calling thread when that is at most one.
    """
    threads = min(workers, agent.max_inflight, len(items))
    if threads <= 1:
        return [run(item, agent, cfg) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # only a threaded run loads it

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda item: run(item, agent, cfg), items))


def run_episodes(
    trajs: Sequence[TrajectoryRecord],
    agent: AgentHandle,
    cfg: SimConfig,
    workers: int = 1,
) -> list[SimTrace]:
    """Run every trajectory; results keep input order regardless of schedule."""
    return _run_all(run_episode, trajs, agent, cfg, workers)


def run_failure_cases(
    cases: Sequence[FailureCase],
    agent: AgentHandle,
    cfg: SimConfig,
    workers: int = 1,
) -> list[CaseResult]:
    return _run_all(run_failure_case, cases, agent, cfg, workers)


# -- serialization ---------------------------------------------------------------


def _issued_line(action: ActionRecord) -> str:
    """An issued action in trace schema v1: its dataset form, plus
    `"coordinate_space": "pixel"` when its unrounded coordinate is pixels."""
    line = action_line(action)
    return line[:-1] + ',"coordinate_space":"pixel"}' if action.in_pixels() else line


def _issued_from_json(obj: Any) -> ActionRecord | None:
    """An `issued` as `trace_line` writes it: null or a JSON object.  A
    `coordinate_space` key other than the one its coordinate's magnitude gives
    is a bad line, but `"pixel"` also goes with a 1.0, which a pixel component
    below 1.0000005 is written as."""
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


def trace_line(trace: SimTrace) -> str:
    """Trace schema v1 as `json.dumps(obj, separators=(",", ":"))` writes it,
    with no dict tree: the decided values plus every value derived from them."""
    attempts = []
    gt_step, target = 0, "SUCCESS"  # as `attempt_targets` derives them, in this pass
    for n, a in enumerate(trace.attempts):
        issued = "null" if a.issued is None else _issued_line(a.issued)
        matched = "true" if a.matched else "false"
        predicted = f'"{a.predicted_verification._value_}"' if a.predicted_verification else "null"
        warnings = ",".join(map(_json_str, a.parse_warnings)) if a.parse_warnings else ""
        attempts.append(
            f'{{"attempt":{n},"gt_step":{gt_step},"issued":{issued},'
            f'"matched":{matched},"advanced":{matched},"predicted_verification":{predicted},'
            f'"target_verification":"{target}","parse_warnings":[{warnings}]}}'
        )
        gt_step += a.matched
        target = "SUCCESS" if a.matched else "NO_CHANGE"
    outcome = trace.outcome_given(gt_step)._value_
    return (
        f'{{"trajectory_id":{_json_str(trace.trajectory_id)},"outcome":"{outcome}",'
        f'"steps_used":{len(attempts)},"t_gt":{trace.t_gt},"final_cursor":{gt_step},'
        f'"attempts":[{",".join(attempts)}]}}'
    )


def case_result_line(case: FailureCase, result: CaseResult) -> str:
    """A `case_results.jsonl` line, as `trace_line` writes a trace: the case's
    source, its two flags and the issued action's kind (null if none)."""
    issued = "null" if result.issued is None else f'"{result.issued.kind._value_}"'
    return (
        f'{{"source":[{_json_str(case.source[0])},{case.source[1]!r}],'
        f'"repeated":{"true" if result.repeated else "false"},'
        f'"recovered":{"true" if result.recovered else "false"},"issued":{issued}}}'
    )


# What each derived key of a trace line must be, in the order `trace_from_json` derives
# their values; `{}` is the derived value.
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


def _check_derived(
    tid: str, written: Mapping[str, Any], derived: tuple[Any, ...], rules: Mapping[str, str]
) -> None:
    for (key, rule), value in zip(rules.items(), derived):
        if type(written[key]) is not type(value) or written[key] != value:
            raise DataError(f"{tid}: invalid {key} ({rule.format(value)})")


def trace_from_json(obj: Mapping[str, Any]) -> SimTrace:
    """A trace line.  Only the decided values are read: `trajectory_id`,
    `t_gt` and each attempt's `issued`, `matched` (a JSON boolean),
    `predicted_verification` (null or a verification token) and
    `parse_warnings` (a list of strings).  `t_gt` must lie in
    [max(1, final_cursor), steps_used] (an episode ends once `t_gt` attempts
    matched, and its budget is at least `t_gt`).  Every derived key must then
    equal, with its JSON type, the one `trace_line` writes.  An attempt
    whose turn did not parse issued nothing: its `issued` is null exactly
    when its `predicted_verification` is, and then it did not match."""
    tid = json_value(obj, "trajectory_id", str, "trace")
    attempts: list[AttemptLog] = []
    for a in obj["attempts"]:
        warnings, predicted = a.get("parse_warnings", []), a.get("predicted_verification")
        if not isinstance(warnings, list) or not all(map(isinstance, warnings, repeat(str))):
            raise DataError(f"{tid}: invalid parse_warnings (must be a JSON list of strings)")
        log = AttemptLog(
            issued=_issued_from_json(a.get("issued")),
            matched=json_value(a, "matched", bool, tid),
            predicted_verification=(
                member(VERIFICATIONS, predicted, Verification) if predicted is not None else None
            ),
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
    targets = zip(obj["attempts"], trace.attempts, trace.attempt_targets())
    for n, (written, a, (gt_step, target)) in enumerate(targets):
        _check_derived(tid, written, (n, gt_step, a.matched, target._value_), _DERIVED_ATTEMPT_KEYS)
    derived = (trace.steps_used, trace.final_cursor, trace.outcome._value_)
    _check_derived(tid, obj, derived, _DERIVED_TRACE_KEYS)
    return trace
