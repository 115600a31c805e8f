"""Pseudo-online episode loop built on failure idempotency.

A matching action advances the simulated screen to the recorded next one; a
mismatch (including an unparseable turn) returns the unchanged screen and
burns one attempt.  Episodes stop on completion or when the attempt budget
(ceil of budget_multiplier times ground-truth length) runs out.  Because
wrong actions never mutate state, recorded offline trajectories stand in for
a live environment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Mapping, Sequence

from .agent_bus import AgentHandle, Observation
from .errors import DataError
from .failure_forge import FailureCase
from .reward_engine import actions_approx_equal, ground, match_action
from .seeding import stable_seed
from .trajectory_store import (
    ActionRecord,
    CoordinateSpace,
    StepRecord,
    TrajectoryRecord,
    action_from_json,
    action_to_json,
)
from .tvae_codec import HistoryEntry, TvaeOutput, Verification, parse_tvae


# Every attempt copies the episode history, so an episode costs time
# quadratic in its budget; this bound keeps a looping agent's run short.
MAX_BUDGET_MULTIPLIER = 100.0


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SimState:
    cursor: int
    screen_ref: str
    history: tuple[HistoryEntry, ...]
    attempts_used: int


@dataclass(frozen=True)
class AttemptLog:
    attempt: int
    gt_step: int
    issued: ActionRecord | None
    matched: bool  # a match is what advances the episode
    predicted_verification: Verification | None
    target_verification: Verification
    parse_warnings: tuple[str, ...] = ()


class Outcome(str, Enum):
    COMPLETED_FIRST_TRY = "completed_first_try"
    COMPLETED_WITH_RECOVERY = "completed_with_recovery"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class SimTrace:
    trajectory_id: str
    attempts: tuple[AttemptLog, ...]
    outcome: Outcome
    steps_used: int
    t_gt: int
    final_cursor: int


def transition(
    state: SimState,
    issued: ActionRecord | None,
    gt: StepRecord,
    next_screen_ref: str,
    budget: int,
    turn: TvaeOutput | None = None,
    target_verification: Verification = Verification.SUCCESS,
    parse_warnings: tuple[str, ...] = (),
) -> tuple[SimState, AttemptLog]:
    """Apply one attempt under the idempotent transition rule.

    Match: cursor and screen advance.  Mismatch: state unchanged apart from
    the consumed attempt and the appended history entry.  `turn` supplies the
    effect text and verification recorded into history; a None `issued`
    (unparseable turn) consumes the attempt without a history entry.
    """
    if state.attempts_used >= budget:
        raise RuntimeError(f"attempt {state.attempts_used} with budget {budget}")
    if state.cursor != gt.index:
        raise RuntimeError("transition: invalid cursor (state/step mismatch)")
    matched = issued is not None and match_action(issued, gt.gt_action, gt.gt_bbox)
    history = state.history
    if turn is not None and issued is not None:
        history = history + (
            HistoryEntry(issued, turn.expected_effect or "(no effect stated)", turn.verification),
        )
    new_state = SimState(
        cursor=state.cursor + 1 if matched else state.cursor,
        screen_ref=next_screen_ref if matched else state.screen_ref,
        history=history,
        attempts_used=state.attempts_used + 1,
    )
    log = AttemptLog(
        attempt=state.attempts_used,
        gt_step=gt.index,
        issued=issued,
        matched=matched,
        predicted_verification=turn.verification if turn is not None else None,
        target_verification=target_verification,
        parse_warnings=parse_warnings,
    )
    return new_state, log


def _interpret(
    raw: str, dims: tuple[int, int] | None
) -> tuple[TvaeOutput | None, ActionRecord | None, tuple[str, ...]]:
    """Lenient parse plus `ground` with the screen size `dims`.

    A turn that does not parse (a `DataError`) is an unparseable turn: no
    action, one warning.  An action whose coordinate cannot be converted
    keeps its raw space and gains a warning; it then never matches or
    repeats.  Any other exception is a harness bug and propagates.
    """
    try:
        turn = parse_tvae(raw, strict=False)
    except DataError as exc:
        return None, None, (f"unparseable turn: {exc}",)
    action, problem = ground(turn.action, dims)
    return turn, action, turn.warnings if problem is None else (*turn.warnings, problem)


def _outcome(attempts: Sequence[AttemptLog], t_gt: int) -> Outcome:
    """An episode's outcome: completed once `t_gt` attempts matched, and on
    the first try when no attempt missed."""
    matches = sum(a.matched for a in attempts)
    if matches < t_gt:
        return Outcome.BUDGET_EXHAUSTED
    if matches == len(attempts):
        return Outcome.COMPLETED_FIRST_TRY
    return Outcome.COMPLETED_WITH_RECOVERY


def run_episode(traj: TrajectoryRecord, agent: AgentHandle, cfg: SimConfig) -> SimTrace:
    """Drive one agent through one trajectory under the transition rule.

    The verification target for each attempt comes from the simulator's own
    last transition (first attempt counts as SUCCESS), so honesty can be
    audited without dataset labels.
    """
    t_gt = len(traj.steps)
    budget = episode_budget(cfg, t_gt)
    state = SimState(
        cursor=0, screen_ref=traj.steps[0].screen_ref, history=(), attempts_used=0
    )
    rng = random.Random(stable_seed(cfg.seed, "episode", traj.id))
    logs: list[AttemptLog] = []
    while state.cursor < t_gt and state.attempts_used < budget:
        gt = traj.steps[state.cursor]
        target = (
            Verification.SUCCESS if not logs or logs[-1].matched else Verification.NO_CHANGE
        )
        obs = Observation(
            instruction=traj.instruction,
            screen_ref=state.screen_ref,
            history=state.history,
            step_budget_remaining=budget - state.attempts_used,
        )
        raw = agent.turn(obs, gt if agent.white_box else None, rng)
        turn, action, warnings = _interpret(raw, gt.screen_dims)
        state, log = transition(
            state,
            action,
            gt,
            traj.screen_after(gt.index),
            budget,
            turn=turn,
            target_verification=target,
            parse_warnings=warnings,
        )
        logs.append(log)
    return SimTrace(
        trajectory_id=traj.id,
        attempts=tuple(logs),
        outcome=_outcome(logs, t_gt),
        steps_used=state.attempts_used,
        t_gt=t_gt,
        final_cursor=state.cursor,
    )


@dataclass(frozen=True)
class CaseResult:
    repeated: bool
    recovered: bool
    issued: ActionRecord | None


def run_failure_case(case: FailureCase, agent: AgentHandle, cfg: SimConfig) -> CaseResult:
    """Probe one failure slice with a single-turn query.

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
    gt_step = StepRecord(
        index=case.source[1],
        screen_ref=case.screen_ref,
        gt_action=case.gt_recovery,
        reference_effect="The correct target responds and the screen moves on.",
        screen_dims=case.screen_dims,
        gt_bbox=case.gt_bbox,
    )
    rng = random.Random(stable_seed(cfg.seed, "case", case.source[0], case.source[1]))
    raw = agent.turn(obs, gt_step if agent.white_box else None, rng)
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


def _issued_to_json(action: ActionRecord | None) -> dict[str, Any] | None:
    if action is None:
        return None
    obj = action_to_json(action)
    if action.coordinate_space is not CoordinateSpace.RELATIVE:
        obj["coordinate_space"] = action.coordinate_space.value
    return obj


def _issued_from_json(obj: Mapping[str, Any] | None) -> ActionRecord | None:
    if obj is None:
        return None
    obj = dict(obj)
    space = obj.pop("coordinate_space", CoordinateSpace.RELATIVE.value)
    action = action_from_json(obj)
    if space != CoordinateSpace.RELATIVE.value:
        action = replace(action, coordinate_space=CoordinateSpace(space))
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
                "attempt": a.attempt,
                "gt_step": a.gt_step,
                "issued": _issued_to_json(a.issued),
                "matched": a.matched,
                "advanced": a.matched,  # trace schema v1 keeps the key
                "predicted_verification": (
                    a.predicted_verification.value if a.predicted_verification else None
                ),
                "target_verification": a.target_verification.value,
                "parse_warnings": list(a.parse_warnings),
            }
            for a in trace.attempts
        ],
    }


def trace_from_json(obj: Mapping[str, Any]) -> SimTrace:
    """A trace line; its `steps_used` must count its attempts, its
    `final_cursor` their matches, each attempt's `advanced` equal its
    `matched`, its `t_gt` lie in [max(1, final_cursor), steps_used] (an
    episode ends once `t_gt` attempts matched, and its budget is at least
    `t_gt`), and its `outcome` follow from its attempts."""
    trace = SimTrace(
        trajectory_id=str(obj["trajectory_id"]),
        outcome=Outcome(obj["outcome"]),
        steps_used=int(obj["steps_used"]),
        t_gt=int(obj["t_gt"]),
        final_cursor=int(obj["final_cursor"]),
        attempts=tuple(
            AttemptLog(
                attempt=int(a["attempt"]),
                gt_step=int(a["gt_step"]),
                issued=_issued_from_json(a.get("issued")),
                matched=bool(a["matched"]),
                predicted_verification=(
                    Verification(a["predicted_verification"])
                    if a.get("predicted_verification")
                    else None
                ),
                target_verification=Verification(a["target_verification"]),
                parse_warnings=tuple(a.get("parse_warnings", ())),
            )
            for a in obj["attempts"]
        ),
    )
    if any(bool(a["advanced"]) != bool(a["matched"]) for a in obj["attempts"]):
        raise DataError(f"{trace.trajectory_id}: invalid advanced (must equal matched)")
    if trace.steps_used != len(trace.attempts):
        raise DataError(f"{trace.trajectory_id}: invalid steps_used (must count the attempts)")
    if trace.final_cursor != sum(a.matched for a in trace.attempts):
        raise DataError(f"{trace.trajectory_id}: invalid final_cursor (must count the matches)")
    if not max(1, trace.final_cursor) <= trace.t_gt <= trace.steps_used:
        raise DataError(
            f"{trace.trajectory_id}: invalid t_gt (must be in [max(1, final_cursor), steps_used])"
        )
    if trace.outcome is not _outcome(trace.attempts, trace.t_gt):
        raise DataError(f"{trace.trajectory_id}: invalid outcome (must follow from the attempts)")
    return trace
