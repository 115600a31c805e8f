from __future__ import annotations

from itertools import product

import pytest

from tvae_harness.agent_bus import Observation, ScriptedAgent, Variant, VariantName
from tvae_harness.errors import BudgetExceededError, InvariantViolationError
from tvae_harness.failure_forge import build_robustness_bench
from tvae_harness.records import read_records, write_records
from tvae_harness.sim_engine import (
    Outcome,
    SimConfig,
    SimState,
    episode_budget,
    run_episode,
    run_episodes,
    run_failure_case,
    run_failure_cases,
    trace_from_json,
    trace_to_json,
    transition,
)
from tvae_harness.synthdata import make_dataset
from tvae_harness.trajectory_store import ActionKind, ActionRecord
from tvae_harness.tvae_codec import Verification

from conftest import make_click_step

CFG = SimConfig(seed=42)


def _agent(name: VariantName, **kw) -> ScriptedAgent:
    return ScriptedAgent(Variant(name, **kw))


# -- transition -------------------------------------------------------------------


def _fresh_state(step) -> SimState:
    return SimState(cursor=0, screen_ref=step.screen_ref, history=(), attempts_used=0)


def test_transition_exact_match_advances():
    step = make_click_step(0)
    state, log = transition(
        _fresh_state(step), step.gt_action, step, "s1-next", budget=2
    )
    assert log.matched
    assert state.cursor == 1 and state.screen_ref == "s1-next"
    assert state.attempts_used == 1


def test_transition_mismatch_keeps_screen():
    step = make_click_step(0)
    off = ActionRecord(kind=ActionKind.CLICK, coordinate=(0.5, 0.7))  # outside bbox
    state, log = transition(_fresh_state(step), off, step, "s1-next", budget=2)
    assert not log.matched
    assert state.cursor == 0 and state.screen_ref == step.screen_ref
    assert state.attempts_used == 1


def test_transition_none_action_counts_attempt():
    step = make_click_step(0)
    state, log = transition(_fresh_state(step), None, step, "n", budget=2)
    assert not log.matched
    assert state.attempts_used == 1
    assert state.history == ()


def test_transition_past_budget_is_caller_bug():
    step = make_click_step(0)
    state = SimState(cursor=0, screen_ref="s0", history=(), attempts_used=2)
    with pytest.raises(BudgetExceededError):
        transition(state, step.gt_action, step, "n", budget=2)


def test_attempt_log_invariant():
    # a trace line's derived fields must agree with its attempt log
    (trace,) = run_episodes(make_dataset(1, (2, 2), seed=3), _agent(VariantName.FAIL_K, k=1), CFG)
    assert trace_from_json(trace_to_json(trace)) == trace
    for field, value in (("advanced", True), ("steps_used", 99), ("final_cursor", 0)):
        obj = trace_to_json(trace)
        if field == "advanced":
            obj["attempts"][0]["advanced"] = value  # the first attempt fails
        else:
            obj[field] = value
        with pytest.raises(InvariantViolationError, match=field):
            trace_from_json(obj)


# -- run_episode -------------------------------------------------------------------


def test_oracle_completes_first_try():
    traj = make_dataset(1, (5, 5), seed=2)[0]
    trace = run_episode(traj, _agent(VariantName.ORACLE), CFG)
    assert trace.outcome is Outcome.COMPLETED_FIRST_TRY
    assert trace.steps_used == 5 and trace.t_gt == 5
    assert all(a.matched for a in trace.attempts)
    assert all(
        a.predicted_verification == a.target_verification for a in trace.attempts
    )


def test_loopy_exhausts_budget_at_cursor_zero():
    traj = make_dataset(1, (5, 5), seed=2)[0]
    trace = run_episode(traj, _agent(VariantName.LOOPY), CFG)
    assert trace.outcome is Outcome.BUDGET_EXHAUSTED
    assert trace.steps_used == 10  # ceil(2.0 * 5)
    assert trace.final_cursor == 0


def test_failk1_recovers_at_exact_budget():
    traj = make_dataset(1, (3, 3), seed=9)[0]
    trace = run_episode(traj, _agent(VariantName.FAIL_K, k=1), CFG)
    assert trace.outcome is Outcome.COMPLETED_WITH_RECOVERY
    assert trace.steps_used == 6 and trace.t_gt == 3
    assert trace.steps_used - trace.t_gt == 3
    # alternating verification targets after the first attempt
    targets = [a.target_verification for a in trace.attempts]
    assert targets == [
        Verification.SUCCESS, Verification.NO_CHANGE,
        Verification.SUCCESS, Verification.NO_CHANGE,
        Verification.SUCCESS, Verification.NO_CHANGE,
    ]
    # FailK reports its own failures honestly
    assert all(a.predicted_verification == a.target_verification for a in trace.attempts)


def test_offset_then_correct_behaves_like_failk1():
    traj = make_dataset(1, (4, 4), seed=12)[0]
    trace = run_episode(traj, _agent(VariantName.OFFSET_THEN_CORRECT), CFG)
    assert trace.outcome is Outcome.COMPLETED_WITH_RECOVERY
    assert trace.steps_used == 8


def test_budget_multiplier_ceiling():
    assert episode_budget(SimConfig(budget_multiplier=1.5, seed=0), 3) == 5
    assert episode_budget(CFG, 7) == 14


def test_unparseable_turn_consumes_attempt():
    class GarbageAgent:
        identity = "garbage"
        white_box = False
        max_inflight = ScriptedAgent(Variant(VariantName.ORACLE)).max_inflight

        def turn(self, obs, gt, rng):
            return "complete nonsense with no blocks"

    traj = make_dataset(1, (2, 2), seed=3)[0]
    trace = run_episode(traj, GarbageAgent(), CFG)
    assert trace.outcome is Outcome.BUDGET_EXHAUSTED
    assert trace.steps_used == 4
    assert all(not a.matched and a.issued is None for a in trace.attempts)
    assert all(a.parse_warnings for a in trace.attempts)


def test_idempotent_observations_on_mismatch():
    observed: list[Observation] = []

    class SpyLoopy:
        identity = "spy"
        white_box = True
        max_inflight = ScriptedAgent(Variant(VariantName.LOOPY)).max_inflight

        def __init__(self):
            self._inner = ScriptedAgent(Variant(VariantName.LOOPY))

        def turn(self, obs, gt, rng):
            observed.append(obs)
            return self._inner.turn(obs, gt, rng)

    traj = make_dataset(1, (3, 3), seed=7)[0]
    run_episode(traj, SpyLoopy(), CFG)
    first = observed[0]
    for later in observed[1:]:
        assert later.screen_ref == first.screen_ref  # screens never fabricated
        assert later.instruction == first.instruction
        assert len(later.history) > 0


def test_determinism_across_runs_and_thread_schedules():
    trajs = make_dataset(16, (1, 6), seed=21)
    agent = _agent(VariantName.BERNOULLI, p=0.5)
    serial = run_episodes(trajs, agent, CFG, workers=1)
    threaded = run_episodes(trajs, agent, CFG, workers=8)
    again = run_episodes(trajs, agent, CFG, workers=3)
    assert serial == threaded == again


def test_budget_invariant_over_random_agents():
    trajs = make_dataset(30, (1, 5), seed=33)
    agent = _agent(VariantName.BERNOULLI, p=0.3)
    for trace in run_episodes(trajs, agent, CFG):
        budget = episode_budget(CFG, trace.t_gt)
        assert trace.steps_used <= budget
        if trace.steps_used == budget:
            assert trace.outcome is Outcome.BUDGET_EXHAUSTED or trace.final_cursor == trace.t_gt
        else:
            assert trace.outcome is not Outcome.BUDGET_EXHAUSTED


def bernoulli_completion_probability(t: int, p: float) -> float:
    """Independent oracle: enumerate every attempt-outcome sequence."""
    budget = 2 * t
    total = 0.0
    for seq in product((True, False), repeat=budget):
        cursor = 0
        for ok in seq:
            if cursor >= t:
                break
            if ok:
                cursor += 1
        if cursor >= t:
            weight = 1.0
            for ok in seq:
                weight *= p if ok else (1 - p)
            total += weight
    return total


def test_bernoulli_analytic_distribution_t2():
    # exhaustive enumeration gives 11/16 for T=2, p=0.5
    assert bernoulli_completion_probability(2, 0.5) == pytest.approx(11 / 16)
    trajs = make_dataset(4000, (2, 2), seed=77)
    traces = run_episodes(trajs, _agent(VariantName.BERNOULLI, p=0.5), CFG, workers=4)
    sim_tsr = sum(t.outcome is not Outcome.BUDGET_EXHAUSTED for t in traces) / len(traces)
    assert sim_tsr == pytest.approx(11 / 16, abs=0.03)


def test_bernoulli_enumeration_equals_binomial_tail():
    # early stopping only truncates sequences, so completion within budget
    # equals "at least T successes among 2T independent draws"
    import math as _math

    for t in (1, 2, 3, 4):
        for p in (0.3, 0.5, 0.7):
            tail = sum(
                _math.comb(2 * t, k) * p**k * (1 - p) ** (2 * t - k)
                for k in range(t, 2 * t + 1)
            )
            assert bernoulli_completion_probability(t, p) == pytest.approx(tail, abs=1e-12)


# -- run_failure_case ---------------------------------------------------------------


def _bench(seed=5):
    trajs = make_dataset(8, (2, 5), seed=seed)
    return build_robustness_bench(trajs, per_traj=2, seed=seed)


def test_loopy_repeats_never_recovers():
    for case in _bench():
        res = run_failure_case(case, _agent(VariantName.LOOPY), CFG)
        assert res.repeated and not res.recovered


def test_oracle_recovers_never_repeats():
    for case in _bench():
        res = run_failure_case(case, _agent(VariantName.ORACLE), CFG)
        assert res.recovered and not res.repeated


def test_unrelated_action_counts_toward_neither():
    class ThirdWay:
        identity = "third"
        white_box = False
        max_inflight = ScriptedAgent(Variant(VariantName.ORACLE)).max_inflight

        def turn(self, obs, gt, rng):
            return (
                "<think>\n[Verify] Unchanged.\n[Diagnose] Failed.\n[Recovery] Try back.\n</think>\n"
                "<verification>NO_CHANGE</verification>\n"
                '<action>{"action": "navigate_back"}</action>\n'
                "<expected_effect>The previous screen returns.</expected_effect>"
            )

    for case in _bench():
        if case.gt_recovery.kind is ActionKind.NAVIGATE_BACK:
            continue
        if case.erroneous.kind is ActionKind.NAVIGATE_BACK:
            continue
        res = run_failure_case(case, ThirdWay(), CFG)
        assert not res.repeated and not res.recovered


def test_failure_cases_parallel_deterministic():
    cases = _bench(seed=9)
    agent = _agent(VariantName.ORACLE)
    assert run_failure_cases(cases, agent, CFG, workers=6) == run_failure_cases(
        cases, agent, CFG, workers=1
    )


def test_pixel_answering_agent_normalized_via_case_dims():
    from dataclasses import replace as dc_replace

    from tvae_harness.tvae_codec import emit_action_json
    from tvae_harness.trajectory_store import CoordinateSpace

    class PixelEcho:
        """Echoes the erroneous action back in raw pixel coordinates."""

        identity = "pixel-echo"
        white_box = False
        max_inflight = ScriptedAgent(Variant(VariantName.ORACLE)).max_inflight

        def __init__(self, dims):
            self.dims = dims

        def turn(self, obs, gt, rng):
            a = obs.history[-1].action
            x, y = a.coordinate
            px = ActionRecord(
                kind=a.kind,
                coordinate=(round(x * self.dims[0]), round(y * self.dims[1])),
                coordinate_space=CoordinateSpace.PIXEL,
            )
            return (
                "<think>\n[Verify] Still stuck.\n</think>\n"
                "<verification>SUCCESS</verification>\n"
                f"<action>{emit_action_json(px)}</action>\n"
                "<expected_effect>The screen changes.</expected_effect>"
            )

    dims = (1080, 2400)
    for case in _bench(seed=17):
        if case.erroneous.kind not in (ActionKind.CLICK,):
            continue
        case = dc_replace(case, screen_dims=dims)
        res = run_failure_case(case, PixelEcho(dims), CFG)
        # rounding to whole pixels stays far inside the repeat epsilon
        assert res.repeated and not res.recovered


# -- trace serialization ---------------------------------------------------------------


def test_trace_json_round_trip(tmp_path):
    trajs = make_dataset(6, (1, 4), seed=13)
    traces = run_episodes(trajs, _agent(VariantName.FAIL_K, k=1), CFG)
    for t in traces:
        assert trace_from_json(trace_to_json(t)) == t
    path = tmp_path / "traces.jsonl"
    write_records(path, (trace_to_json(t) for t in traces))
    assert read_records(path, trace_from_json, "trace") == traces
