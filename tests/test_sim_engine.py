from __future__ import annotations

import json
import random
from itertools import product

import pytest
import reference_records as ref

from tvae_harness.agent_bus import Observation, ScriptedAgent, Variant, VariantName
from tvae_harness.errors import DataError
from tvae_harness.failure_forge import build_robustness_bench
from tvae_harness.records import read_records, write_lines
from tvae_harness.sim_engine import (
    AttemptLog,
    Outcome,
    SimConfig,
    SimTrace,
    episode_budget,
    run_episode,
    run_episodes,
    run_failure_case,
    run_failure_cases,
    trace_from_json,
    trace_line,
    transition,
)
from tvae_harness.synthdata import make_dataset
from tvae_harness.trajectory_store import ActionKind, ActionRecord, StepRecord
from tvae_harness.tvae_codec import HistoryEntry, TvaeOutput, Verification

from conftest import make_click_step

CFG = SimConfig(seed=42)


def _agent(name: VariantName, **kw) -> ScriptedAgent:
    return ScriptedAgent(Variant(name, **kw))


# -- transition -------------------------------------------------------------------


def test_transition_exact_match_advances():
    step = make_click_step(0)
    history, log = transition((), step.gt_action, step)
    assert log.matched  # the screen is the next step's
    assert history == ()  # no parsed turn, no entry


def test_transition_mismatch_keeps_screen():
    step = make_click_step(0)
    off = ActionRecord(kind=ActionKind.CLICK, coordinate=(0.5, 0.7))  # outside bbox
    turn = TvaeOutput(Verification.SUCCESS, off, "The button responds.")
    before = (HistoryEntry(step.gt_action, "An earlier step.", Verification.SUCCESS),)
    history, log = transition(before, off, step, turn=turn)
    assert not log.matched  # the screen is unchanged
    assert history == before + (HistoryEntry(off, "The button responds.", Verification.SUCCESS),)


def test_transition_none_action_counts_attempt():
    step = make_click_step(0)
    before = (HistoryEntry(step.gt_action, "An earlier step.", Verification.SUCCESS),)
    history, log = transition(before, None, step)
    assert not log.matched
    assert log.issued is None
    assert history is before


def test_attempt_log_invariant():
    # a trace line's derived fields must agree with its attempt log
    (trace,) = run_episodes(make_dataset(1, (2, 2), seed=3), _agent(VariantName.FAIL_K, k=1), CFG)
    assert trace_from_json(json.loads(trace_line(trace))) == trace
    for field, value in (
        ("advanced", True), ("steps_used", 99), ("final_cursor", 0),
        ("t_gt", 0), ("t_gt", -1), ("t_gt", 1), ("t_gt", 99),  # outside [max(1, 2), 4]
        ("outcome", "completed_first_try"), ("outcome", "budget_exhausted"),
    ):
        obj = json.loads(trace_line(trace))
        if field == "advanced":
            obj["attempts"][0]["advanced"] = value  # the first attempt fails
        else:
            obj[field] = value
        with pytest.raises(DataError, match=f"invalid {field}"):
            trace_from_json(obj)


# -- run_episode -------------------------------------------------------------------


def test_oracle_completes_first_try():
    traj = make_dataset(1, (5, 5), seed=2)[0]
    trace = run_episode(traj, _agent(VariantName.ORACLE), CFG)
    assert trace.outcome is Outcome.COMPLETED_FIRST_TRY
    assert trace.steps_used == 5 and trace.t_gt == 5
    assert all(a.matched for a in trace.attempts)
    assert [a.predicted_verification for a in trace.attempts] == [
        target for _, target in trace.attempt_targets()
    ]


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
    targets = [target for _, target in trace.attempt_targets()]
    assert targets == [
        Verification.SUCCESS, Verification.NO_CHANGE,
        Verification.SUCCESS, Verification.NO_CHANGE,
        Verification.SUCCESS, Verification.NO_CHANGE,
    ]
    # FailK reports its own failures honestly
    assert [a.predicted_verification for a in trace.attempts] == targets


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


class _Spy:
    """A scripted agent that keeps every observation it is shown."""

    identity = "spy"
    white_box = True
    max_inflight = 1

    def __init__(self, variant: Variant):
        self._inner = ScriptedAgent(variant)
        self.observed: list[Observation] = []

    def turn(self, obs, gt, rng):
        self.observed.append(obs)
        return self._inner.turn(obs, gt, rng)


def test_idempotent_observations_on_mismatch():
    traj = make_dataset(1, (3, 3), seed=7)[0]
    spy = _Spy(Variant(VariantName.LOOPY))
    run_episode(traj, spy, CFG)
    first = spy.observed[0]
    for later in spy.observed[1:]:
        assert later.screen_ref == first.screen_ref  # screens never fabricated
        assert later.instruction == first.instruction
        assert len(later.history) > 0
    # failk:1 misses, then matches: a match shows the next step's screen
    spy = _Spy(Variant(VariantName.FAIL_K, k=1))
    assert run_episode(traj, spy, CFG).outcome is Outcome.COMPLETED_WITH_RECOVERY
    assert [obs.screen_ref for obs in spy.observed] == [
        step.screen_ref for step in traj.steps for _ in range(2)
    ]


class _Threaded(ScriptedAgent):
    """A scripted agent that lets the runner start up to 8 turns at once."""

    max_inflight = 8


def test_determinism_across_runs_and_thread_schedules():
    trajs = make_dataset(16, (1, 6), seed=21)
    agent = _Threaded(Variant(VariantName.BERNOULLI, p=0.5))
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
    agent = _Threaded(Variant(VariantName.ORACLE))
    assert run_failure_cases(cases, agent, CFG, workers=6) == run_failure_cases(
        cases, agent, CFG, workers=1
    )


@pytest.mark.parametrize("spec, command, seeded", [
    ("scripted:loopy", "bench-robust", 0),  # a probe's history holds the action to repeat
    ("scripted:oracle", "simulate", 0),
    ("scripted:bernoulli:0.5", "simulate", 12),  # one per episode, as its first turn draws
    ("scripted:loopy", "simulate", 12),
])
def test_a_generator_is_seeded_only_once_a_turn_draws(
    tmp_path, monkeypatch, spec, command, seeded
):
    from tvae_harness import sim_engine
    from tvae_harness.cli import EXIT_OK, main
    from tvae_harness.trajectory_store import save_dataset

    seeds = []

    def counting_random(seed):
        seeds.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(sim_engine, "Random", counting_random)
    dataset = tmp_path / "dataset.jsonl"
    save_dataset(make_dataset(12, (1, 5), seed=9), dataset)
    source = ["--synthesize", "--per-traj", "2"] if command == "bench-robust" else []
    assert main([
        command, *source, "--dataset", str(dataset), "--agent", spec,
        "--seed", "3", "--out", str(tmp_path / "out"),
    ]) == EXIT_OK
    assert len(seeds) == len(set(seeds)) == seeded


@pytest.mark.parametrize("spec, built", [("stdio", 0), ("scripted:loopy", 1)])
def test_a_probe_builds_its_step_only_for_a_white_box_agent(monkeypatch, spec, built):
    # only a white-box agent is shown the probed step, so only it pays for one
    import sys

    from tvae_harness import sim_engine
    from tvae_harness.agent_bus import StdioAgent, parse_agent_spec

    from conftest import FIXED_TURN

    steps = []

    def counting_step(*args, **kwargs):
        steps.append(kwargs)
        return StepRecord(*args, **kwargs)

    monkeypatch.setattr(sim_engine, "StepRecord", counting_step)
    cases = build_robustness_bench(make_dataset(6, (1, 4), seed=2), 2, seed=1)
    if spec == "stdio":
        script = (
            "import sys\n"
            "for line in sys.stdin:\n"
            f"    sys.stdout.write({FIXED_TURN!r} + '\\n<<<END_TURN>>>\\n')\n"
            "    sys.stdout.flush()\n"
        )
        agent = StdioAgent([sys.executable, "-c", script], timeout=30)
    else:
        agent = parse_agent_spec(spec, timeout=5.0)
    try:
        results = run_failure_cases(cases, agent, CFG)
    finally:
        agent.close()
    assert all(r.issued is not None for r in results)  # every probe was answered
    assert len(steps) == built * len(cases) and len(cases) > 5


def test_pixel_answering_agent_normalized_via_case_dims():
    from dataclasses import replace as dc_replace

    from tvae_harness.tvae_codec import emit_action_json

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
        assert trace_from_json(json.loads(trace_line(t))) == t
    path = tmp_path / "traces.jsonl"
    write_lines(path, map(trace_line, traces))
    assert read_records(path, trace_from_json, "trace") == traces


def test_trace_line_writes_what_the_encoder_writes():
    # the line writer against `json.dumps` of the reference writer's dict
    text = 'café \U0001f600 "q" \\ \x00\x1f\n/</action>'
    edge = SimTrace(text, 2, (
        AttemptLog(ActionRecord(ActionKind.CLICK, coordinate=(1.0000003, 0.5)), False,
                   Verification.SUCCESS, (text, "")),
        AttemptLog(None, False, None, ("unparseable turn: x",)),
        AttemptLog(ActionRecord(ActionKind.INPUT_TEXT, text=text), True, Verification.NO_CHANGE),
        AttemptLog(ActionRecord(ActionKind.LONG_PRESS, coordinate=(-0.0, 540.4)), False,
                   Verification.SUCCESS),
        AttemptLog(ActionRecord(ActionKind.WAIT, seconds=540), False, Verification.SUCCESS),
        AttemptLog(ActionRecord(ActionKind.WAIT, seconds=1e300), True, Verification.NO_CHANGE),
    ))
    trajs = make_dataset(6, (1, 4), seed=13)
    traces = run_episodes(trajs, _agent(VariantName.BERNOULLI, p=0.5), CFG) + [edge]
    for t in traces:
        assert trace_line(t) == json.dumps(ref.trace_to_json(t), separators=(",", ":"))
    line = trace_line(edge)
    assert '"coordinate":[1.0,0.5],"coordinate_space":"pixel"' in line
    assert '"coordinate":[-0.0,540.4],"coordinate_space":"pixel"' in line
    assert '"seconds":540}' in line and '"seconds":1e+300}' in line
    assert line.isascii()
