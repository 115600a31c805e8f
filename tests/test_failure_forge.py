from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from tvae_harness.errors import DataError
from tvae_harness.failure_forge import (
    DEFAULT_FAILURE_WEIGHTS,
    FRAME,
    MARGIN,
    FailureCase,
    FailureMode,
    SampleType,
    build_robustness_bench,
    build_sft_dataset,
    corrupt_action,
    failure_case_from_json,
    failure_case_line,
    mismatched_effect,
    sample_corruption,
    sample_from_json,
    sample_line,
)
from tvae_harness.agent_bus import ScriptedAgent, Variant, VariantName
from tvae_harness.reward_engine import (
    DELTA,
    REPEAT_EPSILON,
    RewardConfig,
    actions_approx_equal,
    distance_to_bbox,
    euclidean,
    match_action,
    score_output,
)
from tvae_harness.sim_engine import SimConfig, run_failure_case, transition
from tvae_harness.synthdata import make_dataset
from tvae_harness.trajectory_store import (
    ActionKind,
    ActionRecord,
    ScrollDirection,
    describe_action,
)
from tvae_harness.tvae_codec import TvaeOutput, Verification

from conftest import FIXED_TURN

CLICK = ActionRecord(kind=ActionKind.CLICK, coordinate=(0.5, 0.5))
BBOX = (0.45, 0.45, 0.55, 0.55)


# -- corrupt_action ----------------------------------------------------------------


def test_coordinate_offset_leaves_kind_and_misses_bbox(rng: random.Random):
    for _ in range(200):
        bad = corrupt_action(CLICK, BBOX, FailureMode.COORDINATE_OFFSET, rng)
        assert bad.kind is ActionKind.CLICK
        assert not match_action(bad, CLICK, BBOX)
        assert distance_to_bbox(bad.coordinate, BBOX) > REPEAT_EPSILON  # clear of the repeat ball


def test_action_type_error_swaps_click_to_long_press(rng: random.Random):
    bad = corrupt_action(CLICK, BBOX, FailureMode.ACTION_TYPE_ERROR, rng)
    assert bad.kind is ActionKind.LONG_PRESS
    assert bad.coordinate == CLICK.coordinate


def test_coordinate_offset_inapplicable_to_navigate_back(rng: random.Random):
    back = ActionRecord(kind=ActionKind.NAVIGATE_BACK)
    with pytest.raises(DataError, match="not applicable"):
        corrupt_action(back, None, FailureMode.COORDINATE_OFFSET, rng)
    # the sampling wrapper redraws instead of failing
    mode, bad = sample_corruption(back, None, rng)
    assert not match_action(bad, back)


def test_timing_error_emits_wait(rng: random.Random):
    bad = corrupt_action(CLICK, BBOX, FailureMode.TIMING_ERROR, rng)
    assert bad.kind is ActionKind.WAIT and bad.seconds > 0


def test_timing_error_inapplicable_to_wait(rng: random.Random):
    wait = ActionRecord(kind=ActionKind.WAIT, seconds=2.0)
    with pytest.raises(DataError, match="not applicable"):
        corrupt_action(wait, None, FailureMode.TIMING_ERROR, rng)


def test_null_click_lands_in_margin_frame(rng: random.Random):
    for _ in range(100):
        bad = corrupt_action(CLICK, BBOX, FailureMode.NULL_CLICK, rng)
        assert bad.kind is ActionKind.CLICK
        x, y = bad.coordinate
        assert min(x, y, 1 - x, 1 - y) <= FRAME + 1e-9
        assert not match_action(bad, CLICK, BBOX)


def test_target_misidentification_jumps_far(rng: random.Random):
    for _ in range(100):
        bad = corrupt_action(CLICK, BBOX, FailureMode.TARGET_MISIDENTIFICATION, rng)
        assert bad.kind is ActionKind.CLICK
        assert euclidean(bad.coordinate, CLICK.coordinate) >= 0.28


def test_coordinate_offset_falls_back_to_a_corner_when_no_proposal_misses(rng: random.Random):
    # every proposal lies within 0.40 of the centre, so inside the box
    bad = corrupt_action(CLICK, (0.1, 0.1, 0.9, 0.9), FailureMode.COORDINATE_OFFSET, rng)
    assert bad == ActionRecord(kind=ActionKind.CLICK, coordinate=(0.01, 0.01))


def test_a_box_over_the_whole_screen_leaves_only_the_kind_changing_modes(rng: random.Random):
    screen = (0.0, 0.0, 1.0, 1.0)
    for mode in (FailureMode.COORDINATE_OFFSET, FailureMode.TARGET_MISIDENTIFICATION,
                 FailureMode.NULL_CLICK):
        why = f"^failure mode {mode.value} not applicable to action kind click$"
        with pytest.raises(DataError, match=why):
            corrupt_action(CLICK, screen, mode, rng)
    # the sampling wrapper redraws until a mode applies
    modes = {sample_corruption(CLICK, screen, rng)[0] for _ in range(50)}
    assert modes == {FailureMode.ACTION_TYPE_ERROR, FailureMode.TIMING_ERROR}


def test_action_type_error_clicks_the_box_centre_of_a_step_without_a_coordinate(rng: random.Random):
    # a dataset may give a box to any kind
    scroll = ActionRecord(kind=ActionKind.SCROLL, direction=ScrollDirection.DOWN)
    bad = corrupt_action(scroll, (0.2, 0.2, 0.4, 0.6), FailureMode.ACTION_TYPE_ERROR, rng)
    assert bad == ActionRecord(kind=ActionKind.CLICK, coordinate=(0.3, 0.4))


def test_null_click_stays_outside_a_box_that_touches_the_frame(rng: random.Random):
    # the box covers the top band and the upper half of each side band; a
    # scroll has no coordinate, so the box alone refuses those proposals
    box = (0.0, 0.0, 1.0, 0.5)
    scroll = ActionRecord(kind=ActionKind.SCROLL, direction=ScrollDirection.DOWN)
    for _ in range(200):
        bad = corrupt_action(scroll, box, FailureMode.NULL_CLICK, rng)
        x, y = bad.coordinate
        assert min(x, y, 1 - x, 1 - y) <= FRAME + 1e-9
        assert distance_to_bbox(bad.coordinate, box) > 0


@pytest.mark.parametrize(
    "gt",
    [
        CLICK,
        ActionRecord(kind=ActionKind.LONG_PRESS, coordinate=(0.2, 0.8)),
        ActionRecord(kind=ActionKind.SCROLL, direction=ScrollDirection.LEFT),
        ActionRecord(kind=ActionKind.INPUT_TEXT, text="hello"),
        ActionRecord(kind=ActionKind.OPEN_APP, text="Maps"),
        ActionRecord(kind=ActionKind.NAVIGATE_BACK),
        ActionRecord(kind=ActionKind.WAIT, seconds=2.0),
    ],
)
def test_every_kind_corruptible_and_mismatching(gt, rng: random.Random):
    for _ in range(300):
        mode, bad = sample_corruption(gt, BBOX if gt.is_spatial() else None, rng)
        assert not match_action(bad, gt, BBOX if gt.is_spatial() else None)


@pytest.mark.parametrize("mode", list(FailureMode))
def test_corruption_mismatch_invariant_ten_thousand_draws(mode, rng: random.Random):
    # every mode is applicable to a bboxed click; quantify the guarantee
    for _ in range(10_000):
        bad = corrupt_action(CLICK, BBOX, mode, rng)
        assert not match_action(bad, CLICK, BBOX)


def test_repeat_radius_is_inside_the_forge_margin():
    assert REPEAT_EPSILON < MARGIN


def test_corruption_never_within_repeat_epsilon_of_match(rng: random.Random):
    # repeated-vs-recovered exclusivity: the corruption plus a repeat-epsilon
    # nudge must still miss; without a box, that is farther than DELTA
    eps = REPEAT_EPSILON
    for bbox in (BBOX, None):
        for _ in range(500):
            mode, bad = sample_corruption(CLICK, bbox, rng)
            if bad.kind is not ActionKind.CLICK:
                continue
            x, y = bad.coordinate
            for dx, dy in ((eps, 0), (-eps, 0), (0, eps), (0, -eps)):
                nudged = ActionRecord(
                    kind=ActionKind.CLICK,
                    coordinate=(min(1, max(0, x + dx)), min(1, max(0, y + dy))),
                )
                assert not match_action(nudged, CLICK, bbox)
                if bbox is None:
                    assert euclidean(nudged.coordinate, CLICK.coordinate) > DELTA


# -- the failure-mode mixture ----------------------------------------------------------


def test_sample_mode_deterministic():
    a = [sample_corruption(CLICK, BBOX, random.Random(99)) for _ in range(50)]
    b = [sample_corruption(CLICK, BBOX, random.Random(99)) for _ in range(50)]
    # same seed, same sequence when drawn from one generator
    gen1, gen2 = random.Random(5), random.Random(5)
    seq1 = [sample_corruption(CLICK, BBOX, gen1) for _ in range(200)]
    seq2 = [sample_corruption(CLICK, BBOX, gen2) for _ in range(200)]
    assert seq1 == seq2
    assert a == b


def test_weights_must_sum_to_one():
    # the one mixture covers all five modes with weights that sum to 1
    assert set(DEFAULT_FAILURE_WEIGHTS) == set(FailureMode)
    assert all(w > 0 for w in DEFAULT_FAILURE_WEIGHTS.values())
    assert sum(DEFAULT_FAILURE_WEIGHTS.values()) == pytest.approx(1.0, abs=1e-12)


def test_sample_corruption_draws_match_raise_and_redraw_loop():
    """Skipping inapplicable modes up front consumes the rng exactly like
    calling corrupt_action and redrawing on its DataError."""
    modes = list(FailureMode)
    weights = [DEFAULT_FAILURE_WEIGHTS[m] for m in modes]

    def redraw_loop(gt, bbox, rng):
        while True:
            mode = rng.choices(modes, weights=weights, k=1)[0]
            try:
                return mode, corrupt_action(gt, bbox, mode, rng)
            except DataError as e:
                if "not applicable" not in str(e):
                    raise

    gts = [
        (CLICK, BBOX),
        (ActionRecord(kind=ActionKind.LONG_PRESS, coordinate=(0.2, 0.7)), None),
        (ActionRecord(kind=ActionKind.SCROLL, direction=ScrollDirection.UP), None),
        (ActionRecord(kind=ActionKind.NAVIGATE_BACK), None),
        (ActionRecord(kind=ActionKind.WAIT, seconds=2.0), None),
        (ActionRecord(kind=ActionKind.OPEN_APP, text="Maps"), None),
    ]
    a, b = random.Random(23), random.Random(23)
    for _ in range(100):
        for gt, bbox in gts:
            assert sample_corruption(gt, bbox, a) == redraw_loop(gt, bbox, b)


def test_sample_mode_chi_square_default_weights():
    from scipy.stats import chisquare

    rng = random.Random(2024)
    n = 10_000
    # every mode applies to a boxed click, so redraws never bend the mixture
    counts = Counter(sample_corruption(CLICK, BBOX, rng)[0] for _ in range(n))
    observed = [counts[m] for m in FailureMode]
    expected = [DEFAULT_FAILURE_WEIGHTS[m] * n for m in FailureMode]
    stat, p = chisquare(observed, expected)
    assert p > 0.001


# -- dataset builders -----------------------------------------------------------------


def test_sft_counts_10_steps_ratio_03():
    trajs = make_dataset(2, (5, 5), seed=8)  # 10 steps total
    samples = build_sft_dataset(trajs, ratio_b=0.3, seed=1)
    counts = Counter(s.sample_type for s in samples)
    assert counts[SampleType.TYPE_A] == 10
    assert counts[SampleType.TYPE_B] == 3


def test_sft_ratio_zero_means_type_a_only():
    trajs = make_dataset(3, (2, 4), seed=8)
    samples = build_sft_dataset(trajs, ratio_b=0.0, seed=1)
    assert all(s.sample_type is SampleType.TYPE_A for s in samples)


def test_sft_type_b_structure():
    trajs = make_dataset(4, (3, 6), seed=15)
    samples = build_sft_dataset(trajs, ratio_b=0.5, seed=2)
    steps_by_ref = {st.screen_ref: st for t in trajs for st in t.steps}
    for s in samples:
        if s.sample_type is SampleType.TYPE_A:
            assert s.target_verification is Verification.SUCCESS
            continue
        assert s.target_verification is Verification.NO_CHANGE
        step = steps_by_ref[s.input_screen_ref]
        # the input screen is the one the erroneous action was issued on
        last = s.history[-1]
        assert last.verification is Verification.SUCCESS  # claimed, wrongly
        assert not match_action(last.action, s.target_action, s.target_bbox)
        # recovery target is the original step's action and effect
        assert s.target_action == step.gt_action
        assert s.target_effect == step.reference_effect
        assert last.expected_effect == mismatched_effect(describe_action(last.action))


def test_sft_deterministic_and_empty_rejected():
    trajs = make_dataset(3, (2, 4), seed=8)
    a = build_sft_dataset(trajs, ratio_b=0.3, seed=7)
    b = build_sft_dataset(trajs, ratio_b=0.3, seed=7)
    assert a == b
    with pytest.raises(DataError, match="^no trajectories$"):
        build_sft_dataset([], 0.3, 7)


def test_bench_counts_and_distinct_steps():
    trajs = make_dataset(1, (4, 4), seed=5)
    cases = build_robustness_bench(trajs, per_traj=2, seed=3)
    assert len(cases) == 2
    assert len({c.source for c in cases}) == 2


def test_bench_cases_mismatch_and_exclusivity():
    trajs = make_dataset(10, (2, 6), seed=6)
    cases = build_robustness_bench(trajs, per_traj=3, seed=4)
    for c in cases:
        assert not match_action(c.erroneous, c.gt_recovery, c.gt_bbox)
        assert c.history[-1].action == c.erroneous
        # a verbatim repeat must never read as recovered
        assert not (
            actions_approx_equal(c.erroneous, c.erroneous)
            and match_action(c.erroneous, c.gt_recovery, c.gt_bbox)
        )


def test_bench_deterministic_byte_identical(tmp_path):
    trajs = make_dataset(5, (2, 5), seed=1)
    for run in ("x", "y"):
        cases = build_robustness_bench(trajs, per_traj=2, seed=7)
        with open(tmp_path / f"{run}.jsonl", "w") as fh:
            for c in cases:
                fh.write(failure_case_line(c) + "\n")
    assert (tmp_path / "x.jsonl").read_bytes() == (tmp_path / "y.jsonl").read_bytes()


def test_type_b_replay_is_idempotent_under_transition_rule():
    trajs = make_dataset(6, (2, 5), seed=23)
    samples = build_sft_dataset(trajs, ratio_b=0.5, seed=21)
    steps_by_ref = {st.screen_ref: st for t in trajs for st in t.steps}
    replayed = 0
    for s in samples:
        if s.sample_type is not SampleType.TYPE_B:
            continue
        step = steps_by_ref[s.input_screen_ref]
        failed = s.history[-1]
        turn = TvaeOutput(failed.verification, failed.action, failed.expected_effect)
        history, log = transition(s.history[:-1], failed.action, step, turn=turn)
        assert not log.matched  # the screen is unchanged
        assert history == s.history  # the miss adds the entry the sample records
        replayed += 1
    assert replayed > 0


def test_case_invariant_enforced():
    with pytest.raises(DataError, match="^failure_case: invalid history "):
        FailureCase(
            source=("t", 0),
            instruction="i",
            screen_ref="s",
            history=(),
            gt_recovery=CLICK,
            mode=FailureMode.NULL_CLICK,
        )


def test_sample_and_case_json_round_trip():
    trajs = make_dataset(3, (2, 4), seed=11)
    samples = build_sft_dataset(trajs, ratio_b=0.4, seed=5)
    for s in samples:
        assert sample_from_json(json.loads(sample_line(s))) == s
    cases = build_robustness_bench(trajs, per_traj=2, seed=5)
    for c in cases:
        assert failure_case_from_json(json.loads(failure_case_line(c))) == c


@pytest.mark.parametrize("sample_type, written, message", [
    (SampleType.TYPE_A, "NO_CHANGE", "type A => SUCCESS"),
    (SampleType.TYPE_B, "SUCCESS", "type B => NO_CHANGE"),
])
def test_sample_line_target_must_be_the_one_its_type_gives(sample_type, written, message):
    samples = build_sft_dataset(make_dataset(3, (2, 4), seed=11), ratio_b=0.4, seed=5)
    obj = json.loads(sample_line(next(s for s in samples if s.sample_type is sample_type)))
    obj["target_verification"] = written
    with pytest.raises(DataError, match=rf"^sample: invalid target_verification \({message}\)$"):
        sample_from_json(obj)


def test_case_line_erroneous_must_be_its_last_history_action():
    (case,) = build_robustness_bench(make_dataset(1, (2, 4), seed=11), per_traj=1, seed=5)
    obj = json.loads(failure_case_line(case))
    obj["erroneous"] = obj["gt_recovery"]
    with pytest.raises(
        DataError, match=r"^failure_case: invalid history \(last entry must be erroneous\)$"
    ):
        failure_case_from_json(obj)


PIXEL_CLICK = {"kind": "click", "coordinate": [317, 1190]}
PIXEL_MISS = {"kind": "click", "coordinate": [900, 300]}


def test_pixel_target_is_read_in_the_screen_size_of_its_line():
    # the agent clicks the very pixel of the target, so the click matches
    sample = sample_from_json({
        "sample_type": "type_a", "instruction": "Open it.", "input_screen_ref": "s0",
        "history": [], "target_verification": "SUCCESS", "target_action": PIXEL_CLICK,
        "target_effect": "It opens.", "screen_dims": [1080, 2400],
    })
    assert sample.target_action.coordinate == (round(317 / 1080, 6), round(1190 / 2400, 6))
    turn = FIXED_TURN.replace("[0.5, 0.5]", "[317, 1190]")
    assert score_output(turn, sample, RewardConfig()).r_act == 1.0


def test_pixel_recovery_and_erroneous_are_read_in_the_screen_size_of_their_line():
    erroneous = {"action": PIXEL_MISS, "expected_effect": "It opens.", "verification": "SUCCESS"}
    case = failure_case_from_json({
        "source": ["t0", 0], "instruction": "Open it.", "screen_ref": "s0",
        "history": [erroneous], "gt_recovery": PIXEL_CLICK, "erroneous": PIXEL_MISS,
        "mode": "target_misidentification", "screen_dims": [1080, 2400],
    })
    assert case.erroneous == case.history[-1].action
    assert case.erroneous.coordinate == (round(900 / 1080, 6), 0.125)
    result = run_failure_case(case, ScriptedAgent(Variant(VariantName.ORACLE)), SimConfig(seed=0))
    assert result.recovered and not result.repeated
