from __future__ import annotations

import random
from collections import Counter

import pytest

from tvae_harness.errors import EmptyDatasetError, InvariantViolationError, ModeInapplicableError
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
    failure_case_to_json,
    mismatched_effect,
    sample_corruption,
    sample_from_json,
    sample_to_json,
)
from tvae_harness.reward_engine import (
    DELTA,
    REPEAT_EPSILON,
    actions_approx_equal,
    distance_to_bbox,
    euclidean,
    match_action,
)
from tvae_harness.synthdata import make_dataset
from tvae_harness.trajectory_store import ActionKind, ActionRecord, ScrollDirection
from tvae_harness.tvae_codec import Verification

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
    with pytest.raises(ModeInapplicableError):
        corrupt_action(back, None, FailureMode.COORDINATE_OFFSET, rng)
    # the sampling wrapper redraws instead of failing
    mode, bad = sample_corruption(back, None, rng)
    assert not match_action(bad, back)


def test_timing_error_emits_wait(rng: random.Random):
    bad = corrupt_action(CLICK, BBOX, FailureMode.TIMING_ERROR, rng)
    assert bad.kind is ActionKind.WAIT and bad.seconds > 0


def test_timing_error_inapplicable_to_wait(rng: random.Random):
    wait = ActionRecord(kind=ActionKind.WAIT, seconds=2.0)
    with pytest.raises(ModeInapplicableError):
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
    calling corrupt_action and redrawing on ModeInapplicableError."""
    modes = list(FailureMode)
    weights = [DEFAULT_FAILURE_WEIGHTS[m] for m in modes]

    def redraw_loop(gt, bbox, rng):
        while True:
            mode = rng.choices(modes, weights=weights, k=1)[0]
            try:
                return mode, corrupt_action(gt, bbox, mode, rng)
            except ModeInapplicableError:
                continue

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
        assert last.expected_effect == mismatched_effect(last.action)


def test_sft_deterministic_and_empty_rejected():
    trajs = make_dataset(3, (2, 4), seed=8)
    a = build_sft_dataset(trajs, ratio_b=0.3, seed=7)
    b = build_sft_dataset(trajs, ratio_b=0.3, seed=7)
    assert a == b
    with pytest.raises(EmptyDatasetError):
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
    import json

    trajs = make_dataset(5, (2, 5), seed=1)
    for run in ("x", "y"):
        cases = build_robustness_bench(trajs, per_traj=2, seed=7)
        with open(tmp_path / f"{run}.jsonl", "w") as fh:
            for c in cases:
                fh.write(json.dumps(failure_case_to_json(c), separators=(",", ":")) + "\n")
    assert (tmp_path / "x.jsonl").read_bytes() == (tmp_path / "y.jsonl").read_bytes()


def test_type_b_replay_is_idempotent_under_transition_rule():
    from tvae_harness.sim_engine import SimState, transition

    trajs = make_dataset(6, (2, 5), seed=23)
    samples = build_sft_dataset(trajs, ratio_b=0.5, seed=21)
    steps_by_ref = {st.screen_ref: st for t in trajs for st in t.steps}
    replayed = 0
    for s in samples:
        if s.sample_type is not SampleType.TYPE_B:
            continue
        step = steps_by_ref[s.input_screen_ref]
        state = SimState(
            cursor=step.index, screen_ref=step.screen_ref, history=(), attempts_used=0
        )
        new_state, log = transition(
            state, s.history[-1].action, step, "would-be-next", budget=1
        )
        assert not log.matched
        assert new_state.screen_ref == step.screen_ref  # unchanged
        assert new_state.cursor == step.index
        replayed += 1
    assert replayed > 0


def test_case_invariant_enforced():
    with pytest.raises(InvariantViolationError):
        FailureCase(
            source=("t", 0),
            instruction="i",
            screen_ref="s",
            history=(),
            gt_recovery=CLICK,
            erroneous=CLICK,
            mode=FailureMode.NULL_CLICK,
        )


def test_sample_and_case_json_round_trip():
    trajs = make_dataset(3, (2, 4), seed=11)
    samples = build_sft_dataset(trajs, ratio_b=0.4, seed=5)
    for s in samples:
        assert sample_from_json(sample_to_json(s)) == s
    cases = build_robustness_bench(trajs, per_traj=2, seed=5)
    for c in cases:
        assert failure_case_from_json(failure_case_to_json(c)) == c
