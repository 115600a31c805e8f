from __future__ import annotations

import random

import pytest

from tvae_harness.failure_forge import SampleType, SyntheticSample
from tvae_harness.reward_engine import (
    RewardConfig,
    actions_approx_equal,
    composite_reward,
    distance_to_bbox,
    match_action,
    point_in_bbox,
    token_f1,
    verification_reward,
)
from tvae_harness.trajectory_store import (
    ActionKind,
    ActionRecord,
    CoordinateSpace,
    ScrollDirection,
)
from tvae_harness.tvae_codec import ThinkSegment, ThinkTag, TvaeOutput, Verification

from conftest import WORDS, random_valid_turn


def click(x: float, y: float, space=CoordinateSpace.RELATIVE) -> ActionRecord:
    return ActionRecord(kind=ActionKind.CLICK, coordinate=(x, y), coordinate_space=space)


# -- match_action ---------------------------------------------------------------


def test_exact_match():
    a = click(0.4, 0.6)
    assert match_action(a, a)


def test_kind_mismatch():
    assert not match_action(
        click(0.5, 0.5), ActionRecord(kind=ActionKind.SCROLL, direction=ScrollDirection.UP)
    )


def test_distance_threshold_no_bbox():
    gt = click(0.5, 0.5)
    assert match_action(click(0.5, 0.64), gt)  # distance 0.14 == delta
    assert not match_action(click(0.5, 0.70), gt)  # distance 0.20 > delta


def test_bbox_takes_precedence_over_distance():
    gt = click(0.5, 0.5)
    bbox = (0.45, 0.45, 0.55, 0.55)
    assert match_action(click(0.54, 0.54), gt, bbox)
    # inside delta but outside bbox: no match when a bbox is known
    assert not match_action(click(0.5, 0.60), gt, bbox)


def test_scroll_direction():
    up = ActionRecord(kind=ActionKind.SCROLL, direction=ScrollDirection.UP)
    down = ActionRecord(kind=ActionKind.SCROLL, direction=ScrollDirection.DOWN)
    assert match_action(up, up)
    assert not match_action(up, down)


def test_text_normalized_exact():
    gt = ActionRecord(kind=ActionKind.INPUT_TEXT, text="Home Network")
    assert match_action(ActionRecord(kind=ActionKind.INPUT_TEXT, text="  home network "), gt)
    assert not match_action(ActionRecord(kind=ActionKind.INPUT_TEXT, text="home net"), gt)


def test_parameterless_kinds_match_on_kind():
    back = ActionRecord(kind=ActionKind.NAVIGATE_BACK)
    assert match_action(back, back)
    assert match_action(
        ActionRecord(kind=ActionKind.WAIT, seconds=1.0),
        ActionRecord(kind=ActionKind.WAIT, seconds=9.0),
    )


def test_none_prediction_never_matches():
    assert not match_action(None, click(0.5, 0.5))


def test_geometry_helpers():
    assert point_in_bbox((0.5, 0.5), (0.4, 0.4, 0.6, 0.6))
    assert not point_in_bbox((0.3, 0.5), (0.4, 0.4, 0.6, 0.6))
    assert distance_to_bbox((0.5, 0.5), (0.4, 0.4, 0.6, 0.6)) == 0.0
    assert distance_to_bbox((0.3, 0.5), (0.4, 0.4, 0.6, 0.6)) == pytest.approx(0.1)


def test_actions_approx_equal():
    a = click(0.5, 0.5)
    assert actions_approx_equal(click(0.5, 0.53), a)
    assert not actions_approx_equal(click(0.5, 0.56), a)
    assert not actions_approx_equal(None, a)
    assert not actions_approx_equal(
        ActionRecord(kind=ActionKind.LONG_PRESS, coordinate=(0.5, 0.5)), a
    )


# -- effect similarity ------------------------------------------------------------


def test_token_f1_identical():
    assert token_f1("The cart page opens.", "The cart page opens.") == 1.0


def test_token_f1_disjoint():
    assert token_f1("alpha beta", "gamma delta") == 0.0


def test_token_f1_hand_computed():
    # overlap 3, |pred| = 4, |ref| = 4 -> P = R = 0.75 -> F1 = 0.75
    assert token_f1("the cart page opens", "cart page opens now") == pytest.approx(0.75)


def test_token_f1_symmetric_and_bounded(rng: random.Random):
    for _ in range(300):
        a = " ".join(rng.choices(WORDS, k=rng.randint(1, 8)))
        b = " ".join(rng.choices(WORDS, k=rng.randint(1, 8)))
        s = token_f1(a, b)
        assert 0.0 <= s <= 1.0
        assert s == token_f1(b, a)


def test_token_f1_shared_token_monotonicity(rng: random.Random):
    for _ in range(300):
        a = " ".join(rng.choices(WORDS, k=rng.randint(1, 6)))
        b = " ".join(rng.choices(WORDS, k=rng.randint(1, 6)))
        extra = rng.choice(WORDS)
        assert token_f1(a + " " + extra, b + " " + extra) >= token_f1(a, b)


# -- verification and composite -----------------------------------------------------


def test_verification_grid_exhaustive():
    V = Verification
    assert verification_reward(V.SUCCESS, V.SUCCESS) == 1.0
    assert verification_reward(V.NO_CHANGE, V.NO_CHANGE) == 1.0
    assert verification_reward(V.SUCCESS, V.NO_CHANGE) == -2.0  # hallucination
    assert verification_reward(V.NO_CHANGE, V.SUCCESS) == -0.5  # miss


def _sample(action: ActionRecord, effect: str, target=Verification.SUCCESS) -> SyntheticSample:
    stype = SampleType.TYPE_A if target is Verification.SUCCESS else SampleType.TYPE_B
    history = ()
    if stype is SampleType.TYPE_B:
        from tvae_harness.tvae_codec import HistoryEntry

        err = ActionRecord(kind=ActionKind.NAVIGATE_BACK)
        history = (HistoryEntry(err, "Something else happens.", Verification.SUCCESS),)
        if action.kind is ActionKind.NAVIGATE_BACK:
            err = ActionRecord(kind=ActionKind.WAIT, seconds=1.0)
            history = (HistoryEntry(err, "Something else happens.", Verification.SUCCESS),)
    return SyntheticSample(
        sample_type=stype,
        instruction="Do the task.",
        input_screen_ref="s0",
        history=history,
        target_verification=target,
        target_action=action,
        target_effect=effect,
    )


def _turn(action: ActionRecord, verification: Verification, effect: str) -> TvaeOutput:
    think = [ThinkSegment(ThinkTag.VERIFY, "Checked the screen.")]
    if verification is Verification.NO_CHANGE:
        think.append(ThinkSegment(ThinkTag.DIAGNOSE, "It failed."))
    return TvaeOutput(
        think=tuple(think), verification=verification, action=action, expected_effect=effect
    )


def test_composite_correct_action_partial_effect():
    gt = click(0.5, 0.5)
    sample = _sample(gt, "the cart page opens now yes")
    out = _turn(gt, Verification.SUCCESS, "well the cart page opens now")
    b = composite_reward(out, sample)
    assert b.r_act == 1.0
    assert b.total == pytest.approx(1.0 + 0.5 * b.r_eff + 0.5 * 1.0)


def test_composite_example_totals():
    gt = click(0.5, 0.5)
    # token F1: overlap 2 of 2 reference and 3 predicted tokens -> 2*2/(3+2) = 0.8
    sample = _sample(gt, "cart opens")
    out = _turn(gt, Verification.SUCCESS, "the cart opens")
    b = composite_reward(out, sample)
    assert b.r_eff == pytest.approx(0.8)
    assert b.total == pytest.approx(1.9)  # 1 + 0.5*0.8 + 0.5*1.0


def test_composite_hallucination_floor():
    gt = click(0.5, 0.5)
    sample = _sample(gt, "cart opens", target=Verification.NO_CHANGE)
    wrong = click(0.9, 0.9)
    out = _turn(wrong, Verification.SUCCESS, "cart opens")
    b = composite_reward(out, sample)
    assert (b.r_act, b.r_eff, b.r_ver) == (-1.0, 0.0, -2.0)
    assert b.total == -2.0


def test_composite_maximum():
    gt = click(0.5, 0.5)
    sample = _sample(gt, "cart opens")
    out = _turn(gt, Verification.SUCCESS, "cart opens")
    assert composite_reward(out, sample).total == 2.0


def test_composite_pixel_output_normalized_via_sample_dims():
    gt = click(0.293519, 0.495833)
    sample = SyntheticSample(
        sample_type=SampleType.TYPE_A,
        instruction="i",
        input_screen_ref="s",
        history=(),
        target_verification=Verification.SUCCESS,
        target_action=gt,
        target_effect="The bus list appears.",
        screen_dims=(1080, 2400),
    )
    out = _turn(click(317.0, 1190.0, CoordinateSpace.PIXEL), Verification.SUCCESS, "bus list")
    assert composite_reward(out, sample).r_act == 1.0


def test_composite_worked_success_turn_against_own_sample():
    from test_tvae_codec import TYPE_A_TURN
    from tvae_harness.tvae_codec import parse_tvae

    out = parse_tvae(TYPE_A_TURN)
    sample = SyntheticSample(
        sample_type=SampleType.TYPE_A,
        instruction="Open CityMapper and get bus directions.",
        input_screen_ref="s5",
        history=(),
        target_verification=Verification.SUCCESS,
        target_action=click(0.293519, 0.495833),
        target_effect="A list of bus directions from Eastwood to Chatswood will appear.",
        screen_dims=(1080, 2400),
    )
    b = composite_reward(out, sample)
    assert b.r_ver == 1.0
    assert b.r_act == 1.0
    assert b.total == 2.0  # identical effect text, pixel action normalized


def test_gating_and_range_properties(rng: random.Random):
    cfg = RewardConfig()
    for _ in range(10_000):
        out = random_valid_turn(rng)
        target_action = random_valid_turn(rng).action
        if target_action.coordinate_space is not CoordinateSpace.RELATIVE:
            target_action = ActionRecord(
                kind=target_action.kind,
                coordinate=(0.25, 0.75),
            )
        target = rng.choice(list(Verification))
        sample = _sample_any(target_action, target)
        b = composite_reward(out, sample, cfg)
        if b.r_act == -1.0:
            assert b.r_eff == 0.0
        assert -2.0 <= b.total <= 2.0
        assert b.total == pytest.approx(b.r_act + 0.5 * b.r_eff + 0.5 * b.r_ver)


def _sample_any(action: ActionRecord, target: Verification) -> SyntheticSample:
    from tvae_harness.tvae_codec import HistoryEntry

    stype = SampleType.TYPE_A if target is Verification.SUCCESS else SampleType.TYPE_B
    history = ()
    if stype is SampleType.TYPE_B:
        err_kind = ActionKind.WAIT if action.kind is not ActionKind.WAIT else ActionKind.NAVIGATE_BACK
        err = (
            ActionRecord(kind=ActionKind.WAIT, seconds=1.0)
            if err_kind is ActionKind.WAIT
            else ActionRecord(kind=ActionKind.NAVIGATE_BACK)
        )
        history = (HistoryEntry(err, "Wrong effect.", Verification.SUCCESS),)
    return SyntheticSample(
        sample_type=stype,
        instruction="Do it.",
        input_screen_ref="s0",
        history=history,
        target_verification=target,
        target_action=action,
        target_effect="The expected panel appears.",
    )
