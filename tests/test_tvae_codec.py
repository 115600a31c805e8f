from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tvae_harness.errors import DataError
from tvae_harness.trajectory_store import ActionKind, CoordinateSpace
from tvae_harness.tvae_codec import (
    ThinkSegment,
    ThinkTag,
    TvaeOutput,
    Verification,
    emit_action_json,
    emit_tvae,
    parse_tvae,
)

from conftest import random_valid_action, random_valid_turn
from reference_codec import parse_tvae as reference_parse

# Worked reference turns for the two paths.
TYPE_A_TURN = """<think>
[Verify] Previous click at (285, 453) successfully transitioned from search results to map view showing route options.
[Recall] Task is to find bus directions from Eastwood to Chatswood.
[Grounding] The "Bus" mode button is visible near other transport options.
[Coordinate] Element position: (317, 1190).
[Action] click at (317, 1190).
</think>
<verification>SUCCESS</verification>
<action>{"action": "click", "coordinate": [317, 1190]}</action>
<expected_effect>A list of bus directions from Eastwood to Chatswood will appear.</expected_effect>"""

TYPE_B_TURN = """<think>
[Verify] The screen remains unchanged after the wait action; the track did not appear.
[Diagnose] Timing error: the wait action assumed the track would load automatically without user input.
[Recall] The task is to play "Slipping into Relaxed Sleep" on the Idanim app.
[Grounding] The search bar is the correct target element.
[Text] The exact text needed is 'Slipping into Relaxed Sleep'.
[Recovery] Execute input_text to search for the track.
</think>
<verification>NO_CHANGE</verification>
<action>{"action": "input_text", "text": "Slipping into Relaxed Sleep"}</action>
<expected_effect>The screen will display the track with playback controls.</expected_effect>"""


def test_success_path_worked_example():
    out = parse_tvae(TYPE_A_TURN)
    assert out.verification is Verification.SUCCESS
    assert out.action.kind is ActionKind.CLICK
    assert out.action.coordinate == (317.0, 1190.0)
    assert out.action.coordinate_space is CoordinateSpace.PIXEL
    assert out.expected_effect.startswith("A list of bus directions")
    assert [s.tag for s in out.think] == [
        ThinkTag.VERIFY, ThinkTag.RECALL, ThinkTag.GROUNDING, ThinkTag.COORDINATE, ThinkTag.ACTION
    ]


def test_recovery_path_worked_example():
    out = parse_tvae(TYPE_B_TURN)
    assert out.verification is Verification.NO_CHANGE
    assert out.action.kind is ActionKind.INPUT_TEXT
    assert out.action.text == "Slipping into Relaxed Sleep"
    tags = {s.tag for s in out.think}
    assert ThinkTag.DIAGNOSE in tags and ThinkTag.RECOVERY in tags


def test_missing_verification_block_strict():
    text = TYPE_A_TURN.replace(
        "<verification>SUCCESS</verification>", ""
    )
    with pytest.raises(DataError, match="^missing <verification> block$"):
        parse_tvae(text)


def test_missing_think_block_strict_vs_lenient():
    text = "\n".join(
        line for line in TYPE_A_TURN.splitlines()
        if not line.startswith(("<think>", "[", "</think>"))
    )
    with pytest.raises(DataError, match="^missing <think> block$"):
        parse_tvae(text, strict=True)
    out = parse_tvae(text, strict=False)
    assert out.think == ()
    assert any("think" in w for w in out.warnings)


def test_block_order_independence():
    lines = TYPE_A_TURN.split("\n</think>\n", 1)
    think_block = lines[0] + "\n</think>"
    rest = lines[1].split("\n")
    reordered = "\n".join([rest[2], rest[0], think_block, rest[1]])
    assert parse_tvae(reordered) == parse_tvae(TYPE_A_TURN)


def test_unknown_verification_token():
    text = TYPE_A_TURN.replace("SUCCESS", "MAYBE")
    with pytest.raises(DataError, match="^unknown verification token 'MAYBE'$"):
        parse_tvae(text, strict=False)


def test_unknown_action_kind():
    text = TYPE_A_TURN.replace('"action": "click"', '"action": "teleport"')
    with pytest.raises(DataError, match="^unknown action kind 'teleport'$"):
        parse_tvae(text, strict=False)


def test_malformed_action_json():
    text = TYPE_A_TURN.replace(
        '{"action": "click", "coordinate": [317, 1190]}', "{oops"
    )
    with pytest.raises(DataError, match="^malformed action JSON: "):
        parse_tvae(text, strict=False)


@pytest.mark.parametrize("body", [
    '{"action": "click", "coordinate": [1%s, 1]}' % ("0" * 400),  # beyond the float range
    '{"action": "wait", "time": 1%s}' % ("0" * 400),
    '{"action": "click", "coordinate": [1%s, 1]}' % ("0" * 5000),  # beyond int parsing's limit
])
def test_number_beyond_float_range_is_malformed_action_json(body):
    text = TYPE_A_TURN.replace('{"action": "click", "coordinate": [317, 1190]}', body)
    with pytest.raises(DataError, match="^malformed action JSON: "):
        parse_tvae(text, strict=False)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "1e400"])
@pytest.mark.parametrize("template", [
    '{"action": "click", "coordinate": [%s, 0.5]}',
    '{"action": "wait", "time": %s}',
])
def test_non_finite_number_is_no_action(template, number):
    # json.loads reads all three (1e400 as infinity); no action holds them
    text = TYPE_A_TURN.replace(
        '{"action": "click", "coordinate": [317, 1190]}', template % number
    )
    with pytest.raises(DataError, match=r"^(click|wait): invalid (coordinate|seconds) .*finite\)$"):
        parse_tvae(text, strict=False)


def test_unknown_think_tag_strict_error_lenient_fold():
    text = TYPE_A_TURN.replace("[Recall]", "[Plan]")
    with pytest.raises(DataError, match=r"^unknown think tag \[Plan\]$"):
        parse_tvae(text, strict=True)
    out = parse_tvae(text, strict=False)
    # the unknown tag and its text fold into the previous segment body
    assert out.think[0].tag is ThinkTag.VERIFY
    assert "[Plan]" in out.think[0].body
    assert any("unknown think tag" in w for w in out.warnings)


def test_no_change_without_recovery_tags():
    text = TYPE_B_TURN.replace("[Diagnose]", "[Recall]").replace("[Recovery]", "[Action]")
    with pytest.raises(DataError, match="NO_CHANGE requires a"):
        parse_tvae(text, strict=True)
    out = parse_tvae(text, strict=False)
    assert any("Diagnose" in w or "Recovery" in w for w in out.warnings)


def test_success_with_recovery_tags_is_flagged_not_rejected():
    text = TYPE_B_TURN.replace("NO_CHANGE", "SUCCESS")
    out = parse_tvae(text, strict=True)
    assert any("SUCCESS verification alongside" in w for w in out.warnings)


def test_verify_must_come_first_when_present():
    text = TYPE_A_TURN.replace(
        "[Verify] Previous click", "[Recall] moved.\n[Verify] Previous click"
    )
    with pytest.raises(DataError, match=r"\[Verify\] must come first"):
        parse_tvae(text, strict=True)


def test_emit_requires_invariants():
    bad = TvaeOutput(
        think=(ThinkSegment(ThinkTag.VERIFY, "Screen unchanged."),),
        verification=Verification.NO_CHANGE,
        action=parse_tvae(TYPE_A_TURN).action,
        expected_effect="Something happens.",
    )
    with pytest.raises(DataError, match="NO_CHANGE requires a"):
        emit_tvae(bad)


def test_emit_minimal_success_round_trips():
    out = TvaeOutput(
        think=(ThinkSegment(ThinkTag.VERIFY, "All good."),),
        verification=Verification.SUCCESS,
        action=parse_tvae(TYPE_A_TURN).action,
        expected_effect="The bus list appears.",
    )
    text = emit_tvae(out)
    assert text.index("<think>") < text.index("<verification>") < text.index("<action>")
    assert parse_tvae(text) == out


def test_round_trip_fuzz_small(rng: random.Random):
    for _ in range(200):
        out = random_valid_turn(rng)
        text = emit_tvae(out)
        parsed = parse_tvae(text)
        assert parsed == out
        assert emit_tvae(parsed) == text


def test_wait_time_alias():
    out = parse_tvae(TYPE_A_TURN.replace(
        '{"action": "click", "coordinate": [317, 1190]}', '{"action": "wait", "seconds": 2}'
    ))
    assert out.action.kind is ActionKind.WAIT and out.action.seconds == 2.0


def test_parser_never_crashes_on_arbitrary_bytes(rng: random.Random):
    for _ in range(2000):
        n = rng.randint(0, 300)
        blob = bytes(rng.randrange(256) for _ in range(n)).decode("latin-1")
        try:
            parse_tvae(blob, strict=False)
        except DataError:
            pass


def test_parser_never_crashes_on_mutated_valid_turns(rng: random.Random):
    for _ in range(1000):
        text = emit_tvae(random_valid_turn(rng))
        cut = sorted(rng.sample(range(len(text) + 1), 2))
        mutated = text[: cut[0]] + text[cut[1]:]
        try:
            parse_tvae(mutated, strict=False)
        except DataError:
            pass


def test_duplicate_blocks_first_wins():
    text = TYPE_A_TURN + "\n<verification>NO_CHANGE</verification>"
    out = parse_tvae(text, strict=False)
    assert out.verification is Verification.SUCCESS
    assert any("duplicate" in w for w in out.warnings)


# -- equivalence with the reference (multi-pass) parser -------------------------------

_KNOWN_TOKENS = [f"[{t.value}]" for t in ThinkTag]
_ODD_TOKENS = ["[Plan]", "[verify]", "[Note_2]", "[]", "[1x]", "[ Verify ]"]
_TEXTS = st.sampled_from([
    "", " ", "\n", "  \n ", "The panel opens.", " click the button ", "a [ b ] c",
    "see <b>", "<think>", "</think>", "</action>", "<verification>", "SUCCESS",
])
_THINK_BODY = st.lists(
    st.one_of(st.sampled_from(_KNOWN_TOKENS), st.sampled_from(_ODD_TOKENS), _TEXTS),
    max_size=10,
).map("".join)
_VERIFICATION_BODY = st.sampled_from(
    ["SUCCESS", "NO_CHANGE"] * 9
    + [" SUCCESS\n", "\nNO_CHANGE ", "MAYBE", "", "success", "SUCCESS NO_CHANGE"]
)
_ACTION_TOKEN = st.one_of(
    st.sampled_from([k.value for k in ActionKind] + ["teleport", "CLICK", ""]),
    st.none(), st.booleans(), st.integers(-2, 2),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["a", "click"]), st.integers(0, 3), max_size=1),
)
_NUMBER = st.one_of(st.integers(-5, 2000), st.floats(-1, 2000, allow_nan=False))
_ACTION_OBJ = st.fixed_dictionaries(
    {"action": _ACTION_TOKEN},
    optional={
        "coordinate": st.lists(st.one_of(_NUMBER, st.just("x"), st.booleans()), max_size=3),
        "direction": st.sampled_from(["up", "down", "left", "right", "diagonal", 5]),
        "text": st.sampled_from(["", "hello world", 3]),
        "time": st.one_of(_NUMBER, st.sampled_from(["x", True])),
        "seconds": _NUMBER,
    },
)
_VALID_ACTION = st.integers(0, 2**32).map(
    lambda seed: emit_action_json(random_valid_action(random.Random(seed)))
)
_ACTION_BODY = st.one_of(
    _VALID_ACTION,
    _VALID_ACTION,
    _ACTION_OBJ.map(json.dumps),
    st.sampled_from(["{oops", "[]", "42", '{"kind": "click"}', "", "null", "[[[[]]]]"]),
)
_EFFECT_BODY = st.one_of(_TEXTS, st.just("The list of routes appears."))
_BODIES = {
    "think": _THINK_BODY,
    "verification": _VERIFICATION_BODY,
    "action": _ACTION_BODY,
    "expected_effect": _EFFECT_BODY,
}
_MOSTLY = st.sampled_from([True] * 9 + [False])
_NAMES = st.sampled_from(("think", "verification", "action", "expected_effect", "thinking"))


@st.composite
def _turn_texts(draw, depth: int = 0) -> str:
    """Block soup: duplicate, unclosed, nested and unknown blocks in any order."""
    names = draw(st.lists(_NAMES, max_size=4))
    if draw(_MOSTLY):  # usually a complete turn plus extra blocks
        names += ["think", "verification", "action", "expected_effect"]
    pieces = []
    for name in draw(st.permutations(names)):
        body = draw(_BODIES.get(name, _TEXTS))
        if depth == 0 and not draw(_MOSTLY):
            body += draw(_turn_texts(depth=1))
        close = f"</{name}>" if draw(_MOSTLY) else ""
        pieces.append(draw(st.sampled_from(["", "\n", " noise "])) + f"<{name}>{body}{close}")
    return "".join(pieces)


_FRAGMENTS = st.sampled_from(
    _KNOWN_TOKENS + _ODD_TOKENS
    + ["\n", " ", "<think>", "</think>", "<action>", "</action>", "</expected_effect>",
       "<verification>SUCCESS</verification>", "NO_CHANGE", '{"action": 7}', "[Diagnose] retry."]
)


@st.composite
def _mutated_turns(draw) -> str:
    """An emitted valid turn with deleted, duplicated and inserted spans."""
    text = emit_tvae(random_valid_turn(random.Random(draw(st.integers(0, 2**32)))))
    for _ in range(draw(st.integers(0, 4))):
        i, j = sorted(draw(st.lists(st.integers(0, len(text)), min_size=2, max_size=2)))
        op = draw(st.sampled_from(("delete", "duplicate", "insert")))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + draw(_FRAGMENTS) + text[i:]
    return text


def _outcome(parse, raw: str, strict: bool):
    try:
        out = parse(raw, strict)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("raised", type(exc), str(exc))
    return ("parsed", out, out.warnings)


def _assert_same_as_reference(raw: str) -> None:
    for strict in (True, False):
        assert _outcome(parse_tvae, raw, strict) == _outcome(reference_parse, raw, strict)


@settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=_turn_texts())
@example(raw=TYPE_B_TURN.replace("NO_CHANGE", "SUCCESS"))
@example(raw=TYPE_A_TURN.replace('"click"', "[1, 2]"))
@example(raw=TYPE_A_TURN.replace("[Verify]", "prelude [Plan] x [Verify]"))
@example(raw=TYPE_A_TURN.replace("[Recall]", "[Recall] \n [Grounding]"))
@example(raw=TYPE_A_TURN.replace("317", "1" + "0" * 400))
@example(raw=TYPE_A_TURN.replace("317", "NaN"))
@example(raw=TYPE_A_TURN.replace("317", "Infinity"))
@example(raw=TYPE_A_TURN.replace("317", "1e400"))
def test_parser_matches_reference_on_block_soup(raw):
    _assert_same_as_reference(raw)


@settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=_mutated_turns())
def test_parser_matches_reference_on_mutated_turns(raw):
    _assert_same_as_reference(raw)
