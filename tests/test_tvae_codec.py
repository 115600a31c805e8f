from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tvae_harness import tvae_codec
from tvae_harness.errors import DataError
from tvae_harness.trajectory_store import ActionKind, ActionRecord, ScrollDirection
from tvae_harness.tvae_codec import (
    ThinkTag,
    TvaeOutput,
    Verification,
    emit_action_json,
    parse_action_json,
    parse_tvae,
)

from conftest import random_valid_action, random_valid_turn
from reference_codec import ReferenceTurn, ThinkSegment, emit_checked
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
    assert out.action.in_pixels()
    assert out.expected_effect.startswith("A list of bus directions")
    reference = reference_parse(TYPE_A_TURN)
    assert [s.tag for s in reference.think] == [
        ThinkTag.VERIFY, ThinkTag.RECALL, ThinkTag.GROUNDING, ThinkTag.COORDINATE, ThinkTag.ACTION
    ]
    assert out == reference.projection() and out.warnings == ()


@pytest.mark.parametrize("coordinate, written", [
    ((317.0, 1190.0), "[317, 1190]"),
    ((317.5, 1190.0), "[317.5, 1190.0]"),
    ((1.0, 0.0), "[1.0, 0.0]"),  # relative, so floats even when integral
])
def test_emit_writes_integral_pixel_coordinates_as_ints(coordinate, written):
    action = ActionRecord(kind=ActionKind.CLICK, coordinate=coordinate)
    assert emit_action_json(action) == f'{{"action": "click", "coordinate": {written}}}'


def test_recovery_path_worked_example():
    out = parse_tvae(TYPE_B_TURN)
    assert out.verification is Verification.NO_CHANGE
    assert out.action.kind is ActionKind.INPUT_TEXT
    assert out.action.text == "Slipping into Relaxed Sleep"
    reference = reference_parse(TYPE_B_TURN)
    tags = {s.tag for s in reference.think}
    assert ThinkTag.DIAGNOSE in tags and ThinkTag.RECOVERY in tags
    assert out == reference.projection() and out.warnings == ()


def test_missing_verification_block_is_unparseable():
    text = TYPE_A_TURN.replace(
        "<verification>SUCCESS</verification>", ""
    )
    with pytest.raises(DataError, match="^missing <verification> block$"):
        parse_tvae(text)


def test_missing_think_block_is_a_warning():
    text = "\n".join(
        line for line in TYPE_A_TURN.splitlines()
        if not line.startswith(("<think>", "[", "</think>"))
    )
    out = parse_tvae(text)
    assert reference_parse(text, strict=False).think == ()
    assert out.warnings == (
        "missing <think> block", "turn: invalid think (needs at least one segment)"
    )


def test_missing_expected_effect_block_is_a_warning():
    out = parse_tvae(TYPE_A_TURN.split("\n<expected_effect>")[0])
    assert out.expected_effect == ""
    assert out.warnings == (
        "missing <expected_effect> block", "turn: invalid expected_effect (must be non-empty)"
    )


def test_block_order_independence():
    lines = TYPE_A_TURN.split("\n</think>\n", 1)
    think_block = lines[0] + "\n</think>"
    rest = lines[1].split("\n")
    reordered = "\n".join([rest[2], rest[0], think_block, rest[1]])
    assert parse_tvae(reordered) == parse_tvae(TYPE_A_TURN)


def test_unknown_verification_token():
    text = TYPE_A_TURN.replace("SUCCESS", "MAYBE")
    with pytest.raises(DataError, match="^unknown verification token 'MAYBE'$"):
        parse_tvae(text)


def test_unknown_action_kind():
    text = TYPE_A_TURN.replace('"action": "click"', '"action": "teleport"')
    with pytest.raises(DataError, match="^unknown action kind 'teleport'$"):
        parse_tvae(text)


def test_malformed_action_json():
    text = TYPE_A_TURN.replace(
        '{"action": "click", "coordinate": [317, 1190]}', "{oops"
    )
    with pytest.raises(DataError, match="^malformed action JSON: "):
        parse_tvae(text)


@pytest.mark.parametrize("body", [
    '{"action": "click", "coordinate": [1%s, 1]}' % ("0" * 400),  # beyond the float range
    '{"action": "wait", "time": 1%s}' % ("0" * 400),
    '{"action": "click", "coordinate": [1%s, 1]}' % ("0" * 5000),  # beyond int parsing's limit
])
def test_number_beyond_float_range_is_malformed_action_json(body):
    text = TYPE_A_TURN.replace('{"action": "click", "coordinate": [317, 1190]}', body)
    with pytest.raises(DataError, match="^malformed action JSON: "):
        parse_tvae(text)


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
        parse_tvae(text)


def test_unknown_think_tag_folds_into_previous_segment():
    text = TYPE_A_TURN.replace("[Recall]", "[Plan]")
    out = parse_tvae(text)
    # the unknown tag and its text fold into the previous segment
    assert reference_parse(text, strict=False).think[0].tag is ThinkTag.VERIFY
    assert out.warnings == ("unknown think tag [Plan] folded into previous segment",)


def test_no_change_without_recovery_tags():
    text = TYPE_B_TURN.replace("[Diagnose]", "[Recall]").replace("[Recovery]", "[Action]")
    out = parse_tvae(text)
    assert out.verification is Verification.NO_CHANGE
    assert out.warnings == (
        "turn: invalid think (NO_CHANGE requires a [Diagnose] or [Recovery] segment)",
    )


def test_success_with_recovery_tags_is_flagged_not_rejected():
    text = TYPE_B_TURN.replace("NO_CHANGE", "SUCCESS")
    out = parse_tvae(text)
    assert out.warnings == ("SUCCESS verification alongside [Diagnose]/[Recovery] tags",)


def test_verify_must_come_first_when_present():
    text = TYPE_A_TURN.replace(
        "[Verify] Previous click", "[Recall] moved.\n[Verify] Previous click"
    )
    out = parse_tvae(text)
    reference = reference_parse(text, strict=False)
    assert [s.tag for s in reference.think[:2]] == [ThinkTag.RECALL, ThinkTag.VERIFY]
    assert out.warnings == ("turn: invalid think ([Verify] must come first)",)


def assert_fixed_point(text: str) -> ReferenceTurn:
    """`text` is `emit_checked`'s byte-level fixed point over the reference
    parse, and the program parses it, unwarned, to that turn's projection."""
    reference = reference_parse(text)
    assert emit_checked(reference) == text
    parsed = parse_tvae(text)
    assert parsed == reference.projection() and parsed.warnings == ()
    return reference


def test_emit_requires_invariants():
    bad = ReferenceTurn(
        think=(ThinkSegment(ThinkTag.VERIFY, "Screen unchanged."),),
        verification=Verification.NO_CHANGE,
        action=parse_tvae(TYPE_A_TURN).action,
        expected_effect="Something happens.",
    )
    with pytest.raises(DataError, match="NO_CHANGE requires a"):
        emit_checked(bad)


def test_emit_minimal_success_round_trips():
    out = ReferenceTurn(
        think=(ThinkSegment(ThinkTag.VERIFY, "All good."),),
        verification=Verification.SUCCESS,
        action=parse_tvae(TYPE_A_TURN).action,
        expected_effect="The bus list appears.",
    )
    text = emit_checked(out)
    assert text.index("<think>") < text.index("<verification>") < text.index("<action>")
    assert assert_fixed_point(text) == out


@pytest.mark.parametrize("terminator", [
    "</think>", "</verification>", "</action>", "</expected_effect>", "</", "<\\/",
])
@pytest.mark.parametrize("kind", [ActionKind.INPUT_TEXT, ActionKind.OPEN_APP])
def test_text_holding_a_block_terminator_round_trips(kind, terminator):
    # "</" in a text is written "<\/", so the block scan closes the action
    # block at its own terminator
    out = ReferenceTurn(
        think=(ThinkSegment(ThinkTag.VERIFY, "All good."), ThinkSegment(ThinkTag.TEXT, "Type.")),
        verification=Verification.SUCCESS,
        action=ActionRecord(kind=kind, text=f"a{terminator}b <action>"),
        expected_effect="The text appears.",
    )
    text = emit_checked(out)
    assert text.count("</action>") == 1
    assert assert_fixed_point(text) == out


def test_round_trip_fuzz_small(rng: random.Random):
    for _ in range(200):
        out = random_valid_turn(rng)
        assert assert_fixed_point(emit_checked(out)) == out


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
            parse_tvae(blob)
        except DataError:
            pass


def test_parser_never_crashes_on_mutated_valid_turns(rng: random.Random):
    for _ in range(1000):
        text = emit_checked(random_valid_turn(rng))
        cut = sorted(rng.sample(range(len(text) + 1), 2))
        mutated = text[: cut[0]] + text[cut[1]:]
        try:
            parse_tvae(mutated)
        except DataError:
            pass


def test_duplicate_blocks_first_wins():
    text = TYPE_A_TURN + "\n<verification>NO_CHANGE</verification>"
    out = parse_tvae(text)
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
    text = emit_checked(random_valid_turn(random.Random(draw(st.integers(0, 2**32)))))
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


def _outcome(parse, raw: str):
    try:
        out = parse(raw)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("raised", type(exc), str(exc))
    return ("parsed", out, out.warnings)


def _reference_lenient_parse(raw: str) -> TvaeOutput:
    return reference_parse(raw, strict=False).projection()


def _assert_same_as_reference(raw: str) -> None:
    assert _outcome(parse_tvae, raw) == _outcome(_reference_lenient_parse, raw)


def _with_think(body: str) -> str:
    """TYPE_A_TURN with `body` as its think block's body."""
    return f"<think>{body}</think>" + TYPE_A_TURN.split("</think>", 1)[1]


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
@example(raw=_with_think("[Verify][Plan]"))  # an unknown tag alone fills a segment
@example(raw=_with_think("[Plan] x [Verify] y"))  # an unknown tag with no open segment
@example(raw=_with_think("[Verify]  \n[Action]"))  # a blank segment before a known tag
@example(raw=_with_think("The route is shown."))  # trailing text, no tag
def test_parser_matches_reference_on_block_soup(raw):
    _assert_same_as_reference(raw)


@settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=_mutated_turns())
def test_parser_matches_reference_on_mutated_turns(raw):
    _assert_same_as_reference(raw)


def _unclosed_flood(n: int) -> str:
    return "<think>" * n


def _blocks_around_unclosed(n: int) -> str:
    return (
        "<verification>SUCCESS</verification>\n" + "<think>[Verify] x" * n
        + '\n<action>{"action": "navigate_back"}</action>'
    )


@pytest.mark.parametrize("make", [_unclosed_flood, _blocks_around_unclosed])
def test_unclosed_open_tags_parse_in_linear_time(make):
    # Each open tag of a name once searched the rest of the text for its
    # close tag, so a 1 MiB flood took about a minute per parse.
    _assert_same_as_reference(make(50))
    raw = make((1 << 20) // (len(make(2)) - len(make(1))))  # 1 MiB of open tags
    start = time.perf_counter()
    try:
        parse_tvae(raw)
    except DataError:
        pass
    assert time.perf_counter() - start < 5.0


# -- both sides of the emitted-layout match ---------------------------------------------


def _emitted(think: str = "Find the bus routes.", text: str = "bus", effect: str = "Routes appear.",
             verification: Verification = Verification.SUCCESS,
             extra: tuple[ThinkSegment, ...] = ()) -> str:
    return emit_checked(ReferenceTurn(
        think=(ThinkSegment(ThinkTag.VERIFY, "The list opened."),
               ThinkSegment(ThinkTag.RECALL, think), *extra,
               ThinkSegment(ThinkTag.ACTION, "Type the query.")),
        verification=verification,
        action=ActionRecord(kind=ActionKind.INPUT_TEXT, text=text),
        expected_effect=effect,
    ))


_EMITTED = _emitted()
_DIAGNOSE = (ThinkSegment(ThinkTag.DIAGNOSE, "The last tap missed."),)


@pytest.mark.parametrize(
    "raw, in_layout",
    [
        pytest.param(_EMITTED, True, id="emitted"),
        pytest.param(_emitted(verification=Verification.NO_CHANGE, extra=_DIAGNOSE), True,
                     id="emitted-no-change"),
        pytest.param(_emitted(extra=_DIAGNOSE), True, id="success-with-diagnose"),
        pytest.param(_EMITTED.replace("SUCCESS", "NO_CHANGE"), True, id="no-change-unexplained"),
        pytest.param(_EMITTED.replace("SUCCESS", "MAYBE"), True, id="unknown-verification"),
        pytest.param(_EMITTED.replace('"input_text"', '"teleport"'), True, id="unknown-action"),
        pytest.param(_EMITTED.replace("[Recall]", "[Plan] Sketch it.\n[Recall]"), True,
                     id="unknown-tag"),
        pytest.param(_EMITTED.replace("[Recall]", "[Grounding] \n[Recall]"), True,
                     id="blank-segment"),
        pytest.param(_EMITTED.replace("<think>\n", "<think>\nFirst, look.\n"), True,
                     id="leading-untagged-text"),
        pytest.param(_emitted(think="Tap the <b> icon."), False, id="lt-in-think"),
        pytest.param(_emitted(text="a<b"), False, id="lt-in-action-text"),
        pytest.param(_emitted(effect="The <b> list appears."), False, id="lt-in-effect"),
        pytest.param(_EMITTED.replace("Routes appear.", "Routes </think> appear."), False,
                     id="close-think-in-effect"),
        pytest.param(_EMITTED + "\n", False, id="trailing-newline"),
        pytest.param(_EMITTED.replace(">\n<", ">\r\n<"), False, id="crlf-between-blocks"),
        pytest.param(_EMITTED + "\n<verification>NO_CHANGE</verification>", False,
                     id="duplicate-block-after"),
    ],
)
def test_parser_matches_reference_around_emitted_layout(raw, in_layout):
    assert (tvae_codec._EMITTED_TURN.fullmatch(raw) is not None) is in_layout
    _assert_same_as_reference(raw)


# -- emit_action_json against the dict-plus-json.dumps emitter ------------------------


def _reference_emit_action_json(action: ActionRecord) -> str:
    obj: dict = {"action": action.kind.value}
    if action.coordinate is not None:
        x, y = action.coordinate
        if action.in_pixels() and x == int(x) and y == int(y):
            obj["coordinate"] = [int(x), int(y)]
        else:
            obj["coordinate"] = [x, y]
    if action.direction is not None:
        obj["direction"] = action.direction.value
    if action.text is not None:
        obj["text"] = action.text
    if action.seconds is not None:
        obj["time"] = action.seconds if action.seconds != int(action.seconds) else int(action.seconds)
    return json.dumps(obj).replace("</", r"<\/")


def _oracle_actions() -> list[ActionRecord]:
    rng = random.Random(17)
    coordinates = [
        (1e-07, 0.999999), (0.1 + 0.2, 1.0), (0.0, 0.5), (1 / 3, 2 / 3),  # relative
        (317.0, 1190.0), (317, 1190), (2.0, 1.0),  # integral pixels
        (317.5, 1190.0), (1080.25, 2.0), (1.5, 0.5), (2.0, 1e-07),  # fractional pixels
    ]
    coordinates += [(rng.random(), rng.random()) for _ in range(20)]
    coordinates += [(rng.uniform(1, 3000), rng.uniform(0, 3000)) for _ in range(20)]
    coordinates += [(float(rng.randint(2, 3000)), float(rng.randint(0, 3000))) for _ in range(20)]
    texts = [
        "plain", "h\u00e9llo w\u00f6rld", "\u65e5\u672c\u8a9e", "\U0001f600 emoji", 'say "hi"',
        "back\\slash", "tab\there\nnew\rline", "\x00\x1f\x7f\u2028", "</action>", "'single'",
    ]
    texts += ["".join(chr(rng.randint(1, 0x2FFF)) for _ in range(8)) for _ in range(20)]
    waits = [0.0, 2.0, 3, 0.5, 1e-07, 0.1 + 0.2, 0.999999, 1e16, 123456789.0, 2.5e-05]
    waits += [rng.uniform(0, 100) for _ in range(20)] + [float(rng.randint(0, 100)) for _ in range(10)]
    actions = [ActionRecord(kind=k, coordinate=c)
               for k in (ActionKind.CLICK, ActionKind.LONG_PRESS) for c in coordinates]
    actions += [ActionRecord(kind=ActionKind.SCROLL, direction=d) for d in ScrollDirection]
    actions += [ActionRecord(kind=k, text=t)
                for k in (ActionKind.INPUT_TEXT, ActionKind.OPEN_APP) for t in texts]
    actions += [ActionRecord(kind=ActionKind.WAIT, seconds=w) for w in waits]
    actions += [ActionRecord(kind=ActionKind.NAVIGATE_BACK)]
    return actions + [random_valid_action(rng) for _ in range(200)]


def test_emit_action_json_matches_dict_emitter():
    actions = _oracle_actions()
    assert {a.kind for a in actions} == set(ActionKind)
    for action in actions:
        text = emit_action_json(action)
        assert text == _reference_emit_action_json(action)
        assert parse_action_json(text) == action


# -- the emitted-action match against the JSON decode ---------------------------------

_EMITTED_ACTION_BODY = '{"action": "input_text", "text": "bus"}'
assert _EMITTED_ACTION_BODY in _EMITTED

# Literals around the number rule: a JSON integer converts through `int`, so
# "-0" is 0.0, and json.loads refuses an integer beyond 4,300 digits.
_NUMBER_LITERALS = [
    "-0", "-0.0", "0", "0.0", "1e-05", "2.5e-05", "1E-05", "1e5", "1.5e+05", "1e+16",
    "9" * 16, "9" * 17, "1" + "0" * 15, "1" + "0" * 16, "9007199254740993",
    "1" + "0" * 399, "1" + "0" * 4300, "0.1", "0.30000000000000004", "1e400", "1e-400",
    "01", "1.", ".5", "-1", "-1.5", "+1", "NaN", "Infinity", "1e99", "1e100", "0x10",
    "\u0661", "1_000", "true", "null", '"1"',
]
_TEXT_LITERALS = [
    '"h\\u00e9llo"', '"h\u00e9llo"', '"say \\"hi\\""', '"back\\\\slash"', '"tab\\there"',
    '"\u65e5\u672c"', '"\U0001f600"', '"\x7f"', '"a\x1fb"', '""', '" "', "5", "null",
    '"a<b"', '"<br>"', '"x <think>"',
]
_FRAGMENT_CHARS = '-0123456789.eE+ ",[]{}:\\u"'


def _action_bodies() -> list[str]:
    """What `emit_action_json` writes for every layout, with each parameter
    swapped for odd literals, keys renamed, repeated and misplaced, spacing
    changed, and seeded character edits."""
    rng = random.Random(21)
    emitted = [emit_action_json(a) for a in _oracle_actions()]
    bodies = list(emitted)
    for n in _NUMBER_LITERALS:
        bodies += [
            f'{{"action": "click", "coordinate": [{n}, 0.5]}}',
            f'{{"action": "long_press", "coordinate": [317, {n}]}}',
            f'{{"action": "wait", "time": {n}}}',
            f'{{"action": "wait", "seconds": {n}}}',
        ]
    for t in _TEXT_LITERALS:
        bodies += [
            f'{{"action": "input_text", "text": {t}}}', f'{{"action": "open_app", "text": {t}}}'
        ]
    bodies += [
        '{"action": "wait", "time": -1}', '{"action": "wait", "time": -0}',
        '{"action": "wait", "time": 2, "time": 3}',
        '{"action": "click", "action": "wait", "time": 1}',
        '{"action": "scroll", "direction": "up", "direction": "down"}',
        '{"action": "click", "direction": "up"}', '{"action": "scroll", "text": "up"}',
        '{"action": "wait", "coordinate": [1, 2]}', '{"action": "navigate_back", "time": 1}',
        '{"action": "input_text", "time": 1}', '{"action": "scroll", "direction": "diagonal"}',
        '{"action": "teleport"}', '{"action": "navigate_back", "text": "x"}',
    ]
    for body in emitted:
        bodies += [
            body.replace(": ", ":"), body.replace(", ", ","), body.replace(", ", ",  "),
            " " + body, body + " ", body.replace("{", "{ ", 1), body.replace('"action"', '"kind"'),
            body.replace('"time"', '"seconds"'), body.replace("[", "[ "),
        ]
        for _ in range(8):
            chars = list(body)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(chars) + 1)
                op = rng.randrange(3)
                if op == 0 and i < len(chars):
                    del chars[i]
                elif op == 1:
                    chars.insert(i, rng.choice(_FRAGMENT_CHARS))
                elif i < len(chars):
                    chars[i] = rng.choice(_FRAGMENT_CHARS)
            bodies.append("".join(chars))
    return [b for b in dict.fromkeys(bodies) if "</" not in b]


def _repr_or_error(read, body: str):
    try:
        return repr(read(body))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return (type(exc), str(exc))


def test_emitted_action_match_matches_json_decode():
    # A body holding "<" takes the block scan rather than the layout match,
    # so both ways of splitting a turn are covered.
    bodies = _action_bodies()
    for body in bodies:
        raw = _EMITTED.replace(_EMITTED_ACTION_BODY, body)
        got = _repr_or_error(lambda b: parse_tvae(raw).action, body)
        assert got == _repr_or_error(parse_action_json, body.strip()), body
    # The match reads every emitted action but those with a JSON escape or an
    # integer of 17 digits, and no other text holds the most bodies.
    matched = {b for b in bodies if tvae_codec._EMITTED_ACTION.fullmatch(b.strip())}
    emitted = [emit_action_json(a) for a in _oracle_actions()]
    assert [b for b in emitted if b not in matched and "\\" not in b and "</" not in b] == [
        '{"action": "wait", "time": 10000000000000000}'
    ]
    assert any("<" in b for b in matched)
    assert len(matched) > 500 and len(bodies) - len(matched) > 5000


_TOKENS = "turn: invalid think (segment body embeds grammar tokens)"
_TERMINATOR = "turn: invalid expected_effect (embeds block terminator)"


# `readable` and `effect_readable` are True, False for padded or blank text,
# or the message that refuses a text embedding a token the parse would read
@pytest.mark.parametrize("body, readable", [
    (" go back", False), ("go back ", False), (" go back ", False), ("go back\n", False),
    ("\tgo back", False), ("go\u00a0", False), ("", False), ("   ", False), ("\n", False),
    ("go back", True), ("go\nback", True), ("go  back", True), ("a [ b ] c", True),
    pytest.param("go [Plan] back", _TOKENS, id="embeds-a-tag"),
    pytest.param("go </think> back", _TOKENS, id="embeds-a-terminator"),
])
@pytest.mark.parametrize("effect, effect_readable", [
    ("The screen changes.", True), (" The screen changes. ", False),
    ("The screen changes.\n", False), ("\u2003The screen changes.", False),
    ("The\nscreen changes.", True),
    pytest.param("The </action> changes.", _TERMINATOR, id="effect-embeds-a-terminator"),
])
def test_emit_refuses_padded_text_and_round_trips_the_rest(body, readable, effect, effect_readable):
    # parse strips segment bodies and the effect, so emitting padded text
    # would break both parse(emit(x)) == x and the byte-level fixed point;
    # emit checks padding first, then embedded tokens, bodies before the effect
    out = ReferenceTurn(
        think=(ThinkSegment(ThinkTag.VERIFY, "Checked."), ThinkSegment(ThinkTag.ACTION, body)),
        verification=Verification.SUCCESS,
        action=ActionRecord(kind=ActionKind.NAVIGATE_BACK),
        expected_effect=effect,
    )
    if not readable:
        why = "empty segment body" if not body.strip() else (
            "segment body has leading or trailing whitespace")
        with pytest.raises(DataError, match=rf"^think: invalid Action \({why}\)$"):
            emit_checked(out)
    elif not effect_readable:
        why = r"^turn: invalid expected_effect \(has leading or trailing whitespace\)$"
        with pytest.raises(DataError, match=why):
            emit_checked(out)
    elif readable is not True or effect_readable is not True:
        with pytest.raises(DataError) as err:
            emit_checked(out)
        assert str(err.value) == (readable if readable is not True else effect_readable)
    else:
        assert assert_fixed_point(emit_checked(out)) == out
