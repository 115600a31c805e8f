"""Parser and the one writer of the four-block structured turn grammar.

A turn consists of <think>, <verification>, <action>, <expected_effect>
blocks (any order on input, canonical order on output).  Think text is a
sequence of tagged segments drawn from a closed vocabulary; verification is
the binary SUCCESS / NO_CHANGE judgment; the action block holds executable
JSON keyed by "action".  The parse checks the think block through its tags
and blank segments, and keeps none of its text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any

from .errors import DataError
from .records import coordinate_pair, json_value, member, number
from .trajectory_store import (
    ACTION_KINDS,
    SCROLL_DIRECTIONS,
    SPATIAL_KINDS,
    TEXT_KINDS,
    ActionKind,
    ActionRecord,
    action_from_json,
    action_line,
    normalize_action,
)


class ThinkTag(str, Enum):
    VERIFY = "Verify"
    RECALL = "Recall"
    GROUNDING = "Grounding"
    COORDINATE = "Coordinate"
    DIRECTION = "Direction"
    TEXT = "Text"
    ACTION = "Action"
    DIAGNOSE = "Diagnose"
    RECOVERY = "Recovery"


class Verification(str, Enum):
    SUCCESS = "SUCCESS"
    NO_CHANGE = "NO_CHANGE"


RECOVERY_TAGS = frozenset({ThinkTag.DIAGNOSE, ThinkTag.RECOVERY})
BLOCK_NAMES = ("think", "verification", "action", "expected_effect")


@dataclass(slots=True)
class TvaeOutput:
    """A parsed turn plus its warnings, one per structure problem the parse
    read past; `warnings` is left out of equality, so round trips compare
    structure.  The think block is checked through its tags, not kept."""

    verification: Verification
    action: ActionRecord
    expected_effect: str
    warnings: tuple[str, ...] = field(default=(), compare=False)


def _turn_problem(
    tags: tuple[ThinkTag, ...], verification: Verification, effect: str
) -> str | None:
    """The message of the first structural rule a turn breaks, or None; `tags`
    are its non-blank think segments' tags, in order.  The parse warns of it;
    `emit_tvae` checks nothing, so a turn that breaks a rule is written as given."""
    if not tags:
        return "turn: invalid think (needs at least one segment)"
    if ThinkTag.VERIFY in tags and tags[0] is not ThinkTag.VERIFY:
        return "turn: invalid think ([Verify] must come first)"
    if verification is Verification.NO_CHANGE and RECOVERY_TAGS.isdisjoint(tags):
        return "turn: invalid think (NO_CHANGE requires a [Diagnose] or [Recovery] segment)"
    if not effect.strip():
        return "turn: invalid expected_effect (must be non-empty)"
    return None


@dataclass(slots=True)
class HistoryEntry:
    """One prior turn as carried in the running interaction history."""

    action: ActionRecord
    expected_effect: str
    verification: Verification


_BLOCK_ALTERNATIVES = "|".join(BLOCK_NAMES)
_OPEN_RE = re.compile(f"<({_BLOCK_ALTERNATIVES})>")
_TAG_RE = re.compile(r"\[([A-Za-z][A-Za-z0-9_]*)\]")
_KNOWN_TAGS = {t.value: t for t in ThinkTag}
VERIFICATIONS = {v.value: v for v in Verification}


def _think_tags(body: str, warnings: list[str]) -> tuple[ThinkTag, ...]:
    """The tags of the think block's non-blank segments, in order; an unknown
    tag counts as text of the open segment, a blank segment is dropped."""
    # split() alternates text and tag tokens: [text, token, text, ..., text].
    pieces = _TAG_RE.split(body)
    tags = [_KNOWN_TAGS.get(token) for token in pieces[1::2]]
    if None not in tags and "" not in map(str.strip, pieces[2::2]) and not pieces[0].strip():
        # Known tags, each followed by text: the loop below would warn of
        # nothing and keep every tag.
        return tuple(tags)
    last = len(pieces) - 1
    kept: list[ThinkTag] = []
    tag: ThinkTag | None = None
    filled = False  # the open segment holds text
    for i in range(0, last + 1, 2):
        text = pieces[i]
        if tag is not None:
            filled = filled or bool(text.strip())
        elif text.strip():
            warnings.append(
                "untagged leading think text ignored" if i < last else "untagged think text ignored"
            )
        known = None
        if i < last:
            known = tags[i // 2]
            if known is None:
                warnings.append(f"unknown think tag [{pieces[i + 1]}] folded into previous segment")
                filled = True
                continue
        # A known tag or the end of the body closes the open segment.
        if tag is not None:
            if filled:
                kept.append(tag)
            else:
                warnings.append(f"dropped empty [{tag.value}] segment")
        tag, filled = known, False
    return tuple(kept)


def parse_action_json(body: str) -> ActionRecord:
    """Parse the executable action JSON ({"action": ..., params}).

    The wait duration key is "time" (with "seconds" accepted as an alias).
    A coordinate with a component > 1.0 is raw pixels
    (`ActionRecord.in_pixels`); conversion is deferred to the simulation layer.
    """
    try:
        obj = json.loads(body)
    except (ValueError, RecursionError) as exc:  # ValueError: also an over-long integer
        raise DataError(f"malformed action JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError("malformed action JSON: action body is not a JSON object")
    if "action" not in obj:
        raise DataError('malformed action JSON: missing "action" key')
    token = obj["action"]
    kind = ACTION_KINDS.get(token) if isinstance(token, str) else None
    if kind is None:
        raise DataError(f"unknown action kind {str(token)!r}")
    if kind in SPATIAL_KINDS:
        coord = coordinate_pair(raw := obj.get("coordinate"))
        if coord is None:
            raise DataError(f"malformed action JSON: coordinate must be [x, y], got {raw!r}")
        return ActionRecord(kind=kind, coordinate=coord)
    if kind is ActionKind.SCROLL:
        raw = obj.get("direction")
        direction = SCROLL_DIRECTIONS.get(raw) if isinstance(raw, str) else None
        if direction is None:
            raise DataError(f"malformed action JSON: bad scroll direction {raw!r}")
        return ActionRecord(kind=kind, direction=direction)
    if kind in TEXT_KINDS:
        text = obj.get("text")
        if not isinstance(text, str) or not text:
            raise DataError("malformed action JSON: text must be a non-empty string")
        return ActionRecord(kind=kind, text=text)
    if kind is ActionKind.WAIT:
        raw = obj.get("time", obj.get("seconds"))
        seconds = number(raw)
        if seconds is None or seconds < 0:
            raise DataError(f"malformed action JSON: bad wait duration {raw!r}")
        return ActionRecord(kind=kind, seconds=seconds)
    return ActionRecord(kind=kind)


def emit_action_json(action: ActionRecord) -> str:
    """The action's JSON as `json.dumps` writes its {"action": ..., param}
    object: an integral pixel coordinate or wait duration as integers.  A
    "</" in a text is written "<\\/", which JSON reads back as "</", so no
    block terminator in a text can close its <action> block."""
    head = f'{{"action": "{action.kind._value_}"'
    if action.coordinate is not None:
        x, y = action.coordinate
        if action.in_pixels() and x == int(x) and y == int(y):
            x, y = int(x), int(y)
        return f'{head}, "coordinate": [{x!r}, {y!r}]}}'
    if action.direction is not None:
        return f'{head}, "direction": "{action.direction._value_}"}}'
    if action.text is not None:
        text = json.dumps(action.text).replace("</", r"<\/")
        return f'{head}, "text": {text}}}'
    if action.seconds is not None:
        seconds = action.seconds
        return f'{head}, "time": {int(seconds) if seconds == int(seconds) else seconds!r}}}'
    return head + "}"


# The layout `emit_tvae` writes, each block body free of "<".
_EMITTED_TURN = re.compile("\n".join(f"<{n}>(?P<{n}>[^<]*)</{n}>" for n in BLOCK_NAMES))

# A JSON number as `emit_action_json` writes one: an integer or a float's
# `repr`, unsigned, with at most 16 integer digits and a 2-digit exponent.
# `float` of such a literal is what `json.loads` and then `number` make of
# it: an integer below 1e16 converts exactly as its `int` does, no value
# overflows, and no "-0" (an integer, so 0.0) is read as -0.0.  `[0-9]`,
# since `\d` also matches digits that JSON does not know.
_NUMBER = r"(?:0|[1-9][0-9]{0,15})(?:\.[0-9]+)?(?:e[-+][0-9]{2})?"
# The action object as `emit_action_json` writes it, each kind with exactly
# its parameter and a text that needs no JSON escape.
_EMITTED_ACTION = re.compile(
    r'\{"action": "(?:'
    rf'(?P<spatial>click|long_press)", "coordinate": \[(?P<x>{_NUMBER}), (?P<y>{_NUMBER})\]'
    r'|scroll", "direction": "(?P<direction>up|down|left|right)"'
    r'|(?P<textual>input_text|open_app)", "text": "(?P<text>[^"\\\x00-\x1f]+)"'
    rf'|wait", "time": (?P<time>{_NUMBER})'
    r'|navigate_back")\}'
)


def _emitted_action(
    spatial: str | None, x: str | None, y: str | None, direction: str | None,
    textual: str | None, text: str | None, seconds: str | None,
) -> ActionRecord:
    """The action of an `_EMITTED_ACTION` match, from its groups: the record
    `parse_action_json` makes of the same object, with no JSON decode."""
    if x is not None:
        coordinate = (float(x), float(y))  # type: ignore[arg-type]
        return ActionRecord(ACTION_KINDS[spatial], coordinate)  # type: ignore[index]
    if direction is not None:
        return ActionRecord(ActionKind.SCROLL, direction=SCROLL_DIRECTIONS[direction])
    if text is not None:
        return ActionRecord(ACTION_KINDS[textual], text=text)  # type: ignore[index]
    if seconds is not None:
        return ActionRecord(ActionKind.WAIT, seconds=float(seconds))
    return ActionRecord(ActionKind.NAVIGATE_BACK)


def parse_tvae(raw: str) -> TvaeOutput:
    """Parse raw turn text into a TvaeOutput.

    It raises a DataError only when no verification or executable action
    can be read: a missing <verification> or <action> block, an unknown
    verification token or a bad action.  Any other problem is a warning,
    among them a break of one of the four turn rules (`_turn_problem`).
    The think block is read only for those warnings: its tag order, its
    unknown tags, and its untagged and blank text.

    Text in exactly the layout `emit_tvae` writes, with no "<" inside a
    block, is split into its four blocks by one full match.  The block scan
    would find the same four: each body holds no tag, so each block closes
    at its own terminator, and nothing is left over to warn of.  Any other
    text takes the scan.  An action written as `emit_action_json` writes it
    is read from `_EMITTED_ACTION`'s groups; any other is decoded as JSON.
    """
    warnings: list[str] = []
    emitted = _EMITTED_TURN.fullmatch(raw)
    if emitted is not None:
        blocks = emitted.groupdict()
    else:
        blocks = {}
        unclosed: set[str] = set()  # no close tag follows: no later open can close
        pos = 0
        while (m := _OPEN_RE.search(raw, pos)) is not None:
            # Same match as <(name)>(.*?)</\1>: the first close tag of that name.
            name = m.group(1)
            close = -1 if name in unclosed else raw.find(f"</{name}>", m.end())
            if close < 0:
                unclosed.add(name)
                pos = m.end()
                continue
            if name in blocks:
                warnings.append(f"duplicate <{name}> block ignored")
            else:
                blocks[name] = raw[m.end():close]
            pos = close + len(name) + 3
        for name in ("verification", "action"):
            if name not in blocks:
                raise DataError(f"missing <{name}> block")

    ver_token = blocks["verification"].strip()
    verification = VERIFICATIONS.get(ver_token)
    if verification is None:
        raise DataError(f"unknown verification token {ver_token!r}")

    action_body = blocks["action"].strip()
    m = _EMITTED_ACTION.fullmatch(action_body)
    action = _emitted_action(*m.groups()) if m is not None else parse_action_json(action_body)

    tags = _think_tags(blocks.get("think", ""), warnings)
    if "think" not in blocks:
        warnings.append("missing <think> block")

    effect = blocks.get("expected_effect", "").strip()
    if "expected_effect" not in blocks:
        warnings.append("missing <expected_effect> block")

    if (problem := _turn_problem(tags, verification, effect)) is not None:
        warnings.append(problem)
    if verification is Verification.SUCCESS and not RECOVERY_TAGS.isdisjoint(tags):
        # Undefined combination; surfaced rather than resolved by precedence.
        warnings.append("SUCCESS verification alongside [Diagnose]/[Recovery] tags")
    return TvaeOutput(verification, action, effect, tuple(warnings))


def emit_tvae(
    think: str, verification: Verification, action: ActionRecord, effect: str
) -> str:
    """The four blocks in canonical order, with `think` the block body: its
    `[Tag] body` lines joined by newlines.  Nothing is checked: the caller
    passes texts that are safe by construction, and the parse judges the
    turn rules (`_turn_problem`) of whatever it reads."""
    return (
        f"<think>\n{think}\n</think>\n"
        f"<verification>{verification._value_}</verification>\n"
        f"<action>{emit_action_json(action)}</action>\n"
        f"<expected_effect>{effect}</expected_effect>"
    )


def history_entry_line(entry: HistoryEntry) -> str:
    """A history entry's JSON text (its action in dataset form, its effect and
    its verification), written as `action_line` writes its action."""
    return (
        f'{{"action":{action_line(entry.action)},'
        f'"expected_effect":{_json_str(entry.expected_effect)},'
        f'"verification":"{entry.verification._value_}"}}'
    )


def history_entry_from_json(obj: dict[str, Any], dims: tuple[int, int] | None) -> HistoryEntry:
    """An entry whose pixel coordinate is converted with `dims`."""
    return HistoryEntry(
        action=normalize_action(action_from_json(obj["action"]), dims),
        expected_effect=json_value(obj, "expected_effect", str, "history"),
        verification=member(VERIFICATIONS, obj["verification"], Verification),
    )
