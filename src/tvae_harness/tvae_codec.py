"""Parser and canonical emitter for the four-block structured turn grammar.

A turn consists of <think>, <verification>, <action>, <expected_effect>
blocks (any order on input, canonical order on output).  Think text is a
sequence of tagged segments drawn from a closed vocabulary; verification is
the binary SUCCESS / NO_CHANGE judgment; the action block holds executable
JSON keyed by "action".
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
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
    action_to_json,
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
class ThinkSegment:
    tag: ThinkTag
    body: str

    def __post_init__(self) -> None:
        if not self.body or self.body.isspace():
            raise DataError(f"think: invalid {self.tag.value} (empty segment body)")


@dataclass(slots=True)
class TvaeOutput:
    """A validated parsed turn. `warnings` carries lenient-mode notes and is
    excluded from equality so round-trip comparisons stay structural."""

    think: tuple[ThinkSegment, ...]
    verification: Verification
    action: ActionRecord
    expected_effect: str
    warnings: tuple[str, ...] = field(default=(), compare=False)


def _turn_problem(
    think: tuple[ThinkSegment, ...], tags: set[ThinkTag], verification: Verification, effect: str
) -> DataError | None:
    """The first structural rule a turn breaks, or None; `tags` is the set
    of its segments' tags."""
    if not think:
        return DataError("turn: invalid think (needs at least one segment)")
    if ThinkTag.VERIFY in tags and think[0].tag is not ThinkTag.VERIFY:
        return DataError("turn: invalid think ([Verify] must come first)")
    if verification is Verification.NO_CHANGE and not RECOVERY_TAGS & tags:
        return DataError(
            "turn: invalid think (NO_CHANGE requires a [Diagnose] or [Recovery] segment)"
        )
    if not effect.strip():
        return DataError("turn: invalid expected_effect (must be non-empty)")
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
_TAG_PREFIX = {t: f"[{t.value}] " for t in ThinkTag}


def _assemble_segments(body: str, strict: bool, warnings: list[str]) -> tuple[ThinkSegment, ...]:
    # split() alternates text and tag tokens: [text, token, text, ..., text].
    pieces = _TAG_RE.split(body)
    tags = [_KNOWN_TAGS.get(token) for token in pieces[1::2]]
    texts = [text.strip() for text in pieces[2::2]]
    if None not in tags and "" not in texts and not pieces[0].strip():
        # Known tags, each followed by text: the loop below would warn of
        # nothing and build exactly these segments.
        return tuple(map(ThinkSegment, tags, texts))
    last = len(pieces) - 1
    segments: list[ThinkSegment] = []
    tag: ThinkTag | None = None
    parts: list[str] = []
    for i in range(0, last + 1, 2):
        text = pieces[i]
        if tag is not None:
            parts.append(text)
        elif text.strip():
            warnings.append(
                "untagged leading think text ignored" if i < last else "untagged think text ignored"
            )
        known = None
        if i < last:
            token = pieces[i + 1]
            known = tags[i // 2]
            if known is None:
                if strict:
                    raise DataError(f"unknown think tag [{token}]")
                warnings.append(f"unknown think tag [{token}] folded into previous segment")
                if tag is not None:
                    parts.append(f"[{token}]")
                continue
        # A known tag or the end of the body closes the open segment.
        if tag is not None:
            joined = "".join(parts).strip()
            if joined:
                segments.append(ThinkSegment(tag, joined))
            else:
                warnings.append(f"dropped empty [{tag.value}] segment")
        tag, parts = known, []
    return tuple(segments)


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
    object: an integral pixel coordinate or wait duration as integers."""
    head = f'{{"action": "{action.kind.value}"'
    if action.coordinate is not None:
        x, y = action.coordinate
        if action.in_pixels() and x == int(x) and y == int(y):
            x, y = int(x), int(y)
        return f'{head}, "coordinate": [{x!r}, {y!r}]}}'
    if action.direction is not None:
        return f'{head}, "direction": "{action.direction.value}"}}'
    if action.text is not None:
        return f'{head}, "text": {json.dumps(action.text)}}}'
    if action.seconds is not None:
        seconds = action.seconds
        return f'{head}, "time": {int(seconds) if seconds == int(seconds) else seconds!r}}}'
    return head + "}"


# The layout `emit_tvae` writes, each block body free of "<".
_EMITTED_TURN = re.compile("\n".join(f"<{n}>(?P<{n}>[^<]*)</{n}>" for n in BLOCK_NAMES))


def parse_tvae(raw: str, strict: bool = True) -> TvaeOutput:
    """Parse raw turn text into a TvaeOutput.

    Strict mode enforces every structural invariant.  Lenient mode returns a
    best-effort parse with `warnings` populated; it still raises typed errors
    when no executable action or verification can be recovered at all.

    Text in exactly the layout `emit_tvae` writes, with no "<" inside a
    block, is split into its four blocks by one full match.  The block scan
    would find the same four: each body holds no tag, so each block closes
    at its own terminator, and nothing is left over to warn of.  Any other
    text takes the scan.
    """
    warnings: list[str] = []
    emitted = _EMITTED_TURN.fullmatch(raw)
    if emitted is not None:
        blocks = emitted.groupdict()
    else:
        blocks = {}
        pos = 0
        while (m := _OPEN_RE.search(raw, pos)) is not None:
            # Same match as <(name)>(.*?)</\1>: the first close tag of that name.
            name = m.group(1)
            close = raw.find(f"</{name}>", m.end())
            if close < 0:
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
        if strict:
            for name in BLOCK_NAMES:
                if name not in blocks:
                    raise DataError(f"missing <{name}> block")

    ver_token = blocks["verification"].strip()
    verification = VERIFICATIONS.get(ver_token)
    if verification is None:
        raise DataError(f"unknown verification token {ver_token!r}")

    action = parse_action_json(blocks["action"].strip())

    think = _assemble_segments(blocks.get("think", ""), strict, warnings)
    if "think" not in blocks:
        warnings.append("missing <think> block")

    effect = blocks.get("expected_effect", "").strip()
    if "expected_effect" not in blocks:
        warnings.append("missing <expected_effect> block")

    tags = {s.tag for s in think}
    problem = _turn_problem(think, tags, verification, effect)
    if problem is not None:
        if strict:
            raise problem
        warnings.append(str(problem))
    if verification is Verification.SUCCESS and not RECOVERY_TAGS.isdisjoint(tags):
        # Undefined combination; surfaced rather than resolved by precedence.
        warnings.append("SUCCESS verification alongside [Diagnose]/[Recovery] tags")
    return TvaeOutput(think, verification, action, effect, tuple(warnings))


_FORBIDDEN_IN_BODY = re.compile(f"</(?:{_BLOCK_ALTERNATIVES})>")
_UNSAFE_BODY = re.compile(rf"\[[A-Za-z][A-Za-z0-9_]*\]|{_FORBIDDEN_IN_BODY.pattern}")


def emit_tvae(out: TvaeOutput) -> str:
    """Serialize a valid TvaeOutput in canonical block order.

    parse_tvae(emit_tvae(x)) is structurally equal to x, and emit is a
    byte-level fixed point over parse.  Segment bodies must not embed tag
    tokens or block terminators, which would make the text unparseable.
    """
    problem = _turn_problem(
        out.think, {s.tag for s in out.think}, out.verification, out.expected_effect
    )
    if problem is not None:
        raise problem
    # No grammar token spans a newline, so one search of the joined bodies
    # finds one exactly when some body embeds it.
    if _UNSAFE_BODY.search("\n".join([s.body for s in out.think])):
        raise DataError("turn: invalid think (segment body embeds grammar tokens)")
    if _FORBIDDEN_IN_BODY.search(out.expected_effect):
        raise DataError("turn: invalid expected_effect (embeds block terminator)")
    think_lines = "\n".join([_TAG_PREFIX[s.tag] + s.body for s in out.think])
    return (
        f"<think>\n{think_lines}\n</think>\n"
        f"<verification>{out.verification.value}</verification>\n"
        f"<action>{emit_action_json(out.action)}</action>\n"
        f"<expected_effect>{out.expected_effect}</expected_effect>"
    )


def history_entry_to_json(entry: HistoryEntry) -> dict[str, Any]:
    return {
        "action": action_to_json(entry.action),
        "expected_effect": entry.expected_effect,
        "verification": entry.verification._value_,
    }


def history_entry_from_json(obj: dict[str, Any], dims: tuple[int, int] | None) -> HistoryEntry:
    """An entry whose pixel coordinate is converted with `dims`."""
    return HistoryEntry(
        action=normalize_action(action_from_json(obj["action"]), dims),
        expected_effect=json_value(obj, "expected_effect", str, "history"),
        verification=member(VERIFICATIONS, obj["verification"], Verification),
    )
