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
from functools import lru_cache
from typing import Any

from .errors import (
    InvariantViolationError,
    MalformedActionJsonError,
    MissingBlockError,
    UnknownActionKindError,
    UnknownThinkTagError,
    UnknownVerificationError,
)
from .trajectory_store import (
    ActionKind,
    ActionRecord,
    CoordinateSpace,
    ScrollDirection,
    action_from_json,
    action_to_json,
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


@dataclass(frozen=True)
class ThinkSegment:
    tag: ThinkTag
    body: str

    def __post_init__(self) -> None:
        if not self.body or self.body.isspace():
            raise InvariantViolationError("think", self.tag.value, "empty segment body")


@dataclass(frozen=True)
class TvaeOutput:
    """A validated parsed turn. `warnings` carries lenient-mode notes and is
    excluded from equality so round-trip comparisons stay structural."""

    think: tuple[ThinkSegment, ...]
    verification: Verification
    action: ActionRecord
    expected_effect: str
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def validate(self) -> None:
        """Raise InvariantViolationError unless all structural rules hold."""
        problem = _turn_problem(self.think, self.verification, self.expected_effect)
        if problem is not None:
            raise problem


def _turn_problem(
    think: tuple[ThinkSegment, ...], verification: Verification, effect: str
) -> InvariantViolationError | None:
    """The first structural rule a turn breaks, or None."""
    if not think:
        return InvariantViolationError("turn", "think", "needs at least one segment")
    tags = {s.tag for s in think}
    if ThinkTag.VERIFY in tags and think[0].tag is not ThinkTag.VERIFY:
        return InvariantViolationError("turn", "think", "[Verify] must come first")
    if verification is Verification.NO_CHANGE and not RECOVERY_TAGS & tags:
        return InvariantViolationError(
            "turn", "think", "NO_CHANGE requires a [Diagnose] or [Recovery] segment"
        )
    if not effect.strip():
        return InvariantViolationError("turn", "expected_effect", "must be non-empty")
    return None


@dataclass(frozen=True)
class HistoryEntry:
    """One prior turn as carried in the running interaction history."""

    action: ActionRecord
    expected_effect: str
    verification: Verification


_OPEN_RE = re.compile(r"<(think|verification|action|expected_effect)>")
_TAG_RE = re.compile(r"\[([A-Za-z][A-Za-z0-9_]*)\]")
_KNOWN_TAGS = {t.value: t for t in ThinkTag}
_VERIFICATIONS = {v.value: v for v in Verification}
_ACTION_KINDS = {k.value: k for k in ActionKind}
_TAG_PREFIX = {t: f"[{t.value}] " for t in ThinkTag}


def _assemble_segments(body: str, strict: bool, warnings: list[str]) -> tuple[ThinkSegment, ...]:
    # split() alternates text and tag tokens: [text, token, text, ..., text].
    pieces = _TAG_RE.split(body)
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
            known = _KNOWN_TAGS.get(token)
            if known is None:
                if strict:
                    raise UnknownThinkTagError(token)
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


def _coerce_coordinate(raw: Any) -> tuple[float, float]:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
    ):
        raise MalformedActionJsonError(f"coordinate must be [x, y], got {raw!r}")
    return (float(raw[0]), float(raw[1]))


def parse_action_json(body: str) -> ActionRecord:
    """Parse the executable action JSON ({"action": ..., params}).

    The wait duration key is "time" (with "seconds" accepted as an alias).
    Coordinate space is inferred by magnitude: any component > 1.0 means
    raw pixels; conversion is deferred to the simulation layer.
    """
    try:
        obj = json.loads(body)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedActionJsonError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise MalformedActionJsonError("action body is not a JSON object")
    if "action" not in obj:
        raise MalformedActionJsonError('missing "action" key')
    token = obj["action"]
    kind = _ACTION_KINDS.get(token) if isinstance(token, str) else None
    if kind is None:
        raise UnknownActionKindError(str(token))
    try:
        if kind in (ActionKind.CLICK, ActionKind.LONG_PRESS):
            coord = _coerce_coordinate(obj.get("coordinate"))
            space = (
                CoordinateSpace.PIXEL
                if coord[0] > 1.0 or coord[1] > 1.0
                else CoordinateSpace.RELATIVE
            )
            return ActionRecord(kind=kind, coordinate=coord, coordinate_space=space)
        if kind is ActionKind.SCROLL:
            try:
                direction = ScrollDirection(obj.get("direction"))
            except ValueError:
                raise MalformedActionJsonError(
                    f"bad scroll direction {obj.get('direction')!r}"
                ) from None
            return ActionRecord(kind=kind, direction=direction)
        if kind in (ActionKind.INPUT_TEXT, ActionKind.OPEN_APP):
            text = obj.get("text")
            if not isinstance(text, str) or not text:
                raise MalformedActionJsonError("text must be a non-empty string")
            return ActionRecord(kind=kind, text=text)
        if kind is ActionKind.WAIT:
            raw = obj.get("time", obj.get("seconds"))
            if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw < 0:
                raise MalformedActionJsonError(f"bad wait duration {raw!r}")
            return ActionRecord(kind=kind, seconds=float(raw))
        return ActionRecord(kind=kind)
    except InvariantViolationError as exc:
        raise MalformedActionJsonError(str(exc)) from exc


def emit_action_json(action: ActionRecord) -> str:
    obj: dict[str, Any] = {"action": action.kind.value}
    if action.coordinate is not None:
        x, y = action.coordinate
        if action.coordinate_space is CoordinateSpace.PIXEL and x == int(x) and y == int(y):
            obj["coordinate"] = [int(x), int(y)]
        else:
            obj["coordinate"] = [x, y]
    if action.direction is not None:
        obj["direction"] = action.direction.value
    if action.text is not None:
        obj["text"] = action.text
    if action.seconds is not None:
        obj["time"] = action.seconds if action.seconds != int(action.seconds) else int(action.seconds)
    return json.dumps(obj)


def parse_tvae(raw: str, strict: bool = True) -> TvaeOutput:
    """Parse raw turn text into a TvaeOutput.

    Strict mode enforces every structural invariant.  Lenient mode returns a
    best-effort parse with `warnings` populated; it still raises typed errors
    when no executable action or verification can be recovered at all.
    """
    warnings: list[str] = []
    blocks: dict[str, str] = {}
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
            raise MissingBlockError(name)
    if strict:
        for name in BLOCK_NAMES:
            if name not in blocks:
                raise MissingBlockError(name)

    ver_token = blocks["verification"].strip()
    verification = _VERIFICATIONS.get(ver_token)
    if verification is None:
        raise UnknownVerificationError(ver_token)

    action = parse_action_json(blocks["action"].strip())

    think = _assemble_segments(blocks.get("think", ""), strict, warnings)
    if "think" not in blocks:
        warnings.append("missing <think> block")

    effect = blocks.get("expected_effect", "").strip()
    if "expected_effect" not in blocks:
        warnings.append("missing <expected_effect> block")

    problem = _turn_problem(think, verification, effect)
    if problem is not None:
        if strict:
            raise problem
        warnings.append(str(problem))
    if verification is Verification.SUCCESS and any(s.tag in RECOVERY_TAGS for s in think):
        # Undefined combination; surfaced rather than resolved by precedence.
        warnings.append("SUCCESS verification alongside [Diagnose]/[Recovery] tags")
    return TvaeOutput(think, verification, action, effect, tuple(warnings))


_FORBIDDEN_IN_BODY = re.compile(
    r"</(?:think|verification|action|expected_effect)>"
)
_UNSAFE_BODY = re.compile(
    r"\[[A-Za-z][A-Za-z0-9_]*\]|</(?:think|verification|action|expected_effect)>"
)


@lru_cache(maxsize=4096)
def _body_is_safe(body: str) -> bool:
    return _UNSAFE_BODY.search(body) is None


def emit_tvae(out: TvaeOutput) -> str:
    """Serialize a valid TvaeOutput in canonical block order.

    parse_tvae(emit_tvae(x)) is structurally equal to x, and emit is a
    byte-level fixed point over parse.  Segment bodies must not embed tag
    tokens or block terminators, which would make the text unparseable.
    """
    out.validate()
    for seg in out.think:
        if not _body_is_safe(seg.body):
            raise InvariantViolationError("turn", "think", "segment body embeds grammar tokens")
    if _FORBIDDEN_IN_BODY.search(out.expected_effect):
        raise InvariantViolationError("turn", "expected_effect", "embeds block terminator")
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
        "verification": entry.verification.value,
    }


def history_entry_from_json(obj: dict[str, Any]) -> HistoryEntry:
    return HistoryEntry(
        action=action_from_json(obj["action"]),
        expected_effect=str(obj["expected_effect"]),
        verification=Verification(obj["verification"]),
    )
