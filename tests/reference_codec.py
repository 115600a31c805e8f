"""Reference turn codec: the original multi-pass `parse_tvae`, and the checked
emitter `emit_checked`.

The parser is kept verbatim in behaviour (one block regex with a
back-reference, a `flush` closure per think segment, enum construction by
value, validation by raising and rebuilding the output) so the single-pass
parser in `tvae_harness.tvae_codec` can be checked against it for equal
results, identical warnings and identical errors.  That check also covers the
parser's one full match of the layout `emit_tvae` writes: turns in that
layout and turns just outside it must parse as the block scan here does.

The program checks the think block through its tags and keeps none of its
text.  The reference keeps it: it returns a `ReferenceTurn`, whose think
segments (`ThinkSegment`, each a tag and its stripped body) are what
`emit_checked` writes back, and whose `projection` is the `TvaeOutput` the
program's parse must return.

The program has one turn writer, `tvae_codec.emit_tvae`, and it checks
nothing: in the program, the parse judges the four turn rules and warns.
`emit_checked` is that writer behind every check a turn must pass to be a
byte-level fixed point of the parse, and it raises on the first one a turn
fails.  The fixed-point, pinned-text and equivalence tests write through it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any

from tvae_harness.errors import DataError
from tvae_harness.trajectory_store import ActionKind, ActionRecord, ScrollDirection
from tvae_harness.tvae_codec import (
    BLOCK_NAMES,
    RECOVERY_TAGS,
    ThinkTag,
    TvaeOutput,
    Verification,
    _turn_problem,
    emit_tvae,
)

_BLOCK_RE = re.compile(
    r"<(think|verification|action|expected_effect)>(.*?)</\1>", re.DOTALL
)
_TAG_RE = re.compile(r"\[([A-Za-z][A-Za-z0-9_]*)\]")
_KNOWN_TAGS = {t.value: t for t in ThinkTag}


@dataclass(slots=True)
class ThinkSegment:
    """One tagged think segment.  The parser builds only non-blank, unpadded
    bodies: it strips each body and drops a blank one with a warning."""

    tag: ThinkTag
    body: str


@dataclass(slots=True)
class ReferenceTurn:
    """A turn with its think segments: the fields of `TvaeOutput` plus `think`."""

    think: tuple[ThinkSegment, ...]
    verification: Verification
    action: ActionRecord
    expected_effect: str
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def projection(self) -> TvaeOutput:
        """The turn without its think segments, as the program's parse returns it."""
        return TvaeOutput(self.verification, self.action, self.expected_effect, self.warnings)


def validate(out: ReferenceTurn) -> None:
    if not out.think:
        raise DataError("turn: invalid think (needs at least one segment)")
    tags = [s.tag for s in out.think]
    if ThinkTag.VERIFY in tags and tags[0] is not ThinkTag.VERIFY:
        raise DataError("turn: invalid think ([Verify] must come first)")
    if out.verification is Verification.NO_CHANGE and not RECOVERY_TAGS & set(tags):
        raise DataError(
            "turn: invalid think (NO_CHANGE requires a [Diagnose] or [Recovery] segment)"
        )
    if not out.expected_effect.strip():
        raise DataError("turn: invalid expected_effect (must be non-empty)")


def _assemble_segments(body: str, strict: bool, warnings: list[str]) -> tuple[ThinkSegment, ...]:
    matches = list(_TAG_RE.finditer(body))
    segments: list[ThinkSegment] = []
    current_tag: ThinkTag | None = None
    current_parts: list[str] = []

    def flush() -> None:
        nonlocal current_tag, current_parts
        if current_tag is None:
            return
        text = "".join(current_parts).strip()
        if text:
            segments.append(ThinkSegment(current_tag, text))
        else:
            warnings.append(f"dropped empty [{current_tag.value}] segment")
        current_tag, current_parts = None, []

    pos = 0
    for m in matches:
        between = body[pos:m.start()]
        if current_tag is not None:
            current_parts.append(between)
        elif between.strip():
            warnings.append("untagged leading think text ignored")
        token = m.group(1)
        tag = _KNOWN_TAGS.get(token)
        if tag is None:
            if strict:
                raise DataError(f"unknown think tag [{token}]")
            warnings.append(f"unknown think tag [{token}] folded into previous segment")
            if current_tag is not None:
                current_parts.append(m.group(0))
        else:
            flush()
            current_tag = tag
        pos = m.end()
    tail = body[pos:]
    if current_tag is not None:
        current_parts.append(tail)
    elif tail.strip():
        warnings.append("untagged think text ignored")
    flush()
    return tuple(segments)


def _coerce_coordinate(raw: Any) -> tuple[float, float]:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
    ):
        raise DataError(f"malformed action JSON: coordinate must be [x, y], got {raw!r}")
    try:
        return (float(raw[0]), float(raw[1]))
    except OverflowError:
        raise DataError(f"malformed action JSON: coordinate must be [x, y], got {raw!r}") from None


def parse_action_json(body: str) -> ActionRecord:
    try:
        obj = json.loads(body)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"malformed action JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError("malformed action JSON: action body is not a JSON object")
    if "action" not in obj:
        raise DataError('malformed action JSON: missing "action" key')
    token = obj["action"]
    try:
        kind = ActionKind(token)
    except ValueError:
        raise DataError(f"unknown action kind {str(token)!r}") from None
    if kind in (ActionKind.CLICK, ActionKind.LONG_PRESS):
        return ActionRecord(kind=kind, coordinate=_coerce_coordinate(obj.get("coordinate")))
    if kind is ActionKind.SCROLL:
        try:
            direction = ScrollDirection(obj.get("direction"))
        except ValueError:
            raise DataError(
                f"malformed action JSON: bad scroll direction {obj.get('direction')!r}"
            ) from None
        return ActionRecord(kind=kind, direction=direction)
    if kind in (ActionKind.INPUT_TEXT, ActionKind.OPEN_APP):
        text = obj.get("text")
        if not isinstance(text, str) or not text:
            raise DataError("malformed action JSON: text must be a non-empty string")
        return ActionRecord(kind=kind, text=text)
    if kind is ActionKind.WAIT:
        raw = obj.get("time", obj.get("seconds"))
        if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw < 0:
            raise DataError(f"malformed action JSON: bad wait duration {raw!r}")
        try:
            return ActionRecord(kind=kind, seconds=float(raw))
        except OverflowError:
            raise DataError(f"malformed action JSON: bad wait duration {raw!r}") from None
    return ActionRecord(kind=kind)


def parse_tvae(raw: str, strict: bool = True) -> ReferenceTurn:
    warnings: list[str] = []
    blocks: dict[str, str] = {}
    for m in _BLOCK_RE.finditer(raw):
        name, body = m.group(1), m.group(2)
        if name in blocks:
            warnings.append(f"duplicate <{name}> block ignored")
            continue
        blocks[name] = body

    for name in ("verification", "action"):
        if name not in blocks:
            raise DataError(f"missing <{name}> block")
    if strict:
        for name in BLOCK_NAMES:
            if name not in blocks:
                raise DataError(f"missing <{name}> block")

    ver_token = blocks["verification"].strip()
    try:
        verification = Verification(ver_token)
    except ValueError:
        raise DataError(f"unknown verification token {ver_token!r}") from None

    action = parse_action_json(blocks["action"].strip())

    think = _assemble_segments(blocks.get("think", ""), strict, warnings)
    if "think" not in blocks:
        warnings.append("missing <think> block")

    effect = blocks.get("expected_effect", "").strip()
    if "expected_effect" not in blocks:
        warnings.append("missing <expected_effect> block")

    out = ReferenceTurn(
        think=think,
        verification=verification,
        action=action,
        expected_effect=effect,
        warnings=tuple(warnings),
    )
    if strict:
        validate(out)
    else:
        try:
            validate(out)
        except DataError as exc:
            warnings.append(str(exc))
            out = ReferenceTurn(
                think=think,
                verification=verification,
                action=action,
                expected_effect=effect,
                warnings=tuple(warnings),
            )
    tags = {s.tag for s in out.think}
    if verification is Verification.SUCCESS and RECOVERY_TAGS & tags:
        warnings.append("SUCCESS verification alongside [Diagnose]/[Recovery] tags")
        out = ReferenceTurn(
            think=out.think,
            verification=out.verification,
            action=out.action,
            expected_effect=out.expected_effect,
            warnings=tuple(warnings),
        )
    return out


# -- checked emitter ------------------------------------------------------------------

_FORBIDDEN_IN_BODY = re.compile(f"</(?:{'|'.join(BLOCK_NAMES)})>")
_UNSAFE_BODY = re.compile(rf"\[[A-Za-z][A-Za-z0-9_]*\]|{_FORBIDDEN_IN_BODY.pattern}")
_TAG_PREFIX = {t: f"[{t.value}] " for t in ThinkTag}


def _body_problem(think: tuple[ThinkSegment, ...]) -> DataError:
    """The error of the first segment whose body is blank or padded."""
    seg = next(s for s in think if s.body.strip() != s.body or not s.body)
    if not seg.body.strip():
        return DataError(f"think: invalid {seg.tag.value} (empty segment body)")
    return DataError(
        f"think: invalid {seg.tag.value} (segment body has leading or trailing whitespace)"
    )


def emit_checked(out: ReferenceTurn) -> str:
    """Serialize a valid ReferenceTurn in canonical block order.

    This module's parse_tvae(emit_checked(x)) is structurally equal to x,
    and emit is a byte-level fixed point over that parse; the program's
    parse of the text is x's projection.  So each segment body and the
    expected effect must be non-blank and free of leading and trailing
    whitespace (which the parse strips), and must not embed tag tokens or
    block terminators (which would make the text unparseable).
    """
    think, effect = out.think, out.expected_effect
    bodies = [s.body for s in think]
    stripped = list(map(str.strip, bodies))
    if stripped != bodies or "" in stripped:
        raise _body_problem(think)
    problem = _turn_problem(tuple(s.tag for s in think), out.verification, effect)
    if problem is not None:
        raise DataError(problem)
    if effect.strip() != effect:
        raise DataError("turn: invalid expected_effect (has leading or trailing whitespace)")
    # No grammar token spans a newline, so one search of the joined bodies
    # finds one exactly when some body embeds it; each token holds "[" or "</".
    joined = "\n".join(bodies)
    if ("[" in joined or "</" in joined) and _UNSAFE_BODY.search(joined):
        raise DataError("turn: invalid think (segment body embeds grammar tokens)")
    if "</" in effect and _FORBIDDEN_IN_BODY.search(effect):
        raise DataError("turn: invalid expected_effect (embeds block terminator)")
    think_lines = "\n".join([_TAG_PREFIX[s.tag] + s.body for s in think])
    return emit_tvae(think_lines, out.verification, out.action, effect)
