"""Reference turn parser: the original multi-pass `parse_tvae`.

Kept verbatim in behaviour (one block regex with a back-reference, a
`flush` closure per think segment, enum construction by value, validation
by raising and rebuilding the output) so the single-pass parser in
`tvae_harness.tvae_codec` can be checked against it for equal results,
identical warnings and identical errors.
"""

from __future__ import annotations

import json
import re
from typing import Any

from tvae_harness.errors import (
    InvariantViolationError,
    MalformedActionJsonError,
    MissingBlockError,
    UnknownActionKindError,
    UnknownThinkTagError,
    UnknownVerificationError,
)
from tvae_harness.trajectory_store import (
    ActionKind,
    ActionRecord,
    CoordinateSpace,
    ScrollDirection,
)
from tvae_harness.tvae_codec import (
    BLOCK_NAMES,
    RECOVERY_TAGS,
    ThinkSegment,
    ThinkTag,
    TvaeOutput,
    Verification,
)

_BLOCK_RE = re.compile(
    r"<(think|verification|action|expected_effect)>(.*?)</\1>", re.DOTALL
)
_TAG_RE = re.compile(r"\[([A-Za-z][A-Za-z0-9_]*)\]")
_KNOWN_TAGS = {t.value: t for t in ThinkTag}


def validate(out: TvaeOutput) -> None:
    if not out.think:
        raise InvariantViolationError("turn", "think", "needs at least one segment")
    tags = [s.tag for s in out.think]
    if ThinkTag.VERIFY in tags and tags[0] is not ThinkTag.VERIFY:
        raise InvariantViolationError("turn", "think", "[Verify] must come first")
    if out.verification is Verification.NO_CHANGE and not RECOVERY_TAGS & set(tags):
        raise InvariantViolationError(
            "turn", "think", "NO_CHANGE requires a [Diagnose] or [Recovery] segment"
        )
    if not out.expected_effect.strip():
        raise InvariantViolationError("turn", "expected_effect", "must be non-empty")


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
                raise UnknownThinkTagError(token)
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
        raise MalformedActionJsonError(f"coordinate must be [x, y], got {raw!r}")
    return (float(raw[0]), float(raw[1]))


def parse_action_json(body: str) -> ActionRecord:
    try:
        obj = json.loads(body)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedActionJsonError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise MalformedActionJsonError("action body is not a JSON object")
    if "action" not in obj:
        raise MalformedActionJsonError('missing "action" key')
    token = obj["action"]
    try:
        kind = ActionKind(token)
    except ValueError:
        raise UnknownActionKindError(str(token)) from None
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


def parse_tvae(raw: str, strict: bool = True) -> TvaeOutput:
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
            raise MissingBlockError(name)
    if strict:
        for name in BLOCK_NAMES:
            if name not in blocks:
                raise MissingBlockError(name)

    ver_token = blocks["verification"].strip()
    try:
        verification = Verification(ver_token)
    except ValueError:
        raise UnknownVerificationError(ver_token) from None

    action = parse_action_json(blocks["action"].strip())

    think = _assemble_segments(blocks.get("think", ""), strict, warnings)
    if "think" not in blocks:
        warnings.append("missing <think> block")

    effect = blocks.get("expected_effect", "").strip()
    if "expected_effect" not in blocks:
        warnings.append("missing <expected_effect> block")

    out = TvaeOutput(
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
        except InvariantViolationError as exc:
            warnings.append(str(exc))
            out = TvaeOutput(
                think=think,
                verification=verification,
                action=action,
                expected_effect=effect,
                warnings=tuple(warnings),
            )
    tags = {s.tag for s in out.think}
    if verification is Verification.SUCCESS and RECOVERY_TAGS & tags:
        warnings.append("SUCCESS verification alongside [Diagnose]/[Recovery] tags")
        out = TvaeOutput(
            think=out.think,
            verification=out.verification,
            action=out.action,
            expected_effect=out.expected_effect,
            warnings=tuple(warnings),
        )
    return out
