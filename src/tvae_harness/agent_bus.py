"""Reference agents and transport clients.

Scripted agents are white-box measurement instruments: they see the current
ground-truth step and emit deterministic turn text, which makes analytic
end-to-end tests possible.  Remote agents speak a stateless single-turn wire
protocol (HTTP JSON in, raw turn text out) and never receive ground truth.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Any, Protocol, Sequence
from urllib.parse import urlsplit

from .errors import AgentError, DataError
from .failure_forge import FailureMode, corrupt_action, mismatched_effect, sample_corruption
from .trajectory_store import ActionRecord, StepRecord, describe_action
from .tvae_codec import (
    HistoryEntry,
    ThinkSegment,
    ThinkTag,
    TvaeOutput,
    Verification,
    emit_tvae,
    history_entry_to_json,
)

if TYPE_CHECKING:
    from http.client import HTTPConnection

WIRE_SCHEMA_VERSION = 1
STDIO_SENTINEL = "<<<END_TURN>>>"


@dataclass(frozen=True)
class Observation:
    """Everything an agent is shown for one turn."""

    instruction: str
    screen_ref: str
    history: tuple[HistoryEntry, ...]
    step_budget_remaining: int

    def __post_init__(self) -> None:
        if self.step_budget_remaining < 0:
            raise DataError("observation: invalid step_budget_remaining (must be >= 0)")


class AgentHandle(Protocol):
    """A turn function plus identity and concurrency metadata.

    `max_inflight` is how many `turn` calls the handle allows at once; the
    runner never starts more.
    """

    identity: str
    max_inflight: int
    white_box: bool

    def turn(self, obs: Observation, gt: StepRecord | None, rng: random.Random) -> str: ...


# -- scripted agents -----------------------------------------------------------


class VariantName(str, Enum):
    ORACLE = "oracle"
    LOOPY = "loopy"
    FAIL_K = "failk"
    BERNOULLI = "bernoulli"
    OFFSET_THEN_CORRECT = "offset_then_correct"


@dataclass(frozen=True)
class Variant:
    """A scripted behavior: `k` wrong attempts per step (failk) or success
    probability `p` per turn (bernoulli)."""

    name: VariantName
    k: int = 1
    p: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 0:
            raise DataError(f"scripted: invalid K (must be an integer >= 0, got {self.k!r})")
        if isinstance(self.p, bool) or not isinstance(self.p, (int, float)) or not 0 <= self.p <= 1:
            raise DataError(f"scripted: invalid P (must be a number in [0, 1], got {self.p!r})")


def _clean(text: str) -> str:
    # Think bodies must not embed grammar tokens.
    return text.replace("[", "(").replace("]", ")").replace("</", "(/") or "the task"


def _effect_safe(text: str) -> str:
    return text.replace("</", "(/") or "The screen will update."


def _param_segment(action: ActionRecord) -> ThinkSegment | None:
    if action.coordinate is not None:
        x, y = action.coordinate
        return ThinkSegment(ThinkTag.COORDINATE, f"Element position: ({x:g}, {y:g}).")
    if action.direction is not None:
        return ThinkSegment(ThinkTag.DIRECTION, f"Scroll direction: {action.direction.value}.")
    if action.text is not None:
        return ThinkSegment(ThinkTag.TEXT, f"The exact text needed is '{_clean(action.text)}'.")
    return None


# Static segments are interned; only instruction- and action-dependent ones
# are built per turn (the emit path is the simulation hot loop).
_SEG_VERIFY_OK = ThinkSegment(ThinkTag.VERIFY, "The previous action produced the expected screen.")
_SEG_VERIFY_STUCK = ThinkSegment(
    ThinkTag.VERIFY, "The screen remains unchanged after the last action."
)
_SEG_DIAGNOSE = ThinkSegment(ThinkTag.DIAGNOSE, "The previous action did not reach its target.")
_SEG_GROUNDING_OK = ThinkSegment(
    ThinkTag.GROUNDING, "The target element is visible on the current screen."
)
_SEG_GROUNDING_FIX = ThinkSegment(
    ThinkTag.GROUNDING, "The correct target element is visible on this screen."
)


def _success_think(instruction: str, action: ActionRecord) -> tuple[ThinkSegment, ...]:
    segments = [
        _SEG_VERIFY_OK,
        ThinkSegment(ThinkTag.RECALL, f"The task is: {_clean(instruction)}."),
        _SEG_GROUNDING_OK,
    ]
    param = _param_segment(action)
    if param:
        segments.append(param)
    segments.append(ThinkSegment(ThinkTag.ACTION, _clean(describe_action(action)) + "."))
    return tuple(segments)


def _recovery_think(instruction: str, action: ActionRecord) -> tuple[ThinkSegment, ...]:
    segments = [
        _SEG_VERIFY_STUCK,
        _SEG_DIAGNOSE,
        ThinkSegment(ThinkTag.RECALL, f"The task is: {_clean(instruction)}."),
        _SEG_GROUNDING_FIX,
    ]
    param = _param_segment(action)
    if param:
        segments.append(param)
    segments.append(
        ThinkSegment(ThinkTag.RECOVERY, "Retry with " + _clean(describe_action(action)) + ".")
    )
    return tuple(segments)


def _emit(
    instruction: str,
    action: ActionRecord,
    verification: Verification,
    effect: str,
) -> str:
    think = (
        _success_think(instruction, action)
        if verification is Verification.SUCCESS
        else _recovery_think(instruction, action)
    )
    return emit_tvae(
        TvaeOutput(
            think=think,
            verification=verification,
            action=action,
            expected_effect=_effect_safe(effect),
        )
    )


def scripted_turn(
    variant: Variant, obs: Observation, gt: StepRecord, rng: random.Random
) -> str:
    """Produce one deterministic turn for a scripted behavior.

    Pure in (variant, obs, gt, rng state): the per-step attempt position is
    reconstructed from history length and the step index, never from hidden
    state, so identical inputs yield identical text.
    """
    instruction = obs.instruction
    gt_action = gt.gt_action
    name = variant.name

    if name is VariantName.ORACLE:
        failed_before = len(obs.history) - gt.index > 0
        if failed_before:
            return _emit(instruction, gt_action, Verification.NO_CHANGE, gt.reference_effect)
        return _emit(instruction, gt_action, Verification.SUCCESS, gt.reference_effect)

    if name is VariantName.LOOPY:
        if obs.history:
            action = obs.history[-1].action
        else:
            _, action = sample_corruption(gt_action, gt.gt_bbox, rng)
        return _emit(instruction, action, Verification.SUCCESS, mismatched_effect(action))

    if name is VariantName.FAIL_K:
        attempts_here = max(0, len(obs.history) - gt.index * (variant.k + 1))
        if attempts_here < variant.k:
            _, bad = sample_corruption(gt_action, gt.gt_bbox, rng)
            verification = (
                Verification.SUCCESS if attempts_here == 0 else Verification.NO_CHANGE
            )
            return _emit(instruction, bad, verification, mismatched_effect(bad))
        verification = (
            Verification.NO_CHANGE if attempts_here > 0 else Verification.SUCCESS
        )
        return _emit(instruction, gt_action, verification, gt.reference_effect)

    if name is VariantName.BERNOULLI:
        if rng.random() < variant.p:
            return _emit(instruction, gt_action, Verification.SUCCESS, gt.reference_effect)
        _, bad = sample_corruption(gt_action, gt.gt_bbox, rng)
        return _emit(instruction, bad, Verification.SUCCESS, mismatched_effect(bad))

    if name is VariantName.OFFSET_THEN_CORRECT:
        attempts_here = max(0, len(obs.history) - gt.index * 2)
        if attempts_here == 0:
            mode = (
                FailureMode.COORDINATE_OFFSET if gt_action.is_spatial() else FailureMode.NULL_CLICK
            )
            bad = corrupt_action(gt_action, gt.gt_bbox, mode, rng)
            return _emit(instruction, bad, Verification.SUCCESS, mismatched_effect(bad))
        return _emit(instruction, gt_action, Verification.NO_CHANGE, gt.reference_effect)

    raise DataError(f"scripted: invalid variant ({str(name)})")


class ScriptedAgent:
    """White-box reference agent wrapping `scripted_turn`."""

    white_box = True
    max_inflight = sys.maxsize  # pure in its inputs: no limit

    def __init__(self, variant: Variant):
        self.variant = variant
        self.identity = f"scripted:{variant.name.value}"
        if variant.name is VariantName.FAIL_K:
            self.identity += f":{variant.k}"
        elif variant.name is VariantName.BERNOULLI:
            self.identity += f":{variant.p:g}"

    def turn(self, obs: Observation, gt: StepRecord | None, rng: random.Random) -> str:
        if gt is None:
            raise DataError("scripted: invalid gt (scripted agents need ground truth)")
        return scripted_turn(self.variant, obs, gt, rng)


# -- remote agents ---------------------------------------------------------------


def observation_to_wire(obs: Observation) -> dict[str, Any]:
    return {
        "schema_version": WIRE_SCHEMA_VERSION,
        "instruction": obs.instruction,
        "screen_ref": obs.screen_ref,
        "history": [history_entry_to_json(h) for h in obs.history],
        "budget_remaining": obs.step_budget_remaining,
    }


def _turn_url(endpoint: str) -> str:
    url = endpoint.rstrip("/")
    return url if url.endswith("/turn") else url + "/turn"


def _decode(body: bytes, charset: str) -> str:
    try:
        return body.decode(charset, "replace")
    except LookupError:  # unknown charset name in Content-Type
        return body.decode("utf-8", "replace")


class _HttpPool:
    """Keep-alive HTTP connections to one URL, shared by concurrent turns.

    Idle connections wait on a lock-guarded stack.  A request pops one or
    opens one, puts it back after a complete response and closes it on any
    error, so no more connections are open than requests were ever in
    flight at once.  Proxy environment variables, `.netrc` and redirects are
    not consulted.
    """

    def __init__(self, url: str, timeout: float):
        parts = urlsplit(url)
        try:
            port = parts.port
        except ValueError:  # non-numeric or out-of-range port
            port = 0
        if parts.scheme not in ("http", "https") or not parts.hostname or port == 0:
            raise DataError(f"remote: invalid endpoint ({url!r} is not an http(s) URL)")
        # Loaded here, once per pool: `http.client` pulls in `ssl` and
        # `email.*`, which no other agent needs.
        import threading
        from http.client import HTTPConnection, HTTPException, HTTPSConnection

        self.url = url
        self.path = parts.path + (f"?{parts.query}" if parts.query else "")
        conn_class = HTTPSConnection if parts.scheme == "https" else HTTPConnection
        self._open = partial(conn_class, parts.hostname, port, timeout=timeout)
        self._http_error = HTTPException
        self._idle: list[HTTPConnection] = []
        self._lock = threading.Lock()

    def _checkout(self) -> HTTPConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return self._open()

    def post(self, body: bytes, headers: dict[str, str]) -> str:
        """POST `body` and return the decoded 2xx response body.

        Transport errors, timeouts and 5xx responses are retried once, on a
        new connection after a transport error; any other status fails at
        once.
        """
        last: Exception | None = None
        fresh = False
        for _ in range(2):
            conn = self._open() if fresh else self._checkout()
            try:
                conn.request("POST", self.path, body, headers)
                resp = conn.getresponse()
                data = resp.read()
            except (OSError, self._http_error) as exc:
                conn.close()
                last, fresh = exc, True
                continue
            except BaseException:
                conn.close()
                raise
            if resp.will_close:
                conn.close()
            else:
                with self._lock:
                    self._idle.append(conn)
            if 200 <= resp.status < 300:
                return _decode(data, resp.headers.get_content_charset("utf-8"))
            last = self._http_error(f"HTTP {resp.status} {resp.reason}")
            if resp.status < 500:
                break
        raise AgentError(f"{self.url}: {last}") from last

    def close(self) -> None:
        """Close the idle connections; the pool stays usable."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class RemoteAgent:
    """Client handle for an HTTP turn server.

    One turn at a time by default; `max_inflight` declares the server safe
    for that many concurrent single-turn requests.  Turns share a pool of
    keep-alive connections that `close` releases.
    """

    white_box = False

    def __init__(
        self, endpoint: str, *, timeout: float, max_inflight: int, token: str | None = None
    ):
        if max_inflight < 1:
            raise DataError("remote: invalid max_inflight (must be >= 1)")
        self.identity = f"remote:{endpoint}"
        self.max_inflight = max_inflight
        self._pool = _HttpPool(_turn_url(endpoint), timeout)
        self._headers = {"Content-Type": "application/json"}
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    def turn(self, obs: Observation, gt: StepRecord | None, rng: random.Random) -> str:
        """POST the observation to the turn server; return the body verbatim.

        Retries once on transport errors, timeouts and 5xx responses, then
        raises AgentError (its message names the timeout when the deadline
        was the cause); a 4xx response raises at once.  The body is never
        interpreted here; parsing happens downstream.
        """
        body = json.dumps(observation_to_wire(obs)).encode("utf-8")
        return self._pool.post(body, self._headers)

    def close(self) -> None:
        self._pool.close()


class StdioAgent:
    """Subprocess agent: one JSON request line in, text until a sentinel line out.

    Output that is not UTF-8 is decoded with replacement characters, the
    rule remote bodies follow, so it yields an unparseable turn.
    """

    white_box = False
    max_inflight = 1  # one request/response exchange on one pipe pair

    def __init__(self, command: Sequence[str] | str):
        import shlex
        import subprocess

        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self.identity = f"stdio:{' '.join(argv)}"
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                encoding="utf-8",
                errors="replace",
                bufsize=1,
            )
        except OSError as exc:
            raise AgentError(f"cannot spawn {argv}: {exc}") from exc

    def turn(self, obs: Observation, gt: StepRecord | None, rng: random.Random) -> str:
        proc = self._proc
        if proc.poll() is not None:
            raise AgentError("stdio agent exited")
        try:
            assert proc.stdin is not None and proc.stdout is not None
            proc.stdin.write(json.dumps(observation_to_wire(obs)) + "\n")
            proc.stdin.flush()
            lines: list[str] = []
            while True:
                line = proc.stdout.readline()
                if not line:
                    raise AgentError("stdio agent closed its output")
                if line.rstrip("\n") == STDIO_SENTINEL:
                    break
                lines.append(line)
            return "".join(lines).rstrip("\n")
        except (BrokenPipeError, OSError) as exc:
            raise AgentError(f"stdio transport failed: {exc}") from exc

    def close(self) -> None:
        import subprocess

        proc = self._proc
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            with suppress(OSError):  # a dead reader makes the final flush fail
                pipe.close()


# -- agent spec parsing (CLI surface) ---------------------------------------------


def parse_agent_spec(
    spec: str, *, timeout: float, max_inflight: int, token: str | None = None
) -> AgentHandle:
    """Build an agent from a spec string.

    Forms: scripted:oracle | scripted:loopy | scripted:failk:K |
    scripted:bernoulli:P | scripted:offset_then_correct |
    remote:URL | stdio:COMMAND.  `timeout`, `token` and `max_inflight`
    apply to remote agents only.
    """
    head, _, rest = spec.partition(":")
    if head == "scripted":
        variant, sep, arg = rest.partition(":")
        try:
            name = VariantName(variant)
        except ValueError:
            raise DataError(
                f"agent: invalid variant ({variant})" if variant else "agent: invalid variant"
            ) from None
        if not sep:
            return ScriptedAgent(Variant(name))
        try:
            if name is VariantName.FAIL_K:
                return ScriptedAgent(Variant(name, k=int(arg)))
            if name is VariantName.BERNOULLI:
                return ScriptedAgent(Variant(name, p=float(arg)))
        except ValueError:
            raise DataError(f"agent: invalid spec ({spec!r}: K or P is not one number)") from None
        raise DataError(f"agent: invalid spec ({spec!r}: {variant} takes no argument)")
    if head == "remote":
        return RemoteAgent(rest, timeout=timeout, max_inflight=max_inflight, token=token)
    if head == "stdio":
        return StdioAgent(rest)
    raise DataError(f"agent: invalid spec ({spec})" if spec else "agent: invalid spec")

