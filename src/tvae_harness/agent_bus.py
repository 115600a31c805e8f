"""Reference agents and transport clients.

Scripted agents are white-box measurement instruments: they see the current
ground-truth step and emit deterministic turn text, which makes analytic
end-to-end tests possible.  Remote agents speak a stateless single-turn wire
protocol (HTTP JSON in, raw turn text out) and never receive ground truth.
"""

from __future__ import annotations

import os
import random
import sys
import time
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Callable, Protocol, Sequence
from urllib.parse import urlsplit

from .errors import AgentError, DataError
from .failure_forge import FailureMode, corrupt_action, mismatched_effect, sample_corruption
from .trajectory_store import ActionRecord, StepRecord, describe_action
from .tvae_codec import HistoryEntry, Verification, emit_tvae, history_entry_line

WIRE_SCHEMA_VERSION = 1
STDIO_SENTINEL = "<<<END_TURN>>>"
_SENTINEL = STDIO_SENTINEL.encode("ascii")
# The most bytes one turn may take: an HTTP reply's head and body, or a
# stdio agent's output before the sentinel line.  More is an agent failure.
MAX_TURN_BYTES = 1 << 20


@dataclass(slots=True)
class Observation:
    """Everything an agent is shown for one turn."""

    instruction: str
    screen_ref: str
    history: tuple[HistoryEntry, ...]
    step_budget_remaining: int


# A turn's source of draws: each call returns the same generator, seeded at the first.
Rng = Callable[[], random.Random]


class AgentHandle(Protocol):
    """A turn function plus identity and concurrency metadata.

    `max_inflight` is how many `turn` calls the agent itself allows at once;
    the runner starts at most that many and at most `--workers`.  `close`
    releases what the agent holds (a connection pool, a subprocess).

    `turn`'s `rng` returns the episode's (or failure case's) generator; an
    agent calls it only where it draws, so a turn that draws nothing seeds
    nothing.
    """

    identity: str
    max_inflight: int
    white_box: bool

    def turn(self, obs: Observation, gt: StepRecord | None, rng: Rng) -> str: ...

    def close(self) -> None: ...


# -- scripted agents -----------------------------------------------------------


class VariantName(str, Enum):
    ORACLE = "oracle"
    LOOPY = "loopy"
    FAIL_K = "failk"
    BERNOULLI = "bernoulli"
    OFFSET_THEN_CORRECT = "offset_then_correct"


@dataclass(slots=True)
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
    # Unpadded, since the parse strips the effect, and with no terminator.
    return text.strip().replace("</", "(/") or "The screen will update."


def _param_line(action: ActionRecord, described: str) -> str:
    """The think line that states `action`'s parameter, with its newline; ""
    for an action without one.  A coordinate is read off `described`, the
    `describe_action` text, which ends in it: "click at (X, Y)"."""
    if action.coordinate is not None:
        return f"[Coordinate] Element position: {described[described.index('('):]}.\n"
    if action.direction is not None:
        return f"[Direction] Scroll direction: {action.direction._value_}.\n"
    if action.text is not None:
        return f"[Text] The exact text needed is '{_clean(action.text)}'.\n"
    return ""


# The think lines that no turn varies, before and after the [Recall] line.
_SUCCESS_HEAD = "[Verify] The previous action produced the expected screen."
_SUCCESS_GROUNDING = "[Grounding] The target element is visible on the current screen."
_RETRY_HEAD = (
    "[Verify] The screen remains unchanged after the last action.\n"
    "[Diagnose] The previous action did not reach its target."
)
_RETRY_GROUNDING = "[Grounding] The correct target element is visible on this screen."


# A scripted agent runs its episodes one after another (`max_inflight` is
# 1), and an episode's turns share its instruction, so the last line built
# serves every turn but an episode's first.
@lru_cache(maxsize=1)
def _recall_line(instruction: str) -> str:
    return f"[Recall] The task is: {_clean(instruction)}."


def _emit(
    instruction: str,
    action: ActionRecord,
    verification: Verification,
    effect: str | None,
) -> str:
    """A turn claiming `verification`: a plain step after SUCCESS, a
    diagnosis and retry after NO_CHANGE.  A None `effect` is the mismatched
    effect of `action`; the action is described once per turn.

    The think lines go to `emit_tvae`, which checks nothing, so each text
    is safe by construction: `_clean` and `_effect_safe` leave no tag token
    or block terminator in a body, and every body starts and ends with a
    fixed word or full stop, so none is blank or padded.
    """
    recall = _recall_line(instruction)
    described = describe_action(action)
    if effect is None:
        effect = mismatched_effect(described)
    if verification is Verification.SUCCESS:
        think = (
            f"{_SUCCESS_HEAD}\n{recall}\n{_SUCCESS_GROUNDING}\n"
            f"{_param_line(action, described)}[Action] {_clean(described)}."
        )
    else:
        think = (
            f"{_RETRY_HEAD}\n{recall}\n{_RETRY_GROUNDING}\n"
            f"{_param_line(action, described)}[Recovery] Retry with {_clean(described)}."
        )
    return emit_tvae(think, verification, action, _effect_safe(effect))


# oracle is failk with K=0; offset_then_correct is K=1 with a fixed-mode
# corruption in place of a sampled one.
_FIXED_K = {VariantName.ORACLE: 0, VariantName.OFFSET_THEN_CORRECT: 1}


def scripted_turn(variant: Variant, obs: Observation, gt: StepRecord, rng: Rng) -> str:
    """Produce one deterministic turn for a scripted behavior.

    Pure in (variant, obs, gt, rng state): the per-step attempt position is
    reconstructed from history length and the step index, never from hidden
    state, so identical inputs yield identical text.  `rng` is called only
    where the turn draws: never by oracle, nor by loopy once it has history.
    """
    instruction = obs.instruction
    gt_action = gt.gt_action
    name = variant.name

    if name is VariantName.LOOPY:
        if obs.history:
            action = obs.history[-1].action
        else:
            _, action = sample_corruption(gt_action, gt.gt_bbox, rng())
        return _emit(instruction, action, Verification.SUCCESS, None)

    if name is VariantName.BERNOULLI:
        draws = rng()
        if draws.random() < variant.p:
            return _emit(instruction, gt_action, Verification.SUCCESS, gt.reference_effect)
        _, bad = sample_corruption(gt_action, gt.gt_bbox, draws)
        return _emit(instruction, bad, Verification.SUCCESS, None)

    # failk: K wrong attempts per step, then the right one
    k = _FIXED_K.get(name, variant.k)
    attempts_here = max(0, len(obs.history) - gt.index * (k + 1))
    verification = Verification.NO_CHANGE if attempts_here else Verification.SUCCESS
    if attempts_here >= k:
        return _emit(instruction, gt_action, verification, gt.reference_effect)
    if name is VariantName.OFFSET_THEN_CORRECT:
        mode = FailureMode.COORDINATE_OFFSET if gt_action.is_spatial() else FailureMode.NULL_CLICK
        bad = corrupt_action(gt_action, gt.gt_bbox, mode, rng())
    else:
        _, bad = sample_corruption(gt_action, gt.gt_bbox, rng())
    return _emit(instruction, bad, verification, None)


class ScriptedAgent:
    """White-box reference agent wrapping `scripted_turn`."""

    white_box = True
    # Pure Python: a turn holds the GIL throughout, so threads only add switching.
    max_inflight = 1

    def __init__(self, variant: Variant):
        self.variant = variant
        self.identity = f"scripted:{variant.name.value}"
        if variant.name is VariantName.FAIL_K:
            self.identity += f":{variant.k}"
        elif variant.name is VariantName.BERNOULLI:
            self.identity += f":{variant.p:g}"

    def turn(self, obs: Observation, gt: StepRecord | None, rng: Rng) -> str:
        return scripted_turn(self.variant, obs, gt, rng)  # type: ignore[arg-type]  # gt: never None

    def close(self) -> None:
        pass


# -- remote agents ---------------------------------------------------------------


def observation_to_wire(obs: Observation) -> str:
    """The request body of a turn: the observation as compact ASCII JSON."""
    return (
        f'{{"schema_version":{WIRE_SCHEMA_VERSION},"instruction":{_json_str(obs.instruction)},'
        f'"screen_ref":{_json_str(obs.screen_ref)},'
        f'"history":[{",".join(map(history_entry_line, obs.history))}],'
        f'"budget_remaining":{obs.step_budget_remaining}}}'
    )


def _decode(body: bytes, content_type: bytes) -> str:
    """`body` decoded with the charset that `content_type` names, or with
    UTF-8 when it names none or one that Python does not know."""
    for param in content_type.split(b";")[1:]:
        name, _, value = param.partition(b"=")
        if name.strip().lower() == b"charset":
            try:
                return body.decode(value.strip().strip(b'"').decode("latin-1"), "replace")
            except (LookupError, ValueError):  # unknown or unusable charset name
                break
    return body.decode("utf-8", "replace")


_HEX_DIGITS = b"0123456789abcdefABCDEF"


class _HttpPool:
    """Keep-alive HTTP/1.1 connections to one URL, shared by concurrent turns.

    Idle sockets wait on a lock-guarded stack.  A request pops one or opens
    one, puts it back after a complete length-framed reply and closes it
    otherwise, so no more connections are open than requests were ever in
    flight at once.  Each request is one write; each reply is read into one
    buffer of at most `MAX_TURN_BYTES`.  Proxy environment variables,
    `.netrc` and redirects are not consulted.
    """

    def __init__(self, endpoint: str, timeout: float, token: str | None):
        invalid = DataError(f"remote: invalid endpoint ({endpoint!r} is not an http(s) URL)")
        try:
            parts = urlsplit(endpoint)
            port = parts.port
        except ValueError:  # an unclosed IPv6 bracket, a non-numeric or out-of-range port
            raise invalid from None
        host = parts.hostname
        # "/turn" ends the path, before the query; the fragment is never sent.
        path = parts.path.rstrip("/")
        path = path if path.endswith("/turn") else path + "/turn"
        target = path + (f"?{parts.query}" if parts.query else "")
        if (
            parts.scheme not in ("http", "https") or not host or not host.isascii() or port == 0
            or not (target.isascii() and target.isprintable()) or " " in target
        ):
            raise invalid
        if token is not None and not (token.isascii() and token.isprintable()):
            raise DataError("remote: invalid token (must be printable ASCII)")
        # Loaded by the pool (`socket` on its first connection): no other
        # agent needs them.
        import threading

        default_port = 443 if parts.scheme == "https" else 80
        self.url = f"{parts.scheme}://{parts.netloc}{target}"
        self._address = (host, port or default_port)
        self._timeout = timeout
        self._tls = None
        if parts.scheme == "https":
            import ssl

            self._tls = ssl.create_default_context()
        netloc = f"[{host}]" if ":" in host else host
        if port not in (None, default_port):
            netloc += f":{port}"
        auth = f"Authorization: Bearer {token}\r\n" if token else ""
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {netloc}\r\n"
            f"Content-Type: application/json\r\n{auth}Content-Length: "
        ).encode("ascii")
        self._idle: list[Any] = []
        self._lock = threading.Lock()

    def _connect(self) -> Any:
        import socket

        sock = socket.create_connection(self._address, self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                # A failed handshake closes the TLS socket, which owns the descriptor.
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return sock

    def _checkout(self) -> Any:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return self._connect()

    def post(self, body: bytes) -> str:
        """POST `body` and return the decoded 2xx response body.

        Transport errors, timeouts, unreadable replies and 5xx responses are
        retried once, on a new connection; any other status and a reply over
        `MAX_TURN_BYTES` fail at once.
        """
        request = b"%s%d\r\n\r\n%s" % (self._head, len(body), body)
        cause: OSError | None = None
        fresh = False
        for _ in range(2):
            sock = None
            try:
                sock = self._connect() if fresh else self._checkout()
                sock.sendall(request)
                status, reason, content_type, data, keep = self._read_reply(sock)
            except OSError as exc:  # an unreadable reply raises ConnectionError
                if sock is not None:
                    sock.close()
                cause, why, fresh = exc, str(exc), True
                continue
            except BaseException:
                if sock is not None:
                    sock.close()
                raise
            if keep:
                with self._lock:
                    self._idle.append(sock)
            else:
                sock.close()
            if 200 <= status < 300:
                return _decode(data, content_type)
            cause, why, fresh = None, f"HTTP {status} {reason}", True
            if status < 500:
                break
        raise AgentError(f"{self.url}: {why}") from cause

    def _read_reply(self, sock: Any) -> tuple[int, str, bytes, bytes, bool]:
        """Read one reply: its status, reason, Content-Type and body, and
        whether the connection may carry another request."""
        buf = bytearray()
        start = 0
        while True:
            while (end := buf.find(b"\r\n\r\n", start)) < 0:
                if not self._recv(sock, buf):
                    raise ConnectionError("connection closed before the reply head")
            status_line, *lines = bytes(buf[start:end]).split(b"\r\n")
            version, _, rest = status_line.partition(b" ")
            code, _, reason = rest.partition(b" ")
            if version not in (b"HTTP/1.0", b"HTTP/1.1") or len(code) != 3 or not code.isdigit():
                raise ConnectionError(f"bad status line {status_line[:80]!r}")
            start = end + 4
            if not code.startswith(b"1"):  # interim 1xx heads precede the reply
                break
        status = int(code)
        fields = {}
        for line in lines:
            name, _, value = line.partition(b":")
            fields[name.strip().lower()] = value.strip()
        head = status, reason.strip().decode("latin-1"), fields.get(b"content-type", b"")
        length = fields.get(b"content-length")
        if status in (204, 304):  # replies that never have a body
            length = b"0"
        elif b"chunked" in fields.get(b"transfer-encoding", b"").lower():
            return *head, self._read_chunks(sock, buf, start), False
        elif length is None:  # the body runs to the end of the stream
            while self._recv(sock, buf):
                pass
            return *head, bytes(buf[start:]), False
        if not length.isdigit():
            raise ConnectionError(f"bad Content-Length {length[:40]!r}")
        if len(length.lstrip(b"0")) > 9:  # over the cap, maybe past int()'s digit limit too
            raise self._flood()
        stop = start + int(length)
        self._recv_to(sock, buf, stop)
        keep = (
            version == b"HTTP/1.1" and len(buf) == stop
            and b"close" not in fields.get(b"connection", b"").lower()
        )
        return *head, bytes(buf[start:stop]), keep

    def _read_chunks(self, sock: Any, buf: bytearray, pos: int) -> bytes:
        """The body of a chunked reply whose first chunk starts at `pos`."""
        body = bytearray()
        while True:
            while (eol := buf.find(b"\r\n", pos)) < 0:
                if not self._recv(sock, buf):
                    raise ConnectionError("connection closed mid-reply")
            field = bytes(buf[pos:eol]).partition(b";")[0].strip()
            if not field or field.strip(_HEX_DIGITS):
                raise ConnectionError(f"bad chunk size {field[:40]!r}")
            size = int(field, 16)
            if size == 0:  # the trailer is not read: the connection is not kept
                return bytes(body)
            pos = eol + 2
            self._recv_to(sock, buf, pos + size + 2)
            body += buf[pos : pos + size]
            pos += size + 2

    def _recv_to(self, sock: Any, buf: bytearray, size: int) -> None:
        """Receive until `buf` holds `size` bytes."""
        if size > MAX_TURN_BYTES:
            raise self._flood()
        while len(buf) < size:
            if not self._recv(sock, buf):
                raise ConnectionError("connection closed mid-reply")

    def _recv(self, sock: Any, buf: bytearray) -> bool:
        """Append the next bytes from `sock` to `buf`; False at end of stream."""
        chunk = sock.recv(65536)
        buf += chunk
        if len(buf) > MAX_TURN_BYTES:
            raise self._flood()
        return bool(chunk)

    def _flood(self) -> AgentError:
        return AgentError(f"{self.url}: reply exceeds MAX_TURN_BYTES ({MAX_TURN_BYTES} bytes)")

    def close(self) -> None:
        """Close the idle connections; the pool stays usable."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()


class RemoteAgent:
    """Client handle for an HTTP turn server.

    The client sets no concurrency limit of its own, so `--workers` alone
    bounds the requests in flight.  Turns share a pool of keep-alive
    connections that `close` releases.
    """

    white_box = False
    max_inflight = sys.maxsize

    def __init__(self, endpoint: str, *, timeout: float, token: str | None = None):
        self.identity = f"remote:{endpoint}"
        self._pool = _HttpPool(endpoint, timeout, token)

    def turn(self, obs: Observation, gt: StepRecord | None, rng: Rng) -> str:
        """POST the observation to the turn server; return the body verbatim.

        Retries once on transport errors, timeouts and 5xx responses, then
        raises AgentError (its message names the timeout when the deadline
        was the cause); a 4xx response raises at once.  The body is never
        interpreted here; parsing happens downstream.
        """
        body = observation_to_wire(obs).encode("ascii")
        return self._pool.post(body)

    def close(self) -> None:
        self._pool.close()


class StdioAgent:
    """Subprocess agent: one JSON request line in, text until a sentinel line out.

    Output that is not UTF-8 is decoded with replacement characters, the
    rule remote bodies follow, so it yields an unparseable turn.  A turn,
    from writing the request to reading the sentinel line, that takes more
    than `timeout` seconds fails.
    """

    white_box = False
    max_inflight = 1  # one request/response exchange on one pipe pair

    def __init__(self, argv: Sequence[str], *, timeout: float):
        import subprocess

        self.identity = f"stdio:{' '.join(argv)}"
        self._timeout = timeout
        self._buf = bytearray()  # output read but not yet returned as a line
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise AgentError(f"cannot spawn {argv}: {exc}") from exc
        # A request goes in as the pipe takes it, so an agent that reads
        # nothing cannot block the write past the deadline.
        os.set_blocking(self._proc.stdin.fileno(), False)  # type: ignore[union-attr]

    def turn(self, obs: Observation, gt: StepRecord | None, rng: Rng) -> str:
        import selectors

        proc = self._proc
        if proc.poll() is not None:
            raise AgentError("stdio agent exited")
        deadline = time.monotonic() + self._timeout
        request = memoryview((observation_to_wire(obs) + "\n").encode("ascii"))
        try:
            assert proc.stdin is not None and proc.stdout is not None
            with selectors.DefaultSelector() as ready:
                ready.register(proc.stdin, selectors.EVENT_WRITE)
                while request:
                    self._wait(ready, deadline)
                    request = request[os.write(proc.stdin.fileno(), request):]
                ready.unregister(proc.stdin)
                ready.register(proc.stdout, selectors.EVENT_READ)
                lines: list[bytes] = []
                left = MAX_TURN_BYTES
                while True:
                    # room for a sentinel line (with \r\n) however little is left
                    line = self._readline(ready, left + len(_SENTINEL) + 2, deadline)
                    if not line:
                        raise AgentError("stdio agent closed its output")
                    if line.rstrip(b"\r\n") == _SENTINEL:
                        break
                    left -= len(line)
                    if left < 0:
                        raise AgentError(
                            f"stdio agent output exceeds MAX_TURN_BYTES ({MAX_TURN_BYTES} bytes)"
                        )
                    lines.append(line)
        except OSError as exc:  # a broken pipe among them
            raise AgentError(f"stdio transport failed: {exc}") from exc
        text = b"".join(lines).decode("utf-8", "replace")
        # Line ends as a text-mode pipe reads them: \r\n and \r become \n.
        return text.replace("\r\n", "\n").replace("\r", "\n").rstrip("\n")

    def _wait(self, ready: Any, deadline: float) -> None:
        """Wait until the pipe `ready` watches can be used, or fail the turn
        at `deadline`."""
        wait = deadline - time.monotonic()
        if wait <= 0 or not ready.select(wait):
            raise AgentError(f"stdio agent timed out (no complete turn within {self._timeout:g} s)")

    def _readline(self, ready: Any, limit: int, deadline: float) -> bytes:
        """The next line of output, as a buffered pipe's `readline(limit)`
        returns it.  The pipe is read with `os.read`, so every byte not yet
        in `_buf` is still in the pipe, where `ready` sees it."""
        buf = self._buf
        scanned = 0
        while (end := buf.find(b"\n", scanned, limit)) < 0 and len(buf) < limit:
            scanned = len(buf)
            self._wait(ready, deadline)
            chunk = os.read(self._proc.stdout.fileno(), 65536)  # type: ignore[union-attr]
            if not chunk:
                break
            buf += chunk
        size = end + 1 if end >= 0 else min(len(buf), limit)
        line = bytes(buf[:size])
        del buf[:size]
        return line

    def close(self) -> None:
        import subprocess

        proc = self._proc
        proc.terminate()  # no signal once the agent has exited
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            with suppress(OSError):  # a dead reader makes the final flush fail
                pipe.close()


# -- agent spec parsing (CLI surface) ---------------------------------------------


def parse_agent_spec(spec: str, *, timeout: float, token: str | None = None) -> AgentHandle:
    """Build an agent from a spec string.

    Forms: scripted:oracle | scripted:loopy | scripted:failk:K |
    scripted:bernoulli:P | scripted:offset_then_correct |
    remote:URL | stdio:COMMAND.  `timeout` bounds each turn of a stdio
    agent and each socket operation of a remote one; `token` applies to
    remote agents only.
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
        return RemoteAgent(rest, timeout=timeout, token=token)
    if head == "stdio":
        import shlex

        try:
            argv = shlex.split(rest)
        except ValueError as exc:  # an unclosed quote or a trailing backslash
            raise DataError(f"agent: invalid spec ({spec!r}: {exc})") from None
        if not argv:
            raise DataError(f"agent: invalid spec ({spec!r}: no command)")
        return StdioAgent(argv, timeout=timeout)
    raise DataError(f"agent: invalid spec ({spec})" if spec else "agent: invalid spec")

