from __future__ import annotations

import random
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tvae_harness.trajectory_store import (
    ActionKind,
    ActionRecord,
    ScrollDirection,
    StepRecord,
    TrajectoryRecord,
    round_coord,
)
from tvae_harness.tvae_codec import ThinkTag, Verification

from reference_codec import ReferenceTurn, ThinkSegment

FIXED_TURN = (
    "<think>\n[Verify] Screen checked.\n[Action] click.\n</think>\n"
    "<verification>SUCCESS</verification>\n"
    '<action>{"action": "click", "coordinate": [0.5, 0.5]}</action>\n'
    "<expected_effect>The panel opens.</expected_effect>"
)

WORDS = (
    "screen button list search result panel opens loads appears updates "
    "confirm target menu view page item row field toggles refreshes"
).split()


def make_click_step(
    index: int = 0,
    coord: tuple[float, float] = (0.5, 0.5),
    bbox: tuple[float, float, float, float] | None = (0.45, 0.45, 0.55, 0.55),
    screen: str | None = None,
) -> StepRecord:
    return StepRecord(
        index=index,
        screen_ref=screen or f"s{index}",
        gt_action=ActionRecord(kind=ActionKind.CLICK, coordinate=coord),
        reference_effect=f"The panel for step {index} appears.",
        gt_bbox=bbox,
    )


def make_traj(actions: list[ActionRecord], traj_id: str = "t0") -> TrajectoryRecord:
    steps = tuple(
        StepRecord(
            index=i,
            screen_ref=f"{traj_id}/s{i}",
            gt_action=a,
            reference_effect=f"Screen {i + 1} of the flow appears.",
            gt_bbox=None,
        )
        for i, a in enumerate(actions)
    )
    return TrajectoryRecord(
        id=traj_id,
        instruction="Finish the flow.",
        steps=steps,
        terminal_screen_ref=f"{traj_id}/done",
    )


def random_valid_action(rng: random.Random) -> ActionRecord:
    kind = rng.choice(list(ActionKind))
    if kind in (ActionKind.CLICK, ActionKind.LONG_PRESS):
        if rng.random() < 0.5:
            # raw pixels: components >= 2, so the coordinate is in pixels
            coord = (float(rng.randint(2, 2000)), float(rng.randint(2, 2000)))
            return ActionRecord(kind=kind, coordinate=coord)
        coord = (round_coord(rng.random()), round_coord(rng.random()))
        return ActionRecord(kind=kind, coordinate=coord)
    if kind is ActionKind.SCROLL:
        return ActionRecord(kind=kind, direction=rng.choice(list(ScrollDirection)))
    if kind in (ActionKind.INPUT_TEXT, ActionKind.OPEN_APP):
        return ActionRecord(kind=kind, text=" ".join(rng.sample(WORDS, rng.randint(1, 4))))
    if kind is ActionKind.WAIT:
        return ActionRecord(kind=kind, seconds=float(rng.choice((1, 2, 5))))
    return ActionRecord(kind=kind)


def _body(rng: random.Random) -> str:
    return " ".join(rng.sample(WORDS, rng.randint(2, 6))) + "."


def random_valid_turn(rng: random.Random) -> ReferenceTurn:
    """Generate a structurally valid turn, with its think segments, for
    round-trip fuzzing."""
    verification = rng.choice(list(Verification))
    segments: list[ThinkSegment] = []
    if rng.random() < 0.9:
        segments.append(ThinkSegment(ThinkTag.VERIFY, _body(rng)))
    pool = [ThinkTag.RECALL, ThinkTag.GROUNDING, ThinkTag.COORDINATE,
            ThinkTag.DIRECTION, ThinkTag.TEXT, ThinkTag.ACTION]
    for tag in rng.sample(pool, rng.randint(0, 3)):
        segments.append(ThinkSegment(tag, _body(rng)))
    if verification is Verification.NO_CHANGE:
        segments.append(ThinkSegment(rng.choice((ThinkTag.DIAGNOSE, ThinkTag.RECOVERY)), _body(rng)))
    if not segments:
        segments.append(ThinkSegment(ThinkTag.ACTION, _body(rng)))
    return ReferenceTurn(
        think=tuple(segments),
        verification=verification,
        action=random_valid_action(rng),
        expected_effect=_body(rng),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


class _CountingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive unless the client closes
    disable_nagle_algorithm = True  # headers and body go out as two writes

    def handle(self):
        counts = self.server.counts
        with counts.cond:
            counts.connections += 1
        try:
            super().handle()
        finally:
            with counts.cond:
                counts.closed += 1
                counts.cond.notify_all()

    def do_POST(self):
        counts = self.server.counts
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with counts.cond:
            counts.requests += 1
            counts.targets.append(self.path)
            counts.inflight += 1
            counts.peak_inflight = max(counts.peak_inflight, counts.inflight)
        time.sleep(counts.delay_s)
        with counts.cond:
            counts.inflight -= 1
        payload = counts.body.encode("utf-8")
        try:
            self.send_response(counts.status)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except ConnectionError:
            self.close_connection = True  # the client timed out and left

    def log_message(self, *args):
        pass


class CountingTurnServer:
    """HTTP/1.1 keep-alive turn server on 127.0.0.1 that answers every POST
    with `status` and `body` after `delay_s`.

    It counts requests, accepted connections, connections that reached EOF
    and the peak number of requests in flight, and records each request
    target.  Use it as a context manager.
    """

    def __init__(self, body: str = FIXED_TURN, status: int = 200, delay_s: float = 0.0):
        self.body, self.status, self.delay_s = body, status, delay_s
        self.cond = threading.Condition()
        self.requests = self.connections = self.closed = 0
        self.inflight = self.peak_inflight = 0
        self.targets: list[str] = []
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
        self._server.counts = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(0.05,), daemon=True
        )
        self.url = f"http://127.0.0.1:{self._server.server_port}"

    def wait_closed(self, count: int, timeout: float) -> bool:
        """True once `count` connections have reached EOF, False on timeout."""
        with self.cond:
            return self.cond.wait_for(lambda: self.closed >= count, timeout=timeout)

    def __enter__(self) -> "CountingTurnServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


class ScriptedReplyServer:
    """Raw-socket server on 127.0.0.1 that answers every request with the
    same scripted bytes, one connection at a time.

    After its reply it closes the connection when `close` is set; otherwise
    it serves the next request on the same connection.  With `stream` set it
    follows the reply with endless filler until the client goes away.  It
    counts accepted connections, requests, and connections the client
    closed.  Use it as a context manager.
    """

    def __init__(self, reply: bytes, *, close: bool = False, stream: bool = False):
        self.reply, self.close, self.stream = reply, close, stream
        self.connections = self.requests = self.client_closed = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # the listener was shut down
            self.connections += 1
            with conn:
                conn.settimeout(5)
                try:
                    self._answer(conn)
                except OSError:
                    pass  # the client left mid-reply

    def _answer(self, conn: socket.socket) -> None:
        buf = b""
        while True:
            while b"\r\n\r\n" not in buf:
                chunk = conn.recv(65536)
                if not chunk:
                    self.client_closed += 1
                    return
                buf += chunk
            head, _, buf = buf.partition(b"\r\n\r\n")
            length = re.search(rb"(?i)\r\ncontent-length: *(\d+)", head)
            size = int(length.group(1)) if length else 0
            while len(buf) < size:
                buf += conn.recv(65536)
            buf = buf[size:]
            self.requests += 1
            conn.sendall(self.reply)
            while self.stream:
                conn.sendall(b"x" * 65536)
            if self.close:
                return

    def __enter__(self) -> "ScriptedReplyServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the thread blocked in accept()
        self._listener.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
