from __future__ import annotations

import hashlib
import json
import random
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvae_harness.agent_bus import (
    MAX_TURN_BYTES,
    Observation,
    RemoteAgent,
    ScriptedAgent,
    StdioAgent,
    Variant,
    VariantName,
    observation_to_wire,
    parse_agent_spec,
    scripted_turn,
)
from tvae_harness import agent_bus, tvae_codec
from tvae_harness.errors import AgentError, DataError
from tvae_harness.reward_engine import match_action
from tvae_harness.sim_engine import Outcome, SimConfig, run_episodes
from tvae_harness.synthdata import make_dataset
from tvae_harness.trajectory_store import (
    ActionKind,
    ActionRecord,
    ScrollDirection,
    StepRecord,
    TrajectoryRecord,
    load_dataset,
)
from tvae_harness.tvae_codec import (
    HistoryEntry,
    ThinkTag,
    Verification,
    parse_tvae,
)

from conftest import (
    FIXED_TURN,
    CountingTurnServer,
    ScriptedReplyServer,
    make_click_step,
    make_traj,
    save_dataset,
)
from reference_codec import ReferenceTurn, ThinkSegment, emit_checked
from reference_codec import parse_tvae as reference_parse
from test_tvae_codec import assert_fixed_point


def _obs(history=(), budget=4) -> Observation:
    return Observation(
        instruction="Open the panel.",
        screen_ref="s0",
        history=tuple(history),
        step_budget_remaining=budget,
    )


def _rng(seed):
    """A turn's `rng`: every call returns the one generator of `seed`."""
    generator = random.Random(seed)
    return lambda: generator


# -- scripted agents -----------------------------------------------------------------


def test_scripted_turn_is_pure():
    gt = make_click_step(0)
    for name in VariantName:
        variant = Variant(name, k=2, p=0.4)
        a = scripted_turn(variant, _obs(), gt, _rng(5))
        b = scripted_turn(variant, _obs(), gt, _rng(5))
        assert a == b


def test_oracle_emits_well_formed_success_turn():
    gt = make_click_step(0)
    text = scripted_turn(Variant(VariantName.ORACLE), _obs(), gt, _rng(1))
    out = parse_tvae(text)
    assert out.warnings == ()
    assert out.verification is Verification.SUCCESS
    assert match_action(out.action, gt.gt_action, gt.gt_bbox)
    assert reference_parse(text).think[0].tag is ThinkTag.VERIFY
    assert out.expected_effect == gt.reference_effect


def test_oracle_recovery_turn_after_failed_attempt():
    gt = make_click_step(0)
    failed = HistoryEntry(
        make_click_step(0, coord=(0.9, 0.9)).gt_action, "Wrong.", Verification.SUCCESS
    )
    text = scripted_turn(Variant(VariantName.ORACLE), _obs([failed]), gt, _rng(1))
    out = parse_tvae(text)
    assert out.warnings == ()
    assert out.verification is Verification.NO_CHANGE
    tags = {s.tag for s in reference_parse(text).think}
    assert ThinkTag.DIAGNOSE in tags and ThinkTag.RECOVERY in tags


def test_loopy_reissues_history_action_verbatim():
    gt = make_click_step(0)
    prior = HistoryEntry(
        make_click_step(0, coord=(0.31, 0.77)).gt_action, "Hm.", Verification.SUCCESS
    )
    text = scripted_turn(Variant(VariantName.LOOPY), _obs([prior]), gt, _rng(1))
    out = parse_tvae(text)
    assert out.warnings == ()
    assert out.action == prior.action
    assert out.verification is Verification.SUCCESS  # hallucinated


def test_loopy_first_turn_mismatches_ground_truth():
    gt = make_click_step(0)
    text = scripted_turn(Variant(VariantName.LOOPY), _obs(), gt, _rng(1))
    out = parse_tvae(text)
    assert out.warnings == ()
    assert not match_action(out.action, gt.gt_action, gt.gt_bbox)


def test_failk_turn_count():
    trajs = make_dataset(3, (3, 3), seed=1)
    traces = run_episodes(trajs, ScriptedAgent(Variant(VariantName.FAIL_K, k=1)), SimConfig(seed=0))
    assert all(t.steps_used == 6 for t in traces)  # exactly 2 per step


def test_failk_zero_degenerates_to_oracle():
    trajs = make_dataset(3, (2, 4), seed=2)
    traces = run_episodes(trajs, ScriptedAgent(Variant(VariantName.FAIL_K, k=0)), SimConfig(seed=0))
    assert all(t.outcome is Outcome.COMPLETED_FIRST_TRY for t in traces)
    assert all(
        a.predicted_verification == target
        for t in traces
        for a, (_, target) in zip(t.attempts, t.attempt_targets())
    )


def test_oracle_end_to_end_invariant():
    trajs = make_dataset(12, (1, 7), seed=10)
    traces = run_episodes(trajs, ScriptedAgent(Variant(VariantName.ORACLE)), SimConfig(seed=0))
    assert all(t.outcome is Outcome.COMPLETED_FIRST_TRY for t in traces)


def _relative_and_pixel_datasets(tmp_path):
    """Seeded trajectories, once with relative values and once read from a
    file in pixels with per-step screen sizes, plus one trajectory whose
    texts need a JSON escape."""
    relative = make_dataset(30, (1, 6), seed=23)
    relative.append(make_traj([
        ActionRecord(kind=ActionKind.INPUT_TEXT, text='say "hi"'),
        ActionRecord(kind=ActionKind.OPEN_APP, text="Caf\u00e9"),
    ], traj_id="escaped"))
    save_dataset(relative, tmp_path / "relative.jsonl")
    lines = []
    for line in (tmp_path / "relative.jsonl").read_text().splitlines():
        traj = json.loads(line)
        for step in traj["steps"]:
            step["screen_dims"] = [1080, 2400]
            step.pop("gt_bbox", None)
            if "coordinate" in step["gt_action"]:
                x, y = step["gt_action"]["coordinate"]
                step["gt_action"]["coordinate"] = [round(x * 1080), round(y * 2400)]
        lines.append(json.dumps(traj) + "\n")
    (tmp_path / "pixel.jsonl").write_text("".join(lines))
    return relative, load_dataset(tmp_path / "pixel.jsonl")


def test_scripted_turns_take_the_fast_path(tmp_path, monkeypatch):
    # A scripted turn is split by the parser's one layout match and its action
    # read with no JSON decode: an emitter change that sends turns down the
    # slower block scan or JSON decode fails here rather than silently
    # costing throughput.
    decoded, texts = [], []
    decode, emit = tvae_codec.parse_action_json, agent_bus._emit

    def recording_decode(body):
        decoded.append(body)
        return decode(body)

    def recording_emit(*args):
        texts.append(emit(*args))
        return texts[-1]

    monkeypatch.setattr(tvae_codec, "parse_action_json", recording_decode)
    monkeypatch.setattr(agent_bus, "_emit", recording_emit)
    turns = 0
    for spec in ("oracle", "loopy", "failk:2", "bernoulli:0.5", "offset_then_correct"):
        agent = parse_agent_spec(f"scripted:{spec}", timeout=5)
        for trajs in _relative_and_pixel_datasets(tmp_path):
            for trace in run_episodes(trajs, agent, SimConfig(seed=3)):
                turns += len(trace.attempts)
                assert all(a.parse_warnings == () for a in trace.attempts)
    # every turn is in the emitted layout; only an action whose text needs a
    # JSON escape is decoded
    assert turns > 1000 and len(texts) == turns
    assert all(tvae_codec._EMITTED_TURN.fullmatch(text) for text in texts)
    assert decoded and all("\\" in body for body in decoded)
    # the checked reference refuses a blank segment body of any tag
    for tag in ThinkTag:
        blank = ReferenceTurn(
            think=(ThinkSegment(ThinkTag.RECOVERY, "Retry."), ThinkSegment(tag, " ")),
            verification=Verification.NO_CHANGE,
            action=ActionRecord(kind=ActionKind.NAVIGATE_BACK),
            expected_effect="The list appears.",
        )
        why = rf"^think: invalid {tag.value} \(empty segment body\)$"
        with pytest.raises(DataError, match=why):
            emit_checked(blank)


def _hostile_trajectories():
    """Texts the scripted agent must make safe: tag tokens, block terminators,
    padding, non-ASCII and an empty instruction."""
    steps = tuple(
        StepRecord(i, f"hostile/s{i}", action, effect)
        for i, (action, effect) in enumerate([
            (ActionRecord(kind=ActionKind.INPUT_TEXT, text="[Verify] a </think> <action>b"),
             "  The field shows [Text] </expected_effect> b.  "),
            (ActionRecord(kind=ActionKind.OPEN_APP, text=" Café ☕ 日本 "), "日本 opens </action>."),
            (ActionRecord(kind=ActionKind.CLICK, coordinate=(0.25, 0.75)),
             "[Grounding] The row (re)loads."),
            (ActionRecord(kind=ActionKind.SCROLL, direction=ScrollDirection.LEFT),
             " The list moves left. "),
            (ActionRecord(kind=ActionKind.WAIT, seconds=2.5), "Nothing changes </verification>"),
        ])
    )
    instruction = "  Open [Settings] </think> and tap “Wi‑Fi”\t— café  "
    back = StepRecord(
        0, "untitled/s0", ActionRecord(kind=ActionKind.NAVIGATE_BACK),
        "Screen 1 of the flow appears.",
    )
    return [
        TrajectoryRecord("hostile", instruction, steps, "hostile/done"),
        TrajectoryRecord("untitled", "", (back,), "untitled/done"),
    ]


_SCRIPTED_SPECS = ("oracle", "loopy", "failk:2", "bernoulli:0.5", "offset_then_correct")


class _Recording:
    """A scripted agent that appends each turn text it writes to `texts`."""

    white_box, max_inflight = True, 1

    def __init__(self, spec, texts):
        self.agent = parse_agent_spec(f"scripted:{spec}", timeout=5)
        self.texts = texts

    def turn(self, obs, gt, rng):
        self.texts.append(self.agent.turn(obs, gt, rng))
        return self.texts[-1]


def test_scripted_turn_texts_are_pinned(tmp_path):
    # Traces do not record a turn's text, so a drift of the scripted templates
    # (or a shorter text that would flatter the parse) shows only here.
    texts = []
    datasets = (*_relative_and_pixel_datasets(tmp_path), _hostile_trajectories())
    for spec in _SCRIPTED_SPECS:
        agent = _Recording(spec, texts)
        for trajs in datasets:
            run_episodes(trajs, agent, SimConfig(seed=3))
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8") + b"\0")
        assert_fixed_point(text)
    assert len(texts) == 1929
    assert digest.hexdigest() == (
        "e4aca1ee56999ad79fbf8c0c5db6168183ae9519f5c4e6090dc43b727ed37f7d"
    )


# Pieces of hostile text: tag tokens, block tags and terminators, padding,
# non-ASCII, line and paragraph separators, control characters, JSON
# escapes, and arbitrary short text.
_HOSTILE_PIECES = st.one_of(
    st.sampled_from([
        "[", "]", "[Verify]", "[Recovery]", "[Plan]", "<", ">", "</", "<\\/", "(/",
        "<think>", "</think>", "</verification>", "<action>", "</action>",
        "</expected_effect>", "<<//", " ", "\t", "\n", "\r", "\u00a0", "\u2003",
        "\u2028", "\u2029", "\x85", "\x00", "\x1f", "\x7f", "Caf\u00e9", "\u65e5\u672c",
        "\u2615", '"', "\\", "'", "SUCCESS", "NO_CHANGE", ".", "a",
    ]),
    st.text(max_size=3),
)
_HOSTILE_TEXT = st.lists(_HOSTILE_PIECES, max_size=6).map("".join)


@st.composite
def _hostile_trajectory(draw) -> TrajectoryRecord:
    """One to three steps, each an input_text or open_app action, or now and
    then a click, with arbitrary texts everywhere the agent copies one."""
    steps = []
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            [ActionKind.INPUT_TEXT, ActionKind.OPEN_APP, ActionKind.INPUT_TEXT, ActionKind.CLICK]
        ))
        if kind is ActionKind.CLICK:
            action = ActionRecord(kind=kind, coordinate=(0.5, 0.25))
        else:
            action = ActionRecord(kind=kind, text=draw(_HOSTILE_TEXT.filter(bool)))
        effect = draw(_HOSTILE_TEXT.filter(str.strip))
        steps.append(StepRecord(i, f"p/s{i}", action, effect))
    return TrajectoryRecord("p", draw(_HOSTILE_TEXT), tuple(steps), "p/done")


@settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(traj=_hostile_trajectory())
def test_scripted_turns_are_checked_turns_for_any_texts(traj):
    # emit_tvae checks nothing, so the scripted agent's `_clean` and
    # `_effect_safe` alone keep each body free of tag tokens, block
    # terminators and padding; the checked reference would refuse a turn
    # that breaks one of them, or write different bytes
    texts = []
    for spec in _SCRIPTED_SPECS:
        run_episodes([traj], _Recording(spec, texts), SimConfig(seed=3))
    assert texts
    for text in texts:
        assert_fixed_point(text)


# -- remote agents ----------------------------------------------------------------------


class _TurnHandler(BaseHTTPRequestHandler):
    seen: list[dict] = []
    auth: list[str | None] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(body)
        type(self).auth.append(self.headers.get("Authorization"))
        payload = FIXED_TURN.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def turn_server():
    _TurnHandler.seen = []
    _TurnHandler.auth = []
    server = HTTPServer(("127.0.0.1", 0), _TurnHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _remote_turn(endpoint, obs, **kwargs):
    """One `RemoteAgent` turn on a fresh agent, closed afterwards."""
    agent = RemoteAgent(endpoint, **kwargs)
    try:
        return agent.turn(obs, None, _rng(0))
    finally:
        agent.close()


def test_remote_turn_returns_body_verbatim(turn_server):
    history = (HistoryEntry(make_click_step(0).gt_action, "Opens.", Verification.SUCCESS),)
    text = _remote_turn(turn_server, _obs(history), timeout=5, token="sekrit")
    assert text == FIXED_TURN
    sent = _TurnHandler.seen[-1]
    assert sent["schema_version"] == 1
    assert sent["instruction"] == "Open the panel."
    assert sent["budget_remaining"] == 4
    assert sent["history"][0]["verification"] == "SUCCESS"
    assert _TurnHandler.auth[-1] == "Bearer sekrit"


def test_remote_agent_in_sim(turn_server):
    agent = RemoteAgent(turn_server, timeout=5)
    assert not agent.white_box
    trajs = make_dataset(2, (2, 2), seed=4)
    traces = run_episodes(trajs, agent, SimConfig(seed=0), workers=2)
    assert len(traces) == 2  # server always clicks (0.5,0.5); outcome depends on data


class _ProseHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        payload = b"I think you should click somewhere in the middle."
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_remote_prose_passthrough_counts_as_mismatch():
    server = HTTPServer(("127.0.0.1", 0), _ProseHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_port}"
        text = _remote_turn(endpoint, _obs(), timeout=5)
        assert text == "I think you should click somewhere in the middle."
        trajs = make_dataset(2, (2, 2), seed=6)
        agent = RemoteAgent(endpoint, timeout=5)
        traces = run_episodes(trajs, agent, SimConfig(seed=0))
        assert all(t.outcome is Outcome.BUDGET_EXHAUSTED for t in traces)
        assert all(a.issued is None for t in traces for a in t.attempts)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_remote_agent_bounded_concurrency(turn_server):
    agent = RemoteAgent(turn_server, timeout=5)
    trajs = make_dataset(6, (1, 2), seed=8)
    traces = run_episodes(trajs, agent, SimConfig(seed=0), workers=6)
    assert len(traces) == 6


@pytest.mark.parametrize("workers, episodes, peak", [(1, 4, 1), (3, 6, 3), (8, 4, 4)])
def test_remote_agent_caps_requests_in_flight(workers, episodes, peak):
    # the client sets no cap of its own: `workers` alone bounds the requests
    with CountingTurnServer(delay_s=0.02) as server:
        agent = RemoteAgent(server.url, timeout=5)
        try:
            traces = run_episodes(
                make_dataset(episodes, (2, 3), seed=8), agent, SimConfig(seed=0), workers=workers
            )
        finally:
            agent.close()
        assert server.wait_closed(server.connections, timeout=5)
    assert server.requests == sum(len(t.attempts) for t in traces)
    assert server.peak_inflight == min(workers, episodes) == peak


@pytest.mark.parametrize("suffix, target", [
    ("/agent", "/agent/turn"),
    ("/agent/", "/agent/turn"),
    ("/agent/turn", "/agent/turn"),
    ("/agent?key=abc", "/agent/turn?key=abc"),
    ("/agent/?key=abc#x", "/agent/turn?key=abc"),
    ("#x", "/turn"),
])
def test_remote_agent_appends_turn_to_the_path(suffix, target):
    # the query stays after the path and the fragment is never sent
    with CountingTurnServer() as server:
        assert _remote_turn(server.url + suffix, _obs(), timeout=5) == FIXED_TURN
    assert server.targets == [target]


def test_remote_unreachable_raises_after_retry():
    with pytest.raises(AgentError, match="^http://127.0.0.1:9/turn: ") as err:
        _remote_turn("http://127.0.0.1:9", _obs(), timeout=0.5)
    assert "timed out" not in str(err.value)  # refused, not a timeout


def test_remote_timeout_is_retried_once_then_raises():
    with CountingTurnServer(delay_s=0.5) as server:
        with pytest.raises(AgentError, match="timed out$"):
            _remote_turn(server.url, _obs(), timeout=0.1)
        assert server.requests == 2


def test_https_endpoint_runs_the_tls_handshake():
    # a plain-HTTP server cannot answer the handshake: no request reaches it
    with CountingTurnServer() as server:
        url = server.url.replace("http://", "https://")
        with pytest.raises(AgentError, match=f"^{url}/turn: .*SSL"):
            _remote_turn(url, _obs(), timeout=5)
    assert server.requests == 0


def test_remote_agent_reuses_one_connection_until_close():
    with CountingTurnServer() as server:
        agent = RemoteAgent(server.url, timeout=5)
        traces = run_episodes(make_dataset(3, (2, 3), seed=4), agent, SimConfig(seed=0))
        turns = sum(len(t.attempts) for t in traces)
        assert server.requests == turns > 1
        assert server.connections == 1
        assert not server.wait_closed(1, timeout=0.2)
        agent.close()
        assert server.wait_closed(1, timeout=5)


def _reply(head: str, body: bytes = b"") -> bytes:
    return head.replace("\n", "\r\n").encode("latin-1") + b"\r\n" + body


_TURN = FIXED_TURN.encode("utf-8")
_CHUNKED = b"".join(b"%x\r\n%s\r\n" % (len(part), part) for part in (_TURN[:40], _TURN[40:]))

_FLOOD = f"reply exceeds MAX_TURN_BYTES ({MAX_TURN_BYTES} bytes)"

# Replies the client cannot read: each is a transport error, retried once on
# a new connection, except one over the cap.  Whether the server closes after
# its reply, the requests the turn makes, and the error's reason.
BAD_REPLIES = {
    "garbage-status-line": (_reply("FOO BAR BAZ\n"), False, 2, "bad status line b'FOO BAR BAZ'"),
    "non-numeric-length": (
        _reply("HTTP/1.1 200 OK\nContent-Length: ten\n", b"0123456789"), False, 2,
        "bad Content-Length b'ten'",
    ),
    "negative-length": (
        _reply("HTTP/1.1 200 OK\nContent-Length: -5\n", b"01234"), False, 2,
        "bad Content-Length b'-5'",
    ),
    "body-cut-short": (
        _reply("HTTP/1.1 200 OK\nContent-Length: 100\n", b"0123456789"), True, 2,
        "connection closed mid-reply",
    ),
    "bad-chunk-size": (
        _reply("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", b"zz\r\nhello\r\n0\r\n\r\n"),
        False, 2, "bad chunk size b'zz'",
    ),
    "chunked-cut-before-the-next-size": (
        _reply("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", b"%x\r\n%s\r\n" % (40, _TURN[:40])),
        True, 2, "connection closed mid-reply",
    ),
    "closed-without-a-reply": (b"", True, 2, "connection closed before the reply head"),
    "length-past-the-int-digit-limit": (
        _reply("HTTP/1.1 200 OK\nContent-Length: " + "9" * 5000 + "\n"), False, 1, _FLOOD,
    ),
    "head-over-the-cap": (b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * MAX_TURN_BYTES, True, 1, _FLOOD),
    "close-delimited-body-over-the-cap": (
        _reply("HTTP/1.0 200 OK\n", b"x" * MAX_TURN_BYTES), True, 1, _FLOOD,
    ),
}


@pytest.mark.parametrize("case", list(BAD_REPLIES))
def test_unreadable_reply_is_an_agent_error(case):
    reply, server_closes, requests, reason = BAD_REPLIES[case]
    with ScriptedReplyServer(reply, close=server_closes) as server:
        with pytest.raises(AgentError) as err:
            _remote_turn(server.url, _obs(), timeout=5)
    assert str(err.value) == f"{server.url}/turn: {reason}"
    assert server.requests == server.connections == requests
    if not server_closes:  # the client closed every connection it opened
        assert server.client_closed == requests


# Readable replies in other framings and charsets: the exact text, and the
# connections two turns take (1 when the first is kept for the second).
ODD_REPLIES = {
    "http-1.0-close-delimited": (
        _reply("HTTP/1.0 200 OK\nContent-Type: text/plain\n", _TURN), True, FIXED_TURN, 2,
    ),
    "chunked": (
        _reply("HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n", _CHUNKED + b"0\r\n\r\n"),
        False, FIXED_TURN, 2,
    ),
    "connection-close": (  # the server leaves closing to the client
        _reply(f"HTTP/1.1 200 OK\nConnection: close\nContent-Length: {len(_TURN)}\n", _TURN),
        False, FIXED_TURN, 2,
    ),
    "latin-1": (
        _reply("HTTP/1.1 200 OK\nContent-Type: text/plain; charset=latin-1\n"
               "Content-Length: 4\n", "café".encode("latin-1")),
        False, "café", 1,
    ),
    "interim-100-continue": (
        _reply("HTTP/1.1 100 Continue\n")
        + _reply(f"HTTP/1.1 200 OK\nContent-Length: {len(_TURN)}\n", _TURN),
        False, FIXED_TURN, 1,
    ),
    "no-content": (_reply("HTTP/1.1 204 No Content\n"), False, "", 1),
    "kept-alive-then-closed": (  # the second turn retries its stale socket on a new one
        _reply(f"HTTP/1.1 200 OK\nContent-Length: {len(_TURN)}\n", _TURN), True, FIXED_TURN, 2,
    ),
    "unknown-charset": (
        _reply("HTTP/1.1 200 OK\nContent-Type: text/plain; charset=x-no-such\n"
               "Content-Length: 9\n", "café ✓".encode("utf-8")),
        False, "café ✓", 1,
    ),
}


@pytest.mark.parametrize("case", list(ODD_REPLIES))
def test_reply_framings_and_charsets(case):
    reply, server_closes, text, connections = ODD_REPLIES[case]
    with ScriptedReplyServer(reply, close=server_closes) as server:
        agent = RemoteAgent(server.url, timeout=5)
        try:
            for _ in range(2):
                assert agent.turn(_obs(), None, _rng(0)) == text
        finally:
            agent.close()
    assert server.requests == 2
    assert server.connections == connections
    if not server_closes:  # the client closed every connection it opened
        assert server.client_closed == connections


def test_wire_payload_shape():
    payload = json.loads(observation_to_wire(_obs()))
    assert set(payload) == {
        "schema_version", "instruction", "screen_ref", "history", "budget_remaining"
    }


# -- stdio agents --------------------------------------------------------------------------


def test_stdio_agent_round_trip():
    script = (
        "import json, sys\n"
        "turn = " + json.dumps(FIXED_TURN) + "\n"
        "for line in sys.stdin:\n"
        "    json.loads(line)\n"
        "    sys.stdout.write(turn + '\\n<<<END_TURN>>>\\n')\n"
        "    sys.stdout.flush()\n"
    )
    agent = StdioAgent([sys.executable, "-c", script], timeout=30)
    try:
        assert agent.turn(_obs(), None, _rng(0)) == FIXED_TURN
        assert agent.turn(_obs(), None, _rng(0)) == FIXED_TURN
    finally:
        agent.close()


def test_stdio_agent_reads_lines_past_the_sentinel_into_the_next_turn():
    # both turns arrive in one write after the first request; \r\n and a
    # lone \r end lines, and the sentinel line may end in \r\n
    script = (
        "import sys\n"
        "sys.stdin.readline()\n"
        "sys.stdout.buffer.write(b'one\\r\\ntwo\\rthree\\n<<<END_TURN>>>\\r\\n"
        "four\\n<<<END_TURN>>>\\n')\n"
        "sys.stdout.flush()\n"
        "sys.stdin.readline()\n"
        "sys.stdin.readline()\n"
    )
    agent = StdioAgent([sys.executable, "-c", script], timeout=5)
    try:
        assert agent.turn(_obs(), None, _rng(0)) == "one\ntwo\nthree"
        assert agent.turn(_obs(), None, _rng(0)) == "four"
    finally:
        agent.close()


def test_stdio_agent_that_reads_nothing_times_out_on_a_large_request():
    # a request larger than the pipe buffer cannot be written to an agent
    # that never reads; the write is bounded by the turn's timeout too
    agent = StdioAgent([sys.executable, "-c", "import time; time.sleep(100)"], timeout=1)
    obs = Observation("x" * 200_000, "s0", (), 4)
    started = time.monotonic()
    try:
        with pytest.raises(AgentError, match=r"^stdio agent timed out \(no complete turn within 1 s\)$"):
            agent.turn(obs, None, _rng(0))
        assert time.monotonic() - started < 5
    finally:
        agent.close()
    assert agent._proc.poll() is not None


def test_stdio_agent_that_exited_before_the_turn():
    agent = StdioAgent([sys.executable, "-c", "pass"], timeout=30)
    try:
        agent._proc.wait()
        with pytest.raises(AgentError, match=r"^stdio agent exited$"):
            agent.turn(_obs(), None, _rng(0))
    finally:
        agent.close()


def _agent_answering_once_after(step: str) -> StdioAgent:
    """A stdio agent that reads one request, runs `step`, answers with
    FIXED_TURN and then sleeps."""
    script = (
        "import os, signal, sys, time\n"
        "sys.stdin.readline()\n"
        f"{step}\n"
        "sys.stdout.write(" + json.dumps(FIXED_TURN) + " + '\\n<<<END_TURN>>>\\n')\n"
        "sys.stdout.flush()\n"
        "time.sleep(100)\n"
    )
    return StdioAgent([sys.executable, "-c", script], timeout=30)


def test_stdio_agent_that_closed_its_input_fails_the_next_write():
    agent = _agent_answering_once_after("os.close(0)")
    try:
        assert agent.turn(_obs(), None, _rng(0)) == FIXED_TURN
        with pytest.raises(AgentError, match=r"^stdio transport failed: \[Errno 32\] Broken pipe$"):
            agent.turn(_obs(), None, _rng(0))
    finally:
        agent.close()


def test_close_kills_an_agent_that_ignores_sigterm(monkeypatch):
    agent = _agent_answering_once_after("signal.signal(signal.SIGTERM, signal.SIG_IGN)")
    proc = agent._proc
    wait = proc.wait
    # close() waits 5 s for SIGTERM to take; 0.2 s shows the same path
    monkeypatch.setattr(proc, "wait", lambda timeout=None: wait(timeout and 0.2))
    try:
        assert agent.turn(_obs(), None, _rng(0)) == FIXED_TURN  # SIGTERM is ignored by now
    finally:
        agent.close()
    assert proc.returncode == -signal.SIGKILL


def test_stdio_agent_dead_process():
    agent = StdioAgent([sys.executable, "-c", "pass"], timeout=30)
    try:
        with pytest.raises(AgentError, match="^stdio agent "):
            agent.turn(_obs(), None, _rng(0))
    finally:
        agent.close()


# -- spec parsing ---------------------------------------------------------------------------------


def _spec(text):
    return parse_agent_spec(text, timeout=30.0)


def test_parse_agent_spec_variants():
    assert _spec("scripted:oracle").identity == "scripted:oracle"
    assert _spec("scripted:failk:3").variant.k == 3
    assert _spec("scripted:bernoulli:0.25").variant.p == 0.25
    assert _spec("remote:http://x:1").identity == "remote:http://x:1"
    assert _spec("scripted:failk:0").variant.k == 0
    assert _spec("scripted:bernoulli:1").variant.p == 1.0
    for bad in (
        "remote:127.0.0.1:9", "remote:ftp://x/", "remote:http://x:port",
        "remote:http://x:1/a b", "remote:http://\u00e4.example:1", "remote:http://x:1/\x00",
        "remote:http://[::1",
        "scripted:failk:x", "scripted:failk:-1", "scripted:failk:2.0",
        "scripted:bernoulli:2", "scripted:bernoulli:nan", "scripted:bernoulli:-inf",
    ):
        with pytest.raises(DataError, match="^(remote|agent|scripted): invalid "):
            _spec(bad)


@pytest.mark.parametrize("token", ["a\r\nX-Other: 1", "t\u00f6ken"])
def test_token_that_cannot_be_a_header_value_is_rejected(token):
    with pytest.raises(DataError, match="^remote: invalid token "):
        parse_agent_spec("remote:http://x:1", timeout=30.0, token=token)


@pytest.mark.parametrize("kw", [{"k": -1}, {"k": 1.0}, {"k": True}, {"p": 1.5}, {"p": float("nan")}])
def test_variant_rejects_bad_k_or_p(kw):
    with pytest.raises(DataError, match="^scripted: invalid [KP] "):
        Variant(VariantName.FAIL_K, **kw)
