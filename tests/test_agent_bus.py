from __future__ import annotations

import json
import random
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from tvae_harness.agent_bus import (
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
from tvae_harness.errors import AgentError, DataError
from tvae_harness.reward_engine import match_action
from tvae_harness.sim_engine import Outcome, SimConfig, run_episodes
from tvae_harness.synthdata import make_dataset
from tvae_harness.tvae_codec import (
    HistoryEntry,
    ThinkTag,
    Verification,
    parse_tvae,
)

from conftest import FIXED_TURN, CountingTurnServer, make_click_step


def _obs(history=(), budget=4) -> Observation:
    return Observation(
        instruction="Open the panel.",
        screen_ref="s0",
        history=tuple(history),
        step_budget_remaining=budget,
    )


# -- scripted agents -----------------------------------------------------------------


def test_scripted_turn_is_pure():
    gt = make_click_step(0)
    for name in VariantName:
        variant = Variant(name, k=2, p=0.4)
        a = scripted_turn(variant, _obs(), gt, random.Random(5))
        b = scripted_turn(variant, _obs(), gt, random.Random(5))
        assert a == b


def test_oracle_emits_well_formed_success_turn():
    gt = make_click_step(0)
    text = scripted_turn(Variant(VariantName.ORACLE), _obs(), gt, random.Random(1))
    out = parse_tvae(text)
    assert out.verification is Verification.SUCCESS
    assert match_action(out.action, gt.gt_action, gt.gt_bbox)
    assert out.think[0].tag is ThinkTag.VERIFY
    assert out.expected_effect == gt.reference_effect


def test_oracle_recovery_turn_after_failed_attempt():
    gt = make_click_step(0)
    failed = HistoryEntry(
        make_click_step(0, coord=(0.9, 0.9)).gt_action, "Wrong.", Verification.SUCCESS
    )
    text = scripted_turn(Variant(VariantName.ORACLE), _obs([failed]), gt, random.Random(1))
    out = parse_tvae(text)
    assert out.verification is Verification.NO_CHANGE
    tags = {s.tag for s in out.think}
    assert ThinkTag.DIAGNOSE in tags and ThinkTag.RECOVERY in tags


def test_loopy_reissues_history_action_verbatim():
    gt = make_click_step(0)
    prior = HistoryEntry(
        make_click_step(0, coord=(0.31, 0.77)).gt_action, "Hm.", Verification.SUCCESS
    )
    text = scripted_turn(Variant(VariantName.LOOPY), _obs([prior]), gt, random.Random(1))
    out = parse_tvae(text)
    assert out.action == prior.action
    assert out.verification is Verification.SUCCESS  # hallucinated


def test_loopy_first_turn_mismatches_ground_truth():
    gt = make_click_step(0)
    text = scripted_turn(Variant(VariantName.LOOPY), _obs(), gt, random.Random(1))
    out = parse_tvae(text)
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
        a.predicted_verification == a.target_verification for t in traces for a in t.attempts
    )


def test_oracle_end_to_end_invariant():
    trajs = make_dataset(12, (1, 7), seed=10)
    traces = run_episodes(trajs, ScriptedAgent(Variant(VariantName.ORACLE)), SimConfig(seed=0))
    assert all(t.outcome is Outcome.COMPLETED_FIRST_TRY for t in traces)


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
    agent = RemoteAgent(endpoint, max_inflight=1, **kwargs)
    try:
        return agent.turn(obs, None, random.Random(0))
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
    agent = RemoteAgent(turn_server, timeout=5, max_inflight=1)
    assert agent.max_inflight == 1
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
        agent = RemoteAgent(endpoint, timeout=5, max_inflight=1)
        traces = run_episodes(trajs, agent, SimConfig(seed=0))
        assert all(t.outcome is Outcome.BUDGET_EXHAUSTED for t in traces)
        assert all(a.issued is None for t in traces for a in t.attempts)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_remote_agent_bounded_concurrency(turn_server):
    agent = RemoteAgent(turn_server, timeout=5, max_inflight=3)
    assert agent.max_inflight == 3
    trajs = make_dataset(6, (1, 2), seed=8)
    traces = run_episodes(trajs, agent, SimConfig(seed=0), workers=6)
    assert len(traces) == 6


@pytest.mark.parametrize("max_inflight, workers, peak", [(1, 4, 1), (3, 6, 3)])
def test_remote_agent_caps_requests_in_flight(max_inflight, workers, peak):
    with CountingTurnServer(delay_s=0.02) as server:
        agent = RemoteAgent(server.url, timeout=5, max_inflight=max_inflight)
        try:
            traces = run_episodes(
                make_dataset(6, (2, 3), seed=8), agent, SimConfig(seed=0), workers=workers
            )
        finally:
            agent.close()
        assert server.wait_closed(server.connections, timeout=5)
    assert server.requests == sum(len(t.attempts) for t in traces)
    assert server.peak_inflight == min(workers, agent.max_inflight) == peak


def test_remote_unreachable_raises_after_retry():
    with pytest.raises(AgentError, match="^http://127.0.0.1:9/turn: ") as err:
        _remote_turn("http://127.0.0.1:9", _obs(), timeout=0.5)
    assert "timed out" not in str(err.value)  # refused, not a timeout


def test_remote_timeout_is_retried_once_then_raises():
    with CountingTurnServer(delay_s=0.5) as server:
        with pytest.raises(AgentError, match="timed out$"):
            _remote_turn(server.url, _obs(), timeout=0.1)
        assert server.requests == 2


def test_remote_agent_reuses_one_connection_until_close():
    with CountingTurnServer() as server:
        agent = RemoteAgent(server.url, timeout=5, max_inflight=1)
        traces = run_episodes(make_dataset(3, (2, 3), seed=4), agent, SimConfig(seed=0))
        turns = sum(len(t.attempts) for t in traces)
        assert server.requests == turns > 1
        assert server.connections == 1
        assert not server.wait_closed(1, timeout=0.2)
        agent.close()
        assert server.wait_closed(1, timeout=5)


def test_wire_payload_shape():
    payload = observation_to_wire(_obs())
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
    agent = StdioAgent([sys.executable, "-c", script])
    try:
        assert agent.turn(_obs(), None, random.Random(0)) == FIXED_TURN
        assert agent.turn(_obs(), None, random.Random(0)) == FIXED_TURN
    finally:
        agent.close()


def test_stdio_agent_dead_process():
    agent = StdioAgent([sys.executable, "-c", "pass"])
    try:
        with pytest.raises(AgentError, match="^stdio agent "):
            agent.turn(_obs(), None, random.Random(0))
    finally:
        agent.close()


# -- spec parsing ---------------------------------------------------------------------------------


def _spec(text):
    return parse_agent_spec(text, timeout=30.0, max_inflight=1)


def test_parse_agent_spec_variants():
    assert _spec("scripted:oracle").identity == "scripted:oracle"
    assert _spec("scripted:failk:3").variant.k == 3
    assert _spec("scripted:bernoulli:0.25").variant.p == 0.25
    assert _spec("remote:http://x:1").identity == "remote:http://x:1"
    assert _spec("scripted:failk:0").variant.k == 0
    assert _spec("scripted:bernoulli:1").variant.p == 1.0
    for bad in (
        "remote:127.0.0.1:9", "remote:ftp://x/", "remote:http://x:port",
        "scripted:failk:x", "scripted:failk:-1", "scripted:failk:2.0",
        "scripted:bernoulli:2", "scripted:bernoulli:nan", "scripted:bernoulli:-inf",
    ):
        with pytest.raises(DataError, match="^(remote|agent|scripted): invalid "):
            _spec(bad)


@pytest.mark.parametrize("kw", [{"k": -1}, {"k": 1.0}, {"k": True}, {"p": 1.5}, {"p": float("nan")}])
def test_variant_rejects_bad_k_or_p(kw):
    with pytest.raises(DataError, match="^scripted: invalid [KP] "):
        Variant(VariantName.FAIL_K, **kw)
