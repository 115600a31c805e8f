from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

import tvae_harness
from tvae_harness import reward_engine, sim_engine
from tvae_harness.cli import EXIT_AGENT, EXIT_DATA, EXIT_INTERNAL, EXIT_OK, build_parser, main
from tvae_harness.failure_forge import (
    FailureCase,
    FailureMode,
    SampleType,
    SyntheticSample,
    failure_case_line,
    sample_line,
)
from tvae_harness.grpo_core import GrpoConfig
from tvae_harness.records import write_lines
from tvae_harness.reward_engine import RewardConfig
from tvae_harness.sim_engine import SimConfig, trace_from_json, trace_line
from tvae_harness.synthdata import make_dataset
from tvae_harness.trajectory_store import (
    ActionKind,
    ActionRecord,
    StepRecord,
    TrajectoryRecord,
)
from tvae_harness.tvae_codec import (
    HistoryEntry,
    ThinkTag,
    Verification,
)

import reference_grpo
from conftest import FIXED_TURN, CountingTurnServer, ScriptedReplyServer, save_dataset
from reference_codec import ReferenceTurn, ThinkSegment, emit_checked


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "dataset.jsonl"
    save_dataset(make_dataset(8, (2, 4), seed=31), path)
    return path


def _read_report(out_dir):
    with open(out_dir / "report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_simulate_oracle(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "simulate", "--dataset", str(dataset), "--agent", "scripted:oracle",
        "--out", str(out), "--seed", "5",
    ])
    assert code == EXIT_OK
    report = _read_report(out)
    assert report["tsr"] == 1.0 and report["sim_tsr"] == 1.0 and report["aso"] == 0.0
    assert report["tm"] == 1.0 and report["sr"] == 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["agent"] == "scripted:oracle"
    assert len(manifest["dataset_sha256"]) == 64
    assert (out / "traces.jsonl").exists()


@pytest.mark.parametrize("kind", ["input_text", "open_app"])
def test_oracle_completes_a_text_that_holds_a_block_terminator(tmp_path, kind):
    # the emitted text writes "</" as "<\/", so "</action>" cannot close the block
    step = {
        "index": 0, "screen_ref": "s0", "gt_action": {"kind": kind, "text": "a</action>b"},
        "reference_effect": "The text appears.",
    }
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps({
        "id": "t0", "instruction": "Type it.", "terminal_screen_ref": "done", "steps": [step],
    }) + "\n")
    out = tmp_path / "run"
    assert main([
        "simulate", "--dataset", str(dataset), "--agent", "scripted:oracle", "--out", str(out),
    ]) == EXIT_OK
    assert _read_report(out)["tsr"] == 1.0
    (trace,) = (out / "traces.jsonl").read_text().splitlines()
    obj = json.loads(trace)
    assert obj["outcome"] == "completed_first_try"
    assert obj["attempts"][0]["parse_warnings"] == []


def _pixel_dataset(dataset, path, dims=(1080, 2400)):
    """`dataset` in absolute pixels with per-step screen_dims and no boxes, so
    every click matches by distance."""
    w, h = dims
    lines = []
    for line in dataset.read_text().splitlines():
        traj = json.loads(line)
        for step in traj["steps"]:
            step["screen_dims"] = [w, h]
            step.pop("gt_bbox", None)
            if "coordinate" in step["gt_action"]:
                x, y = step["gt_action"]["coordinate"]
                step["gt_action"]["coordinate"] = [round(x * w), round(y * h)]
        lines.append(json.dumps(traj) + "\n")
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize("pixel", [False, True])
@pytest.mark.parametrize("agent", [
    "oracle", "loopy", "failk:1", "bernoulli:0.5", "offset_then_correct",
])
def test_sr_counts_the_first_attempts_the_traces_mark_matched(dataset, tmp_path, agent, pixel):
    # SR and the transitions apply one match rule
    if pixel:
        dataset = _pixel_dataset(dataset, tmp_path / "pixel.jsonl")
    out = tmp_path / "run"
    assert main([
        "simulate", "--dataset", str(dataset), "--agent", f"scripted:{agent}",
        "--out", str(out), "--seed", "2",
    ]) == EXIT_OK
    firsts = []
    for line in (out / "traces.jsonl").read_text().splitlines():
        seen = set()
        for attempt in json.loads(line)["attempts"]:
            if attempt["gt_step"] not in seen:
                seen.add(attempt["gt_step"])
                firsts.append(attempt["matched"])
    assert _read_report(out)["sr"] == sum(firsts) / len(firsts)


@pytest.mark.parametrize(
    "agent", ["oracle", "loopy", "failk:2", "bernoulli:0.5", "offset_then_correct"],
)
def test_trace_lines_round_trip_through_the_reader(dataset, tmp_path, agent):
    # the reader keeps each decided value, and the writer re-derives the rest
    out = tmp_path / "run"
    assert main([
        "simulate", "--dataset", str(dataset), "--agent", f"scripted:{agent}", "--out", str(out),
    ]) == EXIT_OK
    for line in (out / "traces.jsonl").read_text().splitlines():
        assert trace_line(trace_from_json(json.loads(line))) == line


def test_simulate_deterministic_reruns(dataset, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "simulate", "--dataset", str(dataset), "--agent", "scripted:bernoulli:0.5",
            "--out", str(out), "--seed", "9", "--workers", "4",
        ]) == EXIT_OK
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "traces.jsonl").read_bytes() == (outs[1] / "traces.jsonl").read_bytes()
    assert (outs[0] / "manifest.json").read_bytes() == (outs[1] / "manifest.json").read_bytes()


def test_simulate_unreachable_remote_no_report(dataset, tmp_path):
    out = tmp_path / "run"
    code = main([
        "simulate", "--dataset", str(dataset), "--agent", "remote:http://127.0.0.1:9",
        "--out", str(out), "--timeout", "0.3",
    ])
    assert code == EXIT_AGENT
    assert not out.exists()


@pytest.mark.parametrize(
    "status, requests, connections", [(400, 1, 1), (404, 1, 1), (500, 2, 2), (503, 2, 2)]
)
def test_simulate_remote_http_error_retries_only_5xx(
    dataset, tmp_path, status, requests, connections
):
    out = tmp_path / "run"
    with CountingTurnServer("no turn", status=status) as server:
        code = main([
            "simulate", "--dataset", str(dataset), "--agent", f"remote:{server.url}",
            "--out", str(out), "--timeout", "5",
        ])
    assert code == EXIT_AGENT
    assert server.requests == requests
    assert server.connections == connections  # a 5xx is retried on a new connection
    assert not out.exists()


def test_bench_robust_unreachable_remote_writes_nothing(dataset, tmp_path):
    out = tmp_path / "run"
    assert main([
        "bench-robust", "--synthesize", "--dataset", str(dataset),
        "--agent", "remote:http://127.0.0.1:9", "--timeout", "0.3", "--out", str(out),
    ]) == EXIT_AGENT
    assert not out.exists()


def test_simulate_remote_workers_bound_requests_and_connections(dataset, tmp_path):
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        with CountingTurnServer(delay_s=0.005) as server:
            assert main([
                "simulate", "--dataset", str(dataset), "--agent", f"remote:{server.url}",
                "--out", str(out), "--seed", "3", "--timeout", "5", "--workers", str(workers),
            ]) == EXIT_OK
            # the command closes its connections when the run ends
            assert server.wait_closed(server.connections, timeout=5)
        lines = (out / "traces.jsonl").read_text().splitlines()
        turns = sum(len(json.loads(line)["attempts"]) for line in lines)
        assert server.requests == turns
        assert server.peak_inflight == workers
        assert server.connections == workers
        outs.append(out)
    for name in ("traces.jsonl", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("flag, value", [
    ("--workers", "0"), ("--workers", "-2"),
    ("--timeout", "0"), ("--timeout", "-1"), ("--timeout", "nan"), ("--timeout", "inf"),
    ("--timeout", "1e300"), ("--timeout", "3e6"), ("--agent", "stdio:"), ("--agent", "stdio:'x"),
    ("--agent", "scripted:failk:x"), ("--agent", "scripted:failk:-1"),
    ("--agent", "scripted:failk:1.5"), ("--agent", "scripted:bernoulli:2"),
    ("--agent", "scripted:bernoulli:nan"), ("--agent", "scripted:bernoulli:-0.1"),
    ("--agent", "scripted:bernoulli:inf"), ("--agent", "scripted:bernoulli:half"),
    ("--agent", "scripted:failk:2:junk"), ("--agent", "scripted:oracle:7"),
    ("--agent", "scripted:bernoulli:0.5:x"),
    ("--budget-multiplier", "inf"), ("--budget-multiplier", "nan"),
])
@pytest.mark.parametrize("command", ["simulate", "bench-robust"])
def test_bad_workers_or_timeout_is_data_error(dataset, tmp_path, command, flag, value):
    # a later --agent (the flag under test) overrides the scripted:oracle given first
    out = tmp_path / "run"
    inputs = ["--dataset", str(dataset)]
    if command == "bench-robust":
        inputs.append("--synthesize")
    assert main([
        command, *inputs, "--agent", "scripted:oracle", "--out", str(out), flag, value,
    ]) == EXIT_DATA
    assert not out.exists()


def test_huge_budget_multiplier_is_rejected_at_once(dataset, tmp_path):
    # Looping under a budget of 1e7 x the trajectory length would run for hours.
    out = tmp_path / "run"
    start = time.monotonic()
    assert main([
        "simulate", "--dataset", str(dataset), "--limit", "1", "--agent", "scripted:loopy",
        "--out", str(out), "--budget-multiplier", "1e7",
    ]) == EXIT_DATA
    assert time.monotonic() - start < 5.0
    assert not out.exists()


def test_simulate_bad_dataset(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    code = main([
        "simulate", "--dataset", str(bad), "--agent", "scripted:oracle",
        "--out", str(tmp_path / "run"),
    ])
    assert code == EXIT_DATA


def test_simulate_missing_dataset(tmp_path):
    code = main([
        "simulate", "--dataset", str(tmp_path / "nope.jsonl"), "--agent", "scripted:oracle",
        "--out", str(tmp_path / "run"),
    ])
    assert code == EXIT_DATA


def test_bench_robust_loopy(dataset, tmp_path):
    out = tmp_path / "bench"
    code = main([
        "bench-robust", "--synthesize", "--dataset", str(dataset), "--per-traj", "2",
        "--agent", "scripted:loopy", "--out", str(out), "--seed", "3",
    ])
    assert code == EXIT_OK
    report = _read_report(out)
    assert report["lr"] == 1.0 and report["rsr"] == 0.0
    assert (out / "cases.jsonl").exists()
    assert json.loads((out / "manifest.json").read_text())["per_traj"] == 2


def test_bench_synthesis_deterministic(dataset, tmp_path):
    files = []
    for name in ("p", "q"):
        out = tmp_path / name
        assert main([
            "bench-robust", "--synthesize", "--dataset", str(dataset), "--per-traj", "2",
            "--agent", "scripted:oracle", "--out", str(out), "--seed", "7",
        ]) == EXIT_OK
        files.append((out / "cases.jsonl").read_bytes())
    assert files[0] == files[1]


def test_bench_requires_cases_or_synthesize(dataset, tmp_path):
    assert main([
        "bench-robust", "--agent", "scripted:oracle", "--out", str(tmp_path / "x"),
    ]) == EXIT_DATA


def test_bench_empty_cases_file_is_data_error(tmp_path):
    empty = tmp_path / "cases.jsonl"
    empty.write_text("")
    assert main([
        "bench-robust", "--cases", str(empty), "--agent", "scripted:oracle",
        "--out", str(tmp_path / "x"),
    ]) == EXIT_DATA
    assert not (tmp_path / "x").exists()


def test_malformed_cases_and_samples_are_data_errors(tmp_path):
    bad_cases = tmp_path / "cases.jsonl"
    bad_cases.write_text(json.dumps({"source": ["t", 0]}) + "\n")
    assert main([
        "bench-robust", "--cases", str(bad_cases), "--agent", "scripted:oracle",
        "--out", str(tmp_path / "x"),
    ]) == EXIT_DATA

    bad_samples = tmp_path / "samples.jsonl"
    bad_samples.write_text(json.dumps({"sample_type": "type_a"}) + "\n")
    outputs = tmp_path / "outputs.jsonl"
    outputs.write_text(json.dumps({"raw": "nope"}) + "\n")
    assert main([
        "score", "--samples", str(bad_samples), "--outputs", str(outputs),
        "--out", str(tmp_path / "y"),
    ]) == EXIT_DATA


def test_malformed_group_logprobs_is_data_error(dataset, tmp_path):
    samples_path, outputs_path, n = _write_score_inputs(tmp_path, dataset)
    gp = tmp_path / "groups.jsonl"
    outs = [{"logprobs_new": [-0.5]} for _ in range(n)]  # old/ref missing
    gp.write_text(json.dumps({"outputs": outs}) + "\n")
    assert main([
        "score", "--samples", str(samples_path), "--outputs", str(outputs_path),
        "--group-logprobs", str(gp), "--out", str(tmp_path / "z"),
    ]) == EXIT_DATA


def test_null_group_reward_is_not_a_number(dataset, tmp_path, capsys):
    # the key is present, so the scored totals' fallback does not apply
    groups, argv = _record_inputs("groups", tmp_path, dataset)
    objs = [json.loads(line) for line in groups.read_text().splitlines()]
    objs[1]["outputs"][0] = {**objs[1]["outputs"][0], "reward": None}
    groups.write_text("".join(json.dumps(o) + "\n" for o in objs))
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert "line 2: group_output: invalid reward (must be finite JSON numbers, got [None])" in (
        capsys.readouterr().err
    )


def _put(obj, keys, value=None):
    """`obj` with the item at `keys` set to `value`, or deleted if it is None."""
    *path, last = keys
    inner = obj
    for key in path:
        inner = inner[key]
    if value is None:
        del inner[last]
    else:
        inner[last] = value
    return obj


def _record_inputs(kind, tmp_path, dataset):
    """A valid input file of `kind` and the command that reads it."""
    out = str(tmp_path / "out")
    if kind == "dataset":
        # longest trajectory first, so a shorter duplicate of its id follows it
        lines = sorted(dataset.read_text().splitlines(), key=lambda l: -len(json.loads(l)["steps"]))
        path = tmp_path / "sorted.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path, ["simulate", "--dataset", str(path), "--agent", "scripted:oracle", "--out", out]
    if kind == "traces":
        run = tmp_path / "run"
        assert main([
            "simulate", "--dataset", str(dataset), "--agent", "scripted:failk:1", "--out", str(run),
        ]) == EXIT_OK
        return run / "traces.jsonl", ["report", "--traces", str(run / "traces.jsonl")]
    if kind == "cases":
        bench = tmp_path / "bench"
        assert main(["synth", "--kind", "bench", "--dataset", str(dataset), "--out", str(bench)]) == EXIT_OK
        path = bench / "cases.jsonl"
        return path, ["bench-robust", "--cases", str(path), "--agent", "scripted:oracle", "--out", out]
    samples, outputs, n = _write_score_inputs(tmp_path, dataset)
    score = ["score", "--samples", str(samples), "--outputs", str(outputs), "--out", out]
    if kind == "samples":
        return samples, score
    if kind == "outputs":
        return outputs, score
    groups = tmp_path / "groups.jsonl"
    member = {"logprobs_new": [-0.5], "logprobs_old": [-0.5], "logprobs_ref": [-0.5]}
    groups.write_text("".join(
        json.dumps({"outputs": [member] * size}) + "\n" for size in (n - 2, 2)
    ))
    return groups, [*score, "--group-logprobs", str(groups)]


def _bad_group_after_blank_line(objs):
    objs[0] = b""  # blank: the bad group is the file's first, yet on line 2
    return {"outputs": [5, 5]}


def _infinite_reward(objs):
    """Line 2 with its first reward written as the literal 1e400."""
    objs[1]["outputs"][0]["reward"] = "REWARD"
    return json.dumps(objs[1]).replace('"REWARD"', "1e400").encode()


def _kind_changing_case(objs):
    """A case whose erroneous action is of another kind than its recovery, so
    that no match against the recovery reads its box."""
    return next(c for c in objs if c["erroneous"]["kind"] != c["gt_recovery"]["kind"])


def _type_b_recovered(objs):
    """A type-B sample whose failed entry is its own target action."""
    sample = next(s for s in objs if s["sample_type"] == "type_b")
    return _put(sample, ["history", -1, "action"], sample["target_action"])


def _without_dims(obj):
    return {k: v for k, v in obj.items() if k != "screen_dims"}


def _renumbered_attempts(objs, **values):
    for attempt in objs[1]["attempts"]:
        attempt.update(values)
    return objs[1]


def _issued_click(objs, coordinate, space=None):
    """Line 2 with its first attempt issuing a click, marked with `space`."""
    issued = {"kind": "click", "coordinate": coordinate}
    if space is not None:
        issued["coordinate_space"] = space
    objs[1]["attempts"][0]["issued"] = issued
    return objs[1]


def _first_attempt(objs, hit, **values):
    """Line 2 with `values` set on its first match (`hit`) or miss."""
    next(a for a in objs[1]["attempts"] if a["matched"] is hit).update(values)
    return objs[1]


# Each mutation returns the new line 2 of a valid file, given its parsed lines.
BAD_LINES = {
    "dataset-bad-direction": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_action"], {"kind": "scroll", "direction": "diagonal"})),
    "dataset-int-coordinate": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_action"], {"kind": "click", "coordinate": 5})),
    "dataset-duplicate-id": ("dataset", lambda o: {**o[-1], "id": o[0]["id"]}),
    "dataset-not-utf8": ("dataset", lambda o: b"\xff{}"),
    "dataset-three-dims": ("dataset", lambda o: _put(o[1], ["steps", 0, "screen_dims"], [9, 9, 9])),
    "dataset-zero-dims-pixels": ("dataset", lambda o: _put(o[1], ["steps", 0], {
        **o[1]["steps"][0], "screen_dims": [0, 0],
        "gt_action": {"kind": "click", "coordinate": [3, 5]},  # pixels, scaled by the dims
    })),
    "traces-no-outcome": ("traces", lambda o: _put(o[1], ["outcome"])),
    "traces-non-object": ("traces", lambda o: [1, 2]),
    "traces-bad-issued": ("traces", lambda o: _put(o[1], ["attempts", 0, "issued"], "click")),
    "traces-steps-used-raised": (
        "traces", lambda o: {**o[1], "steps_used": o[1]["steps_used"] + 1000},
    ),
    "traces-final-cursor-raised": ("traces", lambda o: {**o[1], "final_cursor": 0}),
    "traces-match-not-advanced": ("traces", lambda o: _first_attempt(o, True, advanced=False)),
    # every episode makes at least t_gt >= 1 attempts, and its outcome follows from them
    "traces-t-gt-zero": ("traces", lambda o: {**o[1], "t_gt": 0}),
    "traces-t-gt-huge": ("traces", lambda o: {**o[1], "t_gt": 10**400}),
    "traces-t-gt-negative": ("traces", lambda o: {**o[1], "t_gt": -1}),
    "traces-outcome-flipped": ("traces", lambda o: {**o[1], "outcome": "budget_exhausted"}),
    # a truthy match that is not the JSON boolean true
    "traces-string-matched": ("traces", lambda o: _first_attempt(
        o, True, matched="false", advanced="false")),
    "traces-number-matched": ("traces", lambda o: _first_attempt(o, True, matched=1, advanced=1)),
    # each attempt's number is its position and its step the matches before it
    "traces-attempts-renumbered": (
        "traces", lambda o: _renumbered_attempts(o, attempt=7, gt_step=9),
    ),
    "traces-attempt-not-position": ("traces", lambda o: _renumbered_attempts(o, attempt=0)),
    "traces-gt-step-not-matches": ("traces", lambda o: _renumbered_attempts(o, gt_step=0)),
    "traces-bool-attempt": ("traces", lambda o: _put(o[1], ["attempts", 0, "attempt"], False)),
    "traces-float-gt-step": ("traces", lambda o: _put(o[1], ["attempts", 0, "gt_step"], 0.0)),
    # the issued action's coordinate_space key is the one its magnitude gives
    "traces-relative-click-marked-pixel": (
        "traces", lambda o: _issued_click(o, [0.5, 0.5], "pixel"),
    ),
    "traces-pixel-click-unmarked": ("traces", lambda o: _issued_click(o, [540, 1200])),
    "traces-pixel-click-marked-relative": (
        "traces", lambda o: _issued_click(o, [540, 1200], "relative"),
    ),
    # decided values are read as written, and every derived one is re-derived
    "traces-string-warnings": ("traces", lambda o: _put(
        o[1], ["attempts", 0, "parse_warnings"], "abc")),
    "traces-empty-prediction": ("traces", lambda o: _put(
        o[1], ["attempts", 0, "predicted_verification"], "")),
    "traces-target-verification-flipped": ("traces", lambda o: _put(  # after a miss
        o[1], ["attempts", 1, "target_verification"], "SUCCESS")),
    # dataset-form action values follow the turn parser's rules
    "dataset-int-text": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_action"], {"kind": "input_text", "text": 5})),
    "dataset-three-component-coordinate": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_action"], {"kind": "click", "coordinate": [0.5, 0.5, 0.9]})),
    "dataset-string-coordinate": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_action"], {"kind": "click", "coordinate": ["0.5", "0.5"]})),
    "dataset-bool-seconds": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_action"], {"kind": "wait", "seconds": True})),
    "dataset-string-revisits": ("dataset", lambda o: {**o[1], "allows_revisits": "false"}),
    # dataset values are checked, not coerced
    "dataset-float-index": ("dataset", lambda o: _put(o[1], ["steps", 0, "index"], 0.7)),
    "dataset-float-dims": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "screen_dims"], [1080.9, 2400.9])),
    "dataset-int-instruction": ("dataset", lambda o: {**o[1], "instruction": 5}),
    "dataset-int-screen-ref": ("dataset", lambda o: _put(o[1], ["steps", 0, "screen_ref"], 5)),
    "dataset-list-reference-effect": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "reference_effect"], ["x"])),
    # a turn's effect is read stripped, so a blank one is an empty one
    "dataset-blank-reference-effect": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "reference_effect"], "   ")),
    "dataset-int-terminal-screen-ref": ("dataset", lambda o: {**o[1], "terminal_screen_ref": 7}),
    "dataset-string-box-component": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_bbox"], ["0.1", 0.1, 0.5, 0.5])),
    "samples-float-dims": ("samples", lambda o: _put(o[1], ["screen_dims"], [1080.9, 2400.9])),
    "samples-int-text": (
        "samples", lambda o: _put(o[1], ["target_action"], {"kind": "input_text", "text": 5}),
    ),
    # a number beyond the float range, or one that is not finite, is a bad line
    "dataset-huge-coordinate": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_action"], {"kind": "click", "coordinate": [10**400, 0.5]})),
    "dataset-huge-wait": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_action"], {"kind": "wait", "seconds": 10**400})),
    "dataset-nan-pixel-coordinate": ("dataset", lambda o: _put(o[1], ["steps", 0], {
        **o[1]["steps"][0], "screen_dims": [1080, 2400],
        "gt_action": {"kind": "click", "coordinate": [float("nan"), 50]},
    })),
    "traces-t-gt-infinite": ("traces", lambda o: {**o[1], "t_gt": 1e400}),
    "cases-non-object": ("cases", lambda o: "case"),
    "cases-short-box": ("cases", lambda o: {**_kind_changing_case(o), "gt_bbox": [0.1, 0.1, 0.5]}),
    "cases-one-dim": ("cases", lambda o: _put(o[1], ["screen_dims"], [5])),
    "samples-short-box": ("samples", lambda o: _put(o[1], ["target_bbox"], [0.1, 0.1, 0.5])),
    "samples-string-box": ("samples", lambda o: _put(o[1], ["target_bbox"], "0.1,0.1,0.5,0.5")),
    "samples-inverted-box": (
        "samples", lambda o: _put(o[1], ["target_bbox"], [0.9, 0.9, 0.1, 0.1]),
    ),
    "samples-zero-dims": ("samples", lambda o: _put(o[1], ["screen_dims"], [0, 0])),
    # a pixel coordinate is converted with the line's screen size, so it needs one
    "samples-pixel-target-without-dims": ("samples", lambda o: {
        **_without_dims(o[1]), "target_action": {"kind": "click", "coordinate": [317, 1190]},
    }),
    "cases-pixel-recovery-without-dims": ("cases", lambda o: {
        **_without_dims(o[1]), "gt_recovery": {"kind": "click", "coordinate": [317, 1190]},
    }),
    "outputs-non-object": ("outputs", lambda o: 5),
    "groups-no-outputs": ("groups", lambda o: _put(o[1], ["outputs"])),
    "groups-non-object": ("groups", lambda o: [1]),
    "groups-non-object-output": ("groups", lambda o: {"outputs": [5, 5]}),
    "groups-after-blank-line": ("groups", _bad_group_after_blank_line),
    # sample, case, trace, output and group values are checked, not coerced
    "samples-int-instruction": ("samples", lambda o: {**o[1], "instruction": 5}),
    "samples-list-target-effect": ("samples", lambda o: {**o[1], "target_effect": ["x"]}),
    "samples-false-failure-mode": ("samples", lambda o: {**o[1], "failure_mode": False}),
    "samples-int-history-effect": ("samples", lambda o: _put(
        o[1], ["history", 0, "expected_effect"], 5)),
    "cases-int-source-id": ("cases", lambda o: {**o[1], "source": [7, o[1]["source"][1]]}),
    "cases-float-source-step": (
        "cases", lambda o: {**o[1], "source": [o[1]["source"][0], o[1]["source"][1] + 0.5]},
    ),
    "cases-int-screen-ref": ("cases", lambda o: {**o[1], "screen_ref": 5}),
    "cases-negative-source-step": ("cases", lambda o: {**o[1], "source": [o[1]["source"][0], -1]}),
    # the probe's step needs a screen, and a failed entry cannot match its recovery
    "cases-empty-screen-ref": ("cases", lambda o: {**o[1], "screen_ref": ""}),
    "samples-type-b-failed-entry-recovers": ("samples", _type_b_recovered),
    "traces-float-t-gt": ("traces", lambda o: {**o[1], "t_gt": o[1]["t_gt"] + 0.9}),  # in range
    "traces-int-trajectory-id": ("traces", lambda o: {**o[1], "trajectory_id": 12}),
    "traces-repeated-id": ("traces", lambda o: o[0]),  # a file concatenated with itself
    "traces-issued-pairs": ("traces", lambda o: _put(
        o[1], ["attempts", 0, "issued"], list(map(list, o[1]["attempts"][0]["issued"].items())))),
    # an attempt issues nothing exactly when it predicts nothing, and then it misses
    "traces-null-issued-matched": ("traces", lambda o: _first_attempt(
        o, True, issued=None, predicted_verification=None)),
    "traces-null-issued-predicted": ("traces", lambda o: _first_attempt(o, False, issued=None)),
    "traces-issued-unpredicted": (
        "traces", lambda o: _first_attempt(o, False, predicted_verification=None),
    ),
    "dataset-int-id": ("dataset", lambda o: {**o[1], "id": 12}),
    "outputs-int-raw": ("outputs", lambda o: {"raw": 5}),
    "outputs-list-raw": ("outputs", lambda o: {"raw": ["x"]}),
    # group rewards and log-probs are finite JSON numbers
    "groups-string-reward": ("groups", lambda o: _put(o[1], ["outputs", 0, "reward"], "1.5")),
    "groups-bool-logprob": (
        "groups", lambda o: _put(o[1], ["outputs", 0, "logprobs_new"], [False]),
    ),
    "groups-nan-logprob": (
        "groups", lambda o: _put(o[1], ["outputs", 0, "logprobs_old"], [float("nan")]),
    ),
    "groups-infinite-reward": ("groups", _infinite_reward),
    # the bulk readers refuse what the per-value ones did, with the same messages
    "groups-huge-int-logprob": (
        "groups", lambda o: _put(o[1], ["outputs", 0, "logprobs_new"], [-(10**400)]),
    ),
    "groups-bool-dist-row": ("groups", lambda o: _put(o[1], ["outputs", 0, "dist_new"], [[True]])),
    "dataset-bool-box-component": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_bbox"], [True, 0.1, 0.5, 0.5])),
    "dataset-huge-box-component": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_bbox"], [10**400, 0.1, 0.5, 0.5])),
    "dataset-list-direction": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "gt_action"], {"kind": "scroll", "direction": ["up"]})),
    "samples-list-sample-type": ("samples", lambda o: {**o[1], "sample_type": ["type_a"]}),
    "samples-list-history-verification": ("samples", lambda o: _put(
        o[1], ["history", 0, "verification"], ["SUCCESS"])),
    "cases-list-mode": ("cases", lambda o: {**o[1], "mode": ["null_click"]}),
    # a pixel value divided by a screen size beyond the float range overflows
    "dataset-huge-dims": ("dataset", lambda o: _put(
        o[1], ["steps", 0, "screen_dims"], [2**1024, 2400])),
    "samples-huge-dims": ("samples", lambda o: _put(o[1], ["screen_dims"], [2**1024, 2400])),
    "cases-huge-dims": ("cases", lambda o: _put(o[1], ["screen_dims"], [2**1024, 2400])),
    "dataset-empty-screen-ref": ("dataset", lambda o: _put(o[1], ["steps", 0, "screen_ref"], "")),
    "groups-one-output": ("groups", lambda o: {"outputs": o[1]["outputs"][:1]}),
}


@pytest.mark.parametrize("case, skip_invalid", [
    *((case, False) for case in BAD_LINES),
    *((case, True) for case, (kind, _) in BAD_LINES.items() if kind == "dataset"),
])
def test_bad_record_line_is_data_error_naming_its_line(dataset, tmp_path, capsys, case, skip_invalid):
    kind, mutate = BAD_LINES[case]
    path, argv = _record_inputs(kind, tmp_path, dataset)
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    objs[1] = mutate(objs)
    path.write_bytes(b"".join(
        (o if isinstance(o, bytes) else json.dumps(o).encode()) + b"\n" for o in objs
    ))
    capsys.readouterr()
    code = main([*argv, "--skip-invalid"] if skip_invalid else argv)
    if skip_invalid:
        # the bad line is dropped and every other trajectory still runs
        assert code == EXIT_OK
        traces = (tmp_path / "out" / "traces.jsonl").read_text().splitlines()
        assert len(traces) == len(objs) - 1
    else:
        assert code == EXIT_DATA
        assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--agent", "scripted:oracle"],
    ["bench-robust", "--synthesize", "--agent", "scripted:oracle"],
    ["synth", "--kind", "sft"],
])
def test_blank_reference_effect_is_a_bad_dataset_line(tmp_path, capsys, command):
    # Each command refuses the line as it reads it; none writes the effect
    # out, and no turn fails later on an error that names no line.
    step = {
        "index": 0, "screen_ref": "s0", "gt_action": {"kind": "click", "coordinate": [0.5, 0.5]},
        "gt_bbox": [0.4, 0.4, 0.6, 0.6], "reference_effect": " \t ",
    }
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps({
        "id": "t0", "instruction": "Open the panel.", "terminal_screen_ref": "done",
        "steps": [step],
    }) + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*command, "--dataset", str(dataset), "--out", str(out)]) == EXIT_DATA
    assert "line 1: step: invalid reference_effect (must be non-empty)" in (
        capsys.readouterr().err
    )
    assert not out.exists()


# A pixel-space click: every command parses, grounds and matches it.
PIXEL_TURN = FIXED_TURN.replace("[0.5, 0.5]", "[540, 1200]")


def test_screen_size_beyond_the_float_range_is_a_bad_line(tmp_path, capsys):
    # relative values need no conversion, so only the agent's pixel click
    # would meet the size, and 540 / 2**1024 overflows: exit 1, not 3
    step = {
        "index": 0, "screen_ref": "s0", "screen_dims": [2**1024, 2400],
        "gt_action": {"kind": "click", "coordinate": [0.5, 0.5]},
        "gt_bbox": [0.4, 0.4, 0.6, 0.6], "reference_effect": "The panel opens.",
    }
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps({
        "id": "t0", "instruction": "Open the panel.", "terminal_screen_ref": "done", "steps": [step],
    }) + "\n")
    script = tmp_path / "agent.py"
    script.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        f"    sys.stdout.write({PIXEL_TURN!r} + '\\n<<<END_TURN>>>\\n')\n"
        "    sys.stdout.flush()\n"
    )
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([
        "simulate", "--dataset", str(dataset), "--agent", f"stdio:{sys.executable} {script}",
        "--out", str(out),
    ]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "line 1: " in err and "screen_dims" in err and "beyond the float range" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["parse_tvae", "normalize_action", "match_action"])
@pytest.mark.parametrize("command", ["simulate", "bench-robust", "score"])
def test_harness_bug_on_a_turn_exits_3(dataset, tmp_path, capsys, monkeypatch, command, name):
    # a bug raised while a turn is parsed, grounded or matched is neither an
    # unparseable turn nor a miss: the command exits 3 and writes nothing
    out = tmp_path / "out"
    if command == "score":
        samples, outputs, n = _write_score_inputs(tmp_path, dataset)
        outputs.write_text((json.dumps({"raw": PIXEL_TURN}) + "\n") * n)
        argv = ["score", "--samples", str(samples), "--outputs", str(outputs)]
    else:
        source = ["--synthesize"] if command == "bench-robust" else []
        argv = [command, *source, "--dataset", str(dataset)]

    def bug(*args, **kwargs):
        raise TypeError("injected harness bug")

    for module in (sim_engine, reward_engine):  # every module that binds `name`
        if hasattr(module, name):
            monkeypatch.setattr(module, name, bug)
    capsys.readouterr()
    with CountingTurnServer(body=PIXEL_TURN) as server:
        agent = [] if command == "score" else ["--agent", f"remote:{server.url}"]
        assert main([*argv, *agent, "--out", str(out)]) == EXIT_INTERNAL
    assert "internal error: injected harness bug" in capsys.readouterr().err
    assert not out.exists()


def _click(x, y):
    return ActionRecord(kind=ActionKind.CLICK, coordinate=(x, y))


@pytest.mark.parametrize("x", [1.05, 1.03])
def test_ungroundable_coordinate_never_matches_grounds_or_repeats(tmp_path, capsys, x):
    # The agent clicks (x, 0.5), a pixel coordinate, where no step, case or
    # sample gives a screen size to convert it with.  Its raw value lies
    # within DELTA of the target (0.95, 0.5) and, for x = 1.03, within the
    # repeat radius of the wrong click (1.0, 0.5); every command scores it a miss.
    turn = FIXED_TURN.replace("[0.5, 0.5]", f"[{x}, 0.5]")
    target, effect = _click(0.95, 0.5), "The panel opens."
    dataset = tmp_path / "d.jsonl"
    step = StepRecord(index=0, screen_ref="s0", gt_action=target, reference_effect=effect)
    save_dataset([TrajectoryRecord("t", "Open the panel.", (step,), "s1")], dataset)
    cases = tmp_path / "cases.jsonl"
    write_lines(cases, (
        failure_case_line(FailureCase(
            source=("t", 0), instruction="Open the panel.", screen_ref="s0",
            history=(HistoryEntry(wrong, effect, Verification.SUCCESS),),
            gt_recovery=recovery, mode=FailureMode.COORDINATE_OFFSET,
        ))
        for recovery, wrong in ((target, _click(0.2, 0.2)), (_click(0.2, 0.5), _click(1.0, 0.5)))
    ))
    samples, outputs = tmp_path / "samples.jsonl", tmp_path / "outputs.jsonl"
    write_lines(samples, [sample_line(SyntheticSample(
        sample_type=SampleType.TYPE_A, instruction="Open the panel.", input_screen_ref="s0",
        history=(), target_action=target,
        target_effect=effect,
    ))])
    write_lines(outputs, [json.dumps({"raw": turn})])
    with CountingTurnServer(body=turn) as server:
        agent = ["--agent", f"remote:{server.url}"]
        assert main([
            "simulate", "--dataset", str(dataset), *agent, "--out", str(tmp_path / "sim"),
        ]) == EXIT_OK
        assert main([
            "bench-robust", "--cases", str(cases), *agent, "--out", str(tmp_path / "bench"),
        ]) == EXIT_OK
    assert main([
        "score", "--samples", str(samples), "--outputs", str(outputs),
        "--out", str(tmp_path / "score"),
    ]) == EXIT_OK
    sim = _read_report(tmp_path / "sim")
    assert (sim["tsr"], sim["sr"], sim["gr"]) == (0.0, 0.0, 0.0)
    trace = json.loads((tmp_path / "sim" / "traces.jsonl").read_text().splitlines()[0])
    assert trace["attempts"][0]["issued"]["coordinate_space"] == "pixel"
    assert "ungroundable coordinates: " in trace["attempts"][0]["parse_warnings"][-1]
    bench = _read_report(tmp_path / "bench")
    assert (bench["lr"], bench["rsr"]) == (0.0, 0.0)
    rewards = json.loads((tmp_path / "score" / "rewards.jsonl").read_text())
    assert rewards["r_act"] == -1.0


def test_pixel_click_written_as_one_reads_back(tmp_path):
    # (1.0000001, 0.5) is a pixel coordinate that no screen size converts; the
    # trace writes it rounded to (1.0, 0.5) with its "pixel" key, and `report`
    # reads that line back
    turn = FIXED_TURN.replace("[0.5, 0.5]", "[1.0000001, 0.5]")
    dataset = tmp_path / "d.jsonl"
    step = StepRecord(
        index=0, screen_ref="s0", gt_action=_click(0.95, 0.5), reference_effect="The panel opens."
    )
    save_dataset([TrajectoryRecord("t", "Open the panel.", (step,), "s1")], dataset)
    with CountingTurnServer(body=turn) as server:
        assert main([
            "simulate", "--dataset", str(dataset), "--agent", f"remote:{server.url}",
            "--out", str(tmp_path / "sim"),
        ]) == EXIT_OK
    traces = tmp_path / "sim" / "traces.jsonl"
    issued = json.loads(traces.read_text().splitlines()[0])["attempts"][0]["issued"]
    assert issued == {"kind": "click", "coordinate": [1.0, 0.5], "coordinate_space": "pixel"}
    assert main(["report", "--traces", str(traces), "--out", str(tmp_path / "rebuilt")]) == EXIT_OK


# The input kind of the command that reads each setting flag.
SETTING_KIND = {
    "--seed": "dataset", "--budget-multiplier": "dataset",
    "--alpha": "outputs", "--beta": "outputs",
    "--eps-clip": "groups", "--kl-lambda": "groups", "--kl-estimator": "groups",
}


@pytest.mark.parametrize("config", [
    ["--seed", "x"], ["--seed", "1.5"], ["--budget-multiplier", "a"],
    ["--budget-multiplier", "0.5"], ["--budget-multiplier", "101"],
    ["--alpha", "nan"], ["--beta", "inf"], ["--alpha", "-1"], ["--beta", "x"], ["--beta", "1e999"],
    ["--eps-clip", "1"], ["--eps-clip", "0"], ["--eps-clip", "nan"],
    ["--kl-lambda", "nan"], ["--kl-lambda", "inf"], ["--kl-lambda", "-0.1"],
    ["--kl-estimator", "k9"], ["--kl-estimator", "K3"],
    ["--alpha", "1e308", "--beta", "1e308"],  # the largest total, 1 + alpha + 2 * beta, overflows
])
def test_bad_config_is_data_error(dataset, tmp_path, capsys, config):
    # a bad value of any setting, given to the command that reads it, writes nothing
    _, argv = _record_inputs(SETTING_KIND[config[0]], tmp_path, dataset)
    capsys.readouterr()
    assert main([*argv, *config]) == EXIT_DATA
    assert "data error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_grpo_config_or_env_seed_is_data_error(dataset, tmp_path, monkeypatch):
    _, argv = _record_inputs("groups", tmp_path, dataset)
    assert main([*argv, "--kl-estimator", "k9"]) == EXIT_DATA
    simulate = ["simulate", "--dataset", str(dataset), "--agent", "scripted:oracle"]
    assert main([*simulate, "--seed", "abc", "--out", str(tmp_path / "bad")]) == EXIT_DATA
    # --seed is the only source of the seed: $TVAE_SEED is not read at all
    monkeypatch.setenv("TVAE_SEED", "abc")
    assert main([*simulate, "--out", str(tmp_path / "run")]) == EXIT_OK
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["seed"] == 0


# `flags` sets a reward weight, `config` a GRPO setting read with --group-logprobs
@pytest.mark.parametrize("flags, config", [
    (["--alpha", "nan"], []), (["--beta", "inf"], []), ([], ["--kl-lambda", "nan"]),
])
def test_non_finite_score_weight_is_data_error(dataset, tmp_path, capsys, flags, config):
    _, argv = _record_inputs("groups", tmp_path, dataset)
    capsys.readouterr()
    assert main([*argv, *flags, *config]) == EXIT_DATA
    assert "data error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_score_manifest_records_group_logprobs_digest(dataset, tmp_path):
    groups, argv = _record_inputs("groups", tmp_path, dataset)
    assert main(argv) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["group_logprobs"] == str(groups)
    assert manifest["group_logprobs_sha256"] == hashlib.sha256(groups.read_bytes()).hexdigest()


def test_config_enum_values_are_parsed(dataset, tmp_path):
    groups, argv = _record_inputs("groups", tmp_path, dataset)
    lines = [json.loads(line) for line in groups.read_text().splitlines()]
    for group in lines:  # exact KL reads full per-token distributions
        for member in group["outputs"]:
            member.update(dist_new=[[0.5, 0.5]], dist_ref=[[0.25, 0.75]])
    groups.write_text("".join(json.dumps(g) + "\n" for g in lines))
    assert main([*argv, "--kl-estimator", "exact"]) == EXIT_OK
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grpo"]["kl_estimator"] == "exact"
    objective = json.loads((out / "objective.json").read_text())
    assert {g["kl_estimator"] for g in objective["groups"]} == {"exact"}


@pytest.mark.parametrize("flag, value", [
    ("--lengths", "3"), ("--lengths", "a,b"), ("--lengths", "1,2,3"), ("--lengths", "5,2"),
    ("--lengths", "0,2"), ("--count", "-2"), ("--count", "0"),
])
def test_bad_synth_dataset_flag_is_data_error(tmp_path, flag, value):
    out = tmp_path / "data"
    assert main(["synth", "--kind", "dataset", "--out", str(out), flag, value]) == EXIT_DATA
    assert not out.exists()


@pytest.mark.parametrize("kind, flags", [
    ("sft", ["--ratio-b", "2"]), ("bench", ["--per-traj", "0"]), ("sft", []),
])
def test_bad_synth_input_writes_nothing(dataset, tmp_path, kind, flags):
    if not flags:  # a bad dataset line
        dataset.write_text(dataset.read_text() + "{broken\n")
    out = tmp_path / "synth"
    assert main(["synth", "--kind", kind, "--dataset", str(dataset), "--out", str(out), *flags]) == EXIT_DATA
    assert not out.exists()


def test_synth_sft_manifest(dataset, tmp_path):
    out = tmp_path / "sft"
    assert main([
        "synth", "--kind", "sft", "--dataset", str(dataset), "--ratio-b", "0.3",
        "--seed", "11", "--out", str(out),
    ]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ratio_b"] == 0.3
    assert manifest["seed"] == 11
    assert manifest["weights"]["coordinate_offset"] == 0.30
    assert (out / "samples.jsonl").exists()


def test_synth_dataset_kind(tmp_path):
    out = tmp_path / "data"
    assert main([
        "synth", "--kind", "dataset", "--count", "5", "--lengths", "2,3",
        "--seed", "2", "--out", str(out),
    ]) == EXIT_OK
    from tvae_harness.trajectory_store import load_dataset

    trajs = load_dataset(out / "dataset.jsonl")
    assert len(trajs) == 5
    assert all(2 <= len(t) <= 3 for t in trajs)


def _write_score_inputs(tmp_path, dataset):
    sft = tmp_path / "sft"
    assert main([
        "synth", "--kind", "sft", "--dataset", str(dataset), "--ratio-b", "0.25",
        "--seed", "4", "--out", str(sft),
    ]) == EXIT_OK
    from tvae_harness.failure_forge import sample_from_json
    from tvae_harness.records import read_records

    samples = read_records(sft / "samples.jsonl", sample_from_json, "sample")
    outputs = tmp_path / "outputs.jsonl"
    with open(outputs, "w", encoding="utf-8") as fh:
        for s in samples:
            think = [ThinkSegment(ThinkTag.VERIFY, "Checked.")]
            if s.target_verification is Verification.NO_CHANGE:
                think += [
                    ThinkSegment(ThinkTag.DIAGNOSE, "Failed."),
                    ThinkSegment(ThinkTag.RECOVERY, "Retry."),
                ]
            turn = ReferenceTurn(
                think=tuple(think),
                verification=s.target_verification,
                action=s.target_action,
                expected_effect=s.target_effect,
            )
            fh.write(json.dumps({"raw": emit_checked(turn)}) + "\n")
    return sft / "samples.jsonl", outputs, len(samples)


def test_score_perfect_outputs(dataset, tmp_path):
    samples_path, outputs_path, n = _write_score_inputs(tmp_path, dataset)
    out = tmp_path / "scored"
    assert main([
        "score", "--samples", str(samples_path), "--outputs", str(outputs_path),
        "--out", str(out),
    ]) == EXIT_OK
    rows = [json.loads(l) for l in (out / "rewards.jsonl").read_text().splitlines()]
    assert len(rows) == n
    assert all(r["r_ver"] == 1.0 for r in rows)
    assert all(r["total"] == 2.0 for r in rows)


def test_score_alignment_mismatch(dataset, tmp_path):
    samples_path, outputs_path, n = _write_score_inputs(tmp_path, dataset)
    clipped = tmp_path / "short.jsonl"
    lines = outputs_path.read_text().splitlines()[:-1]
    clipped.write_text("\n".join(lines) + "\n")
    assert main([
        "score", "--samples", str(samples_path), "--outputs", str(clipped),
        "--out", str(tmp_path / "x"),
    ]) == EXIT_DATA


def test_score_with_group_logprobs(dataset, tmp_path):
    samples_path, outputs_path, n = _write_score_inputs(tmp_path, dataset)
    group_size = 2
    usable = (n // group_size) * group_size
    samples_lines = samples_path.read_text().splitlines()[:usable]
    outputs_lines = outputs_path.read_text().splitlines()[:usable]
    sp = tmp_path / "samples_cut.jsonl"
    op = tmp_path / "outputs_cut.jsonl"
    sp.write_text("\n".join(samples_lines) + "\n")
    op.write_text("\n".join(outputs_lines) + "\n")
    gp = tmp_path / "groups.jsonl"
    with open(gp, "w") as fh:
        for _ in range(usable // group_size):
            outs = [
                {"logprobs_new": [-0.5, -0.3], "logprobs_old": [-0.5, -0.3],
                 "logprobs_ref": [-0.5, -0.3]}
                for _ in range(group_size)
            ]
            fh.write(json.dumps({"outputs": outs}) + "\n")
    out = tmp_path / "scored"
    assert main([
        "score", "--samples", str(sp), "--outputs", str(op),
        "--group-logprobs", str(gp), "--out", str(out),
    ]) == EXIT_OK
    payload = json.loads((out / "objective.json").read_text())
    # equal rewards within each group: zero advantages, theta = ref: zero KL
    assert payload["mean_objective"] == 0.0


_PLAIN = {"logprobs_new": [-0.5], "logprobs_old": [-0.5], "logprobs_ref": [-0.5]}


def _pair(wide):
    """A group of a plain output of reward 1 and `wide` of reward 0."""
    return [{**_PLAIN, "reward": 1.0}, {**wide, "reward": 0.0}]


def _write_groups(tmp_path, n, groups):
    """A group file: one group of plain outputs covering the rest of the `n`
    scored outputs, then `groups`."""
    lines = [{"outputs": [_PLAIN] * (n - sum(map(len, groups)))}]
    lines += [{"outputs": g} for g in groups]
    path = tmp_path / "groups.jsonl"
    path.write_text("".join(json.dumps(g) + "\n" for g in lines))
    return path


@pytest.mark.parametrize("wide", [
    # the k3 term of the second output, exp(800) - 1 - 800, is beyond the float range
    {"logprobs_new": [-800.0], "logprobs_old": [-800.0], "logprobs_ref": [0.0]},
    # the second output's ratio, exp(800), is beyond the float range: its surrogate is -inf
    {"logprobs_new": [0.0], "logprobs_old": [-800.0], "logprobs_ref": [0.0]},
], ids=["k3-term", "ratio"])
def test_score_refuses_an_objective_beyond_the_float_range(dataset, tmp_path, capsys, wide):
    samples, outputs, n = _write_score_inputs(tmp_path, dataset)
    path = _write_groups(tmp_path, n, [_pair(wide)])
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([
        "score", "--samples", str(samples), "--outputs", str(outputs),
        "--group-logprobs", str(path), "--out", str(out),
    ]) == EXIT_DATA
    assert "group 2: objective is not finite (-inf)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("groups, objective", [
    # each wide group's objective is about -4.1e307 (a ratio of exp(709)); five of them
    # sum beyond the float range, but their mean with the plain group's does not
    ([_pair({"logprobs_new": [0.0], "logprobs_old": [-709.0], "logprobs_ref": [0.0]})] * 5,
     -4.109e307),
    # the second output's two terms, about -1.65e308 each (a ratio of exp(709.7)),
    # sum beyond the float range, but their mean does not
    ([_pair({"logprobs_new": [0.0, 0.0], "logprobs_old": [-709.7] * 2, "logprobs_ref": [0.0] * 2})],
     -8.27e307),
    # the residual -1.7e308 - 2.5e307 is beyond the float range; the advantages are not
    ([[{**_PLAIN, "reward": r} for r in (1.7e308, -1.7e308, 0.0, 1e308)]], 0.0),
], ids=["objectives", "surrogate-terms", "residual"])
def test_score_writes_the_finite_objective_of_values_whose_sums_overflow(
    dataset, tmp_path, groups, objective
):
    samples, outputs, n = _write_score_inputs(tmp_path, dataset)
    path = _write_groups(tmp_path, n, groups)
    out = tmp_path / "out"
    assert main([
        "score", "--samples", str(samples), "--outputs", str(outputs),
        "--group-logprobs", str(path), "--out", str(out),
    ]) == EXIT_OK
    payload = json.loads((out / "objective.json").read_text())
    reports = payload["groups"][1:]
    assert len(reports) == len(groups)
    for group, report in zip(groups, reports):
        rewards = [o["reward"] for o in group]
        assert max(reference_grpo.advantage_errors(rewards, report["advantages"])) <= 1.0
        assert report["objective"] == pytest.approx(objective, rel=1e-3, abs=1e-9)
    objectives = [g["objective"] for g in payload["groups"]]
    exact = float(sum(map(Fraction, objectives)) / len(objectives))
    assert payload["mean_objective"] == pytest.approx(exact, rel=1e-15)


# Modules that load only in a command that runs them: the agent transports'
# stdlib stacks, the thread pool, logging of dropped lines, numpy (never) and
# the two package modules only one command uses.
LAZY_MODULES = {
    "socket", "http.client", "ssl", "email.parser", "subprocess", "concurrent.futures",
    "logging", "numpy", "tvae_harness.grpo_core", "tvae_harness.synthdata",
}
# case -> the input kind of `_record_inputs`, or an argv that reads the
# `dataset` fixture in place of DATASET; and the lazy modules that case runs
DATASET = "<dataset>"
IMPORT_CASES = {
    "import-cli": (None, set()),
    "simulate": ("dataset", set()),
    # a scripted agent takes one turn at a time, whatever --workers allows
    "simulate-scripted-workers": (
        ["simulate", "--dataset", DATASET, "--agent", "scripted:oracle", "--workers", "4"], set(),
    ),
    "synth-sft": (["synth", "--kind", "sft", "--dataset", DATASET], set()),
    "synth-dataset": (["synth", "--kind", "dataset"], {"tvae_harness.synthdata"}),
    "bench-robust-synthesize": (
        ["bench-robust", "--synthesize", "--dataset", DATASET, "--agent", "scripted:loopy"], set(),
    ),
    "score": ("outputs", set()),
    "score-group-logprobs": ("groups", {"tvae_harness.grpo_core"}),
    "report": ("traces", set()),
}


def _modules_after(source: str) -> tuple[str, set[str]]:
    """Run `source` in a fresh interpreter; the exit code it binds to `code`
    and every module loaded once it has run."""
    src_dir = str(Path(tvae_harness.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\ncode = 0\n{source}\nprint(code, *sys.modules)\n"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    code, *modules = done.stdout.splitlines()[-1].split()
    return code, set(modules)


def test_module_run_as_a_script_exits_with_the_code_of_main(tmp_path):
    # the one line no in-process test can run: `sys.exit(main())`
    missing = tmp_path / "none.jsonl"
    src_dir = str(Path(tvae_harness.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "tvae_harness.cli", "report", "--traces", str(missing)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == EXIT_DATA
    assert done.stderr == f"data error: [Errno 2] No such file or directory: {str(missing)!r}\n"


@pytest.fixture(scope="module")
def baseline_modules():
    """What `python -c pass` loads here (`site` may import more on some hosts)."""
    return _modules_after("")[1]


@pytest.mark.parametrize("case", list(IMPORT_CASES))
def test_each_command_loads_only_the_modules_it_runs(dataset, tmp_path, baseline_modules, case):
    inputs, runs = IMPORT_CASES[case]
    if inputs is None:
        source = "import tvae_harness.cli"
    else:
        if isinstance(inputs, str):
            _, argv = _record_inputs(inputs, tmp_path, dataset)
        else:
            argv = [str(dataset) if a == DATASET else a for a in inputs]
            argv += ["--out", str(tmp_path / "out")]
        source = f"from tvae_harness.cli import main\ncode = main({argv!r})"
    exit_code, modules = _modules_after(source)
    assert exit_code == str(EXIT_OK)
    assert (modules - baseline_modules) & LAZY_MODULES == runs


def test_remote_turn_loads_socket_only(baseline_modules):
    # a turn over plain HTTP needs neither `http.client`, `email.*` nor `ssl`
    with CountingTurnServer() as server:
        _, modules = _modules_after(
            "import random\n"
            "from tvae_harness.agent_bus import Observation, RemoteAgent\n"
            f"agent = RemoteAgent({server.url!r}, timeout=5)\n"
            "obs = Observation('Open it.', 's0', (), 1)\n"
            "assert agent.turn(obs, None, lambda: random.Random(0))\n"
            "agent.close()"
        )
        assert server.requests == 1
    assert not {"http.client", "email.parser", "ssl"} & modules
    assert (modules - baseline_modules) & LAZY_MODULES == {"socket"}


def test_report_command(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    assert main([
        "simulate", "--dataset", str(dataset), "--agent", "scripted:failk:1",
        "--out", str(run), "--seed", "2",
    ]) == EXIT_OK
    capsys.readouterr()  # drop the simulate summary
    assert main(["report", "--traces", str(run / "traces.jsonl"), "--format", "csv"]) == EXIT_OK
    captured = capsys.readouterr().out
    assert captured.splitlines()[0] == "tm,gr,sr,tsr,pg,sim_tsr,aso,lr,rsr"


@pytest.mark.parametrize("agent", [
    "oracle", "loopy", "failk:1", "bernoulli:0.5", "offset_then_correct",
])
def test_report_reproduces_the_task_part_of_a_simulate_report(dataset, tmp_path, agent):
    # `simulate` and `report` build the task part on one path
    run = tmp_path / "run"
    assert main([
        "simulate", "--dataset", str(dataset), "--agent", f"scripted:{agent}",
        "--out", str(run), "--seed", "4", "--workers", "2",
    ]) == EXIT_OK
    rebuilt = tmp_path / "report.json"
    assert main(["report", "--traces", str(run / "traces.jsonl"), "--out", str(rebuilt)]) == EXIT_OK
    simulated, reported = _read_report(run), json.loads(rebuilt.read_text())
    for key in ("tsr", "pg", "sim_tsr", "aso"):
        assert reported[key] == simulated[key]
    for key in ("tasks", "completed_tasks"):
        assert reported["counts"][key] == simulated["counts"][key]


def test_simulate_with_stdio_agent(dataset, tmp_path):
    turn = (
        "<think>\\n[Verify] Looking.\\n[Action] click.\\n</think>\\n"
        "<verification>SUCCESS</verification>\\n"
        '<action>{\\"action\\": \\"navigate_back\\"}</action>\\n'
        "<expected_effect>Back we go.</expected_effect>"
    )
    script = tmp_path / "agent.py"
    script.write_text(
        "import json, sys\n"
        f'turn = "{turn}"\n'
        "for line in sys.stdin:\n"
        "    json.loads(line)\n"
        "    sys.stdout.write(turn + '\\n<<<END_TURN>>>\\n')\n"
        "    sys.stdout.flush()\n"
    )
    out = tmp_path / "run"
    code = main([
        "simulate", "--dataset", str(dataset),
        "--agent", f"stdio:{sys.executable} {script}",
        "--out", str(out), "--seed", "1",
    ])
    assert code == EXIT_OK
    report = _read_report(out)
    assert report["sim_tsr"] is not None
    assert (out / "traces.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["agent"].startswith("stdio:")


def test_commands_do_not_mutate_inputs(dataset, tmp_path):
    before = dataset.read_bytes()
    main([
        "simulate", "--dataset", str(dataset), "--agent", "scripted:oracle",
        "--out", str(tmp_path / "r"),
    ])
    assert dataset.read_bytes() == before


@pytest.mark.parametrize("group_logprobs", [False, True])
def test_score_empty_inputs_is_data_error(tmp_path, group_logprobs):
    argv = ["score", "--out", str(tmp_path / "out")]
    for flag in ("--samples", "--outputs", *(("--group-logprobs",) if group_logprobs else ())):
        path = tmp_path / f"{flag[2:]}.jsonl"
        path.write_text("")
        argv += [flag, str(path)]
    assert main(argv) == EXIT_DATA
    assert not (tmp_path / "out").exists()


def _blank_dataset(tmp_path, dataset):
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n  \n\t\n")
    argv = ["simulate", "--dataset", str(blank), "--agent", "scripted:oracle"]
    return argv, "dataset is empty"


def _short_groups(tmp_path, dataset):
    samples, outputs, n = _write_score_inputs(tmp_path, dataset)
    groups = tmp_path / "groups.jsonl"
    logprobs = {f"logprobs_{k}": [-0.5, -0.3] for k in ("new", "old", "ref")}
    groups.write_text(json.dumps({"outputs": [logprobs, logprobs]}) + "\n")
    argv = [
        "score", "--samples", str(samples), "--outputs", str(outputs),
        "--group-logprobs", str(groups),
    ]
    return argv, f"group log-probs cover 2 outputs but {n} were scored"


def _empty_traces(tmp_path, dataset):
    traces = tmp_path / "traces.jsonl"
    traces.write_text("")
    return ["report", "--traces", str(traces)], "no traces"


def _empty_screen_ref(tmp_path, dataset):
    lines = dataset.read_text().splitlines()
    lines[2] = json.dumps(_put(json.loads(lines[2]), ["steps", 1, "screen_ref"], ""))
    dataset.write_text("\n".join(lines) + "\n")
    argv = ["simulate", "--dataset", str(dataset), "--agent", "scripted:oracle"]
    return argv, "line 3: step: invalid screen_ref (must be non-empty)"


def _one_output_group(tmp_path, dataset):
    argv, _ = _short_groups(tmp_path, dataset)  # its groups file is replaced
    logprobs = {f"logprobs_{k}": [-0.5] for k in ("new", "old", "ref")}
    (tmp_path / "groups.jsonl").write_text("\n" + json.dumps({"outputs": [logprobs]}) + "\n")
    return argv, "line 2: group of 1; need >= 2"


def _synth_bench_blank_dataset(tmp_path, dataset):
    argv, _ = _blank_dataset(tmp_path, dataset)
    return ["synth", "--kind", "bench", "--dataset", argv[2]], "no trajectories"


def _simulate_flags(message, *flags):
    """A simulate run of the fixture dataset with `flags` after its own."""
    def case(tmp_path, dataset):
        return ["simulate", "--dataset", str(dataset), "--agent", "scripted:oracle", *flags], message
    return case


@pytest.mark.parametrize("case", [
    _blank_dataset,
    lambda tmp_path, dataset: (
        ["bench-robust", "--synthesize", "--agent", "scripted:oracle"],
        "--synthesize requires --dataset",
    ),
    lambda tmp_path, dataset: (["synth", "--kind", "sft"], "synth sft/bench requires --dataset"),
    _short_groups,
    _empty_traces,
    _empty_screen_ref,
    _one_output_group,
    _simulate_flags(
        "tvae-harness simulate: argument --timeout: must be a number > 0 and <= 1000000",
        "--timeout", "abc",
    ),
    _simulate_flags("agent: invalid variant (bogus)", "--agent", "scripted:bogus"),
    _simulate_flags("agent: invalid spec", "--agent", ""),
    _synth_bench_blank_dataset,
    _simulate_flags(
        "tvae-harness simulate: argument --timeout: must be a number > 0 and <= 1000000",
        "--timeout", "3e6",
    ),
    _simulate_flags("agent: invalid spec ('stdio:   ': no command)", "--agent", "stdio:   "),
    _simulate_flags(
        "agent: invalid spec (\"stdio:'x\": No closing quotation)", "--agent", "stdio:'x",
    ),
    lambda tmp_path, dataset: (  # refused before the (missing) inputs are read
        ["score", "--samples", str(tmp_path / "none"), "--outputs", str(tmp_path / "none"),
         "--alpha", "1e308", "--beta", "1e308"],
        "reward_config: invalid alpha/beta (>= 0, 1 + alpha + 2 * beta finite)",
    ),
], ids=["simulate-blank-dataset", "bench-robust-no-dataset", "synth-sft-no-dataset",
        "score-groups-cover-too-few", "report-empty-traces", "dataset-empty-screen-ref",
        "score-one-output-group", "timeout-not-a-number", "agent-unknown-variant",
        "agent-empty-spec", "synth-bench-blank-dataset", "timeout-too-large",
        "agent-stdio-no-command", "agent-stdio-unclosed-quote", "score-total-overflows"])
def test_input_errors_exit_1_with_their_message(dataset, tmp_path, capsys, case):
    argv, message = case(tmp_path, dataset)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == EXIT_DATA
    head, _, err = capsys.readouterr().err.rpartition("data error: ")
    assert err == f"{message}\n"
    if message.startswith("tvae-harness "):  # a usage error prints the usage first
        assert head.startswith(f"usage: {message.split(':')[0]} ")
    else:
        assert head == ""
    assert not out.exists()


@pytest.mark.parametrize("mutation", ["bad-group-line", "kl-lambda-nan", "grpo-group-size"])
def test_score_checks_every_input_before_writing(dataset, tmp_path, capsys, mutation):
    groups, argv = _record_inputs("groups", tmp_path, dataset)
    flags = {
        "kl-lambda-nan": ["--kl-lambda", "nan"],
        "grpo-group-size": ["--group-size", "6"],  # a group is as large as its line
    }.get(mutation, [])
    if mutation == "bad-group-line":
        groups.write_text(groups.read_text() + json.dumps({"outputs": [5, 5]}) + "\n")
    capsys.readouterr()
    assert main([*argv, *flags]) == EXIT_DATA
    assert "data error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("transport", ["remote", "stdio"])
def test_flooding_agent_exits_2_at_the_turn_cap(dataset, tmp_path, capsys, transport):
    # an HTTP reply announcing 2 MiB, or a stdio line without end, stops at
    # MAX_TURN_BYTES (1 MiB) instead of being buffered whole
    script = tmp_path / "agent.py"
    script.write_text(
        "import sys\n"
        "sys.stdin.readline()\n"
        "while True:\n"
        "    sys.stdout.write('flood ' * 10000)\n"
    )
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2097152\r\n\r\n"
    out = tmp_path / "run"
    with ScriptedReplyServer(reply, stream=True) as server:
        agent = f"remote:{server.url}" if transport == "remote" else f"stdio:{sys.executable} {script}"
        capsys.readouterr()
        started = time.monotonic()
        code = main([
            "simulate", "--dataset", str(dataset), "--agent", agent, "--out", str(out),
            "--timeout", "5",
        ])
        elapsed = time.monotonic() - started
    assert code == EXIT_AGENT
    assert "MAX_TURN_BYTES (1048576 bytes)" in capsys.readouterr().err
    assert elapsed < 5
    assert not out.exists()


def test_stdio_agent_that_cannot_be_spawned_exits_2(dataset, tmp_path, capsys):
    missing = tmp_path / "no-such-agent"
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([
        "simulate", "--dataset", str(dataset), "--agent", f"stdio:{missing} --flag",
        "--out", str(out),
    ]) == EXIT_AGENT
    assert capsys.readouterr().err == (
        f"agent error: cannot spawn [{str(missing)!r}, '--flag']: "
        f"[Errno 2] No such file or directory: {str(missing)!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("output", ["", "<think>\n[Verify] Half a turn"], ids=["silent", "half-turn"])
def test_stdio_agent_that_stalls_exits_2_at_the_timeout(dataset, tmp_path, capsys, output):
    # the agent reads the request, writes `output` (no sentinel line) and
    # sleeps far past --timeout
    pid_file = tmp_path / "agent.pid"
    script = tmp_path / "agent.py"
    script.write_text(
        "import os, pathlib, sys, time\n"
        f"pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\n"
        "sys.stdin.readline()\n"
        f"sys.stdout.write({output!r})\n"
        "sys.stdout.flush()\n"
        "time.sleep(100)\n"
    )
    out = tmp_path / "run"
    capsys.readouterr()
    started = time.monotonic()
    code = main([
        "simulate", "--dataset", str(dataset), "--agent", f"stdio:{sys.executable} {script}",
        "--out", str(out), "--timeout", "1",
    ])
    elapsed = time.monotonic() - started
    assert code == EXIT_AGENT
    assert "stdio agent timed out (no complete turn within 1 s)" in capsys.readouterr().err
    assert elapsed < 10
    assert not out.exists()
    with pytest.raises(ProcessLookupError):  # close() reaped the agent
        os.kill(int(pid_file.read_text()), 0)


def test_stdio_agent_non_utf8_output_is_an_unparseable_turn(dataset, tmp_path):
    script = tmp_path / "agent.py"
    script.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    sys.stdout.buffer.write(b'\\xff\\xfe not a turn\\n<<<END_TURN>>>\\n')\n"
        "    sys.stdout.flush()\n"
    )
    out = tmp_path / "run"
    assert main([
        "simulate", "--dataset", str(dataset), "--agent", f"stdio:{sys.executable} {script}",
        "--out", str(out),
    ]) == EXIT_OK
    attempts = [
        a for line in (out / "traces.jsonl").read_text().splitlines()
        for a in json.loads(line)["attempts"]
    ]
    assert attempts
    for a in attempts:
        assert a["issued"] is None
        assert any(w.startswith("unparseable turn") for w in a["parse_warnings"])


# -- the option surface -------------------------------------------------------------

FLAGS = {
    "simulate": {
        "--dataset", "--agent", "--out", "--formats", "--seed", "--workers",
        "--limit", "--skip-invalid", "--timeout", "--token", "--budget-multiplier",
    },
    "bench-robust": {
        "--cases", "--synthesize", "--dataset", "--per-traj", "--agent", "--out",
        "--seed", "--workers", "--limit", "--skip-invalid", "--timeout", "--token",
    },
    "synth": {
        "--kind", "--dataset", "--out", "--ratio-b", "--per-traj", "--count", "--lengths",
        "--seed", "--limit", "--skip-invalid",
    },
    "score": {
        "--samples", "--outputs", "--group-logprobs", "--out", "--alpha", "--beta",
        "--eps-clip", "--kl-lambda", "--kl-estimator",
    },
    "report": {"--traces", "--format", "--out"},
}


def _registered_flags():
    (sub,) = [a for a in build_parser()._actions if a.choices and "report" in a.choices]
    return {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def test_each_command_registers_exactly_the_flags_it_reads():
    got = _registered_flags()
    assert got == FLAGS
    assert sum(map(len, got.values())) == 45


def test_readme_names_only_registered_flags():
    # a stale flag in the docs (one a command no longer takes) fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    install = readme.index("## Installation")
    readme = readme[:install] + readme[readme.index("\n## ", install + 1):]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme))
    assert named, "the README names no flag"
    assert named - set().union(*_registered_flags().values()) - {"--help", "--version"} == set()


# The settings each command reads, by config section, and the fields of each section.
CONFIG_KEYS = {
    "simulate": {"seed", "sim"},
    "bench-robust": {"seed"},
    "synth": {"seed"},
    "score": {"reward"},
    "score --group-logprobs": {"reward", "grpo"},
}
SECTION_FIELDS = {
    "sim": {"budget_multiplier"},
    "reward": {"alpha", "beta"},
    "grpo": {"eps_clip", "kl_lambda", "kl_estimator"},
}


def test_config_sections_hold_exactly_the_settable_fields():
    got = {
        name: {f.name for f in fields(cls)} - {"seed"}  # the seed is a flag of its own
        for name, cls in (("sim", SimConfig), ("reward", RewardConfig), ("grpo", GrpoConfig))
    }
    assert got == SECTION_FIELDS
    assert sum(map(len, got.values())) == 6


@pytest.mark.parametrize("key", ["seed", "sim", "reward", "grpo"])
@pytest.mark.parametrize("command", list(CONFIG_KEYS))
def test_each_command_reads_exactly_its_config_keys(dataset, tmp_path, capsys, command, key):
    # every field of a section is one flag, taken only by a command that reads the section
    kind = {"simulate": "dataset", "bench-robust": "cases", "score": "outputs",
            "score --group-logprobs": "groups"}.get(command)
    if kind is None:
        argv = ["synth", "--kind", "dataset", "--count", "2", "--out", str(tmp_path / "out")]
    else:
        _, argv = _record_inputs(kind, tmp_path, dataset)
    for field in sorted({**SECTION_FIELDS, "seed": {"seed"}}[key]):
        flag = "--" + field.replace("_", "-")
        value = {"seed": "4", "budget_multiplier": "3", "kl_estimator": "k3"}.get(field, "0.1")
        capsys.readouterr()
        code = main([*argv, flag, value])
        if key in CONFIG_KEYS[command]:
            assert code == EXIT_OK
        else:
            assert code == EXIT_DATA
            err = capsys.readouterr().err
            assert f"does not read {flag}" in err or f"unrecognized arguments: {flag}" in err
            assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, extra", [
    ("sft", ["--count", "5"]), ("sft", ["--lengths", "2,3"]), ("sft", ["--per-traj", "9"]),
    ("dataset", ["--dataset", "D"]), ("dataset", ["--ratio-b", "0.9"]),
    ("dataset", ["--limit", "3"]), ("dataset", ["--skip-invalid"]),
    ("dataset", ["--per-traj", "1"]),
    ("bench", ["--ratio-b", "0.5"]), ("bench", ["--ratio-b", "0"]), ("bench", ["--count", "5"]),
    ("cases", ["--dataset", "D"]), ("cases", ["--per-traj", "7"]), ("cases", ["--limit", "2"]),
    ("cases", ["--skip-invalid"]),
])
def test_flag_of_another_mode_is_data_error(dataset, tmp_path, capsys, mode, extra):
    # a synth --kind, or bench-robust --cases, takes no flag that only another mode reads
    out = tmp_path / "out"
    if mode == "cases":
        _, argv = _record_inputs("cases", tmp_path, dataset)
    elif mode == "dataset":
        argv = ["synth", "--kind", "dataset", "--count", "2", "--out", str(out)]
    else:
        argv = ["synth", "--kind", mode, "--dataset", str(dataset), "--out", str(out)]
    extra = [str(dataset) if v == "D" else v for v in extra]
    capsys.readouterr()
    assert main([*argv, *extra]) == EXIT_DATA
    assert f"does not read {extra[0]}" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == EXIT_OK  # the flag was the only problem
    if mode == "cases":  # no case was synthesized
        assert "per_traj" not in json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("kind, extra", [
    ("outputs", ["--workers", "2"]),  # score reads neither
    ("outputs", ["--seed", "1"]),
    (None, ["--timeout", "5"]),  # synth --kind dataset
    ("dataset", ["--workers", "abc"]),  # simulate
    ("dataset", ["--agent"]),  # no value
    ("dataset", ["--formats", "pdf"]),
    ("dataset", ["--limit", "0"]),
    ("cases", ["--synthesize"]),  # bench-robust takes --cases or --synthesize
    ("dataset", ["--delta", "0.3"]), ("dataset", ["--repeat-epsilon", "0.1"]),  # removed flags
    ("outputs", ["--delta", "0.3"]), ("cases", ["--delta", "0.3"]),
    ("cases", ["--repeat-epsilon", "0.1"]), ("cases", ["--budget-multiplier", "9"]),
    # settings come from flags alone: no command takes a config file
    ("dataset", ["--config", "c.json"]), ("cases", ["--config", "c.json"]),
    (None, ["--config", "c.json"]), ("outputs", ["--config", "c.json"]),
    ("groups", ["--config", "c.json"]), ("traces", ["--config", "c.json"]),
])
def test_usage_error_is_data_error(dataset, tmp_path, capsys, kind, extra):
    if kind is None:
        argv = ["synth", "--kind", "dataset", "--out", str(tmp_path / "out")]
    else:
        _, argv = _record_inputs(kind, tmp_path, dataset)
    capsys.readouterr()
    assert main([*argv, *extra]) == EXIT_DATA
    assert "data error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(argv) == EXIT_OK  # the flag was the only problem


SIMULATE = ["simulate", "--agent", "scripted:oracle"]


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["report"], ["report", "--traces"],
    # A path the OS refuses: a directory as an input file, --out on or under a file.
    [*SIMULATE, "--dataset", "{dir}", "--out", "{new}"],
    ["bench-robust", "--cases", "{dir}", "--agent", "scripted:oracle", "--out", "{new}"],
    ["score", "--samples", "{dir}", "--outputs", "{dataset}", "--out", "{new}"],
    ["report", "--traces", "{dir}"],
    [*SIMULATE, "--dataset", "{dataset}", "--out", "{dataset}"],
    [*SIMULATE, "--dataset", "{dataset}", "--out", "{dataset}/run"],
    ["synth", "--kind", "dataset", "--out", "{dataset}"],
    ["report", "--traces", "{traces}", "--out", "{dir}"],
])
def test_bad_command_line_is_data_error(argv, dataset, tmp_path, capsys):
    paths = {"dir": tmp_path / "dir", "new": tmp_path / "new", "dataset": dataset}
    paths["dir"].mkdir()
    if "{traces}" in argv:
        paths["traces"], _ = _record_inputs("traces", tmp_path, dataset)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([arg.format_map(paths) for arg in argv]) == EXIT_DATA
    assert "data error: " in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["score", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_manifest_config_records_every_settable_value(dataset, tmp_path):
    _, argv = _record_inputs("groups", tmp_path, dataset)
    assert main([*argv, "--alpha", "0.25", "--kl-estimator", "k3"]) == EXIT_OK
    config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert {name: set(section) for name, section in config.items()} == {
        name: SECTION_FIELDS[name] for name in CONFIG_KEYS["score --group-logprobs"]
    }
    assert config["reward"] == {"alpha": 0.25, "beta": 0.5}
    assert config["grpo"] == {"eps_clip": 0.2, "kl_lambda": 0.05, "kl_estimator": "k3"}


@pytest.mark.parametrize("argv, outputs", [
    (["simulate", "--agent", "scripted:oracle", "--formats", "csv", "markdown", "csv"],
     ["traces.jsonl", "report.json", "report.csv", "report.md"]),
    (["synth", "--kind", "sft"], ["samples.jsonl"]),
    (["synth", "--kind", "bench"], ["cases.jsonl"]),
    (["bench-robust", "--synthesize", "--agent", "scripted:oracle"],
     ["cases.jsonl", "case_results.jsonl", "report.json"]),
])
def test_manifest_records_every_flag_that_shapes_an_output(dataset, tmp_path, argv, outputs):
    out = tmp_path / "out"
    assert main([*argv, "--dataset", str(dataset), "--limit", "5", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["limit"], manifest["skip_invalid"]) == (5, False)
    assert manifest["outputs"] == outputs
    assert all((out / name).is_file() for name in outputs)


def _manifest_runs(dataset, tmp_path):
    """The manifest of one seeded run of each output-writing mode, with the
    tmp path in its values written `<tmp>` and the version `<version>`."""
    runs = tmp_path / "runs"
    common = ["--dataset", str(dataset), "--seed", "3", "--limit", "6"]
    argvs = {
        "simulate": [
            "simulate", *common, "--skip-invalid", "--agent", "scripted:oracle",
            "--formats", "csv", "markdown",
        ],
        "bench-robust --synthesize": ["bench-robust", "--synthesize", *common, "--agent", "scripted:loopy"],
        "synth --kind dataset": ["synth", "--kind", "dataset", "--count", "3", "--seed", "3"],
        "synth --kind sft": ["synth", "--kind", "sft", *common],
        "synth --kind bench": ["synth", "--kind", "bench", *common],
    }
    argvs["bench-robust --cases"] = [
        "bench-robust", "--cases", str(runs / "synth --kind bench" / "cases.jsonl"),
        "--agent", "scripted:oracle",
    ]
    _, score = _record_inputs("groups", tmp_path, dataset)
    argvs["score --group-logprobs"] = score[:score.index("--out")] + score[-2:]
    argvs["score"] = score[:score.index("--out")]
    views = {}
    for mode, argv in argvs.items():
        assert main([*argv, "--out", str(runs / mode)]) == EXIT_OK
        manifest = json.loads((runs / mode / "manifest.json").read_text())
        assert manifest["version"] == tvae_harness.__version__
        views[mode] = {
            key: "<version>" if key == "version"
            else value.replace(str(tmp_path), "<tmp>") if isinstance(value, str) else value
            for key, value in manifest.items()
        }
    return views


# The manifest of each mode that `_manifest_runs` runs: its keys in order and
# their values.  `outputs` is every file the run wrote, in order, and the last key.
_DATASET_KEYS = {
    "dataset": "<tmp>/dataset.jsonl",
    "dataset_sha256": "d02574a35f2e4cf7ebc206a27b98f0170cc2d23a1521178ca897a4cc2aaa7186",
    "limit": 6,
}
_WEIGHTS = {
    "coordinate_offset": 0.3, "action_type_error": 0.25, "target_misidentification": 0.2,
    "timing_error": 0.15, "null_click": 0.1,
}
_CASES_SHA256 = "a66458764616bd63684efcf382ab48db72ee5798d7198e4ad9fe3304e0a3d305"
_SCORE_KEYS = {
    "command": "score",
    "version": "<version>",
    "samples": "<tmp>/sft/samples.jsonl",
    "samples_sha256": "e61025208be98a14614bdf3371ee66cafaf41f37bd4193bd1af1c3ce6aa881a7",
    "outputs_file": "<tmp>/outputs.jsonl",
    "outputs_sha256": "c2bf4a7bdcd7919333985fcd5f9dfb5250f10de8e38cc9d283fa3ecb10f25e56",
}
PINNED_MANIFESTS = {
    "simulate": {
        "command": "simulate", "version": "<version>", "seed": 3, "workers": 1,
        "agent": "scripted:oracle", **_DATASET_KEYS, "skip_invalid": True,
        "config": {"sim": {"budget_multiplier": 2.0}},
        "outputs": ["traces.jsonl", "report.json", "report.csv", "report.md"],
    },
    "bench-robust --synthesize": {
        "command": "bench-robust", "version": "<version>", "seed": 3, "agent": "scripted:loopy",
        "cases": "cases.jsonl", "cases_sha256": _CASES_SHA256, "synthesized": True,
        **_DATASET_KEYS, "skip_invalid": False, "per_traj": 1,
        "outputs": ["cases.jsonl", "case_results.jsonl", "report.json"],
    },
    "synth --kind dataset": {
        "command": "synth", "version": "<version>", "kind": "dataset", "seed": 3,
        "count": 3, "lengths": [1, 8], "outputs": ["dataset.jsonl"],
    },
    "synth --kind sft": {
        "command": "synth", "version": "<version>", "kind": "sft", "seed": 3,
        **_DATASET_KEYS, "skip_invalid": False, "ratio_b": 0.3, "weights": _WEIGHTS,
        "sample_count": 21, "outputs": ["samples.jsonl"],
    },
    "synth --kind bench": {
        "command": "synth", "version": "<version>", "kind": "bench", "seed": 3,
        **_DATASET_KEYS, "skip_invalid": False, "per_traj": 1, "weights": _WEIGHTS,
        "case_count": 6, "outputs": ["cases.jsonl"],
    },
    "bench-robust --cases": {
        "command": "bench-robust", "version": "<version>", "seed": 0, "agent": "scripted:oracle",
        "cases": "<tmp>/runs/synth --kind bench/cases.jsonl", "cases_sha256": _CASES_SHA256,
        "synthesized": False, "outputs": ["case_results.jsonl", "report.json"],
    },
    "score --group-logprobs": {
        **_SCORE_KEYS,
        "config": {
            "reward": {"alpha": 0.5, "beta": 0.5},
            "grpo": {"eps_clip": 0.2, "kl_lambda": 0.05, "kl_estimator": "k3"},
        },
        "group_logprobs": "<tmp>/groups.jsonl",
        "group_logprobs_sha256": "0a55aa29f69435a04232621f8891a3ac94605ec0f66a53ccea5c757182fb8880",
        "outputs": ["rewards.jsonl", "objective.json"],
    },
    "score": {
        **_SCORE_KEYS,
        "config": {"reward": {"alpha": 0.5, "beta": 0.5}},
        "outputs": ["rewards.jsonl"],
    },
}


def test_manifests_are_pinned(dataset, tmp_path):
    views = _manifest_runs(dataset, tmp_path)
    assert list(views) == list(PINNED_MANIFESTS)
    for mode, view in views.items():
        assert list(view.items()) == list(PINNED_MANIFESTS[mode].items()), mode


# sha256 of every output but the manifest of `_golden_runs`, pinned so that a
# refactor that must keep report bytes identical is checked against old bytes.
GOLDEN_DIGESTS = {
    "bench-robust/case_results.jsonl": "ddc4d13b64599a92c43fad4876ca897029dab4458933374cf8f9ca8a3f91af0b",
    "bench-robust/cases.jsonl": "b479a4f7652c112bae0f0d2cbed61172a0ff43d6e169f00496002419622518da",
    "bench-robust/report.json": "faeb0a8778e6d3ac5a6307b91c9f5fd2190ce68679f3e6a76a7f218424b4b87e",
    "score/objective.json": "1cfd96219c0bec46f7fa79e5a4540363c79e51e16b58b776841a779f5a720538",
    "score/rewards.jsonl": "62fe5e5b5b15de6becfe645354b73da03ed8882836386b710bf5c55859a6cf4e",
    "sim-loopy/report.csv": "ade7550400aaddb3e27aaeb66ca0ea169a829d1e43f71015614e82ab90f38d38",
    "sim-loopy/report.json": "77a54c07fd654c2edb474d8d5ab2ee39689b399cf8159fa01fbd86d595909539",
    "sim-loopy/report.md": "5bb4f7c641d6aa75a9bde863fc8d3961efc167bf65e744329a8d7db9d6ecb494",
    "sim-loopy/traces.jsonl": "678dcfde5aa28720b893fcf7bac09fa28e223007e8e573d49859206f63393578",
    "sim-offset-pixel/report.csv": "9f27e316da1a86ff626fd8788783a70fff1fb62d88b857e272ed48ea5cf4357d",
    "sim-offset-pixel/report.json": "61eb1f875a5e053d6529315d11965f5739a39c2132364363b7aaff6621344a05",
    "sim-offset-pixel/report.md": "1f12a7a5f5c5bf77a2d4a368ff5db1be5bbe2d9a82b9d90c565fb34295c85bc1",
    "sim-offset-pixel/traces.jsonl": "32fe85d72bd4e244b71892ca3965d9aa5b7b3ea4dffe5739814ea4ef27e155ab",
    "sim-pixel-dims/report.json": "562788cd4e6f78290e47718eb1ed29fd0a3b4d88d069d63bb66116a1099a25a7",
    "sim-pixel-dims/traces.jsonl": "67006976b16069831249295500419d32177880fcb479129fe871249f02675603",
    "sim-pixel-no-dims/report.json": "478e8965550a6157b77a6923cc8f77ed018fb2ff24743d3a70689d7b287a04fe",
    "sim-pixel-no-dims/traces.jsonl": "397c0f0369bcdfa8836ef7c4e72b58d5a923171b5025ab240e7648ad9efd2bea",
    "synth-bench/cases.jsonl": "b479a4f7652c112bae0f0d2cbed61172a0ff43d6e169f00496002419622518da",
    "synth-dataset/dataset.jsonl": "7d61aeeec96d493dfc7d95c90e32a2562e2c30fb9cbc6fe10a44a19f8c8a94bb",
    "synth-sft/samples.jsonl": "40a6c51e93cee6f54cebcd88d3a3c347fddb20803c67f42a93052f76a055e1f1",
}


def _golden_runs(dataset, tmp_path):
    """A small seeded run of every output-writing command: scripted agents on
    relative and pixel datasets, an agent answering in pixels with and
    without screen_dims, failure synthesis and scoring with a GRPO batch."""
    pixel = _pixel_dataset(dataset, tmp_path / "pixel.jsonl")
    trajs = [json.loads(line) for line in pixel.read_text().splitlines()]
    for traj in trajs:  # a first step the pixel agent's (540, 1200) hits
        traj["steps"][0]["gt_action"] = {"kind": "click", "coordinate": [540, 1200]}
    pixel.write_text("".join(json.dumps(traj) + "\n" for traj in trajs))
    runs = tmp_path / "runs"
    seed = ["--seed", "41"]
    for name, data, agent in (
        ("sim-loopy", dataset, "scripted:loopy"),
        ("sim-offset-pixel", pixel, "scripted:offset_then_correct"),
    ):
        assert main([
            "simulate", "--dataset", str(data), "--agent", agent, *seed,
            "--formats", "csv", "markdown", "--out", str(runs / name),
        ]) == EXIT_OK
    with CountingTurnServer(body=PIXEL_TURN) as server:
        for name, data in (("sim-pixel-dims", pixel), ("sim-pixel-no-dims", dataset)):
            assert main([
                "simulate", "--dataset", str(data), "--agent", f"remote:{server.url}", *seed,
                "--out", str(runs / name),
            ]) == EXIT_OK
    assert main([
        "bench-robust", "--synthesize", "--dataset", str(dataset), "--agent", "scripted:loopy",
        *seed, "--out", str(runs / "bench-robust"),
    ]) == EXIT_OK
    for kind, flags in (
        ("sft", ["--dataset", str(dataset)]),
        ("bench", ["--dataset", str(dataset)]),
        ("dataset", ["--count", "6", "--lengths", "2,5"]),
    ):
        assert main([
            "synth", "--kind", kind, *flags, *seed, "--out", str(runs / f"synth-{kind}"),
        ]) == EXIT_OK
    _, argv = _record_inputs("groups", tmp_path, dataset)
    outputs = tmp_path / "outputs.jsonl"
    lines = outputs.read_text().splitlines()
    lines[::3] = [json.dumps({"raw": PIXEL_TURN})] * len(lines[::3])  # ungroundable: no dims
    outputs.write_text("\n".join(lines) + "\n")
    argv[argv.index("--out") + 1] = str(runs / "score")
    assert main(argv) == EXIT_OK
    return runs


def test_outputs_match_pinned_digests(dataset, tmp_path):
    runs = _golden_runs(dataset, tmp_path)
    digests = {
        path.relative_to(runs).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(runs.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }
    assert digests == GOLDEN_DIGESTS
