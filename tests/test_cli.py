from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import fields
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
    failure_case_to_json,
    sample_to_json,
)
from tvae_harness.grpo_core import GrpoConfig
from tvae_harness.records import write_records
from tvae_harness.reward_engine import RewardConfig
from tvae_harness.sim_engine import SimConfig
from tvae_harness.synthdata import make_dataset
from tvae_harness.trajectory_store import (
    ActionKind,
    ActionRecord,
    StepRecord,
    TrajectoryRecord,
    save_dataset,
)
from tvae_harness.tvae_codec import (
    HistoryEntry,
    ThinkSegment,
    ThinkTag,
    TvaeOutput,
    Verification,
    emit_tvae,
)

from conftest import FIXED_TURN, CountingTurnServer


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


@pytest.mark.parametrize("status, requests", [(400, 1), (404, 1), (500, 2), (503, 2)])
def test_simulate_remote_http_error_retries_only_5xx(dataset, tmp_path, status, requests):
    out = tmp_path / "run"
    with CountingTurnServer("no turn", status=status) as server:
        code = main([
            "simulate", "--dataset", str(dataset), "--agent", f"remote:{server.url}",
            "--out", str(out), "--timeout", "5",
        ])
    assert code == EXIT_AGENT
    assert server.requests == requests
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


def _kind_changing_case(objs):
    """A case whose erroneous action is of another kind than its recovery, so
    that no match against the recovery reads its box."""
    return next(c for c in objs if c["erroneous"]["kind"] != c["gt_recovery"]["kind"])


def _unadvanced_match(objs):
    """Line 2 with its first matched attempt marked as not advancing."""
    next(a for a in objs[1]["attempts"] if a["matched"])["advanced"] = False
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
    "traces-match-not-advanced": ("traces", _unadvanced_match),
    # every episode makes at least t_gt >= 1 attempts, and its outcome follows from them
    "traces-t-gt-zero": ("traces", lambda o: {**o[1], "t_gt": 0}),
    "traces-t-gt-huge": ("traces", lambda o: {**o[1], "t_gt": 10**400}),
    "traces-t-gt-negative": ("traces", lambda o: {**o[1], "t_gt": -1}),
    "traces-outcome-flipped": ("traces", lambda o: {**o[1], "outcome": "budget_exhausted"}),
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
    "outputs-non-object": ("outputs", lambda o: 5),
    "groups-no-outputs": ("groups", lambda o: _put(o[1], ["outputs"])),
    "groups-non-object": ("groups", lambda o: [1]),
    "groups-non-object-output": ("groups", lambda o: {"outputs": [5, 5]}),
    "groups-after-blank-line": ("groups", _bad_group_after_blank_line),
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


# A pixel-space click: every command parses, grounds and matches it.
PIXEL_TURN = FIXED_TURN.replace("[0.5, 0.5]", "[540, 1200]")


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
    write_records(cases, (
        failure_case_to_json(FailureCase(
            source=("t", 0), instruction="Open the panel.", screen_ref="s0",
            history=(HistoryEntry(wrong, effect, Verification.SUCCESS),),
            gt_recovery=recovery, erroneous=wrong, mode=FailureMode.COORDINATE_OFFSET,
        ))
        for recovery, wrong in ((target, _click(0.2, 0.2)), (_click(0.2, 0.5), _click(1.0, 0.5)))
    ))
    samples, outputs = tmp_path / "samples.jsonl", tmp_path / "outputs.jsonl"
    write_records(samples, [sample_to_json(SyntheticSample(
        sample_type=SampleType.TYPE_A, instruction="Open the panel.", input_screen_ref="s0",
        history=(), target_verification=Verification.SUCCESS, target_action=target,
        target_effect=effect,
    ))])
    write_records(outputs, [{"raw": turn}])
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
            turn = TvaeOutput(
                think=tuple(think),
                verification=s.target_verification,
                action=s.target_action,
                expected_effect=s.target_effect,
            )
            fh.write(json.dumps({"raw": emit_tvae(turn)}) + "\n")
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


# Modules that load only in a command that runs them: the agent transports'
# stdlib stacks, the thread pool, logging of dropped lines, numpy (never) and
# the two package modules only one command uses.
LAZY_MODULES = {
    "http.client", "ssl", "email.parser", "subprocess", "concurrent.futures", "logging",
    "numpy", "tvae_harness.grpo_core", "tvae_harness.synthdata",
}
# case -> the input kind of `_record_inputs`, or an argv that reads the
# `dataset` fixture in place of DATASET; and the lazy modules that case runs
DATASET = "<dataset>"
IMPORT_CASES = {
    "import-cli": (None, set()),
    "simulate": ("dataset", set()),
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
     ["case_results.jsonl", "report.json"]),
])
def test_manifest_records_every_flag_that_shapes_an_output(dataset, tmp_path, argv, outputs):
    out = tmp_path / "out"
    assert main([*argv, "--dataset", str(dataset), "--limit", "5", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["limit"], manifest["skip_invalid"]) == (5, False)
    assert manifest["outputs"] == outputs
    assert all((out / name).is_file() for name in outputs)
