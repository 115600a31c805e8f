"""Benchmark of the tvae-harness CLI: end-to-end and per-layer.

    python3 bench/run.py --workload replay|remote|forge_score --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are generated from the seed by
`inputs.py`.  Each timed run ("rep") is a fresh `worker.py` process that
imports the package from `src/` (timed as `setup_s`) and calls
`tvae_harness.cli.main` for each command of the workload; reps repeat until
`--seconds` have passed.
Each end-to-end metric is the median over all the run's reps; their
quartiles are printed beside it.  Timings of the harness's own computing are
scaled to a reference host speed (see `calibration_s`); the raw medians are
printed too.  Every rep's outputs are checked by `checks.py` and digested; the digests must
repeat across reps, and across runs of the same seed and source tree.

With `--trace 1` traced and untraced reps alternate, and the per-layer
metrics come from the traced ones (`spans.py`).

Lines before the last describe the environment, the inputs and every metric
by name and unit, the workload-specific ones included.  The last line is one
JSON object: correct, attempted, failed and metrics (the end-to-end metrics,
or the per-layer ones with --trace 1).  The same record, with per-rep values,
is written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checks
import inputs
import spans
from turn_server import plan_wrongs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "tvae_harness"
WORK = ROOT / ".bench_work"

MIN_REPS = 3
MAX_ERROR_LINES = 20
# A run must end within 180 s: no rep starts after LAST_REP_START_S, and a
# worker still running at RUN_DEADLINE_S is killed (its rep counts as failed).
LAST_REP_START_S = 120.0
RUN_DEADLINE_S = 165.0

# Host speed.  On a shared 2-core VM (Intel Xeon) the host ran both CPUs up
# to about 1.6x slower for minutes at a time, and the process CPU time slowed
# with the wall time.  Over ten runs this spread CPU-bound medians by up to a
# quarter, far more than the program's own variation.  So a fixed pure-Python
# job is timed before and after each rep, and the rep's timings of harness
# computing are scaled by CALIBRATION_REFERENCE_S / (its mean time).
CALIBRATION_REFERENCE_S = 0.050
CALIBRATION_ROUNDS = 36
_CALIBRATION_DOCS = [
    json.dumps({"id": f"t{i}", "steps": [
        {"x": i * 0.001, "y": j, "kind": "click" if j % 2 else "type", "text": "abc" * (j % 5)}
        for j in range(8)]})
    for i in range(40)
]
_CALIBRATION_TAG = re.compile(r"<(\w+)>(.*?)</\1>", re.S)


def calibration_s() -> float:
    """Seconds a fixed job takes now: JSON decoding and encoding, regex
    matching, dict and sort work, the harness's own mix.  It uses nothing
    of the package under test, so a change to the package cannot move it."""
    start = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        acc: dict[Any, Any] = {}
        for text in _CALIBRATION_DOCS:
            doc = json.loads(text)
            for step in doc["steps"]:
                key = (step["kind"], round(step["x"], 3))
                acc[key] = acc.get(key, 0) + len(step["text"])
            out = json.dumps(doc, sort_keys=True)
            for m in _CALIBRATION_TAG.finditer("<a>" + out[:200] + "</a><think>x</think>"):
                acc[m.group(1)] = m.group(2)[:4]
        sorted(acc.items(), key=lambda kv: str(kv[0]))
    return time.perf_counter() - start


# name -> unit
END_TO_END = {
    "wall_s": "s",
    "turns_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "harness_cpu_s": "s",
}


@dataclass
class Step:
    """One CLI command of a workload, with the check of what it wrote."""

    argv: list[str]
    outputs: list[str]  # files (relative to the run dir) that must repeat byte for byte
    check: Callable[[], tuple[list[str], int]]  # -> errors, items produced
    rate: str  # name of the items-per-second metric for this command


@dataclass
class Rep:
    ok: bool
    errors: list[str]
    failed_steps: int
    setup_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    harness_cpu_s: float = 0.0
    calibration_s: float = 0.0  # mean of the calibrations before and after the rep
    rates: dict[str, float] = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)
    output_bytes: int = 0
    server: dict[str, Any] | None = None
    trace: dict[str, Any] | None = None


def scaled(count: int, scale: float) -> int:
    return max(2, round(count * scale))


# -- workloads ----------------------------------------------------------------------


class Workload:
    """Inputs, commands and checks of one workload inside a run directory."""

    turn_rate = "turns_per_s"
    # Whether the workload's wall time is all harness computing, and so
    # scaled to the reference host speed like the CPU time.
    cpu_bound = True

    def __init__(self, seed: int, scale: float, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.inputs: list[Path] = []
        (run_dir / "inputs").mkdir(parents=True)

    def write_input(self, name: str, objs) -> Path:
        path = self.run_dir / "inputs" / name
        inputs.write_jsonl(path, objs)
        self.inputs.append(path)
        return path

    def start(self, runner: "Runner") -> None:
        """Set up what the reps share (servers, derived inputs)."""

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def after_rep(self, rep: Rep) -> None:
        """Workload-specific accounting once a rep has ended."""

    def close(self) -> None:
        """Stop whatever `start` started."""


class Replay(Workload):
    """Scripted bernoulli:0.5 agent, 1-8 step trajectories, one worker."""

    def __init__(self, seed: int, scale: float, run_dir: Path):
        super().__init__(seed, scale, run_dir)
        self.trajs = inputs.make_trajectories(seed, scaled(1000, scale), (1, 8), "rp")
        self.write_input("dataset.jsonl", self.trajs)

    def steps(self) -> list[Step]:
        out = self.run_dir / "out" / "sim"
        return [Step(
            ["simulate", "--dataset", "inputs/dataset.jsonl", "--agent", "scripted:bernoulli:0.5",
             "--workers", "1", "--out", "out/sim", "--seed", str(self.seed)],
            ["out/sim/traces.jsonl", "out/sim/report.json"],
            lambda: checks.check_traces(self.trajs, out),
            "turns_per_s",
        )]


class Remote(Workload):
    """HTTP agent with a fixed service time, 4-16 step trajectories, two workers."""

    cpu_bound = False  # the wall includes the agent's fixed service time and transport

    def __init__(self, seed: int, scale: float, run_dir: Path):
        super().__init__(seed, scale, run_dir)
        self.trajs = inputs.make_trajectories(seed, scaled(50, scale), (4, 16), "rm")
        self.dataset = self.write_input("dataset.jsonl", self.trajs)
        self.plan = plan_wrongs(seed, self.trajs)
        self.server: subprocess.Popen | None = None
        self.port = 0
        self.turns = 0

    def start(self, runner: "Runner") -> None:
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH / "turn_server.py"), "--dataset", str(self.dataset),
             "--seed", str(self.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=self.run_dir,
        )
        line = self.server.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"turn server did not start: {line!r}")
        self.port = int(line.split()[1])

    def server_stats(self) -> dict[str, Any]:
        self.server.stdin.write("stats\n")
        self.server.stdin.flush()
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("turn server exited")
        return json.loads(line)

    def steps(self) -> list[Step]:
        out = self.run_dir / "out" / "sim"

        def check() -> tuple[list[str], int]:
            errors, turns = checks.check_traces(self.trajs, out, self.plan)
            self.turns = turns
            return errors, turns

        return [Step(
            ["simulate", "--dataset", "inputs/dataset.jsonl",
             "--agent", f"remote:http://127.0.0.1:{self.port}", "--workers", "2",
             "--timeout", "30", "--out", "out/sim", "--seed", str(self.seed)],
            ["out/sim/traces.jsonl", "out/sim/report.json"],
            check,
            "turns_per_s",
        )]

    def after_rep(self, rep: Rep) -> None:
        stats = self.server_stats()
        rep.server = stats
        if rep.ok and (stats["requests"] != self.turns or stats["bad_requests"]):
            rep.ok = False
            rep.failed_steps = 1
            rep.errors.append(
                f"server saw {stats['requests']} requests ({stats['bad_requests']} bad) "
                f"for {self.turns} traced turns"
            )

    def close(self) -> None:
        if self.server is None:
            return
        try:
            self.server.stdin.write("quit\n")
            self.server.stdin.close()
        except OSError:
            pass
        try:
            self.server.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()


class ForgeScore(Workload):
    """synth sft -> bench-robust with the loopy agent -> score with group log-probs."""

    turn_rate = "cases_per_s"  # one agent turn per failure case

    def __init__(self, seed: int, scale: float, run_dir: Path):
        super().__init__(seed, scale, run_dir)
        self.trajs = inputs.make_trajectories(seed, scaled(500, scale), (1, 8), "fs")
        self.write_input("dataset.jsonl", self.trajs)
        self.expected: list[dict[str, Any]] = []
        self.groups: list[dict[str, Any]] = []

    def _synth(self, out: str) -> list[str]:
        return ["synth", "--kind", "sft", "--dataset", "inputs/dataset.jsonl",
                "--ratio-b", "0.3", "--seed", str(self.seed), "--out", out]

    def start(self, runner: "Runner") -> None:
        # The score inputs are derived from the samples `synth` writes, which
        # every rep reproduces byte for byte (its digest is checked).
        prep = runner.run_rep([Step(self._synth("prep/sft"), [], lambda: ([], 0), "")],
                              trace=False)
        if not prep.ok:
            raise RuntimeError(f"preparatory synth failed: {prep.errors}")
        samples = inputs.read_jsonl(self.run_dir / "prep/sft/samples.jsonl")
        outputs, self.expected = inputs.make_outputs(self.seed, samples)
        self.groups = inputs.make_groups(self.seed, len(samples))
        self.write_input("outputs.jsonl", outputs)
        self.write_input("groups.jsonl", self.groups)

    def steps(self) -> list[Step]:
        out = self.run_dir / "out"
        return [
            Step(self._synth("out/sft"), ["out/sft/samples.jsonl"],
                 lambda: checks.check_samples(self.trajs, out / "sft/samples.jsonl", 0.3),
                 "samples_per_s"),
            Step(["bench-robust", "--synthesize", "--dataset", "inputs/dataset.jsonl",
                  "--per-traj", "2", "--agent", "scripted:loopy", "--seed", str(self.seed),
                  "--out", "out/robust"],
                 ["out/robust/cases.jsonl", "out/robust/case_results.jsonl",
                  "out/robust/report.json"],
                 lambda: checks.check_robust(self.trajs, out / "robust", 2),
                 "cases_per_s"),
            Step(["score", "--samples", "out/sft/samples.jsonl", "--outputs",
                  "inputs/outputs.jsonl", "--group-logprobs", "inputs/groups.jsonl",
                  "--out", "out/score"],
                 ["out/score/rewards.jsonl", "out/score/objective.json"],
                 lambda: checks.check_score(out / "score", self.expected, self.groups),
                 "outputs_per_s"),
        ]


WORKLOADS: dict[str, type[Workload]] = {
    "replay": Replay,
    "remote": Remote,
    "forge_score": ForgeScore,
}


# -- running reps ---------------------------------------------------------------------


class Runner:
    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.reference: list[str] | None = None
        self.numpy_version: str | None = None

    def run_rep(self, steps: list[Step], trace: bool) -> Rep:
        out = self.run_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        for name in ("result.json", "spans.json"):
            (self.run_dir / name).unlink(missing_ok=True)
        job = {
            "src": str(PACKAGE) + os.sep,
            "trace": trace,
            "commands": [s.argv for s in steps],
            "spans_out": "spans.json",
            "result_out": "result.json",
        }
        (self.run_dir / "job.json").write_text(json.dumps(job))
        with open(self.run_dir / "worker.log", "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), repr(spawned), "job.json"],
                cwd=self.run_dir, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)

        result_path = self.run_dir / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            log_tail = (self.run_dir / "worker.log").read_text(errors="replace")[-400:]
            return Rep(False, [f"worker exited {proc.returncode}: {log_tail}"], len(steps))
        result = json.loads(result_path.read_text())
        rep = Rep(
            ok=True,
            errors=[],
            failed_steps=0,
            setup_s=result["setup_s"],
            wall_s=sum(c["wall_s"] for c in result["commands"]),
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            harness_cpu_s=usage.ru_utime + usage.ru_stime,
        )
        self.numpy_version = result["numpy"]
        for n, step in enumerate(steps):
            if n >= len(result["commands"]) or result["commands"][n]["exit"] != 0:
                code = result["commands"][n]["exit"] if n < len(result["commands"]) else "-"
                rep.errors.append(f"{step.argv[0]}: exit {code}")
                rep.failed_steps += 1
                continue
            try:
                errors, items = step.check()
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errors, items = [f"unreadable output: {exc!r}"], 0
            if errors:
                rep.errors.extend(f"{step.argv[0]}: {e}" for e in errors)
                rep.failed_steps += 1
                continue  # its outputs may be missing; a failed rep is not digested
            if step.rate:
                rep.rates[step.rate] = items / result["commands"][n]["wall_s"]
            rep.digests.append(checks.digest([self.run_dir / p for p in step.outputs]))
        rep.ok = rep.failed_steps == 0
        if out.exists():
            rep.output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if trace and rep.ok:
            dump = json.loads((self.run_dir / "spans.json").read_text())
            rep.trace = spans.analyse(dump)
            rep.trace["read_ns"] = spans.outermost_ns(dump, READERS)
            rep.trace["write_ns"] = spans.outermost_ns(dump, WRITERS)
        return rep

    def check_digests(self, rep: Rep) -> None:
        """Outputs must repeat: the first good rep sets the reference."""
        if not rep.ok:
            return
        if self.reference is None:
            self.reference = rep.digests
        elif rep.digests != self.reference:
            differing = sum(a != b for a, b in zip(rep.digests, self.reference))
            rep.ok = False
            rep.failed_steps = max(rep.failed_steps, differing)
            rep.errors.append("output digests differ from the first rep of this seed")


# -- per-layer metrics ----------------------------------------------------------------

READERS = {
    "trajectory_store.load_dataset", "failure_forge.read_jsonl", "failure_forge.sample_from_json",
    "failure_forge.failure_case_from_json", "sim_engine.read_traces",
    "grpo_core.read_group_batches", "grpo_core.group_output_from_json",
}
WRITERS = {"trajectory_store.save_dataset", "failure_forge.write_jsonl", "sim_engine.write_traces"}
METRIC_SUITE = ("metric_suite.step_metrics", "metric_suite.task_metrics",
                "metric_suite.robustness_metrics")
# `<fn>.us`: mean self microseconds per call.
PER_CALL_US = (
    "tvae_codec.parse_tvae", "tvae_codec.emit_tvae", "agent_bus.turn",
    "agent_bus.observation_to_wire", "failure_forge.sample_corruption",
    "failure_forge.sample_from_json", "sim_engine.transition", "sim_engine.run_failure_case",
    "reward_engine.match_action", "reward_engine.composite_reward",
    "grpo_core.objective_report", "grpo_core.group_output_from_json", "metric_suite.emit_report",
)
# `<fn>.calls`: calls per rep.
CALL_COUNTS = (
    "tvae_codec.parse_tvae", "agent_bus.turn", "seeding.stable_seed",
    "reward_engine.match_action", "trajectory_store.normalize_action",
)
# `<fn>.s`: inclusive seconds per rep.
SECONDS_PER_REP = (
    "failure_forge.build_sft_dataset", "failure_forge.build_robustness_bench",
    "grpo_core.read_group_batches", "trajectory_store.load_dataset",
)


def per_layer_metrics(traced: list[Rep], untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics averaged over the traced reps, and the metrics that
    could not be measured because their function is missing."""
    n = len(traced)
    agg: dict[str, dict[str, float]] = {}
    read_ns = write_ns = root_ns = self_sum_ns = span_count = 0
    missing = set()
    for rep in traced:
        t = rep.trace
        missing.update(t["missing"])
        for name, stats in t["per_name"].items():
            into = agg.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
        read_ns += t["read_ns"]
        write_ns += t["write_ns"]
        root_ns += t["root_ns"]
        self_sum_ns += t["self_sum_ns"]
        span_count += t["spans"]
    traced_wall = sum(r.wall_s for r in traced)
    empty = {"calls": 0, "incl_ns": 0, "self_ns": 0, "warn": 0, "raised": 0}
    missing_names = {
        "agent_bus.turn" if m.endswith(".turn") else m for m in missing
    }

    def get(name: str) -> dict[str, float]:
        return agg.get(name, empty)

    def us(name: str) -> float:
        g = get(name)
        return g["self_ns"] / g["calls"] / 1e3 if g["calls"] else 0.0

    def calls(name: str) -> float:
        return get(name)["calls"] / n

    def seconds(name: str) -> float:
        return get(name)["incl_ns"] / 1e9 / n

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, dict[str, Any]] = {}
    lost: list[str] = []

    def put(metric: str, unit: str, value: float, *needs: str) -> None:
        if any(need in missing_names for need in needs):
            lost.append(metric)
        else:
            metrics[metric] = {"value": value, "unit": unit}

    for fn in PER_CALL_US:
        put(f"{fn}.us", "us", us(fn), fn)
    put("sim_engine.run_episode.self_us", "us", us("sim_engine.run_episode"),
        "sim_engine.run_episode")
    for fn in CALL_COUNTS:
        put(f"{fn}.calls", "count", calls(fn), fn)
    for fn in SECONDS_PER_REP:
        put(f"{fn}.s", "s", seconds(fn), fn)
    parse = get("tvae_codec.parse_tvae")
    put("tvae_codec.parse_tvae.warn_frac", "ratio", share(parse["warn"], parse["calls"]),
        "tvae_codec.parse_tvae")
    put("tvae_codec.parse_tvae.fail_frac", "ratio", share(parse["raised"], parse["calls"]),
        "tvae_codec.parse_tvae")
    put("failure_forge.corrupt_action.calls_per_draw", "ratio",
        share(get("failure_forge.corrupt_action")["calls"],
              get("failure_forge.sample_corruption")["calls"]),
        "failure_forge.corrupt_action", "failure_forge.sample_corruption")
    server_reqs = sum(r.server["requests"] for r in traced if r.server)
    server_bytes = sum(r.server["request_bytes"] for r in traced if r.server)
    put("agent_bus.wire_bytes_per_turn", "bytes", share(server_bytes, server_reqs))
    put("metric_suite.metrics.s", "s", sum(seconds(m) for m in METRIC_SUITE), *METRIC_SUITE)
    put("cli.read.s", "s", read_ns / 1e9 / n)
    put("cli.write.s", "s", write_ns / 1e9 / n)
    put("cli.self.s", "s", get("cli.main")["self_ns"] / 1e9 / n, "cli.main")
    put("cli.output_bytes", "bytes", sum(r.output_bytes for r in traced) / n)
    put("trace.overhead_frac", "ratio",
        statistics.median(r.wall_s for r in traced) / untraced_wall - 1.0)
    put("trace.unattributed_frac", "ratio", share(traced_wall - root_ns / 1e9, traced_wall))
    put("trace.overlap_frac", "ratio", share((self_sum_ns - root_ns) / 1e9, traced_wall))
    put("trace.spans", "count", span_count / n)
    accounting = {
        "wall_s": traced_wall / n,
        "self_sum_s": self_sum_ns / 1e9 / n,
        "overlap_s": (self_sum_ns - root_ns) / 1e9 / n,
        "unattributed_s": (traced_wall - root_ns / 1e9) / n,
    }
    return {"metrics": metrics, "accounting": accounting}, lost


# -- reporting ------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def check_digest_store(key: str, digests: list[str]) -> bool:
    """Runs of one seed on one source tree must write identical outputs."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return known[key] == digests
    known[key] = digests
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tvae-harness benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test uses a small one)")
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (PACKAGE / "cli.py").is_file():
        print(f"no tvae_harness sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": None,
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "loadavg": list(os.getloadavg()),
        "workload": args.workload,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
    }
    run_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.scale, run_dir)
    runner = Runner(run_dir, started + RUN_DEADLINE_S)
    warm: list[Rep] = []
    reps: list[Rep] = []
    traced: list[Rep] = []
    try:
        workload.start(runner)
        env["inputs"] = {p.name: inputs.sha256_file(p) for p in workload.inputs}
        steps = workload.steps()

        def one(trace: bool) -> Rep:
            before = calibration_s()
            rep = runner.run_rep(steps, trace)
            rep.calibration_s = (before + calibration_s()) / 2
            workload.after_rep(rep)
            runner.check_digests(rep)
            return rep

        # Warm-up: fills file and bytecode caches and sets the digest reference.
        warm.append(one(False))
        timed_from = time.monotonic()
        while True:
            trace_now = bool(args.trace) and len(traced) <= len(reps) - 1
            rep = one(trace_now)
            (traced if trace_now else reps).append(rep)
            elapsed = time.monotonic() - timed_from
            enough = len(reps) >= MIN_REPS and (not args.trace or traced)
            if enough and elapsed >= args.seconds:
                break
            if time.monotonic() - started > LAST_REP_START_S:
                break
    finally:
        workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    env["numpy"] = runner.numpy_version

    all_reps = warm + reps + traced
    attempted = len(steps) * len(all_reps)
    failed = sum(r.failed_steps for r in all_reps)
    good = [r for r in reps if r.ok]
    reference = runner.reference or []
    key = f"{args.workload}|seed={args.seed}|scale={args.scale}|src={env['source_sha256']}"
    if reference and not check_digest_store(key, reference):
        failed += len(steps)
        attempted += len(steps)
        for r in all_reps:
            r.errors.append("output digests differ from an earlier run of this seed")
    correct = failed == 0 and bool(good)

    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    errors: dict[str, int] = {}
    for r in all_reps:
        for e in r.errors:
            errors[e] = errors.get(e, 0) + 1
    for e, count in list(errors.items())[:MAX_ERROR_LINES]:
        lines.append(f"error ({count} reps) {e}")
    lines.append(f"digest {hashlib.sha256(''.join(reference).encode()).hexdigest()}")
    lines.append(f"reps {len(reps)} untraced ({len(good)} correct), "
                 f"{len(traced)} traced, 1 warm-up")

    record: dict[str, Any] = {"env": env, "correct": correct, "attempted": attempted,
                              "failed": failed, "digests": reference}
    metrics: dict[str, dict[str, Any]] = {}
    if good:
        series = {
            "wall_s": [r.wall_s for r in good],
            "turns_per_s": [r.rates[workload.turn_rate] for r in good],
            "setup_s": [r.setup_s for r in good],
            "peak_rss_mb": [r.peak_rss_mb for r in good],
            "harness_cpu_s": [r.harness_cpu_s for r in good],
        }
        record["per_rep"] = dict(series)
        cal = [r.calibration_s for r in good]
        record["per_rep"]["calibration_s"] = cal
        q1, med, q3 = quartiles([c * 1e3 for c in cal])
        lines.append(f"host calibration {med:.6g} ms (reference "
                     f"{CALIBRATION_REFERENCE_S * 1e3:g} ms; q1 {q1:.6g}, q3 {q3:.6g})")
        scaled_names = {"setup_s", "harness_cpu_s"}
        if workload.cpu_bound:
            scaled_names |= {"wall_s", "turns_per_s"}
        for name, values in series.items():
            unit = END_TO_END[name]
            raw = statistics.median(values)
            note = "raw"
            if name in scaled_names:
                # A time scales with the calibration, a rate inversely.
                power = -1 if unit == "1/s" else 1
                values = [v * (CALIBRATION_REFERENCE_S / c) ** power
                          for v, c in zip(values, cal)]
                note = f"scaled to the reference host speed; raw median {raw:.6g} {unit}"
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            lines.append(f"metric {name} {med:.6g} {unit} (median of {len(values)} reps, "
                         f"{note}; q1 {q1:.6g}, q3 {q3:.6g})")
        specific = {rate: ("1/s", [r.rates[rate] for r in good])
                    for rate in ("samples_per_s", "cases_per_s", "outputs_per_s")
                    if rate in good[0].rates}
        if good[0].server is not None:
            specific["agent_busy_frac"] = ("ratio", [r.server["busy_s"] / r.wall_s for r in good])
        for name, (unit, values) in specific.items():
            record["per_rep"][name] = values
            q1, med, q3 = quartiles(values)
            lines.append(f"metric {name} {med:.6g} {unit} (workload-specific; "
                         f"{len(values)} reps: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g})")
        if good[0].server is not None:
            gaps = sorted(g * 1e3 for r in good for g in r.server["gaps_s"])
            # Too few gaps for a percentile still prints the lines, as nan.
            p50 = statistics.median(gaps) if gaps else float("nan")
            p99 = statistics.quantiles(gaps, n=100)[98] if len(gaps) >= 2 else float("nan")
            record["turn_gap_ms"] = {"p50": p50, "p99": p99, "samples": len(gaps)}
            for name, value in (("turn_gap_p50_ms", p50), ("turn_gap_p99_ms", p99)):
                lines.append(f"metric {name} {value:.6g} ms (workload-specific; "
                             f"{len(gaps)} gaps pooled over the reps)")
        record["end_to_end"] = metrics
    lines.append(f"metric fail_frac {failed / attempted if attempted else 1.0:.6g} ratio "
                 f"({failed} of {attempted} commands)")

    if args.trace:
        ok_traced = [r for r in traced if r.ok]
        if ok_traced and good:
            layer, lost = per_layer_metrics(ok_traced, statistics.median(r.wall_s for r in good))
            metrics = layer["metrics"]
            acc = layer["accounting"]
            lines.append(
                f"trace accounting per rep: wall {acc['wall_s']:.6g} s"
                f" = self {acc['self_sum_s']:.6g} s - thread overlap {acc['overlap_s']:.6g} s"
                f" + unattributed {acc['unattributed_s']:.6g} s"
            )
            for name, m in metrics.items():
                lines.append(f"layer {name} {m['value']:.6g} {m['unit']}")
            for name in lost:
                lines.append(f"layer {name} MISSING (function not found)")
            record["per_layer"] = metrics
            record["missing"] = lost
        else:
            metrics = {}
            correct = False

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (results / f"BENCH_{args.workload}_s{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
