"""Command-line front end: reproducible simulate / bench-robust / synth /
score / report runs.

Every run directory receives a manifest (written last, atomically) carrying
the resolved configuration, seed, dataset hash, agent identity, and tool
version; re-running with the same manifest reproduces every report byte for
byte.  Exit codes: 0 ok, 1 data problem, 2 agent unreachable, 3 internal.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import fields
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Sequence

from . import __version__
from .agent_bus import parse_agent_spec
from .errors import (
    AgentError,
    AlignmentMismatchError,
    DataError,
    EmptySetError,
    InvariantViolationError,
)
from .failure_forge import (
    DEFAULT_FAILURE_WEIGHTS,
    build_robustness_bench,
    build_sft_dataset,
    failure_case_from_json,
    failure_case_to_json,
    sample_from_json,
    sample_to_json,
)
from .grpo_core import (
    GrpoConfig,
    objective_report,
    read_group_batches,
)
from .metric_suite import (
    MetricsReport,
    ReportFormat,
    StepPrediction,
    emit_report,
    robustness_metrics,
    step_metrics,
    task_metrics,
)
from .records import read_records, write_records
from .reward_engine import RewardConfig, score_output
from .sim_engine import (
    SimConfig,
    run_episodes,
    run_failure_cases,
    trace_from_json,
    trace_to_json,
)
from .synthdata import make_dataset
from .trajectory_store import load_dataset, save_dataset

EXIT_OK = 0
EXIT_DATA = 1
EXIT_AGENT = 2
EXIT_INTERNAL = 3


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _write_manifest(out_dir: Path, manifest: dict[str, Any]) -> None:
    _atomic_write(
        out_dir / "manifest.json", (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
    )


def _config_value(what: str, make: Callable[..., Any], *args: Any) -> Any:
    """`make(...)` on values from --config, $TVAE_SEED or flags; a wrong type,
    unknown key or unknown enum value is a data error, not an internal one."""
    try:
        return make(*args)
    except (TypeError, ValueError) as exc:
        raise InvariantViolationError("config", what, str(exc)) from None


def _resolve_seed(args: argparse.Namespace, config: dict[str, Any]) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in config:
        return _config_value("seed", operator.index, config["seed"])
    env = os.environ.get("TVAE_SEED")
    return _config_value("$TVAE_SEED", int, env) if env else 0


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    if getattr(args, "config", None):
        try:
            obj = json.loads(Path(args.config).read_bytes().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"--config is not UTF-8: {exc}") from None
        if not isinstance(obj, dict):
            raise DataError("--config must hold a JSON object")
        return obj
    return {}


def _check_run_flags(args: argparse.Namespace) -> None:
    # Checked here, not by argparse `type=`: argparse usage errors exit 2,
    # which the exit-code contract keeps for agent failures.
    if args.workers < 1:
        raise InvariantViolationError("flag", "--workers", "must be >= 1")
    if not (math.isfinite(args.timeout) and args.timeout > 0):
        raise InvariantViolationError("flag", "--timeout", "must be a finite number > 0")


def _check_dataset_flags(args: argparse.Namespace) -> tuple[int, int]:
    """Check `synth --kind dataset`'s --count and --lengths as above; return (MIN, MAX)."""
    try:
        lo, hi = (int(v) for v in args.lengths.split(","))
    except ValueError:
        lo = hi = 0  # fails the range check below
    if not 1 <= lo <= hi:
        raise InvariantViolationError("flag", "--lengths", "must be MIN,MAX with 1 <= MIN <= MAX")
    if args.count < 1:
        raise InvariantViolationError("flag", "--count", "must be >= 1")
    return lo, hi


def _config_object(args: Any, config: dict[str, Any], section: str, cls: type,
                   flags: Sequence[str] = (), **fixed: Any) -> Any:
    """`cls` from the `section` object of --config, overridden by the set `flags`."""
    base = config.get(section, {})
    if not isinstance(base, dict):
        raise InvariantViolationError("config", section, "must be a JSON object")
    base = {**base, **{k: getattr(args, k) for k in flags if getattr(args, k, None) is not None}}
    for f in fields(cls):
        if f.name in base and isinstance(f.default, Enum):
            base[f.name] = _config_value(f"{section}.{f.name}", type(f.default), base[f.name])
    return _config_value(section, lambda: cls(**fixed, **base))


def _sim_config(args: argparse.Namespace, config: dict[str, Any], seed: int) -> SimConfig:
    flags = ("budget_multiplier", "delta", "repeat_epsilon")
    return _config_object(args, config, "sim", SimConfig, flags, seed=seed)


def _reward_config(args: argparse.Namespace, config: dict[str, Any]) -> RewardConfig:
    return _config_object(args, config, "reward", RewardConfig, ("alpha", "beta", "delta"))


def _config_snapshot(sim: SimConfig, reward: RewardConfig, grpo: GrpoConfig | None) -> dict:
    snap: dict[str, Any] = {
        "sim": {
            "budget_multiplier": sim.budget_multiplier,
            "delta": sim.delta,
            "repeat_epsilon": sim.repeat_epsilon,
        },
        "reward": {
            "alpha": reward.alpha,
            "beta": reward.beta,
            "delta": reward.delta,
            "similarity": reward.similarity,
            "text_match": reward.text_match.value,
        },
    }
    if grpo is not None:
        snap["grpo"] = {
            "group_size": grpo.group_size,
            "eps_std": grpo.eps_std,
            "eps_clip": grpo.eps_clip,
            "kl_lambda": grpo.kl_lambda,
            "kl_estimator": grpo.kl_estimator.value,
        }
    return snap


def _first_attempt_predictions(traces, trajs) -> list[StepPrediction]:
    by_id = {t.id: t for t in trajs}
    preds: list[StepPrediction] = []
    for trace in traces:
        traj = by_id[trace.trajectory_id]
        seen: set[int] = set()
        for attempt in trace.attempts:
            if attempt.gt_step in seen:
                continue
            seen.add(attempt.gt_step)
            preds.append(
                StepPrediction(
                    source=(traj.id, attempt.gt_step),
                    predicted=attempt.issued,
                    gt=traj.steps[attempt.gt_step],
                )
            )
    return preds


# -- commands --------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_run_flags(args)
    config = _load_config(args)
    seed = _resolve_seed(args, config)
    sim = _sim_config(args, config, seed)
    reward = _reward_config(args, config)
    trajs = load_dataset(args.dataset, limit=args.limit, skip_invalid=args.skip_invalid)
    if not trajs:
        raise EmptySetError("dataset is empty")
    agent = parse_agent_spec(
        args.agent, timeout=args.timeout, token=args.token, max_inflight=args.workers
    )
    try:
        traces = run_episodes(trajs, agent, sim, workers=args.workers)
    finally:
        getattr(agent, "close", lambda: None)()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(out_dir / "traces.jsonl", (trace_to_json(t) for t in traces))
    task = task_metrics(traces)
    report = MetricsReport.build(
        step=step_metrics(_first_attempt_predictions(traces, trajs), reward), task=task
    )
    _atomic_write(out_dir / "report.json", emit_report(report, ReportFormat.JSON))
    for fmt in args.formats or ():
        suffix = {"csv": "csv", "markdown": "md"}[fmt]
        _atomic_write(out_dir / f"report.{suffix}", emit_report(report, ReportFormat(fmt)))
    _write_manifest(
        out_dir,
        {
            "command": "simulate",
            "version": __version__,
            "seed": seed,
            "workers": args.workers,
            "agent": agent.identity,
            "dataset": str(args.dataset),
            "dataset_sha256": _sha256(args.dataset),
            "config": _config_snapshot(sim, reward, None),
            "outputs": ["traces.jsonl", "report.json"],
        },
    )
    aso = "inf" if math.isinf(task.aso) else f"{task.aso:.3f}"
    print(
        f"simulate: {len(traces)} episodes | TSR {task.tsr:.3f} | PG {task.pg:.3f} "
        f"| Sim-TSR {task.sim_tsr:.3f} | ASO {aso}"
    )
    return EXIT_OK


def cmd_bench_robust(args: argparse.Namespace) -> int:
    _check_run_flags(args)
    config = _load_config(args)
    seed = _resolve_seed(args, config)
    sim = _sim_config(args, config, seed)
    out_dir = Path(args.out)
    # A bad agent spec fails before any output is written.
    agent = parse_agent_spec(
        args.agent, timeout=args.timeout, token=args.token, max_inflight=args.workers
    )
    try:
        if args.synthesize:
            if not args.dataset:
                raise DataError("--synthesize requires --dataset")
            trajs = load_dataset(args.dataset, limit=args.limit, skip_invalid=args.skip_invalid)
            cases = build_robustness_bench(trajs, per_traj=args.per_traj, seed=seed)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_records(out_dir / "cases.jsonl", (failure_case_to_json(c) for c in cases))
            cases_path = out_dir / "cases.jsonl"
        else:
            if not args.cases:
                raise DataError("need --cases FILE or --synthesize")
            cases_path = Path(args.cases)
            cases = read_records(cases_path, failure_case_from_json, "failure case")
            out_dir.mkdir(parents=True, exist_ok=True)
        if not cases:
            raise EmptySetError("no failure cases")
        results = run_failure_cases(cases, agent, sim, workers=args.workers)
    finally:
        getattr(agent, "close", lambda: None)()
    rows = [
        {
            "source": list(case.source),
            "repeated": res.repeated,
            "recovered": res.recovered,
            "issued": None if res.issued is None else res.issued.kind.value,
        }
        for case, res in zip(cases, results)
    ]
    write_records(out_dir / "case_results.jsonl", rows)
    metrics = robustness_metrics(results)
    report = MetricsReport.build(robust=metrics)
    _atomic_write(out_dir / "report.json", emit_report(report, ReportFormat.JSON))
    _write_manifest(
        out_dir,
        {
            "command": "bench-robust",
            "version": __version__,
            "seed": seed,
            "agent": agent.identity,
            # synthesized cases live inside the run dir; record them by name
            "cases": cases_path.name if args.synthesize else str(cases_path),
            "cases_sha256": _sha256(cases_path),
            "synthesized": bool(args.synthesize),
            "per_traj": args.per_traj,
            "config": _config_snapshot(sim, RewardConfig(delta=sim.delta), None),
            "outputs": ["case_results.jsonl", "report.json"],
        },
    )
    print(f"bench-robust: {len(cases)} cases | LR {metrics.lr:.3f} | RSR {metrics.rsr:.3f}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = _resolve_seed(args, config)
    lengths = _check_dataset_flags(args) if args.kind == "dataset" else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest: dict[str, Any] = {
        "command": "synth",
        "version": __version__,
        "kind": args.kind,
        "seed": seed,
    }
    if args.kind == "dataset":
        trajs = make_dataset(args.count, lengths, seed=seed)
        save_dataset(trajs, out_dir / "dataset.jsonl")
        manifest.update(count=args.count, lengths=list(lengths), outputs=["dataset.jsonl"])
    else:
        if not args.dataset:
            raise DataError("synth sft/bench requires --dataset")
        trajs = load_dataset(args.dataset, limit=args.limit, skip_invalid=args.skip_invalid)
        manifest.update(dataset=str(args.dataset), dataset_sha256=_sha256(args.dataset))
        weights = {m.value: w for m, w in DEFAULT_FAILURE_WEIGHTS.items()}
        if args.kind == "sft":
            samples = build_sft_dataset(trajs, ratio_b=args.ratio_b, seed=seed)
            write_records(out_dir / "samples.jsonl", (sample_to_json(s) for s in samples))
            manifest.update(
                ratio_b=args.ratio_b, weights=weights, outputs=["samples.jsonl"],
                sample_count=len(samples),
            )
        else:
            cases = build_robustness_bench(trajs, per_traj=args.per_traj, seed=seed)
            write_records(out_dir / "cases.jsonl", (failure_case_to_json(c) for c in cases))
            manifest.update(
                per_traj=args.per_traj, weights=weights, outputs=["cases.jsonl"],
                case_count=len(cases),
            )
    _write_manifest(out_dir, manifest)
    print(f"synth: wrote {manifest['outputs']} to {out_dir}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    config = _load_config(args)
    reward_cfg = _reward_config(args, config)
    samples = read_records(args.samples, sample_from_json, "sample")
    raws = read_records(args.outputs, lambda obj: str(obj["raw"]), "output")
    if len(samples) != len(raws):
        raise AlignmentMismatchError(f"{len(samples)} samples vs {len(raws)} outputs")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    breakdowns = [
        score_output(raw, sample, reward_cfg).to_json() for raw, sample in zip(raws, samples)
    ]
    write_records(out_dir / "rewards.jsonl", breakdowns)

    manifest: dict[str, Any] = {
        "command": "score",
        "version": __version__,
        "samples": str(args.samples),
        "samples_sha256": _sha256(args.samples),
        "outputs_file": str(args.outputs),
        "outputs_sha256": _sha256(args.outputs),
        "config": _config_snapshot(SimConfig(delta=reward_cfg.delta), reward_cfg, None),
        "outputs": ["rewards.jsonl"],
    }

    if args.group_logprobs:
        grpo_cfg = _config_object(None, config, "grpo", GrpoConfig)
        # An output without a "reward" takes the scored total at its position;
        # past the last one it takes 0.0 until the coverage check below fails.
        totals = itertools.chain((b["total"] for b in breakdowns), itertools.repeat(0.0))
        groups = read_group_batches(args.group_logprobs, totals)
        covered = sum(len(g.outputs) for g in groups)
        if covered != len(samples):
            raise AlignmentMismatchError(
                f"group log-probs cover {covered} outputs but {len(samples)} were scored"
            )
        reports = [objective_report(g, grpo_cfg) for g in groups]
        payload = {
            "groups": reports,
            "mean_objective": sum(r["objective"] for r in reports) / len(reports),
        }
        _atomic_write(
            out_dir / "objective.json", (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        )
        manifest["config"] = _config_snapshot(
            SimConfig(delta=reward_cfg.delta), reward_cfg, grpo_cfg
        )
        manifest["group_logprobs"] = str(args.group_logprobs)
        manifest["outputs"].append("objective.json")

    _write_manifest(out_dir, manifest)
    print(f"score: {len(breakdowns)} outputs scored")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    traces = read_records(args.traces, trace_from_json, "trace")
    if not traces:
        raise EmptySetError("no traces")
    report = MetricsReport.build(task=task_metrics(traces))
    data = emit_report(report, ReportFormat(args.format))
    if args.out:
        _atomic_write(Path(args.out), data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


def _common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (base layer under flags)")
    p.add_argument("--seed", type=int, default=None, help="seed (default: config, then $TVAE_SEED, then 0)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--limit", type=int, default=None, help="load at most N trajectories")
    p.add_argument("--skip-invalid", action="store_true", help="drop invalid dataset lines instead of failing")
    p.add_argument("--timeout", type=float, default=30.0, help="remote agent timeout (s)")
    p.add_argument("--token", default=None, help="bearer token for remote agents")
    p.add_argument("--budget-multiplier", dest="budget_multiplier", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--repeat-epsilon", dest="repeat_epsilon", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvae-harness",
        description="Pseudo-online evaluation and reward harness for verification-driven GUI agents",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="replay trajectories against an agent")
    p.add_argument("--dataset", required=True)
    p.add_argument("--agent", required=True, help="scripted:NAME[:ARG] | remote:URL | stdio:CMD")
    p.add_argument("--out", required=True)
    p.add_argument("--formats", nargs="*", choices=["csv", "markdown"])
    _common_run_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench-robust", help="evaluate loop rate and recovery on failure cases")
    p.add_argument("--cases", help="existing failure-case JSONL")
    p.add_argument("--synthesize", action="store_true", help="build cases from --dataset first")
    p.add_argument("--dataset")
    p.add_argument("--per-traj", dest="per_traj", type=int, default=1)
    p.add_argument("--agent", required=True)
    p.add_argument("--out", required=True)
    _common_run_flags(p)
    p.set_defaults(func=cmd_bench_robust)

    p = sub.add_parser("synth", help="synthesize datasets, training samples, or benchmarks")
    p.add_argument("--kind", choices=["sft", "bench", "dataset"], required=True)
    p.add_argument("--dataset", help="source trajectories (sft/bench kinds)")
    p.add_argument("--out", required=True)
    p.add_argument("--ratio-b", dest="ratio_b", type=float, default=0.3)
    p.add_argument("--per-traj", dest="per_traj", type=int, default=1)
    p.add_argument("--count", type=int, default=100, help="dataset kind: trajectory count")
    p.add_argument("--lengths", default="1,8", help="dataset kind: min,max steps")
    _common_run_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="score raw agent outputs against samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--outputs", required=True)
    p.add_argument("--group-logprobs", dest="group_logprobs", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    _common_run_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="recompute metrics from a trace file")
    p.add_argument("--traces", required=True)
    p.add_argument("--format", choices=[f.value for f in ReportFormat], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AgentError as exc:
        print(f"agent error: {exc}", file=sys.stderr)
        return EXIT_AGENT
    except (DataError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
