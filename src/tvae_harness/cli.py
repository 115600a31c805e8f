"""Command-line front end: reproducible simulate / bench-robust / synth /
score / report runs.

Every run directory receives a manifest (written last, atomically) carrying
the resolved configuration, seed, dataset hash, agent identity, and tool
version; re-running with the same manifest reproduces every report byte for
byte.  Exit codes: 0 ok, 1 data problem (a bad input file, config value or
flag, usage errors included), 2 agent unreachable, 3 internal.  Each command
accepts only the flags and --config keys it reads.
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
from typing import Any, Callable, NoReturn, Sequence

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
from .grpo_core import GrpoConfig, exact_mean, objective_report, read_group_batches
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


def _load_config(args: argparse.Namespace, keys: set[str]) -> dict[str, Any]:
    """The --config object; a top-level key outside `keys` is a data error."""
    if not args.config:
        return {}
    try:
        obj = json.loads(Path(args.config).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"--config is not UTF-8: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError("--config must hold a JSON object")
    unread = sorted(obj.keys() - keys)
    if unread:
        raise InvariantViolationError("config", ", ".join(unread), f"not read by {args.command}")
    return obj


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


def _config_snapshot(**sections: Any) -> dict[str, dict[str, Any]]:
    """Every field of each config dataclass, enums by value.  The seed is
    left out: the manifest records it at its top level."""
    return {
        name: {
            f.name: value.value if isinstance(value := getattr(cfg, f.name), Enum) else value
            for f in fields(cfg) if f.name != "seed"
        }
        for name, cfg in sections.items()
    }


# Flags that only some modes of `synth` and `bench-robust` read, and the value
# each takes when its mode reads it and it is not given.
_MODE_FLAG_DEFAULTS: dict[str, Any] = {
    "dataset": None, "limit": None, "skip_invalid": False,
    "ratio_b": 0.3, "per_traj": 1, "count": 100, "lengths": (1, 8),
}
# The mode flags each `synth --kind` reads; `bench-robust --synthesize` reads the bench kind's.
_KIND_READS: dict[str, set[str]] = {
    "dataset": {"count", "lengths"},
    "sft": {"dataset", "limit", "skip_invalid", "ratio_b"},
    "bench": {"dataset", "limit", "skip_invalid", "per_traj"},
}


def _check_mode_flags(args: argparse.Namespace, mode: str, reads: set[str]) -> None:
    """A given mode flag (one not None or False) that `mode` does not read is a
    usage error; one it reads and that was not given takes its default."""
    for name, default in _MODE_FLAG_DEFAULTS.items():
        value = getattr(args, name, None)
        if value is None and name in reads:
            setattr(args, name, default)
        elif value is not None and value is not False and name not in reads:
            raise DataError(f"{mode} does not read --{name.replace('_', '-')}")


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
    config = _load_config(args, {"seed", "sim"})
    seed = _resolve_seed(args, config)
    sim = _config_object(args, config, "sim", SimConfig, ("budget_multiplier",), seed=seed)
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
        step=step_metrics(_first_attempt_predictions(traces, trajs)), task=task
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
            "config": _config_snapshot(sim=sim),
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
    mode, reads = ("--synthesize", _KIND_READS["bench"]) if args.synthesize else ("--cases", set())
    _check_mode_flags(args, f"bench-robust {mode}", reads)
    config = _load_config(args, {"seed"})
    seed = _resolve_seed(args, config)
    # Nothing is written before the agent has answered every case.
    agent = parse_agent_spec(
        args.agent, timeout=args.timeout, token=args.token, max_inflight=args.workers
    )
    try:
        if args.synthesize:
            if not args.dataset:
                raise DataError("--synthesize requires --dataset")
            trajs = load_dataset(args.dataset, limit=args.limit, skip_invalid=args.skip_invalid)
            cases = build_robustness_bench(trajs, per_traj=args.per_traj, seed=seed)
        else:
            cases = read_records(args.cases, failure_case_from_json, "failure case")
        if not cases:
            raise EmptySetError("no failure cases")
        results = run_failure_cases(cases, agent, SimConfig(seed=seed), workers=args.workers)
    finally:
        getattr(agent, "close", lambda: None)()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.synthesize:
        cases_path = out_dir / "cases.jsonl"
        write_records(cases_path, (failure_case_to_json(c) for c in cases))
    else:
        cases_path = Path(args.cases)
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
            **({"per_traj": args.per_traj} if args.synthesize else {}),
            "outputs": ["case_results.jsonl", "report.json"],
        },
    )
    print(f"bench-robust: {len(cases)} cases | LR {metrics.lr:.3f} | RSR {metrics.rsr:.3f}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    _check_mode_flags(args, f"synth --kind {args.kind}", _KIND_READS[args.kind])
    config = _load_config(args, {"seed"})
    seed = _resolve_seed(args, config)
    out_dir = Path(args.out)  # made only once its rows are built
    manifest: dict[str, Any] = {
        "command": "synth",
        "version": __version__,
        "kind": args.kind,
        "seed": seed,
    }
    if args.kind == "dataset":
        trajs = make_dataset(args.count, args.lengths, seed=seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_dataset(trajs, out_dir / "dataset.jsonl")
        manifest.update(count=args.count, lengths=list(args.lengths), outputs=["dataset.jsonl"])
    else:
        if not args.dataset:
            raise DataError("synth sft/bench requires --dataset")
        trajs = load_dataset(args.dataset, limit=args.limit, skip_invalid=args.skip_invalid)
        manifest.update(dataset=str(args.dataset), dataset_sha256=_sha256(args.dataset))
        weights = {m.value: w for m, w in DEFAULT_FAILURE_WEIGHTS.items()}
        if args.kind == "sft":
            samples = build_sft_dataset(trajs, ratio_b=args.ratio_b, seed=seed)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_records(out_dir / "samples.jsonl", (sample_to_json(s) for s in samples))
            manifest.update(
                ratio_b=args.ratio_b, weights=weights, outputs=["samples.jsonl"],
                sample_count=len(samples),
            )
        else:
            cases = build_robustness_bench(trajs, per_traj=args.per_traj, seed=seed)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_records(out_dir / "cases.jsonl", (failure_case_to_json(c) for c in cases))
            manifest.update(
                per_traj=args.per_traj, weights=weights, outputs=["cases.jsonl"],
                case_count=len(cases),
            )
    _write_manifest(out_dir, manifest)
    print(f"synth: wrote {manifest['outputs']} to {out_dir}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    # Every input is read and checked before --out is touched.
    config = _load_config(args, {"reward", "grpo"} if args.group_logprobs else {"reward"})
    reward_cfg = _config_object(args, config, "reward", RewardConfig, ("alpha", "beta"))
    grpo_cfg = _config_object(None, config, "grpo", GrpoConfig) if args.group_logprobs else None
    samples = read_records(args.samples, sample_from_json, "sample")
    raws = read_records(args.outputs, lambda obj: str(obj["raw"]), "output")
    if len(samples) != len(raws):
        raise AlignmentMismatchError(f"{len(samples)} samples vs {len(raws)} outputs")
    if not samples:
        raise EmptySetError("no outputs to score")
    breakdowns = [
        score_output(raw, sample, reward_cfg).to_json() for raw, sample in zip(raws, samples)
    ]
    outputs = ["rewards.jsonl"]
    sections: dict[str, Any] = {"reward": reward_cfg}
    objective: dict[str, Any] | None = None
    if grpo_cfg is not None:
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
        objective = {
            "groups": reports,
            "mean_objective": exact_mean([r["objective"] for r in reports]),
        }
        outputs.append("objective.json")
        sections["grpo"] = grpo_cfg

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(out_dir / "rewards.jsonl", breakdowns)
    if objective is not None:
        _atomic_write(
            out_dir / "objective.json", (json.dumps(objective, indent=2) + "\n").encode("utf-8")
        )
    manifest: dict[str, Any] = {
        "command": "score",
        "version": __version__,
        "samples": str(args.samples),
        "samples_sha256": _sha256(args.samples),
        "outputs_file": str(args.outputs),
        "outputs_sha256": _sha256(args.outputs),
        "config": _config_snapshot(**sections),
        "outputs": outputs,
    }
    if objective is not None:
        manifest["group_logprobs"] = str(args.group_logprobs)
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


class _Parser(argparse.ArgumentParser):
    """A usage error is a data error (exit 1); exit 2 is kept for agent failures."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise DataError(f"{self.prog}: {message}")


def _count(text: str) -> int:
    """`type=` of --workers, --count and --limit: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # fails the check below
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1")
    return value


def _seconds(text: str) -> float:
    """`type=` of --timeout: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # fails the check below
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def _lengths(text: str) -> tuple[int, int]:
    """`type=` of --lengths: MIN,MAX with 1 <= MIN <= MAX."""
    try:
        lo, hi = (int(v) for v in text.split(","))
    except ValueError:
        lo = hi = 0  # fails the check below
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError("must be MIN,MAX with 1 <= MIN <= MAX")
    return lo, hi


# Flags that several commands share; each command registers only those it reads.
_SHARED_FLAGS: dict[str, dict[str, Any]] = {
    "--config": dict(help="JSON config file (base layer under flags)"),
    "--seed": dict(type=int, help="seed (default: config, then $TVAE_SEED, then 0)"),
    "--workers": dict(type=_count, default=1, help="turns in flight at most"),
    "--limit": dict(type=_count, help="load at most N trajectories"),
    "--skip-invalid": dict(action="store_true", help="drop invalid dataset lines instead of failing"),
    "--timeout": dict(type=_seconds, default=30.0, help="remote agent timeout (s)"),
    "--token": dict(help="bearer token for remote agents"),
}
_RUN_FLAGS = tuple(_SHARED_FLAGS)  # simulate and bench-robust read every one


def _add_shared(p: argparse.ArgumentParser, names: Sequence[str]) -> None:
    for name in names:
        p.add_argument(name, **_SHARED_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--budget-multiplier", type=float, help="attempts per ground-truth step")
    _add_shared(p, _RUN_FLAGS)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench-robust", help="evaluate loop rate and recovery on failure cases")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--cases", help="existing failure-case JSONL")
    source.add_argument("--synthesize", action="store_true", help="build cases from --dataset first")
    p.add_argument("--dataset")
    p.add_argument("--per-traj", dest="per_traj", type=int)
    p.add_argument("--agent", required=True)
    p.add_argument("--out", required=True)
    _add_shared(p, _RUN_FLAGS)
    p.set_defaults(func=cmd_bench_robust)

    p = sub.add_parser("synth", help="synthesize datasets, training samples, or benchmarks")
    p.add_argument("--kind", choices=["sft", "bench", "dataset"], required=True)
    p.add_argument("--dataset", help="source trajectories (sft/bench kinds)")
    p.add_argument("--out", required=True)
    p.add_argument("--ratio-b", dest="ratio_b", type=float, help="sft kind: type B share")
    p.add_argument("--per-traj", dest="per_traj", type=int, help="bench kind: cases per trajectory")
    p.add_argument("--count", type=_count, help="dataset kind: trajectory count")
    p.add_argument("--lengths", type=_lengths, help="dataset kind: MIN,MAX steps")
    _add_shared(p, ("--config", "--seed", "--limit", "--skip-invalid"))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="score raw agent outputs against samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--outputs", required=True)
    p.add_argument("--group-logprobs", dest="group_logprobs", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    _add_shared(p, ("--config",))
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="recompute metrics from a trace file")
    p.add_argument("--traces", required=True)
    p.add_argument("--format", choices=[f.value for f in ReportFormat], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
