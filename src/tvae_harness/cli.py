"""Command-line front end: reproducible simulate / bench-robust / synth /
score / report runs.

Every setting is one flag of the one command that reads it; a flag left
unset takes the default of its config field.  Every run directory receives a
manifest (written last, atomically) carrying the resolved configuration,
seed, every flag that shapes an output, input hashes, agent identity, and
tool version; re-running with the flags it records reproduces every output
byte for byte.  Exit codes: 0 ok, 1 data problem (a bad input file, flag
value or path, usage errors included), 2 agent unreachable, 3 internal.
Each command accepts only the flags it reads.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import fields
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, NoReturn, Sequence

from . import __version__
from .agent_bus import parse_agent_spec
from .errors import AgentError, DataError
from .failure_forge import (
    DEFAULT_FAILURE_WEIGHTS,
    build_robustness_bench,
    build_sft_dataset,
    failure_case_from_json,
    failure_case_line,
    sample_from_json,
    sample_line,
)
from .metric_suite import ReportFormat, emit_report, episode_report, robustness_metrics
from .records import json_value, read_records, unique_trajectories, write_lines
from .reward_engine import RewardConfig, reward_line, score_output
from .sim_engine import (
    SimConfig,
    case_result_line,
    run_episodes,
    run_failure_cases,
    trace_from_json,
    trace_line,
)
from .trajectory_store import load_dataset, save_dataset

EXIT_OK = 0
EXIT_DATA = 1
EXIT_AGENT = 2
EXIT_INTERNAL = 3

# The largest --timeout (s): epoll waits at most 2,147,483.647 s, and deadlines must fit time_t.
MAX_TIMEOUT_S = 1_000_000


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


def _write_manifest(out_dir: Path, manifest: dict[str, Any]) -> None:
    _atomic_write(
        out_dir / "manifest.json", (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
    )


def _settings(cls: type, flags: Mapping[str, Any], **fixed: Any) -> Any:
    """`cls` from the `flags` that were given; a flag left unset (None)
    passes nothing, so the field keeps its one default."""
    return cls(**fixed, **{name: value for name, value in flags.items() if value is not None})


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


# Flags that only some modes of `synth`, `bench-robust` and `score` read, and
# the value each takes when its mode reads it and it is not given (None: the
# config field's default).  This is the one home of the `--ratio-b`,
# `--per-traj`, `--count` and `--lengths` defaults: the library functions
# that take them have none.
_MODE_FLAG_DEFAULTS: dict[str, Any] = {
    "dataset": None, "limit": None, "skip_invalid": False,
    "ratio_b": 0.3, "per_traj": 1, "count": 100, "lengths": (1, 8),
    "eps_clip": None, "kl_lambda": None, "kl_estimator": None,
}
# The mode flags each `synth --kind` reads; `bench-robust --synthesize` reads the bench kind's.
_KIND_READS: dict[str, set[str]] = {
    "dataset": {"count", "lengths"},
    "sft": {"dataset", "limit", "skip_invalid", "ratio_b"},
    "bench": {"dataset", "limit", "skip_invalid", "per_traj"},
}
# The mode flags `score --group-logprobs` reads, and plain `score` does not.
_GRPO_READS = {"eps_clip", "kl_lambda", "kl_estimator"}


def _check_mode_flags(args: argparse.Namespace, mode: str, reads: set[str]) -> dict[str, Any]:
    """The value of each mode flag that `mode` reads, its default when it was
    not given.  A given mode flag (one not None or False) that `mode` does not
    read is a usage error."""
    flags = {}
    for name, default in _MODE_FLAG_DEFAULTS.items():
        value = getattr(args, name, None)
        if name in reads:
            flags[name] = default if value is None else value
        elif value is not None and value is not False:
            raise DataError(f"{mode} does not read --{name.replace('_', '-')}")
    return flags


# -- commands --------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    sim = _settings(SimConfig, {"budget_multiplier": args.budget_multiplier}, seed=args.seed)
    trajs = load_dataset(args.dataset, limit=args.limit, skip_invalid=args.skip_invalid)
    if not trajs:
        raise DataError("dataset is empty")
    agent = parse_agent_spec(args.agent, timeout=args.timeout, token=args.token)
    try:
        traces = run_episodes(trajs, agent, sim, workers=args.workers)
    finally:
        agent.close()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_lines(out_dir / "traces.jsonl", map(trace_line, traces))
    report = episode_report(traces, trajs)
    _atomic_write(out_dir / "report.json", emit_report(report, ReportFormat.JSON))
    outputs = ["traces.jsonl", "report.json"]
    for fmt in dict.fromkeys(args.formats or ()):
        outputs.append("report." + {"csv": "csv", "markdown": "md"}[fmt])
        _atomic_write(out_dir / outputs[-1], emit_report(report, ReportFormat(fmt)))
    _write_manifest(
        out_dir,
        {
            "command": "simulate",
            "version": __version__,
            "seed": args.seed,
            "workers": args.workers,
            "agent": agent.identity,
            "dataset": str(args.dataset),
            "dataset_sha256": _sha256(args.dataset),
            "limit": args.limit,
            "skip_invalid": args.skip_invalid,
            "config": _config_snapshot(sim=sim),
            "outputs": outputs,
        },
    )
    aso = "inf" if math.isinf(report.aso) else f"{report.aso:.3f}"
    print(
        f"simulate: {len(traces)} episodes | TSR {report.tsr:.3f} | PG {report.pg:.3f} "
        f"| Sim-TSR {report.sim_tsr:.3f} | ASO {aso}"
    )
    return EXIT_OK


def cmd_bench_robust(args: argparse.Namespace) -> int:
    mode, reads = ("--synthesize", _KIND_READS["bench"]) if args.synthesize else ("--cases", set())
    flags = _check_mode_flags(args, f"bench-robust {mode}", reads)
    # Nothing is written before the agent has answered every case.
    agent = parse_agent_spec(args.agent, timeout=args.timeout, token=args.token)
    try:
        if args.synthesize:
            if not args.dataset:
                raise DataError("--synthesize requires --dataset")
            trajs = load_dataset(args.dataset, limit=args.limit, skip_invalid=args.skip_invalid)
            cases = build_robustness_bench(trajs, per_traj=flags["per_traj"], seed=args.seed)
        else:
            cases = read_records(args.cases, failure_case_from_json, "failure case")
        if not cases:
            raise DataError("no failure cases")
        results = run_failure_cases(cases, agent, SimConfig(seed=args.seed), workers=args.workers)
    finally:
        agent.close()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.synthesize:
        cases_path = out_dir / "cases.jsonl"
        write_lines(cases_path, map(failure_case_line, cases))
    else:
        cases_path = Path(args.cases)
    write_lines(out_dir / "case_results.jsonl", map(case_result_line, cases, results))
    report = robustness_metrics(results)
    _atomic_write(out_dir / "report.json", emit_report(report, ReportFormat.JSON))
    _write_manifest(
        out_dir,
        {
            "command": "bench-robust",
            "version": __version__,
            "seed": args.seed,
            "agent": agent.identity,
            # synthesized cases live inside the run dir; record them by name
            "cases": cases_path.name if args.synthesize else str(cases_path),
            "cases_sha256": _sha256(cases_path),
            "synthesized": bool(args.synthesize),
            **({"dataset": str(args.dataset), "dataset_sha256": _sha256(args.dataset),
                "limit": args.limit, "skip_invalid": args.skip_invalid,
                "per_traj": flags["per_traj"]}
               if args.synthesize else {}),
            "outputs": ["case_results.jsonl", "report.json"],
        },
    )
    print(f"bench-robust: {len(cases)} cases | LR {report.lr:.3f} | RSR {report.rsr:.3f}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    flags = _check_mode_flags(args, f"synth --kind {args.kind}", _KIND_READS[args.kind])
    out_dir = Path(args.out)  # made only once its rows are built
    manifest: dict[str, Any] = {
        "command": "synth",
        "version": __version__,
        "kind": args.kind,
        "seed": args.seed,
    }
    if args.kind == "dataset":
        from .synthdata import make_dataset

        count, lengths = flags["count"], flags["lengths"]
        trajs = make_dataset(count, lengths, seed=args.seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_dataset(trajs, out_dir / "dataset.jsonl")
        manifest.update(count=count, lengths=list(lengths), outputs=["dataset.jsonl"])
    else:
        if not args.dataset:
            raise DataError("synth sft/bench requires --dataset")
        trajs = load_dataset(args.dataset, limit=args.limit, skip_invalid=args.skip_invalid)
        manifest.update(
            dataset=str(args.dataset), dataset_sha256=_sha256(args.dataset),
            limit=args.limit, skip_invalid=args.skip_invalid,
        )
        weights = {m.value: w for m, w in DEFAULT_FAILURE_WEIGHTS.items()}
        if args.kind == "sft":
            samples = build_sft_dataset(trajs, ratio_b=flags["ratio_b"], seed=args.seed)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_lines(out_dir / "samples.jsonl", map(sample_line, samples))
            manifest.update(
                ratio_b=flags["ratio_b"], weights=weights, outputs=["samples.jsonl"],
                sample_count=len(samples),
            )
        else:
            cases = build_robustness_bench(trajs, per_traj=flags["per_traj"], seed=args.seed)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_lines(out_dir / "cases.jsonl", map(failure_case_line, cases))
            manifest.update(
                per_traj=flags["per_traj"], weights=weights, outputs=["cases.jsonl"],
                case_count=len(cases),
            )
    _write_manifest(out_dir, manifest)
    print(f"synth: wrote {manifest['outputs']} to {out_dir}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    # Every input is read and checked before --out is touched.
    mode, reads = (
        ("score --group-logprobs", _GRPO_READS) if args.group_logprobs else ("score", set())
    )
    flags = _check_mode_flags(args, mode, reads)
    reward_cfg = _settings(RewardConfig, {"alpha": args.alpha, "beta": args.beta})
    grpo_cfg = None
    if args.group_logprobs:
        from . import grpo_core  # only --group-logprobs runs the objective

        if flags["kl_estimator"] is not None:
            try:
                flags["kl_estimator"] = grpo_core.KlEstimator(flags["kl_estimator"])
            except ValueError:
                choices = ", ".join(e.value for e in grpo_core.KlEstimator)
                raise DataError(f"--kl-estimator must be one of {choices}") from None
        grpo_cfg = _settings(grpo_core.GrpoConfig, flags)
    samples = read_records(args.samples, sample_from_json, "sample")
    raws = read_records(args.outputs, lambda obj: json_value(obj, "raw", str, "output"), "output")
    if len(samples) != len(raws):
        raise DataError(f"{len(samples)} samples vs {len(raws)} outputs")
    if not samples:
        raise DataError("no outputs to score")
    breakdowns = [score_output(raw, sample, reward_cfg) for raw, sample in zip(raws, samples)]
    outputs = ["rewards.jsonl"]
    sections: dict[str, Any] = {"reward": reward_cfg}
    objective: dict[str, Any] | None = None
    if grpo_cfg is not None:
        # An output without a "reward" takes the scored total at its position;
        # past the last one it takes 0.0 until the coverage check below fails.
        totals = itertools.chain((b.total for b in breakdowns), itertools.repeat(0.0))
        groups = grpo_core.read_group_batches(args.group_logprobs, totals)
        covered = sum(len(g.outputs) for g in groups)
        if covered != len(samples):
            raise DataError(
                f"group log-probs cover {covered} outputs but {len(samples)} were scored"
            )
        reports = [grpo_core.objective_report(g, grpo_cfg) for g in groups]
        # JSON has no infinity or NaN; a finite objective has only finite parts.
        for i, report in enumerate(reports, 1):
            if not math.isfinite(report["objective"]):
                raise DataError(f"group {i}: objective is not finite ({report['objective']!r})")
        mean = grpo_core.exact_mean([r["objective"] for r in reports])
        objective = {"groups": reports, "mean_objective": mean}
        outputs.append("objective.json")
        sections["grpo"] = grpo_cfg

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_lines(out_dir / "rewards.jsonl", map(reward_line, breakdowns))
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
        manifest["group_logprobs_sha256"] = _sha256(args.group_logprobs)
    _write_manifest(out_dir, manifest)
    print(f"score: {len(breakdowns)} outputs scored")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    parse = unique_trajectories(trace_from_json, "trajectory_id")
    traces = read_records(args.traces, parse, "trace")
    data = emit_report(episode_report(traces), ReportFormat(args.format))
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
    """`type=` of --timeout: a number in (0, MAX_TIMEOUT_S]."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # fails the check below
    if not 0 < value <= MAX_TIMEOUT_S:
        raise argparse.ArgumentTypeError(f"must be a number > 0 and <= {MAX_TIMEOUT_S}")
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
    "--seed": dict(type=int, default=0, help="seed of every random draw"),
    "--workers": dict(type=_count, default=1, help="turns in flight at most"),
    "--limit": dict(type=_count, help="load at most N trajectories"),
    "--skip-invalid": dict(action="store_true", help="drop invalid dataset lines instead of failing"),
    "--timeout": dict(type=_seconds, default=30.0, help="stdio turn or remote socket timeout (s)"),
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
    _add_shared(p, ("--seed", "--limit", "--skip-invalid"))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="score raw agent outputs against samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--outputs", required=True)
    p.add_argument("--group-logprobs", dest="group_logprobs", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, help="weight of the effect reward")
    p.add_argument("--beta", type=float, help="weight of the verification reward")
    p.add_argument("--eps-clip", type=float, help="with --group-logprobs: ratio clip window")
    p.add_argument("--kl-lambda", type=float, help="with --group-logprobs: KL penalty weight")
    p.add_argument("--kl-estimator", help="with --group-logprobs: k3 or exact")
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
    except (DataError, OSError) as exc:  # OSError: an unusable path
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
