"""Evaluation metrics over step predictions, episode traces, and failure
probes, with deterministic report emission.

Step level: type match (TM), grounding rate (GR, pooled over spatial and
text steps with a kind-agnostic denominator, plus GR|TM for comparability),
and step success (SR).  Task level: first-try success (TSR), progress before
first error (PG), success allowing recovery (Sim-TSR), and average step
overhead of completed tasks (ASO, infinite when nothing completed).
Robustness: loop rate (LR) and recovery success rate (RSR).

Each metric function returns a `MetricsReport` holding its part;
`episode_report` is the one place that joins the step and task parts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Sequence

from .errors import DataError
from .reward_engine import match_action, parameters_match
from .sim_engine import CaseResult, Outcome, SimTrace
from .trajectory_store import ActionRecord, StepRecord, TrajectoryRecord

METRIC_COLUMNS = ("tm", "gr", "sr", "tsr", "pg", "sim_tsr", "aso", "lr", "rsr")


@dataclass(frozen=True)
class MetricsReport:
    """Every metric a report can hold; a part not computed stays None."""

    tm: float | None = None
    gr: float | None = None
    sr: float | None = None
    tsr: float | None = None
    pg: float | None = None
    sim_tsr: float | None = None
    aso: float | None = None  # math.inf when no task completed
    lr: float | None = None
    rsr: float | None = None
    gr_given_tm: float | None = None
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tsr is not None and self.sim_tsr is not None and self.tsr > self.sim_tsr + 1e-12:
            raise RuntimeError("report: invalid tsr (recovery can only add completions)")
        if self.sr is not None and self.tm is not None and self.sr > self.tm + 1e-12:
            raise RuntimeError("report: invalid sr (joint correctness implies type match)")
        if self.aso is not None and self.sim_tsr is not None:
            if (self.sim_tsr > 0) == math.isinf(self.aso):
                raise RuntimeError("report: invalid aso (finite iff sim_tsr > 0)")


@dataclass(frozen=True)
class StepPrediction:
    predicted: ActionRecord | None
    gt: StepRecord


def step_metrics(preds: Sequence[StepPrediction]) -> MetricsReport:
    """Compute TM / GR / SR over a prediction set."""
    if not preds:
        raise DataError("no step predictions")
    tm_hits = 0
    sr_hits = 0
    gr_eligible = 0
    gr_hits = 0
    grtm_eligible = 0
    grtm_hits = 0
    for p in preds:
        gt_action = p.gt.gt_action
        kind_ok = p.predicted is not None and p.predicted.kind is gt_action.kind
        tm_hits += kind_ok
        sr_hits += match_action(p.predicted, gt_action, p.gt.gt_bbox)
        if gt_action.is_spatial() or gt_action.is_textual():
            grounded = parameters_match(p.predicted, gt_action, p.gt.gt_bbox)
            gr_eligible += 1
            gr_hits += grounded
            if kind_ok:
                grtm_eligible += 1
                grtm_hits += grounded
    n = len(preds)
    return MetricsReport(
        tm=tm_hits / n,
        gr=gr_hits / gr_eligible if gr_eligible else None,
        sr=sr_hits / n,
        gr_given_tm=grtm_hits / grtm_eligible if grtm_eligible else None,
        counts={
            "step_predictions": n,
            "grounding_eligible": gr_eligible,
            "grounding_type_matched": grtm_eligible,
        },
    )


def first_attempt_predictions(
    traces: Sequence[SimTrace], trajs: Sequence[TrajectoryRecord]
) -> list[StepPrediction]:
    """The first attempt at each ground-truth step of `traces`, paired with
    that step of the run's dataset `trajs`."""
    by_id = {t.id: t for t in trajs}
    preds: list[StepPrediction] = []
    for trace in traces:
        steps = by_id[trace.trajectory_id].steps
        seen: set[int] = set()
        for attempt in trace.attempts:
            if attempt.gt_step not in seen:
                seen.add(attempt.gt_step)
                preds.append(StepPrediction(attempt.issued, steps[attempt.gt_step]))
    return preds


def progress_fraction(trace: SimTrace) -> float:
    """Ground-truth steps cleared before the first failed attempt, over T."""
    prefix = 0
    for attempt in trace.attempts:
        if not attempt.matched:
            break
        prefix += 1
    return prefix / trace.t_gt


def task_metrics(traces: Sequence[SimTrace]) -> MetricsReport:
    """Compute TSR / PG / Sim-TSR / ASO over episode traces."""
    if not traces:
        raise DataError("no traces")
    n = len(traces)
    tsr = sum(t.outcome is Outcome.COMPLETED_FIRST_TRY for t in traces) / n
    # Left to right: from 3.12 on `sum()` compensates float rounding, which
    # would make the report's digits depend on the Python version.
    pg = 0.0
    for t in traces:
        pg += progress_fraction(t)
    pg /= n
    completed = [t for t in traces if t.outcome is not Outcome.BUDGET_EXHAUSTED]
    sim_tsr = len(completed) / n
    if completed:
        aso = sum(t.steps_used - t.t_gt for t in completed) / len(completed)
    else:
        aso = math.inf
    return MetricsReport(
        tsr=tsr,
        pg=pg,
        sim_tsr=sim_tsr,
        aso=aso,
        counts={"tasks": n, "completed_tasks": len(completed)},
    )


def episode_report(
    traces: Sequence[SimTrace], trajs: Sequence[TrajectoryRecord] | None = None
) -> MetricsReport:
    """The report of an episode run: task metrics over `traces`, joined with
    step metrics over their first attempts when the run's dataset `trajs`
    is given."""
    task = task_metrics(traces)
    if trajs is None:
        return task
    step = step_metrics(first_attempt_predictions(traces, trajs))
    return replace(
        step, tsr=task.tsr, pg=task.pg, sim_tsr=task.sim_tsr, aso=task.aso,
        counts={**step.counts, **task.counts},
    )


def robustness_metrics(results: Sequence[CaseResult]) -> MetricsReport:
    """Compute LR / RSR over failure-case results."""
    if not results:
        raise DataError("no failure-case results")
    n = len(results)
    return MetricsReport(
        lr=sum(r.repeated for r in results) / n,
        rsr=sum(r.recovered for r in results) / n,
        counts={"failure_cases": n},
    )


# -- report emission -----------------------------------------------------------------


class ReportFormat(str, Enum):
    JSON = "json"
    CSV = "csv"
    MARKDOWN = "markdown"


def _json_value(value: float | None) -> Any:
    if value is None:
        return None
    if math.isinf(value):
        return "inf"
    return value


def _csv_cell(value: float | None) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    return repr(value)


def _md_cell(value: float | None, percent: bool) -> str:
    if value is None:
        return "--"
    if math.isinf(value):
        return "inf"
    return f"{value * 100:.1f}" if percent else f"{value:.2f}"


def emit_report(report: MetricsReport, fmt: ReportFormat | str = ReportFormat.JSON) -> bytes:
    """Serialize a report deterministically.

    JSON keeps raw fractions (infinity as the string "inf"); CSV uses the
    fixed column order tm,gr,sr,tsr,pg,sim_tsr,aso,lr,rsr; markdown renders
    percentages in a results-table shape.
    """
    fmt = ReportFormat(fmt)
    if fmt is ReportFormat.JSON:
        obj = {col: _json_value(getattr(report, col)) for col in (*METRIC_COLUMNS, "gr_given_tm")}
        obj["counts"] = dict(sorted(report.counts.items()))
        return (json.dumps(obj, indent=2) + "\n").encode("utf-8")
    if fmt is ReportFormat.CSV:
        header = ",".join(METRIC_COLUMNS)
        row = ",".join(_csv_cell(getattr(report, col)) for col in METRIC_COLUMNS)
        return (header + "\n" + row + "\n").encode("utf-8")
    names = ("TM", "GR", "SR", "TSR", "PG", "Sim-TSR", "ASO", "LR", "RSR")
    cells = [
        _md_cell(getattr(report, col), percent=col != "aso") for col in METRIC_COLUMNS
    ]
    lines = [
        "| " + " | ".join(names) + " |",
        "|" + "---|" * len(names),
        "| " + " | ".join(cells) + " |",
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")
