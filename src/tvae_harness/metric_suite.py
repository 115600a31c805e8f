"""Evaluation metrics over episode traces and failure probes, with
deterministic report emission.

Step level, over the first attempt at each ground-truth step: type match
(TM), grounding rate (GR, pooled over spatial and text steps with a
kind-agnostic denominator, plus GR|TM for comparability), and step success
(SR).  Task level: first-try success (TSR), progress before
first error (PG), success allowing recovery (Sim-TSR), and average step
overhead of completed tasks (ASO, infinite when nothing completed).
Robustness: loop rate (LR) and recovery success rate (RSR).

`episode_report` builds an episode run's report in one pass over its
traces; `robustness_metrics` builds a robustness run's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

from .errors import DataError
from .reward_engine import parameters_match
from .sim_engine import CaseResult, Outcome, SimTrace
from .trajectory_store import TrajectoryRecord

METRIC_COLUMNS = ("tm", "gr", "sr", "tsr", "pg", "sim_tsr", "aso", "lr", "rsr")


@dataclass(slots=True)
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


def episode_report(
    traces: Sequence[SimTrace], trajs: Sequence[TrajectoryRecord] | None = None
) -> MetricsReport:
    """The report of an episode run, from one pass over `traces` and their
    attempts: the task metrics, and the step metrics when the run's dataset
    `trajs` is given.  `task_metrics` and `step_metrics` turn the pass's
    counts into rates.

    Each episode's outcome is its `SimTrace`'s, given the matches counted.
    The first attempt at a step is the episode's first attempt and every one
    that follows a match; its SR is its match flag, which `transition`
    decided with `match_action`."""
    if not traces:
        raise DataError("no traces")
    steps_of = None if trajs is None else {t.id: t.steps for t in trajs}
    first_try = completed = overhead = 0
    n = tm_hits = sr_hits = gr_eligible = gr_hits = grtm_eligible = grtm_hits = 0
    # Left to right: from 3.12 on `sum()` compensates float rounding, which
    # would make the report's digits depend on the Python version.
    pg = 0.0
    for trace in traces:
        steps = None if steps_of is None else steps_of[trace.trajectory_id]
        # PG's prefix is the matches before the first miss, which is a first
        # attempt: every attempt before it matched.
        cursor, prefix, first = 0, -1, True
        for attempt in trace.attempts:
            matched = attempt.matched
            if first:
                if not matched and prefix < 0:
                    prefix = cursor
                if steps is not None:
                    gt = steps[cursor]
                    gt_action, issued = gt.gt_action, attempt.issued
                    kind_ok = issued is not None and issued.kind is gt_action.kind
                    n += 1
                    tm_hits += kind_ok
                    sr_hits += matched
                    if gt_action.is_spatial() or gt_action.is_textual():
                        grounded = parameters_match(issued, gt_action, gt.gt_bbox)
                        gr_eligible += 1
                        gr_hits += grounded
                        if kind_ok:
                            grtm_eligible += 1
                            grtm_hits += grounded
            cursor += matched
            first = matched
        outcome = trace.outcome_given(cursor)
        first_try += outcome is Outcome.COMPLETED_FIRST_TRY
        if outcome is not Outcome.BUDGET_EXHAUSTED:
            completed += 1
            overhead += len(trace.attempts) - trace.t_gt
        pg += (cursor if prefix < 0 else prefix) / trace.t_gt
    tasks = len(traces)
    counts = {"tasks": tasks, "completed_tasks": completed}
    step: dict[str, float | None] = {}
    if steps_of is not None:
        step = step_metrics(n, tm_hits, sr_hits, gr_eligible, gr_hits, grtm_eligible, grtm_hits)
        counts.update(step_predictions=n, grounding_eligible=gr_eligible,
                      grounding_type_matched=grtm_eligible)
    return MetricsReport(
        counts=counts, **task_metrics(tasks, first_try, completed, overhead, pg), **step
    )


def task_metrics(
    tasks: int, first_try: int, completed: int, overhead: int, pg: float
) -> dict[str, float]:
    """TSR, PG, Sim-TSR and ASO from an episode run's task counts and its
    summed step overheads (of completed tasks) and progress fractions."""
    aso = overhead / completed if completed else math.inf
    return {"tsr": first_try / tasks, "pg": pg / tasks, "sim_tsr": completed / tasks, "aso": aso}


def step_metrics(
    n: int, tm: int, sr: int, gr_n: int, gr: int, grtm_n: int, grtm: int
) -> dict[str, float | None]:
    """TM, SR, GR and GR|TM from the hits among `n` first attempts at steps,
    `gr_n` of them grounding-eligible and `grtm_n` of those type-matched."""
    return {"tm": tm / n, "sr": sr / n, "gr": gr / gr_n if gr_n else None,
            "gr_given_tm": grtm / grtm_n if grtm_n else None}


def robustness_metrics(results: Sequence[CaseResult]) -> MetricsReport:
    """Compute LR / RSR over failure-case results."""
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


def emit_report(report: MetricsReport, fmt: ReportFormat) -> bytes:
    """Serialize a report deterministically.

    JSON keeps raw fractions (infinity as the string "inf"); CSV uses the
    fixed column order tm,gr,sr,tsr,pg,sim_tsr,aso,lr,rsr; markdown renders
    percentages in a results-table shape.
    """
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
