from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import replace

import pytest

from tvae_harness.metric_suite import (
    METRIC_COLUMNS,
    MetricsReport,
    ReportFormat,
    emit_report,
    episode_report,
    robustness_metrics,
)
from tvae_harness.sim_engine import AttemptLog, CaseResult, Outcome, SimTrace, transition
from tvae_harness.trajectory_store import (
    ActionKind,
    ActionRecord,
    ScrollDirection,
    TrajectoryRecord,
)

from conftest import make_click_step, random_valid_action


def step_run(pairs) -> tuple[list[SimTrace], list[TrajectoryRecord]]:
    """One T=1 trajectory per (predicted action, ground-truth step) pair, and
    its one-attempt trace as `transition` decides it."""
    traces, trajs = [], []
    for i, (predicted, step) in enumerate(pairs):
        traj = TrajectoryRecord(f"t{i}", "Do it.", (replace(step, index=0),), "done")
        _, log = transition((), predicted, traj.steps[0])
        traces.append(SimTrace(traj.id, 1, (log,)))
        trajs.append(traj)
    return traces, trajs


# -- step metrics -------------------------------------------------------------------


def test_all_correct():
    steps = [make_click_step(i, coord=(0.5, 0.5)) for i in range(4)]
    m = episode_report(*step_run((s.gt_action, s) for s in steps))
    assert (m.tm, m.gr, m.sr) == (1.0, 1.0, 1.0)


def test_correct_kind_wrong_coordinates():
    steps = [make_click_step(i) for i in range(4)]
    off = ActionRecord(kind=ActionKind.CLICK, coordinate=(0.95, 0.95))
    m = episode_report(*step_run((off, s) for s in steps))
    assert m.tm == 1.0 and m.sr == 0.0 and m.gr == 0.0


def test_single_wrong_kind():
    step = make_click_step(0)
    wrong = ActionRecord(kind=ActionKind.SCROLL, direction=ScrollDirection.UP)
    m = episode_report(*step_run([(wrong, step)]))
    assert (m.tm, m.gr, m.sr) == (0.0, 0.0, 0.0)


def test_gr_denominator_excludes_parameterless_kinds():
    from conftest import make_traj

    back = ActionRecord(kind=ActionKind.NAVIGATE_BACK)
    traj = make_traj([back])
    m = episode_report(*step_run([(back, traj.steps[0])]))
    assert m.tm == 1.0 and m.sr == 1.0
    assert m.gr is None
    assert m.counts["grounding_eligible"] == 0


def test_gr_given_tm_conditions_on_kind():
    steps = [make_click_step(i) for i in range(2)]
    good = steps[0].gt_action
    wrong_kind_good_spot = ActionRecord(kind=ActionKind.LONG_PRESS, coordinate=(0.5, 0.5))
    m = episode_report(*step_run([(good, steps[0]), (wrong_kind_good_spot, steps[1])]))
    assert m.gr == 1.0  # kind-agnostic: both land in the box
    assert m.gr_given_tm == 1.0  # conditioned set is just the first
    assert m.counts["grounding_type_matched"] == 1


def test_sr_le_tm_property(rng: random.Random):
    for _ in range(100):
        steps = [make_click_step(i) for i in range(rng.randint(1, 6))]
        m = episode_report(*step_run((random_valid_action(rng), s) for s in steps))
        assert m.sr <= m.tm + 1e-12


# -- task metrics --------------------------------------------------------------------


def _trace(matched_flags: list[bool], t_gt: int, traj_id="t") -> SimTrace:
    """Build a trace from attempt outcomes under the idempotent rule."""
    attempts = []
    cursor = 0
    for ok in matched_flags:
        attempts.append(
            AttemptLog(
                issued=None if not ok else ActionRecord(kind=ActionKind.NAVIGATE_BACK),
                matched=ok,
                predicted_verification=None,
            )
        )
        if ok:
            cursor += 1
        if cursor == t_gt:
            break
    return SimTrace(traj_id, t_gt, tuple(attempts))


def test_oracle_trace_metrics():
    traces = [_trace([True] * 3, 3), _trace([True] * 5, 5)]
    m = episode_report(traces)
    assert (m.tsr, m.pg, m.sim_tsr, m.aso) == (1.0, 1.0, 1.0, 0.0)


def test_progress_counts_prefix_before_first_error():
    trace = _trace([True, True, False, False, False, False, False, False], 4)
    assert trace.outcome is Outcome.BUDGET_EXHAUSTED
    m = episode_report([trace])
    assert m.pg == 0.5 and m.tsr == 0.0 and m.sim_tsr == 0.0


def test_pg_sums_left_to_right_on_every_python():
    # 0.1 added ten times is 0.9999999999999999; a compensated sum (the
    # `sum()` of Python 3.12 on) would give 1.0 and another report digit.
    traces = [_trace([True, False], 10, traj_id=f"t{i}") for i in range(10)]
    assert {episode_report([t]).pg for t in traces} == {0.1}
    assert episode_report(traces).pg == 0.9999999999999999 / 10


def test_aso_infinite_without_completions():
    m = episode_report([_trace([False] * 4, 2)])
    assert math.isinf(m.aso)


def test_progress_of_first_try_trace_is_one():
    assert episode_report([_trace([True] * 4, 4)]).pg == 1.0


def test_tsr_le_sim_tsr_property(rng: random.Random):
    for _ in range(100):
        traces = []
        for i in range(rng.randint(1, 8)):
            t = rng.randint(1, 3)
            flags = [rng.random() < 0.6 for _ in range(2 * t)]
            traces.append(_trace(flags, t, traj_id=f"t{i}"))
        m = episode_report(traces)
        assert m.tsr <= m.sim_tsr + 1e-12


def test_metrics_permutation_invariant(rng: random.Random):
    traces = [
        _trace([rng.random() < 0.5 for _ in range(4)], 2, traj_id=f"t{i}") for i in range(6)
    ]
    m1 = episode_report(traces)
    shuffled = traces[:]
    rng.shuffle(shuffled)
    assert episode_report(shuffled) == m1


def _enumerate_signatures(t_gt: int):
    """All distinct trace shapes for tasks of length t_gt under budget 2T."""
    sigs = []
    for flags in itertools.product((True, False), repeat=2 * t_gt):
        sigs.append(_trace(list(flags), t_gt))
    return sigs


def test_enumeration_oracle_matches_task_metrics():
    """Recompute the four task metrics by literal formula application."""
    for t_gt in (1, 2, 3):
        for combo_size in (1, 2, 3):
            pool = _enumerate_signatures(t_gt)
            sampled = pool[:: max(1, len(pool) // 8)]  # keep combos tractable
            for combo in itertools.product(sampled, repeat=combo_size):
                traces = [SimTrace(f"t{i}", tr.t_gt, tr.attempts) for i, tr in enumerate(combo)]
                m = episode_report(traces)
                n = len(traces)
                # independent recomputation from first principles: the match
                # flags, not the trace's derived properties
                matches = lambda tr: sum(a.matched for a in tr.attempts)
                tsr = sum(
                    1 for tr in traces
                    if matches(tr) == tr.t_gt and len(tr.attempts) == tr.t_gt
                ) / n
                pg_terms = []
                for tr in traces:
                    prefix = 0
                    for a in tr.attempts:
                        if not a.matched:
                            break
                        prefix += 1
                    pg_terms.append(prefix / tr.t_gt)
                pg = sum(pg_terms) / n
                done = [tr for tr in traces if matches(tr) == tr.t_gt]
                sim_tsr = len(done) / n
                aso = (
                    sum(len(tr.attempts) - tr.t_gt for tr in done) / len(done)
                    if done
                    else math.inf
                )
                assert m.tsr == pytest.approx(tsr)
                assert m.pg == pytest.approx(pg)
                assert m.sim_tsr == pytest.approx(sim_tsr)
                if math.isinf(aso):
                    assert math.isinf(m.aso)
                else:
                    assert m.aso == pytest.approx(aso)


# -- robustness metrics ------------------------------------------------------------------


def test_robustness_means():
    results = [
        CaseResult(repeated=True, recovered=False, issued=None),
        CaseResult(repeated=False, recovered=True, issued=None),
        CaseResult(repeated=False, recovered=False, issued=None),
        CaseResult(repeated=True, recovered=False, issued=None),
    ]
    m = robustness_metrics(results)
    assert m.lr == 0.5 and m.rsr == 0.25
    assert m.lr + m.rsr < 1.0  # the two are independent proportions


# -- report emission -----------------------------------------------------------------------


def _full_report() -> MetricsReport:
    return MetricsReport(
        tm=0.72, gr=0.56, sr=0.46, tsr=0.13, pg=0.23, sim_tsr=0.16, aso=1.25,
        lr=0.24, rsr=0.51, gr_given_tm=0.49, counts={"tasks": 100},
    )


def test_json_round_trip_fixed_point():
    report = _full_report()
    blob = emit_report(report, ReportFormat.JSON)
    parsed = json.loads(blob)
    for col in (*METRIC_COLUMNS, "gr_given_tm"):
        assert parsed[col] == getattr(report, col)
    assert parsed["counts"] == report.counts
    assert (json.dumps(parsed, indent=2) + "\n").encode() == blob


def test_inf_serialized_as_string():
    report = MetricsReport(tsr=0.0, pg=0.1, sim_tsr=0.0, aso=math.inf, counts={"tasks": 3})
    obj = json.loads(emit_report(report, ReportFormat.JSON))
    assert obj["aso"] == "inf"
    csv = emit_report(report, ReportFormat.CSV).decode()
    assert ",inf," in csv
    assert "nan" not in csv.lower()


def test_csv_column_order_contract():
    csv = emit_report(_full_report(), ReportFormat.CSV).decode()
    header = csv.splitlines()[0]
    assert header == "tm,gr,sr,tsr,pg,sim_tsr,aso,lr,rsr"
    assert METRIC_COLUMNS == ("tm", "gr", "sr", "tsr", "pg", "sim_tsr", "aso", "lr", "rsr")


def test_markdown_renders_table():
    md = emit_report(_full_report(), ReportFormat.MARKDOWN).decode()
    lines = md.strip().splitlines()
    assert lines[0].startswith("| TM | GR | SR |")
    assert "72.0" in md and "1.25" in md
