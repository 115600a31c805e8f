"""The bulk record readers and writers against the per-value reference.

Valid lines of every record kind are mutated at random places with the
values a reader must refuse or convert (booleans, integers beyond the float
range, NaN and infinities, strings, lists, objects, nulls, lists of the
wrong length, unknown and unhashable enum tokens).  Each reader must accept
exactly the lines `reference_records` accepts and build an equal record (by
`repr`, so 1 and 1.0 differ), and on a refused line raise an exception of
the same type with the same message, and each record read must be written
as the text `json.dumps` makes of the reference dict.  The one listed difference: a
line whose `screen_dims` has a component beyond the float range is refused.
Derandomized: a fixed seed, no example database.
"""

from __future__ import annotations

import copy
import json
import math
import random

import reference_records as ref

from tvae_harness.agent_bus import Observation, observation_to_wire, parse_agent_spec
from tvae_harness.errors import DataError
from tvae_harness.failure_forge import (
    FailureCase,
    FailureMode,
    SampleType,
    SyntheticSample,
    build_robustness_bench,
    build_sft_dataset,
    failure_case_from_json,
    failure_case_line,
    sample_from_json,
    sample_line,
)
from tvae_harness.grpo_core import group_output_from_json
from tvae_harness.reward_engine import RewardBreakdown, reward_line
from tvae_harness.sim_engine import (
    AttemptLog,
    CaseResult,
    SimConfig,
    SimTrace,
    case_result_line,
    run_episodes,
    run_failure_cases,
    trace_from_json,
    trace_line,
)
from tvae_harness.synthdata import make_dataset
from tvae_harness.trajectory_store import (
    ActionKind,
    ActionRecord,
    ScrollDirection,
    StepRecord,
    TrajectoryRecord,
    trajectory_from_json,
    trajectory_line,
)
from tvae_harness.tvae_codec import (
    HistoryEntry,
    Verification,
    history_entry_from_json,
    history_entry_line,
)

DIMS = [1080, 2400]
HUGE = 10**400
MUTATIONS = (
    True, False, None, HUGE, -HUGE, math.nan, math.inf, -math.inf,
    "x", "click", "up", "SUCCESS", "type_b", "null_click", "bogus",
    [], ["click"], [0.5], [0.5, 0.5, 0.5], [True, 0.5], {}, {"kind": "click"},
    0, 1, -1, 0.5, -0.5, 2, 540, 1e-12,
)
# Keys a mutation adds to an object: action parameters, and keys no reader knows.
EXTRA_KEYS = ("kind", "coordinate", "direction", "text", "seconds", "coordinate_space", "x")
LINES_PER_KIND = 3000
# A text with every kind of JSON escape: non-ASCII, quotes, a backslash,
# control characters and a block terminator.
ESCAPED = 'caf\u00e9 \u2603 \U0001f600 "q" \\ \x00\x01\x1f\x7f\n\t/</action>'


def _pixelate(node, dims=DIMS):
    """`node` with every coordinate and box in pixels of `dims`, as integers
    for the x components and floats for the y ones."""
    if isinstance(node, list):
        return [_pixelate(v, dims) for v in node]
    if not isinstance(node, dict):
        return node
    out = {k: _pixelate(v, dims) for k, v in node.items()}
    if isinstance(out.get("coordinate"), list):
        x, y = out["coordinate"]
        out["coordinate"] = [round(x * dims[0]), y * dims[1]]
    for key in ("gt_bbox", "target_bbox"):
        if isinstance(out.get(key), list):
            x0, y0, x1, y1 = out[key]
            out[key] = [round(x0 * dims[0]), y0 * dims[1], round(x1 * dims[0]), y1 * dims[1]]
    return out


def _valid_lines() -> dict[str, list]:
    trajs = make_dataset(10, (1, 5), seed=11)
    dataset = [ref.trajectory_to_json(t) for t in trajs]
    for line in dataset[::2]:
        line["steps"] = [{**_pixelate(s), "screen_dims": DIMS} for s in line["steps"]]
    samples = [ref.sample_to_json(s) for s in build_sft_dataset(trajs, 0.5, seed=3)]
    samples += [{**_pixelate(s), "screen_dims": DIMS} for s in samples[::3]]
    cases = [ref.failure_case_to_json(c) for c in build_robustness_bench(trajs, 2, seed=3)]
    cases += [{**_pixelate(c), "screen_dims": DIMS} for c in cases[::2]]
    traces = []
    for i, spec in enumerate(("scripted:failk:1", "scripted:bernoulli:0.5", "scripted:loopy")):
        agent = parse_agent_spec(spec, timeout=5.0)
        traces += run_episodes(trajs[:4], agent, SimConfig(budget_multiplier=2.0, seed=i))
    pixel_click = ActionRecord(kind=ActionKind.CLICK, coordinate=(540.0, 1200.0))
    traces.append(SimTrace("pixel", 1, (
        AttemptLog(pixel_click, False, Verification.SUCCESS, ("a warning",)),
        AttemptLog(None, False, None, ("unparseable turn: x",)),
        AttemptLog(ActionRecord(kind=ActionKind.CLICK, coordinate=(0.5, 0.5)), True,
                   Verification.NO_CHANGE),
    )))
    # escapes, a pixel component written as 1.0, a negative zero, and waits
    # written as an integer and with an exponent
    traces.append(SimTrace(ESCAPED, 4, (
        AttemptLog(ActionRecord(kind=ActionKind.INPUT_TEXT, text=ESCAPED), True,
                   Verification.SUCCESS, (ESCAPED, "", "plain")),
        AttemptLog(ActionRecord(kind=ActionKind.CLICK, coordinate=(1.0000003, 0.5)), False,
                   Verification.SUCCESS, ("coordinate off the screen",)),
        AttemptLog(ActionRecord(kind=ActionKind.LONG_PRESS, coordinate=(-0.0, 0.25)), True,
                   Verification.NO_CHANGE),
        AttemptLog(ActionRecord(kind=ActionKind.WAIT, seconds=540), True, Verification.SUCCESS),
        AttemptLog(ActionRecord(kind=ActionKind.WAIT, seconds=1e300), True, Verification.SUCCESS),
    )))
    history = [
        {"entry": h, "dims": DIMS if "screen_dims" in s else None}
        for s in samples for h in s["history"]
    ]
    rng = random.Random(5)
    groups = []
    for i in range(40):
        n = rng.randint(1, 5)
        output = {
            key: [rng.choice((-rng.random(), -1, 0, 0.0)) for _ in range(n)]
            for key in ("logprobs_new", "logprobs_old", "logprobs_ref")
        }
        if i % 2:
            output["reward"] = rng.choice((0.5, -1, 2))
        if i % 3 == 0:
            output["dist_new"] = [[0.25, 0.75]] * n
            output["dist_ref"] = [[0.5, 0.5]] * n
        groups.append({"output": output, "fallback": 0.25 if i % 4 else None})
    return {
        "dataset": dataset,
        "samples": samples,
        "cases": cases,
        "traces": [ref.trace_to_json(t) for t in traces],
        "history": history,
        "groups": groups,
    }


def _history(read_entry):
    return lambda line: read_entry(
        line["entry"], None if line["dims"] is None else tuple(line["dims"])
    )


def _dumps(ref_write):
    """The text `json.dumps` makes of the dict `ref_write` builds."""
    return lambda *record: json.dumps(ref_write(*record), separators=(",", ":"))


# kind -> (reader, reference reader, writer, reference writer)
KINDS = {
    "dataset": (trajectory_from_json, ref.trajectory_from_json,
                trajectory_line, _dumps(ref.trajectory_to_json)),
    "samples": (sample_from_json, ref.sample_from_json, sample_line, _dumps(ref.sample_to_json)),
    "cases": (failure_case_from_json, ref.failure_case_from_json,
              failure_case_line, _dumps(ref.failure_case_to_json)),
    "traces": (trace_from_json, ref.trace_from_json, trace_line, _dumps(ref.trace_to_json)),
    "history": (_history(history_entry_from_json), _history(ref.history_entry_from_json),
                history_entry_line, _dumps(ref.history_entry_to_json)),
    "groups": (
        lambda line: group_output_from_json(line["output"], line.get("fallback")),
        lambda line: ref.group_output_from_json(line["output"], line.get("fallback")),
        None, None,
    ),
}


def _paths(node, prefix=()):
    """The path of every value below `node`."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(obj, rng: random.Random):
    """A copy of `obj` with one or two values replaced, lists resized, or keys
    dropped or added."""
    obj = copy.deepcopy(obj)
    for _ in range(rng.choice((1, 1, 2))):
        paths = list(_paths(obj))
        if not paths:
            break
        *parents, key = rng.choice(paths)
        parent = obj
        for p in parents:
            parent = parent[p]
        value, roll = parent[key], rng.random()
        if isinstance(value, list) and value and roll < 0.25:
            parent[key] = value[:-1] if rng.random() < 0.5 else value + value[-1:]
        elif isinstance(value, dict) and roll < 0.35:
            value[rng.choice(EXTRA_KEYS)] = copy.deepcopy(rng.choice(MUTATIONS))
        elif isinstance(parent, dict) and roll < 0.35:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(rng.choice(MUTATIONS))
    return obj


def _outcome(read, obj):
    """("read", the record's repr) or ("refused", the exception's type and
    repr), and the record read."""
    try:
        record = read(copy.deepcopy(obj))
    except Exception as exc:  # the oracle compares every exception, bugs included
        return ("refused", type(exc), repr(exc)), None
    return ("read", repr(record)), record


def _beyond_float_range(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return True
    return False


def _has_huge_dims(node) -> bool:
    """True if some `screen_dims` list in `node` has an integer beyond the float range."""
    if isinstance(node, list):
        return any(map(_has_huge_dims, node))
    if not isinstance(node, dict):
        return False
    dims = node.get("screen_dims")
    if isinstance(dims, list) and any(type(v) is int and _beyond_float_range(v) for v in dims):
        return True
    return any(map(_has_huge_dims, node.values()))


def _is_huge_dims_refusal(outcome) -> bool:
    status, *error = outcome
    return status == "refused" and error[0] is DataError and "beyond the float range" in error[1]


def test_bulk_readers_match_the_per_value_reference():
    rng = random.Random(20)
    tally = {}
    for kind, lines in _valid_lines().items():
        read, ref_read, write, ref_write = KINDS[kind]
        counts = tally[kind] = {"read": 0, "refused": 0, "huge_dims": 0}
        mutated = [_mutate(rng.choice(lines), rng) for _ in range(LINES_PER_KIND)]
        for obj in lines + mutated:
            (got, record), (want, _) = _outcome(read, obj), _outcome(ref_read, obj)
            if _is_huge_dims_refusal(got) and not _is_huge_dims_refusal(want):
                assert _has_huge_dims(obj), (kind, obj, got)
                counts["huge_dims"] += 1
                continue
            assert got == want, (kind, obj)
            counts[got[0]] += 1
            if record is not None and write is not None:
                assert repr(write(record)) == repr(ref_write(record)), (kind, obj)
    for kind, counts in tally.items():
        # every kind both reads and refuses a good share of its mutated lines
        assert counts["read"] > 100 and counts["refused"] > 1000, (kind, counts)
    assert tally["dataset"]["huge_dims"] + tally["samples"]["huge_dims"] > 0, tally


def _edge_records():
    """Samples, cases, trajectories and observations that hold every value
    the text writers format: escapes, a negative zero, a pixel coordinate,
    waits written as an integer and with an exponent, and boxes that 6-decimal
    rounding changes."""
    history = (
        HistoryEntry(ActionRecord(kind=ActionKind.INPUT_TEXT, text=ESCAPED), ESCAPED,
                     Verification.SUCCESS),
        HistoryEntry(ActionRecord(kind=ActionKind.OPEN_APP, text="日本"), "x",
                     Verification.NO_CHANGE),
        HistoryEntry(ActionRecord(kind=ActionKind.SCROLL, direction=ScrollDirection.LEFT),
                     "y", Verification.SUCCESS),
        HistoryEntry(ActionRecord(kind=ActionKind.NAVIGATE_BACK), "z", Verification.SUCCESS),
        HistoryEntry(ActionRecord(kind=ActionKind.CLICK, coordinate=(540.0, 1200.0000004)),
                     "w", Verification.SUCCESS),
        HistoryEntry(ActionRecord(kind=ActionKind.WAIT, seconds=540), "v", Verification.SUCCESS),
        HistoryEntry(ActionRecord(kind=ActionKind.WAIT, seconds=1e300), "u",
                     Verification.SUCCESS),
        HistoryEntry(ActionRecord(kind=ActionKind.LONG_PRESS, coordinate=(-0.0, 0.1234565)),
                     "t", Verification.SUCCESS),
    )
    target = ActionRecord(kind=ActionKind.CLICK, coordinate=(0.5000004, 0.4999996))
    box = (0.1234565, 0.2000004999, 0.98765451, 0.8)
    samples = [
        SyntheticSample(SampleType.TYPE_A, ESCAPED, ESCAPED, (),
                        ActionRecord(kind=ActionKind.INPUT_TEXT, text=ESCAPED), ESCAPED),
        SyntheticSample(SampleType.TYPE_B, "i", "s", history, target, "e",
                        FailureMode.NULL_CLICK, box, (1080, 2400)),
        SyntheticSample(SampleType.TYPE_A, "i", "s", history[:3], target, "e", None, box),
        SyntheticSample(SampleType.TYPE_B, "i", "s", history, target, "e",
                        FailureMode.TIMING_ERROR, None, (1, 1)),
    ]
    cases = [
        FailureCase((ESCAPED, 3), ESCAPED, ESCAPED, history, target,
                    FailureMode.ACTION_TYPE_ERROR, box, (1080, 2400)),
        FailureCase(("t", 0), "i", "s", history[-1:], target, FailureMode.COORDINATE_OFFSET),
    ]
    steps = (
        StepRecord(0, ESCAPED, target, ESCAPED, (1080, 2400), box),
        *(StepRecord(i + 1, "s", h.action, "e") for i, h in enumerate(history)),
    )
    trajs = [
        TrajectoryRecord(ESCAPED, ESCAPED, steps, "s", allows_revisits=True),
        TrajectoryRecord("t", "i", steps[:1], "done"),
    ]
    observations = [Observation(ESCAPED, ESCAPED, history, 7), Observation("i", "s", (), 1)]
    return samples, cases, trajs, observations


# Breakdowns with every number form a total takes: a negative zero and an
# exponent (`RewardConfig` keeps every total finite).
EDGE_REWARDS = [
    RewardBreakdown(1.0, 0.75, -2.0, -0.0),
    RewardBreakdown(-1.0, 0.0, -0.5, -1.25, ESCAPED),
    RewardBreakdown(-1.0, 0.0, -0.5, -1.25, ""),
    RewardBreakdown(1.0, 1 / 3, 1.0, 1e300),
]


def test_text_writers_write_what_json_dumps_writes():
    samples, cases, trajs, observations = _edge_records()
    for sample in samples:
        assert sample_line(sample) == _dumps(ref.sample_to_json)(sample)
        for entry in sample.history:
            assert history_entry_line(entry) == _dumps(ref.history_entry_to_json)(entry)
    for case in cases:
        assert failure_case_line(case) == _dumps(ref.failure_case_to_json)(case)
    for traj in trajs:
        assert trajectory_line(traj) == _dumps(ref.trajectory_to_json)(traj)
    for obs in observations:
        assert observation_to_wire(obs) == _dumps(ref.observation_to_json)(obs)
    for b in EDGE_REWARDS:
        assert reward_line(b) == _dumps(ref.reward_to_json)(b)
    # case results: every agent's results on seeded cases, and the edge flags
    trajs = make_dataset(10, (1, 5), seed=11)
    seeded = build_robustness_bench(trajs, 2, seed=3)
    pairs = [(case, CaseResult(True, False, None)) for case in cases]
    for spec in ("scripted:loopy", "scripted:oracle", "scripted:bernoulli:0.5"):
        agent = parse_agent_spec(spec, timeout=5.0)
        pairs += zip(seeded, run_failure_cases(seeded, agent, SimConfig(seed=1)))
    flags = {(r.repeated, r.recovered, r.issued is None) for _, r in pairs}
    assert {(True, False, False), (False, True, False), (True, False, True)} <= flags
    for case, result in pairs:
        assert case_result_line(case, result) == _dumps(ref.case_result_to_json)(case, result)
