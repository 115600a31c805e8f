"""Span tracer for the traced benchmark run.

`install()` wraps the measured public functions of `tvae_harness` at every
place they are bound: each module global that holds the original function
object, and the `turn` method of the agent classes.  Every call records a
span (name, start, end, parent, thread, episode id, outcome flag) in memory;
`Tracer.dump` writes them once, at the end of the run.

A span opened on a pool thread with nothing open on that thread takes the
innermost span open on the main thread as its parent, so the time
`run_episodes` spends waiting on its workers is charged to the workers.

`analyse` turns the spans into per-name call counts, inclusive time and
self time (span time minus the part of it that child spans cover).
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

# module -> public functions ("Class.method" for methods).  Both agent
# classes' `turn` report under the one name `agent_bus.turn`.
TARGETS: dict[str, tuple[str, ...]] = {
    "trajectory_store": ("load_dataset", "save_dataset", "normalize_action"),
    "tvae_codec": ("parse_tvae", "emit_tvae"),
    "agent_bus": ("ScriptedAgent.turn", "RemoteAgent.turn", "observation_to_wire"),
    "sim_engine": (
        "run_episodes", "run_episode", "transition", "run_failure_cases",
        "run_failure_case", "write_traces", "read_traces",
    ),
    "failure_forge": (
        "sample_corruption", "corrupt_action", "build_sft_dataset",
        "build_robustness_bench", "sample_to_json", "sample_from_json",
        "failure_case_to_json", "failure_case_from_json", "read_jsonl", "write_jsonl",
    ),
    "reward_engine": ("match_action", "composite_reward"),
    "grpo_core": ("objective_report", "group_output_from_json", "read_group_batches"),
    "metric_suite": ("step_metrics", "task_metrics", "robustness_metrics", "emit_report"),
    "cli": ("main",),
    "seeding": ("stable_seed",),
}
SPAN_ALIASES = {
    "agent_bus.ScriptedAgent.turn": "agent_bus.turn",
    "agent_bus.RemoteAgent.turn": "agent_bus.turn",
}
FLAG_OK, FLAG_WARN, FLAG_RAISED = 0, 1, 2

# Span record fields.
NAME, START, END, PARENT, THREAD, CTX, FLAG = range(7)


def _episode_ctx(name: str) -> Callable[[tuple], str] | None:
    if name == "sim_engine.run_episode":
        return lambda args: str(args[0].id)
    if name == "sim_engine.run_failure_case":
        return lambda args: f"{args[0].source[0]}#{args[0].source[1]}"
    return None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[Any]] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.get_ident() == self._main_thread
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans, lock, main_stack = self.spans, self._lock, self._main_stack
        ctx_of = _episode_ctx(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            if ctx_of is not None:
                ctx = ctx_of(args)
            else:
                ctx = spans[parent][CTX] if parent >= 0 else None
            record = [name_id, 0, 0, parent, threading.get_ident(), ctx, FLAG_OK]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[FLAG] = FLAG_RAISED
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if getattr(result, "warnings", None):
                record[FLAG] = FLAG_WARN
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "missing": self.missing}, fh)


def install(package: str = "tvae_harness") -> Tracer:
    """Wrap every target function wherever the package binds it."""
    tracer = Tracer()
    modules = {}
    for module_name in TARGETS:
        modules[module_name] = importlib.import_module(f"{package}.{module_name}")
    bound = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == package or key.startswith(package + "."))
    ]
    for module_name, attrs in TARGETS.items():
        module = modules[module_name]
        for attr in attrs:
            full = f"{module_name}.{attr}"
            span_name = SPAN_ALIASES.get(full, full)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, method, None) if owner is not None else None
                if original is None:
                    tracer.missing.append(full)
                    continue
                setattr(owner, method, tracer.wrap(span_name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing.append(full)
                continue
            wrapped = tracer.wrap(span_name, original)
            for other in bound:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
    return tracer


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyse(dump: dict[str, Any]) -> dict[str, Any]:
    """Per-name calls, inclusive and self nanoseconds, flag counts; plus the
    sum over root spans (the traced wall the self times must account for)."""
    names, spans = dump["names"], dump["spans"]
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    per_name: dict[str, dict[str, int]] = defaultdict(
        lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0, "warn": 0, "raised": 0}
    )
    root_ns = 0
    self_sum = 0
    for index, rec in enumerate(spans):
        duration = rec[END] - rec[START]
        kids = children.get(index)
        own = duration - (_covered(kids) if kids else 0)
        agg = per_name[names[rec[NAME]]]
        agg["calls"] += 1
        agg["incl_ns"] += duration
        agg["self_ns"] += own
        agg["warn"] += rec[FLAG] == FLAG_WARN
        agg["raised"] += rec[FLAG] == FLAG_RAISED
        self_sum += own
        if rec[PARENT] < 0:
            root_ns += duration
    return {
        "per_name": dict(per_name),
        "root_ns": root_ns,
        "self_sum_ns": self_sum,
        "spans": len(spans),
        "missing": list(dump["missing"]),
    }


def outermost_ns(dump: dict[str, Any], group: set[str]) -> int:
    """Inclusive time of the spans in `group` that have no ancestor in it."""
    names, spans = dump["names"], dump["spans"]
    ids = {i for i, n in enumerate(names) if n in group}
    total = 0
    for rec in spans:
        if rec[NAME] not in ids:
            continue
        parent = rec[PARENT]
        while parent >= 0 and spans[parent][NAME] not in ids:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += rec[END] - rec[START]
    return total
