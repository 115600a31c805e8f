"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py -q

For every workload: two untraced runs of the same seed end correct, print
every end-to-end metric of BENCHMARK.json with its unit, print a finite
`metric <name> <value> <unit>` line for each workload-specific metric and for
`fail_frac`, and print the same output digest; a traced run prints every
per-layer metric with its unit.
Also checks that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0.5", "--scale", "0.02"]
# Metrics printed by name and unit but not in the final JSON line.
PRINTED = {
    "replay": {"fail_frac": "ratio"},
    "remote": {"fail_frac": "ratio", "agent_busy_frac": "ratio",
               "turn_gap_p50_ms": "ms", "turn_gap_p99_ms": "ms"},
    "forge_score": {"fail_frac": "ratio", "samples_per_s": "1/s", "cases_per_s": "1/s",
                    "outputs_per_s": "1/s"},
}


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _assert_printed(lines: list[str], expected: dict[str, str]) -> None:
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(maxsplit=4)[:4]
            printed[name] = (float(value), unit)
    for name, unit in expected.items():
        assert name in printed, f"no metric line for {name}"
        value, got_unit = printed[name]
        assert got_unit == unit and math.isfinite(value), (name, value, got_unit)


def _digest(lines: list[str]) -> str:
    (line,) = [line for line in lines if line.startswith("digest ")]
    return line.split()[1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_metrics_and_repeatable_outputs(workload):
    digests = []
    for _ in range(2):
        code, lines = _run(workload, seed=7, trace=0)
        assert code == 0
        _assert_metrics(_result(lines), SPEC["end_to_end"])
        _assert_printed(lines, PRINTED[workload])
        digests.append(_digest(lines))
    assert digests[0] == digests[1]

    code, lines = _run(workload, seed=7, trace=1)
    assert code == 0
    _assert_metrics(_result(lines), SPEC["per_layer"])
    assert _digest(lines) == digests[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("replay", seed=1, trace=0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
