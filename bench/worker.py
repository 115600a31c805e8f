"""One timed benchmark run in a fresh interpreter.

    python3 bench/worker.py SPAWN_MONOTONIC JOB.json

Imports `tvae_harness.cli` (the time from SPAWN_MONOTONIC, taken by the
parent just before it started this process, to the end of that import is
`setup_s`), then calls `cli.main` for each command of the job in turn and
times each call.  With `"trace": true` the measured functions are wrapped
after the import and the spans are written to `spans_out` once all commands
have run.  The result goes to `result_out` as JSON.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    spawned = float(sys.argv[1])
    with open(sys.argv[2], "r", encoding="utf-8") as fh:
        job = json.load(fh)

    import tvae_harness.cli as cli

    setup_s = time.monotonic() - spawned
    if not cli.__file__.startswith(job["src"]):
        print(f"imported {cli.__file__}, not the checkout's {job['src']}", file=sys.stderr)
        return 3

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.install()

    commands = []
    for argv in job["commands"]:
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        commands.append({"argv": argv, "exit": code, "wall_s": time.perf_counter() - start})
        if code != 0:
            break

    if tracer is not None:
        tracer.dump(job["spans_out"])
    import numpy

    result = {"setup_s": setup_s, "commands": commands, "numpy": numpy.__version__}
    with open(job["result_out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
