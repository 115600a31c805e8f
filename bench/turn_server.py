"""Deterministic HTTP turn server for the `remote` workload.

Run as its own process:

    python3 bench/turn_server.py --dataset D.jsonl --seed N

It prints `PORT <n>` once it listens on 127.0.0.1.  Each `POST /turn`
answer depends only on the request's `(screen_ref, len(history))`: every
ground-truth step has a planned number of wrong attempts (see `plan_wrongs`)
after which the correct action comes, as a `NO_CHANGE` recovery when the step
failed before.  Steps with `screen_dims` are answered in raw pixels.

Commands on stdin: `stats` prints one JSON line with the counters since the
previous `stats` (requests, request bytes, busy seconds and the per-connection
gaps between a reply and that connection's next request) and resets them;
`quit` or end of input stops the server.

Two handler threads serve connections, one at a time each, and every reply
is written with a single `sendall` on a `TCP_NODELAY` socket, so no turn
waits on a delayed ACK.
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import sys
import threading
import time
from typing import Any

from inputs import action_wire, read_jsonl, turn_text, wrong_action

HANDLER_THREADS = 2
SERVICE_S = 0.001  # fixed time each turn takes the agent
WRONG_SHARE = 0.35


def plan_wrongs(seed: int, trajs: list[dict[str, Any]]) -> dict[str, list[int]]:
    """Wrong attempts before the correct one, per step of each trajectory.

    A trajectory of T steps gets round(0.35 T) wrong attempts, at most two
    on one step, so every episode completes within its 2T budget and the
    total number of turns depends only on the trajectory lengths.
    """
    rng = random.Random(f"bench-remote-plan|{seed}")
    plan = {}
    for traj in trajs:
        size = len(traj["steps"])
        wrongs = [0] * size
        for _ in range(int(WRONG_SHARE * size + 0.5)):
            open_steps = [t for t in range(size) if wrongs[t] < 2]
            wrongs[rng.choice(open_steps)] += 1
        plan[traj["id"]] = wrongs
    return plan


def relative_action(action: dict[str, Any], dims: list[int] | None) -> dict[str, Any]:
    """Dataset action with pixel coordinates converted to relative ones."""
    if "coordinate" not in action or dims is None:
        return action
    x, y = action["coordinate"]
    return {**action, "coordinate": [x / dims[0], y / dims[1]]}


class TurnTable:
    """Answers keyed by (screen_ref, history length)."""

    def __init__(self, trajs: list[dict[str, Any]], plan: dict[str, list[int]]):
        self.steps: dict[str, tuple] = {}
        for traj in trajs:
            wrongs = plan[traj["id"]]
            failed_before = 0
            for step in traj["steps"]:
                t = step["index"]
                dims = step.get("screen_dims")
                gt = relative_action(step["gt_action"], dims)
                self.steps[step["screen_ref"]] = (
                    t, failed_before, wrongs[t], gt, dims,
                    step["reference_effect"], traj["instruction"],
                )
                failed_before += wrongs[t]

    def answer(self, screen_ref: str, history_len: int) -> str:
        t, failed_before, wrongs, gt, dims, effect, instruction = self.steps[screen_ref]
        failed_here = history_len - t - failed_before
        if failed_here < wrongs:
            verification = "SUCCESS" if failed_here == 0 else "NO_CHANGE"
            return turn_text(action_wire(wrong_action(gt)), verification,
                             "A different screen will open.", instruction)
        verification = "NO_CHANGE" if failed_here > 0 else "SUCCESS"
        return turn_text(action_wire(gt, dims), verification, effect, instruction)


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.request_bytes = 0
        self.busy_s = 0.0
        self.gaps_s: list[float] = []
        self.bad_requests = 0

    def snapshot_and_reset(self) -> dict[str, Any]:
        with self.lock:
            snap = {
                "requests": self.requests,
                "request_bytes": self.request_bytes,
                "busy_s": self.busy_s,
                "gaps_s": self.gaps_s,
                "bad_requests": self.bad_requests,
            }
            self.reset()
        return snap


def _read_request(conn: socket.socket, buf: bytearray) -> tuple[bytes, int, float] | None:
    """Read one HTTP request; returns (body, bytes read, first-byte time)."""
    first = None
    while b"\r\n\r\n" not in buf:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        if first is None:
            first = time.perf_counter()
        buf += chunk
    head, _, rest = bytes(buf).partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        rest += chunk
    body, tail = rest[:length], rest[length:]
    buf[:] = tail
    if first is None:
        first = time.perf_counter()
    return body, len(head) + 4 + length, first


def _reply(conn: socket.socket, status: str, body: bytes) -> None:
    head = (
        f"HTTP/1.1 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    ).encode("ascii")
    conn.sendall(head + body)


def _serve_connection(conn: socket.socket, table: TurnTable, stats: Stats):
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buf = bytearray()
    last_reply = None
    while True:
        request = _read_request(conn, buf)
        if request is None:
            return
        body, nbytes, first_byte = request
        try:
            obs = json.loads(body)
            text = table.answer(obs["screen_ref"], len(obs["history"]))
            status, payload = "200 OK", text.encode("utf-8")
        except (ValueError, KeyError, TypeError) as exc:
            status, payload = "400 Bad Request", str(exc).encode("utf-8")
        time.sleep(SERVICE_S)
        _reply(conn, status, payload)
        done = time.perf_counter()
        with stats.lock:
            stats.requests += 1
            stats.request_bytes += nbytes
            stats.busy_s += done - first_byte
            stats.bad_requests += status != "200 OK"
            if last_reply is not None:
                stats.gaps_s.append(first_byte - last_reply)
        last_reply = done


def _handler_loop(listener: socket.socket, table: TurnTable, stats: Stats):
    while True:
        try:
            conn, _ = listener.accept()
        except OSError:
            return  # listener closed
        with conn:
            try:
                _serve_connection(conn, table, stats)
            except OSError:
                pass  # client went away mid-request


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    trajs = read_jsonl(args.dataset)
    table = TurnTable(trajs, plan_wrongs(args.seed, trajs))
    stats = Stats()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    threads = [
        threading.Thread(target=_handler_loop, args=(listener, table, stats), daemon=True)
        for _ in range(HANDLER_THREADS)
    ]
    for thread in threads:
        thread.start()
    print(f"PORT {listener.getsockname()[1]}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(stats.snapshot_and_reset()), flush=True)
            elif command == "quit":
                break
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the threads blocked in accept()
        listener.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
