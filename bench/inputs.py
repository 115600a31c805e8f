"""Seeded input generator for the benchmark.

Everything here is plain Python and `json`: it never imports the package
under test, so both commits of a comparison read byte-identical inputs for
the same seed.  Three kinds of input are made:

* trajectory datasets (JSONL, the `load_dataset` format).  A share of the
  steps carry `screen_dims` and store their coordinates and boxes in raw
  pixels, which exercises load-time normalisation;
* raw agent outputs for `score`, derived from a `samples.jsonl` file: correct
  turns (some in pixel coordinates, some with unknown think tags), wrong
  turns and unparseable text;
* group log-probs for `score --group-logprobs`.

Trajectory lengths are a fixed multiset shuffled by the seed, so the amount
of work does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Any

KINDS = (
    ("click", 0.50),
    ("scroll", 0.12),
    ("input_text", 0.12),
    ("long_press", 0.08),
    ("navigate_back", 0.07),
    ("open_app", 0.06),
    ("wait", 0.05),
)
APPS = ("Maps", "Mail", "Music", "Notes", "Camera", "Clock", "Files", "Shop", "Wallet")
TARGETS = ("search bar", "confirm button", "menu icon", "result row", "tab strip", "toggle")
DIMS = ((1080, 2400), (720, 1600), (1440, 3200))
DIRECTIONS = ("up", "down", "left", "right")
OPPOSITE = {"up": "down", "down": "up", "left": "right", "right": "left"}
PIXEL_STEP_SHARE = 0.3
BBOX_SHARE = 0.8


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _r6(value: float) -> float:
    return round(value, 6)


def _pick_kind(rng: random.Random) -> str:
    return rng.choices([k for k, _ in KINDS], [w for _, w in KINDS])[0]


def _step(rng: random.Random, traj_id: str, t: int, app: str) -> dict[str, Any]:
    kind = _pick_kind(rng)
    step: dict[str, Any] = {"index": t, "screen_ref": f"{traj_id}/s{t}"}
    dims = rng.choice(DIMS) if rng.random() < PIXEL_STEP_SHARE else None
    if dims is not None:
        step["screen_dims"] = list(dims)
    action: dict[str, Any] = {"kind": kind}
    bbox = None
    if kind in ("click", "long_press"):
        cx, cy = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        hx, hy = rng.uniform(0.02, 0.05), rng.uniform(0.02, 0.05)
        with_box = rng.random() < BBOX_SHARE
        if dims is None:
            action["coordinate"] = [_r6(cx), _r6(cy)]
            if with_box:
                bbox = [_r6(cx - hx), _r6(cy - hy), _r6(cx + hx), _r6(cy + hy)]
        else:
            w, h = dims
            action["coordinate"] = [round(cx * w), round(cy * h)]
            if with_box:
                bbox = [
                    math.floor((cx - hx) * w), math.floor((cy - hy) * h),
                    math.ceil((cx + hx) * w), math.ceil((cy + hy) * h),
                ]
    elif kind == "scroll":
        action["direction"] = rng.choice(DIRECTIONS)
    elif kind == "input_text":
        action["text"] = f"query {rng.randrange(10000)}"
    elif kind == "open_app":
        action["text"] = rng.choice(APPS)
    elif kind == "wait":
        action["seconds"] = float(rng.choice((1, 2, 3)))
    step["gt_action"] = action
    if bbox is not None:
        step["gt_bbox"] = bbox
    target = rng.choice(TARGETS)
    step["reference_effect"] = f"The {target} responds and view {t + 1} of {app} appears."
    return step


def make_trajectories(
    seed: int, count: int, lengths: tuple[int, int], prefix: str
) -> list[dict[str, Any]]:
    """Trajectory objects in dataset form; lengths cycle lo..hi, then shuffle."""
    rng = random.Random(f"bench-dataset|{seed}|{prefix}")
    lo, hi = lengths
    sizes = [lo + i % (hi - lo + 1) for i in range(count)]
    rng.shuffle(sizes)
    trajs = []
    for i, size in enumerate(sizes):
        traj_id = f"{prefix}-{i:06d}"
        app = rng.choice(APPS)
        trajs.append(
            {
                "id": traj_id,
                "instruction": f"Open {app} and finish errand {rng.randrange(10000)}.",
                "terminal_screen_ref": f"{traj_id}/end",
                "steps": [_step(rng, traj_id, t, app) for t in range(size)],
            }
        )
    return trajs


def write_jsonl(path: str | Path, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- turn text (the agent side of the wire) ----------------------------------------


def action_wire(action: dict[str, Any], dims: list[int] | None = None) -> dict[str, Any]:
    """Dataset-form action -> turn-grammar action JSON.  With `dims`, a
    relative coordinate is sent as raw pixels."""
    out: dict[str, Any] = {"action": action["kind"]}
    if "coordinate" in action:
        x, y = action["coordinate"]
        if dims is not None and x <= 1.0 and y <= 1.0:
            x, y = round(x * dims[0]), round(y * dims[1])
        out["coordinate"] = [x, y]
    if "direction" in action:
        out["direction"] = action["direction"]
    if "text" in action:
        out["text"] = action["text"]
    if "seconds" in action:
        out["time"] = action["seconds"]
    return out


def wrong_action(action: dict[str, Any]) -> dict[str, Any]:
    """An action that can never match the relative-space `action`: a far click for spatial
    kinds (half the screen away, so outside any box and any delta), the
    opposite scroll, other text, or another kind."""
    kind = action["kind"]
    if kind in ("click", "long_press"):
        x, y = action["coordinate"]
        return {"kind": kind, "coordinate": [_r6((x + 0.5) % 1.0), _r6((y + 0.5) % 1.0)]}
    if kind == "scroll":
        return {"kind": "scroll", "direction": OPPOSITE[action["direction"]]}
    if kind in ("input_text", "open_app"):
        return {"kind": kind, "text": "something else entirely"}
    if kind == "wait":
        return {"kind": "navigate_back"}
    return {"kind": "wait", "seconds": 1.0}


def turn_text(
    action_json: dict[str, Any],
    verification: str,
    effect: str,
    instruction: str,
    extra_tag: bool = False,
) -> str:
    """Compose one turn in the four-block grammar."""
    if verification == "NO_CHANGE":
        segments = ["[Verify] The screen did not change after the last action.",
                    "[Diagnose] The previous action missed its target."]
    else:
        segments = ["[Verify] The last action produced the screen I expected."]
    if extra_tag:
        segments.append("[Observe] Several controls are visible near the top.")
    task = instruction.replace("[", "(").replace("]", ")")
    segments.append(f"[Recall] The task is: {task}")
    segments.append("[Grounding] The target element is on the current screen.")
    segments.append(f"[Action] Perform {action_json['action']}.")
    return (
        "<think>\n" + "\n".join(segments) + "\n</think>\n"
        f"<verification>{verification}</verification>\n"
        f"<action>{json.dumps(action_json)}</action>\n"
        f"<expected_effect>{effect}</expected_effect>"
    )


# -- score inputs ---------------------------------------------------------------------

OUTPUT_MIX = (("correct", 0.38), ("correct_pixel", 0.06), ("correct_tagged", 0.06),
              ("wrong", 0.40), ("unparseable", 0.10))


def make_outputs(seed: int, samples: list[dict[str, Any]]) -> tuple[list[dict], list[dict]]:
    """Raw outputs for `score` plus the reward each must receive.

    Expected rewards use the documented rule: total = r_act + 0.5 r_eff +
    0.5 r_ver, with r_eff = 1 for a correct action stating the target effect
    verbatim and r_ver from the verification asymmetry (+1, -2, -0.5).
    """
    rng = random.Random(f"bench-outputs|{seed}")
    names = [n for n, _ in OUTPUT_MIX]
    weights = [w for _, w in OUTPUT_MIX]
    outputs, expected = [], []
    for sample in samples:
        category = rng.choices(names, weights)[0]
        target = sample["target_action"]
        target_ver = sample["target_verification"]
        instruction = sample["instruction"]
        if category == "correct_pixel" and not (
            "coordinate" in target and sample.get("screen_dims")
        ):
            category = "correct"
        if category.startswith("correct"):
            dims = sample.get("screen_dims") if category == "correct_pixel" else None
            raw = turn_text(action_wire(target, dims), target_ver, sample["target_effect"],
                            instruction, extra_tag=category == "correct_tagged")
            want = {"r_act": 1.0, "r_eff": 1.0, "r_ver": 1.0, "parse_error": False}
        elif category == "wrong":
            ver = rng.choice(("SUCCESS", "NO_CHANGE"))
            raw = turn_text(action_wire(wrong_action(target)), ver,
                            "A different screen will open.", instruction)
            r_ver = 1.0 if ver == target_ver else (-2.0 if ver == "SUCCESS" else -0.5)
            want = {"r_act": -1.0, "r_eff": 0.0, "r_ver": r_ver, "parse_error": False}
        else:
            raw = rng.choice((
                "I think the answer is to tap the button.",
                "<verification>SUCCESS</verification>\n<action>{\"action\": click}</action>",
                "<think>\n[Verify] Unsure.\n</think>\n"
                "<action>{\"action\": \"wait\", \"time\": 1}</action>",
            ))
            want = {"r_act": -1.0, "r_eff": 0.0, "r_ver": -0.5, "parse_error": True}
        want["total"] = want["r_act"] + 0.5 * want["r_eff"] + 0.5 * want["r_ver"]
        outputs.append({"raw": raw})
        expected.append(want)
    return outputs, expected


def group_sizes(n: int, size: int = 6) -> list[int]:
    """Split n outputs into groups of `size`; a remainder of one joins the
    last group, since a group needs at least two members."""
    sizes = [size] * (n // size)
    rest = n % size
    if rest == 1 and sizes:
        sizes[-1] += 1
    elif rest:
        sizes.append(rest)
    return sizes


def make_groups(seed: int, n: int) -> list[dict[str, Any]]:
    """Token log-probs for `n` outputs in groups of six, 16-64 tokens each."""
    rng = random.Random(f"bench-groups|{seed}")
    groups = []
    for size in group_sizes(n):
        members = []
        for _ in range(size):
            length = rng.randint(16, 64)
            old = [-rng.uniform(0.05, 3.0) for _ in range(length)]
            new = [min(0.0, v + rng.gauss(0.0, 0.15)) for v in old]
            ref = [min(0.0, v + rng.gauss(0.0, 0.15)) for v in old]
            members.append({
                "logprobs_new": [_r6(v) for v in new],
                "logprobs_old": [_r6(v) for v in old],
                "logprobs_ref": [_r6(v) for v in ref],
            })
        groups.append({"outputs": members})
    return groups
