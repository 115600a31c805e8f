"""Synthetic trajectory generation for tests, demos, and CI runs."""

from __future__ import annotations

import random

from .seeding import stable_seed
from .trajectory_store import (
    ActionKind,
    ActionRecord,
    ScrollDirection,
    StepRecord,
    TrajectoryRecord,
    round_coord,
)

_APPS = ("Maps", "Mail", "Music", "Notes", "Camera", "Clock", "Files", "Shop")
_TARGETS = ("search bar", "confirm button", "menu icon", "result row", "tab strip")
_KIND_WEIGHTS = (
    (ActionKind.CLICK, 0.55),
    (ActionKind.SCROLL, 0.12),
    (ActionKind.INPUT_TEXT, 0.12),
    (ActionKind.LONG_PRESS, 0.06),
    (ActionKind.NAVIGATE_BACK, 0.06),
    (ActionKind.OPEN_APP, 0.05),
    (ActionKind.WAIT, 0.04),
)


def _random_action(rng: random.Random) -> ActionRecord:
    kind = rng.choices([k for k, _ in _KIND_WEIGHTS], [w for _, w in _KIND_WEIGHTS])[0]
    if kind in (ActionKind.CLICK, ActionKind.LONG_PRESS):
        coord = (round_coord(rng.uniform(0.1, 0.9)), round_coord(rng.uniform(0.1, 0.9)))
        return ActionRecord(kind=kind, coordinate=coord)
    if kind is ActionKind.SCROLL:
        return ActionRecord(kind=kind, direction=rng.choice(list(ScrollDirection)))
    if kind is ActionKind.INPUT_TEXT:
        return ActionRecord(kind=kind, text=f"query {rng.randrange(1000)}")
    if kind is ActionKind.OPEN_APP:
        return ActionRecord(kind=kind, text=rng.choice(_APPS))
    if kind is ActionKind.WAIT:
        return ActionRecord(kind=kind, seconds=float(rng.choice((1, 2, 3))))
    return ActionRecord(kind=kind)


def _bbox_around(coord: tuple[float, float], rng: random.Random):
    hx = rng.uniform(0.02, 0.05)
    hy = rng.uniform(0.02, 0.05)
    x0 = max(0.0, coord[0] - hx)
    x1 = min(1.0, coord[0] + hx)
    y0 = max(0.0, coord[1] - hy)
    y1 = min(1.0, coord[1] + hy)
    return (round_coord(x0), round_coord(y0), round_coord(x1), round_coord(y1))


def random_trajectory(traj_id: str, length: int, seed: int = 0) -> TrajectoryRecord:
    """Build one valid trajectory with `length` steps, deterministic in
    (traj_id, seed)."""
    rng = random.Random(stable_seed(seed, "traj", traj_id))
    app = rng.choice(_APPS)
    steps = []
    for t in range(length):
        action = _random_action(rng)
        bbox = None
        if action.coordinate is not None and rng.random() < 0.8:
            bbox = _bbox_around(action.coordinate, rng)
        target = rng.choice(_TARGETS)
        steps.append(
            StepRecord(
                index=t,
                screen_ref=f"{traj_id}/screen-{t}",
                gt_action=action,
                reference_effect=f"The {target} responds and view {t + 1} of {app} appears.",
                gt_bbox=bbox,
            )
        )
    return TrajectoryRecord(
        id=traj_id,
        instruction=f"Use {app} to finish task {traj_id}.",
        steps=tuple(steps),
        terminal_screen_ref=f"{traj_id}/terminal",
    )


def make_dataset(
    count: int,
    lengths: tuple[int, int],
    seed: int = 0,
) -> list[TrajectoryRecord]:
    """Generate `count` trajectories with lengths uniform in the given range."""
    rng = random.Random(stable_seed(seed, "dataset", "traj", count))
    lo, hi = lengths
    return [
        random_trajectory(f"traj-{i:06d}", rng.randint(lo, hi), seed=seed)
        for i in range(count)
    ]
