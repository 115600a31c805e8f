"""Action matching, token-F1 effect similarity, and the composite turn reward.

The composite reward couples action correctness (signed indicator), gated
effect similarity, and the asymmetric verification reward: a hallucinated
SUCCESS costs -2.0 while a cautious miss costs only -0.5.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING

from .errors import DataError
from .trajectory_store import SPATIAL_KINDS, TEXT_KINDS, ActionKind, ActionRecord, normalize_action
from .tvae_codec import TvaeOutput, Verification, parse_tvae

if TYPE_CHECKING:
    from .failure_forge import SyntheticSample

# The match rule is fixed because `failure_forge` builds its corruptions on it:
# the no-box click radius DELTA, and the repeat radius REPEAT_EPSILON, which stays
# below the forge's MARGIN so that no case is both repeated and recovered.
DELTA = 0.14
REPEAT_EPSILON = 0.04

REWARD_CORRECT_VERIFICATION = 1.0
REWARD_MISS = -0.5
REWARD_HALLUCINATION = -2.0


@dataclass(slots=True)
class RewardConfig:
    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        # 1 + alpha + 2 * beta bounds every total's magnitude; a NaN weight makes it NaN.
        if self.alpha < 0 or self.beta < 0 or not math.isfinite(1 + self.alpha + 2 * self.beta):
            raise DataError("reward_config: invalid alpha/beta (>= 0, 1 + alpha + 2 * beta finite)")


@dataclass(slots=True)
class RewardBreakdown:
    """Per-output reward components; total = r_act + alpha*r_eff + beta*r_ver.

    `parse_error` is set when the output did not parse (see `score_output`).
    """

    r_act: float
    r_eff: float
    r_ver: float
    total: float
    parse_error: str | None = None


def reward_line(b: RewardBreakdown) -> str:
    """A `rewards.jsonl` line as `json.dumps(obj, separators=(",", ":"))`
    writes the breakdown's components, its scorer and its parse error."""
    error = "" if b.parse_error is None else f',"parse_error":{_json_str(b.parse_error)}'
    return (
        f'{{"r_act":{b.r_act!r},"r_eff":{b.r_eff!r},"r_ver":{b.r_ver!r},'
        f'"total":{b.total!r},"similarity":"token-f1"{error}}}'  # the one scorer, `token_f1`
    )


# -- geometry ----------------------------------------------------------------


def point_in_bbox(point: tuple[float, float], bbox: tuple[float, float, float, float]) -> bool:
    x, y = point
    x0, y0, x1, y1 = bbox
    return x0 <= x <= x1 and y0 <= y <= y1


def euclidean(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def distance_to_bbox(point: tuple[float, float], bbox: tuple[float, float, float, float]) -> float:
    """Distance from a point to the nearest point of the box (0 inside)."""
    x, y = point
    x0, y0, x1, y1 = bbox
    dx = max(x0 - x, 0.0, x - x1)
    dy = max(y0 - y, 0.0, y - y1)
    return math.hypot(dx, dy)


def ground(
    action: ActionRecord, dims: tuple[int, int] | None
) -> tuple[ActionRecord, str | None]:
    """The one grounding step of a predicted action, shared by the
    simulator and the reward: its coordinate converted to relative space
    with the screen size `dims`, and no warning; or, when it cannot be
    converted, the action unchanged and a warning.  An action left in pixels
    never matches, grounds or repeats.
    """
    if not action.in_pixels():
        return action, None
    try:
        return normalize_action(action, dims), None
    except DataError as exc:
        return action, f"ungroundable coordinates: {exc}"


def match_action(
    pred: ActionRecord | None,
    gt: ActionRecord,
    bbox: tuple[float, float, float, float] | None = None,
) -> bool:
    """Decide whether a predicted action counts as correct: kinds must agree
    and then `parameters_match`.  The ground truth is in relative space.
    """
    if pred is None or pred.kind is not gt.kind:
        return False
    return parameters_match(pred, gt, bbox)


def parameters_match(
    pred: ActionRecord | None,
    gt: ActionRecord,
    bbox: tuple[float, float, float, float] | None,
) -> bool:
    """The parameter rule of `match_action`, whatever the predicted kind.

    Spatial actions need the coordinate inside the ground-truth box
    (Euclidean distance <= DELTA when no box is known), scrolls need equal
    directions, text actions need the same text after trimming and
    case-folding, and parameterless kinds always pass.  A parameter the
    prediction lacks, or a coordinate in pixels, never matches.
    """
    if gt.kind in SPATIAL_KINDS:
        if pred is None or pred.coordinate is None or gt.coordinate is None:
            return False
        if pred.in_pixels():
            return False
        if bbox is not None:
            return point_in_bbox(pred.coordinate, bbox)
        return euclidean(pred.coordinate, gt.coordinate) <= DELTA
    if gt.kind is ActionKind.SCROLL:
        return pred is not None and pred.direction is gt.direction
    if gt.kind in TEXT_KINDS:
        if pred is None or pred.text is None:
            return False
        return pred.text.strip().casefold() == (gt.text or "").strip().casefold()
    return True  # navigate_back / wait take no parameters


def actions_approx_equal(a: ActionRecord | None, b: ActionRecord) -> bool:
    """Loose identity used for repeated-action detection: same kind,
    coordinates within REPEAT_EPSILON, same text and direction.  A
    prediction `a` in pixels never repeats."""
    if a is None or a.kind is not b.kind or a.in_pixels():
        return False
    if a.coordinate is not None and b.coordinate is not None:  # one kind: both or neither
        if euclidean(a.coordinate, b.coordinate) > REPEAT_EPSILON:
            return False
    if a.text != b.text:
        return False
    if a.direction is not b.direction:
        return False
    return True


# -- effect similarity --------------------------------------------------------

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


def _tokens(text: str) -> list[str]:
    return text.lower().translate(_PUNCT_TABLE).split()


def token_f1(pred_text: str, ref_text: str) -> float:
    """Token-level F1 over lowercased, punctuation-stripped tokens.

    Symmetric; 1.0 for identical token multisets, 0.0 for disjoint ones.
    """
    pred = Counter(_tokens(pred_text))
    ref = Counter(_tokens(ref_text))
    overlap = sum((pred & ref).values())
    if overlap == 0:
        return 0.0
    return 2.0 * overlap / (sum(pred.values()) + sum(ref.values()))


# -- reward components ---------------------------------------------------------


def verification_reward(pred: Verification, target: Verification) -> float:
    """+1.0 on agreement, -2.0 for a false SUCCESS claim, -0.5 for a false
    NO_CHANGE claim."""
    if pred is target:
        return REWARD_CORRECT_VERIFICATION
    if pred is Verification.SUCCESS:
        return REWARD_HALLUCINATION
    return REWARD_MISS


def composite_reward(
    out: TvaeOutput, sample: "SyntheticSample", cfg: RewardConfig
) -> RewardBreakdown:
    """Score one parsed turn against its training sample.

    r_eff is gated on action correctness: a wrong action earns zero effect
    reward no matter how plausible the predicted effect reads.
    """
    pred_action, _ = ground(out.action, sample.screen_dims)
    matched = match_action(pred_action, sample.target_action, sample.target_bbox)
    r_act = 1.0 if matched else -1.0
    r_eff = token_f1(out.expected_effect, sample.target_effect) if matched else 0.0
    r_ver = verification_reward(out.verification, sample.target_verification)
    total = r_act + cfg.alpha * r_eff + cfg.beta * r_ver
    return RewardBreakdown(r_act=r_act, r_eff=r_eff, r_ver=r_ver, total=total)


def score_output(
    raw: str, sample: "SyntheticSample", cfg: RewardConfig
) -> RewardBreakdown:
    """Score one raw agent output: `composite_reward` of its parse.

    No parse, no claim: an output that does not parse (a `DataError`) scores
    a wrong action, zero effect reward and the generic miss penalty; any
    other exception is a harness bug and propagates.
    """
    try:
        turn = parse_tvae(raw)
    except DataError as exc:
        return RewardBreakdown(
            r_act=-1.0,
            r_eff=0.0,
            r_ver=REWARD_MISS,
            total=-1.0 + cfg.beta * REWARD_MISS,
            parse_error=str(exc),
        )
    return composite_reward(turn, sample, cfg)
