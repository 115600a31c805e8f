"""Group-relative policy objective as pure numerics.

Callers supply per-output rewards and token log-probabilities (new, old
sampling, and reference policies); this module computes group-normalized
advantages, probability ratios, the per-token clipped surrogate, the KL
penalty (sampled k3 estimator or exact from full distributions), and the
aggregate objective, in plain `math` with exactly rounded (`math.fsum`)
means.  No model weights live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import sub
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import (
    GroupTooSmallError,
    InvalidDistributionError,
    InvariantViolationError,
    LengthMismatchError,
    ShapeMismatchError,
)
from .records import read_records


class KlEstimator(str, Enum):
    EXACT = "exact"
    K3 = "k3"


# Added to the group's reward std before dividing: a guard against a near-zero
# scale, not a setting.
EPS_STD = 1e-8


@dataclass(frozen=True)
class GrpoConfig:
    eps_clip: float = 0.2
    kl_lambda: float = 0.05
    kl_estimator: KlEstimator = KlEstimator.K3

    def __post_init__(self) -> None:
        if not 0 < self.eps_clip < 1:
            raise InvariantViolationError("grpo_config", "eps_clip", "must be in (0,1)")
        if not (math.isfinite(self.kl_lambda) and self.kl_lambda >= 0):
            raise InvariantViolationError(
                "grpo_config", "kl_lambda", "must be a finite number >= 0"
            )


_LOGPROB_TOL = 1e-9


@dataclass(frozen=True)
class GroupOutput:
    """One sampled output: its total reward plus aligned per-token log-probs.

    `dist_new` / `dist_ref` optionally carry full per-token distributions
    (rows over the vocabulary) for the exact KL mode.
    """

    reward: float
    logprobs_new: tuple[float, ...]
    logprobs_old: tuple[float, ...]
    logprobs_ref: tuple[float, ...]
    dist_new: tuple[tuple[float, ...], ...] | None = None
    dist_ref: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.logprobs_new)
        if n < 1:
            raise LengthMismatchError("output must have at least one token")
        if len(self.logprobs_old) != n or len(self.logprobs_ref) != n:
            raise LengthMismatchError(
                f"log-prob lengths differ: {n}/{len(self.logprobs_old)}/{len(self.logprobs_ref)}"
            )
        for seq in (self.logprobs_new, self.logprobs_old, self.logprobs_ref):
            if any(v > _LOGPROB_TOL for v in seq):
                raise InvariantViolationError("group_output", "logprobs", "must be <= 0")
        for dist in (self.dist_new, self.dist_ref):
            if dist is not None and len(dist) != n:
                raise ShapeMismatchError("distribution rows must align with tokens")

    def __len__(self) -> int:
        return len(self.logprobs_new)


@dataclass(frozen=True)
class GroupBatch:
    outputs: tuple[GroupOutput, ...]

    def __post_init__(self) -> None:
        if len(self.outputs) < 2:
            raise GroupTooSmallError(f"group of {len(self.outputs)}; need >= 2")

    @property
    def rewards(self) -> list[float]:
        return [o.reward for o in self.outputs]


def _exact_sum(xs: Sequence[float]) -> float:
    """The exactly rounded sum, which does not depend on summation order; one
    that overflows or meets inf + -inf is the plain running sum (inf or nan)."""
    try:
        return math.fsum(xs)
    except (OverflowError, ValueError):
        return sum(xs)


def exact_mean(xs: Sequence[float]) -> float:
    """Mean of `xs` from its exactly rounded sum."""
    return _exact_sum(xs) / len(xs)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def group_advantages(rewards: Sequence[float]) -> list[float]:
    """Normalize rewards within the group: (r - mean) / (population std + EPS_STD)."""
    if len(rewards) < 2:
        raise GroupTooSmallError(f"group of {len(rewards)}; need >= 2")
    if all(r == rewards[0] for r in rewards):  # degenerate group: residuals are exactly zero
        return [0.0] * len(rewards)
    mean = exact_mean(rewards)
    residuals = [r - mean for r in rewards]
    scale = math.sqrt(exact_mean([d * d for d in residuals])) + EPS_STD
    return [d / scale for d in residuals]


def exact_kl(dist_new: Sequence[Sequence[float]], dist_ref: Sequence[Sequence[float]]) -> float:
    """Mean per-token KL(p_new || p_ref) from full distributions (one row per token).

    Rows must sum to 1 within 1e-9; zero-probability reference entries are
    only legal where the new policy also puts zero mass.
    """
    widths = {len(row) for row in (*dist_new, *dist_ref)}
    if len(dist_new) != len(dist_ref) or len(widths) != 1:
        raise ShapeMismatchError("distributions must be two equal-shaped tables of rows")
    for name, dist in (("new", dist_new), ("ref", dist_ref)):
        if any(abs(_exact_sum(row) - 1.0) > 1e-9 or any(v < 0 for v in row) for row in dist):
            raise InvalidDistributionError(f"{name} rows must be distributions")
    if any(b <= 0 < a for p, q in zip(dist_new, dist_ref) for a, b in zip(p, q)):
        raise InvalidDistributionError("reference assigns zero mass where policy does not")
    return exact_mean([
        math.fsum([a * (math.log(a) - math.log(b)) for a, b in zip(p, q) if a > 0])
        for p, q in zip(dist_new, dist_ref)
    ])


def _output_terms(
    o: GroupOutput, adv: float, cfg: GrpoConfig, exp: Callable[[float], float] = math.exp
) -> tuple[float, float]:
    """One output's length-normalized clipped surrogate and KL penalty.

    Per token the surrogate is min(rho*A, clip(rho)*A) with
    rho = exp(logp_new - logp_old); that is A*min(rho, 1+eps) for A >= 0 and
    A*max(rho, 1-eps) for A < 0, since rounding is monotone.  The KL penalty
    is 0 when lambda is 0; K3 is the sampled estimator mean(r - 1 - ln r)
    with r = exp(logp_ref - logp_new); exact mode needs full distributions.
    """
    rhos = map(exp, map(sub, o.logprobs_new, o.logprobs_old))
    if adv >= 0:
        hi = 1.0 + cfg.eps_clip
        surrogate = exact_mean([adv * (hi if r > hi else r) for r in rhos])
    else:
        lo = 1.0 - cfg.eps_clip
        surrogate = exact_mean([adv * (lo if r < lo else r) for r in rhos])
    if not cfg.kl_lambda > 0:
        return surrogate, 0.0
    if cfg.kl_estimator is KlEstimator.K3:
        log_r = map(sub, o.logprobs_ref, o.logprobs_new)
        return surrogate, exact_mean([exp(d) - 1.0 - d for d in log_r])
    if o.dist_new is None or o.dist_ref is None:
        raise InvalidDistributionError("exact KL requires full per-token distributions")
    return surrogate, exact_kl(o.dist_new, o.dist_ref)


def objective_report(batch: GroupBatch, cfg: GrpoConfig | None = None) -> dict[str, Any]:
    """Audit-friendly breakdown of one group's objective computation.

    `objective` is the mean over outputs of the length-normalized clipped
    surrogate, minus lambda times the mean KL penalty (always >= 0, and 0
    iff the policies agree).
    """
    cfg = cfg or GrpoConfig()
    advantages = group_advantages(batch.rewards)
    surrogate, kl = [], []
    for o, adv in zip(batch.outputs, advantages):
        try:
            terms = _output_terms(o, adv, cfg)
        except OverflowError:  # a ratio beyond the float range is inf
            terms = _output_terms(o, adv, cfg, _exp_or_inf)
        surrogate.append(terms[0])
        kl.append(terms[1])
    return {
        "group_size": len(batch.outputs),
        "rewards": [float(r) for r in batch.rewards],
        "advantages": advantages,
        "surrogate_per_output": surrogate,
        "kl_per_output": kl,
        "kl_lambda": cfg.kl_lambda,
        "eps_std": EPS_STD,
        "eps_clip": cfg.eps_clip,
        "kl_estimator": cfg.kl_estimator.value,
        "objective": exact_mean(surrogate) - cfg.kl_lambda * exact_mean(kl),
    }


# -- serialization ----------------------------------------------------------------


def group_output_from_json(obj: Mapping[str, Any], reward: float | None = None) -> GroupOutput:
    r = obj.get("reward", reward)
    if r is None:
        raise InvariantViolationError("group_output", "reward", "missing and no fallback")
    return GroupOutput(
        reward=float(r),
        logprobs_new=tuple(float(v) for v in obj["logprobs_new"]),
        logprobs_old=tuple(float(v) for v in obj["logprobs_old"]),
        logprobs_ref=tuple(float(v) for v in obj["logprobs_ref"]),
        dist_new=_dist_from_json(obj.get("dist_new")),
        dist_ref=_dist_from_json(obj.get("dist_ref")),
    )


def _dist_from_json(raw: Any) -> tuple[tuple[float, ...], ...] | None:
    if raw is None:
        return None
    return tuple(tuple(float(v) for v in row) for row in raw)


def read_group_batches(path: str | Path, rewards: Iterable[float] = ()) -> list[GroupBatch]:
    """Read one group ({"outputs": [...]}) per line of a JSONL file.

    An output without a "reward" takes the next of `rewards`, in file
    order; a bad output is a bad line of the file.
    """
    fallback = iter(rewards)
    return read_records(path, lambda obj: GroupBatch(tuple(
        group_output_from_json(o, next(fallback, None)) for o in obj["outputs"]
    )), "group")
