"""Group-relative policy objective as pure numerics.

Callers supply per-output rewards and token log-probabilities (new, old
sampling, and reference policies); this module computes group-normalized
advantages, probability ratios, the per-token clipped surrogate, the KL
penalty (sampled k3 estimator or exact from full distributions), and the
aggregate objective.  No model weights live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

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


@dataclass(frozen=True)
class GrpoConfig:
    eps_std: float = 1e-8
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
        if not (math.isfinite(self.eps_std) and self.eps_std > 0):
            raise InvariantViolationError("grpo_config", "eps_std", "must be a finite number > 0")


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


def group_advantages(rewards: Sequence[float], cfg: GrpoConfig | None = None) -> np.ndarray:
    """Normalize rewards within the group: (r - mean) / (population std + eps)."""
    cfg = cfg or GrpoConfig()
    if len(rewards) < 2:
        raise GroupTooSmallError(f"group of {len(rewards)}; need >= 2")
    arr = np.asarray(rewards, dtype=np.float64)
    if np.all(arr == arr[0]):  # degenerate group: residuals are exactly zero
        return np.zeros_like(arr)
    std = float(arr.std())  # population std: ddof=0
    return (arr - arr.mean()) / (std + cfg.eps_std)


def token_ratios(batch: GroupBatch) -> list[np.ndarray]:
    """Per-token probability ratios exp(logp_new - logp_old), one array per output."""
    out = []
    for o in batch.outputs:
        new = np.asarray(o.logprobs_new, dtype=np.float64)
        old = np.asarray(o.logprobs_old, dtype=np.float64)
        out.append(np.exp(new - old))
    return out


def clipped_surrogate(
    ratios: Sequence[np.ndarray],
    advantages: Sequence[float] | np.ndarray,
    cfg: GrpoConfig | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-token clipped losses min(rho*A, clip(rho)*A) and per-output means."""
    cfg = cfg or GrpoConfig()
    if len(ratios) != len(advantages):
        raise ShapeMismatchError(
            f"{len(ratios)} ratio sequences vs {len(advantages)} advantages"
        )
    lo, hi = 1.0 - cfg.eps_clip, 1.0 + cfg.eps_clip
    token_losses: list[np.ndarray] = []
    means = np.empty(len(ratios), dtype=np.float64)
    for i, (rho, adv) in enumerate(zip(ratios, advantages)):
        unclipped = rho * adv
        clipped = np.clip(rho, lo, hi) * adv
        losses = np.minimum(unclipped, clipped)
        token_losses.append(losses)
        means[i] = losses.mean()
    return token_losses, means


def _kl_k3(output: GroupOutput) -> float:
    new = np.asarray(output.logprobs_new, dtype=np.float64)
    ref = np.asarray(output.logprobs_ref, dtype=np.float64)
    log_r = ref - new
    return float(np.mean(np.exp(log_r) - 1.0 - log_r))


def exact_kl(dist_new: np.ndarray, dist_ref: np.ndarray) -> float:
    """Mean per-token KL(p_new || p_ref) from full distributions.

    Rows must sum to 1 within 1e-9; zero-probability reference entries are
    only legal where the new policy also puts zero mass.
    """
    p = np.asarray(dist_new, dtype=np.float64)
    q = np.asarray(dist_ref, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 2:
        raise ShapeMismatchError(f"distribution shapes {p.shape} vs {q.shape}")
    for name, dist in (("new", p), ("ref", q)):
        sums = dist.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9) or np.any(dist < 0):
            raise InvalidDistributionError(f"{name} rows must be distributions")
    mask = p > 0
    if np.any((q <= 0) & mask):
        raise InvalidDistributionError("reference assigns zero mass where policy does not")
    terms = np.zeros_like(p)
    terms[mask] = p[mask] * (np.log(p[mask]) - np.log(q[mask]))
    return float(terms.sum(axis=1).mean())


def kl_penalty(batch: GroupBatch, cfg: GrpoConfig | None = None) -> np.ndarray:
    """Per-output KL penalty, always >= 0 and 0 iff the policies agree.

    K3 mode uses the sampled estimator mean(r - 1 - ln r) with
    r = exp(logp_ref - logp_new); exact mode needs full distributions on
    every output.
    """
    cfg = cfg or GrpoConfig()
    values = np.empty(len(batch.outputs), dtype=np.float64)
    for i, o in enumerate(batch.outputs):
        if cfg.kl_estimator is KlEstimator.K3:
            values[i] = _kl_k3(o)
        else:
            if o.dist_new is None or o.dist_ref is None:
                raise InvalidDistributionError(
                    "exact KL requires full per-token distributions"
                )
            values[i] = exact_kl(np.asarray(o.dist_new), np.asarray(o.dist_ref))
    return values


def objective_report(batch: GroupBatch, cfg: GrpoConfig | None = None) -> dict[str, Any]:
    """Audit-friendly breakdown of one group's objective computation.

    `objective` is the mean over outputs of the length-normalized clipped
    surrogate, minus lambda times the mean KL penalty.
    """
    cfg = cfg or GrpoConfig()
    advantages = group_advantages(batch.rewards, cfg)
    ratios = token_ratios(batch)
    _, per_output = clipped_surrogate(ratios, advantages, cfg)
    kl = kl_penalty(batch, cfg) if cfg.kl_lambda > 0 else np.zeros(len(batch.outputs))
    objective = float(per_output.mean()) - cfg.kl_lambda * float(kl.mean())
    return {
        "group_size": len(batch.outputs),
        "rewards": [float(r) for r in batch.rewards],
        "advantages": [float(a) for a in advantages],
        "surrogate_per_output": [float(s) for s in per_output],
        "kl_per_output": [float(k) for k in kl],
        "kl_lambda": cfg.kl_lambda,
        "eps_std": cfg.eps_std,
        "eps_clip": cfg.eps_clip,
        "kl_estimator": cfg.kl_estimator.value,
        "objective": objective,
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
