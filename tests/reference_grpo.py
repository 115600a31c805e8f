"""Reference GRPO objective: the original numpy `grpo_core` numerics.

Kept verbatim (numpy arrays, `np.exp`/`np.log`, pairwise `mean`/`sum`, a
separate pass each for ratios, clipped surrogate and KL) so the pure-Python
objective in `tvae_harness.grpo_core` can be checked against it field by
field.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from tvae_harness.errors import (
    GroupTooSmallError,
    InvalidDistributionError,
    ShapeMismatchError,
)
from tvae_harness.grpo_core import EPS_STD, GroupBatch, GroupOutput, GrpoConfig, KlEstimator


def group_advantages(rewards: Sequence[float]) -> np.ndarray:
    """Normalize rewards within the group: (r - mean) / (population std + EPS_STD)."""
    if len(rewards) < 2:
        raise GroupTooSmallError(f"group of {len(rewards)}; need >= 2")
    arr = np.asarray(rewards, dtype=np.float64)
    if np.all(arr == arr[0]):  # degenerate group: residuals are exactly zero
        return np.zeros_like(arr)
    std = float(arr.std())  # population std: ddof=0
    return (arr - arr.mean()) / (std + EPS_STD)


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
    advantages = group_advantages(batch.rewards)
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
        "eps_std": EPS_STD,
        "eps_clip": cfg.eps_clip,
        "kl_estimator": cfg.kl_estimator.value,
        "objective": objective,
    }
