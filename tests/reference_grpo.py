"""Reference GRPO objective: the original numpy `grpo_core` numerics.

Kept verbatim (numpy arrays, `np.exp`/`np.log`, pairwise `mean`/`sum`, a
separate pass each for ratios, clipped surrogate and KL) so the pure-Python
objective in `tvae_harness.grpo_core` can be checked against it field by
field.  Where numpy overflows on finite rewards, `exact_advantages` is the
reference instead: the advantages in rational arithmetic, stdlib only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from tvae_harness.errors import DataError
from tvae_harness.grpo_core import EPS_STD, GroupBatch, GroupOutput, GrpoConfig, KlEstimator


def group_advantages(rewards: Sequence[float]) -> np.ndarray:
    """Normalize rewards within the group: (r - mean) / (population std + EPS_STD)."""
    if len(rewards) < 2:
        raise DataError(f"group of {len(rewards)}; need >= 2")
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
        raise DataError(f"{len(ratios)} ratio sequences vs {len(advantages)} advantages")
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
        raise DataError(f"distribution shapes {p.shape} vs {q.shape}")
    for name, dist in (("new", p), ("ref", q)):
        sums = dist.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9) or np.any(dist < 0):
            raise DataError(f"{name} rows must be distributions")
    mask = p > 0
    if np.any((q <= 0) & mask):
        raise DataError("reference assigns zero mass where policy does not")
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
                raise DataError("exact KL requires full per-token distributions")
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


# -- exact advantages ----------------------------------------------------------------


def _sqrt(q: Fraction) -> Fraction:
    """sqrt(q) within a relative 2**-128: the integer square root of
    q's numerator times its denominator, scaled to at least 256 bits."""
    n, d = q.numerator, q.denominator
    k = max(0, 257 - (n * d).bit_length()) // 2 + 1
    return Fraction(math.isqrt(n * d << 2 * k), d << k)


def exact_advantages(rewards: Sequence[float]) -> tuple[list[Fraction], Fraction, Fraction]:
    """The advantages (r - mean) / (population std + EPS_STD) of finite
    `rewards`, with the mean and that scale: the mean, residuals and
    variance exact, the square root within a relative 2**-128."""
    rs = [Fraction(r) for r in rewards]
    mean = sum(rs) / len(rs)
    residuals = [r - mean for r in rs]
    scale = _sqrt(sum(d * d for d in residuals) / len(rs)) + Fraction(EPS_STD)
    return [d / scale for d in residuals], mean, scale


def advantage_errors(rewards: Sequence[float], advantages: Sequence[float]) -> list[float]:
    """Each advantage's distance from the exact one `e`, over the bound that
    `grpo_core.group_advantages` states:
    2 ulp(fl(mean)) / std + 8 ulp(e) + 8 ulp(max |e|), with `std` the
    exact population std plus EPS_STD.  At most 1 where the bound holds."""
    exact, mean, scale = exact_advantages(rewards)
    top = math.ulp(max(abs(float(e)) for e in exact))
    shared = Fraction(2 * math.ulp(float(mean))) / scale + 8 * Fraction(top)
    return [
        float(abs(Fraction(a) - e) / (shared + 8 * Fraction(math.ulp(float(e)))))
        for a, e in zip(advantages, exact, strict=True)
    ]
