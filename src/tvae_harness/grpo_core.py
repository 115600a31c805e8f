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
from itertools import chain, repeat
from operator import gt, sub
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import DataError
from .records import json_value, numbers, read_records


class KlEstimator(str, Enum):
    EXACT = "exact"
    K3 = "k3"


# Added to the group's reward std before dividing: a guard against a near-zero
# scale, not a setting.
EPS_STD = 1e-8
_TOP = 500  # binary64 values scaled below 2**_TOP (of 2**1024) sum and square in range


@dataclass(slots=True)
class GrpoConfig:
    eps_clip: float = 0.2
    kl_lambda: float = 0.05
    kl_estimator: KlEstimator = KlEstimator.K3

    def __post_init__(self) -> None:
        if not 0 < self.eps_clip < 1:
            raise DataError("grpo_config: invalid eps_clip (must be in (0,1))")
        if not (math.isfinite(self.kl_lambda) and self.kl_lambda >= 0):
            raise DataError("grpo_config: invalid kl_lambda (must be a finite number >= 0)")


_LOGPROB_TOL = 1e-9


@dataclass(slots=True)
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
            raise DataError("output must have at least one token")
        if len(self.logprobs_old) != n or len(self.logprobs_ref) != n:
            raise DataError(
                f"log-prob lengths differ: {n}/{len(self.logprobs_old)}/{len(self.logprobs_ref)}"
            )
        # `v > tol` of each value in C; not max(), which a leading NaN hides
        logprobs = chain(self.logprobs_new, self.logprobs_old, self.logprobs_ref)
        if any(map(gt, logprobs, repeat(_LOGPROB_TOL))):
            raise DataError("group_output: invalid logprobs (must be <= 0)")
        for dist in (self.dist_new, self.dist_ref):
            if dist is not None and len(dist) != n:
                raise DataError("distribution rows must align with tokens")


@dataclass(slots=True)
class GroupBatch:
    outputs: tuple[GroupOutput, ...]

    def __post_init__(self) -> None:
        if len(self.outputs) < 2:
            raise DataError(f"group of {len(self.outputs)}; need >= 2")

    @property
    def rewards(self) -> list[float]:
        return [o.reward for o in self.outputs]


def exact_mean(xs: Sequence[float]) -> float:
    """Mean of `xs` from its exactly rounded sum, within 1.5 ulp of the exact
    mean; finite values that sum past the float range are summed scaled by
    2**(_TOP - 1024), which adds at most 2**-550.  inf + -inf gives NaN."""
    try:
        return math.fsum(xs) / len(xs)
    except OverflowError:
        return math.ldexp(exact_mean([math.ldexp(x, _TOP - 1024) for x in xs]), 1024 - _TOP)
    except ValueError:
        return math.nan


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def group_advantages(rewards: Sequence[float]) -> list[float]:
    """Normalize rewards within the group: (r - mean) / (population std + EPS_STD).

    Finite rewards give finite advantages, each within 2 ulp(mean) / std + 8 ulp(a)
    + 8 ulp(max |a|) of its exact value `a`, `std` being the exact one plus EPS_STD.
    """
    if len(rewards) < 2:
        raise DataError(f"group of {len(rewards)}; need >= 2")
    if all(r == rewards[0] for r in rewards):  # degenerate group: residuals are exactly zero
        return [0.0] * len(rewards)
    mean = exact_mean(rewards)
    residuals = [r - mean for r in rewards]
    scale = math.sqrt(exact_mean([d * d for d in residuals])) + EPS_STD
    if math.isinf(scale):  # finite rewards (any other makes it NaN) past the float range:
        # scaled below 2**_TOP they have the same advantages, EPS_STD being below an ulp
        shift = _TOP - math.frexp(max(map(abs, rewards)))[1]
        return group_advantages([math.ldexp(r, shift) for r in rewards])
    return [d / scale for d in residuals]


def exact_kl(dist_new: Sequence[Sequence[float]], dist_ref: Sequence[Sequence[float]]) -> float:
    """Mean per-token KL(p_new || p_ref) from full distributions (one row per token).

    Rows are entries in [0, 1] that sum to 1 within 1e-9; a zero reference
    entry is only legal where the new policy also puts zero mass.
    """
    widths = {len(row) for row in (*dist_new, *dist_ref)}
    if len(dist_new) != len(dist_ref) or len(widths) != 1:
        raise DataError("distributions must be two equal-shaped tables of rows")
    for name, dist in (("new", dist_new), ("ref", dist_ref)):
        if any(not all(0 <= v <= 1 for v in row) or abs(math.fsum(row) - 1) > 1e-9 for row in dist):
            raise DataError(f"{name} rows must be distributions")
    if any(b <= 0 < a for p, q in zip(dist_new, dist_ref) for a, b in zip(p, q)):
        raise DataError("reference assigns zero mass where policy does not")
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
        raise DataError("exact KL requires full per-token distributions")
    return surrogate, exact_kl(o.dist_new, o.dist_ref)


def objective_report(batch: GroupBatch, cfg: GrpoConfig) -> dict[str, Any]:
    """Audit-friendly breakdown of one group's objective computation.

    `objective` is the mean over outputs of the length-normalized clipped
    surrogate, minus lambda times the mean KL penalty (always >= 0, and 0
    iff the policies agree).
    """
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


def group_output_from_json(obj: Mapping[str, Any], reward: float | None) -> GroupOutput:
    """One output of a group line; its reward and log-probs are finite JSON
    numbers, and an output without a "reward" takes `reward`."""
    if "reward" not in obj and reward is None:
        raise DataError("group_output: invalid reward (missing and no fallback)")
    return GroupOutput(
        reward=_finite([obj.get("reward", reward)], "reward")[0],
        logprobs_new=_finite_list(obj, "logprobs_new"),
        logprobs_old=_finite_list(obj, "logprobs_old"),
        logprobs_ref=_finite_list(obj, "logprobs_ref"),
        dist_new=_dist_from_json(obj, "dist_new"),
        dist_ref=_dist_from_json(obj, "dist_ref"),
    )


def _finite(raw: list[Any], key: str) -> tuple[float, ...]:
    floats = numbers(raw)
    # a finite sum has no inf or NaN in it; one that overflowed may still be all finite
    if floats is None or not (math.isfinite(sum(floats)) or all(map(math.isfinite, floats))):
        raise DataError(f"group_output: invalid {key} (must be finite JSON numbers, got {raw!r})")
    return floats


def _finite_list(obj: Mapping[str, Any], key: str) -> tuple[float, ...]:
    return _finite(json_value(obj, key, list, "group_output"), key)


def _dist_from_json(obj: Mapping[str, Any], key: str) -> tuple[tuple[float, ...], ...] | None:
    if obj.get(key) is None:
        return None
    return tuple(_finite(row, key) for row in json_value(obj, key, list, "group_output"))


def read_group_batches(path: str | Path, rewards: Iterable[float]) -> list[GroupBatch]:
    """Read one group ({"outputs": [...]}) per line of a JSONL file.

    An output without a "reward" takes the next of `rewards`, in file
    order; a bad output is a bad line of the file.
    """
    fallback = iter(rewards)
    return read_records(path, lambda obj: GroupBatch(tuple(
        group_output_from_json(o, next(fallback, None)) for o in obj["outputs"]
    )), "group")
