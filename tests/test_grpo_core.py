from __future__ import annotations

import math
import random
import statistics

import numpy as np
import pytest

from tvae_harness.errors import (
    GroupTooSmallError,
    InvalidDistributionError,
    InvariantViolationError,
    LengthMismatchError,
    ShapeMismatchError,
)
from tvae_harness.grpo_core import (
    GroupBatch,
    GroupOutput,
    GrpoConfig,
    KlEstimator,
    clipped_surrogate,
    exact_kl,
    group_advantages,
    kl_penalty,
    objective_report,
    token_ratios,
)


def _output(reward, new, old=None, ref=None, **kw) -> GroupOutput:
    old = old if old is not None else new
    ref = ref if ref is not None else new
    return GroupOutput(
        reward=reward,
        logprobs_new=tuple(new),
        logprobs_old=tuple(old),
        logprobs_ref=tuple(ref),
        **kw,
    )


# -- advantages -------------------------------------------------------------------


def test_equal_rewards_zero_advantages():
    adv = group_advantages([1.9] * 6)
    assert np.all(adv == 0.0)


def test_two_point_symmetry():
    adv = group_advantages([1.0, -1.0])
    assert adv[0] == pytest.approx(1.0, abs=1e-7)
    assert adv[1] == pytest.approx(-1.0, abs=1e-7)
    assert adv[0] == -adv[1]


def test_advantages_against_independent_stats():
    rewards = [2.0, 0.0, -2.0, 0.0, 2.0, -2.0]
    adv = group_advantages(rewards)
    mean = statistics.fmean(rewards)
    pstd = statistics.pstdev(rewards)
    expected = [(r - mean) / (pstd + 1e-8) for r in rewards]
    assert adv == pytest.approx(expected, abs=1e-15)
    assert abs(adv.mean()) < 1e-12
    assert adv.std() == pytest.approx(1.0, rel=1e-6)


def test_advantage_normalization_property(rng: random.Random):
    for _ in range(200):
        g = rng.randint(2, 12)
        rewards = [rng.uniform(-2, 2) for _ in range(g)]
        if statistics.pstdev(rewards) < 0.01:
            continue  # eps guard dominates only at degenerate spreads
        adv = group_advantages(rewards)
        assert abs(adv.mean()) < 1e-12
        assert adv.std() == pytest.approx(1.0, rel=1e-6)


def test_group_too_small():
    with pytest.raises(GroupTooSmallError):
        group_advantages([1.0])


# -- ratios ----------------------------------------------------------------------------


def test_ratios_identity_and_exp():
    batch = GroupBatch((
        _output(1.0, [-0.5, -0.2]),
        _output(0.0, [-0.5 + math.log(1.5), -0.2], old=[-0.5, -0.2]),
    ))
    ratios = token_ratios(batch)
    assert np.allclose(ratios[0], [1.0, 1.0])
    assert ratios[1][0] == pytest.approx(1.5)
    assert all(np.all(r > 0) for r in ratios)


def test_logprob_length_mismatch():
    with pytest.raises(LengthMismatchError):
        GroupOutput(reward=0.0, logprobs_new=(-0.1,), logprobs_old=(-0.1, -0.2), logprobs_ref=(-0.1,))


def test_positive_logprobs_rejected():
    with pytest.raises(InvariantViolationError):
        GroupOutput(reward=0.0, logprobs_new=(0.5,), logprobs_old=(-0.1,), logprobs_ref=(-0.1,))


# -- clipped surrogate --------------------------------------------------------------------


def test_clip_arithmetic():
    _, means = clipped_surrogate([np.array([1.5])], [1.0])
    assert means[0] == pytest.approx(1.2)  # min(1.5, 1.2)
    _, means = clipped_surrogate([np.array([0.5])], [-1.0])
    assert means[0] == pytest.approx(-0.8)  # min(-0.5, -0.8)
    _, means = clipped_surrogate([np.array([0.9, 1.1])], [0.0])
    assert means[0] == 0.0


def test_clip_equals_unclipped_inside_window(rng: random.Random):
    cfg = GrpoConfig()
    for _ in range(200):
        rho = np.array([rng.uniform(0.8, 1.2) for _ in range(5)])
        adv = rng.uniform(-2, 2)
        losses, _ = clipped_surrogate([rho], [adv], cfg)
        assert np.allclose(losses[0], rho * adv)


def test_clip_reduces_positive_incentive_beyond_window(rng: random.Random):
    cfg = GrpoConfig()
    for _ in range(200):
        rho = np.array([rng.uniform(1.2001, 3.0)])
        adv = rng.uniform(0.01, 2)
        losses, _ = clipped_surrogate([rho], [adv], cfg)
        assert losses[0][0] <= rho[0] * adv
        assert losses[0][0] == pytest.approx(1.2 * adv)


def test_clip_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        clipped_surrogate([np.array([1.0])], [1.0, -1.0])


# -- KL --------------------------------------------------------------------------------------


def test_kl_zero_when_policies_agree():
    batch = GroupBatch((_output(1.0, [-0.3, -0.7]), _output(-1.0, [-0.2])))
    assert np.all(kl_penalty(batch, GrpoConfig(kl_estimator=KlEstimator.K3)) == 0.0)
    p = np.array([[0.2, 0.8], [0.6, 0.4]])
    assert exact_kl(p, p) == pytest.approx(0.0, abs=1e-12)


def test_exact_kl_two_term_hand_value():
    # 0.5*ln(0.5/0.9) + 0.5*ln(0.5/0.1)
    value = exact_kl(np.array([[0.5, 0.5]]), np.array([[0.9, 0.1]]))
    assert value == pytest.approx(0.5108256237659905, abs=1e-12)


def test_k3_nonnegative_property(rng: random.Random):
    for _ in range(300):
        n = rng.randint(1, 6)
        new = [-rng.uniform(0.01, 3) for _ in range(n)]
        ref = [-rng.uniform(0.01, 3) for _ in range(n)]
        batch = GroupBatch((
            _output(1.0, new, ref=ref),
            _output(0.0, [-1.0], ref=[-1.0]),
        ))
        assert np.all(kl_penalty(batch) >= 0.0)


def test_exact_kl_validates_distributions():
    with pytest.raises(InvalidDistributionError):
        exact_kl(np.array([[0.5, 0.6]]), np.array([[0.5, 0.5]]))
    with pytest.raises(InvalidDistributionError):
        exact_kl(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
    batch = GroupBatch((_output(1.0, [-0.3]), _output(0.0, [-0.3])))
    with pytest.raises(InvalidDistributionError):
        kl_penalty(batch, GrpoConfig(kl_estimator=KlEstimator.EXACT))


# -- objective ---------------------------------------------------------------------------------


def test_objective_fully_degenerate_is_zero():
    batch = GroupBatch((
        _output(1.5, [-0.4, -0.9]),
        _output(1.5, [-0.2]),
        _output(1.5, [-0.8, -0.1, -0.3]),
    ))
    assert objective_report(batch)["objective"] == 0.0


def test_lambda_zero_reduces_to_surrogate():
    batch = GroupBatch((
        _output(1.0, [-0.5], ref=[-2.0]),
        _output(-1.0, [-0.5], ref=[-2.0]),
    ))
    cfg0 = GrpoConfig(kl_lambda=0.0)
    cfg1 = GrpoConfig(kl_lambda=0.05)
    adv = group_advantages(batch.rewards, cfg0)
    _, means = clipped_surrogate(token_ratios(batch), adv, cfg0)
    objective0 = objective_report(batch, cfg0)["objective"]
    assert objective0 == pytest.approx(float(means.mean()))
    assert objective_report(batch, cfg1)["objective"] < objective0


def test_objective_hand_case_two_outputs():
    # single tokens, ratios 1, theta = ref, lambda 0: J = (A1 + A2)/2 = 0
    batch = GroupBatch((
        _output(1.0, [-0.5]),
        _output(-1.0, [-0.7]),
    ))
    objective = objective_report(batch, GrpoConfig(kl_lambda=0.0))["objective"]
    assert objective == pytest.approx(0.0, abs=1e-15)


def test_objective_report_fields():
    batch = GroupBatch((_output(1.0, [-0.5]), _output(-1.0, [-0.7])))
    report = objective_report(batch)
    assert report["group_size"] == 2
    assert len(report["advantages"]) == 2
    assert "objective" in report and "kl_estimator" in report


# -- gradient check ------------------------------------------------------------------------------


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def _toy_batch(theta: np.ndarray, theta_old: np.ndarray, theta_ref: np.ndarray,
               tokens: list[list[int]], rewards: list[float]) -> GroupBatch:
    lp_new = np.log(_softmax(theta))
    lp_old = np.log(_softmax(theta_old))
    lp_ref = np.log(_softmax(theta_ref))
    p_new = _softmax(theta)
    p_ref = _softmax(theta_ref)
    outputs = []
    for ids, reward in zip(tokens, rewards):
        outputs.append(
            GroupOutput(
                reward=reward,
                logprobs_new=tuple(lp_new[i] for i in ids),
                logprobs_old=tuple(lp_old[i] for i in ids),
                logprobs_ref=tuple(lp_ref[i] for i in ids),
                dist_new=tuple(tuple(p_new) for _ in ids),
                dist_ref=tuple(tuple(p_ref) for _ in ids),
            )
        )
    return GroupBatch(tuple(outputs))


def test_gradient_matches_central_differences():
    """Analytic gradient of the objective for a toy softmax policy vs FD."""
    vocab = 4
    theta_old = np.array([0.1, -0.3, 0.2, 0.0])
    theta_ref = np.array([0.3, 0.1, -0.2, -0.1])
    theta = theta_old + np.array([0.03, -0.02, 0.01, 0.04])  # ratios inside clip window
    tokens = [[0, 2], [1, 3, 2], [3]]
    rewards = [1.0, -0.5, 0.25]
    cfg = GrpoConfig(kl_lambda=0.05, kl_estimator=KlEstimator.EXACT)

    def objective(th: np.ndarray) -> float:
        batch = _toy_batch(th, theta_old, theta_ref, tokens, rewards)
        return objective_report(batch, cfg)["objective"]

    # analytic gradient: d/dtheta_j log pi(y) = 1[j=y] - p_j; clip inactive
    adv = group_advantages(rewards, cfg)
    p = _softmax(theta)
    lp = np.log(p)
    lp_old = np.log(_softmax(theta_old))
    q = _softmax(theta_ref)
    lq = np.log(q)
    grad = np.zeros(vocab)
    g = len(tokens)
    for i, ids in enumerate(tokens):
        for y in ids:
            rho = math.exp(lp[y] - lp_old[y])
            coeff = adv[i] * rho / (g * len(ids))
            for j in range(vocab):
                grad[j] += coeff * ((1.0 if j == y else 0.0) - p[j])
    kl = float(np.dot(p, lp - lq))
    grad -= cfg.kl_lambda * (p * ((lp - lq) - kl))

    h = 1e-5
    for j in range(vocab):
        e = np.zeros(vocab)
        e[j] = h
        fd = (objective(theta + e) - objective(theta - e)) / (2 * h)
        assert abs(fd - grad[j]) < 1e-5, f"component {j}: fd={fd} analytic={grad[j]}"
