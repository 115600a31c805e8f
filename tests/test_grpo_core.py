from __future__ import annotations

import math
import random
import statistics
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvae_harness.errors import DataError
from tvae_harness.grpo_core import (
    GroupBatch,
    GroupOutput,
    GrpoConfig,
    KlEstimator,
    exact_kl,
    group_advantages,
    group_output_from_json,
    objective_report,
)

import reference_grpo


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
    adv = np.asarray(group_advantages([1.9] * 6))
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
    adv = np.asarray(adv)
    assert abs(adv.mean()) < 1e-12
    assert adv.std() == pytest.approx(1.0, rel=1e-6)


def test_advantage_normalization_property(rng: random.Random):
    for _ in range(200):
        g = rng.randint(2, 12)
        rewards = [rng.uniform(-2, 2) for _ in range(g)]
        if statistics.pstdev(rewards) < 0.01:
            continue  # eps guard dominates only at degenerate spreads
        adv = np.asarray(group_advantages(rewards))
        assert abs(adv.mean()) < 1e-12
        assert adv.std() == pytest.approx(1.0, rel=1e-6)


def test_advantages_of_rewards_whose_squares_overflow():
    # The mean of the squared residuals overflows, though the residuals and
    # their population std are finite floats.
    assert group_advantages([1e200, -1e200]) == [1.0, -1.0]
    for rewards in ([1e200, -1.25], [1.7e308, -1.7e308]):
        assert group_advantages(rewards) == pytest.approx([1.0, -1.0], abs=1e-15)
    assert group_advantages([1e300, -1e300, 0.0]) == pytest.approx(
        [math.sqrt(1.5), -math.sqrt(1.5), 0.0], abs=1e-15
    )


_MAX = sys.float_info.max


@st.composite
def _finite_rewards(draw):
    """2-12 finite rewards: +-max, zeros, subnormals, m * 10**e for e up to
    +-308, any float, and near-ties: a drawn reward moved 1-3 floats."""
    value = st.one_of(
        st.sampled_from([_MAX, -_MAX, 0.0, -0.0, 5e-324, -5e-324, sys.float_info.min]),
        st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-308, 307)),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    rewards = [draw(value)]
    for _ in range(draw(st.integers(1, 11))):
        if not draw(st.booleans()):
            rewards.append(draw(value))
            continue
        r, toward = draw(st.sampled_from(rewards)), draw(st.sampled_from([-_MAX, 0.0, _MAX]))
        for _ in range(draw(st.integers(1, 3))):
            r = math.nextafter(r, toward)
        rewards.append(r)
    return rewards


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(rewards=_finite_rewards())
@example(rewards=[1.7e308, -1.7e308, 0.0, 1e308])  # a residual overflows
@example(rewards=[1e308, 1e308, 0.0])  # the sum overflows
@example(rewards=[-1.9524809139953135e22, -1.952480913995313e22])  # a near-tie
def test_advantages_of_finite_rewards_are_finite_and_within_the_exact_bound(rewards):
    advantages = group_advantages(rewards)
    assert all(map(math.isfinite, advantages))
    assert max(reference_grpo.advantage_errors(rewards, advantages)) <= 1.0


def test_group_too_small():
    with pytest.raises(DataError, match="^group of 1; need >= 2$"):
        group_advantages([1.0])


# -- ratios ----------------------------------------------------------------------------


def test_ratios_identity_and_exp():
    batch = GroupBatch((
        _output(1.0, [-0.5, -0.2]),
        _output(0.0, [-0.5 + math.log(1.5), -0.2], old=[-0.5, -0.2]),
    ))
    report = objective_report(batch, GrpoConfig(kl_lambda=0.0))
    adv, surrogate = report["advantages"], report["surrogate_per_output"]
    assert surrogate[0] == pytest.approx(adv[0])  # ratios 1, 1
    assert surrogate[1] == pytest.approx(adv[1] * (1.5 + 1.0) / 2)  # ratios 1.5, 1; A < 0


def test_logprob_length_mismatch():
    with pytest.raises(DataError, match="^log-prob lengths differ"):
        GroupOutput(reward=0.0, logprobs_new=(-0.1,), logprobs_old=(-0.1, -0.2), logprobs_ref=(-0.1,))


def test_group_output_reader_converts_exactly_and_refuses_non_numbers():
    # integers become floats, finite values whose sum overflows are kept, and
    # a value `records.number` refuses is a DataError naming its key
    obj = {"logprobs_new": [-1, -0.5], "logprobs_old": [-1e308, -1e308], "logprobs_ref": [-1.0, 0]}
    out = group_output_from_json(obj, 2)
    assert (out.reward, out.logprobs_new, out.logprobs_old) == (2.0, (-1.0, -0.5), (-1e308, -1e308))
    assert out.logprobs_ref == (-1.0, 0.0) and all(type(v) is float for v in out.logprobs_ref)
    for value in (True, "-0.5", None, -(10**400)):
        with pytest.raises(DataError, match=r"^group_output: invalid logprobs_ref \("):
            group_output_from_json({**obj, "logprobs_ref": [-1.0, value]}, 2)


def test_positive_logprobs_rejected():
    with pytest.raises(DataError, match="invalid logprobs"):
        GroupOutput(reward=0.0, logprobs_new=(0.5,), logprobs_old=(-0.1,), logprobs_ref=(-0.1,))


@pytest.mark.parametrize("key", ["logprobs_new", "logprobs_old", "logprobs_ref"])
def test_leading_nan_does_not_hide_a_positive_logprob(key):
    # max((nan, 1.0)) is nan, and nan > 0 is false: a check by max() passes this
    fields = {k: (-0.1, -0.1) for k in ("logprobs_new", "logprobs_old", "logprobs_ref")}
    with pytest.raises(DataError, match=r"^group_output: invalid logprobs \(must be <= 0\)$"):
        GroupOutput(reward=0.0, **{**fields, key: (math.nan, 1.0)})
    # a NaN is no positive value: the reader, not this check, refuses it as not finite
    GroupOutput(reward=0.0, **{**fields, key: (math.nan, -1.0)})


# -- clipped surrogate --------------------------------------------------------------------


def _surrogates(ratios: list[list[float]], rewards: list[float], cfg: GrpoConfig | None = None):
    """Per-output clipped surrogate and advantage of outputs with the given
    per-token probability ratios."""
    batch = GroupBatch(tuple(
        _output(r, [-3.0 + math.log(rho) for rho in rhos], old=[-3.0] * len(rhos))
        for rhos, r in zip(ratios, rewards)
    ))
    report = objective_report(batch, cfg or GrpoConfig())
    return report["surrogate_per_output"], report["advantages"]


def test_clip_arithmetic():
    means, adv = _surrogates([[1.5], [0.5]], [1.0, -1.0])
    assert means[0] == pytest.approx(1.2 * adv[0])  # min(1.5, 1.2)
    assert means[1] == pytest.approx(0.8 * adv[1])  # A < 0: max(0.5, 0.8)
    assert adv[0] == pytest.approx(1.0) and adv[1] == pytest.approx(-1.0)
    means, _ = _surrogates([[0.9, 1.1], [1.3]], [0.7, 0.7])
    assert means == [0.0, 0.0]


def test_clip_equals_unclipped_inside_window(rng: random.Random):
    cfg = GrpoConfig()
    for _ in range(200):
        rho = [rng.uniform(0.8, 1.2) for _ in range(5)]
        means, adv = _surrogates([rho, [1.0]], [rng.uniform(-2, 2), rng.uniform(-2, 2)], cfg)
        assert means[0] == pytest.approx(adv[0] * statistics.fmean(rho), abs=1e-12)


def test_clip_reduces_positive_incentive_beyond_window(rng: random.Random):
    cfg = GrpoConfig()
    for _ in range(200):
        rho = rng.uniform(1.2001, 3.0)
        means, adv = _surrogates([[rho], [1.0]], [rng.uniform(0.01, 2), 0.0], cfg)
        assert means[0] <= rho * adv[0]
        assert means[0] == pytest.approx(1.2 * adv[0])


def test_distribution_shape_mismatch():
    with pytest.raises(DataError, match="equal-shaped"):
        exact_kl([[0.5, 0.5]], [[0.5, 0.25, 0.25]])
    with pytest.raises(DataError, match="equal-shaped"):
        exact_kl([[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5]])
    with pytest.raises(DataError, match="equal-shaped"):
        exact_kl([], [])
    with pytest.raises(DataError, match="must align with tokens"):
        _output(1.0, [-0.3, -0.2], dist_new=((0.5, 0.5),), dist_ref=((0.5, 0.5),) * 2)


# -- KL --------------------------------------------------------------------------------------


def test_kl_zero_when_policies_agree():
    batch = GroupBatch((_output(1.0, [-0.3, -0.7]), _output(-1.0, [-0.2])))
    kl = objective_report(batch, GrpoConfig(kl_estimator=KlEstimator.K3))["kl_per_output"]
    assert np.all(np.asarray(kl) == 0.0)
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
        assert np.all(np.asarray(objective_report(batch, GrpoConfig())["kl_per_output"]) >= 0.0)


def test_exact_kl_validates_distributions():
    with pytest.raises(DataError, match="^new rows must be distributions$"):
        exact_kl(np.array([[0.5, 0.6]]), np.array([[0.5, 0.5]]))
    with pytest.raises(DataError, match="zero mass"):
        exact_kl(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
    with pytest.raises(DataError, match="^new rows must be distributions$"):
        exact_kl([[1.5, -0.5]], [[0.5, 0.5]])
    # entries are checked to be in [0, 1] before a row is summed, so the sum cannot overflow
    with pytest.raises(DataError, match="^ref rows must be distributions$"):
        exact_kl([[0.5, 0.5]], [[1e308, 1e308]])
    batch = GroupBatch((_output(1.0, [-0.3]), _output(0.0, [-0.3])))
    with pytest.raises(DataError, match="^exact KL requires full per-token distributions$"):
        objective_report(batch, GrpoConfig(kl_estimator=KlEstimator.EXACT))
    # lambda 0 never reads the distributions
    objective_report(batch, GrpoConfig(kl_lambda=0.0, kl_estimator=KlEstimator.EXACT))


# -- objective ---------------------------------------------------------------------------------


def test_objective_fully_degenerate_is_zero():
    batch = GroupBatch((
        _output(1.5, [-0.4, -0.9]),
        _output(1.5, [-0.2]),
        _output(1.5, [-0.8, -0.1, -0.3]),
    ))
    assert objective_report(batch, GrpoConfig())["objective"] == 0.0


def test_lambda_zero_reduces_to_surrogate():
    batch = GroupBatch((
        _output(1.0, [-0.5], ref=[-2.0]),
        _output(-1.0, [-0.5], ref=[-2.0]),
    ))
    cfg0 = GrpoConfig(kl_lambda=0.0)
    cfg1 = GrpoConfig(kl_lambda=0.05)
    adv = group_advantages(batch.rewards)  # ratios are 1: surrogate = advantage
    objective0 = objective_report(batch, cfg0)["objective"]
    assert objective0 == pytest.approx(statistics.fmean(adv))
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
    report = objective_report(batch, GrpoConfig())
    assert report["group_size"] == 2
    assert len(report["advantages"]) == 2
    assert "objective" in report and "kl_estimator" in report


@pytest.mark.parametrize("rewards, old", [
    ([1.0, -1.0], -800.5),  # exp(800) overflows a float: the ratio is inf
    ([1e308, 1e308, 0.0], -0.4),  # the reward sum overflows; the advantages do not
    ([math.inf, -math.inf], -0.4),
    ([math.nan, 1.0], -0.4),
])
def test_non_finite_values_match_numpy_reference(rewards, old):
    batch = GroupBatch(tuple(_output(r, [-0.5], old=[old], ref=[-0.6]) for r in rewards))
    report = objective_report(batch, GrpoConfig())
    if all(map(math.isfinite, rewards)) and -0.5 - old < math.log(_MAX):
        # Every true value is in range, so numpy's overflow is no reference:
        # the exact advantages are, about [0.707, 0.707, -1.414].
        assert max(reference_grpo.advantage_errors(rewards, report["advantages"])) <= 1.0
        assert math.isfinite(report["objective"])
        return
    with np.errstate(all="ignore"):
        expected = reference_grpo.objective_report(batch)
    assert repr(report) == repr(expected)


# -- the numpy reference ---------------------------------------------------------------------


@st.composite
def _groups(draw):
    """A group of 2-12 outputs of 1-200 tokens (crossing numpy's 8-wide and
    128-block pairwise-sum boundaries), with full distributions on every
    token, and a config over both KL estimators and lambda 0."""
    lengths = draw(st.lists(st.integers(1, 200), min_size=2, max_size=12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    vocab = draw(st.integers(2, 5))
    if draw(st.booleans()):
        rewards = [draw(st.sampled_from([-2.0, -0.5, 1.0, 2.0]))] * len(lengths)  # degenerate
    else:
        rewards = [rng.choice([rng.uniform(-3, 3), -2.0, 1.0]) for _ in lengths]

    def dist(floor: float) -> tuple[float, ...]:
        weights = [max(floor, rng.random() - 0.3) for _ in range(vocab - 1)] + [rng.random() + 0.01]
        total = math.fsum(weights)
        return tuple(w / total for w in weights)

    def logprobs(n: int, base: list[float], spread: float) -> list[float]:
        return [min(0.0, v + rng.gauss(0.0, spread)) for v in base[:n]]

    outputs = []
    for n, reward in zip(lengths, rewards):
        old = [-rng.uniform(0.01, 4.0) for _ in range(n)]
        spread = rng.choice([0.01, 0.15, 0.6])
        outputs.append(GroupOutput(
            reward=reward,
            logprobs_new=tuple(logprobs(n, old, spread)),
            logprobs_old=tuple(old),
            logprobs_ref=tuple(logprobs(n, old, spread)),
            dist_new=tuple(dist(0.0) for _ in range(n)),  # with zero-mass tokens
            dist_ref=tuple(dist(0.01) for _ in range(n)),
        ))
    cfg = GrpoConfig(
        eps_clip=draw(st.sampled_from([0.2, 0.1, 0.5])),
        kl_lambda=draw(st.sampled_from([0.0, 0.05, 0.3])),
        kl_estimator=draw(st.sampled_from(list(KlEstimator))),
    )
    return GroupBatch(tuple(outputs)), cfg


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_groups())
def test_objective_matches_numpy_reference(case):
    batch, cfg = case
    ours, theirs = objective_report(batch, cfg), reference_grpo.objective_report(batch, cfg)
    assert list(ours) == list(theirs)
    for key, value in ours.items():
        if isinstance(value, list):
            assert len(value) == len(theirs[key])
            assert all(abs(a - b) <= 1e-12 for a, b in zip(value, theirs[key])), key
        elif isinstance(value, float):
            assert abs(value - theirs[key]) <= 1e-12, key
        else:
            assert value == theirs[key], key


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
    adv = group_advantages(rewards)
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
