import math

import numpy as np
import pytest

from mergeopt import (
    InvalidBeta,
    ParameterSet,
    ToyPolicy,
    class_loss_and_grad,
    dpo_grad,
    dpo_loss,
    dpo_loss_and_grad,
)
from mergeopt.tasks import PreferenceSet


def make_policy(d=3, h=4, c=3, seed=0):
    return ToyPolicy.random_init(d, h, c, np.random.default_rng(seed))


def make_batch(policy, n=8, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, policy.input_dim))
    first = rng.integers(0, policy.num_responses, size=n)
    second = (first + 1 + rng.integers(0, policy.num_responses - 1, size=n)) % (
        policy.num_responses
    )
    return PreferenceSet(x, first, second)


class TestLogprob:
    def test_uniform_logits_give_log_quarter(self):
        params = ParameterSet(
            [
                ("w1", (2, 3), np.zeros(6)),
                ("b1", (2,), np.zeros(2)),
                ("w2", (4, 2), np.zeros(8)),
                ("b2", (4,), np.zeros(4)),
            ]
        )
        policy = ToyPolicy(params, 3, 2, 4)
        lp = policy.logprobs(np.ones(3))[2]
        assert lp == pytest.approx(math.log(0.25), abs=1e-12)

    def test_huge_logits_do_not_overflow(self):
        params = ParameterSet(
            [
                ("w1", (1, 1), [0.0]),
                ("b1", (1,), [0.0]),
                ("w2", (2, 1), [0.0, 0.0]),
                ("b2", (2,), [1000.0, 0.0]),
            ]
        )
        policy = ToyPolicy(params, 1, 1, 2)
        lp = policy.logprobs(np.zeros(1))[0]
        assert math.isfinite(lp)
        assert lp == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_normalize(self):
        policy = make_policy(seed=3)
        x = np.random.default_rng(4).normal(size=3)
        total = sum(math.exp(lp) for lp in policy.logprobs(x))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestDpoLoss:
    def test_identical_policies_give_log_two(self):
        policy = make_policy(seed=5)
        for seed in range(4):
            batch = make_batch(policy, n=16, seed=seed)
            loss, margins = dpo_loss(policy, policy, batch, beta=0.1)
            assert loss == pytest.approx(math.log(2.0), abs=1e-12)
            assert np.all(margins == 0.0)

    def test_scalar_oracle_value(self):
        # -log sigmoid(0.1 * (1 - (-1))) = -log sigmoid(0.2), evaluated
        # independently from math primitives.
        expected = -math.log(1.0 / (1.0 + math.exp(-0.2)))
        assert expected == pytest.approx(0.598139, abs=1e-6)
        # Reproduce through the public API with two policies engineered to
        # give logratio +1 for the chosen and -1 for the rejected response.
        zeros = dict(w1=("w1", (1, 1), [0.0]), b1=("b1", (1,), [0.0]))
        ref_params = ParameterSet(
            [zeros["w1"], zeros["b1"], ("w2", (2, 1), [0.0, 0.0]), ("b2", (2,), [0.0, 0.0])]
        )
        pol_params = ParameterSet(
            [zeros["w1"], zeros["b1"], ("w2", (2, 1), [0.0, 0.0]), ("b2", (2,), [1.0, -1.0])]
        )
        reference = ToyPolicy(ref_params, 1, 1, 2)
        policy = ToyPolicy(pol_params, 1, 1, 2)
        batch = PreferenceSet(np.zeros((1, 1)), np.array([0]), np.array([1]))
        # logratio_chosen - logratio_rejected = (lp0 - ref0) - (lp1 - ref1);
        # with symmetric logits (+1, -1) the log-softmax shifts cancel and
        # the difference is exactly 2.
        loss, margins = dpo_loss(policy, reference, batch, beta=0.1)
        assert margins[0] == pytest.approx(0.2, abs=1e-12)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_loss_strictly_decreasing_in_margin(self):
        margins = np.linspace(-3, 3, 50)
        losses = [float(np.logaddexp(0.0, -m)) for m in margins]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_invalid_beta(self):
        policy = make_policy()
        with pytest.raises(InvalidBeta):
            dpo_loss(policy, policy, make_batch(policy), beta=0.0)


class TestDpoGrad:
    def test_matches_central_finite_differences(self):
        # Oracle: (loss(theta + e) - loss(theta - e)) / (2 eps) on every
        # coordinate of a (d=3, h=4, C=3) policy over 8 pairs.
        policy = make_policy(d=3, h=4, c=3, seed=7)
        reference = make_policy(d=3, h=4, c=3, seed=8)
        batch = make_batch(policy, n=8, seed=9)
        beta = 0.1
        grad = dpo_grad(policy, reference, batch, beta)

        eps = 1e-6
        worst = 0.0
        for name, shape, arr in policy.params:
            for i in range(arr.size):
                for sign in (+1.0,):
                    plus = arr.copy()
                    plus[i] += eps
                    minus = arr.copy()
                    minus[i] -= eps
                    p_plus = ParameterSet(
                        (n, s, plus if n == name else a) for n, s, a in policy.params
                    )
                    p_minus = ParameterSet(
                        (n, s, minus if n == name else a) for n, s, a in policy.params
                    )
                    l_plus, _ = dpo_loss(policy.with_params(p_plus), reference, batch, beta)
                    l_minus, _ = dpo_loss(policy.with_params(p_minus), reference, batch, beta)
                    numeric = (l_plus - l_minus) / (2 * eps)
                    analytic = grad.flat(name)[i]
                    denom = max(abs(numeric), abs(analytic), 1e-8)
                    worst = max(worst, abs(numeric - analytic) / denom)
        assert worst < 1e-5

    def test_gradient_is_descent_direction(self):
        policy = make_policy(seed=11)
        reference = make_policy(seed=11)
        batch = make_batch(policy, n=16, seed=12)
        loss0, _, grad = dpo_loss_and_grad(policy, reference, batch, 0.1)
        step = 1e-4
        moved = policy.params.with_vector(policy.params.vector() - step * grad.vector())
        loss1, _ = dpo_loss(policy.with_params(moved), reference, batch, 0.1)
        assert loss1 < loss0

    def test_empty_batch_gives_zero_gradient(self):
        policy = make_policy(seed=13)
        reference = make_policy(seed=14)
        empty = PreferenceSet(np.zeros((0, 3)), np.zeros(0, int), np.zeros(0, int))
        loss, margins, grad = dpo_loss_and_grad(policy, reference, empty, 0.1)
        assert loss == 0.0
        assert margins.size == 0
        assert all(np.all(a == 0.0) for _, _, a in grad)

    def test_reference_receives_no_gradient(self):
        policy = make_policy(seed=15)
        reference = make_policy(seed=16)
        before = reference.params.fingerprint()
        dpo_grad(policy, reference, make_batch(policy, n=8, seed=17), 0.1)
        assert reference.params.fingerprint() == before


class TestClassificationLoss:
    def test_matches_finite_differences(self):
        policy = make_policy(d=3, h=4, c=3, seed=20)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(10, 3))
        y = rng.integers(0, 3, size=10)
        _, grad = class_loss_and_grad(policy, x, y)
        eps = 1e-6
        for name, shape, arr in policy.params:
            for i in range(0, arr.size, 3):
                plus, minus = arr.copy(), arr.copy()
                plus[i] += eps
                minus[i] -= eps
                lp, _ = class_loss_and_grad(
                    policy.with_params(
                        ParameterSet((n, s, plus if n == name else a) for n, s, a in policy.params)
                    ),
                    x,
                    y,
                )
                lm, _ = class_loss_and_grad(
                    policy.with_params(
                        ParameterSet(
                            (n, s, minus if n == name else a) for n, s, a in policy.params
                        )
                    ),
                    x,
                    y,
                )
                numeric = (lp - lm) / (2 * eps)
                assert abs(numeric - grad.flat(name)[i]) < 1e-6 * max(1.0, abs(numeric))

    def test_perfect_classifier_accuracy(self):
        policy = make_policy(d=3, h=4, c=3, seed=22)
        x = np.random.default_rng(23).normal(size=(50, 3))
        labels = policy.predict(x)
        assert policy.accuracy(x, labels) == 1.0
