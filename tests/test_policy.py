import itertools
import math

import numpy as np
import pytest

from mergeopt import (
    InvalidBeta,
    ParameterSet,
    ToyPolicy,
    class_loss_and_grad,
    dpo_loss,
    dpo_loss_and_grad,
)
from mergeopt.policy import _backprop_into, _hidden_logits, _sigmoid, log_softmax
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

    def test_with_params_checks_a_new_layout(self):
        policy = make_policy(d=3, h=4, c=3, seed=5)
        moved = policy.params.with_vector(policy.params.vector() + 1.0)
        assert policy.with_params(moved).params is moved
        other = make_policy(d=3, h=5, c=3, seed=5).params
        with pytest.raises(ValueError, match="expected shape"):
            policy.with_params(other)

    def test_parameters_must_be_named_w1_b1_w2_b2(self):
        params = make_policy(d=3, h=4, c=3).params
        renamed = ParameterSet((n.upper(), s, a) for n, s, a in params)
        with pytest.raises(ValueError, match="policy parameters must be"):
            ToyPolicy(renamed, 3, 4, 3)

    def test_probabilities_normalize(self):
        policy = make_policy(seed=3)
        x = np.random.default_rng(4).normal(size=3)
        total = sum(math.exp(lp) for lp in policy.logprobs(x))
        assert total == pytest.approx(1.0, abs=1e-12)


def row_max_log_softmax(logits):
    """log_softmax with the max taken along the last axis, as it was before
    the transposed max."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]
SPECIAL_ROWS = np.array(list(itertools.product(SPECIAL_VALUES, repeat=4)))  # every 4-wide row


class TestLogSoftmaxBytes:
    """The transposed max gives the bytes of the row max."""

    @pytest.mark.parametrize("shape", [(2401, 4), (7, 343, 4), (49, 7, 7, 4)])
    def test_every_special_row(self, shape):
        logits = SPECIAL_ROWS.reshape(shape)
        with np.errstate(invalid="ignore"):
            got, want = log_softmax(logits), row_max_log_softmax(logits)
        assert got.tobytes() == want.tobytes()

    def test_one_dimensional_rows(self):
        with np.errstate(invalid="ignore"):
            for row in SPECIAL_ROWS[::7]:
                assert log_softmax(row).tobytes() == row_max_log_softmax(row).tobytes()

    @pytest.mark.parametrize("responses", range(2, 17))
    def test_random_rows(self, responses):
        rng = np.random.default_rng(responses)
        for rows in (1, 3, 32, 257, 500):
            logits = 10.0 * rng.normal(size=(rows, responses))
            assert log_softmax(logits).tobytes() == row_max_log_softmax(logits).tobytes()
        # Signed zeros, infinities and NaN in wide rows, where numpy's row
        # max reduces in SIMD lanes and may pick the other zero.
        logits = rng.choice(SPECIAL_VALUES, size=(500, responses))
        with np.errstate(invalid="ignore"):
            assert log_softmax(logits).tobytes() == row_max_log_softmax(logits).tobytes()


class TestDpoLoss:
    def test_identical_policies_give_log_two(self):
        policy = make_policy(seed=5)
        for seed in range(4):
            batch = make_batch(policy, n=16, seed=seed)
            loss, margins = dpo_loss(policy, policy.logprobs(batch.x), batch, beta=0.1)
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
        loss, margins = dpo_loss(policy, reference.logprobs(batch.x), batch, beta=0.1)
        assert margins[0] == pytest.approx(0.2, abs=1e-12)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_loss_strictly_decreasing_in_margin(self):
        margins = np.linspace(-3, 3, 50)
        losses = [float(np.logaddexp(0.0, -m)) for m in margins]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_invalid_beta(self):
        policy = make_policy()
        batch = make_batch(policy)
        with pytest.raises(InvalidBeta):
            dpo_loss(policy, policy.logprobs(batch.x), batch, beta=0.0)

    def test_reference_rows_must_match_the_batch(self):
        policy = make_policy()
        batch = make_batch(policy, n=8)
        ref = policy.logprobs(batch.x)
        for bad in (ref[:7], ref[:, :2], ref[0]):
            with pytest.raises(ValueError, match="reference log-probs"):
                dpo_loss(policy, bad, batch, 0.1)
            with pytest.raises(ValueError, match="reference log-probs"):
                dpo_loss_and_grad(policy, bad, batch, 0.1)


class TestDpoGrad:
    def test_matches_central_finite_differences(self):
        # Oracle: (loss(theta + e) - loss(theta - e)) / (2 eps) on every
        # coordinate of a (d=3, h=4, C=3) policy over 8 pairs.
        policy = make_policy(d=3, h=4, c=3, seed=7)
        reference = make_policy(d=3, h=4, c=3, seed=8)
        batch = make_batch(policy, n=8, seed=9)
        ref_lp = reference.logprobs(batch.x)
        beta = 0.1
        grad = dpo_loss_and_grad(policy, ref_lp, batch, beta)[2]

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
                    l_plus, _ = dpo_loss(policy.with_params(p_plus), ref_lp, batch, beta)
                    l_minus, _ = dpo_loss(policy.with_params(p_minus), ref_lp, batch, beta)
                    numeric = (l_plus - l_minus) / (2 * eps)
                    analytic = grad.flat(name)[i]
                    denom = max(abs(numeric), abs(analytic), 1e-8)
                    worst = max(worst, abs(numeric - analytic) / denom)
        assert worst < 1e-5

    def test_gradient_is_descent_direction(self):
        policy = make_policy(seed=11)
        reference = make_policy(seed=11)
        batch = make_batch(policy, n=16, seed=12)
        ref_lp = reference.logprobs(batch.x)
        loss0, _, grad = dpo_loss_and_grad(policy, ref_lp, batch, 0.1)
        step = 1e-4
        moved = policy.params.with_vector(policy.params.vector() - step * grad.vector())
        loss1, _ = dpo_loss(policy.with_params(moved), ref_lp, batch, 0.1)
        assert loss1 < loss0

    def test_empty_batch_gives_zero_gradient(self):
        policy = make_policy(seed=13)
        reference = make_policy(seed=14)
        empty = PreferenceSet(np.zeros((0, 3)), np.zeros(0, int), np.zeros(0, int))
        loss, margins, grad = dpo_loss_and_grad(policy, reference.logprobs(empty.x), empty, 0.1)
        assert loss == 0.0
        assert margins.size == 0
        assert all(np.all(a == 0.0) for _, _, a in grad)

    def test_empty_batch_loss_is_zero(self):
        policy = make_policy(seed=13)
        empty = PreferenceSet(np.zeros((0, 3)), np.zeros(0, int), np.zeros(0, int))
        loss, margins = dpo_loss(policy, policy.logprobs(empty.x), empty, 0.1)
        assert loss == 0.0 and type(loss) is float
        assert margins.shape == (0,)

    def test_reference_receives_no_gradient(self):
        policy = make_policy(seed=15)
        reference = make_policy(seed=16)
        batch = make_batch(policy, n=8, seed=17)
        ref_lp = reference.logprobs(batch.x)
        before = ref_lp.tobytes()
        dpo_loss_and_grad(policy, ref_lp, batch, 0.1)
        assert ref_lp.tobytes() == before

    def test_logit_scatter_matches_add_at(self):
        # Oracle: the gradient with the logit scatter done by np.add.at, which
        # accumulates repeated indices. Rows 0-1 have chosen == rejected; a
        # -inf reference entry makes a margin +inf (coefficient -0.0) and a NaN
        # entry makes it NaN.
        policy = make_policy(d=3, h=4, c=3, seed=18)
        batch = make_batch(policy, n=8, seed=19)
        chosen, rejected = batch.chosen.copy(), batch.rejected.copy()
        rejected[:2] = chosen[:2]
        batch = PreferenceSet(batch.x, chosen, rejected)
        ref_lp = make_policy(d=3, h=4, c=3, seed=20).logprobs(batch.x)
        ref_lp[2, chosen[2]] = -np.inf
        ref_lp[3, chosen[3]] = np.nan
        beta = 0.1

        x = batch.x
        weights = policy._views(policy.params.vector())
        hidden, logits = _hidden_logits(weights, x)
        lp = log_softmax(logits)
        rows = np.arange(len(x))
        margins = beta * (
            (lp[rows, chosen] - ref_lp[rows, chosen]) - (lp[rows, rejected] - ref_lp[rows, rejected])
        )
        coeff = -beta * _sigmoid(-margins) / len(x)
        assert np.signbit(coeff[2]) and coeff[2] == 0.0 and np.isnan(coeff[3])
        g_logits = np.zeros_like(logits)
        np.add.at(g_logits, (rows, chosen), coeff)
        np.add.at(g_logits, (rows, rejected), -coeff)
        expected = np.empty(policy.params.total_elements())
        _backprop_into(weights, policy._views(expected), x, hidden, g_logits)

        with np.errstate(invalid="ignore"):  # the NaN row's loss term
            _, got_margins, grad = dpo_loss_and_grad(policy, ref_lp, batch, beta)
        assert got_margins.tobytes() == margins.tobytes()
        assert grad.vector().tobytes() == expected.tobytes()


class TestBlockLogprobs:
    @pytest.mark.parametrize("hidden", [4, 16, 64, 256])
    def test_equal_to_a_forward_per_batch(self, hidden):
        # 203 rows: not a multiple of 7 or 32, and fewer than 256.
        rng = np.random.default_rng(hidden)
        reference = make_policy(d=6, h=hidden, c=4, seed=hidden)
        x = rng.normal(size=(203, 6))
        for batch_size in (1, 7, 32, 256):
            table = reference.block_logprobs(x, batch_size)
            assert table.shape == (203, 4)
            for _ in range(20):
                idx = rng.integers(0, len(x), size=batch_size)
                assert table[idx].tobytes() == reference.logprobs(x[idx]).tobytes()


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
