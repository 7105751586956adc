"""Toy softmax response-chooser policies and the preference loss.

A policy is a two-layer perceptron over C fixed candidate responses: the
preference loss only depends on log-probabilities of chosen indices, so this
keeps the optimization problem's structure without any sequence modeling.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidBeta, is_real
from .params import ParameterSet

PARAM_NAMES = ("w1", "b1", "w2", "b2")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp only of -|x| <= 0, so it never overflows: 1 / (1 + e^-x) for
    # x >= 0 and e^x / (1 + e^x) below.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax with max subtraction; safe for huge logits.

    The row max is one elementwise maximum over the responses, taken on a
    contiguous copy of the transpose (whose first axis is the last one):
    numpy reduces a short last axis row by row, at 500 rows of 4 about 9
    times as slowly. Max is exact, so only the sign of a zero maximum (when a
    row holds +0.0 and -0.0) or of a NaN may differ, and the first never
    reaches the result: such a row's exponent sum is at least 2, so each of
    its zeros gives the same -log(sum).
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.T.copy().max(axis=0).T[..., None]
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class ToyPolicy:
    """Perceptron d -> h (tanh) -> C logits, parameters held in a ParameterSet."""

    def __init__(self, params: ParameterSet, input_dim: int, hidden_dim: int, num_responses: int):
        expected = {
            "w1": (hidden_dim, input_dim),
            "b1": (hidden_dim,),
            "w2": (num_responses, hidden_dim),
            "b2": (num_responses,),
        }
        if params.names != PARAM_NAMES:
            raise ValueError(f"policy parameters must be {PARAM_NAMES}, got {params.names}")
        for name, shape in expected.items():
            if params.shape(name) != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {params.shape(name)}")
        self.params = params
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        self.num_responses = int(num_responses)
        self._slices = tuple(s for _, s in params.slices())

    @classmethod
    def random_init(cls, input_dim: int, hidden_dim: int, num_responses: int, rng) -> "ToyPolicy":
        w1 = rng.normal(size=(hidden_dim, input_dim)) / np.sqrt(input_dim)
        w2 = rng.normal(size=(num_responses, hidden_dim)) / np.sqrt(hidden_dim)
        params = ParameterSet(
            [
                ("w1", (hidden_dim, input_dim), w1),
                ("b1", (hidden_dim,), np.zeros(hidden_dim)),
                ("w2", (num_responses, hidden_dim), w2),
                ("b2", (num_responses,), np.zeros(num_responses)),
            ]
        )
        return cls(params, input_dim, hidden_dim, num_responses)

    def with_params(self, params: ParameterSet) -> "ToyPolicy":
        """This policy's shapes over params."""
        return ToyPolicy(params, self.input_dim, self.hidden_dim, self.num_responses)

    def _views(self, v: np.ndarray):
        """w1, b1, w2, b2 as views of a flat vector in this policy's layout."""
        s_w1, s_b1, s_w2, s_b2 = self._slices
        return (
            v[s_w1].reshape(self.hidden_dim, self.input_dim),
            v[s_b1],
            v[s_w2].reshape(self.num_responses, self.hidden_dim),
            v[s_b2],
        )

    def logits(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        _, out = _hidden_logits(self._views(self.params.vector()), np.atleast_2d(x))
        return out[0] if x.ndim == 1 else out

    def logprobs(self, x: np.ndarray) -> np.ndarray:
        return log_softmax(self.logits(x))

    def block_logprobs(self, x: np.ndarray, block_rows: int) -> np.ndarray:
        """logprobs of every row of the 2-D x, computed block_rows rows at a
        time with the last block zero-padded.

        Every forward then has the shape of a block_rows-row batch, and each
        row gets the bits a forward over such a batch gives it. One forward
        over all rows does not: BLAS picks its kernel by the row count, and
        at larger widths a different kernel changes the last bits.
        """
        x = np.asarray(x, dtype=np.float64)
        n = len(x)
        padded = np.zeros((-(-n // block_rows) * block_rows, x.shape[1]))
        padded[:n] = x
        # One stacked matmul: numpy calls BLAS once per block_rows-row block.
        stacked = self.logprobs(padded.reshape(-1, block_rows, x.shape[1]))
        return stacked.reshape(-1, self.num_responses)[:n]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=-1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == np.asarray(labels)))


def _hidden_logits(weights, x: np.ndarray):
    """The tanh hidden activations and the logits of float64 rows x under
    weights, the views (w1, b1, w2, b2)."""
    w1, b1, w2, b2 = weights
    hidden = x @ w1.T
    hidden += b1
    np.tanh(hidden, out=hidden)
    logits = hidden @ w2.T
    logits += b2
    return hidden, logits


def _margins(logits, ref, chosen, rejected, beta: float):
    """(rows, margins): the per-pair margins beta * (logratio_chosen -
    logratio_rejected), where logratio_y = log pi(y|x) - ref[row, y]."""
    rows = np.arange(len(logits))
    ratio = log_softmax(logits) - ref
    return rows, beta * (ratio[rows, chosen] - ratio[rows, rejected])


def _checked_batch(policy: ToyPolicy, ref_logprobs, batch, beta):
    """(x, chosen, rejected, ref, beta) of a PreferenceSet-like batch as the
    loss cores take them, after checking beta and that ref_logprobs, the
    reference model's log-probabilities over the batch's rows, has one row
    per pair."""
    if not (is_real(beta) and beta > 0):
        raise InvalidBeta(f"beta must be a positive finite number, got {beta!r}")
    x = np.atleast_2d(np.asarray(batch.x, dtype=np.float64))
    chosen, rejected = np.asarray(batch.chosen, int), np.asarray(batch.rejected, int)
    ref = np.asarray(ref_logprobs, dtype=np.float64)
    need = x.shape[:-1] + (policy.num_responses,)
    if ref.shape != need:
        raise ValueError(f"reference log-probs have shape {ref.shape}, the batch needs {need}")
    return x, chosen, rejected, ref, float(beta)


def dpo_loss(policy: ToyPolicy, ref_logprobs, batch, beta: float):
    """Mean -log sigmoid(margin) over the batch, plus the per-pair margins.

    ref_logprobs holds the reference model's log-probabilities over the
    batch's rows (ToyPolicy.logprobs of the reference). An empty batch yields
    loss 0.0 by the empty-mean convention.
    """
    x, chosen, rejected, ref, beta = _checked_batch(policy, ref_logprobs, batch, beta)
    _, logits = _hidden_logits(policy._views(policy.params.vector()), x)
    margins = _margins(logits, ref, chosen, rejected, beta)[1]
    if margins.size == 0:
        return 0.0, margins
    return float(np.logaddexp(0.0, -margins).sum() / margins.size), margins


def dpo_loss_and_grad(policy: ToyPolicy, ref_logprobs, batch, beta: float):
    """One fused forward/backward: returns (loss, margins, gradient ParameterSet).

    The gradient is exact reverse-mode differentiation of the loss with
    respect to the policy parameters; the reference log-probabilities are
    constants. An empty batch gives loss 0.0 and a zero gradient.
    """
    x, chosen, rejected, ref, beta = _checked_batch(policy, ref_logprobs, batch, beta)
    grad = np.zeros(policy.params.total_elements())
    if len(x) == 0:
        return 0.0, np.zeros(0), policy.params.with_vector(grad)
    weights = policy._views(policy.params.vector())
    loss, margins = dpo_loss_and_grad_into(
        weights, policy._views(grad), x, chosen, rejected, ref, beta
    )
    return loss, margins, policy.params.with_vector(grad)


def dpo_loss_and_grad_into(weights, grads, x, chosen, rejected, ref, beta: float):
    """dpo_loss_and_grad's core, without checks: the gradient with respect to
    weights (w1, b1, w2, b2) is written into the views grads, and (loss,
    margins) returned. x is a nonempty 2-D float64 batch, chosen and rejected
    integer arrays, ref its reference rows and beta a positive float.

    The softmax terms of the two log-probabilities cancel, leaving per-pair
    logit gradients -beta * sigmoid(-margin) * (onehot_chosen -
    onehot_rejected) / n.
    """
    hidden, logits = _hidden_logits(weights, x)
    rows, margins = _margins(logits, ref, chosen, rejected, beta)
    n = len(x)
    neg = -margins
    loss = float(np.logaddexp(0.0, neg).sum() / n)
    coeff = -beta * _sigmoid(neg) / n
    g_logits = np.zeros(logits.shape)
    # Each statement hits every row once, so nothing accumulates within one:
    # the same bits as np.add.at onto zeros, also where chosen == rejected.
    # The first writes 0.0 + coeff, which turns a -0.0 coefficient into 0.0.
    g_logits[rows, chosen] = coeff + 0.0
    g_logits[rows, rejected] += -coeff
    _backprop_into(weights, grads, x, hidden, g_logits)
    return loss, margins


def _backprop_into(weights, grads, x, hidden, g_logits) -> None:
    """Write the gradient from the logit gradients into the views grads,
    each block computed into its own view."""
    g_w1, g_b1, g_w2, g_b2 = grads
    np.matmul(g_logits.T, hidden, out=g_w2)
    g_logits.sum(axis=0, out=g_b2)
    g_z1 = g_logits @ weights[2]
    g_z1 *= 1.0 - hidden**2
    np.matmul(g_z1.T, x, out=g_w1)
    g_z1.sum(axis=0, out=g_b1)


def class_loss_and_grad(policy: ToyPolicy, x: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy on class labels and its exact gradient; used by the
    supervised pretrain and SFT phases."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    grad = np.empty(policy.params.total_elements())
    loss = class_loss_and_grad_into(
        policy._views(policy.params.vector()), policy._views(grad), x,
        np.asarray(labels, dtype=int),
    )
    return loss, policy.params.with_vector(grad)


def class_loss_and_grad_into(weights, grads, x, labels) -> float:
    """class_loss_and_grad's core, without checks: the gradient with respect
    to weights (w1, b1, w2, b2) is written into the views grads, and the loss
    returned. x is a 2-D float64 batch and labels an integer array."""
    hidden, logits = _hidden_logits(weights, x)
    lp = log_softmax(logits)
    rows = np.arange(len(x))
    loss = float(-(lp[rows, labels].sum() / len(x)))
    g_logits = np.exp(lp)
    g_logits[rows, labels] -= 1.0
    g_logits /= len(x)
    _backprop_into(weights, grads, x, hidden, g_logits)
    return loss
