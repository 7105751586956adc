"""Toy softmax response-chooser policies and the preference loss.

A policy is a two-layer perceptron over C fixed candidate responses: the
preference loss only depends on log-probabilities of chosen indices, so this
keeps the optimization problem's structure without any sequence modeling.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidBeta
from .params import ParameterSet

PARAM_NAMES = ("w1", "b1", "w2", "b2")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp only of -|x| <= 0, so it never overflows: 1 / (1 + e^-x) for
    # x >= 0 and e^x / (1 + e^x) below.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax with max subtraction; safe for huge logits."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
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
        """This policy's shapes over params; a set with this policy's layout
        (as ParameterSet.with_vector makes) is not validated again."""
        if not params.same_layout(self.params):
            return ToyPolicy(params, self.input_dim, self.hidden_dim, self.num_responses)
        out = object.__new__(ToyPolicy)
        out.__dict__.update(self.__dict__)
        out.params = params
        return out

    def _views(self, v: np.ndarray):
        """w1, b1, w2, b2 as views of a flat vector in this policy's layout."""
        s_w1, s_b1, s_w2, s_b2 = self._slices
        return (
            v[s_w1].reshape(self.hidden_dim, self.input_dim),
            v[s_b1],
            v[s_w2].reshape(self.num_responses, self.hidden_dim),
            v[s_b2],
        )

    def _forward(self, x: np.ndarray):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        w1, b1, w2, b2 = self._views(self.params.vector())
        hidden = x @ w1.T
        hidden += b1
        np.tanh(hidden, out=hidden)
        logits = hidden @ w2.T
        logits += b2
        return x, hidden, logits

    def logits(self, x: np.ndarray) -> np.ndarray:
        _, _, out = self._forward(x)
        return out[0] if np.asarray(x).ndim == 1 else out

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


def _forward_margins(policy: ToyPolicy, ref_logprobs, batch, beta: float):
    """The policy forward over a PreferenceSet-like batch and the per-pair
    margins beta * (logratio_chosen - logratio_rejected), where
    logratio_y = log pi(y|x) - ref_logprobs[row, y]: the reference model's
    log-probabilities over the batch's rows, one row per pair.

    Returns (x, hidden, logits, rows, chosen, rejected, margins)."""
    beta = float(beta)
    if not beta > 0:
        raise InvalidBeta(f"beta must be positive, got {beta}")
    x, hidden, logits = policy._forward(batch.x)
    chosen, rejected = np.asarray(batch.chosen, int), np.asarray(batch.rejected, int)
    ref = np.asarray(ref_logprobs, dtype=np.float64)
    if ref.shape != logits.shape:
        raise ValueError(
            f"reference log-probs have shape {ref.shape}, the batch needs {logits.shape}"
        )
    rows = np.arange(len(x))
    ratio = log_softmax(logits) - ref
    margins = beta * (ratio[rows, chosen] - ratio[rows, rejected])
    return x, hidden, logits, rows, chosen, rejected, margins


def dpo_loss(policy: ToyPolicy, ref_logprobs, batch, beta: float):
    """Mean -log sigmoid(margin) over the batch, plus the per-pair margins.

    ref_logprobs holds the reference model's log-probabilities over the
    batch's rows (ToyPolicy.logprobs of the reference). An empty batch yields
    loss 0.0 by the empty-mean convention.
    """
    margins = _forward_margins(policy, ref_logprobs, batch, beta)[-1]
    if margins.size == 0:
        return 0.0, margins
    return float(np.logaddexp(0.0, -margins).sum() / margins.size), margins


def dpo_loss_and_grad(policy: ToyPolicy, ref_logprobs, batch, beta: float):
    """One fused forward/backward: returns (loss, margins, gradient ParameterSet).

    The gradient is exact reverse-mode differentiation of the loss with
    respect to the policy parameters; the reference log-probabilities are
    constants. The softmax terms of the two log-probabilities cancel, leaving
    per-pair logit gradients -beta * sigmoid(-margin) * (onehot_chosen -
    onehot_rejected) / n.
    """
    x, hidden, logits, rows, chosen, rejected, margins = _forward_margins(
        policy, ref_logprobs, batch, beta
    )
    n = len(x)
    if n == 0:
        zero = policy.params.map(np.zeros_like)
        return 0.0, margins, zero
    neg = -margins
    loss = float(np.logaddexp(0.0, neg).sum() / n)

    coeff = -float(beta) * _sigmoid(neg) / n
    g_logits = np.zeros(logits.shape)
    # Each statement hits every row once, so nothing accumulates within one:
    # the same bits as np.add.at onto zeros, also where chosen == rejected.
    # The first writes 0.0 + coeff, which turns a -0.0 coefficient into 0.0.
    g_logits[rows, chosen] = coeff + 0.0
    g_logits[rows, rejected] += -coeff
    grad = _backprop(policy, x, hidden, g_logits)
    return loss, margins, grad


def _backprop(policy: ToyPolicy, x, hidden, g_logits) -> ParameterSet:
    """The gradient set from the logit gradients, each block computed into
    its slice of one flat vector."""
    grad = np.empty(policy.params.total_elements())
    g_w1, g_b1, g_w2, g_b2 = policy._views(grad)
    np.matmul(g_logits.T, hidden, out=g_w2)
    g_logits.sum(axis=0, out=g_b2)
    g_z1 = g_logits @ policy.params.tensor("w2")
    g_z1 *= 1.0 - hidden**2
    np.matmul(g_z1.T, x, out=g_w1)
    g_z1.sum(axis=0, out=g_b1)
    return policy.params.with_vector(grad)


def class_loss_and_grad(policy: ToyPolicy, x: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy on class labels and its exact gradient; used by the
    supervised pretrain and SFT phases."""
    labels = np.asarray(labels, dtype=int)
    x, hidden, logits = policy._forward(x)
    lp = log_softmax(logits)
    rows = np.arange(len(x))
    loss = float(-(lp[rows, labels].sum() / len(x)))
    g_logits = np.exp(lp)
    g_logits[rows, labels] -= 1.0
    g_logits /= len(x)
    return loss, _backprop(policy, x, hidden, g_logits)
