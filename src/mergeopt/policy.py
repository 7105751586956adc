"""Toy softmax response-chooser policies and the preference loss.

A policy is a two-layer perceptron over C fixed candidate responses: the
preference loss only depends on log-probabilities of chosen indices, so this
keeps the optimization problem's structure without any sequence modeling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidBeta
from .params import ParameterSet

PARAM_NAMES = ("w1", "b1", "w2", "b2")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax with max subtraction; safe for huge logits."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


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
        return ToyPolicy(params, self.input_dim, self.hidden_dim, self.num_responses)

    def _forward(self, x: np.ndarray):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        w1 = self.params.tensor("w1")
        b1 = self.params.tensor("b1")
        w2 = self.params.tensor("w2")
        b2 = self.params.tensor("b2")
        hidden = np.tanh(x @ w1.T + b1)
        logits = hidden @ w2.T + b2
        return x, hidden, logits

    def logits(self, x: np.ndarray) -> np.ndarray:
        _, _, out = self._forward(x)
        return out[0] if np.asarray(x).ndim == 1 else out

    def logprobs(self, x: np.ndarray) -> np.ndarray:
        return log_softmax(self.logits(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=-1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == np.asarray(labels)))


def policy_logprob(policy: ToyPolicy, x: np.ndarray, response: int) -> float:
    """log pi(response | x) under the policy's softmax over candidates."""
    response = int(response)
    if not 0 <= response < policy.num_responses:
        raise IndexOutOfRange(
            f"response {response} outside [0, {policy.num_responses})"
        )
    return float(policy.logprobs(x)[response])


def _pair_arrays(batch):
    """Normalize a batch (PreferenceSet-like or iterable of pairs) to arrays."""
    if hasattr(batch, "x") and hasattr(batch, "chosen"):
        x = np.atleast_2d(np.asarray(batch.x, dtype=np.float64))
        return x, np.asarray(batch.chosen, int), np.asarray(batch.rejected, int)
    pairs = list(batch)
    if not pairs:
        return np.zeros((0, 0)), np.zeros(0, int), np.zeros(0, int)
    x = np.stack([np.asarray(p.x, dtype=np.float64) for p in pairs])
    chosen = np.array([p.chosen for p in pairs], dtype=int)
    rejected = np.array([p.rejected for p in pairs], dtype=int)
    return x, chosen, rejected


def dpo_margins(policy: ToyPolicy, reference: ToyPolicy, batch, beta: float) -> np.ndarray:
    """Per-pair beta * (logratio_chosen - logratio_rejected) where
    logratio_y = log pi(y|x) - log pi_ref(y|x)."""
    beta = float(beta)
    if not beta > 0:
        raise InvalidBeta(f"beta must be positive, got {beta}")
    x, chosen, rejected = _pair_arrays(batch)
    if len(x) == 0:
        return np.zeros(0)
    rows = np.arange(len(x))
    lp = log_softmax(policy._forward(x)[2])
    lp_ref = log_softmax(reference._forward(x)[2])
    logratio_c = lp[rows, chosen] - lp_ref[rows, chosen]
    logratio_r = lp[rows, rejected] - lp_ref[rows, rejected]
    return beta * (logratio_c - logratio_r)


def dpo_loss(policy: ToyPolicy, reference: ToyPolicy, batch, beta: float):
    """Mean -log sigmoid(margin) over the batch, plus the per-pair margins.

    An empty batch yields loss 0.0 by the empty-mean convention.
    """
    margins = dpo_margins(policy, reference, batch, beta)
    if margins.size == 0:
        return 0.0, margins
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    return loss, margins


def dpo_loss_and_grad(policy: ToyPolicy, reference: ToyPolicy, batch, beta: float):
    """One fused forward/backward: returns (loss, margins, gradient ParameterSet).

    The gradient is exact reverse-mode differentiation of the loss with
    respect to the policy parameters; the reference gets no gradient. The
    softmax terms of the two log-probabilities cancel, leaving per-pair logit
    gradients -beta * sigmoid(-margin) * (onehot_chosen - onehot_rejected) / n.
    """
    beta = float(beta)
    if not beta > 0:
        raise InvalidBeta(f"beta must be positive, got {beta}")
    x, chosen, rejected = _pair_arrays(batch)
    if len(x) == 0:
        zero = policy.params.map(np.zeros_like)
        return 0.0, np.zeros(0), zero

    x, hidden, logits = policy._forward(x)
    lp = log_softmax(logits)
    lp_ref = log_softmax(reference._forward(x)[2])
    rows = np.arange(len(x))
    margins = beta * (
        (lp[rows, chosen] - lp_ref[rows, chosen]) - (lp[rows, rejected] - lp_ref[rows, rejected])
    )
    loss = float(np.mean(np.logaddexp(0.0, -margins)))

    coeff = -beta * _sigmoid(-margins) / len(x)
    g_logits = np.zeros_like(logits)
    np.add.at(g_logits, (rows, chosen), coeff)
    np.add.at(g_logits, (rows, rejected), -coeff)
    grad = _backprop(policy, x, hidden, g_logits)
    return loss, margins, grad


def dpo_grad(policy: ToyPolicy, reference: ToyPolicy, batch, beta: float) -> ParameterSet:
    """Gradient of dpo_loss with respect to the policy parameters."""
    return dpo_loss_and_grad(policy, reference, batch, beta)[2]


def _backprop(policy: ToyPolicy, x, hidden, g_logits) -> ParameterSet:
    w2 = policy.params.tensor("w2")
    g_w2 = g_logits.T @ hidden
    g_b2 = g_logits.sum(axis=0)
    g_hidden = g_logits @ w2
    g_z1 = g_hidden * (1.0 - hidden**2)
    g_w1 = g_z1.T @ x
    g_b1 = g_z1.sum(axis=0)
    blocks = (g_w1.ravel(), g_b1, g_w2.ravel(), g_b2)
    return policy.params.with_vector(np.concatenate(blocks))


def class_loss_and_grad(policy: ToyPolicy, x: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy on class labels and its exact gradient; used by the
    supervised pretrain and SFT phases."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels, dtype=int)
    x, hidden, logits = policy._forward(x)
    lp = log_softmax(logits)
    rows = np.arange(len(x))
    loss = float(-np.mean(lp[rows, labels]))
    g_logits = np.exp(lp)
    g_logits[rows, labels] -= 1.0
    g_logits /= len(x)
    return loss, _backprop(policy, x, hidden, g_logits)


@dataclass(frozen=True)
class PreferencePair:
    """One preference judgment: features x, chosen and rejected response indices."""

    x: np.ndarray
    chosen: int
    rejected: int

    def __post_init__(self):
        if int(self.chosen) == int(self.rejected):
            raise ValueError("chosen and rejected responses must differ")
