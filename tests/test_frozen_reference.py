"""Frozen references: the bodies of the policy's forward/backward, the Adam
update, the OnDARE merge and the sigmoid as they stood before their per-step
internals were rewritten for fewer numpy calls, and the per-step batch draw
and per-tensor keep-mask as they stood before batches were drawn a block of
steps at a time and masks filled as one vector. The rewrite runs the same IEEE
operations, and consumes the same random streams, in the same order, so every
result must match these bit for bit (compared by tobytes(), which tells -0.0
from 0.0).

Do not edit the reference bodies to follow a change of the program: a change
that alters a bit here alters checkpoints and metrics.
"""

import math

import numpy as np
import pytest

from mergeopt import MaskKey, ToyPolicy, bernoulli_mask
from mergeopt.masks import MaskGenerator
from mergeopt.optim import (
    AdamHyper,
    OnlineMergeConfig,
    OptimizerState,
    _ondare_merge,
    adam_step,
    ondare_step,
)
from mergeopt.policy import _sigmoid, class_loss_and_grad, dpo_loss_and_grad
from mergeopt.tasks import LabeledSet, PreferenceSet
from mergeopt.training import (
    _batches,
    _block_steps,
    _preference_batches,
    _supervised_phase,
)

# ---- reference bodies ----


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_log_softmax(logits):
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def ref_forward(params, x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    w1, b1 = params.tensor("w1"), params.tensor("b1")
    w2, b2 = params.tensor("w2"), params.tensor("b2")
    hidden = np.tanh(x @ w1.T + b1)
    logits = hidden @ w2.T + b2
    return x, hidden, logits


def ref_backprop(params, x, hidden, g_logits):
    w2 = params.tensor("w2")
    g_w2 = g_logits.T @ hidden
    g_b2 = g_logits.sum(axis=0)
    g_hidden = g_logits @ w2
    g_z1 = g_hidden * (1.0 - hidden**2)
    g_w1 = g_z1.T @ x
    g_b1 = g_z1.sum(axis=0)
    return np.concatenate((g_w1.ravel(), g_b1, g_w2.ravel(), g_b2))


def ref_dpo_loss_and_grad(params, ref_logprobs, batch, beta):
    x, hidden, logits = ref_forward(params, batch.x)
    chosen, rejected = np.asarray(batch.chosen, int), np.asarray(batch.rejected, int)
    ref = np.asarray(ref_logprobs, dtype=np.float64)
    lp = ref_log_softmax(logits)
    rows = np.arange(len(x))
    margins = beta * (
        (lp[rows, chosen] - ref[rows, chosen]) - (lp[rows, rejected] - ref[rows, rejected])
    )
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    coeff = -float(beta) * ref_sigmoid(-margins) / len(x)
    g_logits = np.zeros_like(logits)
    g_logits[rows, chosen] += coeff
    g_logits[rows, rejected] += -coeff
    return loss, margins, ref_backprop(params, x, hidden, g_logits)


def ref_class_loss_and_grad(params, x, labels):
    labels = np.asarray(labels, dtype=int)
    x, hidden, logits = ref_forward(params, x)
    lp = ref_log_softmax(logits)
    rows = np.arange(len(x))
    loss = float(-np.mean(lp[rows, labels]))
    g_logits = np.exp(lp)
    g_logits[rows, labels] -= 1.0
    g_logits /= len(x)
    return loss, ref_backprop(params, x, hidden, g_logits)


def ref_adam(m, v, g, t, hyper):
    m *= hyper.beta1
    m += (1.0 - hyper.beta1) * g
    v *= hyper.beta2
    v += (1.0 - hyper.beta2) * np.square(g)
    if hyper.bias_correction:
        mhat = m / (1.0 - hyper.beta1**t)
        vhat = v / (1.0 - hyper.beta2**t)
    else:
        mhat, vhat = m, v
    return -hyper.learning_rate * mhat / np.sqrt(vhat + hyper.epsilon)


def ref_ondare_merge(keep_x, keep_tau, tau_ref, alpha, x):
    kept_x = np.where(keep_x, x, 0.0)
    kept_tau = np.where(keep_tau, tau_ref, 0.0)
    return (1.0 - alpha) * kept_x + alpha * kept_tau


def oracle_mask(params, seed, step, stream, p):
    """The keep-mask drawn from a MaskKey and a fresh generator per tensor."""
    return np.concatenate([
        bernoulli_mask(MaskKey(seed, name, step, stream), arr.size, p) for name, _, arr in params
    ])


def ref_keep_mask(state, stream, p):
    mask = np.empty(state.m.size, bool)
    gen = MaskGenerator()
    for material, (_, s) in zip(state._masks.keys.materials(state.t, stream), state._slices):
        bernoulli_mask(material, s.stop - s.start, p, gen, out=mask[s])
    return mask


def ref_preference_batches(rng, steps, pref_train, ref_train, batch_size):
    n_train = len(pref_train)
    for step in range(1, steps + 1):
        idx = rng.integers(0, n_train, size=batch_size)
        yield pref_train.take(idx), ref_train[idx]


def ref_supervised_phase(policy, data, steps, hyper, rng, batch_size):
    state = OptimizerState(policy.params)
    params = policy.params
    rows, size = len(data), min(len(data), batch_size)
    for step in range(1, steps + 1):
        idx = rng.integers(0, rows, size=size)
        loss, grad = class_loss_and_grad(policy.with_params(params), data.x[idx], data.y[idx])
        assert math.isfinite(loss)
        params = adam_step(params, grad, state, hyper)
    return policy.with_params(params)


# ---- fixtures ----

HIDDEN = [4, 16, 64, 256]
BATCH = [1, 7, 32, 256]
HYPERS = {
    "default": AdamHyper(learning_rate=1e-3),
    "weight decay": AdamHyper(learning_rate=1e-3, weight_decay=0.01),
    "no bias correction": AdamHyper(learning_rate=1e-3, bias_correction=False),
}
ALPHAS = [0.0, -0.0, 1e-6, 1.0]


def policy_and_data(hidden, batch, seed):
    rng = np.random.default_rng([hidden, batch, seed])
    policy = ToyPolicy.random_init(6, hidden, 4, rng)
    reference = ToyPolicy.random_init(6, hidden, 4, rng)
    x = rng.normal(size=(batch, 6))
    chosen = rng.integers(0, 4, batch)
    rejected = rng.integers(0, 4, batch)  # some rows have chosen == rejected
    return policy, reference.logprobs(x), PreferenceSet(x, chosen, rejected)


def grad_like(params, rng):
    """A gradient with zeros among its elements, where Adam's delta is -0.0."""
    g = rng.normal(size=params.total_elements())
    g[rng.random(g.size) < 0.2] = 0.0
    return params.with_vector(g)


def signed_zero_set(params, rng):
    """Values of both signs, with +0.0 and -0.0 among them."""
    v = rng.normal(size=params.total_elements())
    v[rng.random(v.size) < 0.15] = 0.0
    v[rng.random(v.size) < 0.15] = -0.0
    return params.with_vector(v)


# Step counts around the block length B of a batch draw.
STEP_COUNTS = {
    "0": lambda b: 0,
    "1": lambda b: 1,
    "B-1": lambda b: b - 1,
    "B": lambda b: b,
    "B+1": lambda b: b + 1,
    "2B+3": lambda b: 2 * b + 3,
}


def same_generator(a, b) -> bool:
    """Two generators are at the same point of the same stream."""
    return a.bit_generator.state == b.bit_generator.state


def same_bits(a, b) -> bool:
    return np.asarray(a, np.float64).tobytes() == np.asarray(b, np.float64).tobytes()


# ---- tests ----


def test_sigmoid_matches_reference():
    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, 5e-324, -5e-324, 709.8, -709.8, 745.0, -745.0, np.inf, -np.inf]
    x = np.concatenate([edges, rng.normal(size=2000) * 30])
    assert same_bits(_sigmoid(x), ref_sigmoid(x))
    with np.errstate(invalid="ignore"):
        nan = _sigmoid(np.array([np.nan, -np.nan, 1.0]))
    assert np.isnan(nan[:2]).all() and same_bits(nan[2:], ref_sigmoid(np.array([1.0])))


@pytest.mark.parametrize("batch", BATCH)
@pytest.mark.parametrize("hidden", HIDDEN)
def test_dpo_loss_and_grad_matches_reference(hidden, batch):
    policy, ref_lp, data = policy_and_data(hidden, batch, 0)
    loss, margins, grad = dpo_loss_and_grad(policy, ref_lp, data, 0.1)
    want_loss, want_margins, want_grad = ref_dpo_loss_and_grad(policy.params, ref_lp, data, 0.1)
    assert same_bits(loss, want_loss)
    assert same_bits(margins, want_margins)
    assert same_bits(grad.vector(), want_grad)


@pytest.mark.parametrize("batch", BATCH)
@pytest.mark.parametrize("hidden", HIDDEN)
def test_class_loss_and_grad_matches_reference(hidden, batch):
    policy, _, data = policy_and_data(hidden, batch, 1)
    labels = data.chosen
    loss, grad = class_loss_and_grad(policy, data.x, labels)
    want_loss, want_grad = ref_class_loss_and_grad(policy.params, data.x, labels)
    assert same_bits(loss, want_loss)
    assert same_bits(grad.vector(), want_grad)


@pytest.mark.parametrize("hyper", HYPERS.values(), ids=HYPERS.keys())
@pytest.mark.parametrize("hidden", HIDDEN)
def test_adam_step_matches_reference(hidden, hyper):
    rng = np.random.default_rng(hidden)
    params = ToyPolicy.random_init(6, hidden, 4, rng).params
    state = OptimizerState(params)
    theta = params.vector().copy()
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for t in range(1, 6):
        grads = grad_like(params, rng)
        params = adam_step(params, grads, state, hyper)
        d = ref_adam(m, v, grads.vector(), t, hyper)
        if hyper.weight_decay != 0.0:
            d = d - hyper.learning_rate * hyper.weight_decay * theta
        theta = theta + d
        assert same_bits(params.vector(), theta)
        assert same_bits(state.m, m) and same_bits(state.v, v)


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
@pytest.mark.parametrize("hidden", HIDDEN)
def test_ondare_merge_matches_reference(hidden, alpha):
    # Signed zeros in both inputs: the masked-out reference elements are
    # alpha * 0.0, which is -0.0 at alpha = -0.0.
    rng = np.random.default_rng(hidden)
    layout = ToyPolicy.random_init(6, hidden, 4, rng).params
    tau_ref = signed_zero_set(layout, rng)
    state = OptimizerState(layout, tau_ref=tau_ref, seed=9)
    cfg = OnlineMergeConfig(alpha=alpha, reserve_rate=0.5)
    sign_shows = False
    merge = _ondare_merge(state, cfg)
    for t in (1, 2, 3):
        state.t = t
        x = signed_zero_set(layout, rng).vector()
        masks = (oracle_mask(layout, 9, t, "update", 0.5), oracle_mask(layout, 9, t, "ref", 0.5))
        want = ref_ondare_merge(*masks, tau_ref.vector(), alpha, x)
        assert same_bits(merge(x), want)
        flipped = ref_ondare_merge(*masks, tau_ref.vector(), -alpha, x)
        sign_shows |= not same_bits(flipped, want)
    # The inputs are such that alpha's sign shows in the result at alpha = ±0.0.
    assert sign_shows or alpha != 0.0


@pytest.mark.parametrize("hyper", HYPERS.values(), ids=HYPERS.keys())
@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
@pytest.mark.parametrize("hidden", HIDDEN)
def test_ondare_step_matches_reference(hidden, alpha, hyper):
    # -0.0 parameters keep the sign of a -0.0 merged delta in the result.
    rng = np.random.default_rng([hidden, 1])
    layout = ToyPolicy.random_init(6, hidden, 4, rng).params
    params = layout.with_vector(np.full(layout.total_elements(), -0.0))
    tau_ref = signed_zero_set(layout, rng)
    state = OptimizerState(params, tau_ref=tau_ref, seed=3)
    cfg = OnlineMergeConfig(alpha=alpha, reserve_rate=0.7)
    theta = params.vector().copy()
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for t in range(1, 4):
        grads = grad_like(layout, rng)
        params = ondare_step(params, grads, state, hyper, cfg)
        d = ref_adam(m, v, grads.vector(), t, hyper)
        if hyper.weight_decay != 0.0:
            d = d - hyper.learning_rate * hyper.weight_decay * theta
        theta = theta + ref_ondare_merge(
            oracle_mask(layout, 3, t, "update", 0.7),
            oracle_mask(layout, 3, t, "ref", 0.7),
            tau_ref.vector(), alpha, d,
        )
        assert same_bits(params.vector(), theta)


@pytest.mark.parametrize("steps", STEP_COUNTS.values(), ids=STEP_COUNTS.keys())
@pytest.mark.parametrize("batch", [1, 31, 257])
def test_preference_batches_match_reference(batch, steps):
    rng = np.random.default_rng(batch)
    rows = 300
    data = PreferenceSet(
        rng.normal(size=(rows, 6)), rng.integers(0, 4, rows), rng.integers(0, 4, rows)
    )
    ref_train = rng.normal(size=(rows, 4))
    n = steps(_block_steps(batch, 6 + 2 + 4))
    got_rng, want_rng = np.random.default_rng([7, 3]), np.random.default_rng([7, 3])
    got = list(_preference_batches(got_rng, n, data, ref_train, batch))
    want = list(ref_preference_batches(want_rng, n, data, ref_train, batch))
    assert len(got) == len(want) == n
    for (b, ref), (want_b, want_ref) in zip(got, want):
        assert same_bits(b.x, want_b.x) and same_bits(ref, want_ref)
        assert b.chosen.tobytes() == want_b.chosen.tobytes()
        assert b.rejected.tobytes() == want_b.rejected.tobytes()
    assert same_generator(got_rng, want_rng)


@pytest.mark.parametrize("steps", STEP_COUNTS.values(), ids=STEP_COUNTS.keys())
@pytest.mark.parametrize("rows", [1, 2, 300, 2**32, 2**32 + 1])
@pytest.mark.parametrize("size", [1, 31, 257])
def test_block_draw_consumes_the_stream_like_per_step_draws(size, rows, steps):
    # Rows up to 2**32 draw 32-bit bounded integers, half a PCG64 output
    # each, so an odd block leaves half an output buffered for the next.
    n = steps(_block_steps(size, 100))
    got_rng, want_rng = np.random.default_rng(size), np.random.default_rng(size)
    got = np.array(list(_batches(got_rng, n, rows, size, 100, lambda idx: idx)))
    want = np.array([want_rng.integers(0, rows, size=size) for _ in range(n)])
    assert got.tobytes() == want.tobytes()
    assert same_generator(got_rng, want_rng)


@pytest.mark.parametrize("steps", STEP_COUNTS.values(), ids=STEP_COUNTS.keys())
@pytest.mark.parametrize("batch", [1, 31, 257, 64])
def test_supervised_phase_matches_reference(batch, steps):
    # 40 rows: a batch_size of 64 is larger than its split and takes 40 rows.
    rng = np.random.default_rng([batch, 2])
    rows = 40 if batch == 64 else 300
    data = LabeledSet(rng.normal(size=(rows, 6)), rng.integers(0, 4, rows))
    policy = ToyPolicy.random_init(6, 4, 4, rng)
    n = steps(_block_steps(min(rows, batch), 6 + 1))
    hyper = AdamHyper(learning_rate=0.05)
    got_rng, want_rng = np.random.default_rng([5, 1]), np.random.default_rng([5, 1])
    got = _supervised_phase(policy, "pretrain", data, n, hyper, got_rng, batch)
    want = ref_supervised_phase(policy, data, n, hyper, want_rng, batch)
    assert same_bits(got.params.vector(), want.params.vector())
    assert same_generator(got_rng, want_rng)


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("step", [1, 12345])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("hidden", [4, 16, 64])
def test_keep_mask_matches_reference(hidden, seed, step, p):
    layout = ToyPolicy.random_init(6, hidden, 4, np.random.default_rng(hidden)).params
    state = OptimizerState(layout, seed=seed)
    for t in (step, step + 1):
        state.t = t
        for stream in ("update", "ref", "grad"):
            want = ref_keep_mask(state, stream, p)
            assert state._masks.row(state.t, stream, p).tobytes() == want.tobytes()
            assert want.tobytes() == oracle_mask(layout, seed, t, stream, p).tobytes()
