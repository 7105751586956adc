"""Each public entry point that takes a seed, a step, a reserve rate, a
preference temperature or an EMA coefficient checks it by one rule: numbers
are never coerced, so a bool, a numeric string or (for the integer rules) a
fractional float is rejected rather than truncated or parsed."""

import numpy as np
import pytest

from mergeopt import (
    AdamHyper,
    DataSettings,
    InvalidBeta,
    InvalidConfig,
    InvalidProbability,
    MaskKey,
    MergeMethod,
    MergeSpec,
    OnlineMergeConfig,
    OptimizerState,
    ParameterSet,
    RunConfig,
    SuiteSizes,
    ToyPolicy,
    bernoulli_mask,
    childtuning_step,
    dpo_loss,
    dpo_loss_and_grad,
    ema_update,
    gen_task_suite,
    sparsify_random,
    sparsify_top_p,
)
from mergeopt.masks import LayoutKeys
from mergeopt.tasks import PreferenceSet

TINY_DATA = DataSettings(input_dim=2, hidden_dim=2, num_responses=2, sizes=SuiteSizes(*[4] * 6))


def params():
    return ParameterSet([("w", (2,), [1.0, -2.0])])


def preference_case():
    policy = ToyPolicy.random_init(2, 2, 2, np.random.default_rng(0))
    batch = PreferenceSet(np.ones((1, 2)), np.array([0]), np.array([1]))
    return policy, policy.logprobs(batch.x), batch


# name -> (exception, call of the entry point with the value under test)
INTEGERS = {
    "RunConfig seed": (InvalidConfig, lambda v: RunConfig(seed=v)),
    "MergeSpec seed": (InvalidConfig, lambda v: MergeSpec(MergeMethod.DARE, seed=v)),
    "MaskKey seed": (InvalidConfig, lambda v: MaskKey(v, "w")),
    "MaskKey step": (InvalidConfig, lambda v: MaskKey(0, "w", step=v)),
    "LayoutKeys seed": (InvalidConfig, lambda v: LayoutKeys(v, ("w",))),
    "LayoutKeys step": (InvalidConfig, lambda v: LayoutKeys(0, ("w",)).materials(v, "update")),
    "OptimizerState seed": (InvalidConfig, lambda v: OptimizerState(params(), seed=v)),
    "gen_task_suite seed": (InvalidConfig, lambda v: gen_task_suite(v, TINY_DATA)),
}
REALS = {
    "OnlineMergeConfig reserve_rate": (
        InvalidProbability, lambda v: OnlineMergeConfig(reserve_rate=v)
    ),
    "MergeSpec reserve_rate": (
        InvalidProbability, lambda v: MergeSpec(MergeMethod.DARE, reserve_rate=v)
    ),
    "bernoulli_mask": (InvalidProbability, lambda v: bernoulli_mask(MaskKey(0, "w"), 4, v)),
    "sparsify_random": (InvalidProbability, lambda v: sparsify_random([1.0], v, MaskKey(0, "w"))),
    "sparsify_top_p": (InvalidProbability, lambda v: sparsify_top_p([1.0], v)),
    "childtuning_step": (
        InvalidProbability,
        lambda v: childtuning_step(params(), params(), OptimizerState(params()), AdamHyper(), v),
    ),
    "dpo_loss beta": (InvalidBeta, lambda v: dpo_loss(*preference_case(), v)),
    "dpo_loss_and_grad beta": (InvalidBeta, lambda v: dpo_loss_and_grad(*preference_case(), v)),
    "ema_update coefficient": (ValueError, lambda v: ema_update(params(), params(), v)),
}
CASES = [(name, *INTEGERS[name], True) for name in INTEGERS]
CASES += [(name, *REALS[name], False) for name in REALS]


@pytest.mark.parametrize("name, error, call, integer", CASES, ids=[c[0] for c in CASES])
def test_entry_point_rejects_what_it_would_coerce(name, error, call, integer):
    bad = [True, "7" if integer else "0.5"] + ([2.9] if integer else [])
    for value in bad:
        with pytest.raises(error):
            call(value)


@pytest.mark.parametrize("name, error, call, integer", CASES, ids=[c[0] for c in CASES])
def test_entry_point_accepts_numpy_and_plain_numbers(name, error, call, integer):
    for value in [7, np.uint64(7)] if integer else [0.5, np.float64(0.5)]:
        call(value)


def test_integer_seed_and_numpy_seed_build_the_same_suite():
    a, b = gen_task_suite(7, TINY_DATA), gen_task_suite(np.uint64(7), TINY_DATA)
    assert a.pretrain_train.x.tobytes() == b.pretrain_train.x.tobytes()
    assert a.pref_eval.x.tobytes() == b.pref_eval.x.tobytes()


RATES = [name for name in REALS if REALS[name][0] is InvalidProbability]


@pytest.mark.parametrize("name", RATES)
def test_rate_entry_point_rejects_values_outside_the_unit_interval(name):
    error, call = REALS[name]
    for value in [0, 0.0, -0.5, 1.5, 7.0, float("nan"), float("inf")]:
        with pytest.raises(error):
            call(value)
    call(1)
