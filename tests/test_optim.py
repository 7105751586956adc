import math

import numpy as np
import pytest

from mergeopt import (
    AdamHyper,
    InvalidConfig,
    MaskKey,
    MergeVariant,
    MisalignedSets,
    NonFiniteGradient,
    OnlineMergeConfig,
    OptimizerState,
    ParameterSet,
    adam_step,
    bernoulli_mask,
    childtuning_step,
    ema_update,
    full_merge_step,
    ondare_step,
    onties_step,
    sign_consensus,
    sparsify_random,
    sparsify_top_p,
    stepk_step,
)
from mergeopt import optim, training
from mergeopt.masks import MaskTable
from mergeopt.optim import MASK_STREAM_REF, MASK_STREAM_UPDATE, OPTIMIZER_NAMES, bind


def pset(**named):
    return ParameterSet((k, np.shape(v), v) for k, v in named.items())


def make_problem(seed=0, n=8):
    rng = np.random.default_rng(seed)
    params = pset(w=rng.normal(size=n), b=rng.normal(size=3))
    tau = pset(w=rng.normal(size=n), b=rng.normal(size=3))
    return params, tau


def grad_stream(seed, step, params):
    rng = np.random.default_rng([seed, step])
    return params.map(lambda a: rng.normal(size=a.size))


class TestAdamDelta:
    """The raw Adam update delta, seen through adam_step on one-tensor sets."""

    def test_zero_gradient_zero_moments_gives_zero(self):
        params = pset(w=np.random.default_rng(0).normal(size=8))
        state = OptimizerState(params)
        out = adam_step(params, pset(w=np.zeros(8)), state, AdamHyper.pseudocode_literal(0.1))
        assert np.all(out.vector() - params.vector() == 0.0)

    def test_scalar_oracle_without_bias_correction(self):
        # Independent evaluation of the raw update rule on one scalar step:
        # m = 0.1, v = 0.001, delta = -0.1 * 0.1 / sqrt(0.001 + 1e-8).
        params = pset(x=[0.0])
        state = OptimizerState(params)
        hyper = AdamHyper.pseudocode_literal(learning_rate=0.1)
        d = adam_step(params, pset(x=[1.0]), state, hyper).flat("x")
        expected = -0.1 * 0.1 / math.sqrt(0.001 + 1e-8)
        assert d[0] == pytest.approx(expected, abs=1e-15)
        assert d[0] == pytest.approx(-0.316226, abs=1e-6)
        assert state.m[0] == pytest.approx(0.1, abs=1e-15)
        assert state.v[0] == pytest.approx(0.001, abs=1e-15)

    def test_scalar_oracle_with_bias_correction(self):
        params = pset(x=[0.0])
        state = OptimizerState(params)
        d = adam_step(params, pset(x=[1.0]), state, AdamHyper(learning_rate=0.1)).flat("x")
        # mhat = 0.1/(1-0.9) = 1, vhat = 0.001/(1-0.999) = 1.
        assert d[0] == pytest.approx(-0.1 / math.sqrt(1.0 + 1e-8), abs=1e-15)
        assert d[0] == pytest.approx(-0.1, abs=1e-6)
        assert state.m[0] == pytest.approx(0.1, abs=1e-15)
        assert state.v[0] == pytest.approx(0.001, abs=1e-15)

    def test_nonfinite_gradient_rejected(self):
        params = pset(w=np.zeros(8))
        state = OptimizerState(params)
        with pytest.raises(NonFiniteGradient):
            adam_step(params, pset(w=[np.nan] * 8), state, AdamHyper(learning_rate=0.1))

    def test_gradient_size_mismatch(self):
        params = pset(w=np.zeros(8))
        state = OptimizerState(params)
        with pytest.raises(MisalignedSets):
            adam_step(params, pset(w=[1.0]), state, AdamHyper(learning_rate=0.1))


HYP = AdamHyper(learning_rate=0.05)


class TestOnDare:
    def test_alpha_zero_p_one_reduces_to_adam_bitwise(self):
        params, tau = make_problem()
        cfg = OnlineMergeConfig(alpha=0.0, reserve_rate=1.0)
        sa = OptimizerState(params, tau_ref=tau, seed=7)
        so = OptimizerState(params, tau_ref=tau, seed=7)
        pa, po = params, params
        for t in range(1, 101):
            g = grad_stream(1, t, params)
            pa = adam_step(pa, g, sa, HYP)
            po = ondare_step(po, g, so, HYP, cfg)
        assert pa == po

    def test_alpha_one_p_one_is_pure_reference_pull(self):
        params, tau = make_problem()
        cfg = OnlineMergeConfig(alpha=1.0, reserve_rate=1.0)
        state = OptimizerState(params, tau_ref=tau, seed=7)
        out = ondare_step(params, grad_stream(1, 1, params), state, HYP, cfg)
        for name, _, arr in params:
            assert np.allclose(out.flat(name), arr + tau.flat(name), rtol=0, atol=1e-15)

    def test_convex_mix_arithmetic(self):
        # At p=1 and alpha=0.5 the step applies 0.5*delta + 0.5*tau; compare
        # against an independently computed scalar delta.
        params = pset(x=[1.0])
        tau = pset(x=[0.4])
        state = OptimizerState(params, tau_ref=tau, seed=0)
        hyper = AdamHyper.pseudocode_literal(learning_rate=0.2)
        cfg = OnlineMergeConfig(alpha=0.5, reserve_rate=1.0)
        out = ondare_step(params, pset(x=[1.0]), state, hyper, cfg)
        d = -0.2 * 0.1 / math.sqrt(0.001 + 1e-8)
        assert out.flat("x")[0] == pytest.approx(1.0 + 0.5 * d + 0.5 * 0.4, abs=1e-15)

    def test_sparsity_locality_both_masks_dropped(self):
        params, tau = make_problem(n=4000)
        cfg = OnlineMergeConfig(alpha=0.3, reserve_rate=0.4)
        for step in (1, 12345):
            state = OptimizerState(params, tau_ref=tau, seed=11)
            state.t = step - 1
            out = ondare_step(params, grad_stream(2, 1, params), state, HYP, cfg)
            for name, _, arr in params:
                keep_u = bernoulli_mask(MaskKey(11, name, step, MASK_STREAM_UPDATE), arr.size, 0.4)
                keep_r = bernoulli_mask(MaskKey(11, name, step, MASK_STREAM_REF), arr.size, 0.4)
                untouched = ~keep_u & ~keep_r
                assert untouched.any()
                assert np.array_equal(out.flat(name)[untouched], arr[untouched])

    def test_update_and_reference_masks_are_independent_streams(self):
        params, tau = make_problem(n=5000)
        keep_u = bernoulli_mask(MaskKey(11, "w", 1, MASK_STREAM_UPDATE), 5000, 0.5)
        keep_r = bernoulli_mask(MaskKey(11, "w", 1, MASK_STREAM_REF), 5000, 0.5)
        overlap = np.mean(keep_u == keep_r)
        assert abs(overlap - 0.5) < 0.05


class TestOnTies:
    def test_alpha_zero_p_one_reduces_to_adam_bitwise(self):
        params, tau = make_problem()
        cfg = OnlineMergeConfig(alpha=0.0, reserve_rate=1.0)
        sa = OptimizerState(params, tau_ref=tau, seed=7)
        so = OptimizerState(params, tau_ref=tau, seed=7)
        pa, po = params, params
        for t in range(1, 101):
            g = grad_stream(1, t, params)
            pa = adam_step(pa, g, sa, HYP)
            po = onties_step(po, g, so, HYP, cfg)
        assert pa == po

    def test_consensus_of_sparsified_sides(self):
        # Manually reproduce one step from the kernel pieces.
        params, tau = make_problem(seed=4)
        cfg = OnlineMergeConfig(alpha=0.25, reserve_rate=0.5)
        state = OptimizerState(params, tau_ref=tau, seed=13)
        shadow = OptimizerState(params, tau_ref=tau, seed=13)
        g = grad_stream(3, 1, params)
        out = onties_step(params, g, state, HYP, cfg)
        # Plain Adam from all-zero parameters returns the raw update delta.
        deltas = adam_step(params.map(np.zeros_like), g, shadow, HYP)
        for name, _, arr in params:
            a = 0.75 * sparsify_top_p(deltas.flat(name), 0.5)
            b = 0.25 * sparsify_top_p(tau.flat(name), 0.5)
            assert np.array_equal(out.flat(name), arr + sign_consensus(a, b))

    def test_reference_side_follows_each_config(self):
        # One state stepped under configs with different alpha (and rate)
        # gives, at every step, the parameters of a fresh state brought to
        # the same moments by plain Adam and stepped once under that config.
        params, tau = make_problem(seed=6)
        cfgs = [
            OnlineMergeConfig(alpha=a, reserve_rate=p)
            for a, p in ((0.25, 0.5), (0.75, 0.5), (0.25, 0.3))
        ]
        state = OptimizerState(params, tau_ref=tau, seed=3)
        p = params
        for t, cfg in enumerate(cfgs + cfgs, start=1):
            fresh = OptimizerState(params, tau_ref=tau, seed=3)
            for k in range(1, t):
                adam_step(params, grad_stream(4, k, params), fresh, HYP)
            expected = onties_step(p, grad_stream(4, t, params), fresh, HYP, cfg)
            p = onties_step(p, grad_stream(4, t, params), state, HYP, cfg)
            assert p == expected


class TestFullMerge:
    def test_scalar_hand_example(self):
        # base=1, theta=2, delta=0.5, tau=-1, alpha=0.5, p=1 -> 1.25
        base = pset(x=[1.0])
        params = pset(x=[2.0])
        tau = pset(x=[-1.0])
        state = OptimizerState(params, tau_ref=tau, seed=0)
        # Force delta exactly 0.5: gradient -1 with literal rule and lr chosen
        # so -lr*m/sqrt(v+eps) = 0.5.
        hyper = AdamHyper.pseudocode_literal(
            learning_rate=0.5 * math.sqrt(0.001 + 1e-8) / 0.1
        )
        cfg = OnlineMergeConfig(alpha=0.5, reserve_rate=1.0)
        out = full_merge_step(params, pset(x=[-1.0]), state, hyper, cfg, base)
        assert out.flat("x")[0] == pytest.approx(1.25, abs=1e-12)

    def test_alpha_zero_p_one_reduction_on_dyadic_values(self):
        base = pset(x=[1.0])
        params = pset(x=[2.0])
        tau = pset(x=[-1.0])
        hyper = AdamHyper.pseudocode_literal(learning_rate=0.5 * math.sqrt(0.001 + 1e-8) / 0.1)
        cfg = OnlineMergeConfig(alpha=0.0, reserve_rate=1.0)
        state = OptimizerState(params, tau_ref=tau, seed=0)
        out = full_merge_step(params, pset(x=[-1.0]), state, hyper, cfg, base)
        assert out.flat("x")[0] == pytest.approx(2.5, abs=1e-12)


class TestStepK:
    @pytest.mark.parametrize("variant", [MergeVariant.ONDARE, MergeVariant.ONTIES])
    @pytest.mark.parametrize("alpha,p", [(1e-6, 0.5), (1e-3, 0.1)])
    def test_k1_bitwise_identical_to_online(self, variant, alpha, p):
        params, tau = make_problem(seed=9)
        online_fn = ondare_step if variant is MergeVariant.ONDARE else onties_step
        cfg = OnlineMergeConfig(alpha=alpha, reserve_rate=p, gap_step=1)
        s1 = OptimizerState(params, tau_ref=tau, seed=21)
        s2 = OptimizerState(params, tau_ref=tau, seed=21)
        p1, p2 = params, params
        for t in range(1, 60):
            g = grad_stream(5, t, params)
            p1 = online_fn(p1, g, s1, HYP, cfg)
            p2 = stepk_step(p2, g, s2, HYP, cfg, variant)
        assert p1 == p2

    def test_k2_scalar_hand_trace(self):
        # Algorithm trace with K=2, p=1, alpha=0.5: after step 2 the
        # parameters are theta0 + 0.5*(d1 + d2) + 0.5*tau.
        theta0, tau_val = 1.5, 0.4
        params = pset(x=[theta0])
        tau = pset(x=[tau_val])
        hyper = AdamHyper.pseudocode_literal(learning_rate=0.1)
        cfg = OnlineMergeConfig(alpha=0.5, reserve_rate=1.0, gap_step=2)
        state = OptimizerState(params, tau_ref=tau, seed=0)
        g1, g2 = 0.7, -0.3

        # Independent scalar trace of the raw update rule.
        m = 0.1 * g1
        v = 0.001 * g1 * g1
        d1 = -0.1 * m / math.sqrt(v + 1e-8)
        m = 0.9 * m + 0.1 * g2
        v = 0.999 * v + 0.001 * g2 * g2
        d2 = -0.1 * m / math.sqrt(v + 1e-8)

        p1 = stepk_step(params, pset(x=[g1]), state, hyper, cfg, MergeVariant.ONDARE)
        assert p1.flat("x")[0] == pytest.approx(theta0 + d1, abs=1e-15)
        assert state.delta_cache[0] == pytest.approx(d1, abs=1e-15)
        p2 = stepk_step(p1, pset(x=[g2]), state, hyper, cfg, MergeVariant.ONDARE)
        assert p2.flat("x")[0] == pytest.approx(
            theta0 + 0.5 * (d1 + d2) + 0.5 * tau_val, abs=1e-14
        )
        assert state.delta_cache[0] == 0.0

    @pytest.mark.parametrize("variant", [MergeVariant.ONDARE, MergeVariant.ONTIES])
    def test_k_equals_total_steps_matches_two_phase_oracle(self, variant):
        # Oracle: run plain Adam for T steps, then apply one merge over the
        # total displacement with the shared mask seed and step index T.
        T, alpha, p, seed = 60, 0.3, 0.5, 33
        params, tau = make_problem(seed=10, n=50)
        cfg = OnlineMergeConfig(alpha=alpha, reserve_rate=p, gap_step=T)

        sk_state = OptimizerState(params, tau_ref=tau, seed=seed)
        pk = params
        for t in range(1, T + 1):
            pk = stepk_step(pk, grad_stream(8, t, params), sk_state, HYP, cfg, variant)

        ad_state = OptimizerState(params, seed=seed)
        pa = params
        for t in range(1, T + 1):
            pa = adam_step(pa, grad_stream(8, t, params), ad_state, HYP)

        for name, _, theta0 in params:
            displacement = pa.flat(name) - theta0
            if variant is MergeVariant.ONDARE:
                merged = (1 - alpha) * sparsify_random(
                    displacement, p, MaskKey(seed, name, T, MASK_STREAM_UPDATE)
                ) + alpha * sparsify_random(
                    tau.flat(name), p, MaskKey(seed, name, T, MASK_STREAM_REF)
                )
            else:
                merged = sign_consensus(
                    (1 - alpha) * sparsify_top_p(displacement, p),
                    alpha * sparsify_top_p(tau.flat(name), p),
                )
            oracle = theta0 + merged
            assert np.max(np.abs(pk.flat(name) - oracle)) < 1e-12

    def test_accumulator_zeroed_after_merge(self):
        params, tau = make_problem()
        cfg = OnlineMergeConfig(gap_step=3)
        state = OptimizerState(params, tau_ref=tau, seed=1)
        p = params
        for t in range(1, 7):
            p = stepk_step(p, grad_stream(9, t, params), state, HYP, cfg, MergeVariant.ONDARE)
            if t % 3 == 0:
                assert np.all(state.delta_cache == 0.0)
            else:
                assert np.any(state.delta_cache != 0.0)


class TestChildTuning:
    def test_p_one_equals_adam_bitwise(self):
        params, tau = make_problem()
        sa = OptimizerState(params, seed=7)
        sc = OptimizerState(params, seed=7)
        pa, pc = params, params
        for t in range(1, 101):
            g = grad_stream(1, t, params)
            pa = adam_step(pa, g, sa, HYP)
            pc = childtuning_step(pc, g, sc, HYP, 1.0)
        assert pa == pc

    def test_mask_and_rescale_shape(self):
        # p=0.5 doubles surviving gradient entries before the Adam update;
        # verify on the first step where moments are zero.
        params = pset(w=np.zeros(2000))
        state = OptimizerState(params, seed=3)
        g = np.full(2000, 2.0)
        out = childtuning_step(params, pset(w=g), state, AdamHyper.pseudocode_literal(0.1), 0.5)
        keep = bernoulli_mask(MaskKey(3, "w", 1, "grad"), 2000, 0.5)
        # Surviving entries saw g=4: delta = -0.1*0.4/sqrt(0.016+1e-8).
        expected = -0.1 * (0.1 * 4.0) / math.sqrt(0.001 * 16.0 + 1e-8)
        assert np.allclose(out.flat("w")[keep], expected, rtol=0, atol=1e-15)
        assert np.all(out.flat("w")[~keep] == 0.0)

    def test_masked_rescaled_gradient_is_unbiased(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=4000)
        p = 0.5
        acc = np.zeros_like(g)
        trials = 400
        for k in range(trials):
            keep = bernoulli_mask(MaskKey(77, "g", k), g.size, p)
            acc += np.where(keep, g, 0.0) / p
        mean = acc / trials
        sigma = np.abs(g) * math.sqrt((1 - p) / (p * trials))
        assert np.all(np.abs(mean - g) <= 4 * sigma + 1e-12)


class TestEma:
    def test_single_update(self):
        shadow = pset(x=[0.0])
        out = ema_update(shadow, pset(x=[1.0]), 1e-3)
        assert out.flat("x")[0] == pytest.approx(1e-3, abs=1e-18)
        assert shadow.flat("x")[0] == 0.0

    def test_fixed_point(self):
        params = pset(x=[2.5])
        assert ema_update(params, params, 1e-3).flat("x")[0] == 2.5

    def test_geometric_convergence_closed_form(self):
        params = pset(x=[1.0])
        shadow0 = 0.25
        shadow = pset(x=[shadow0])
        c, n = 0.05, 40
        for _ in range(n):
            shadow = ema_update(shadow, params, c)
        expected_error = (1 - c) ** n * abs(1.0 - shadow0)
        assert abs(1.0 - shadow.flat("x")[0]) == pytest.approx(expected_error, rel=1e-9)

    def test_coefficient_validated(self):
        params = pset(x=[1.0])
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                ema_update(params, params, bad)

    @pytest.mark.parametrize("other", [{"y": [1.0]}, {"x": [1.0, 2.0]}], ids=["name", "shape"])
    def test_misaligned_shadow_rejected(self, other):
        with pytest.raises(MisalignedSets):
            ema_update(pset(x=[1.0]), pset(**other), 0.5)


class TestStateInvariants:
    def test_moment_updates_identical_across_variants(self):
        params, tau = make_problem(seed=2)
        g = grad_stream(4, 1, params)
        states = {}
        for name, fn in {
            "adam": lambda p, s: adam_step(p, g, s, HYP),
            "ondare": lambda p, s: ondare_step(
                p, g, s, HYP, OnlineMergeConfig()
            ),
            "onties": lambda p, s: onties_step(
                p, g, s, HYP, OnlineMergeConfig()
            ),
            "stepk": lambda p, s: stepk_step(
                p, g, s, HYP, OnlineMergeConfig(gap_step=4), MergeVariant.ONDARE
            ),
            "childtuning": lambda p, s: childtuning_step(p, g, s, HYP, 1.0),
        }.items():
            s = OptimizerState(params, tau_ref=tau, seed=5)
            fn(params, s)
            states[name] = s
        ref = states["adam"]
        for name, s in states.items():
            assert s.t == 1
            assert np.array_equal(s.m, ref.m), name
            assert np.array_equal(s.v, ref.v), name

    def test_second_moment_nonnegative_and_t_increases(self):
        params, tau = make_problem()
        state = OptimizerState(params, tau_ref=tau, seed=0)
        p = params
        cfg = OnlineMergeConfig()
        for t in range(1, 30):
            p = ondare_step(p, grad_stream(6, t, params), state, HYP, cfg)
            assert state.t == t
            assert np.all(state.v >= 0.0)

    def test_tau_ref_is_not_mutated_by_steps(self):
        params, tau = make_problem()
        before = tau.vector().tobytes()
        state = OptimizerState(params, tau_ref=tau, seed=0)
        p = params
        cfg = OnlineMergeConfig(alpha=0.5, reserve_rate=0.5)
        for t in range(1, 10):
            p = ondare_step(p, grad_stream(7, t, params), state, HYP, cfg)
        assert state.tau_ref.tobytes() == before

    def test_mask_key_ranges_checked(self):
        params, tau = make_problem()
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                OptimizerState(params, tau_ref=tau, seed=bad)
        state = OptimizerState(params, tau_ref=tau, seed=2**64 - 1)
        state.t = 2**64 - 1
        with pytest.raises(ValueError, match=r"step must be an integer in \[0, 2\*\*64\)"):
            ondare_step(params, grad_stream(1, 1, params), state, HYP,
                        OnlineMergeConfig())

    def test_memory_contract_no_base_model_in_state(self):
        # The state may cache the reference delta but never the base model.
        params, tau = make_problem()
        state = OptimizerState(params, tau_ref=tau, seed=9)
        attrs = {
            k: v for k, v in vars(state).items() if not k.startswith("_")
        }
        assert "base" not in " ".join(attrs)


def test_online_config_validation():
    for bad in (
        dict(alpha=1.5), dict(alpha="x"), dict(reserve_rate=0.0), dict(reserve_rate=True),
        dict(gap_step=0), dict(gap_step=2.5),
    ):
        with pytest.raises(InvalidConfig):
            OnlineMergeConfig(**bad)


def test_adam_hyper_validation():
    for bad in (
        dict(learning_rate=0.0), dict(learning_rate="0.1"), dict(beta1=1.0),
        dict(weight_decay=-1e-3), dict(bias_correction="no"),
    ):
        with pytest.raises(InvalidConfig):
            AdamHyper(**bad)


@pytest.mark.parametrize("step", [
    lambda p, g, s: ondare_step(p, g, s, HYP, OnlineMergeConfig()),
    lambda p, g, s: onties_step(p, g, s, HYP, OnlineMergeConfig()),
    lambda p, g, s: full_merge_step(p, g, s, HYP, OnlineMergeConfig(), p),
    lambda p, g, s: stepk_step(p, g, s, HYP, OnlineMergeConfig(), MergeVariant.ONDARE),
], ids=["ondare", "onties", "fullmerge", "stepk"])
def test_online_steps_need_a_reference_delta(step):
    params, _ = make_problem()
    state = OptimizerState(params)
    with pytest.raises(ValueError, match="cached reference delta"):
        step(params, grad_stream(0, 1, params), state)
    assert state.t == 0


def test_stepk_rejects_a_non_variant():
    params, tau = make_problem()
    state = OptimizerState(params, tau_ref=tau)
    with pytest.raises(ValueError, match="step-K"):
        stepk_step(params, grad_stream(0, 1, params), state, HYP, OnlineMergeConfig(), "ondare")
    assert state.t == 0


ONLINE_WRAPPERS = {
    "ondare": lambda p, s, base: ondare_step(p, p, s, HYP, OnlineMergeConfig()),
    "onties": lambda p, s, base: onties_step(p, p, s, HYP, OnlineMergeConfig()),
    "fullmerge": lambda p, s, base: full_merge_step(p, p, s, HYP, OnlineMergeConfig(), base),
    "stepk-ondare": lambda p, s, base: stepk_step(
        p, p, s, HYP, OnlineMergeConfig(), MergeVariant.ONDARE
    ),
    "stepk-onties": lambda p, s, base: stepk_step(
        p, p, s, HYP, OnlineMergeConfig(), MergeVariant.ONTIES
    ),
}
# case -> (name, state has tau_ref, base, error, message); base "own" is the
# state's own layout, "other" a set of another layout.
BIND_ERRORS = {
    "unknown name": ("sgd", True, "own", InvalidConfig, "unknown optimizer 'sgd'"),
    **{f"{name} without tau_ref": (name, False, "own", ValueError, "cached reference delta")
       for name in ONLINE_WRAPPERS},
    "fullmerge without base": ("fullmerge", True, None, ValueError, "base model"),
    "fullmerge with misaligned base": ("fullmerge", True, "other", MisalignedSets, "entry"),
}


@pytest.mark.parametrize("case", list(BIND_ERRORS))
def test_bind_checks_before_any_step_and_its_wrapper_raises_the_same(case):
    """bind makes every check once, before a step runs, so the state is left
    at t = 0; the public step over sets, which binds its step, raises the
    same error. An unknown name has no public step."""
    name, with_tau, base, error, match = BIND_ERRORS[case]
    params, tau = make_problem()
    base = {"own": params, "other": make_problem(n=9)[0], None: None}[base]
    steps = [lambda s: bind(name, s, HYP, OnlineMergeConfig(), base)]
    if name in ONLINE_WRAPPERS:
        steps.append(lambda s: ONLINE_WRAPPERS[name](params, s, base))
    for step in steps:
        state = OptimizerState(params, tau_ref=tau if with_tau else None)
        with pytest.raises(error, match=match):
            step(state)
        assert state.t == 0


def test_training_reexports_optims_optimizer_names():
    assert training.OPTIMIZER_NAMES is optim.OPTIMIZER_NAMES
    assert len(set(OPTIMIZER_NAMES)) == 8


def test_adam_hyper_defaults():
    h = AdamHyper()
    assert (h.learning_rate, h.beta1, h.beta2) == (0.02, 0.9, 0.999)
    assert (h.epsilon, h.weight_decay, h.bias_correction) == (1e-8, 0.0, True)
    assert AdamHyper.pseudocode_literal().learning_rate == 5e-7
    cfg = OnlineMergeConfig()
    assert (cfg.alpha, cfg.reserve_rate, cfg.gap_step) == (1e-6, 0.5, 1)


@pytest.mark.parametrize("step", [
    lambda p, g, s: ondare_step(p, g, s, HYP, OnlineMergeConfig(alpha=0.25)),
    lambda p, g, s: full_merge_step(p, g, s, HYP, OnlineMergeConfig(alpha=0.25), p),
    lambda p, g, s: stepk_step(p, g, s, HYP, OnlineMergeConfig(gap_step=3), MergeVariant.ONDARE),
    lambda p, g, s: childtuning_step(p, g, s, HYP, 0.5),
], ids=["ondare", "fullmerge", "stepk", "childtuning"])
def test_a_state_on_a_used_mask_table_steps_as_one_with_its_own(step):
    params, tau = make_problem(seed=2)
    table = MaskTable(7, params.slices())
    warm = OptimizerState(params, tau_ref=tau, seed=7, masks=table)
    for t in range(1, 13):  # draws the update, reference and gradient rows of steps 1-12
        ondare_step(params, grad_stream(5, t, params), warm, HYP, OnlineMergeConfig())
        childtuning_step(params, grad_stream(5, t, params), warm, HYP, 0.5)
    shared = OptimizerState(params, tau_ref=tau, seed=7, masks=table)
    own = OptimizerState(params, tau_ref=tau, seed=7)
    p_shared = p_own = params
    for t in range(1, 13):
        p_shared = step(p_shared, grad_stream(6, t, params), shared)
        p_own = step(p_own, grad_stream(6, t, params), own)
        assert p_shared == p_own


def test_a_mask_table_of_another_seed_or_layout_is_rejected():
    params, tau = make_problem()
    other, _ = make_problem(n=9)
    for masks in (MaskTable(8, params.slices()), MaskTable(7, other.slices())):
        with pytest.raises(ValueError, match="another seed or layout"):
            OptimizerState(params, tau_ref=tau, seed=7, masks=masks)
