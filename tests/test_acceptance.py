"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as they
complete. Every tolerance is pinned here; nothing is calibrated elsewhere.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mergeopt import (
    MaskKey,
    MergeMethod,
    MergeSpec,
    ParameterSet,
    dpo_loss,
    dpo_loss_and_grad,
    load_checkpoint,
    offline_merge,
    save_checkpoint,
    sign_consensus,
    sparsify_random,
    sparsify_top_p,
)
from mergeopt.optim import MASK_STREAM_REF, MASK_STREAM_UPDATE, AdamHyper, OnlineMergeConfig
from mergeopt.params import delta
from mergeopt.policy import ToyPolicy
from mergeopt.tasks import PreferenceSet, SuiteSizes
from mergeopt.training import (
    DataSettings,
    DpoSettings,
    PhaseSettings,
    RunConfig,
    make_suite,
    train_preference,
    train_reference,
    train_run,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

FAST_DATA = DataSettings(sizes=SuiteSizes(400, 200, 400, 200, 400, 200))


BUDGETS = {1: 10, 2: 30, 3: 20, 4: 1, 5: 5, 6: 1, 7: 30, 8: 300, 9: 600}
_STARTS = {}


@pytest.fixture(autouse=True)
def _clock(request):
    _STARTS[request.node.name] = time.monotonic()
    yield


def report(criterion: int, ok: bool, detail: str) -> None:
    elapsed = time.monotonic() - next(iter(_STARTS.values())) if _STARTS else 0.0
    _STARTS.clear()
    budget = BUDGETS[criterion]
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(
        f"ACCEPTANCE {criterion} {status}: {detail} [{elapsed:.1f}s / budget {budget}s]",
        flush=True,
    )
    assert ok, f"criterion {criterion}: {detail}"
    assert in_budget, f"criterion {criterion}: took {elapsed:.1f}s, budget {budget}s"


def run_once(seed=1, optimizer="adamw", steps=100, data=FAST_DATA, merge=None, adam=None,
             dpo_extra=None):
    dpo = DpoSettings(steps=steps, eval_every=max(1, steps // 10))
    if dpo_extra:
        dpo = dataclasses.replace(dpo, **dpo_extra)
    cfg = RunConfig(
        seed=seed,
        optimizer=optimizer,
        data=data,
        dpo=dpo,
        phases=PhaseSettings(pretrain_steps=150, sft_steps=150),
        merge=merge or OnlineMergeConfig(),
        adam=adam or AdamHyper(),
    )
    return cfg, train_run(make_suite(cfg), cfg)


def test_criterion_1_reduction_ladder():
    _, ref = run_once(optimizer="adamw", steps=100)
    ladder = {
        "ondare(a=0,p=1)": ("ondare", OnlineMergeConfig(alpha=0.0, reserve_rate=1.0)),
        "onties(a=0,p=1)": ("onties", OnlineMergeConfig(alpha=0.0, reserve_rate=1.0)),
        "childtuning(p=1)": ("childtuning", OnlineMergeConfig(reserve_rate=1.0)),
        "stepk(K=1,a=0,p=1)": (
            "stepk-ondare",
            OnlineMergeConfig(alpha=0.0, reserve_rate=1.0, gap_step=1),
        ),
    }
    mismatches = []
    for label, (optimizer, merge) in ladder.items():
        _, res = run_once(optimizer=optimizer, steps=100, merge=merge)
        if res.theta_final != ref.theta_final:
            mismatches.append(label)
    report(
        1,
        not mismatches,
        "100-step reduction ladder bit-identical to Adam"
        + (f" (mismatches: {mismatches})" if mismatches else ""),
    )


def test_criterion_2_stepk_bridge():
    failures = []
    # K=1 bitwise equivalence at the two pinned (alpha, p) settings.
    for alpha, p in ((1e-6, 0.5), (1e-3, 0.1)):
        for online, stepk in (("ondare", "stepk-ondare"), ("onties", "stepk-onties")):
            merge = OnlineMergeConfig(alpha=alpha, reserve_rate=p, gap_step=1)
            _, a = run_once(optimizer=online, steps=60, merge=merge)
            _, b = run_once(optimizer=stepk, steps=60, merge=merge)
            if a.theta_final != b.theta_final:
                failures.append(f"K=1 {online} (a={alpha}, p={p})")

    # K=T against the two-phase oracle: T plain-Adam steps, then one merge
    # over the total displacement with the shared mask seed and step T.
    T, alpha, p, seed = 60, 1e-3, 0.5, 1
    merge = OnlineMergeConfig(alpha=alpha, reserve_rate=p, gap_step=T)
    cfg, stepk_res = run_once(seed=seed, optimizer="stepk-ondare", steps=T, merge=merge)
    _, adam_res = run_once(seed=seed, optimizer="adamw", steps=T)
    tau = delta(adam_res.theta_ref, adam_res.theta_base)
    worst = 0.0
    for name, _, theta0 in adam_res.theta_ref:
        displacement = adam_res.theta_final.flat(name) - theta0
        merged = (1 - alpha) * sparsify_random(
            displacement, p, MaskKey(seed, name, T, MASK_STREAM_UPDATE)
        ) + alpha * sparsify_random(tau.flat(name), p, MaskKey(seed, name, T, MASK_STREAM_REF))
        oracle = theta0 + merged
        worst = max(worst, float(np.max(np.abs(stepk_res.theta_final.flat(name) - oracle))))
    if worst >= 1e-12:
        failures.append(f"K=T oracle max|diff|={worst:.2e}")
    report(
        2,
        not failures,
        f"step-K bridge: K=1 bitwise, K=T oracle max|diff|={worst:.2e} < 1e-12"
        + (f" (failures: {failures})" if failures else ""),
    )


def test_criterion_3_sparsifier_statistics():
    n = 100_000
    x_val = 2.0
    x = np.full(n, x_val)
    failures = []
    for i, p in enumerate((0.5, 0.05, 5e-4)):
        raw = sparsify_random(x, p, MaskKey(100 + i, "mc"), rescale=False)
        sigma_raw = x_val * math.sqrt(p * (1 - p) / n)
        if abs(raw.mean() - p * x_val) >= 3 * sigma_raw:
            failures.append(f"raw p={p}: mean={raw.mean():.6f}")
        scaled = sparsify_random(x, p, MaskKey(200 + i, "mc"), rescale=True)
        sigma_scaled = x_val * math.sqrt((1 - p) / (p * n))
        if abs(scaled.mean() - x_val) >= 3 * sigma_scaled:
            failures.append(f"rescaled p={p}: mean={scaled.mean():.6f}")

    rng = np.random.default_rng(0)
    for _ in range(1000):
        size = int(rng.integers(1, 300))
        p = float(rng.uniform(1e-4, 1.0))
        values = rng.normal(size=size)
        out = sparsify_top_p(values, p)
        if np.count_nonzero(out) != math.ceil(p * size):
            failures.append(f"top-p count n={size} p={p:.4f}")
            break
    report(
        3,
        not failures,
        "sparsifier statistics: unbiasedness within 3 sigma at N=100000 for "
        "p in {0.5, 0.05, 5e-4}; top-p count exact on 1000 random cases"
        + (f" ({failures})" if failures else ""),
    )


def test_criterion_4_sign_consensus_truth_table():
    grid = [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
    failures = []

    def oracle(a, b):
        if a == 0.0 or b == 0.0 or math.copysign(1, a) == math.copysign(1, b):
            return a + b
        return a * (abs(a) >= abs(b)) + b * (abs(b) >= abs(a))

    for a in grid:
        for b in grid:
            got = sign_consensus(a, b)
            if got != oracle(a, b) or got != sign_consensus(b, a):
                failures.append((a, b))
    ok = (
        not failures
        and sign_consensus(2.0, -3.0) == -3.0
        and sign_consensus(2.0, -2.0) == 0.0
        and all(sign_consensus(a, 0.0) == a for a in grid)
    )
    report(4, ok, "sign consensus matches the 9x9 truth table, commutativity, and a(+)0=a")


def test_criterion_5_dpo_correctness():
    rng = np.random.default_rng(0)
    policy = ToyPolicy.random_init(3, 4, 3, rng)
    reference = ToyPolicy.random_init(3, 4, 3, np.random.default_rng(1))
    failures = []
    for seed in range(3):
        brng = np.random.default_rng(seed)
        x = brng.normal(size=(8, 3))
        first = brng.integers(0, 3, size=8)
        second = (first + 1 + brng.integers(0, 2, size=8)) % 3
        batch = PreferenceSet(x, first, second)
        loss, _ = dpo_loss(policy, policy.logprobs(batch.x), batch, 0.1)
        if abs(loss - math.log(2.0)) >= 1e-12:
            failures.append(f"log2 at seed {seed}: {loss}")

    batch = PreferenceSet(
        rng.normal(size=(8, 3)),
        np.array([0, 1, 2, 0, 1, 2, 0, 1]),
        np.array([1, 2, 0, 2, 0, 1, 2, 0]),
    )
    ref_lp = reference.logprobs(batch.x)
    grad = dpo_loss_and_grad(policy, ref_lp, batch, 0.1)[2]
    eps, worst = 1e-6, 0.0
    for name, _, arr in policy.params:
        for i in range(arr.size):
            plus, minus = arr.copy(), arr.copy()
            plus[i] += eps
            minus[i] -= eps
            lp = dpo_loss(
                policy.with_params(
                    ParameterSet((n, s, plus if n == name else a) for n, s, a in policy.params)
                ),
                ref_lp, batch, 0.1,
            )[0]
            lm = dpo_loss(
                policy.with_params(
                    ParameterSet((n, s, minus if n == name else a) for n, s, a in policy.params)
                ),
                ref_lp, batch, 0.1,
            )[0]
            numeric = (lp - lm) / (2 * eps)
            analytic = grad.flat(name)[i]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, rel)
    if worst >= 1e-5:
        failures.append(f"finite differences rel err {worst:.2e}")
    report(
        5,
        not failures,
        f"identical policies give log 2 within 1e-12; gradient vs central "
        f"differences max rel err {worst:.2e} < 1e-5"
        + (f" ({failures})" if failures else ""),
    )


def test_criterion_6_offline_merge(tmp_path):
    base = ParameterSet([("w", (2,), [0.0, 0.0])])
    m1 = ParameterSet([("w", (2,), [1.0, 0.0])])
    m2 = ParameterSet([("w", (2,), [0.0, 1.0])])
    linear = offline_merge(base, [m1, m2], MergeSpec(MergeMethod.LINEAR, weights=(0.5, 0.5)))
    ok_linear = np.array_equal(linear.flat("w"), [0.5, 0.5])

    rng = np.random.default_rng(3)
    base2 = ParameterSet([("w", (30,), rng.normal(size=30))])
    models = [
        ParameterSet([("w", (30,), rng.normal(size=30))]),
        ParameterSet([("w", (30,), rng.normal(size=30))]),
    ]
    pl, pd = tmp_path / "lin.pset", tmp_path / "dare.pset"
    save_checkpoint(
        offline_merge(base2, models, MergeSpec(MergeMethod.LINEAR, weights=(0.4, 0.6))), pl
    )
    save_checkpoint(
        offline_merge(
            base2, models,
            MergeSpec(MergeMethod.DARE, reserve_rate=1.0, weights=(0.4, 0.6), rescale=True),
        ),
        pd,
    )
    ok_dare = pl.read_bytes() == pd.read_bytes()

    ties = offline_merge(
        ParameterSet([("w", (1,), [0.0])]),
        [ParameterSet([("w", (1,), [2.0])]), ParameterSet([("w", (1,), [-1.0])])],
        MergeSpec(MergeMethod.TIES, reserve_rate=1.0, weights=(1.0, 1.0)),
    )
    ok_ties = np.array_equal(ties.flat("w"), [2.0])
    report(
        6,
        ok_linear and ok_dare and ok_ties,
        f"offline merge: linear={ok_linear}, DARE(p=1)==linear bytes={ok_dare}, "
        f"TIES hand example={ok_ties}",
    )


def test_criterion_7_determinism_and_format(tmp_path):
    config = {
        "seed": 3,
        "optimizer": "ondare",
        "dpo": {"steps": 50, "eval_every": 10},
        "phases": {"pretrain_steps": 120, "sft_steps": 120},
        "data": {
            "sizes": {
                "pretrain_train": 400, "pretrain_eval": 200,
                "sft_train": 400, "sft_eval": 200,
                "pref_train": 400, "pref_eval": 200,
            }
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "mergeopt.cli", "train",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    same = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("metrics.csv", "theta_b.pset", "theta_r.pset", "theta_final.pset")
    )

    extreme = ParameterSet(
        [("w", (4,), [1e-300, -0.0, np.finfo(np.float64).max, 4.9e-324])]
    )
    path = tmp_path / "extreme.pset"
    save_checkpoint(extreme, path)
    roundtrip = load_checkpoint(path)
    bits_ok = roundtrip == extreme and roundtrip.flat("w").tobytes() == extreme.flat("w").tobytes()
    report(
        7,
        same and bits_ok,
        f"two process invocations byte-identical={same}; "
        f"PSET1 extreme-double roundtrip bit-exact={bits_ok}",
    )


def test_criterion_8_directional_tradeoff():
    # Desk-scale analogue of the headline trade-off: the online-merging
    # optimizer must forget no more than AdamW (hard gate) while keeping at
    # least 80% of AdamW's final reward margin.
    drops = {"adamw": [], "ondare": []}
    margins = {"adamw": [], "ondare": []}
    for seed in (1, 2, 3, 4, 5):
        for optimizer in ("adamw", "ondare"):
            cfg = RunConfig(
                seed=seed,
                optimizer=optimizer,
                merge=OnlineMergeConfig(alpha=1e-6, reserve_rate=0.5),
                dpo=DpoSettings(steps=500, eval_every=50),
            )
            res = train_run(make_suite(cfg), cfg)
            first, last = res.metrics.rows[0], res.metrics.last()
            drops[optimizer].append(first.pretrain_accuracy - last.pretrain_accuracy)
            margins[optimizer].append(last.reward_margin)
    drop_a, drop_o = np.mean(drops["adamw"]), np.mean(drops["ondare"])
    marg_a, marg_o = np.mean(margins["adamw"]), np.mean(margins["ondare"])
    forgetting_ok = drop_o <= drop_a
    reward_ok = marg_o >= 0.8 * marg_a
    report(
        8,
        forgetting_ok and reward_ok,
        f"5-seed T=500: pretrain drop ondare {drop_o:.4f} <= adamw {drop_a:.4f} "
        f"({forgetting_ok}); reward margin {marg_o:.4f} >= 0.8*{marg_a:.4f} ({reward_ok})",
    )


def seed_major_pref_accuracy(seeds, points, config):
    """Per point, in seed order, the final pref_accuracy of
    train_run(make_suite(cfg), cfg) for cfg = config(seed, point). train_run is
    train_preference(train_reference(suite, cfg), cfg), and the reference part
    depends only on the seed, data and phases, which the points share; so each
    seed's reference part is trained once, for all of its points."""
    acc = {point: [] for point in points}
    for seed in seeds:
        cfgs = [config(seed, point) for point in points]
        assert len({(cfg.seed, cfg.data, cfg.phases) for cfg in cfgs}) == 1
        reference = train_reference(make_suite(cfgs[0]), cfgs[0])
        for point, cfg in zip(points, cfgs):
            acc[point].append(train_preference(reference, cfg).metrics.last().pref_accuracy)
    return acc


def test_criterion_9_qualitative_sweep_shapes():
    # Reward proxy: final preference accuracy on the eval split. It is the
    # bounded analogue of a win-rate judge and, unlike the mean margin, is
    # immune to the logit-sharpening inflation that parameter drift causes in
    # a saturating softmax policy.
    #
    # The alpha sweep runs a capacity-limited long-horizon configuration
    # (hidden_dim 4, lr 1e-4, 20000 steps) where the reference-delta pull at
    # alpha=1e-4 visibly outruns what the gradient can counteract; at the
    # paper's scale the same imbalance is what breaks the policy.
    tight = DataSettings(hidden_dim=4)
    alphas = (1e-7, 1e-6, 1e-5, 1e-4)
    acc = seed_major_pref_accuracy((1, 2, 3), alphas, lambda seed, alpha: RunConfig(
        seed=seed,
        optimizer="ondare",
        data=tight,
        adam=AdamHyper(learning_rate=1e-4),
        dpo=DpoSettings(steps=20000, eval_every=2000),
        merge=OnlineMergeConfig(alpha=alpha, reserve_rate=0.5),
    ))
    accs = {alpha: float(np.mean(acc[alpha])) for alpha in alphas}
    collapse_ok = accs[1e-4] <= accs[1e-6] - 0.06
    top_end_ok = accs[1e-4] <= accs[1e-5] + 0.01

    # Gap-step sweep at the default configuration. At desk scale the reward
    # benefit of onlineness is not reproducible (criterion 8 already frames
    # the online optimizer's reward as a fraction of AdamW's), so the
    # directional gate is one-sided: the proxy must not increase with K
    # beyond seed noise.
    gaps = (1, 5, 10, 50)
    acc = seed_major_pref_accuracy((1, 2, 3, 4, 5), gaps, lambda seed, gap: RunConfig(
        seed=seed,
        optimizer="stepk-ondare",
        merge=OnlineMergeConfig(gap_step=gap),
        dpo=DpoSettings(steps=500, eval_every=100),
    ))
    k_accs = [float(np.mean(acc[gap])) for gap in gaps]
    k_tol = 0.01
    k_ok = all(b <= a + k_tol for a, b in zip(k_accs, k_accs[1:]))
    report(
        9,
        collapse_ok and top_end_ok and k_ok,
        f"alpha sweep accuracies {accs} (collapse at 1e-4: {collapse_ok}, "
        f"top-end trend: {top_end_ok}); K sweep {k_accs} non-increasing "
        f"within {k_tol}: {k_ok}",
    )
