"""The benchmark's tracer wraps names bound inside mergeopt's modules and
raises KeyError on one that is missing, so a change that unbinds a wrapped
name fails here rather than when the benchmark runs."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_installs_and_restores_every_span():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(ns, attr) for ns, attr, *_ in tracer._targets()]
    before = [ns.__dict__[attr] for ns, attr in targets]
    with tracer.Tracer():
        assert all(ns.__dict__[attr] is not fn for (ns, attr), fn in zip(targets, before))
    assert all(ns.__dict__[attr] is fn for (ns, attr), fn in zip(targets, before))


def test_traced_call_counts_of_a_short_run():
    """Every span the benchmark reads fires once per unit of work: one batch
    gather per block of preference steps (20 steps of 32 rows are one
    block); one dpo_loss per evaluation row. The training steps call the
    flat cores (dpo_loss_and_grad_into and the steps optim.bind returns),
    which the tracer does not wrap, and fill keep-masks without
    bernoulli_mask."""
    from mergeopt.training import RunConfig, make_suite, train_run

    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    cfg = RunConfig.from_dict({
        "optimizer": "ondare",
        "data": {"hidden_dim": 4, "sizes": dict(
            pretrain_train=100, pretrain_eval=50, sft_train=100, sft_eval=50,
            pref_train=100, pref_eval=50,
        )},
        "phases": {"pretrain_steps": 5, "sft_steps": 5},
        "dpo": {"steps": 20, "eval_every": 10},
    })
    suite = make_suite(cfg)
    with tracer.Tracer() as t:
        result = train_run(suite, cfg)
    counts = {n: list(t.name).count(i) for i, n in enumerate(t.names)}
    assert len(result.metrics.rows) == 3
    assert {n: c for n, c in counts.items() if c} == {
        "tasks.PreferenceSet.take": 1,
        "policy.dpo_loss": 3,
        "policy.ToyPolicy.accuracy": 2 * 3,
        "params.ParameterSet.init": 1,
        "params.delta": 1,
    }
