"""The benchmark's tracer wraps names bound inside mergeopt's modules and
raises KeyError on one that is missing, so a change that unbinds a wrapped
name fails here rather than when the benchmark runs."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_and_restores_every_span():
    tracer = _load_tracer()
    targets = [(ns, attr) for ns, attr, *_ in tracer._targets()]
    before = [ns.__dict__[attr] for ns, attr in targets]
    with tracer.Tracer():
        assert all(ns.__dict__[attr] is not fn for (ns, attr), fn in zip(targets, before))
    assert all(ns.__dict__[attr] is fn for (ns, attr), fn in zip(targets, before))


def test_every_tracer_only_import_is_a_wrapped_name():
    """A name imported on a `noqa: F401` line of mergeopt exists only for the
    tracer to wrap, so each must be a (module, attribute) pair of _targets();
    when the tracer stops wrapping one, its import goes too."""
    tracer = _load_tracer()
    wrapped = {(ns.__name__, attr) for ns, attr, *_ in tracer._targets()}
    imported = set()
    for path in sorted((ROOT / "src" / "mergeopt").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and "noqa: F401" in lines[node.lineno - 1]:
                imported |= {(f"mergeopt.{path.stem}", a.asname or a.name) for a in node.names}
    assert imported - wrapped == set()


def test_traced_call_counts_of_a_short_run():
    """Every span the benchmark reads fires once per unit of work: one batch
    gather per block of preference steps (20 steps of 32 rows are one
    block); one dpo_loss per evaluation row. The training steps call the
    flat cores (dpo_loss_and_grad_into and the steps optim.bind returns),
    which the tracer does not wrap, and fill keep-masks without
    bernoulli_mask."""
    from mergeopt.training import RunConfig, make_suite, train_run

    tracer = _load_tracer()
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
