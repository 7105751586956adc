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
