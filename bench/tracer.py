"""Spans around calls into mergeopt, installed from outside the program.

The modules bind names with `from .x import f`, so a span goes on the name
each module calls through (`mergeopt.training.dpo_loss_and_grad`, not
`mergeopt.policy.dpo_loss_and_grad`), and on class attributes for methods.
Each span records its name, start, end, parent and an element count; spans
stay in flat arrays in memory until the run writes them out.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter

import numpy as np


def _size(args):
    return int(np.size(args[0]))


def _count_arg(args):
    return int(args[1])


def _nonzero(args, out):
    return int(np.count_nonzero(out))


def _file_size(args):
    return os.path.getsize(args[0])


def _saved_size(args, out):
    return os.path.getsize(args[1])


def _targets():
    """(namespace, attribute, span name, elements(args), kept(args, result))."""
    import mergeopt.cli as cli
    import mergeopt.kernels as kernels
    import mergeopt.optim as optim
    import mergeopt.training as training
    from mergeopt.params import ParameterSet
    from mergeopt.policy import ToyPolicy
    from mergeopt.tasks import PreferenceSet

    t = [
        (training, "gen_task_suite", "tasks.gen_task_suite", None, None),
        (PreferenceSet, "take", "tasks.PreferenceSet.take", None, None),
        (training, "dpo_loss_and_grad", "policy.dpo_loss_and_grad", None, None),
        (training, "class_loss_and_grad", "policy.class_loss_and_grad", None, None),
        (training, "dpo_loss", "policy.dpo_loss", None, None),
        (ToyPolicy, "accuracy", "policy.ToyPolicy.accuracy", None, None),
    ]
    for fn in ("adam_step", "ondare_step", "onties_step", "full_merge_step", "stepk_step",
               "childtuning_step", "ema_update"):
        t.append((training, fn, f"optim.{fn}", None, None))
    for ns in (optim, kernels):
        t += [
            (ns, "sparsify_random", "kernels.sparsify_random", _size, _nonzero),
            (ns, "sparsify_top_p", "kernels.sparsify_top_p", _size, _nonzero),
            (ns, "bernoulli_mask", "masks.bernoulli_mask", _count_arg, None),
        ]
    t += [
        (optim, "sign_consensus", "kernels.sign_consensus", None, None),
        (cli, "offline_merge", "kernels.offline_merge", None, None),
        (ParameterSet, "__init__", "params.ParameterSet.init", None, None),
        (training, "delta", "params.delta", None, None),
        (kernels, "delta", "params.delta", None, None),
        (cli, "save_checkpoint", "params.save_checkpoint", None, _saved_size),
        (cli, "load_checkpoint", "params.load_checkpoint", _file_size, None),
        (cli, "train_run", "training.train_run", None, None),
    ]
    return t


LAYER_FUNCTIONS = (
    "tasks.gen_task_suite", "tasks.PreferenceSet.take",
    "policy.dpo_loss_and_grad", "policy.class_loss_and_grad", "policy.dpo_loss",
    "policy.ToyPolicy.accuracy",
    "optim.adam_step", "optim.ondare_step", "optim.onties_step", "optim.full_merge_step",
    "optim.stepk_step", "optim.childtuning_step", "optim.ema_update",
    "kernels.sparsify_random", "kernels.sparsify_top_p", "kernels.sign_consensus",
    "kernels.offline_merge",
    "masks.bernoulli_mask",
    "params.ParameterSet.init", "params.delta", "params.save_checkpoint", "params.load_checkpoint",
    "training.train_run",
    "cli.train", "cli.merge",
)


class Tracer:
    """Installs spans on enter, restores the original names on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.elements = array("q")
        self.kept = array("q")
        self._stack = [-1]
        self._saved = []

    def _name_id(self, span_name: str) -> int:
        if span_name not in self.names:
            self.names.append(span_name)
        return self.names.index(span_name)

    def wrap(self, fn, span_name, elements=None, kept=None):
        nid = self._name_id(span_name)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        elems, kept_a, stack = self.elements, self.kept, self._stack

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            name.append(nid)
            elems.append(elements(args) if elements else 0)
            kept_a.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if kept:
                kept_a[i] = kept(args, out)
            return out

        return traced

    def call(self, span_name, fn, *args):
        return self.wrap(fn, span_name)(*args)

    def __enter__(self):
        for ns, attr, span_name, elements, kept in _targets():
            orig = ns.__dict__[attr]
            self._saved.append((ns, attr, orig))
            setattr(ns, attr, self.wrap(orig, span_name, elements, kept))
        return self

    def __exit__(self, *exc):
        for ns, attr, orig in reversed(self._saved):
            setattr(ns, attr, orig)
        self._saved.clear()
        return False

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "elements": np.frombuffer(self.elements, dtype=np.int64).copy(),
            "kept": np.frombuffer(self.kept, dtype=np.int64).copy(),
        }


def summarize(tr: Tracer, wall_s: float, dpo_steps: int, cli_commands: int) -> dict:
    """One traced pass: exact counts, per-name durations and self times."""
    a = tr.arrays()
    dur = a["end"] - a["start"]
    parent = a["parent"]
    rooted = parent >= 0
    self_t = dur - np.bincount(parent[rooted], weights=dur[rooted], minlength=dur.size)
    ids = {n: i for i, n in enumerate(tr.names)}

    def sel(n):
        return a["name"] == ids.get(n, -1)

    # Preference phase of each train_run: from its first evaluation (the
    # first dpo_loss it calls) to its end.
    runs = np.flatnonzero(sel("training.train_run"))
    evals = np.flatnonzero(sel("policy.dpo_loss"))
    pref_lo, pref_hi, supervised = [], [], 0.0
    for r in runs:
        first = evals[parent[evals] == r]
        if first.size:
            pref_lo.append(a["start"][first[0]])
            pref_hi.append(a["end"][r])
            supervised += a["start"][first[0]] - a["start"][r]
    pref_lo, pref_hi = np.array(pref_lo), np.array(pref_hi)
    k = np.searchsorted(pref_lo, a["start"], side="right") - 1
    in_pref = (k >= 0) & (a["start"] < pref_hi[np.maximum(k, 0)]) if pref_lo.size else np.zeros(dur.size, bool)

    counts = {}
    timing = {}
    for n in LAYER_FUNCTIONS:
        m = sel(n)
        counts[f"{n}.calls"] = int(m.sum())
        timing[n] = (dur[m], float(self_t[m].sum()))
    for n in ("kernels.sparsify_random", "kernels.sparsify_top_p"):
        m = sel(n)
        counts[f"{n}.elements"] = int(a["elements"][m].sum())
        counts[f"{n}.kept"] = int(a["kept"][m].sum())
    masks = sel("masks.bernoulli_mask")
    counts["masks.uniforms"] = int(a["elements"][masks].sum())
    counts["params.bytes_read"] = int(a["elements"][sel("params.load_checkpoint")].sum())
    counts["params.bytes_written"] = int(a["kept"][sel("params.save_checkpoint")].sum())
    steps = max(dpo_steps, 1)
    counts["masks.calls_per_step"] = int((masks & in_pref).sum()) / steps
    counts["masks.uniforms_per_step"] = int(a["elements"][masks & in_pref].sum()) / steps
    counts["params.builds_per_step"] = int((sel("params.ParameterSet.init") & in_pref).sum()) / steps
    counts["kernels.sorted_per_step"] = int(a["elements"][sel("kernels.sparsify_top_p") & in_pref].sum()) / steps
    stepk = np.flatnonzero(sel("optim.stepk_step"))
    sparsified = parent[sel("kernels.sparsify_random") | sel("kernels.sparsify_top_p")]
    merging = np.isin(stepk, sparsified).sum()
    counts["optim.merges_per_step"] = float(merging / stepk.size) if stepk.size else 0.0
    counts["cli.commands"] = cli_commands
    evaluation = sel("policy.dpo_loss") | sel("policy.ToyPolicy.accuracy")
    return {
        "counts": counts,
        "timing": timing,
        "wall_s": wall_s,
        "self_total_s": float(self_t.sum()),
        "supervised_s": supervised,
        "preference_s": float((pref_hi - pref_lo).sum()) if pref_lo.size else 0.0,
        "eval_s": float(dur[evaluation].sum()),
    }
