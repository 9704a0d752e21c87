"""Span tracer that wraps the public functions of each mmsurv layer.

The wrappers live here, in the benchmark, so the package itself carries no
tracing code. ``install`` replaces each traced function in every loaded
mmsurv namespace that holds it (``pipeline.batch_loss_and_grads`` as well as
``fusion.batch_loss_and_grads``), and methods on their class, so a call is
seen whichever import path it takes. ``restore`` puts the originals back.

Spans nest because the program is single-threaded: a span's self time is its
duration minus the durations of its direct children, which tile disjoint
parts of its interval.
"""
from __future__ import annotations

import functools
import sys
import time

# The traced functions, by layer. A name that no longer exists is reported
# as absent by ``install`` instead of failing the run.
LAYERS = {
    "cohort": ("generate_synthetic", "load_cohort", "save_cohort", "apply_scenario"),
    "survival": ("cox_loss", "cox_loss_grad", "concordance_index"),
    "nets": ("DenseNet.forward", "DenseNet.backward", "optimizer_step",
             "GradientSet.zeros_like", "GradientSet.add"),
    "unimodal": ("train_unimodal", "export_embeddings"),
    "fusion": ("fuse", "fuse_backward", "forward_sample", "batch_loss_and_grads",
               "modality_dropout"),
    "pipeline": ("train_cell", "evaluate", "SurvivalPredictor.risk_scores",
                 "load_predictor", "save_predictor"),
}


def _dense_flops(net, per_weight: int, per_output: int) -> int:
    return sum(per_weight * layer.w.size + per_output * layer.w.shape[0] for layer in net.layers)


# Work counts derived from argument sizes, so they repeat exactly. Forward:
# a multiply-add per weight plus the bias add. Backward: the outer product and
# its accumulation, the transposed matvec, the activation derivative product
# and the bias accumulation. Pair counts are the n x n matrices built per call.
COUNTERS = {
    "nets.DenseNet.forward": lambda args: ("forward_flops", _dense_flops(args[0], 2, 1)),
    "nets.DenseNet.backward": lambda args: ("backward_flops", _dense_flops(args[0], 4, 2)),
    "survival.concordance_index": lambda args: ("cindex_pairs", len(args[0]) ** 2),
    "survival.cox_loss": lambda args: ("cox_pairs", args[0].n ** 2),
    "survival.cox_loss_grad": lambda args: ("cox_pairs", args[0].n ** 2),
}


def traced_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


class Tracer:
    """Aggregates spans into per-name calls, total time and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []       # open spans: [name, start, child_s]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += duration
        st[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def snapshot(self) -> tuple[dict, dict]:
        return {k: tuple(v) for k, v in self.stats.items()}, dict(self.counts)


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if counter is not None:
            tracer.count(*counter(args))
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return traced


def install(tracer: Tracer, layers=LAYERS) -> tuple[list, list]:
    """Wrap every traced function of mmsurv; returns (undo list, absent names)."""
    namespaces = [m for key, m in list(sys.modules.items())
                  if key == "mmsurv" or key.startswith("mmsurv.")]
    undo, absent = [], []
    for module, names in layers.items():
        mod = sys.modules.get(f"mmsurv.{module}")
        for dotted in names:
            name = f"{module}.{dotted}"
            owner, _, attr = dotted.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            raw = vars(holder).get(attr) if holder is not None else None
            if raw is None:
                absent.append(name)
            elif owner and isinstance(raw, classmethod):
                undo.append((holder, attr, raw))
                setattr(holder, attr, classmethod(_wrap(tracer, name, raw.__func__)))
            elif owner:
                undo.append((holder, attr, raw))
                setattr(holder, attr, _wrap(tracer, name, raw))
            else:
                wrapped = _wrap(tracer, name, raw)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is raw:
                            undo.append((ns, key, raw))
                            setattr(ns, key, wrapped)
    return undo, absent


def restore(undo: list) -> None:
    for holder, attr, raw in reversed(undo):
        setattr(holder, attr, raw)
