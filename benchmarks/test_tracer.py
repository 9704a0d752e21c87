"""Checks of the benchmark's tracer: self-time arithmetic and wrapping.

Run with ``python3 -m pytest benchmarks`` from the repository root.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import mmsurv  # noqa: E402
import tracer  # noqa: E402


def test_self_time_on_a_hand_built_span_tree():
    # A [0, 10] holds B [1, 3] and C [4, 9]; C holds another B [5, 6].
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tr = tracer.Tracer(clock=lambda: next(ticks))
    tr.enter("A")
    tr.enter("B")
    tr.exit()
    tr.enter("C")
    tr.enter("B")
    tr.exit()
    tr.exit()
    tr.exit()
    assert tr.stats == {"A": [1, 10.0, 3.0], "B": [2, 3.0, 3.0], "C": [1, 5.0, 4.0]}
    assert sum(st[2] for st in tr.stats.values()) == tr.stats["A"][1]


def test_install_wraps_every_alias_and_restore_undoes_it():
    originals = (mmsurv.survival.concordance_index, mmsurv.nets.GradientSet.__dict__["zeros_like"])
    tr = tracer.Tracer()
    undo, absent = tracer.install(tr)
    try:
        assert absent == []
        assert mmsurv.pipeline.concordance_index is mmsurv.survival.concordance_index
        assert mmsurv.concordance_index is not originals[0]
        risks, times, events = np.array([0.3, 0.1, 0.2]), np.array([1.0, 2.0, 3.0]), np.ones(3)
        mmsurv.pipeline.concordance_index(risks, times, events)
        mmsurv.survival.concordance_index(risks, times, events)
        net = mmsurv.init_net((3, 2), "relu", seed=0)
        mmsurv.nets.GradientSet.zeros_like(net)
    finally:
        tracer.restore(undo)
    assert tr.stats["survival.concordance_index"][0] == 2
    assert tr.counts["cindex_pairs"] == 2 * 3 ** 2
    assert tr.stats["nets.GradientSet.zeros_like"][0] == 1
    assert mmsurv.pipeline.concordance_index is originals[0]
    assert mmsurv.nets.GradientSet.__dict__["zeros_like"] is originals[1]


def test_missing_name_is_reported_absent():
    undo, absent = tracer.install(tracer.Tracer(), layers={"survival": ("no_such_function",),
                                                           "nets": ("NoSuchClass.forward",)})
    tracer.restore(undo)
    assert undo == []
    assert absent == ["survival.no_such_function", "nets.NoSuchClass.forward"]

