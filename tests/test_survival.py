from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (bootstrap_loop, cindex_pairwise, cox_loss_grad_unchunked, cox_loss_unchunked,
                      finite_diff_grad)
from mmsurv import survival
from mmsurv.errors import DataError, NumericalError
from mmsurv.survival import (BOOT_CHUNK, COX_CHUNK, bootstrap_concordance, concordance_index,
                             cox_loss_and_grad, has_comparable_pair, rank_plan)


def cox_loss_enumerated(hazards, times, events) -> float:
    """Independent oracle: term-by-term partial likelihood with raw exps."""
    loss = 0.0
    n = len(hazards)
    for i in range(n):
        if events[i] != 1:
            continue
        denom = sum(math.exp(hazards[j]) for j in range(n) if times[j] >= times[i])
        loss -= hazards[i] - math.log(denom)
    return loss


def cindex_enumerated(risks, times, events) -> float:
    """Independent oracle: explicit loop over ordered pairs."""
    num, den = 0.0, 0
    n = len(risks)
    for i in range(n):
        for j in range(n):
            if times[i] < times[j] and events[i] == 1:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    if den == 0:
        raise ZeroDivisionError
    return num / den


def random_batch(rng, n, with_ties=False):
    if with_ties:
        times = rng.integers(1, max(n // 2, 2), size=n).astype(float)
    else:
        times = rng.uniform(0.5, 50.0, size=n)
    events = (rng.random(n) < 0.7).astype(float)
    if events.sum() == 0:
        events[rng.integers(n)] = 1.0
    hazards = rng.normal(size=n)
    return hazards, times, events


def test_cox_loss_single_event_is_exactly_zero():
    assert cox_loss_and_grad(np.array([123.456]), np.array([1.0]), np.array([1.0]))[0] == 0.0


def test_cox_loss_matches_hand_enumeration_on_worked_example():
    loss = cox_loss_and_grad(np.array([0.5, -0.2, 0.3]), np.array([2.0, 5.0, 9.0]),
                             np.array([1.0, 1.0, 0.0]))[0]
    assert loss == pytest.approx(1.813623188045052, abs=1e-12)


def test_cox_loss_matches_enumeration_on_random_batches():
    rng = np.random.default_rng(100)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        hazards, times, events = random_batch(rng, n, with_ties=bool(rng.integers(2)))
        expected = cox_loss_enumerated(hazards, times, events)
        assert abs(cox_loss_and_grad(hazards, times, events)[0] - expected) < 1e-9


def test_cox_loss_shift_invariant():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 21))
        hazards, times, events = random_batch(rng, n)
        c = rng.uniform(-20.0, 20.0)
        base = cox_loss_and_grad(hazards, times, events)[0]
        shifted = cox_loss_and_grad(hazards + c, times, events)[0]
        assert abs(base - shifted) < 1e-10


def test_cox_loss_survives_large_scores():
    loss = cox_loss_and_grad(np.array([500.0, 480.0, 490.0]), np.array([1.0, 2.0, 3.0]),
                             np.array([1.0, 1.0, 1.0]))[0]
    assert np.isfinite(loss)


def test_cox_loss_event_terms_are_nonnegative():
    # each term is log-sum-exp over a set containing the event itself
    rng = np.random.default_rng(102)
    for _ in range(30):
        n = int(rng.integers(1, 15))
        hazards, times, events = random_batch(rng, n)
        loss_total = 0.0
        for i in np.flatnonzero(events == 1.0):
            only_i = (np.arange(n) == i).astype(float)
            single = cox_loss_enumerated(hazards, times, only_i)
            assert single >= -1e-12
            loss_total += single
        loss = cox_loss_and_grad(hazards, times, events)[0]
        assert abs(loss_total - loss) < 1e-9


def test_cox_loss_requires_an_event():
    with pytest.raises(DataError):
        cox_loss_and_grad(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    with pytest.raises(DataError):
        cox_loss_and_grad(np.array([]), np.array([]), np.array([]))


def test_cox_grad_matches_finite_differences():
    rng = np.random.default_rng(103)
    for _ in range(50):
        n = int(rng.integers(2, 16))
        hazards, times, events = random_batch(rng, n, with_ties=bool(rng.integers(2)))
        analytic = cox_loss_and_grad(hazards, times, events)[1]
        numeric = finite_diff_grad(
            lambda f: cox_loss_and_grad(f, times, events)[0], hazards, h=1e-5)
        scale = max(np.abs(numeric).max(), 1e-8)
        assert np.abs(analytic - numeric).max() / scale < 1e-6


def test_cox_grad_single_uncensored_sample_is_zero():
    g = cox_loss_and_grad(np.array([3.3]), np.array([2.0]), np.array([1.0]))[1]
    assert np.allclose(g, 0.0, atol=1e-15)


def test_cox_grad_sums_to_zero_when_all_tied_events():
    rng = np.random.default_rng(104)
    hazards = rng.normal(size=7)
    g = cox_loss_and_grad(hazards, np.full(7, 4.0), np.ones(7))[1]
    assert abs(g.sum()) < 1e-12


def random_cox_batch(rng, n, n_times, scale):
    """Times on an ``n_times`` grid (ties common), hazards at ``scale``, at least one event."""
    times = rng.integers(1, n_times + 1, size=n).astype(float)
    events = (rng.random(n) < 0.6).astype(float)
    events[rng.integers(n)] = 1.0
    return rng.normal(size=n) * scale, times, events


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=39),
       st.sampled_from([1, 3, 20, 10**6]), st.sampled_from([1e-3, 1.0, 30.0, 700.0]),
       st.integers(min_value=0, max_value=2**32))
@example(1, 1, 1, 1.0, 0)  # one record
@example(40, 1, 3, 1.0, 1)  # one event row per chunk, heavy ties
@example(120, 39, 10**6, 700.0, 2)  # large scores over several chunks
def test_chunked_cox_equals_the_unchunked_matrices(n, chunk, n_times, scale, seed):
    batch = random_cox_batch(np.random.default_rng(seed), n, n_times, scale)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(survival, "COX_CHUNK", chunk)
        loss, grad = cox_loss_and_grad(*batch)
    assert loss == cox_loss_unchunked(*batch)
    assert np.array_equal(grad, cox_loss_grad_unchunked(*batch))


def test_cox_at_the_default_chunk_equals_the_unchunked_matrices():
    rng = np.random.default_rng(105)
    for n_events in (COX_CHUNK, COX_CHUNK + 1, 2 * COX_CHUNK + 1):
        events = rng.permutation(np.r_[np.ones(n_events), np.zeros(20)])
        batch = (rng.normal(size=events.size), rng.integers(1, 50, size=events.size).astype(float),
                 events)
        loss, grad = cox_loss_and_grad(*batch)
        assert loss == cox_loss_unchunked(*batch)
        assert np.array_equal(grad, cox_loss_grad_unchunked(*batch))


def test_cox_of_10k_records_stays_in_chunk_memory():
    # one (events x n) float matrix alone would take about 380 MiB here
    rng = np.random.default_rng(106)
    n = 10_000
    hazards, times = rng.normal(size=n), rng.uniform(1.0, 5000.0, size=n)
    events = (rng.random(n) < 0.5).astype(float)
    tracemalloc.start()
    try:
        loss, grad = cox_loss_and_grad(hazards, times, events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss) and abs(grad.sum()) < 1e-8
    assert peak < 128 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_cindex_perfectly_anti_ordered_risks():
    # risk decreasing with time: every comparable pair concordant
    times = np.array([1.0, 2.0, 3.0, 4.0])
    risks = np.array([4.0, 3.0, 2.0, 1.0])
    assert concordance_index(risks, times, np.ones(4)) == 1.0


def test_cindex_constant_risk_is_half():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    assert concordance_index(np.zeros(4), times, np.ones(4)) == 0.5


def test_cindex_matches_pair_enumeration():
    rng = np.random.default_rng(105)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        risks = np.round(rng.normal(size=n), 1)  # rounding forces risk ties
        times = rng.integers(1, 10, size=n).astype(float)  # small grid forces time ties
        events = (rng.random(n) < 0.6).astype(float)
        try:
            expected = cindex_enumerated(risks, times, events)
        except ZeroDivisionError:
            with pytest.raises(DataError):
                concordance_index(risks, times, events)
            continue
        assert concordance_index(risks, times, events) == expected


def test_cindex_invariant_under_monotone_transforms():
    rng = np.random.default_rng(106)
    for _ in range(25):
        n = int(rng.integers(3, 25))
        risks = rng.normal(size=n)
        times = rng.uniform(1, 30, size=n)
        events = np.ones(n)
        base = concordance_index(risks, times, events)
        assert concordance_index(2.5 * risks + 7.0, times, events) == base
        assert concordance_index(risks ** 3, times, events) == base


def test_cindex_flips_under_negation_without_ties():
    rng = np.random.default_rng(107)
    risks = rng.normal(size=20)
    times = rng.uniform(1, 30, size=20)
    events = np.ones(20)
    c = concordance_index(risks, times, events)
    assert concordance_index(-risks, times, events) == pytest.approx(1.0 - c, abs=1e-12)


def test_cindex_no_comparable_pairs_raises():
    with pytest.raises(DataError):
        concordance_index(np.array([1.0, 2.0]), np.array([5.0, 5.0]), np.array([1.0, 1.0]))
    with pytest.raises(DataError):
        concordance_index(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.0, 0.0]))


def test_cindex_rejects_misaligned_and_nonfinite_inputs():
    with pytest.raises(DataError):
        concordance_index(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]), np.ones(3))
    with pytest.raises(DataError):
        concordance_index(np.zeros(3), np.array([1.0, 2.0]), np.ones(3))
    with pytest.raises(NumericalError):
        concordance_index(np.array([0.0, np.nan]), np.array([1.0, 2.0]), np.ones(2))


def test_cindex_equals_the_pairwise_matrix_at_scale():
    rng = np.random.default_rng(108)
    cases = ((200, 7, 5), (700, 40, 3), (1500, 300, 50), (3000, 12, 1000),
             (2500, 10**9, 10**9))  # the last is practically free of ties
    for n, n_times, n_risks in cases:
        times = rng.integers(1, n_times + 1, size=n).astype(float)
        risks = np.round(rng.normal(size=n) * n_risks / 4) / 8  # many tied risks
        events = (rng.random(n) < 0.6).astype(float)
        assert concordance_index(risks, times, events) == cindex_pairwise(risks, times, events)
        for _ in range(3):  # bootstrap resamples repeat rows
            idx = rng.integers(0, n, size=n)
            assert (concordance_index(risks[idx], times[idx], events[idx])
                    == cindex_pairwise(risks[idx], times[idx], events[idx]))


small_grid = st.integers(min_value=0, max_value=4).map(float)


@st.composite
def outcomes(draw):
    """Short outcome columns on a five-value grid, so ties of every kind are common."""
    n = draw(st.integers(min_value=0, max_value=12))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=np.float64)

    times = column(small_grid.map(lambda v: v + 1.0))
    risks = column(small_grid.map(lambda v: v / 2 - 1.0))
    events = column(st.sampled_from([0.0, 1.0]))
    return risks, times, events


@settings(max_examples=400, deadline=None)
@given(outcomes())
@example((np.array([0.5, -1.0, 2.0]), np.full(3, 2.0), np.ones(3)))  # all times tied
@example((np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0.0, 1.0, 0.0])))  # all risks tied
@example((np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.zeros(2)))  # no event
@example((np.array([1.0, 2.0]), np.array([2.0, 1.0]), np.array([1.0, 0.0])))  # event is last
@example((np.array([]), np.array([]), np.array([])))
def test_cindex_property_matches_pair_enumeration(case):
    risks, times, events = case
    try:
        expected = cindex_enumerated(risks, times, events)
    except ZeroDivisionError:
        assert not has_comparable_pair(times, events)
        with pytest.raises(DataError, match="no comparable pairs"):
            concordance_index(risks, times, events)
        return
    assert has_comparable_pair(times, events)
    assert concordance_index(risks, times, events) == expected


def test_cindex_at_100k_records_stays_in_linear_memory():
    # the pairwise matrices would need about 80 GB here
    rng = np.random.default_rng(110)
    n = 100_000
    times = rng.integers(1, 5000, size=n).astype(float)
    risks = np.round(rng.normal(size=n), 3)
    events = (rng.random(n) < 0.5).astype(float)
    tracemalloc.start()
    try:
        c = concordance_index(risks, times, events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < c < 1.0
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


chunk_edges = st.sampled_from([1, BOOT_CHUNK - 1, BOOT_CHUNK, BOOT_CHUNK + 1, 2 * BOOT_CHUNK + 1])


@settings(max_examples=150, deadline=None)
@given(outcomes().filter(lambda case: case[0].size > 0), chunk_edges,
       st.integers(min_value=0, max_value=2**32))
@example((np.array([0.5, -1.0, 2.0]), np.full(3, 2.0), np.ones(3)), 65, 0)  # all times tied
@example((np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0.0, 1.0, 0.0])), 64, 1)  # all risks tied
@example((np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.zeros(2)), 63, 2)  # no event
@example((np.array([0.3]), np.array([2.0]), np.array([1.0])), 1, 3)  # n = 1
@example((np.array([1.0, 0.0]), np.array([1.0, 2.0]), np.array([1.0, 0.0])), 129, 4)  # n = 2
@example((np.array([1.0, 0.0, 0.0]), np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0])), 129, 5)  # n = 3
@example((np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, 1.0, 3.0, 3.0]),
          np.array([1.0, 1.0, 0.0, 0.0])), 65, 6)  # every row twice
def test_bootstrap_equals_the_per_resample_loop(case, resamples, seed):
    risks, times, events = case
    expected = bootstrap_loop(risks, times, events, resamples, np.random.default_rng(seed))
    got = bootstrap_concordance(rank_plan(risks, times, events), resamples, np.random.default_rng(seed))
    assert got.tolist() == expected
    if len(expected) >= 2:
        assert np.std(got, ddof=1) == np.std(expected, ddof=1)


def test_bootstrap_leaves_the_rng_where_the_loop_leaves_it():
    rng = np.random.default_rng(111)
    risks, times, events = rng.normal(size=37), rng.uniform(1, 9, size=37), np.ones(37)
    loop_rng, counted_rng = np.random.default_rng(5), np.random.default_rng(5)
    bootstrap_loop(risks, times, events, 2 * BOOT_CHUNK + 3, loop_rng)
    bootstrap_concordance(rank_plan(risks, times, events), 2 * BOOT_CHUNK + 3, counted_rng)
    assert loop_rng.integers(0, 2**62) == counted_rng.integers(0, 2**62)


def test_bootstrap_equals_the_loop_on_larger_tied_sets():
    rng = np.random.default_rng(112)
    for n, n_times, n_risks, resamples in ((200, 7, 5, 70), (333, 60, 12, 9), (91, 10**9, 10**9, 130)):
        times = rng.integers(1, n_times + 1, size=n).astype(float)
        risks = np.round(rng.normal(size=n) * n_risks / 4) / 8
        events = (rng.random(n) < 0.6).astype(float)
        expected = bootstrap_loop(risks, times, events, resamples, np.random.default_rng(n))
        got = bootstrap_concordance(rank_plan(risks, times, events), resamples, np.random.default_rng(n))
        assert got.tolist() == expected


def test_bootstrap_of_zero_resamples_draws_nothing():
    # a plan's inputs are checked where it is built, by rank_plan
    rng = np.random.default_rng(113)
    state = rng.bit_generator.state
    plan = rank_plan(np.zeros(3), np.array([1.0, 2.0, 3.0]), np.ones(3))
    assert bootstrap_concordance(plan, 0, rng).size == 0
    assert rng.bit_generator.state == state


def test_bootstrap_of_20k_records_stays_in_chunk_memory():
    # drawing all 1,000 resamples of 20,000 rows at once would take 153 MiB
    rng = np.random.default_rng(114)
    n = 20_000
    times = rng.uniform(1.0, 5000.0, size=n)
    risks = rng.normal(size=n)
    events = (rng.random(n) < 0.7).astype(float)
    tracemalloc.start()
    try:
        stats = bootstrap_concordance(rank_plan(risks, times, events), 1000, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.size == 1000 and ((0.0 < stats) & (stats < 1.0)).all()
    assert peak < 128 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def unsorted_plan_counts(risks, times, events, w=None):
    """Reference rank-plan counts: each bit level's event rows searched in time order, unsorted
    keys, and every gather a fancy index ``w[:, idx]``; the plan as first written."""
    rows = np.flatnonzero(~np.isnan(times))
    t = np.unique(times[rows], return_inverse=True)[1].astype(np.int64, copy=False)
    risk_values, r = np.unique(risks[rows], return_inverse=True)
    risk_bits = int(risk_values.size).bit_length()
    z = (t << risk_bits) | r
    by_time = np.argsort(t, kind="stable")
    event = by_time[events[rows][by_time] == 1.0]
    z_event = z[event]
    event_rows, later = rows[event], np.cumsum(np.bincount(t))[t[event]]
    levels = []
    for k in range(int(t.max()).bit_length() if t.size else 0):
        bit = 1 << (risk_bits + k)
        block = ~((bit << 1) - (1 << risk_bits))
        high = (z & bit).nonzero()[0]
        keys = z[high] & block
        order = keys.argsort()
        upper = keys[order]
        low = z_event & bit == 0
        key = z_event[low] & block
        start = key & ~((bit << 1) - 1)
        levels.append((rows[high[order]], event_rows[low], upper.searchsorted(start, side="left"),
                       upper.searchsorted(key, side="left"), upper.searchsorted(key, side="right")))
    if w is None:
        return (sum((left - start).sum() for _, _, start, left, _ in levels),
                sum((right - left).sum() for _, _, _, left, right in levels),
                (rows.size - later).sum())

    def prefix(order):
        out = np.zeros((w.shape[0], order.size + 1), dtype=np.int64)
        np.cumsum(w[:, order], axis=1, out=out[:, 1:])
        return out

    cum = prefix(rows[by_time])
    comparable = (w[:, event_rows] * (cum[:, -1:] - cum[:, later])).sum(axis=1)
    concordant, tied = np.zeros(w.shape[0], dtype=np.int64), np.zeros(w.shape[0], dtype=np.int64)
    for order, low_rows, start, left, right in levels:
        cum = prefix(order)
        concordant += (w[:, low_rows] * (cum[:, left] - cum[:, start])).sum(axis=1)
        tied += (w[:, low_rows] * (cum[:, right] - cum[:, left])).sum(axis=1)
    return concordant, tied, comparable


def assert_plan_counts_equal_the_unsorted_reference(risks, times, events, rng):
    plan = survival.rank_plan(risks, times, events)
    want = unsorted_plan_counts(risks, times, events)
    assert [int(c) for c in plan.counts()] == [int(c) for c in want]
    n = risks.size
    w = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n) for _ in range(5)])
    w[0] = 1  # unit weights through the weighted path
    for got, want in zip(plan.counts(w), unsorted_plan_counts(risks, times, events, w)):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(outcomes().filter(lambda case: case[0].size > 0), st.integers(min_value=0, max_value=2**32 - 1))
def test_sorted_key_plan_counts_equal_the_unsorted_reference(case, seed):
    assert_plan_counts_equal_the_unsorted_reference(*case, np.random.default_rng(seed))


def test_sorted_key_plan_counts_equal_the_unsorted_reference_on_larger_sets():
    rng = np.random.default_rng(115)
    for n, n_times, n_risks in ((2000, 1600, 10**9), (500, 7, 5), (333, 10**9, 12)):
        times = rng.integers(1, n_times + 1, size=n).astype(float)
        risks = np.round(rng.normal(size=n) * n_risks / 4) / 8
        events = (rng.random(n) < 0.6).astype(float)
        assert_plan_counts_equal_the_unsorted_reference(risks, times, events, rng)


# one valid set, then each defect of the outcome contract applied to it
OUTCOMES = (np.array([1.0, 0.5, 0.0]), np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 0.0]))
DEFECTS = {
    "nan time": (DataError, lambda r, t, e: (r, np.array([1.0, np.nan, 3.0]), e)),
    "infinite time": (DataError, lambda r, t, e: (r, np.array([1.0, np.inf, 3.0]), e)),
    "zero time": (DataError, lambda r, t, e: (r, np.array([0.0, 2.0, 3.0]), e)),
    "negative time": (DataError, lambda r, t, e: (r, np.array([1.0, -2.0, 3.0]), e)),
    "event code 2": (DataError, lambda r, t, e: (r, t, np.array([1.0, 2.0, 0.0]))),
    "event code 0.5": (DataError, lambda r, t, e: (r, t, np.array([1.0, 0.5, 0.0]))),
    "misaligned": (DataError, lambda r, t, e: (r, t[:2], e)),
    "2-d": (DataError, lambda r, t, e: (r[:, None], t[:, None], e[:, None])),
    "nan score": (NumericalError, lambda r, t, e: (np.array([1.0, np.nan, 0.0]), t, e)),
    "infinite score": (NumericalError, lambda r, t, e: (np.array([1.0, -np.inf, 0.0]), t, e)),
}


@pytest.mark.parametrize("entry", [cox_loss_and_grad, concordance_index, rank_plan],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_every_entry_point_applies_the_one_outcome_contract(entry, defect):
    entry(*OUTCOMES)  # the valid set passes, with a comparable pair and an event
    error, damage = DEFECTS[defect]
    with pytest.raises(error):
        entry(*damage(*OUTCOMES))
