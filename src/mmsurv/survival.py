"""Cox partial-likelihood loss and concordance evaluation.

Every entry point takes outcomes as three aligned 1-d arrays, scores, times
and events, under one rule: the scores must be finite (else a
NumericalError), the times finite and positive and the events 0 or 1 (else
a DataError), the same rule a cohort applies to its records.

The loss is the negative Cox partial log-likelihood over one batch, with
risk sets formed inside the batch: for an event at time t_i the risk set is
every sample j with t_j >= t_i, ties included (Breslow handling, tied events
share the full risk set). Log-sum-exp terms subtract the in-set maximum, so
the loss is invariant to a constant shift of all hazards and safe for large
scores. ``cox_loss_and_grad`` returns the loss and its gradient from one
pass: each risk set's exponentials give the log-sum-exp term and, divided
by the same sums, the softmax weights of the gradient. Risk sets are built
COX_CHUNK event rows at a time, so a batch of n records needs
O(COX_CHUNK * n) memory, not events x n; each row's terms are row-local and
the gradient's column sums run on across blocks in one sequential order, so
the result does not depend on the chunking.

The concordance index is Harrell's: a pair (i, j) is comparable when
t_i < t_j and sample i had the event; it scores 1 when risk_i > risk_j and
0.5 on tied risks. Pairs with tied times are not comparable.

It is counted from ranks, never from an n x n matrix. Times and risks become
dense integer ranks (equal values share a rank). Every pair with t_i < t_j
has one highest bit k at which the two time ranks differ: above k they agree
(same block), at k sample i has 0 and sample j has 1. So for each bit k the
upper halves of the blocks are sorted once by (block, risk rank) and each
event row of a lower half counts, by binary search, the records of its
block's upper half with a lower risk (concordant) or an equal one (tied).
That is O(n log^2 n) time. Numerator and denominator are exact integers, so
the result equals pair enumeration bit for bit, and the order in which a
level's event rows are counted is free: each level keeps them sorted by
search key, so each binary search starts where the previous one ended and
the prefix sums are read in ascending positions.

The ranks, the sort orders and the search positions form a rank plan that
depends only on the set. A bootstrap resample differs from the full set only
in how many times each row occurs, its multiplicity vector w. So the
bootstrap takes the plan of the set and counts each resample from w: per
bit level one prefix sum of w in the plan's sort order, read at the search
positions, gives weighted concordant and tied counts, and one prefix sum in
time order gives the comparable pairs. A resample then costs O(n log n) time instead of
the O(n log^2 n) of ranking it again, the counts stay exact integers, and
every resample's c-index is the same float a call on the resampled rows
returns. Resamples are drawn and counted BOOT_CHUNK at a time, in
O(BOOT_CHUNK * n) memory. A single c-index is the same plan counted at unit
weights, where each prefix sum is its position, so a c-index and a bootstrap
of one set share the plan that ``rank_plan`` builds.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError, NumericalError

BOOT_CHUNK = 64  # bootstrap resamples drawn and counted together; memory O(BOOT_CHUNK * n)
COX_CHUNK = 256  # event rows whose risk sets are built together; memory O(COX_CHUNK * n)


def _outcomes(scores, times, events) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one input check of the survival math, as float64 arrays."""
    scores = np.asarray(scores, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.float64)
    if scores.ndim != 1 or times.shape != scores.shape or events.shape != scores.shape:
        raise DataError("scores, times, and events must be aligned 1-d arrays")
    if not np.isfinite(scores).all():
        raise NumericalError("non-finite scores")
    if not np.isfinite(times).all() or (times <= 0).any():
        raise DataError("survival times must be finite and positive")
    if not np.isin(events, (0.0, 1.0)).all():
        raise DataError("event indicators must be 0 or 1")
    return scores, times, events


def cox_loss_and_grad(hazards: np.ndarray, times: np.ndarray,
                      events: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative Cox partial log-likelihood of one batch and its gradient
    with respect to each hazard score, from one pass over the risk sets."""
    hazards, times, events = _outcomes(hazards, times, events)
    is_event = events == 1.0
    if not is_event.any():
        raise DataError("batch has no events, Cox loss undefined")
    event_times = times[is_event]
    lse = np.empty(event_times.size)
    total = None
    for start in range(0, event_times.size, COX_CHUNK):
        rows = slice(start, start + COX_CHUNK)
        # hazards over each event's risk set {j : t_j >= t_event}, -inf elsewhere
        scores = np.where(times[None, :] >= event_times[rows, None], hazards[None, :], -np.inf)
        mx = scores.max(axis=1)
        expd = np.exp(scores - mx[:, None])
        sums = expd.sum(axis=1)
        lse[rows] = mx + np.log(sums)
        weights = expd / sums[:, None]  # softmax within each risk set
        if total is None:
            total = weights.sum(axis=0)
        else:
            # the running sum heads the block, so rows keep adding in one sequential order
            total = np.add.reduce(np.concatenate([total[None], weights]), axis=0)
    loss = float(-(hazards[is_event] - lse).sum())
    if not np.isfinite(loss):
        raise NumericalError("non-finite Cox loss")
    grad = -events + total
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite Cox gradient")
    return loss, grad


def has_comparable_pair(times: np.ndarray, events: np.ndarray) -> bool:
    """Whether a c-index is defined for these outcomes: some event precedes some time."""
    times = np.asarray(times, dtype=np.float64)
    event_times = times[np.asarray(events) == 1.0]
    return event_times.size > 0 and bool(times.max() > event_times.min())


class _RankPlan:
    """What the pair counts of one set need, whatever multiplicity each row has.

    Built once from the full set: the event rows, the rows in time order with
    the position of each event's first later time, and per bit level the
    upper halves' rows in (block, risk rank) order plus the lower-half event
    rows, sorted by search key, with their block-start, left and right search
    positions. A prefix sum of the multiplicities in a fixed order turns every
    position into a weight.
    """

    def __init__(self, risks: np.ndarray, times: np.ndarray, events: np.ndarray):
        t = np.unique(times, return_inverse=True)[1].astype(np.int64, copy=False)
        risk_values, r = np.unique(risks, return_inverse=True)
        # one key per row: the time rank above the risk rank's bits, so clearing
        # a level's low time bits leaves a key that sorts by (block, risk rank)
        risk_bits = int(risk_values.size).bit_length()
        z = (t << risk_bits) | r
        self.by_time = np.argsort(t, kind="stable")
        self.event_rows = self.by_time[events[self.by_time] == 1.0]  # in time order, so searches run ahead
        z_event = z[self.event_rows]
        self.later = np.cumsum(np.bincount(t))[t[self.event_rows]]  # time-order position of the next time
        self.levels = []
        for k in range(int(t.max()).bit_length() if t.size else 0):
            bit = 1 << (risk_bits + k)
            block = ~((bit << 1) - (1 << risk_bits))  # clears time bits 0..k
            high = (z & bit).nonzero()[0]  # array methods: this loop is call-bound at small n
            keys = z[high] & block
            order = keys.argsort()
            upper = keys[order]
            low = (z_event & bit == 0).nonzero()[0]
            key = z_event[low] & block
            by_key = key.argsort()
            key = key[by_key]
            start = key & ~((bit << 1) - 1)  # first key of the row's block
            self.levels.append((high[order], self.event_rows[low[by_key]],
                                upper.searchsorted(start, side="left"),
                                upper.searchsorted(key, side="left"),
                                upper.searchsorted(key, side="right")))

    def counts(self, w: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concordant, tied and comparable pair counts for each row of multiplicities ``w``.

        ``w=None`` counts every row once; a prefix sum of unit weights is its
        own position, so the positions are the counts.
        """
        if w is None:
            comparable = (self.by_time.size - self.later).sum()
            concordant = sum((left - start).sum() for _, _, start, left, _ in self.levels)
            tied = sum((right - left).sum() for _, _, _, left, right in self.levels)
            return concordant, tied, comparable

        # a.take(idx, axis=1) gathers columns faster than a[:, idx] on large sets
        def prefix(order):
            out = np.zeros((w.shape[0], order.size + 1), dtype=np.int64)
            np.cumsum(w.take(order, axis=1), axis=1, out=out[:, 1:])
            return out

        cum = prefix(self.by_time)
        # comparable pairs: each event row against the weight at later times
        comparable = (w.take(self.event_rows, axis=1)
                      * (cum[:, -1:] - cum.take(self.later, axis=1))).sum(axis=1)
        concordant = np.zeros(w.shape[0], dtype=np.int64)
        tied = np.zeros(w.shape[0], dtype=np.int64)
        for order, low_rows, start, left, right in self.levels:
            cum = prefix(order)
            w_low = w.take(low_rows, axis=1)
            at_left = cum.take(left, axis=1)
            concordant += (w_low * (at_left - cum.take(start, axis=1))).sum(axis=1)
            tied += (w_low * (cum.take(right, axis=1) - at_left)).sum(axis=1)
        return concordant, tied, comparable


def rank_plan(risks: np.ndarray, times: np.ndarray, events: np.ndarray) -> _RankPlan:
    """The rank plan of one set of outcomes, for ``concordance_index`` on
    that same set to share with ``bootstrap_concordance``."""
    return _RankPlan(*_outcomes(risks, times, events))


def concordance_index(risks: np.ndarray, times: np.ndarray, events: np.ndarray,
                      plan: _RankPlan | None = None) -> float:
    """Harrell's c-index of risk scores against observed outcomes.

    ``plan``, when given, is ``rank_plan`` of these outcomes, counted
    instead of building it again.
    """
    risks, times, events = _outcomes(risks, times, events)
    if not has_comparable_pair(times, events):
        raise DataError("no comparable pairs, c-index undefined")
    if plan is None:
        plan = _RankPlan(risks, times, events)
    concordant, tied, comparable = plan.counts()
    return float((concordant + 0.5 * tied) / comparable)


def bootstrap_concordance(plan: _RankPlan, resamples: int, rng: np.random.Generator) -> np.ndarray:
    """c-index of each bootstrap resample of ``plan``'s set that has a comparable pair, in draw order.

    Each resample is its own ``rng.integers(0, n, size=n)`` call, in order,
    so the stream is that of a loop over resamples by construction rather
    than through how numpy fills one (chunk, n) array. Each value equals
    ``concordance_index`` on the resampled rows.
    """
    if resamples <= 0:
        return np.empty(0)
    n = plan.by_time.size
    stats = []
    for first in range(0, resamples, BOOT_CHUNK):
        chunk = min(BOOT_CHUNK, resamples - first)
        draws = np.empty((chunk, n), dtype=np.int64)
        for b in range(chunk):
            draws[b] = rng.integers(0, n, size=n)
        draws += np.arange(chunk, dtype=np.int64)[:, None] * n
        w = np.bincount(draws.ravel(), minlength=chunk * n).reshape(chunk, n)
        del draws
        concordant, tied, comparable = plan.counts(w)
        kept = comparable > 0
        stats.append((concordant[kept] + 0.5 * tied[kept]) / comparable[kept])
    return np.concatenate(stats)
