"""Cox partial-likelihood loss and concordance evaluation.

The loss is the negative Cox partial log-likelihood over one batch, with
risk sets formed inside the batch: for an event at time t_i the risk set is
every sample j with t_j >= t_i, ties included (Breslow handling, tied events
share the full risk set). Log-sum-exp terms subtract the in-set maximum, so
the loss is invariant to a constant shift of all hazards and safe for large
scores.

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
That is O(n log^2 n) time and O(n) memory. Numerator and denominator are
exact integers, so the result equals pair enumeration bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError


@dataclass
class SurvivalBatch:
    """Aligned hazards, times, and event indicators for one batch."""

    hazards: np.ndarray
    times: np.ndarray
    events: np.ndarray

    def __post_init__(self):
        self.hazards = np.asarray(self.hazards, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        self.events = np.asarray(self.events, dtype=np.float64)
        n = self.hazards.shape[0]
        if self.hazards.ndim != 1 or self.times.shape != (n,) or self.events.shape != (n,):
            raise DataError("hazards, times, and events must be aligned 1-d arrays")
        if n == 0:
            raise DataError("empty batch")
        if not np.isfinite(self.hazards).all():
            raise NumericalError("non-finite hazard scores")
        if not np.isfinite(self.times).all() or (self.times <= 0).any():
            raise DataError("survival times must be finite and positive")
        if not np.isin(self.events, (0.0, 1.0)).all():
            raise DataError("event indicators must be 0 or 1")

    @property
    def n(self) -> int:
        return self.hazards.shape[0]

    @property
    def n_events(self) -> int:
        return int(self.events.sum())


def cox_loss(batch: SurvivalBatch) -> float:
    """Negative Cox partial log-likelihood of one batch."""
    if batch.n_events == 0:
        raise DataError("batch has no events, Cox loss undefined")
    f = batch.hazards
    at_risk = batch.times[None, :] >= batch.times[:, None]  # row i: risk set of sample i
    event_rows = batch.events == 1.0
    scores = np.where(at_risk[event_rows], f[None, :], -np.inf)
    mx = scores.max(axis=1)
    lse = mx + np.log(np.exp(scores - mx[:, None]).sum(axis=1))
    loss = float(-(f[event_rows] - lse).sum())
    if not np.isfinite(loss):
        raise NumericalError("non-finite Cox loss")
    return loss


def cox_loss_grad(batch: SurvivalBatch) -> np.ndarray:
    """Gradient of ``cox_loss`` with respect to each hazard score."""
    if batch.n_events == 0:
        raise DataError("batch has no events, Cox loss undefined")
    f = batch.hazards
    at_risk = batch.times[None, :] >= batch.times[:, None]
    event_rows = batch.events == 1.0
    scores = np.where(at_risk[event_rows], f[None, :], -np.inf)
    mx = scores.max(axis=1)
    expd = np.exp(scores - mx[:, None])
    weights = expd / expd.sum(axis=1, keepdims=True)  # softmax within each risk set
    grad = -batch.events + weights.sum(axis=0)
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite Cox gradient")
    return grad


def has_comparable_pair(times: np.ndarray, events: np.ndarray) -> bool:
    """Whether a c-index is defined for these outcomes: some event precedes some time."""
    times = np.asarray(times, dtype=np.float64)
    known = ~np.isnan(times)
    event_times = times[known & (np.asarray(events) == 1.0)]
    return event_times.size > 0 and bool(times[known].max() > event_times.min())


def concordance_index(risks: np.ndarray, times: np.ndarray, events: np.ndarray) -> float:
    """Harrell's c-index of risk scores against observed outcomes."""
    risks = np.asarray(risks, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.float64)
    if risks.ndim != 1 or times.shape != risks.shape or events.shape != risks.shape:
        raise DataError("risks, times, and events must be aligned 1-d arrays")
    if not np.isfinite(risks).all():
        raise NumericalError("non-finite risk scores")
    if not has_comparable_pair(times, events):
        raise DataError("no comparable pairs, c-index undefined")
    known = ~np.isnan(times)  # a NaN time compares false with everything
    t = np.unique(times[known], return_inverse=True)[1].astype(np.int64, copy=False)
    risk_values, r = np.unique(risks[known], return_inverse=True)
    r = r.astype(np.int64, copy=False)
    event = events[known] == 1.0
    t_event, r_event = t[event], r[event]
    # comparable pairs: each event row against every record with a later time
    count = (t.size - np.cumsum(np.bincount(t)))[t_event].sum()
    concordant = tied = 0
    n_risks = risk_values.size
    for k in range(int(t.max()).bit_length()):
        high = (t >> k) & 1 == 1
        upper = np.sort((t[high] >> (k + 1)) * n_risks + r[high])
        low = (t_event >> k) & 1 == 0
        start = (t_event[low] >> (k + 1)) * n_risks  # first key of the row's block
        key = start + r_event[low]
        left = np.searchsorted(upper, key, side="left")
        concordant += (left - np.searchsorted(upper, start, side="left")).sum()
        tied += (np.searchsorted(upper, key, side="right") - left).sum()
    return float((concordant + 0.5 * tied) / count)
