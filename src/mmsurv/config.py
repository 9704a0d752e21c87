"""Training configuration and ``fit``, the one training loop.

Stage 1, fusion on an embedding table and joint training all run ``fit``:
each trainer brings its networks, a ``step`` that writes a batch's gradient
and a ``val_risks`` for the hold-out; ``fit`` packs and steps the networks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .nets import OptimizerState, optimizer_step, pack
from .survival import concordance_index, has_comparable_pair


@dataclass
class TrainConfig:
    """Hyperparameters for both training stages.

    Defaults are the tabular settings used throughout: batch 64 at learning
    rate 0.002 for per-modality encoders, batch 8 at 0.0005 for fusion,
    early stopping on validation c-index with patience 10.
    """

    seed: int
    stage1_batch: int = 64
    fusion_batch: int = 8
    stage1_lr: float = 0.002
    fusion_lr: float = 0.0005
    stage1_epochs: int = 100
    fusion_epochs: int = 50
    patience: int = 10
    val_fraction: float = 0.1
    optimizer: str = "adam"
    dropout_rate: float = 0.5
    lam: float = 1.0
    bootstrap: int = 1000

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("a seed is required")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if min(self.stage1_batch, self.fusion_batch) < 1:
            raise ConfigError("batch sizes must be positive")
        if not all(math.isfinite(lr) and lr > 0 for lr in (self.stage1_lr, self.fusion_lr)):
            raise ConfigError("learning rates must be finite and positive")
        if min(self.stage1_epochs, self.fusion_epochs) < 1:
            raise ConfigError("epoch counts must be positive")
        if self.patience < 0:
            raise ConfigError("patience must be non-negative")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError("val_fraction must lie in [0, 1)")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError("lam must be finite and non-negative")
        if self.bootstrap < 0:
            raise ConfigError("bootstrap must be non-negative")


@dataclass
class TrainingTrace:
    """Per-epoch record of one training run: loss plus validation c-index."""

    epochs: list = field(default_factory=list)

    def log(self, epoch: int, train_loss: float, val_cindex) -> None:
        self.epochs.append({"epoch": epoch, "train_loss": train_loss, "val_cindex": val_cindex})


def fit(nets, step, val_risks, times, events, *, optimizer: str, lr: float, epochs: int,
        batch_size: int, patience: int, val_fraction: float, split_seed, shuffle_seed,
        context: str) -> TrainingTrace:
    """Train ``nets``, packed into one vector, through ``step`` with early stopping; returns the trace.

    A permutation drawn from ``split_seed`` holds out its first
    round(n * val_fraction) records for validation. Each epoch visits the
    rest in a fresh order drawn from ``shuffle_seed``, ``batch_size`` at a
    time, and skips a batch without events, which has no Cox loss; a rest
    without any event is a DataError, so every epoch takes a step, and so is
    a rest whose Cox loss is exactly zero because no event in it has another
    record at or after its time.
    ``step(idx, grad)`` writes the gradient of the records ``idx`` into
    ``grad``, one vector in the packed layout, and returns their loss; one
    ``optimizer`` step at rate ``lr`` then moves the packed vector.
    ``val_risks(idx)`` scores records; both take indices into ``times`` and
    ``events``. Each time the validation c-index improves, the packed vector
    is copied into one snapshot vector; once it has not improved for more
    than ``patience`` epochs, training stops and the snapshot is written
    back, so every network viewing it returns to its best epoch.
    A hold-out without a comparable pair has no c-index: every epoch then
    logs None, all epochs run and the last state is kept.
    """
    params = pack(nets)
    grad = np.empty_like(params)
    opt = OptimizerState(optimizer, lr, params)
    n_val = int(round(len(times) * val_fraction))
    perm = np.random.default_rng(split_seed).permutation(len(times))
    val_idx, fit_idx = perm[:n_val], perm[n_val:]
    if not events[fit_idx].any():
        raise DataError(f"{context}: the fit part has no observed events")
    fit_times = times[fit_idx]
    if np.count_nonzero(fit_times >= fit_times[events[fit_idx] != 0].min()) < 2:
        raise DataError(f"{context}: no event in the fit part has another record at or after "
                        "its time, so the Cox loss is zero")
    use_val = has_comparable_pair(times[val_idx], events[val_idx])
    shuffle_rng = np.random.default_rng(shuffle_seed)

    trace = TrainingTrace()
    # overwritten in place: a fresh copy per improvement would briefly hold two
    best_ci, best, stale = -np.inf, np.empty_like(params), 0
    for epoch in range(epochs):
        order = shuffle_rng.permutation(len(fit_idx))
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(fit_idx), batch_size):
            idx = fit_idx[order[start:start + batch_size]]
            if not events[idx].any():
                continue
            try:
                epoch_loss += step(idx, grad)
                optimizer_step(params, grad, opt)
            except NumericalError as e:
                raise NumericalError(f"{context} diverged at epoch {epoch}: {e}") from e
            n_batches += 1
        val_ci = concordance_index(val_risks(val_idx), times[val_idx], events[val_idx]) if use_val else None
        trace.log(epoch, epoch_loss / n_batches, val_ci)
        if use_val:
            if val_ci > best_ci:
                best_ci, stale = val_ci, 0
                best[...] = params
            else:
                stale += 1
                if stale > patience:
                    break
    if best_ci > -np.inf:
        params[...] = best
    return trace
