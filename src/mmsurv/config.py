"""Training configuration shared by the stage-1 and fusion trainers."""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError


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
        if min(self.stage1_lr, self.fusion_lr) <= 0:
            raise ConfigError("learning rates must be positive")
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
        if self.lam < 0:
            raise ConfigError("lam must be non-negative")
        if self.bootstrap < 0:
            raise ConfigError("bootstrap must be non-negative")


@dataclass
class TrainingTrace:
    """Per-epoch record of one training run: loss plus validation c-index."""

    epochs: list = field(default_factory=list)

    def log(self, epoch: int, train_loss: float, val_cindex) -> None:
        self.epochs.append({"epoch": epoch, "train_loss": train_loss, "val_cindex": val_cindex})
