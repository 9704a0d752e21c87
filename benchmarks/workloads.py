"""The benchmark workloads: a set-up step and one timed unit each.

Every workload draws its cohorts from the seed; mmsurv only ever sees the
generated cohorts and configs. Calls into the package go through the
``mmsurv`` namespace, where the tracer's wrappers are installed. A unit
repeats the same work each time it runs, so its per-cell c-indices must
repeat bit for bit. Why each workload exists is written down in README.md
next to this file.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

import mmsurv as ms
from mmsurv import ExperimentCell, MmsurvError, TrainConfig
from mmsurv.cohort import MODALITIES

SCENARIOS = ("complete", "pathology-missing", "gene-pathology-missing")

TENSOR_CELL = ExperimentCell("tensor", dropout=True, recon=True)
TENSOR_EPOCHS = 2          # about 5.5 s each on one core; patience matches, so all run
TENSOR_BOOTSTRAP = 20
TENSOR_STAGE1_EPOCHS = 15  # in set-up; patience matches, so set-up work is fixed too

GRID_TRAIN, GRID_TEST = 180, 200
GRID_BOOTSTRAP = 10
# Epoch caps keep a grid near 10 s; patience stays at its default of 10.
# Over seeds 401-410, 63 of 80 stage-1 and 34 of 100 fusion trainings
# stopped early inside these caps.
GRID_STAGE1_EPOCHS, GRID_FUSION_EPOCHS = 20, 15

EVAL_TEST = 4000           # c-index builds 4000 x 4000 matrices per call
EVAL_BOOTSTRAP = 5
EVAL_CELL = ExperimentCell("mean", dropout=True)
EVAL_EPOCHS = 10           # set-up training, both stages; patience matches


@dataclass
class Work:
    """What one set-up or unit did, and the work behind each rate."""

    cindex: dict = field(default_factory=dict)   # (cell label, scenario) -> c-index
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    stage1_samples: int = 0
    stage1_s: float = 0.0
    fusion_samples: int = 0
    fusion_s: float = 0.0
    eval_rates: list = field(default_factory=list)   # resamples per second, per evaluate call
    best_epochs: int = 0       # sum over fusion traces of (best epoch + 1)
    epochs_run: int = 0


def _attempt(work: Work, fn, *args):
    """Run one cell-level operation; a package error counts as a failure."""
    work.attempted += 1
    try:
        return fn(*args)
    except MmsurvError as e:
        work.failed += 1
        work.errors.append(f"{type(e).__name__}: {e}")
        return None


def _fit_records(n: int, config: TrainConfig) -> int:
    """Records left for fitting after the trainers' validation hold-out."""
    return n - int(round(n * config.val_fraction))


def _best_epoch(trace) -> int:
    best, best_ci = len(trace.epochs) - 1, -np.inf
    for entry in trace.epochs:
        if entry["val_cindex"] is not None and entry["val_cindex"] > best_ci:
            best, best_ci = entry["epoch"], entry["val_cindex"]
    return best


def train_stage1(pool, config: TrainConfig, work: Work) -> dict:
    encoders = {}
    for m in MODALITIES:
        t0 = time.perf_counter()
        encoders[m] = ms.train_unimodal(pool, m, config)
        work.stage1_s += time.perf_counter() - t0
        rows = sum(r.has(m) for r in pool.records)
        work.stage1_samples += len(encoders[m].trace.epochs) * _fit_records(rows, config)
    return encoders


def train_fusion(train, config: TrainConfig, cell: ExperimentCell, encoders, work: Work):
    pool = train if cell.stage2_data == "all" else ms.complete_subset(train)
    t0 = time.perf_counter()
    predictor = ms.train_cell(train, config, cell, encoders)
    work.fusion_s += time.perf_counter() - t0
    epochs = len(predictor.trace.epochs)
    work.fusion_samples += epochs * _fit_records(len(pool), config)
    work.best_epochs += _best_epoch(predictor.trace) + 1
    work.epochs_run += epochs
    return predictor


def score(predictor, test, label: str, scenario: str, config: TrainConfig, work: Work) -> None:
    """Evaluate one cell; only a call that returns gives a rate.

    ``evaluate`` does not say how many resamples it skipped for lack of
    comparable pairs, so a returned call counts all ``config.bootstrap``.
    """
    t0 = time.perf_counter()
    result = _attempt(work, ms.evaluate, predictor, test, ms.scenario_by_name(scenario),
                      config.bootstrap, config.seed)
    seconds = time.perf_counter() - t0
    if result is not None:
        work.eval_rates.append(config.bootstrap / seconds)
        work.cindex[(label, scenario)] = result.cindex


# ── tensor-fit ───────────────────────────────────────────────────────────────

def tensor_fit_setup(seed: int, workdir: str, work: Work) -> dict:
    train, test = ms.default_synthetic_pair(seed)
    stage1 = TrainConfig(seed=seed, stage1_epochs=TENSOR_STAGE1_EPOCHS, patience=TENSOR_STAGE1_EPOCHS)
    encoders = train_stage1(train, stage1, work)
    config = TrainConfig(seed=seed, fusion_epochs=TENSOR_EPOCHS, patience=TENSOR_EPOCHS,
                         bootstrap=TENSOR_BOOTSTRAP)
    return {"train": train, "test": test, "encoders": encoders, "config": config}


def tensor_fit_unit(state: dict, work: Work) -> None:
    config = state["config"]
    predictor = _attempt(work, train_fusion, state["train"], config, TENSOR_CELL,
                         state["encoders"], work)
    if predictor is not None:
        for scenario in SCENARIOS:
            score(predictor, state["test"], TENSOR_CELL.label(), scenario, config, work)


# ── mean-grid ────────────────────────────────────────────────────────────────

def mean_grid_setup(seed: int, workdir: str, work: Work) -> dict:
    train, test = ms.default_synthetic_pair(seed, n_train=GRID_TRAIN, n_test=GRID_TEST)
    config = TrainConfig(seed=seed, stage1_epochs=GRID_STAGE1_EPOCHS,
                         fusion_epochs=GRID_FUSION_EPOCHS, bootstrap=GRID_BOOTSTRAP)
    return {"train": train, "test": test, "config": config}


def mean_grid_unit(state: dict, work: Work) -> None:
    """The ten mean-vector rows of ``table_cells()`` under all three scenarios."""
    train, test, config = state["train"], state["test"], state["config"]
    stage1 = {regime: _attempt(work, train_stage1,
                               train if regime == "all" else ms.complete_subset(train), config, work)
              for regime in ("complete", "all")}
    cells = [c for c in ms.table_cells(SCENARIOS) if c.strategy == "mean"]
    predictors = {}
    for cell in cells:
        key = cell.training_key()
        if key in predictors:
            continue
        encoders = stage1[cell.stage1_data]
        predictors[key] = None if encoders is None else _attempt(
            work, train_fusion, train, config, cell, encoders, work)
    for cell in cells:
        predictor = predictors[cell.training_key()]
        if predictor is not None:
            score(predictor, test, cell.label(), cell.scenario, config, work)


# ── eval-large ───────────────────────────────────────────────────────────────

def eval_large_setup(seed: int, workdir: str, work: Work) -> dict:
    train, test = ms.default_synthetic_pair(seed, n_test=EVAL_TEST)
    config = TrainConfig(seed=seed, stage1_epochs=EVAL_EPOCHS, fusion_epochs=EVAL_EPOCHS,
                         patience=EVAL_EPOCHS, bootstrap=EVAL_BOOTSTRAP)
    encoders = train_stage1(train, config, work)
    predictor = train_fusion(train, config, EVAL_CELL, encoders, work)
    model_path = os.path.join(workdir, "model.json")
    cohort_path = os.path.join(workdir, "test.csv")
    ms.save_predictor(predictor, model_path)
    ms.save_cohort(test, cohort_path)
    return {"schema": test.schema, "model": model_path, "cohort": cohort_path, "config": config}


def eval_large_unit(state: dict, work: Work) -> None:
    test = ms.load_cohort(state["cohort"], state["schema"])
    predictor = ms.load_predictor(state["model"])
    for scenario in SCENARIOS:
        score(predictor, test, EVAL_CELL.label(), scenario, state["config"], work)


WORKLOADS = {
    "tensor-fit": (tensor_fit_setup, tensor_fit_unit),
    "mean-grid": (mean_grid_setup, mean_grid_unit),
    "eval-large": (eval_large_setup, eval_large_unit),
}

# Traced names that must record calls in a timed unit, and names that must
# record none there. Set-up work (stage 1 for tensor-fit, all training for
# eval-large) is outside the timed unit.
_TRAINING = {"nets.DenseNet.forward", "nets.DenseNet.backward", "nets.optimizer_step",
             "nets.GradientSet.zeros_like", "nets.GradientSet.add", "fusion.fuse",
             "fusion.fuse_backward", "fusion.forward_sample", "fusion.batch_loss_and_grads",
             "fusion.modality_dropout", "survival.cox_loss", "survival.cox_loss_grad",
             "survival.concordance_index", "unimodal.export_embeddings", "pipeline.train_cell",
             "pipeline.evaluate", "pipeline.SurvivalPredictor.risk_scores",
             "cohort.apply_scenario"}
_FILES = {"pipeline.load_predictor", "pipeline.save_predictor", "cohort.load_cohort",
          "cohort.save_cohort", "cohort.generate_synthetic"}
EXPECT_CALLS = {
    "tensor-fit": (_TRAINING, _FILES | {"unimodal.train_unimodal"}),
    "mean-grid": (_TRAINING | {"unimodal.train_unimodal"}, _FILES),
    "eval-large": ({"nets.DenseNet.forward", "fusion.fuse", "fusion.forward_sample",
                    "survival.concordance_index", "pipeline.evaluate",
                    "pipeline.SurvivalPredictor.risk_scores", "pipeline.load_predictor",
                    "cohort.load_cohort", "cohort.apply_scenario"},
                   {"nets.DenseNet.backward", "nets.optimizer_step", "nets.GradientSet.zeros_like",
                    "nets.GradientSet.add", "fusion.fuse_backward", "fusion.batch_loss_and_grads",
                    "fusion.modality_dropout", "survival.cox_loss", "survival.cox_loss_grad",
                    "unimodal.train_unimodal", "unimodal.export_embeddings", "pipeline.train_cell",
                    "pipeline.save_predictor", "cohort.save_cohort", "cohort.generate_synthetic"}),
}
