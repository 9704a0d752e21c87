"""Training pipelines, evaluation, and the ablation grid.

Two training paths produce the same kind of predictor. The two-stage path
trains one encoder per modality on the Cox objective, freezes them, embeds
the training cohort, and then trains only the fusion networks on top. The
joint path updates encoders and fusion together, either from scratch or
starting from stage-1 encoders. Stage 1 and both fusion trainers run the
one loop ``config.fit``; each brings its own seeds, networks, optimizer
states and a step over a batch of record indices. The two-stage step reads
the precomputed embedding table, the joint step re-encodes its batch.

Each path can draw its training records from the complete-modality subset
("complete") or from every record ("all"), separately per stage. Together
with the fusion strategy, modality dropout, and the reconstruction loss
this spans the ablation grid; one grid cell is one trained configuration
evaluated under one test-time missingness scenario. Cells that share a
training configuration share the trained model, and cells that share a
stage-1 data regime share the same frozen encoders, bit for bit.

Evaluation applies the scenario mask to the test cohort, scores every
record with its remaining modalities (no dropout at test time), and
reports the c-index plus a bootstrap standard deviation over resampled
test sets.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .cohort import (MODALITIES, N_MODALITIES, Cohort, MissingnessScenario,
                     ModalityId, apply_scenario, complete_subset,
                     generate_synthetic, scenario_by_name)
from .config import TrainConfig, TrainingTrace, fit
from .errors import ConfigError, DataError, NumericalError
from .fusion import (DropoutPolicy, FusionBatch, FusionModel, FusionStrategy,
                     batch_loss_and_grads, dropout_masks, fusion_from_dict,
                     fusion_to_dict, init_fusion_model, model_footprint,
                     predict_risk)
from .nets import (OptimizerState, init_net, net_from_dict, net_to_dict,
                   optimizer_step, read_json)
from .survival import bootstrap_concordance, concordance_index
from .unimodal import ENCODER_HIDDEN, export_embeddings, train_unimodal

log = logging.getLogger(__name__)

DATA_REGIMES = ("complete", "all")
MODES = ("two-stage", "joint-scratch", "joint-finetune")

_FIT_SALT = 0xF17
_JOINT_SALT = 0x107
_BOOT_SALT = 0xB007
_TEST_SEED_OFFSET = 1_000_000


@dataclass(frozen=True)
class ExperimentCell:
    """One trained configuration plus the scenario it is scored under."""

    strategy: str
    stage1_data: str = "all"
    stage2_data: str = "all"
    dropout: bool = False
    recon: bool = False
    scenario: str = "complete"
    mode: str = "two-stage"

    def __post_init__(self):
        if self.stage1_data not in DATA_REGIMES or self.stage2_data not in DATA_REGIMES:
            raise ConfigError(f"data regimes must be one of {DATA_REGIMES}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        FusionStrategy(self.strategy)  # validates the kind

    def training_key(self) -> tuple:
        return (self.mode, self.strategy, self.stage1_data, self.stage2_data,
                self.dropout, self.recon)

    def label(self) -> str:
        flags = ("+dropout" if self.dropout else "") + ("+recon" if self.recon else "")
        return f"{self.strategy}/{self.stage1_data}/{self.stage2_data}{flags}"


@dataclass
class EvalResult:
    cindex: float
    std: float | None
    n_test: int
    n_dropped: int
    n_resamples: int  # bootstrap resamples that had a comparable pair


class SurvivalPredictor:
    """Frozen encoders (optional) plus a fusion model; scores raw cohorts."""

    def __init__(self, fusion: FusionModel, encoders=None, trace: TrainingTrace | None = None):
        self.fusion = fusion
        self.encoders = encoders  # {ModalityId: DenseNet}, None for embedding input
        self.trace = trace

    def cohort_embeddings(self, cohort: Cohort) -> np.ndarray:
        """(n, 4, embed) embeddings of every record, zeros where a modality is absent."""
        e = self.fusion.strategy.embed_dim
        out = np.zeros((len(cohort), N_MODALITIES, e))
        avail = cohort.availability
        for m in MODALITIES:
            rows = np.flatnonzero(avail[:, m])
            if not rows.size:
                continue
            width = cohort.schema.dim(m)
            if self.encoders is None:
                if width != e:
                    raise DataError(f"{m.label} has width {width}, expected embeddings of width {e}")
                out[rows, m] = cohort.block(m)[rows]
                continue
            enc = self.encoders.get(m)
            if enc is None:
                raise DataError(f"no encoder for {m.label}, which {rows.size} record(s) carry")
            if enc.input_dim != width:
                raise DataError(f"{m.label} has width {width}, encoder expects {enc.input_dim}")
            out[rows, m], _ = enc.forward(cohort.block(m)[rows])
        return out

    def risk_scores(self, cohort: Cohort) -> np.ndarray:
        return predict_risk(self.fusion, self.cohort_embeddings(cohort), cohort.availability)


PREDICTOR_FORMAT = "predictor-v1"


def save_predictor(predictor: SurvivalPredictor, path: str) -> None:
    """One self-contained JSON file: fusion networks plus any encoders."""
    encoders = None
    if predictor.encoders is not None:
        encoders = {m.label: net_to_dict(net) for m, net in predictor.encoders.items()}
    payload = {"format": PREDICTOR_FORMAT,
               "fusion": fusion_to_dict(predictor.fusion),
               "encoders": encoders}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))  # the C encoder; json.dump runs the Python one


def load_predictor(path: str) -> SurvivalPredictor:
    """Read a predictor checkpoint; anything malformed or mismatched is a DataError."""
    payload = read_json(path)
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != PREDICTOR_FORMAT:
        raise DataError(f"{path}: not a predictor checkpoint (format {fmt!r})")
    fusion = fusion_from_dict(payload.get("fusion"), origin=path)
    blobs = payload.get("encoders")
    if blobs is None:
        return SurvivalPredictor(fusion, None)
    if not isinstance(blobs, dict) or not set(blobs) <= {m.label for m in MODALITIES}:
        raise DataError(f"{path}: encoders must map modality names to networks")
    encoders = {ModalityId.from_name(label): net_from_dict(blob, origin=f"{path}: {label} encoder")
                for label, blob in blobs.items()}
    if any(net.output_dim != fusion.strategy.embed_dim for net in encoders.values()):
        raise DataError(f"{path}: encoder output widths do not match the fusion "
                        f"embedding width {fusion.strategy.embed_dim}")
    return SurvivalPredictor(fusion, encoders)


def _regime_pool(cohort: Cohort, regime: str, context: str) -> Cohort:
    if regime == "all":
        return cohort
    pool = complete_subset(cohort)
    if not len(pool):
        raise DataError(f"{context}: no complete-modality records available")
    pool.require_events(context)
    return pool


def train_stage1_encoders(train: Cohort, config: TrainConfig, regime: str) -> dict:
    """One encoder per modality, trained on the given data regime."""
    pool = _regime_pool(train, regime, f"stage 1 ({regime} data)")
    return {m: train_unimodal(pool, m, config) for m in MODALITIES}


def _fit_fusion(table: Cohort, config: TrainConfig, cell: ExperimentCell) -> tuple[FusionModel, TrainingTrace]:
    """Train fusion networks on a frozen embedding table."""
    table.require_events(f"fusion training ({cell.label()})")
    strategy = FusionStrategy(cell.strategy, embed_dim=table.schema.embed_dim)
    ss = np.random.SeedSequence([_FIT_SALT, config.seed])
    init_seed, split_seed, shuffle_seed, dropout_seed = ss.spawn(4)
    model = init_fusion_model(strategy, init_seed, recon=cell.recon, lam=config.lam)
    opts = {name: OptimizerState(config.optimizer, config.fusion_lr, net)
            for name, net in model.parts()}
    policy = DropoutPolicy(rate=config.dropout_rate, enabled=cell.dropout)
    dropout_rng = np.random.default_rng(dropout_seed)
    alpha, times, events = table.availability, table.times, table.events
    embeddings = np.stack([table.block(m) for m in MODALITIES], axis=1)

    def step(idx):
        mask = dropout_masks(alpha[idx], policy, dropout_rng)
        batch = FusionBatch(embeddings[idx], alpha[idx], mask, times[idx], events[idx])
        total, _, _, grads, _ = batch_loss_and_grads(model, batch)
        for name, net in model.parts():
            optimizer_step(net, grads[name], opts[name])
        return total

    trace = fit([net for _, net in model.parts()], step,
                lambda idx: predict_risk(model, embeddings[idx], alpha[idx]), times, events,
                epochs=config.fusion_epochs, batch_size=config.fusion_batch,
                patience=config.patience, val_fraction=config.val_fraction,
                split_seed=split_seed, shuffle_seed=shuffle_seed,
                context=f"fusion training ({cell.label()})")
    return model, trace


def train_fusion_on_table(table: Cohort, config: TrainConfig, cell: ExperimentCell) -> SurvivalPredictor:
    """Train only the fusion stage on an already-embedded cohort."""
    model, trace = _fit_fusion(table, config, cell)
    return SurvivalPredictor(model, encoders=None, trace=trace)


def train_two_stage(train: Cohort, config: TrainConfig, cell: ExperimentCell,
                    stage1_encoders: dict | None = None) -> SurvivalPredictor:
    """Stage 1 per modality, freeze, then fusion on top of the embeddings.

    Pass ``stage1_encoders`` to reuse already-trained encoders; they are
    used as-is and never updated here.
    """
    if cell.mode != "two-stage":
        raise ConfigError(f"cell mode {cell.mode!r} does not belong in train_two_stage")
    train.require_events("two-stage training")
    stage1 = stage1_encoders or train_stage1_encoders(train, config, cell.stage1_data)
    pool = _regime_pool(train, cell.stage2_data, f"stage 2 ({cell.stage2_data} data)")
    table = export_embeddings(stage1, pool)
    fusion, trace = _fit_fusion(table, config, cell)
    encoders = {m: u.encoder for m, u in stage1.items()}
    return SurvivalPredictor(fusion, encoders, trace=trace)


def train_end_to_end(train: Cohort, config: TrainConfig, cell: ExperimentCell,
                     stage1_encoders: dict | None = None) -> SurvivalPredictor:
    """Joint training of encoders and fusion against the total loss.

    ``joint-scratch`` initializes fresh encoders; ``joint-finetune`` starts
    from trained stage-1 encoders and keeps updating them.
    """
    if cell.mode not in ("joint-scratch", "joint-finetune"):
        raise ConfigError(f"cell mode {cell.mode!r} does not belong in train_end_to_end")
    train.require_events("joint training")
    pool = _regime_pool(train, cell.stage2_data, f"joint training ({cell.stage2_data} data)")
    pool.require_events("joint training pool")

    ss = np.random.SeedSequence([_JOINT_SALT, config.seed])
    enc_seed, init_seed, split_seed, shuffle_seed, dropout_seed = ss.spawn(5)
    if cell.mode == "joint-finetune":
        if stage1_encoders is None:
            raise ConfigError("joint-finetune requires trained stage-1 encoders")
        encoders = {m: stage1_encoders[m].encoder.copy() for m in MODALITIES}
    else:
        enc_seeds = enc_seed.spawn(len(MODALITIES))
        encoders = {m: init_net((pool.schema.dim(m), ENCODER_HIDDEN, pool.schema.embed_dim),
                                "selu", enc_seeds[m]) for m in MODALITIES}

    strategy = FusionStrategy(cell.strategy, embed_dim=pool.schema.embed_dim)
    model = init_fusion_model(strategy, init_seed, recon=cell.recon, lam=config.lam)
    opts = {name: OptimizerState(config.optimizer, config.fusion_lr, net)
            for name, net in model.parts()}
    enc_opts = {m: OptimizerState(config.optimizer, config.fusion_lr, encoders[m])
                for m in MODALITIES}

    policy = DropoutPolicy(rate=config.dropout_rate, enabled=cell.dropout)
    dropout_rng = np.random.default_rng(dropout_seed)
    alpha, times, events = pool.availability, pool.times, pool.events
    blocks = {m: pool.block(m) for m in MODALITIES}

    def embed(idx):
        """Encode the records idx; returns their (n, 4, embed) block and {modality: (rows, tape)}."""
        emb = np.zeros((len(idx), N_MODALITIES, pool.schema.embed_dim))
        tapes = {}
        for m in MODALITIES:
            rows = np.flatnonzero(alpha[idx, m])
            if rows.size:
                emb[rows, m], tape = encoders[m].forward(blocks[m][idx[rows]])
                tapes[m] = (rows, tape)
        return emb, tapes

    def step(idx):
        emb, tapes = embed(idx)
        mask = dropout_masks(alpha[idx], policy, dropout_rng)
        batch = FusionBatch(emb, alpha[idx], mask, times[idx], events[idx])
        total, _, _, grads, dx = batch_loss_and_grads(model, batch)
        enc_grads = {m: np.zeros_like(encoders[m].params) for m in MODALITIES if m not in tapes}
        for m, (rows, tape) in tapes.items():
            enc_grads[m], _ = encoders[m].backward(tape, dx[rows, m])
        for name, net in model.parts():
            optimizer_step(net, grads[name], opts[name])
        for m in MODALITIES:
            optimizer_step(encoders[m], enc_grads[m], enc_opts[m])
        return total

    nets = [net for _, net in model.parts()] + [encoders[m] for m in MODALITIES]
    trace = fit(nets, step, lambda idx: predict_risk(model, embed(idx)[0], alpha[idx]), times, events,
                epochs=config.fusion_epochs, batch_size=config.fusion_batch,
                patience=config.patience, val_fraction=config.val_fraction,
                split_seed=split_seed, shuffle_seed=shuffle_seed,
                context=f"joint training ({cell.label()})")
    return SurvivalPredictor(model, encoders, trace=trace)


def train_cell(train: Cohort, config: TrainConfig, cell: ExperimentCell,
               stage1_encoders: dict | None = None) -> SurvivalPredictor:
    if cell.mode == "two-stage":
        return train_two_stage(train, config, cell, stage1_encoders)
    return train_end_to_end(train, config, cell, stage1_encoders)


def evaluate(predictor: SurvivalPredictor, test: Cohort, scenario: MissingnessScenario,
             bootstrap: int, seed: int) -> EvalResult:
    """Scenario-masked test c-index with a bootstrap standard deviation."""
    applied = apply_scenario(test, scenario)
    n_dropped = len(test) - len(applied)
    risks = predictor.risk_scores(applied)
    times, events = applied.times, applied.events
    ci = concordance_index(risks, times, events)
    rng = np.random.default_rng(np.random.SeedSequence([_BOOT_SALT, seed]))
    stats = bootstrap_concordance(risks, times, events, bootstrap, rng)
    std = float(np.std(stats, ddof=1)) if stats.size >= 2 else None
    return EvalResult(float(ci), std, len(applied), n_dropped, int(stats.size))


# ── ablation grid ────────────────────────────────────────────────────────────

def table_cells(scenarios=("complete", "pathology-missing", "gene-pathology-missing")) -> list[ExperimentCell]:
    """The default two-stage ablation grid.

    Four concatenation rows and four tensor rows (stage 1 always on all
    data, stage 2 complete/all with and without dropout), and ten mean
    vector rows adding the complete-only stage 1 baseline and the
    reconstruction variants.
    """
    rows: list[tuple] = []
    for strat in ("concat", "tensor"):
        for s2 in DATA_REGIMES:
            for drop in (False, True):
                rows.append((strat, "all", s2, drop, False))
    rows.append(("mean", "complete", "complete", False, False))
    for s2 in DATA_REGIMES:
        rows.append(("mean", "all", s2, False, False))
    rows.append(("mean", "complete", "complete", True, False))
    for s2 in DATA_REGIMES:
        rows.append(("mean", "all", s2, True, False))
    for drop in (False, True):
        for s2 in DATA_REGIMES:
            rows.append(("mean", "all", s2, drop, True))
    cells = []
    for strat, s1, s2, drop, recon in rows:
        for scen in scenarios:
            scenario_by_name(scen)
            cells.append(ExperimentCell(strat, s1, s2, drop, recon, scen))
    return cells


@dataclass
class AblationReport:
    rows: list
    config: dict
    seed: int

    CSV_COLUMNS = ("strategy", "stage1_data", "stage2_data", "dropout", "recon",
                   "scenario", "cindex_mean", "cindex_std", "n_test", "params")

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([
                row["strategy"], row["stage1_data"], row["stage2_data"],
                int(row["dropout"]), int(row["recon"]), row["scenario"],
                "" if row["cindex_mean"] is None else repr(row["cindex_mean"]),
                "" if row["cindex_std"] is None else repr(row["cindex_std"]),
                row["n_test"] if row["n_test"] is not None else "",
                row["params"] if row["params"] is not None else "",
            ])
        return buf.getvalue()

    def to_json_text(self) -> str:
        return json.dumps({"config": self.config, "seed": self.seed, "rows": self.rows}, indent=2)

    def to_markdown_text(self) -> str:
        scenarios = []
        for row in self.rows:
            if row["scenario"] not in scenarios:
                scenarios.append(row["scenario"])
        grouped: dict[tuple, dict] = {}
        order = []
        for row in self.rows:
            key = (row["mode"], row["strategy"], row["stage1_data"], row["stage2_data"],
                   row["dropout"], row["recon"])
            if key not in grouped:
                grouped[key] = {}
                order.append(key)
            cell_text = "-"
            if row["cindex_mean"] is not None:
                cell_text = f"{row['cindex_mean']:.4f}"
                if row["cindex_std"] is not None:
                    cell_text += f" ± {row['cindex_std']:.3f}"
            elif row.get("error"):
                cell_text = "failed"
            grouped[key][row["scenario"]] = cell_text
        lines = ["| strategy | stage 1 | stage 2 | dropout | recon | " + " | ".join(scenarios) + " |",
                 "|---" * (5 + len(scenarios)) + "|"]
        for key in order:
            mode, strat, s1, s2, drop, recon = key
            name = strat if mode == "two-stage" else f"{strat} ({mode})"
            cells = [grouped[key].get(s, "-") for s in scenarios]
            lines.append(f"| {name} | {s1} | {s2} | {'yes' if drop else ''} | "
                         f"{'yes' if recon else ''} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"

    def write(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
            fh.write(self.to_csv_text())
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(self.to_json_text())
        with open(os.path.join(out_dir, "report.md"), "w", encoding="utf-8") as fh:
            fh.write(self.to_markdown_text())


def _train_key_job(train, config, cell, stage1_encoders):
    return cell.training_key(), train_cell(train, config, cell, stage1_encoders)


def run_ablation_grid(train: Cohort, test: Cohort, cells, config: TrainConfig,
                      workers: int = 1, out_dir=None,
                      progress=None) -> AblationReport:
    """Train and score every cell; write report files when out_dir is given.

    Duplicate cells are collapsed with a warning. Cells sharing a training
    key share one trained model; cells sharing a stage-1 regime share
    encoders. A failing cell is recorded in the report and does not stop
    the rest of the grid.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    deduped = []
    for cell in cells:
        if cell in deduped:
            log.warning("duplicate grid cell collapsed: %s (%s)", cell.label(), cell.scenario)
            continue
        deduped.append(cell)
    if not deduped:
        raise ConfigError("the grid has no cells")

    notify = progress or (lambda msg: None)

    stage1_sets: dict[str, dict] = {}
    for cell in deduped:
        if cell.mode in ("two-stage", "joint-finetune") and cell.stage1_data not in stage1_sets:
            notify(f"stage 1 encoders ({cell.stage1_data} data)")
            stage1_sets[cell.stage1_data] = train_stage1_encoders(train, config, cell.stage1_data)

    models: dict[tuple, SurvivalPredictor | Exception] = {}
    unique_keys, key_cells = [], {}
    for cell in deduped:
        key = cell.training_key()
        if key not in key_cells:
            unique_keys.append(key)
            key_cells[key] = cell

    def encoders_for(cell):
        if cell.mode in ("two-stage", "joint-finetune"):
            return stage1_sets[cell.stage1_data]
        return None

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {key: pool.submit(_train_key_job, train, config, key_cells[key],
                                        encoders_for(key_cells[key]))
                       for key in unique_keys}
            for key in unique_keys:
                try:
                    _, predictor = futures[key].result()
                    models[key] = predictor
                except (DataError, NumericalError, ConfigError) as e:
                    models[key] = e
                notify(f"trained {key_cells[key].label()}")
    else:
        for key in unique_keys:
            cell = key_cells[key]
            try:
                models[key] = train_cell(train, config, cell, encoders_for(cell))
            except (DataError, NumericalError, ConfigError) as e:
                models[key] = e
            notify(f"trained {cell.label()}")

    rows = []
    for cell in deduped:
        outcome = models[cell.training_key()]
        row = {"strategy": cell.strategy, "stage1_data": cell.stage1_data,
               "stage2_data": cell.stage2_data, "dropout": cell.dropout,
               "recon": cell.recon, "scenario": cell.scenario, "mode": cell.mode,
               "cindex_mean": None, "cindex_std": None, "n_test": None,
               "n_resamples": None, "params": None, "error": None}
        if isinstance(outcome, Exception):
            row["error"] = str(outcome)
        else:
            try:
                result = evaluate(outcome, test, scenario_by_name(cell.scenario),
                                  config.bootstrap, config.seed)
                row.update(cindex_mean=result.cindex, cindex_std=result.std,
                           n_test=result.n_test, n_resamples=result.n_resamples,
                           params=model_footprint(outcome.fusion).total_params)
            except (DataError, NumericalError) as e:
                row["error"] = str(e)
        rows.append(row)

    report = AblationReport(rows, config=asdict(config), seed=config.seed)
    if out_dir is not None:
        report.write(out_dir)
    return report


def default_synthetic_pair(seed: int, n_train: int = 500, n_test: int = 200,
                           missing: float = 0.3, censor: float = 0.2) -> tuple[Cohort, Cohort]:
    """The standard benchmark pair: partially missing train, complete test.

    The test cohort keeps all four modalities so that test-time missingness
    comes only from the evaluation scenario, while training data carries
    real gaps.
    """
    train = generate_synthetic(n_train, seed, missing_rate=(missing,) * 4, censor_rate=censor)
    test = generate_synthetic(n_test, seed + _TEST_SEED_OFFSET,
                              missing_rate=(0.0,) * 4, censor_rate=censor)
    return train, test
