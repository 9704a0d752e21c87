"""Training, evaluation, and the ablation grid.

``train_cell`` trains every mode with one fusion trainer. The two-stage
mode trains one encoder per modality on the Cox objective (or takes given
ones), freezes them, and hands the trainer the embedding table of its
training records (``unimodal.embedding_table``, memoized on the pool, so a
second training on the same records with the same encoders encodes
nothing), on which only the fusion networks learn;
``train_fusion_on_table`` hands it an embedding table directly. The joint
modes hand it the raw records, re-encode every batch, and update encoders
and fusion together, either from fresh encoders or starting from stage-1
encoders. ``unimodal.encode`` runs each encoder on the rows that carry its
modality, and stage 1 and fusion training both run the one loop
``config.fit``. ``score_records`` is the one scoring loop: scoring a
cohort and the validation scores of fusion training both take
``fusion.SCORE_CHUNK`` records at a time through encode, fuse and hazard
head.

Each mode can draw its training records from the complete-modality subset
("complete") or from every record ("all"), separately per stage. Together
with the fusion strategy, modality dropout, and the reconstruction loss
this spans the ablation grid; one grid cell is one trained configuration
evaluated under one test-time missingness scenario. Cells that share a
training configuration share the trained model, and cells that share a
stage-1 data regime share the same frozen encoders, bit for bit.

Evaluation applies the scenario mask to the test cohort, scores every
record with its remaining modalities (no dropout at test time), and
reports the c-index plus a bootstrap standard deviation over resampled
test sets. The encoders run once per test cohort, not once per scenario:
``evaluate`` scores the embedding table of the scenario view with the
fusion networks alone. A view that drops no record keeps the test
cohort's scoring blocks and each visible modality's rows, so it shares
the test cohort's memo (``cohort.apply_scenario``), and a later scenario
or predictor with the same encoder bits encodes nothing; the memo costs
4 x embed x 8 bytes per record (1 KiB at the defaults) while the cohort
lives. A view that drops records starts with its own memo and encodes
its own blocks. Either way every score has the bits encoding the scored
cohort block by block gives it.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .atomic import atomic_write
from .cohort import (MODALITIES, N_MODALITIES, Cohort, MissingnessScenario,
                     ModalityId, apply_scenario, complete_subset,
                     generate_synthetic, scenario_by_name)
from .config import TrainConfig, TrainingTrace, fit
from .errors import ConfigError, DataError, MmsurvError, NumericalError
from .fusion import (SCORE_CHUNK, FusionModel, FusionStrategy, batch_loss_and_grads, dropout_masks,
                     fuse, fusion_from_dict, fusion_to_dict, init_fusion_model, model_footprint)
from .nets import check_format, net_from_dict, net_to_dict, read_json, write_json
from .survival import bootstrap_concordance, concordance_index, rank_plan
from .unimodal import check_encoders, embedding_table, encode, init_encoder, train_unimodal

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
        scenario_by_name(self.scenario)

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

    def risk_scores(self, cohort: Cohort) -> np.ndarray:
        check_encoders(self.encoders, cohort)
        return score_records(self.fusion, self.encoders, cohort, np.arange(len(cohort)))


def score_records(fusion: FusionModel, encoders, cohort: Cohort, idx: np.ndarray) -> np.ndarray:
    """Hazard score of each record ``idx`` of ``cohort``, in ``idx`` order.

    Encodes (``encoders`` None: the blocks are embeddings), fuses and runs
    the hazard head on SCORE_CHUNK records at a time, writing each block's
    scores into the one output vector, so a pass holds one block's
    activations whatever ``len(idx)``.
    """
    out = np.empty(len(idx))
    for start in range(0, len(idx), SCORE_CHUNK):
        rows = idx[start:start + SCORE_CHUNK]
        # one expression: no name holds a block's fused rows or tapes into the next block
        out[start:start + len(rows)] = fusion.hazard_head.forward(
            fuse(fusion, encode(encoders, cohort, rows), cohort.availability[rows])[0])[0][:, 0]
    return out


PREDICTOR_FORMAT = "predictor-v1"


def save_predictor(predictor: SurvivalPredictor, path: str) -> None:
    """One self-contained JSON file: fusion networks plus any encoders."""
    encoders = None
    if predictor.encoders is not None:
        encoders = {m.label: net_to_dict(net) for m, net in predictor.encoders.items()}
    payload = {"format": PREDICTOR_FORMAT,
               "fusion": fusion_to_dict(predictor.fusion),
               "encoders": encoders}
    write_json(path, payload)


def load_predictor(path: str) -> SurvivalPredictor:
    """Read a predictor checkpoint; anything malformed or mismatched is a DataError."""
    payload = read_json(path)
    check_format(payload, PREDICTOR_FORMAT, path, "predictor")
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


def _fit_fusion(pool: Cohort, config: TrainConfig, cell: ExperimentCell, joint: bool = False,
                start: dict | None = None) -> SurvivalPredictor:
    """Train fusion networks on ``pool``: the one fusion trainer behind every mode.

    Without ``joint`` the pool is an embedding table and only the fusion
    networks learn. With it the pool holds raw features: every batch is
    re-encoded and the encoders learn along with fusion, starting from
    copies of the ``start`` encoders ({modality: UnimodalEncoder}; a
    modality the pool carries and ``start`` lacks is a DataError) or, when
    there are none, from fresh ones drawn from the first seed stream.
    """
    context = f"{'joint' if joint else 'fusion'} training ({cell.label()})"
    pool.require_events(context)
    salt, streams = (_JOINT_SALT, 5) if joint else (_FIT_SALT, 4)
    seeds = np.random.SeedSequence([salt, config.seed]).spawn(streams)
    init_seed, split_seed, shuffle_seed, dropout_seed = seeds[-4:]
    encoders = None  # the table's blocks are the embeddings
    if joint and start is not None:
        encoders = {m: start[m].encoder.copy() for m in MODALITIES if m in start}
    elif joint:
        encoders = {m: init_encoder(pool.schema, m, s)
                    for m, s in zip(MODALITIES, seeds[0].spawn(N_MODALITIES))}
    check_encoders(encoders, pool)
    learning_encoders = encoders or {}
    strategy = FusionStrategy(cell.strategy, embed_dim=pool.schema.embed_dim)
    model = init_fusion_model(strategy, init_seed, recon=cell.recon, lam=config.lam)
    # fit packs the fusion parts, then the learning encoders; a step writes each one's slice
    nets = [net for _, net in model.parts()] + list(learning_encoders.values())
    bounds = np.cumsum([net.params.size for net in nets])[-len(learning_encoders) - 1:].tolist()
    fusion_part = slice(bounds[0])
    encoder_parts = dict(zip(learning_encoders, map(slice, bounds, bounds[1:])))
    rate = config.dropout_rate if cell.dropout else 0.0
    dropout_rng = np.random.default_rng(dropout_seed)
    alpha, times, events = pool.availability, pool.times, pool.events

    def step(idx, grad):
        tapes = {}
        emb = encode(encoders, pool, idx, tapes)
        mask = dropout_masks(alpha[idx], rate, dropout_rng)
        total, _, _, _, dx = batch_loss_and_grads(model, emb, alpha[idx], mask, times[idx], events[idx],
                                                  grad[fusion_part])
        for m, net in learning_encoders.items():
            if m in tapes:
                rows, tape = tapes[m]
                net.backward(tape, dx[rows, m], grad[encoder_parts[m]])
            else:  # an encoder that saw no rows still steps, on zeros
                grad[encoder_parts[m]] = 0.0
        return total

    trace = fit(nets, step, partial(score_records, model, encoders, pool), times, events,
                optimizer=config.optimizer, lr=config.fusion_lr, epochs=config.fusion_epochs,
                batch_size=config.fusion_batch, patience=config.patience,
                val_fraction=config.val_fraction, split_seed=split_seed,
                shuffle_seed=shuffle_seed, context=context)
    return SurvivalPredictor(model, encoders, trace=trace)


def train_fusion_on_table(table: Cohort, config: TrainConfig, cell: ExperimentCell) -> SurvivalPredictor:
    """Train only the fusion stage on an already-embedded cohort, on the cell's stage-2 records."""
    pool = _regime_pool(table, cell.stage2_data, f"stage 2 ({cell.stage2_data} data)")
    return _fit_fusion(pool, config, cell)


def train_cell(train: Cohort, config: TrainConfig, cell: ExperimentCell,
               stage1_encoders: dict | None = None) -> SurvivalPredictor:
    """Train one grid configuration on a raw cohort, in the cell's mode.

    Two-stage uses ``stage1_encoders`` as they are (or trains them on the
    cell's stage-1 records), freezes them, and fits fusion on the embedding
    table of the stage-2 records. Joint-finetune starts from copies of
    ``stage1_encoders`` and joint-scratch from fresh encoders; both update
    encoders and fusion together on the stage-2 records.
    """
    if cell.mode == "joint-finetune" and stage1_encoders is None:
        raise ConfigError("joint-finetune requires trained stage-1 encoders")
    train.require_events(f"{cell.mode} training")
    if cell.mode != "two-stage":
        pool = _regime_pool(train, cell.stage2_data, f"joint training ({cell.stage2_data} data)")
        start = stage1_encoders if cell.mode == "joint-finetune" else None
        return _fit_fusion(pool, config, cell, joint=True, start=start)
    stage1 = stage1_encoders or train_stage1_encoders(train, config, cell.stage1_data)
    pool = _regime_pool(train, cell.stage2_data, f"stage 2 ({cell.stage2_data} data)")
    encoders = {m: u.encoder for m, u in stage1.items()}
    predictor = _fit_fusion(embedding_table(encoders, pool), config, cell)
    predictor.encoders = encoders
    return predictor


def evaluate(predictor: SurvivalPredictor, test: Cohort, scenario: MissingnessScenario,
             bootstrap: int, seed: int) -> EvalResult:
    """Scenario-masked test c-index with a bootstrap standard deviation."""
    # a view that drops no record shares test's memo, so it encodes only what test has not
    table = embedding_table(predictor.encoders, apply_scenario(test, scenario))
    risks = SurvivalPredictor(predictor.fusion, None).risk_scores(table)
    times, events = table.times, table.events
    plan = rank_plan(risks, times, events)  # one plan for the point c-index and the resamples
    ci = concordance_index(risks, times, events, plan)
    rng = np.random.default_rng(np.random.SeedSequence([_BOOT_SALT, seed]))
    stats = bootstrap_concordance(plan, bootstrap, rng)
    std = float(np.std(stats, ddof=1)) if stats.size >= 2 else None
    return EvalResult(float(ci), std, len(table), len(test) - len(table), int(stats.size))


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
        for name, text in (("report.csv", self.to_csv_text), ("report.json", self.to_json_text),
                           ("report.md", self.to_markdown_text)):
            with atomic_write(os.path.join(out_dir, name)) as fh:
                fh.write(text())


def _outcome(fn, *args):
    """``fn(*args)``, or the error that stopped it; an error among ``args`` is passed on as is."""
    failed = [a for a in args if isinstance(a, MmsurvError)]
    if failed:
        return failed[0]
    try:
        return fn(*args)
    except (DataError, NumericalError, ConfigError) as e:
        return e


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

    stage1_sets: dict[str, dict | MmsurvError] = {}
    for cell in deduped:
        if cell.mode != "joint-scratch" and cell.stage1_data not in stage1_sets:
            notify(f"stage 1 encoders ({cell.stage1_data} data)")
            stage1_sets[cell.stage1_data] = _outcome(train_stage1_encoders, train, config,
                                                     cell.stage1_data)

    jobs: dict[tuple, ExperimentCell] = {}  # the first cell of each training key
    for cell in deduped:
        jobs.setdefault(cell.training_key(), cell)
    stage1 = [None if c.mode == "joint-scratch" else stage1_sets[c.stage1_data] for c in jobs.values()]
    train_job = partial(_outcome, train_cell, train, config)
    models: dict[tuple, SurvivalPredictor | MmsurvError] = {}
    executor = nullcontext()
    workers = min(workers, len(jobs))  # a pool starts all its processes at the first submit
    if workers > 1:  # imported here: the pool's modules add 10-15 ms to every import of mmsurv
        from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(workers)
    with executor as pool:
        outcomes = (pool.map if pool else map)(train_job, jobs.values(), stage1)
        for (key, cell), outcome in zip(jobs.items(), outcomes):
            models[key] = outcome
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
