"""Patient cohorts: data model, file format, synthetic generation, scenarios.

A cohort is a list of patient records. Each record carries a survival time,
an event indicator (1 = event observed, 0 = censored), and up to four
feature blocks, one per modality: radiology, pathology, genomics, and
demographics. A block is either a fixed-width float vector or absent; every
record keeps at least one block. Absence is real missingness, features are
never imputed at this layer.

Files are plain CSV with one row per patient and a presence flag ahead of
each modality block, plus a small key=value sidecar declaring the block
widths. Floats are written with repr so a save/load cycle reproduces the
cohort exactly.

The synthetic generator draws a shared low-dimensional latent state per
patient, exposes a different noisy linear view of it to each modality, and
converts a latent risk score into exponential survival times. Because each
modality sees only part of the latent state, no single modality suffices to
recover the risk, which is what makes fusion measurable downstream. All
draws come from seeded generators, so equal seeds give byte-identical
cohorts.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)


class ModalityId(IntEnum):
    RADIOLOGY = 0
    PATHOLOGY = 1
    GENOMICS = 2
    DEMOGRAPHICS = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "ModalityId":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ConfigError(f"unknown modality {name!r}, expected one of "
                              + ", ".join(m.label for m in cls)) from None


MODALITIES = tuple(ModalityId)
N_MODALITIES = len(MODALITIES)


@dataclass(frozen=True)
class ModalitySchema:
    """Declared feature width per modality plus the embedding width."""

    raw_dims: tuple[int, int, int, int]
    embed_dim: int = 32

    def __post_init__(self):
        if len(self.raw_dims) != N_MODALITIES:
            raise ConfigError(f"raw_dims must list {N_MODALITIES} widths")
        if any(d < 1 for d in self.raw_dims) or self.embed_dim < 1:
            raise ConfigError("feature and embedding widths must be positive")

    def dim(self, modality: ModalityId) -> int:
        return self.raw_dims[modality]


def embedding_schema(schema: ModalitySchema) -> ModalitySchema:
    """Schema of a cohort whose feature blocks are already embeddings."""
    e = schema.embed_dim
    return ModalitySchema(raw_dims=(e, e, e, e), embed_dim=e)


@dataclass(frozen=True, eq=False)
class PatientRecord:
    """One patient: outcome plus per-modality feature blocks (None = absent)."""

    id: str
    time: float
    event: int
    features: tuple

    def __post_init__(self):
        if not self.id:
            raise DataError("record id must be non-empty")
        if not np.isfinite(self.time) or self.time <= 0:
            raise DataError(f"record {self.id!r}: survival time must be finite and positive")
        if self.event not in (0, 1):
            raise DataError(f"record {self.id!r}: event must be 0 or 1")
        if len(self.features) != N_MODALITIES:
            raise DataError(f"record {self.id!r}: expected {N_MODALITIES} feature blocks")
        cleaned = []
        for m in MODALITIES:
            x = self.features[m]
            if x is None:
                cleaned.append(None)
                continue
            x = np.asarray(x, dtype=np.float64)
            if x.ndim != 1 or not np.isfinite(x).all():
                raise DataError(f"record {self.id!r}: {m.label} features must be a finite vector")
            cleaned.append(x)
        if all(x is None for x in cleaned):
            raise DataError(f"record {self.id!r}: no modality available")
        object.__setattr__(self, "features", tuple(cleaned))
        object.__setattr__(self, "availability",
                           np.array([0 if x is None else 1 for x in cleaned], dtype=np.int64))

    def has(self, modality: ModalityId) -> bool:
        return self.features[modality] is not None

    def is_complete(self) -> bool:
        return all(x is not None for x in self.features)


@dataclass(eq=False)
class Cohort:
    """A schema, a list of records, and (for synthetic data) the true risks."""

    schema: ModalitySchema
    records: list
    ground_truth_risk: np.ndarray | None = None

    def __post_init__(self):
        seen = set()
        for r in self.records:
            if r.id in seen:
                raise DataError(f"duplicate record id {r.id!r}")
            seen.add(r.id)
            for m in MODALITIES:
                x = r.features[m]
                if x is not None and x.shape[0] != self.schema.dim(m):
                    raise DataError(f"record {r.id!r}: {m.label} has {x.shape[0]} features, "
                                    f"schema declares {self.schema.dim(m)}")
        if self.ground_truth_risk is not None:
            self.ground_truth_risk = np.asarray(self.ground_truth_risk, dtype=np.float64)
            if self.ground_truth_risk.shape != (len(self.records),):
                raise DataError("ground_truth_risk must align with records")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def times(self) -> np.ndarray:
        return np.array([r.time for r in self.records], dtype=np.float64)

    @property
    def events(self) -> np.ndarray:
        return np.array([r.event for r in self.records], dtype=np.float64)

    @property
    def availability(self) -> np.ndarray:
        """(n, 4) matrix of 0/1 availability flags."""
        if not self.records:
            return np.zeros((0, N_MODALITIES), dtype=np.int64)
        return np.stack([r.availability for r in self.records])

    @property
    def n_events(self) -> int:
        return int(sum(r.event for r in self.records))

    def block(self, modality: ModalityId) -> np.ndarray:
        """(n, width) features of one modality, zero rows where it is absent."""
        out = np.zeros((len(self.records), self.schema.dim(modality)))
        for i, r in enumerate(self.records):
            if r.has(modality):
                out[i] = r.features[modality]
        return out

    def require_events(self, context: str) -> None:
        """Loss-bearing entry points call this; an eventless cohort is unusable."""
        if not self.records:
            raise DataError(f"{context}: cohort is empty")
        if self.n_events == 0:
            raise DataError(f"{context}: cohort has zero observed events")

    def subset(self, indices) -> "Cohort":
        indices = list(indices)
        gt = None if self.ground_truth_risk is None else self.ground_truth_risk[indices]
        return Cohort(self.schema, [self.records[i] for i in indices], gt)


def complete_subset(cohort: Cohort) -> Cohort:
    """Records with all four modalities present."""
    return cohort.subset([i for i, r in enumerate(cohort.records) if r.is_complete()])


def cohorts_equal(a: Cohort, b: Cohort) -> bool:
    """Field-for-field equality, exact on floats. Used by round-trip tests."""
    if a.schema != b.schema or len(a) != len(b):
        return False
    if (a.ground_truth_risk is None) != (b.ground_truth_risk is None):
        return False
    if a.ground_truth_risk is not None and not np.array_equal(a.ground_truth_risk, b.ground_truth_risk):
        return False
    for ra, rb in zip(a.records, b.records):
        if ra.id != rb.id or ra.time != rb.time or ra.event != rb.event:
            return False
        for m in MODALITIES:
            xa, xb = ra.features[m], rb.features[m]
            if (xa is None) != (xb is None):
                return False
            if xa is not None and not np.array_equal(xa, xb):
                return False
    return True


# ── missingness scenarios ────────────────────────────────────────────────────

@dataclass(frozen=True)
class MissingnessScenario:
    """A named set of modalities to hide at evaluation time."""

    name: str
    drop: frozenset

    def __post_init__(self):
        object.__setattr__(self, "drop", frozenset(ModalityId(m) for m in self.drop))
        if len(self.drop) >= N_MODALITIES:
            raise ConfigError(f"scenario {self.name!r} would drop every modality")


SCENARIOS = {
    "complete": MissingnessScenario("complete", frozenset()),
    "pathology-missing": MissingnessScenario("pathology-missing", frozenset({ModalityId.PATHOLOGY})),
    "gene-pathology-missing": MissingnessScenario(
        "gene-pathology-missing", frozenset({ModalityId.GENOMICS, ModalityId.PATHOLOGY})),
}


def scenario_by_name(name: str) -> MissingnessScenario:
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}, expected one of " + ", ".join(sorted(SCENARIOS)))
    return SCENARIOS[name]


def apply_scenario(cohort: Cohort, scenario: MissingnessScenario) -> Cohort:
    """Hide the scenario's modalities; drop records left with none.

    Already-absent modalities stay absent, so applying a scenario twice is
    the same as applying it once.
    """
    records, kept = [], []
    for i, r in enumerate(cohort.records):
        feats = tuple(None if m in scenario.drop else r.features[m] for m in MODALITIES)
        if all(x is None for x in feats):
            continue
        records.append(PatientRecord(r.id, r.time, r.event, feats))
        kept.append(i)
    dropped = len(cohort) - len(records)
    if dropped:
        log.info("scenario %s removed %d record(s) with no remaining modality", scenario.name, dropped)
    gt = None if cohort.ground_truth_risk is None else cohort.ground_truth_risk[kept]
    out = Cohort(cohort.schema, records, gt)
    out.require_events(f"scenario {scenario.name!r}")
    return out


# ── file format ──────────────────────────────────────────────────────────────

SCHEMA_KEYS = tuple(m.label + "_dim" for m in MODALITIES) + ("embedding_dim",)


def save_schema(schema: ModalitySchema, path: str) -> None:
    with open(path, "w") as fh:
        for m in MODALITIES:
            fh.write(f"{m.label}_dim={schema.dim(m)}\n")
        fh.write(f"embedding_dim={schema.embed_dim}\n")


def load_schema(path: str) -> ModalitySchema:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            try:
                values[key.strip()] = int(raw.strip())
            except ValueError:
                raise DataError(f"{path}:{lineno}: {key.strip()!r} must be an integer") from None
    missing = [k for k in SCHEMA_KEYS if k not in values]
    if missing:
        raise DataError(f"{path}: missing schema keys: {', '.join(missing)}")
    return ModalitySchema(raw_dims=tuple(values[m.label + "_dim"] for m in MODALITIES),
                          embed_dim=values["embedding_dim"])


def _header(schema: ModalitySchema, with_risk: bool) -> list[str]:
    cols = ["id", "time", "event"]
    if with_risk:
        cols.append("true_risk")
    for m in MODALITIES:
        cols.append(m.label + "_present")
        cols.extend(f"{m.label}_f{k}" for k in range(schema.dim(m)))
    return cols


def save_cohort(cohort: Cohort, path: str) -> None:
    with_risk = cohort.ground_truth_risk is not None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(cohort.schema, with_risk))
        for i, r in enumerate(cohort.records):
            row = [r.id, repr(float(r.time)), str(int(r.event))]
            if with_risk:
                row.append(repr(float(cohort.ground_truth_risk[i])))
            for m in MODALITIES:
                x = r.features[m]
                if x is None:
                    row.append("0")
                    row.extend([""] * cohort.schema.dim(m))
                else:
                    row.append("1")
                    row.extend(repr(float(v)) for v in x)
            writer.writerow(row)


def load_cohort(path: str, schema: ModalitySchema) -> Cohort:
    """Read a cohort CSV against a declared schema.

    The header must match the schema exactly; rows with a presence flag of 0
    must leave that block empty. Parse errors name the offending row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty cohort file") from None
        with_risk = len(header) > 3 and header[3] == "true_risk"
        expected = _header(schema, with_risk)
        if header != expected:
            raise DataError(f"{path}: header does not match schema "
                            f"(expected {len(expected)} columns, found {len(header)})")
        records, risks = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            rid = row[0] if row else f"line {lineno}"
            if len(row) != len(expected):
                raise DataError(f"{path}: record {rid!r}: expected {len(expected)} cells, found {len(row)}")
            try:
                time = float(row[1])
                event = int(row[2])
                col = 3
                if with_risk:
                    risks.append(float(row[col]))
                    col += 1
                feats = []
                for m in MODALITIES:
                    present = row[col]
                    block = row[col + 1:col + 1 + schema.dim(m)]
                    col += 1 + schema.dim(m)
                    if present == "1":
                        feats.append(np.array([float(v) for v in block], dtype=np.float64))
                    elif present == "0":
                        if any(cell != "" for cell in block):
                            raise DataError(f"{path}: record {rid!r}: {m.label} marked absent "
                                            "but has feature values")
                        feats.append(None)
                    else:
                        raise DataError(f"{path}: record {rid!r}: {m.label}_present must be 0 or 1")
            except ValueError:
                raise DataError(f"{path}: record {rid!r}: malformed numeric cell") from None
            records.append(PatientRecord(rid, time, event, tuple(feats)))
    if not records:
        raise DataError(f"{path}: cohort has no records")
    cohort = Cohort(schema, records, np.array(risks) if with_risk else None)
    cohort.require_events(path)
    return cohort


# ── synthetic cohorts ────────────────────────────────────────────────────────

LATENT_DIM = 8
LATENT_VIEW = 5          # latent coordinates visible to each modality
RISK_WEIGHT_NORM = 3.0   # spread of the linear risk term
FEATURE_NOISE = 0.3
TIME_SCALE = 365.0       # baseline survival scale, days

# Which latent coordinates each modality observes. Coordinates 0 and 1 carry
# the heaviest risk weights and the interaction term, and only pathology and
# genomics see them, so those two are the informative modalities. Dropping
# pathology alone still leaves every coordinate covered through the others;
# dropping pathology and genomics together hides 0 and 1 outright.
_MODALITY_VIEWS = (
    (2, 3, 4, 5, 6),     # radiology
    (0, 1, 2, 5, 6),     # pathology
    (0, 1, 3, 6, 7),     # genomics
    (2, 3, 4, 5, 7),     # demographics
)
_RISK_PROFILE = np.array([0.47, 0.47, 0.22, 0.22, 0.22, 0.22, 0.22, 0.22])

DEFAULT_SCHEMA = ModalitySchema(raw_dims=(16, 16, 80, 9), embed_dim=32)

_FAMILY_SALT = 0x5EED01
_COHORT_SALT = 0x5EED02


def _generative_family(schema: ModalitySchema, family_seed: int):
    """Fixed risk weights and per-modality view maps.

    Drawn from their own seed stream so that separately generated cohorts
    (train and test) share one underlying population.
    """
    rng = np.random.default_rng(np.random.SeedSequence([_FAMILY_SALT, family_seed]))
    signs = rng.choice([-1.0, 1.0], size=LATENT_DIM)
    w = _RISK_PROFILE * signs * np.exp(0.25 * rng.normal(size=LATENT_DIM))
    w *= RISK_WEIGHT_NORM / np.linalg.norm(w)
    views = [np.array(v) for v in _MODALITY_VIEWS]
    maps = [rng.normal(size=(schema.dim(m), LATENT_VIEW)) / np.sqrt(LATENT_VIEW) for m in MODALITIES]
    return w, views, maps


def generate_synthetic(n: int, seed: int, *, schema: ModalitySchema = DEFAULT_SCHEMA,
                       missing_rate=(0.3, 0.3, 0.3, 0.3), censor_rate: float = 0.2,
                       mnar: bool = False, family_seed: int = 0) -> Cohort:
    """Generate a synthetic multi-modal survival cohort.

    Each patient has a latent state z ~ N(0, I). Every modality observes a
    noisy linear map of its own subset of latent coordinates; pathology and
    genomics see the heavily weighted ones, so they are the informative
    views. True risk is w.z plus a mild interaction term; survival times
    are exponential with hazard proportional to exp(risk). Censoring
    replaces the time of a
    censored patient with a uniform draw below it. Missingness is
    independent per modality at ``missing_rate``, redrawn until at least one
    modality survives; with ``mnar=True`` pathology is dropped more often
    for high-risk patients instead of at random.
    """
    if n < 2:
        raise ConfigError("need at least two records")
    rates = np.asarray(missing_rate, dtype=np.float64)
    if rates.shape != (N_MODALITIES,):
        raise ConfigError(f"missing_rate must give {N_MODALITIES} probabilities")
    if (rates < 0).any() or (rates >= 1).any():
        raise ConfigError("missing rates must lie in [0, 1)")
    if not 0 <= censor_rate < 1:
        raise ConfigError("censor_rate must lie in [0, 1)")

    w, views, maps = _generative_family(schema, family_seed)
    rng = np.random.default_rng(np.random.SeedSequence([_COHORT_SALT, seed]))

    z = rng.normal(size=(n, LATENT_DIM))
    risk = z @ w + 0.5 * np.tanh(z[:, 0] * z[:, 1])
    blocks = [z[:, views[m]] @ maps[m].T + FEATURE_NOISE * rng.normal(size=(n, schema.dim(m)))
              for m in MODALITIES]

    event_time = rng.exponential(scale=TIME_SCALE * np.exp(-risk))
    censored = rng.random(n) < censor_rate
    frac = rng.random(n)
    time = np.where(censored, event_time * np.maximum(frac, 1e-12), event_time)
    event = (~censored).astype(np.int64)

    if mnar:
        quantile = np.argsort(np.argsort(risk)) / max(n - 1, 1)

    width = max(4, len(str(n - 1)))
    records = []
    for i in range(n):
        p_drop = rates.copy()
        if mnar:
            p_drop[ModalityId.PATHOLOGY] = min(2.0 * rates[ModalityId.PATHOLOGY] * quantile[i], 0.95)
        while True:
            keep = rng.random(N_MODALITIES) >= p_drop
            if keep.any():
                break
        feats = tuple(blocks[m][i] if keep[m] else None for m in MODALITIES)
        records.append(PatientRecord(f"p{i:0{width}d}", float(time[i]), int(event[i]), feats))

    cohort = Cohort(schema, records, ground_truth_risk=risk)
    cohort.require_events("synthetic generation (every record was censored, lower censor_rate)")
    return cohort


def split(cohort: Cohort, train_fraction: float, seed: int) -> tuple[Cohort, Cohort]:
    """Deterministic disjoint train/test split; both sides must keep events."""
    if not 0 < train_fraction < 1:
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    n = len(cohort)
    k = int(round(n * train_fraction))
    if k == 0 or k == n:
        raise ConfigError(f"train_fraction {train_fraction} leaves an empty side for n={n}")
    perm = np.random.default_rng(np.random.SeedSequence([0x5EED03, seed])).permutation(n)
    train_idx = sorted(perm[:k].tolist())
    test_idx = sorted(perm[k:].tolist())
    train, test = cohort.subset(train_idx), cohort.subset(test_idx)
    train.require_events("train split")
    test.require_events("test split")
    return train, test
