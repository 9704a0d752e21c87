"""Patient cohorts: columnar storage, file format, synthetic generation, scenarios.

A cohort holds one array per field: record ids, survival times, event
indicators (1 = event observed, 0 = censored), an (n, 4) availability
matrix, and one (n, width) float64 feature block per modality (radiology,
pathology, genomics, demographics), zero-filled in the rows where that
modality is absent. Every record keeps at least one modality. Absence is
real missingness: the zeros are storage, never imputed features, and the
availability matrix says which rows hold data. The columns are checked once,
vectorized, when a cohort is built, and are read-only afterwards, so every
cohort derived from them (a subset, a scenario view, an embedding table) is
an array operation.

Columns are the only way in: ``Cohort(schema, ids, times, events,
availability, blocks)`` is the one public constructor, so its vectorized
checks are the one definition of a valid record. A cohort derived from a
checked one is built by one unchecked builder, ``Cohort._derive``, because
its records pass those checks by construction: ``Cohort.subset`` takes
checked rows and refuses only a repeated index, which would repeat an id;
``apply_scenario`` hides modalities and drops the records left with none;
``unimodal.embedding_table`` keeps a checked cohort's rows, and its
embeddings are checked as network inputs when scored or trained on.
``Cohort.records`` builds read-only ``PatientRecord`` rows from the
checked columns, on demand, for callers that want them one at a time.

A cohort has one private memo slot, which ``unimodal.embedding_table``
fills with each modality's embedding column under one encoder. A column
depends only on the cohort's rows, availability and feature block and on
the encoder's bits, and the cohort's columns are read-only, so it stays
valid for as long as the cohort lives and the encoder is unchanged (the
key holds its parameter bytes). The slot is never pickled and never
carried into a subset or a table: each starts empty. A scenario view that
drops no record shares its cohort's slot, since it has the same rows and,
for every modality it leaves visible, the same availability column and
feature block, so every column it needs is one its cohort would build;
a view that drops records starts empty.

Files are plain CSV with one row per patient and a presence flag ahead of
each modality block, plus a small key=value sidecar declaring the block
widths. Floats are written with repr so a save/load cycle reproduces the
cohort exactly; absent blocks are empty cells, so a record must hold zeros
where a modality is absent. Each save also writes ``<csv>.cache`` through
``sidecar``: the columns parsing that CSV gives, in binary, with the CSV's
length and CRC-32. A load uses it only when it provably belongs to the CSV
and the schema asked for, and parses the CSV otherwise; the CSV stays the
data, and the cache is safe to delete.

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
import io
import json
import logging
import zlib
from array import array
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from . import sidecar
from .atomic import atomic_write
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
    """One row of a cohort: outcome plus per-modality feature views (None = absent).

    Unchecked; only ``Cohort.records`` builds these, from checked columns.
    """

    id: str
    time: float
    event: int
    features: tuple

    def has(self, modality: ModalityId) -> bool:
        return self.features[modality] is not None


def _row_error(ids, times, events, availability, blocks) -> str | None:
    """The message of the first record, in row order, that fails the record checks."""
    if not len(ids):
        return None
    checks = [(np.array([not isinstance(rid, str) for rid in ids.tolist()]),
               lambda rid: f"record id {rid!r} must be a str"),
              (ids == "", lambda rid: "record id must be non-empty"),
              (~np.isfinite(times) | (times <= 0),
               lambda rid: f"record {rid!r}: survival time must be finite and positive"),
              ((events != 0) & (events != 1), lambda rid: f"record {rid!r}: event must be 0 or 1")]
    bad_flag = (availability != 0) & (availability != 1)
    for m in MODALITIES:
        checks.append((bad_flag[:, m], lambda rid, m=m: f"record {rid!r}: {m.label}_present must be 0 or 1"))
        absent = availability[:, m] == 0
        if absent.any():   # one reduction over the block; gathering the absent rows would copy them
            checks.append((absent & blocks[m].any(axis=1), lambda rid, m=m:
                           f"record {rid!r}: {m.label} marked absent but has feature values"))
        checks.append((~np.isfinite(blocks[m]).all(axis=1),
                       lambda rid, m=m: f"record {rid!r}: {m.label} features must be a finite vector"))
    checks.append((~availability.any(axis=1), lambda rid: f"record {rid!r}: no modality available"))
    bad = np.column_stack([mask for mask, _ in checks])
    failing = bad.any(axis=1)
    if not failing.any():
        return None
    i = int(np.argmax(failing))
    return checks[int(np.argmax(bad[i]))][1](ids[i])


def _refuse_duplicates(ids: np.ndarray) -> None:
    """A DataError naming the first record, in row order, whose id an earlier record holds."""
    if len(set(ids.tolist())) < len(ids):
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        repeat = np.flatnonzero(first[inverse] != np.arange(len(ids)))[0]
        raise DataError(f"duplicate record id {ids[repeat]!r}")


class Cohort:
    """A schema, one read-only column per field, and (for synthetic data) the true risks.

    ``ids`` (object, each a ``str``), ``times`` and ``events`` (float64)
    are (n,) arrays, ``availability`` is the (n, 4) int64 matrix of 0/1
    flags, ``blocks`` lists one (n, width) float64 block per modality, zero
    in the rows where ``availability`` is 0, and ``ground_truth_risk`` is an
    (n,) array or None. Arrays of the right dtype are kept, not copied, and
    made read-only. Every record is checked, vectorized, by ``_row_error``, and
    ``_refuse_duplicates`` rejects a repeated id.
    """

    def __init__(self, schema: ModalitySchema, ids, times, events, availability, blocks,
                 ground_truth_risk=None):
        ids = np.asarray(ids, dtype=object)
        n = len(ids)
        times = np.asarray(times, dtype=np.float64)
        events = np.asarray(events, dtype=np.float64)
        flags = np.asarray(availability)
        blocks = tuple(np.asarray(b, dtype=np.float64) for b in blocks)
        if (ids.shape != (n,) or times.shape != (n,) or events.shape != (n,)
                or flags.shape != (n, N_MODALITIES) or len(blocks) != N_MODALITIES
                or any(b.shape != (n, schema.dim(m)) for m, b in zip(MODALITIES, blocks))):
            raise DataError(f"cohort columns must align with {n} records and the schema widths")
        if ground_truth_risk is not None:
            ground_truth_risk = np.asarray(ground_truth_risk, dtype=np.float64)
            if ground_truth_risk.shape != (n,):
                raise DataError("ground_truth_risk must align with records")
        error = _row_error(ids, times, events, flags, blocks)   # as given: the cast makes 1.5 a 1
        if error:
            raise DataError(error)
        _refuse_duplicates(ids)
        self._keep(schema, ids, times, events, flags.astype(np.int64, copy=False), blocks, ground_truth_risk)

    def _keep(self, schema, ids, times, events, availability, blocks, ground_truth_risk) -> None:
        """Make the columns read-only and hold them."""
        for column in [ids, times, events, availability, *blocks] + [ground_truth_risk] * (
                ground_truth_risk is not None):
            column.flags.writeable = False
        self.schema, self.ids, self.times, self.events = schema, ids, times, events
        self.availability, self.ground_truth_risk, self._blocks = availability, ground_truth_risk, blocks
        self._memo = {}   # {modality: (encoder key, embedding column)}, see the module docstring

    def __reduce__(self):
        return Cohort, (self.schema, self.ids, self.times, self.events, self.availability,
                        self._blocks, self.ground_truth_risk)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_events(self) -> int:
        return int(self.events.sum())

    def block(self, modality: ModalityId) -> np.ndarray:
        """(n, width) features of one modality, zero rows where it is absent."""
        return self._blocks[modality]

    @cached_property
    def records(self) -> tuple:
        """The rows as PatientRecords, built on first use; features are read-only views."""
        present = self.availability.astype(bool).tolist()
        return tuple(PatientRecord(rid, time, int(event),
                                   tuple(b[i] if p else None for b, p in zip(self._blocks, present[i])))
                     for i, (rid, time, event) in enumerate(zip(self.ids.tolist(), self.times.tolist(),
                                                                self.events.tolist())))

    def require_events(self, context: str) -> None:
        """Loss-bearing entry points call this; an eventless cohort is unusable."""
        if not len(self):
            raise DataError(f"{context}: cohort is empty")
        if self.n_events == 0:
            raise DataError(f"{context}: cohort has zero observed events")

    def subset(self, indices) -> "Cohort":
        """The records at ``indices``, unchecked but for a repeated index, which would repeat an id."""
        rows = np.asarray(indices, dtype=np.intp)
        if rows.ndim != 1:
            raise DataError(f"subset indices must be one-dimensional, got shape {rows.shape}")
        _refuse_duplicates(self.ids[rows])
        return self._derive(rows)

    def _derive(self, rows=slice(None), *, schema=None, availability=None, blocks=None) -> "Cohort":
        """The records at ``rows`` over a replacement schema, availability or blocks, with an empty memo.

        Nothing is checked: only derivations whose rows are valid by
        construction come this way (see the module docstring).
        """
        availability = self.availability if availability is None else availability
        blocks = self._blocks if blocks is None else blocks
        gt = None if self.ground_truth_risk is None else self.ground_truth_risk[rows]
        cohort = object.__new__(Cohort)
        cohort._keep(self.schema if schema is None else schema, self.ids[rows], self.times[rows],
                     self.events[rows], availability[rows], tuple(b[rows] for b in blocks), gt)
        return cohort


def complete_subset(cohort: Cohort) -> Cohort:
    """Records with all four modalities present."""
    return cohort.subset(np.flatnonzero(cohort.availability.all(axis=1)))


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
    the same as applying it once. The result is not checked again: its ids
    are a subset of unique ids, each hidden block is one broadcast zero
    (which holds no memory), and every record kept has a modality left, so
    it passes ``Cohort``'s checks by construction. A view that drops no
    record shares ``cohort``'s memo (see the module docstring).
    """
    availability = cohort.availability.copy()
    availability[:, sorted(scenario.drop)] = 0
    kept = np.flatnonzero(availability.any(axis=1))
    dropped = len(cohort) - len(kept)
    if dropped:
        log.info("scenario %s removed %d record(s) with no remaining modality", scenario.name, dropped)
    blocks = [np.broadcast_to(0.0, cohort.block(m).shape) if m in scenario.drop else cohort.block(m)
              for m in MODALITIES]
    out = cohort._derive(kept if dropped else slice(None), availability=availability, blocks=blocks)
    if not dropped:
        out._memo = cohort._memo
    out.require_events(f"scenario {scenario.name!r}")
    return out


# ── file format ──────────────────────────────────────────────────────────────

SCHEMA_KEYS = tuple(m.label + "_dim" for m in MODALITIES) + ("embedding_dim",)


def save_schema(schema: ModalitySchema, path: str) -> None:
    with atomic_write(path) as fh:
        for m in MODALITIES:
            fh.write(f"{m.label}_dim={schema.dim(m)}\n")
        fh.write(f"embedding_dim={schema.embed_dim}\n")


def load_schema(path: str) -> ModalitySchema:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    for lineno, line in enumerate(lines, start=1):
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
    for key in SCHEMA_KEYS:
        if values[key] < 1:
            raise DataError(f"{path}: {key} must be positive, got {values[key]}")
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
    """Write the cohort CSV to ``path`` as a whole, then its column cache to ``path`` + ".cache".

    The CSV bytes are those of ``csv.writer`` over the cells: ids are quoted
    by the csv module, floats are ``repr`` (never quoted) and lines end in
    ``\r\n``. Each row's block values are converted to floats one row at a
    time, so no whole block is ever a list of Python floats. The cache (see
    ``_write_cache``) records the CSV's length and CRC-32, taken as the rows
    are written. It is written second, so a save cut short between the two
    leaves the new CSV beside the old cache, which no longer matches it.
    """
    crc = size = 0
    with atomic_write(path, binary=True) as fh:
        for line in _csv_lines(cohort):
            data = line.encode("utf-8")
            crc, size = zlib.crc32(data, crc), size + len(data)
            fh.write(data)
    _write_cache(cohort, path, size, crc)


def _csv_lines(cohort: Cohort):
    """The CSV's lines, header first, each one string ending in ``\r\n``."""
    with_risk = cohort.ground_truth_risk is not None
    risks = cohort.ground_truth_risk.tolist() if with_risk else None
    present = cohort.availability.tolist()
    blocks = [cohort.block(m) for m in MODALITIES]
    absent = ["0" + "," * cohort.schema.dim(m) for m in MODALITIES]   # the flag, then empty cells
    quoted = io.StringIO()
    id_cell = csv.writer(quoted)   # its \r\n terminator is what makes it quote line breaks
    yield ",".join(_header(cohort.schema, with_risk)) + "\r\n"
    for i, (rid, time, event) in enumerate(zip(cohort.ids.tolist(), cohort.times.tolist(),
                                               cohort.events.tolist())):
        quoted.seek(0)
        quoted.truncate()
        id_cell.writerow((rid,))
        cells = [quoted.getvalue()[:-2], repr(time), str(int(event))]
        if with_risk:
            cells.append(repr(risks[i]))
        for m in MODALITIES:
            cells.append("1," + ",".join(map(repr, blocks[m][i].tolist())) if present[i][m]
                         else absent[m])
        yield ",".join(cells) + "\r\n"


def load_cohort(path: str, schema: ModalitySchema) -> Cohort:
    """Read a cohort CSV against a declared schema, through its column cache when that matches.

    The cache ``save_cohort`` leaves beside the CSV holds, bit for bit, the
    columns the parse would give; it is used only when ``_cached_columns``
    proves it belongs to this CSV and schema, and the CSV is parsed
    otherwise. The header must match the schema exactly; rows with a
    presence flag of 0 must leave that block empty. Parse errors name the
    offending row. Either way the columns go through ``Cohort`` and
    ``require_events``, and nothing is written.
    """
    columns = _cached_columns(path, schema)
    if columns is None:
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                columns = _read_columns(path, csv.reader(fh), schema)
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
        except csv.Error as e:
            raise DataError(f"{path}: unreadable CSV ({e})") from None
    if not len(columns[0]):
        raise DataError(f"{path}: cohort has no records")
    cohort = Cohort(schema, *columns)
    cohort.require_events(path)
    return cohort


_CACHE_FORMAT = "mmsurv-cohort-columns/1"
_WRITE_CHUNK = 1 << 16   # about the bytes per block write; 1 MiB chunks raised eval-large peak RSS 0.6 MB


def _write_cache(cohort: Cohort, path: str, csv_bytes: int, csv_crc: int) -> None:
    """Write the columns a parse of the cohort's CSV at ``path`` gives, as its ``sidecar``.

    The header holds the format tag, the CSV's byte length and CRC-32, the
    schema widths, the record count, whether a risk column follows and the
    ids, in sorted key order (``crc32`` first), as the format's first writer
    laid them out. The payload is times and events (``<f8``), availability
    (``uint8``), the four blocks and the risk column (``<f8``), each as the
    parse reads it: absent rows +0.0, flags and events 0/1, and every NaN
    risk the one ``float("nan")`` gives. Blocks go out in row chunks.
    """
    ids = cohort.ids.tolist()
    sidecar.write(path, json.dumps({"csv_bytes": csv_bytes, "csv_crc32": csv_crc,
                                    "embed_dim": cohort.schema.embed_dim, "format": _CACHE_FORMAT,
                                    "ids": ids, "n": len(ids), "raw_dims": list(cohort.schema.raw_dims),
                                    "with_risk": cohort.ground_truth_risk is not None}),
                  lambda: _cache_payload(cohort))


def _cache_payload(cohort: Cohort):
    """The cache payload in file order, as byte views."""
    def raw(column, dtype="<f8"):
        return np.ascontiguousarray(column, dtype=dtype).reshape(-1).view(np.uint8)

    present = cohort.availability != 0
    yield raw(cohort.times)
    yield raw(cohort.events == 1)
    yield raw(present, np.uint8)
    for m in MODALITIES:
        block, step = cohort.block(m), max(1, _WRITE_CHUNK // (8 * cohort.schema.dim(m)))
        for start in range(0, len(cohort), step):
            rows = slice(start, start + step)
            yield raw(np.where(present[rows, m, None], block[rows], 0.0))
    if cohort.ground_truth_risk is not None:
        risk = cohort.ground_truth_risk
        yield raw(np.where(np.isnan(risk), np.nan, risk))


def _cached_columns(path: str, schema: ModalitySchema) -> tuple | None:
    """The ``Cohort`` arguments in the cache beside ``path``, or None unless it provably matches.

    ``sidecar.read`` checks the cache against the CSV; its widths must also
    be ``schema``'s and its ids one ``str`` per record.
    """
    def layout(head):
        n, with_risk, ids = head.get("n"), head.get("with_risk"), head.get("ids")
        if ([head.get("raw_dims"), head.get("embed_dim")] != [list(schema.raw_dims), schema.embed_dim]
                or type(n) is not int or type(with_risk) is not bool or type(ids) is not list
                or len(ids) != n or not all(type(rid) is str for rid in ids)):
            return None
        return ([("<f8", (n,))] * 2 + [(np.uint8, (n, N_MODALITIES))]
                + [("<f8", (n, d)) for d in schema.raw_dims] + [("<f8", (n,))] * with_risk)

    cached = sidecar.read(path, _CACHE_FORMAT, "csv", layout)
    if cached is None:
        return None
    head, (times, events, present, *rest) = cached
    risk = rest.pop() if head["with_risk"] else None
    return np.array(head["ids"], dtype=object), times, events, present.astype(np.int64), rest, risk


def _read_columns(path: str, reader, schema: ModalitySchema) -> tuple:
    """Stream the rows into column buffers; returns the ``Cohort`` arguments after the schema.

    A row that does not parse is reported after any invalid record above
    it, which is the order the records would fail in one at a time.
    """
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty cohort file") from None
    with_risk = len(header) > 3 and header[3] == "true_risk"
    expected = _header(schema, with_risk)
    if header != expected:
        raise DataError(f"{path}: header does not match schema "
                        f"(expected {len(expected)} columns, found {len(header)})")
    layout, col = [], 4 if with_risk else 3   # (modality, flag column, block end, buffer, zeros)
    for m in MODALITIES:
        d = schema.dim(m)
        layout.append((m, col, col + 1 + d, array("d"), array("d", bytes(8 * d))))
        col += 1 + d
    ids, times, events, risks, present = [], array("d"), array("d"), array("d"), bytearray()

    def columns(n: int) -> tuple:
        return (np.array(ids[:n], dtype=object), np.frombuffer(times, count=n),
                np.frombuffer(events, count=n),
                np.frombuffer(present, dtype=np.uint8, count=n * N_MODALITIES)
                .reshape(n, N_MODALITIES).astype(np.int64),
                [np.frombuffer(buf, count=n * schema.dim(m)).reshape(n, schema.dim(m))
                 for m, _, _, buf, _ in layout],
                np.frombuffer(risks, count=n) if with_risk else None)

    n = 0
    for row in reader:
        if not row:
            continue
        rid, problem = row[0], None
        if len(row) != len(expected):
            problem = f"expected {len(expected)} cells, found {len(row)}"
        else:
            try:
                time, event = float(row[1]), int(row[2])
                risk = float(row[3]) if with_risk else 0.0
                for m, c, end, buf, zeros in layout:
                    flag = row[c]
                    if flag == "1":
                        buf.extend(map(float, row[c + 1:end]))
                    elif flag == "0":
                        if any(row[c + 1:end]):
                            problem = f"{m.label} marked absent but has feature values"
                            break
                        buf.extend(zeros)
                    else:
                        problem = f"{m.label}_present must be 0 or 1"
                        break
                    present.append(flag == "1")
            except ValueError:
                problem = "malformed numeric cell"
        if problem is not None:
            raise DataError(_row_error(*columns(n)[:5]) or f"{path}: record {rid!r}: {problem}")
        ids.append(rid)
        times.append(time)
        # any other integer fails the event check; it need not fit a float
        events.append(event if event in (0, 1) else -1)
        risks.append(risk)
        n += 1
    return columns(n)


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
    if seed < 0 or family_seed < 0:
        raise ConfigError("seeds must be non-negative")
    rates = np.asarray(missing_rate, dtype=np.float64)
    if rates.shape != (N_MODALITIES,):
        raise ConfigError(f"missing_rate must give {N_MODALITIES} probabilities")
    if not ((rates >= 0) & (rates < 1)).all():  # NaN too: it would redraw forever
        raise ConfigError("missing rates must lie in [0, 1)")
    if not 0 <= censor_rate < 1:
        raise ConfigError("censor_rate must lie in [0, 1)")

    w, views, maps = _generative_family(schema, family_seed)
    rng = np.random.default_rng(np.random.SeedSequence([_COHORT_SALT, seed]))

    z = rng.normal(size=(n, LATENT_DIM))
    risk = z @ w + 0.5 * np.tanh(z[:, 0] * z[:, 1])
    blocks = []
    for m in MODALITIES:  # noise + projection in the noise's buffer: the bits of projection + noise
        block = rng.normal(size=(n, schema.dim(m)))
        block *= FEATURE_NOISE
        block += z[:, views[m]] @ maps[m].T
        blocks.append(block)

    event_time = rng.exponential(scale=TIME_SCALE * np.exp(-risk))
    censored = rng.random(n) < censor_rate
    frac = rng.random(n)
    time = np.where(censored, event_time * np.maximum(frac, 1e-12), event_time)
    event = (~censored).astype(np.float64)

    if mnar:
        quantile = np.argsort(np.argsort(risk)) / max(n - 1, 1)

    width = max(4, len(str(n - 1)))
    ids, keep = [], np.empty((n, N_MODALITIES), dtype=bool)
    for i in range(n):
        p_drop = rates.copy()
        if mnar:
            p_drop[ModalityId.PATHOLOGY] = min(2.0 * rates[ModalityId.PATHOLOGY] * quantile[i], 0.95)
        while True:
            keep[i] = rng.random(N_MODALITIES) >= p_drop
            if keep[i].any():
                break
        ids.append(f"p{i:0{width}d}")

    for m in MODALITIES:
        blocks[m][~keep[:, m]] = 0.0
    cohort = Cohort(schema, ids, time, event, keep, blocks, ground_truth_risk=risk)
    cohort.require_events("synthetic generation (every record was censored, lower censor_rate)")
    return cohort
