"""Whole-block scoring against the gather/scatter paths it replaced, bit for bit.

``encode`` writes a modality that every row of a block carries as a whole
output slot, and ``fuse`` reads such a modality as a view of its embedding
slot and, for mean vector, accumulates and divides in place. The references
below are the earlier versions, which gathered the carrying rows of every
modality and scattered the results back; each case must give the same bits.
"""
import numpy as np
import pytest

from conftest import block_cohort
from mmsurv.cohort import (DEFAULT_SCHEMA, MODALITIES, N_MODALITIES, Cohort, ModalityId,
                           apply_scenario, embedding_schema, generate_synthetic,
                           scenario_by_name)
from mmsurv.fusion import SCORE_CHUNK, FusionStrategy, fuse, init_fusion_model, tensor_product
from mmsurv import pipeline
from mmsurv.pipeline import score_records
from mmsurv.unimodal import encode, init_encoder


def encode_gathered(nets, cohort, idx):
    """Reference ``encode``: gather the rows that carry each modality, scatter the outputs."""
    out = np.zeros((len(idx), N_MODALITIES, cohort.schema.embed_dim))
    for m in ModalityId:
        rows = np.flatnonzero(cohort.availability[idx, m])
        if not rows.size:
            continue
        x = cohort.block(m)[idx[rows]]
        out[rows, m] = x if nets is None else nets[m].forward(x)[0]
    return out


def fuse_scattered(model, x, mask):
    """Reference mean and tensor ``fuse``: gathered body-net inputs, ``acc[rows] += y``, a fresh quotient."""
    s, visible = model.strategy, mask.astype(bool)
    if s.kind == "mean":
        acc = np.zeros((len(x), s.extended_dim))
    else:
        factors = np.zeros((len(x), N_MODALITIES, s.reduced_dim + 1))
        factors[:, :, s.reduced_dim] = 1.0
    for m in MODALITIES:
        rows = np.flatnonzero(visible[:, m])
        if rows.size:
            y = model.body[m].forward(x[rows, m])[0]
            if s.kind == "mean":
                acc[rows] += y
            else:
                factors[rows, m, :s.reduced_dim] = y
    if s.kind == "mean":
        return acc / visible.sum(axis=1)[:, None]
    return tensor_product(factors)


def score_scattered(model, nets, cohort, idx, chunk):
    """Reference ``score_records``: the reference encode and fuse, ``chunk`` records at a time."""
    out = np.empty(len(idx))
    for start in range(0, len(idx), chunk):
        rows = idx[start:start + chunk]
        h = fuse_scattered(model, encode_gathered(nets, cohort, rows), cohort.availability[rows])
        out[start:start + len(rows)] = model.hazard_head.forward(h)[0][:, 0]
    return out


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def encoders(seed=5):
    return {m: init_encoder(DEFAULT_SCHEMA, m, np.random.SeedSequence([seed, int(m)])) for m in MODALITIES}


def complete_cohort():
    return generate_synthetic(2 * SCORE_CHUNK + 37, 11, missing_rate=(0.0,) * 4)


def gappy_cohort():
    # genomics is absent from the whole first block, every other slot present with p = 0.7
    return block_cohort(DEFAULT_SCHEMA, 2 * SCORE_CHUNK + 37, 12)


def dropped_cohort():
    # records that carried only genomics or pathology are gone, so the rows are a subset
    cohort = generate_synthetic(2 * SCORE_CHUNK + 37, 13, missing_rate=(0.6,) * 4)
    applied = apply_scenario(cohort, scenario_by_name("gene-pathology-missing"))
    assert len(applied) < len(cohort)
    return applied


def swapped_range(n):
    """0..n-1 with two inner entries swapped: its endpoints and length are those of a range."""
    idx = np.arange(n)
    idx[[1, n - 2]] = idx[[n - 2, 1]]
    return idx


COHORTS = {"complete": complete_cohort, "gaps": gappy_cohort, "scenario-drop": dropped_cohort}
# besides full scoring blocks, blocks of a few rows, in which a gappy modality
# often covers every row and takes the whole-block path
CHUNKS = [SCORE_CHUNK, 3]


@pytest.mark.parametrize("name", sorted(COHORTS))
@pytest.mark.parametrize("with_nets", [True, False])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_encode_equals_the_gathered_reference(name, with_nets, chunk):
    cohort = COHORTS[name]()
    nets = encoders() if with_nets else None
    if nets is None:  # an embedding table whose blocks are strided views of one (n, 4, embed) array
        emb = encode(encoders(), cohort, np.arange(len(cohort)))
        cohort = Cohort(embedding_schema(DEFAULT_SCHEMA), cohort.ids, cohort.times, cohort.events,
                        cohort.availability, [emb[:, m] for m in MODALITIES])
    n = len(cohort)
    for idx in (np.arange(n), np.arange(SCORE_CHUNK, n), swapped_range(n),
                np.random.default_rng(0).permutation(n)):
        for start in range(0, n, chunk):
            rows = idx[start:start + chunk]
            assert same_bits(encode(nets, cohort, rows), encode_gathered(nets, cohort, rows))


def test_encode_tapes_keep_row_positions_on_the_whole_block_path():
    cohort, nets, tapes = complete_cohort(), encoders(), {}
    idx = np.arange(SCORE_CHUNK)
    encode(nets, cohort, idx, tapes)
    for m in MODALITIES:
        rows, tape = tapes[m]
        assert np.array_equal(rows, idx)
        assert same_bits(tape[0][0], cohort.block(m)[idx])


@pytest.mark.parametrize("name", sorted(COHORTS))
@pytest.mark.parametrize("kind", ["mean", "tensor"])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_scoring_equals_the_scattered_reference(name, kind, chunk, monkeypatch):
    monkeypatch.setattr(pipeline, "SCORE_CHUNK", chunk)
    cohort, nets = COHORTS[name](), encoders()
    model = init_fusion_model(FusionStrategy(kind, embed_dim=DEFAULT_SCHEMA.embed_dim), 3)
    n = len(cohort) if chunk == SCORE_CHUNK else 20 * chunk  # few rows: a tensor head pass costs the same
    for idx in (np.arange(n), swapped_range(n), np.random.default_rng(1).permutation(len(cohort))[:n]):
        assert same_bits(score_records(model, nets, cohort, idx),
                         score_scattered(model, nets, cohort, idx, chunk))


@pytest.mark.parametrize("kind", ["mean", "tensor"])
def test_fuse_of_a_complete_block_equals_the_scattered_reference(kind):
    rng = np.random.default_rng(4)
    model = init_fusion_model(FusionStrategy(kind, embed_dim=8, extended_dim=16, reduced_dim=3), 4)
    x = rng.normal(size=(50, N_MODALITIES, 8))
    one_each = np.eye(N_MODALITIES, dtype=bool)[rng.integers(0, N_MODALITIES, 50)]  # no empty row
    for mask in (np.ones((50, N_MODALITIES), dtype=np.int64),
                 (rng.random((50, N_MODALITIES)) < 0.6) | one_each):
        h, tape = fuse(model, x, mask)
        assert same_bits(h, fuse_scattered(model, x, mask))
        for m, (rows, _) in tape.net_tapes.items():
            assert np.array_equal(rows, np.flatnonzero(mask[:, m]))
