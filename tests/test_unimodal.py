"""Stage-1 encoder training: isolation, determinism, and embedding-table semantics."""
import numpy as np
import pytest

from conftest import block_cohort, hide, with_columns
from mmsurv.cohort import (DEFAULT_SCHEMA, MODALITIES, ModalityId, ModalitySchema,
                           embedding_schema, generate_synthetic)
from mmsurv.config import TrainConfig
from mmsurv.errors import DataError
from mmsurv.fusion import SCORE_CHUNK
from mmsurv.nets import init_net
from mmsurv.unimodal import (ENCODER_HIDDEN, embedding_table, encode, init_encoder, load_unimodal,
                             save_unimodal, train_unimodal)

GENOMICS = ModalityId.GENOMICS
SMALL_CONFIG = TrainConfig(seed=7, stage1_epochs=20, patience=5)


def small_cohort(seed=0, n=150, missing=0.3):
    return generate_synthetic(n, seed, missing_rate=(missing,) * 4, censor_rate=0.2)


def nets_equal(a, b):
    return all(np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b)
               for la, lb in zip(a.layers, b.layers))


def stage1_risks(bundle, x):
    """The stage-1 risk score of each row of an (n, raw) block: the head on the embeddings."""
    return bundle.head.forward(bundle.encoder.forward(x)[0])[0][:, 0]


def test_trained_encoder_beats_chance_on_heldout_data():
    train = small_cohort(seed=3, n=300)
    test = generate_synthetic(150, 1_000_003, missing_rate=(0.0,) * 4, censor_rate=0.2)
    bundle = train_unimodal(train, GENOMICS, TrainConfig(seed=3, stage1_epochs=60))
    from mmsurv.survival import concordance_index
    risks = stage1_risks(bundle, test.block(GENOMICS))
    ci = concordance_index(risks, test.times, test.events)
    assert ci > 0.6


def test_training_is_deterministic():
    cohort = small_cohort(seed=5)
    a = train_unimodal(cohort, GENOMICS, SMALL_CONFIG)
    b = train_unimodal(cohort, GENOMICS, SMALL_CONFIG)
    assert nets_equal(a.encoder, b.encoder)
    assert nets_equal(a.head, b.head)
    assert a.trace.epochs == b.trace.epochs


def test_other_modalities_cannot_influence_training():
    # same genomics blocks, totally different everything else
    base = small_cohort(seed=9, n=120)
    rng = np.random.default_rng(0)
    scrambled = [base.block(m) if m == GENOMICS else
                 np.where(base.availability[:, m, None] == 1, rng.normal(0, 5, base.block(m).shape), 0.0)
                 for m in MODALITIES]
    a = train_unimodal(base, GENOMICS, SMALL_CONFIG)
    b = train_unimodal(with_columns(base, blocks=scrambled), GENOMICS, SMALL_CONFIG)
    assert nets_equal(a.encoder, b.encoder)


def test_training_pool_is_presence_filtered():
    # drop genomics from most records; training must still run on the rest
    base = small_cohort(seed=2, n=100, missing=0.0)
    hidden = np.zeros(base.availability.shape, dtype=bool)
    hidden[np.arange(len(base)) % 4 != 0, GENOMICS] = True
    cohort = hide(base, hidden)
    bundle = train_unimodal(cohort, GENOMICS, SMALL_CONFIG)
    assert bundle.encoder.input_dim == cohort.schema.dim(GENOMICS)


def test_absent_modality_raises():
    base = small_cohort(seed=2, n=40, missing=0.0)
    hidden = np.zeros(base.availability.shape, dtype=bool)
    hidden[:, GENOMICS] = True
    cohort = hide(base, hidden)
    with pytest.raises(DataError):
        train_unimodal(cohort, GENOMICS, SMALL_CONFIG)


def test_eventless_pool_raises():
    base = small_cohort(seed=2, n=30, missing=0.0)
    with pytest.raises(DataError):
        train_unimodal(with_columns(base, events=np.zeros(len(base))), GENOMICS, SMALL_CONFIG)


def test_early_stopping_can_end_before_the_epoch_budget():
    cohort = small_cohort(seed=4, n=120)
    config = TrainConfig(seed=4, stage1_epochs=80, patience=0)
    bundle = train_unimodal(cohort, GENOMICS, config)
    assert len(bundle.trace.epochs) < 80


def test_embedding_table_preserves_outcomes_and_availability():
    cohort = small_cohort(seed=6, n=60)
    encoders = {m: train_unimodal(cohort, m, SMALL_CONFIG) for m in MODALITIES}
    table = embedding_table({m: u.encoder for m, u in encoders.items()}, cohort)
    assert table.schema == embedding_schema(cohort.schema)
    assert table.ids.tolist() == cohort.ids.tolist()
    assert np.array_equal(table.times, cohort.times)
    assert np.array_equal(table.events, cohort.events)
    assert np.array_equal(table.availability, cohort.availability)
    for m in MODALITIES:
        carried = cohort.availability[:, m] == 1
        expected = encoders[m].encoder.forward(cohort.block(m)[carried])[0]
        assert np.array_equal(table.block(m)[carried], expected)
        assert not table.block(m)[~carried].any()


def test_embedding_table_is_filled_one_scoring_block_at_a_time():
    n = 2 * SCORE_CHUNK + 37
    cohort = block_cohort(DEFAULT_SCHEMA, n, seed=3)
    nets = {m: init_net((DEFAULT_SCHEMA.dim(m), ENCODER_HIDDEN, DEFAULT_SCHEMA.embed_dim), "selu", 10 + m)
            for m in MODALITIES}
    table = embedding_table(nets, cohort)
    got = np.stack([table.block(m) for m in MODALITIES], axis=1)
    blocks = np.concatenate([encode(nets, cohort, np.arange(s, min(s + SCORE_CHUNK, n)))
                             for s in range(0, n, SCORE_CHUNK)])
    assert np.array_equal(got.view(np.int64), blocks.view(np.int64))
    # one call over every record agrees to rounding: BLAS may pick another
    # kernel, and so another summation order, for a product of few rows
    np.testing.assert_allclose(got, encode(nets, cohort, np.arange(n)), rtol=1e-12, atol=1e-14)


def test_an_embedding_table_of_an_embedding_wide_cohort_starts_its_own_memo():
    # the table has its cohort's rows and schema but other blocks, so it must encode them itself
    schema = embedding_schema(DEFAULT_SCHEMA)
    cohort = block_cohort(schema, SCORE_CHUNK + 5, seed=4)
    nets = {m: init_encoder(schema, m, np.random.SeedSequence([20, int(m)])) for m in MODALITIES}
    table = embedding_table(nets, cohort)
    assert table.schema == cohort.schema and table.ids.tolist() == cohort.ids.tolist()
    assert table._memo == {} and table._memo is not cohort._memo
    again = embedding_table(nets, table)
    fresh = embedding_table(nets, with_columns(table))  # a checked copy, whose memo starts empty
    for m in MODALITIES:
        assert np.array_equal(again.block(m).view(np.int64), fresh.block(m).view(np.int64))
        assert not np.array_equal(again.block(m), table.block(m))


def test_embedding_table_requires_an_encoder_per_present_modality():
    cohort = small_cohort(seed=6, n=30)
    nets = {GENOMICS: train_unimodal(cohort, GENOMICS, SMALL_CONFIG).encoder}
    with pytest.raises(DataError, match="no encoder"):
        embedding_table(nets, cohort)


def test_embedding_table_rejects_mismatched_feature_width():
    cohort = small_cohort(seed=6, n=30)
    nets = {m: train_unimodal(cohort, m, SMALL_CONFIG).encoder for m in MODALITIES}
    other = generate_synthetic(10, 1, schema=ModalitySchema((4, 4, 4, 4), 8),
                               missing_rate=(0.0,) * 4)
    with pytest.raises(DataError, match="expects"):
        embedding_table(nets, other)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    cohort = small_cohort(seed=8, n=60)
    bundle = train_unimodal(cohort, GENOMICS, SMALL_CONFIG)
    path = tmp_path / "genomics.json"
    save_unimodal(bundle, str(path))
    loaded = load_unimodal(str(path))
    assert loaded.modality == GENOMICS
    assert nets_equal(loaded.encoder, bundle.encoder)
    assert nets_equal(loaded.head, bundle.head)
    x = cohort.block(GENOMICS)[cohort.availability[:, GENOMICS] == 1]
    assert np.array_equal(stage1_risks(loaded, x), stage1_risks(bundle, x))
