"""Checkpoint hardening: bit-exact round trips and single-byte damage.

Predictor and stage-1 checkpoints must come back bit for bit, whatever
finite doubles their networks hold. A file with one byte replaced, inserted
or deleted must either load or fail as a DataError, and ``mmsurv eval`` on
it must exit 0 or 2; an exception escaping ``main`` would reach the user as
a traceback.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import checkpoint_text
from mmsurv.cli import main
from mmsurv.cohort import (DEFAULT_SCHEMA, MODALITIES, ModalityId, ModalitySchema, generate_synthetic,
                           save_cohort, save_schema)
from mmsurv.errors import DataError
from mmsurv.fusion import FUSION_KINDS, FusionStrategy, fusion_to_dict, init_fusion_model
from mmsurv.nets import init_net, net_to_dict, pack
from mmsurv.pipeline import SurvivalPredictor, load_predictor, save_predictor
from mmsurv.unimodal import ENCODER_HIDDEN, UnimodalEncoder, load_unimodal, save_unimodal

SCHEMA = ModalitySchema(raw_dims=(5, 3, 6, 2), embed_dim=4)
SMALL = dict(embed_dim=4, extended_dim=8, reduced_dim=3,
             extender_hidden=6, reducer_hidden=5, head_hidden=5, recon_hidden=6)

finite = st.floats(allow_nan=False, allow_infinity=False)


def bits(nets) -> list:
    return [net.params.view(np.int64).tolist() for net in nets]


def make_predictor(kind, recon, with_encoders, seed) -> SurvivalPredictor:
    fusion = init_fusion_model(FusionStrategy(kind, **SMALL), seed, recon=recon, lam=0.7)
    encoders = None
    if with_encoders:
        encoders = {m: init_net((SCHEMA.dim(m), 3, SCHEMA.embed_dim), "selu", seed + int(m))
                    for m in MODALITIES}
    return SurvivalPredictor(fusion, encoders)


def predictor_nets(predictor) -> list:
    nets = [net for _, net in predictor.fusion.parts()]
    return nets + ([predictor.encoders[m] for m in MODALITIES] if predictor.encoders else [])


def fill(nets, values) -> None:
    """Write ``values``, repeated as needed, over every parameter of ``nets``."""
    params = pack(nets)
    params[...] = np.resize(np.asarray(values, dtype=np.float64), params.size)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(FUSION_KINDS), recon=st.booleans(), with_encoders=st.booleans(),
       seed=st.integers(0, 2**31 - 1), lam=st.floats(min_value=0.0, allow_infinity=False),
       values=st.lists(finite, min_size=1, max_size=40))
def test_predictor_checkpoints_round_trip_bit_exactly(tmp_path_factory, kind, recon, with_encoders,
                                                      seed, lam, values):
    predictor = make_predictor(kind, recon, with_encoders, seed)
    predictor.fusion.lam = lam
    fill(predictor_nets(predictor), values)
    path = str(tmp_path_factory.mktemp("ckpt") / "model.json")
    save_predictor(predictor, path)
    loaded = load_predictor(path)
    assert loaded.fusion.strategy == predictor.fusion.strategy
    assert np.float64(loaded.fusion.lam).view(np.int64) == np.float64(lam).view(np.int64)
    assert [name for name, _ in loaded.fusion.parts()] == [name for name, _ in predictor.fusion.parts()]
    assert (loaded.encoders is None) == (predictor.encoders is None)
    assert bits(predictor_nets(loaded)) == bits(predictor_nets(predictor))
    assert [n.dims for n in predictor_nets(loaded)] == [n.dims for n in predictor_nets(predictor)]


@settings(max_examples=40, deadline=None)
@given(modality=st.sampled_from(list(ModalityId)), hidden=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1), values=st.lists(finite, min_size=1, max_size=40))
def test_stage1_checkpoints_round_trip_bit_exactly(tmp_path_factory, modality, hidden, seed, values):
    encoder = init_net((SCHEMA.dim(modality), hidden, SCHEMA.embed_dim), "selu", seed)
    head = init_net((SCHEMA.embed_dim, 1), "identity", seed + 1)
    fill([encoder, head], values)
    path = str(tmp_path_factory.mktemp("ckpt") / "stage1.json")
    save_unimodal(UnimodalEncoder(modality, encoder, head), path)
    loaded = load_unimodal(path)
    assert loaded.modality == modality
    assert [n.dims for n in (loaded.encoder, loaded.head)] == [encoder.dims, head.dims]
    assert [[l.activation for l in n.layers] for n in (loaded.encoder, loaded.head)] == \
        [[l.activation for l in n.layers] for n in (encoder, head)]
    assert bits([loaded.encoder, loaded.head]) == bits([encoder, head])


def predictor_payload(predictor) -> dict:
    """The layout of a predictor checkpoint, as one ``json.dumps`` of it took it."""
    encoders = None
    if predictor.encoders is not None:
        encoders = {m.label: net_to_dict(net) for m, net in predictor.encoders.items()}
    return {"format": "predictor-v1", "fusion": fusion_to_dict(predictor.fusion), "encoders": encoders}


def default_predictor(kind, recon, with_encoders, seed) -> SurvivalPredictor:
    """A predictor at the package's default widths, as ``train-fuse`` builds it."""
    encoders = None
    if with_encoders:
        encoders = {m: init_net((DEFAULT_SCHEMA.dim(m), ENCODER_HIDDEN, DEFAULT_SCHEMA.embed_dim),
                                "selu", seed + int(m)) for m in MODALITIES}
    return SurvivalPredictor(init_fusion_model(FusionStrategy(kind), seed, recon=recon), encoders)


@pytest.mark.parametrize("with_encoders", [False, True], ids=["no-encoders", "encoders"])
@pytest.mark.parametrize("recon", [False, True], ids=["no-recon", "recon"])
@pytest.mark.parametrize("kind", FUSION_KINDS)
@pytest.mark.parametrize("make", [make_predictor, default_predictor], ids=["small", "default"])
def test_predictor_checkpoint_has_the_bytes_of_one_json_dumps(tmp_path, make, kind, recon,
                                                             with_encoders):
    predictor = make(kind, recon, with_encoders, 6)
    predictor.fusion.lam = 0.1 + 0.2
    path = tmp_path / "model.json"
    save_predictor(predictor, str(path))
    assert path.read_text(encoding="ascii") == checkpoint_text(predictor_payload(predictor))


@pytest.mark.parametrize("modality", list(ModalityId))
def test_stage1_checkpoint_has_the_bytes_of_one_json_dumps(tmp_path, modality):
    encoder = init_net((DEFAULT_SCHEMA.dim(modality), ENCODER_HIDDEN, DEFAULT_SCHEMA.embed_dim),
                       "selu", 7)
    head = init_net((DEFAULT_SCHEMA.embed_dim, 1), "identity", 8)
    path = tmp_path / "stage1.json"
    save_unimodal(UnimodalEncoder(modality, encoder, head), str(path))
    assert path.read_text(encoding="ascii") == checkpoint_text(
        {"format": "unimodal-v1", "modality": modality.label,
         "encoder": net_to_dict(encoder), "head": net_to_dict(head)})


def test_saving_the_largest_default_predictor_holds_about_one_slice(tmp_path):
    # tensor + recon with encoders, 867k parameters: one json.dumps of the
    # whole payload peaked at 63.5 MiB, the sliced writer at 2.2 MiB
    predictor = default_predictor("tensor", True, True, 3)
    tracemalloc.start()
    try:
        save_predictor(predictor, str(tmp_path / "model.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


# Bytes a one-byte edit draws from: JSON's own punctuation, digits, number
# parts, letters of its literals, whitespace, and a few that are not text.
EDIT_BYTES = b'0123456789.-+eE[]{}",: \nntfaINxz\x00\x7f\xc3\xff'
EDITS = 300


def edited(data: bytes, rng) -> bytes:
    """``data`` with one byte replaced, inserted or deleted, at a random place."""
    pos = int(rng.integers(0, len(data)))
    byte = bytes([EDIT_BYTES[int(rng.integers(0, len(EDIT_BYTES)))]])
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return data[:pos] + byte + data[pos + 1:]
    if kind == 1:
        return data[:pos] + byte + data[pos:]
    return data[:pos] + data[pos + 1:]


def fuzz(path, load, seed) -> tuple[int, int]:
    """Load EDITS one-byte edits of ``path``; returns (loaded, refused) counts."""
    rng = np.random.default_rng(seed)
    good = path.read_bytes()
    damaged = path.with_name("damaged" + path.suffix)
    outcome = [0, 0]
    for _ in range(EDITS):
        damaged.write_bytes(edited(good, rng))
        try:
            load(str(damaged))
            outcome[0] += 1
        except DataError:
            outcome[1] += 1
    return tuple(outcome)


@pytest.mark.parametrize("kind", ["mean", "tensor"])
def test_one_byte_edits_of_a_predictor_load_or_are_data_errors(tmp_path, kind):
    path = tmp_path / "model.json"
    save_predictor(make_predictor(kind, True, True, 3), str(path))
    loaded, refused = fuzz(path, load_predictor, seed=11)
    assert loaded > 0 and refused > 0  # the edits reach both outcomes


def test_one_byte_edits_of_a_stage1_checkpoint_load_or_are_data_errors(tmp_path):
    path = tmp_path / "genomics.json"
    encoder = init_net((SCHEMA.dim(ModalityId.GENOMICS), 3, SCHEMA.embed_dim), "selu", 5)
    save_unimodal(UnimodalEncoder(ModalityId.GENOMICS, encoder, init_net((4, 1), "identity", 6)),
                  str(path))
    loaded, refused = fuzz(path, load_unimodal, seed=12)
    assert loaded > 0 and refused > 0


def test_eval_on_one_byte_edits_of_a_predictor_exits_zero_or_two(tmp_path, capsys):
    cohort = generate_synthetic(40, 2, schema=SCHEMA, missing_rate=(0.2,) * 4)
    data = tmp_path / "test.csv"
    save_cohort(cohort, str(data))
    save_schema(cohort.schema, str(data) + ".schema")
    model = tmp_path / "model.json"
    save_predictor(make_predictor("tensor", True, True, 4), str(model))
    good, rng = model.read_bytes(), np.random.default_rng(13)
    damaged = tmp_path / "damaged.json"
    codes = []
    for _ in range(EDITS):
        damaged.write_bytes(edited(good, rng))
        codes.append(main(["eval", "--model", str(damaged), "--data", str(data), "--seed", "1",
                           "--bootstrap", "3", "--quiet"]))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (codes[-1] == 2) == ("data error: " in err)
    assert set(codes) == {0, 2}
