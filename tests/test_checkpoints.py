"""Checkpoint hardening: bit-exact round trips and single-byte damage.

Predictor and stage-1 checkpoints must come back bit for bit, whatever
finite doubles their networks hold. A file with one byte replaced, inserted
or deleted must either load or fail as a DataError, and ``mmsurv eval`` on
it must exit 0 or 2; an exception escaping ``main`` would reach the user as
a traceback. Every checkpoint save also leaves a binary sidecar, and a load
through it must give the parse's bits or the parse's ``DataError``, whatever
was done to either file.
"""
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import checkpoint_text
from mmsurv import nets as nets_module
from mmsurv.cli import main
from mmsurv.cohort import (DEFAULT_SCHEMA, MODALITIES, ModalityId, ModalitySchema, generate_synthetic,
                           save_cohort, save_schema)
from mmsurv.errors import ConfigError, DataError
from mmsurv.fusion import FUSION_KINDS, FusionStrategy, fusion_to_dict, init_fusion_model
from mmsurv.nets import init_net, net_to_dict, pack, read_json, write_json
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


@pytest.mark.parametrize("through", ["sidecar", "parse"])
def test_eval_refuses_activations_that_are_not_a_list_with_exit_two(tmp_path, monkeypatch, capsys, through):
    cohort = generate_synthetic(40, 2, schema=SCHEMA, missing_rate=(0.2,) * 4)
    data = tmp_path / "test.csv"
    save_cohort(cohort, str(data))
    save_schema(cohort.schema, str(data) + ".schema")
    fusion = fusion_to_dict(init_fusion_model(FusionStrategy("concat", **SMALL), 4))
    fusion["parts"]["hazard_head"]["activations"] = {"relu": "anything", "identity": 0}   # its two layers
    model = tmp_path / "model.json"
    write_json(str(model), {"format": "predictor-v1", "fusion": fusion, "encoders": None})
    if through == "parse":
        os.remove(f"{model}.cache")
    else:
        monkeypatch.setattr(nets_module, "_parse_json", no_parse)
    code = main(["eval", "--model", str(model), "--data", str(data), "--seed", "1", "--bootstrap", "3",
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert "hazard_head: not a consistent layer chain" in err and "are not a list" in err


# ── the checkpoint sidecar ───────────────────────────────────────────────────
#
# ``write_json`` leaves ``<json>.cache`` beside every checkpoint, and
# ``read_json`` answers from it only when it provably belongs to the JSON.
# A load through it must give what the parse gives, bit for bit, whatever
# happened to either file.

def outcome(load, path):
    """The parameter bits a load gives, in net order, or the message of its ``DataError``."""
    try:
        model = load(str(path))
    except DataError as e:
        return str(e)
    nets = (predictor_nets(model) if isinstance(model, SurvivalPredictor)
            else [model.encoder, model.head])
    return [(net.dims, [l.activation for l in net.layers], net.params.tobytes()) for net in nets]


def parse_outcome(load, path):
    """``outcome`` with the sidecar moved aside for the call."""
    cache = f"{path}.cache"
    os.rename(cache, cache + ".aside")
    try:
        return outcome(load, path)
    finally:
        os.rename(cache + ".aside", cache)


def no_parse(*args):
    raise AssertionError("the sidecar was not used")


def payload_bits(value):
    """A JSON payload with every float as its bits and every float array as the list the parse gives."""
    if isinstance(value, np.ndarray):
        return [payload_bits(x) for x in value.tolist()]
    if isinstance(value, dict):
        return [(key, payload_bits(item)) for key, item in value.items()]   # in key order
    if isinstance(value, list):
        return [payload_bits(item) for item in value]
    if isinstance(value, float):
        return ("float", np.float64(value).view(np.int64).item())
    return value


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(FUSION_KINDS), recon=st.booleans(), with_encoders=st.booleans(),
       seed=st.integers(0, 2**31 - 1), lam=st.floats(), values=st.lists(finite | st.floats(), min_size=1,
                                                                        max_size=40))
def test_a_sidecar_load_gives_the_bits_of_the_parse(tmp_path_factory, monkeypatch, kind, recon, with_encoders,
                                                    seed, lam, values):
    predictor = make_predictor(kind, recon, with_encoders, seed)
    predictor.fusion.lam = lam
    fill(predictor_nets(predictor), values)   # NaN and infinities too: both loads must refuse them
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_predictor(predictor, str(path))
    with monkeypatch.context() as patch:
        patch.setattr(nets_module, "_parse_json", no_parse)
        cached, cached_payload = outcome(load_predictor, path), payload_bits(read_json(str(path)))
    assert cached == parse_outcome(load_predictor, path)
    assert cached_payload == payload_bits(json.loads(path.read_text()))
    assert isinstance(cached, list) or not (np.isfinite(values).all() and np.isfinite(lam) and lam >= 0)


def test_a_sidecar_keeps_what_the_parse_would_give_of_any_payload(tmp_path, monkeypatch):
    nan = np.frombuffer(bytes.fromhex("0100000000f0ff7f"), "<f8")   # a NaN with a payload the parse drops
    payload = {"format": "outer", "lam": 0.1, "nan": float("nan"), "ints": [1, 2], "empty": np.empty(0),
               "odd": np.concatenate([nan, [-np.nan, np.inf, -0.0, 5e-324]]), "none": None,
               "nested": [{"w": np.arange(3.0)}, [np.ones(1)], "text é"]}
    write_json(str(tmp_path / "p.json"), payload)
    with monkeypatch.context() as patch:
        patch.setattr(nets_module, "_parse_json", no_parse)
        cached = read_json(str(tmp_path / "p.json"))
    assert payload_bits(cached) == payload_bits(json.loads((tmp_path / "p.json").read_text()))
    assert [type(cached[k]) for k in ("empty", "odd")] == [np.ndarray, np.ndarray]


@pytest.mark.parametrize("payload", [{"w": np.zeros((2, 2))}, {"w": np.arange(3)}, {"<f8": 3},
                                     {"a": {"<f8": [1.0]}}, {"w": np.zeros(2, dtype=np.float32)},
                                     {"w": np.zeros(2), 1: "one"}, {(1, 2): "pair"}, {True: "yes"}],
                         ids=["2-d", "int", "marker", "nested-marker", "float32", "int-key", "tuple-key",
                              "bool-key"])
def test_a_payload_no_checkpoint_holds_is_refused_and_leaves_the_files_as_they_were(tmp_path, payload):
    write_json(str(tmp_path / "p.json"), {"w": np.arange(3.0)})
    before = listing(tmp_path)
    with pytest.raises(ConfigError):
        write_json(str(tmp_path / "p.json"), payload)
    assert listing(tmp_path) == before and sorted(before) == ["p.json", "p.json.cache"]


@pytest.fixture(scope="module")
def stage1_pair(tmp_path_factory):
    """A small stage-1 checkpoint's JSON and sidecar bytes, and the outcome of its parse."""
    path = tmp_path_factory.mktemp("sidecar") / "s.json"
    encoder = init_net((SCHEMA.dim(ModalityId.PATHOLOGY), 2, SCHEMA.embed_dim), "selu", 5)
    save_unimodal(UnimodalEncoder(ModalityId.PATHOLOGY, encoder, init_net((4, 1), "identity", 6)), str(path))
    return path.read_bytes(), path.with_name("s.json.cache").read_bytes(), parse_outcome(load_unimodal, path)


def write_stage1_pair(tmp_path, json_bytes, cache_bytes):
    (tmp_path / "s.json").write_bytes(json_bytes)
    (tmp_path / "s.json.cache").write_bytes(cache_bytes)
    return tmp_path / "s.json"


def test_the_fixture_sidecar_is_used(tmp_path, monkeypatch, stage1_pair):
    json_bytes, cache_bytes, parsed = stage1_pair
    monkeypatch.setattr(nets_module, "_parse_json", no_parse)
    assert outcome(load_unimodal, write_stage1_pair(tmp_path, json_bytes, cache_bytes)) == parsed


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pos=st.integers(0, 10**6), byte=st.integers(0, 255))
def test_a_one_byte_edit_of_the_sidecar_never_changes_the_load(tmp_path, stage1_pair, pos, byte):
    json_bytes, cache_bytes, parsed = stage1_pair
    edited = bytearray(cache_bytes)
    edited[pos % len(edited)] = byte
    assert outcome(load_unimodal, write_stage1_pair(tmp_path, json_bytes, bytes(edited))) == parsed


def test_a_truncated_sidecar_never_changes_the_load(tmp_path, stage1_pair):
    json_bytes, cache_bytes, parsed = stage1_pair
    for end in range(len(cache_bytes)):
        assert outcome(load_unimodal, write_stage1_pair(tmp_path, json_bytes, cache_bytes[:end])) == parsed
    assert outcome(load_unimodal, write_stage1_pair(tmp_path, json_bytes, cache_bytes + b"\0")) == parsed


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pos=st.integers(0, 10**6), byte=st.integers(0, 255))
def test_a_one_byte_edit_of_the_json_loads_as_its_parse(tmp_path, stage1_pair, pos, byte):
    json_bytes, cache_bytes, _ = stage1_pair
    edited = bytearray(json_bytes)
    edited[pos % len(edited)] = byte
    path = write_stage1_pair(tmp_path, bytes(edited), cache_bytes)
    assert outcome(load_unimodal, path) == parse_outcome(load_unimodal, path)


def test_a_truncated_json_loads_as_its_parse(tmp_path, stage1_pair):
    json_bytes, cache_bytes, _ = stage1_pair
    for end in range(len(json_bytes)):
        path = write_stage1_pair(tmp_path, json_bytes[:end], cache_bytes)
        assert outcome(load_unimodal, path) == parse_outcome(load_unimodal, path)


def test_a_sidecar_that_is_not_a_regular_file_is_passed_over(tmp_path, stage1_pair):
    json_bytes, cache_bytes, parsed = stage1_pair
    path = write_stage1_pair(tmp_path, json_bytes, cache_bytes)
    os.unlink(f"{path}.cache")
    os.mkfifo(f"{path}.cache")   # opening a FIFO for reading would wait for a writer
    assert outcome(load_unimodal, path) == parsed
    os.unlink(f"{path}.cache")
    os.mkdir(f"{path}.cache")
    assert outcome(load_unimodal, path) == parsed


def listing(root):
    return {name: (root / name).read_bytes() if (root / name).is_file() else None
            for name in sorted(os.listdir(root))}


def test_a_checkpoint_load_never_writes(tmp_path):
    path = tmp_path / "model.json"
    save_predictor(make_predictor("mean", True, True, 2), str(path))
    before = listing(tmp_path)
    assert sorted(before) == ["model.json", "model.json.cache"]
    load_predictor(str(path))   # through the sidecar
    assert listing(tmp_path) == before
    path.write_bytes(path.read_bytes().replace(b'"lam": 0.7', b'"lam": -0.7'))   # the sidecar no longer matches
    before = listing(tmp_path)
    with pytest.raises(DataError, match="lam must be finite and non-negative"):
        load_predictor(str(path))
    assert listing(tmp_path) == before


def test_a_sidecar_load_of_the_largest_default_predictor_holds_the_model_about_twice(tmp_path):
    # tensor + recon with encoders, 867k parameters: the parse peaked at 45.6 MiB,
    # the sidecar's arrays and the networks built from them hold 6.6 MiB each
    predictor = default_predictor("tensor", True, True, 3)
    path = str(tmp_path / "model.json")
    save_predictor(predictor, path)
    model_bytes = sum(net.params.nbytes for net in predictor_nets(predictor))
    tracemalloc.start()
    try:
        loaded = load_predictor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits(predictor_nets(loaded)) == bits(predictor_nets(predictor))
    assert peak < 2 * model_bytes + 2**20
