"""Interrupted writes: a save that fails part-way leaves the target as it was.

Every file writer (predictor and stage-1 checkpoints, cohort CSV and its
column cache, schema sidecar, training trace, ``eval --out`` JSON and the
three ablation report files) writes through ``atomic.atomic_write``. The
tests here make the file object raise half-way through the characters (or
bytes) of a save, once the first half is written, and check that every file
under the test directory still holds its old bytes, or is still absent if it
was new, and that no temporary file is left beside it. The report writer's
target is a directory holding ``report.csv``, ``report.json`` and
``report.md``; its failure comes while the CSV is written, so none of the
three changes. A cohort or checkpoint save writes the CSV or JSON and then
its sidecar; a failure in the sidecar leaves the new file beside the old
sidecar, which the next load must ignore.
"""
import math
import os
import shutil

import pytest

from conftest import cohorts_equal
from mmsurv import atomic
from mmsurv.cli import _write_trace, main
from mmsurv.cohort import (DEFAULT_SCHEMA, ModalityId, ModalitySchema, generate_synthetic,
                           load_cohort, save_cohort, save_schema)
from mmsurv.config import TrainingTrace
from mmsurv.fusion import FusionStrategy, init_fusion_model
from mmsurv.nets import init_net
from mmsurv.pipeline import AblationReport, SurvivalPredictor, load_predictor, save_predictor
from mmsurv.unimodal import UnimodalEncoder, init_encoder, load_unimodal, save_unimodal


def write_predictor(path, seed):
    save_predictor(SurvivalPredictor(init_fusion_model(FusionStrategy("tensor"), seed, recon=True)), path)


def write_stage1(path, seed):
    save_unimodal(UnimodalEncoder(ModalityId.GENOMICS, init_net((80, 64, 32), "selu", seed),
                                  init_net((32, 1), "identity", seed)), path)


def write_cohort(path, seed):
    save_cohort(generate_synthetic(30, seed=seed), path)


def write_schema(path, seed):
    save_schema(ModalitySchema(raw_dims=(seed + 1, 2, 3, 4)), path)


def write_trace(path, seed):
    trace = TrainingTrace()
    for epoch in range(1, 5):
        trace.log(epoch, 1.0 / (epoch + seed), None if epoch == 1 else 0.5 + 0.01 * seed)
    _write_trace(trace, path)


EVAL_INPUTS = []  # the predictor and cohort ``write_eval`` scores, set once per module


@pytest.fixture(scope="module", autouse=True)
def eval_inputs(tmp_path_factory):
    """A predictor with encoders and a small cohort, kept outside each test's directory."""
    root = tmp_path_factory.mktemp("eval_inputs")
    encoders = {m: init_encoder(DEFAULT_SCHEMA, m, 10 + m) for m in ModalityId}
    save_predictor(SurvivalPredictor(init_fusion_model(FusionStrategy("concat"), 0), encoders),
                   str(root / "model.json"))
    save_cohort(generate_synthetic(40, seed=3, missing_rate=(0.0,) * 4), str(root / "test.csv"))
    save_schema(DEFAULT_SCHEMA, str(root / "test.csv.schema"))
    EVAL_INPUTS[:] = [root / "model.json", root / "test.csv"]


def write_eval(path, seed):
    model, data = EVAL_INPUTS
    assert main(["eval", "--model", str(model), "--data", str(data), "--seed", str(seed),
                 "--bootstrap", "5", "--out", path]) == 0


def write_report(path, seed):
    rows = [{"strategy": "mean", "stage1_data": "all", "stage2_data": "all", "dropout": False,
             "recon": bool(k % 2), "scenario": "complete", "mode": "two-stage",
             "cindex_mean": 0.6 + 0.01 * (seed + k), "cindex_std": 0.02, "n_test": 80,
             "n_resamples": 10, "params": 1000 + k, "error": None} for k in range(4)]
    AblationReport(rows, config={"seed": seed}, seed=seed).write(path)


WRITERS = {"predictor": write_predictor, "stage1": write_stage1, "cohort": write_cohort,
           "schema": write_schema, "trace": write_trace, "eval": write_eval,
           "report": write_report}


def files(root) -> dict:
    """Every file under ``root``, by path relative to it, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class FailingFile:
    """A text or binary file whose ``write`` raises ``error`` once ``budget`` characters have gone through.

    The write that would cross the budget first puts out its text up to the
    budget, as a write cut short would.
    """

    def __init__(self, fh, budget, error):
        self.fh, self.left, self.error, self.chars = fh, budget, error, 0

    def write(self, text):
        if len(text) > self.left:
            self.fh.write(text[:self.left])
            raise self.error
        self.left -= len(text)
        self.chars += len(text)
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def count_chars(monkeypatch, writer, path) -> int:
    """Characters ``writer`` puts into the first file it opens."""
    files = []

    def counting_open(*args, **kwargs):
        files.append(FailingFile(open(*args, **kwargs), math.inf, None))
        return files[-1]

    monkeypatch.setattr(atomic, "open", counting_open, raising=False)
    writer(path, 1)
    monkeypatch.undo()
    return files[0].chars


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
@pytest.mark.parametrize("existing", [True, False], ids=["replace", "new"])
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_save_that_fails_part_way_leaves_the_target_as_it_was(tmp_path, monkeypatch, name,
                                                                existing, error):
    writer, path = WRITERS[name], str(tmp_path / "out")
    (tmp_path / "probe").mkdir()
    chars = count_chars(monkeypatch, writer, str(tmp_path / "probe" / "out"))
    shutil.rmtree(tmp_path / "probe")
    assert chars >= 2   # the failure below comes half-way through the first file, before its end
    if existing:
        writer(path, 2)
    old = files(tmp_path)
    assert bool(old) == existing
    monkeypatch.setattr(atomic, "open", lambda *a, **k: FailingFile(open(*a, **k), chars // 2, error()),
                        raising=False)
    with pytest.raises(error):
        writer(path, 1)
    monkeypatch.undo()
    assert files(tmp_path) == old


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_save_replaces_the_target_and_leaves_only_it(tmp_path, name):
    path = tmp_path / "out"
    WRITERS[name](str(path), 2)
    first = files(tmp_path)
    WRITERS[name](str(path), 3)
    second = files(tmp_path)
    # a cohort CSV or a checkpoint, and its sidecar
    expected = {"report": ["out/report.csv", "out/report.json", "out/report.md"], "cohort": ["out", "out.cache"],
                "predictor": ["out", "out.cache"], "stage1": ["out", "out.cache"]}.get(name, ["out"])
    assert sorted(first) == sorted(second) == expected
    assert all(second[f] != first[f] for f in expected)
    # the mode is open()'s under the umask, as a direct write's would be
    plain = tmp_path / "plain"
    plain.write_text("")
    assert all(os.stat(tmp_path / f).st_mode == os.stat(plain).st_mode for f in expected)


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_a_cache_write_that_fails_part_way_leaves_a_stale_cache_the_next_load_ignores(tmp_path, monkeypatch,
                                                                                      error):
    path = str(tmp_path / "out")
    write_cohort(path, 2)
    old_cache = (tmp_path / "out.cache").read_bytes()

    def failing_cache_open(name, *args, **kwargs):
        fh = open(name, *args, **kwargs)
        return FailingFile(fh, len(old_cache) // 2, error()) if ".cache." in name else fh

    monkeypatch.setattr(atomic, "open", failing_cache_open, raising=False)
    with pytest.raises(error):
        write_cohort(path, 1)
    monkeypatch.undo()
    assert sorted(files(tmp_path)) == ["out", "out.cache"]
    assert (tmp_path / "out.cache").read_bytes() == old_cache   # the old cache beside the new CSV
    new = generate_synthetic(30, seed=1)
    assert cohorts_equal(load_cohort(path, DEFAULT_SCHEMA), new)
    assert (tmp_path / "out.cache").read_bytes() == old_cache   # loading never writes


def checkpoint_bits(model) -> list:
    nets = ([net for _, net in model.fusion.parts()] if isinstance(model, SurvivalPredictor)
            else [model.encoder, model.head])
    return [net.params.tobytes() for net in nets]


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
@pytest.mark.parametrize("name, load", [("predictor", load_predictor), ("stage1", load_unimodal)])
def test_a_checkpoint_sidecar_write_that_fails_part_way_leaves_a_stale_sidecar_the_next_load_ignores(
        tmp_path, monkeypatch, name, load, error):
    (tmp_path / "run").mkdir()
    path = str(tmp_path / "run" / "out")
    WRITERS[name](path, 2)
    old_cache = (tmp_path / "run" / "out.cache").read_bytes()

    def failing_cache_open(name, *args, **kwargs):
        fh = open(name, *args, **kwargs)
        return FailingFile(fh, len(old_cache) // 2, error()) if ".cache." in name else fh

    monkeypatch.setattr(atomic, "open", failing_cache_open, raising=False)
    with pytest.raises(error):
        WRITERS[name](path, 1)
    monkeypatch.undo()
    assert sorted(files(tmp_path / "run")) == ["out", "out.cache"]
    assert (tmp_path / "run" / "out.cache").read_bytes() == old_cache   # the old sidecar beside the new JSON
    WRITERS[name](str(tmp_path / "whole"), 1)
    assert checkpoint_bits(load(path)) == checkpoint_bits(load(str(tmp_path / "whole")))
    assert (tmp_path / "run" / "out.cache").read_bytes() == old_cache   # loading never writes


def test_a_save_into_a_missing_directory_names_the_target_and_leaves_nothing(tmp_path):
    path = str(tmp_path / "absent" / "s.schema")
    with pytest.raises(FileNotFoundError) as caught:
        write_schema(path, 1)
    assert caught.value.filename == path and str(caught.value).endswith(repr(path))
    assert os.listdir(tmp_path) == []
