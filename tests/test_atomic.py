"""Interrupted writes: a save that fails part-way leaves the target as it was.

Every file writer (predictor and stage-1 checkpoints, cohort CSV, schema
sidecar) writes through ``atomic.atomic_write``. The tests here make the
file object raise part-way through a save, after the first slice or row is
written, and check that the target still holds its old bytes, or is still
absent if it was new, and that no temporary file is left beside it.
"""
import os

import pytest

from mmsurv import atomic
from mmsurv.cohort import ModalityId, ModalitySchema, generate_synthetic, save_cohort, save_schema
from mmsurv.fusion import FusionStrategy, init_fusion_model
from mmsurv.nets import init_net
from mmsurv.pipeline import SurvivalPredictor, save_predictor
from mmsurv.unimodal import UnimodalEncoder, save_unimodal


def write_predictor(path, seed):
    save_predictor(SurvivalPredictor(init_fusion_model(FusionStrategy("tensor"), seed, recon=True)), path)


def write_stage1(path, seed):
    save_unimodal(UnimodalEncoder(ModalityId.GENOMICS, init_net((80, 64, 32), "selu", seed),
                                  init_net((32, 1), "identity", seed)), path)


def write_cohort(path, seed):
    save_cohort(generate_synthetic(30, seed=seed), path)


def write_schema(path, seed):
    save_schema(ModalitySchema(raw_dims=(seed + 1, 2, 3, 4)), path)


WRITERS = {"predictor": write_predictor, "stage1": write_stage1, "cohort": write_cohort,
           "schema": write_schema}


class FailingFile:
    """A text file whose ``write`` raises ``error`` once ``writes`` calls have gone through."""

    def __init__(self, fh, writes, error):
        self.fh, self.left, self.error, self.calls = fh, writes, error, 0

    def write(self, text):
        if self.left == 0:
            raise self.error
        self.left -= 1
        self.calls += 1
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def count_writes(monkeypatch, writer, path) -> int:
    files = []

    def counting_open(*args, **kwargs):
        files.append(FailingFile(open(*args, **kwargs), -1, None))
        return files[-1]

    monkeypatch.setattr(atomic, "open", counting_open, raising=False)
    writer(path, 1)
    monkeypatch.undo()
    return files[0].calls


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
@pytest.mark.parametrize("existing", [True, False], ids=["replace", "new"])
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_save_that_fails_part_way_leaves_the_target_as_it_was(tmp_path, monkeypatch, name,
                                                                existing, error):
    writer, path = WRITERS[name], str(tmp_path / "out")
    writes = count_writes(monkeypatch, writer, str(tmp_path / "probe"))
    os.unlink(tmp_path / "probe")
    assert writes >= 3   # the failure below comes after the first slice or row, before the end
    if existing:
        writer(path, 2)
        old = (tmp_path / "out").read_bytes()
    monkeypatch.setattr(atomic, "open", lambda *a, **k: FailingFile(open(*a, **k), writes // 2, error()),
                        raising=False)
    with pytest.raises(error):
        writer(path, 1)
    monkeypatch.undo()
    assert os.listdir(tmp_path) == (["out"] if existing else [])
    if existing:
        assert (tmp_path / "out").read_bytes() == old


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_save_replaces_the_target_and_leaves_only_it(tmp_path, name):
    path = tmp_path / "out"
    WRITERS[name](str(path), 2)
    first = path.read_bytes()
    WRITERS[name](str(path), 3)
    assert path.read_bytes() != first and os.listdir(tmp_path) == ["out"]
    # the mode is open()'s under the umask, as a direct write's would be
    plain = tmp_path / "plain"
    plain.write_text("")
    assert os.stat(path).st_mode == os.stat(plain).st_mode


def test_a_save_into_a_missing_directory_names_the_target_and_leaves_nothing(tmp_path):
    path = str(tmp_path / "absent" / "s.schema")
    with pytest.raises(FileNotFoundError) as caught:
        write_schema(path, 1)
    assert caught.value.filename == path and str(caught.value).endswith(repr(path))
    assert os.listdir(tmp_path) == []
