"""CLI workflows, exit codes, and byte determinism, driven in-process."""
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import mmsurv
from mmsurv.cli import main
from mmsurv.cohort import MODALITIES, generate_synthetic, save_cohort, save_schema
from mmsurv.config import TrainConfig
from mmsurv.errors import ConfigError
from mmsurv.fusion import FusionStrategy, init_fusion_model
from mmsurv.nets import OptimizerState, init_net
from mmsurv.pipeline import SurvivalPredictor, save_predictor, train_stage1_encoders
from mmsurv.unimodal import ENCODER_HIDDEN, UnimodalEncoder, embedding_table, save_unimodal

FAST_UNI = ["--stage1-epochs", "10"]
FAST_FUSE = ["--fusion-epochs", "6"]


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def run(*argv):
    return main([str(a) for a in argv])


def test_help_exits_zero_and_lists_flags(capsys):
    assert run("--help") == 0
    assert "SUBCOMMAND" in capsys.readouterr().out
    for cmd in ("synth", "train-uni", "train-fuse", "eval", "ablate", "gradcheck", "footprint"):
        assert run(cmd, "--help") == 0
        out = capsys.readouterr().out
        assert "--quiet" in out
        assert "default" in out


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run("synth", "--n", 10) == 1  # --seed and --out missing
    assert run("frobnicate") == 1
    assert run("synth", "--n", 10, "--seed", 1, "--out", tmp_path / "c.csv",
               "--unknown-flag") == 1
    capsys.readouterr()


def test_missing_input_file_exits_two(tmp_path, capsys):
    assert run("train-uni", "--data", tmp_path / "absent.csv", "--seed", 1,
               "--out-dir", tmp_path) == 2
    capsys.readouterr()


def test_resolved_configuration_is_printed(tmp_path, capsys):
    run("synth", "--n", 12, "--seed", 3, "--out", tmp_path / "c.csv")
    out = capsys.readouterr().out
    assert "resolved configuration:" in out
    assert "seed = 3" in out


def test_quiet_moves_configuration_off_stdout(tmp_path, capsys):
    run("synth", "--n", 12, "--seed", 3, "--out", tmp_path / "c.csv", "--quiet")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resolved configuration:" in captured.err


def test_synth_reports_its_event_count(tmp_path, capsys):
    assert run("synth", "--n", 30, "--seed", 4, "--out", tmp_path / "c.csv") == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("wrote"))
    assert re.fullmatch(r"wrote 30 records \(\d+ events\) to .*", line), line


def test_synth_twice_is_byte_identical(tmp_path, capsys):
    assert run("synth", "--n", 40, "--seed", 9, "--out", tmp_path / "a.csv", "--quiet") == 0
    assert run("synth", "--n", 40, "--seed", 9, "--out", tmp_path / "b.csv", "--quiet") == 0
    assert sha(tmp_path / "a.csv") == sha(tmp_path / "b.csv")
    assert sha(str(tmp_path / "a.csv") + ".schema") == sha(str(tmp_path / "b.csv") + ".schema")
    capsys.readouterr()


def workflow_files(tmp_path, capsys, seed=7):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    assert run("synth", "--n", 150, "--seed", seed, "--out", train, "--quiet") == 0
    assert run("synth", "--n", 80, "--seed", seed + 1_000_000, "--missing-rate", 0,
               "--out", test, "--quiet") == 0
    capsys.readouterr()
    return train, test


def test_full_workflow_chain(tmp_path, capsys):
    train, test = workflow_files(tmp_path, capsys)
    enc = tmp_path / "enc"
    fuse = tmp_path / "fuse"
    metrics = tmp_path / "metrics.json"
    assert run("train-uni", "--data", train, "--seed", 7, "--out-dir", enc,
               *FAST_UNI, "--quiet") == 0
    for name in ("radiology", "pathology", "genomics", "demographics"):
        assert (enc / f"{name}.json").exists()
        assert (enc / f"{name}_trace.csv").exists()
    before = sha(train)
    assert run("train-fuse", "--data", train, "--encoders", enc, "--strategy", "mean",
               "--dropout", "--recon", "--seed", 7, "--out-dir", fuse,
               *FAST_FUSE, "--quiet") == 0
    assert sha(train) == before  # inputs never mutated
    assert run("eval", "--model", fuse / "model.json", "--data", test,
               "--scenario", "gene-pathology-missing", "--bootstrap", 50,
               "--seed", 7, "--out", metrics, "--quiet") == 0
    out = capsys.readouterr().out
    assert "c-index" in out
    payload = json.loads(metrics.read_text())
    assert 0.0 <= payload["cindex"] <= 1.0
    assert payload["scenario"] == "gene-pathology-missing"
    assert payload["n_resamples"] == 50
    trace = (fuse / "fusion_trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,train_loss,val_cindex"
    assert len(trace) >= 2


def test_train_fuse_accepts_an_embedding_table(tmp_path, capsys):
    cohort = generate_synthetic(90, 21, missing_rate=(0.2,) * 4)
    encoders = train_stage1_encoders(cohort, TrainConfig(seed=21, stage1_epochs=8), "all")
    table = embedding_table({m: u.encoder for m, u in encoders.items()}, cohort)
    path = tmp_path / "table.csv"
    save_cohort(table, str(path))
    save_schema(table.schema, str(path) + ".schema")
    out = tmp_path / "fuse"
    assert run("train-fuse", "--data", path, "--strategy", "concat", "--seed", 21,
               "--out-dir", out, *FAST_FUSE, "--quiet") == 0
    assert (out / "model.json").exists()
    blob = json.loads((out / "model.json").read_text())
    assert blob["encoders"] is None
    capsys.readouterr()


def test_train_fuse_determinism(tmp_path, capsys):
    train, _ = workflow_files(tmp_path, capsys)
    outs = []
    for name in ("f1", "f2"):
        out = tmp_path / name
        assert run("train-fuse", "--data", train, "--strategy", "concat", "--seed", 4,
                   "--out-dir", out, "--stage1-epochs", 8, *FAST_FUSE, "--quiet") == 0
        outs.append(out)
    assert sha(outs[0] / "model.json") == sha(outs[1] / "model.json")
    assert sha(outs[0] / "fusion_trace.csv") == sha(outs[1] / "fusion_trace.csv")
    capsys.readouterr()


def test_ablate_writes_reports_and_is_deterministic(tmp_path, capsys):
    args = ["ablate", "--seed", 6, "--n-train", 100, "--n-test", 60,
            "--strategies", "concat", "--scenarios", "complete", "pathology-missing",
            "--stage1-epochs", 8, "--fusion-epochs", 4, "--bootstrap", 20, "--quiet"]
    assert run(*args, "--out-dir", tmp_path / "ra") == 0
    assert run(*args, "--out-dir", tmp_path / "rb") == 0
    for name in ("report.csv", "report.json", "report.md"):
        assert sha(tmp_path / "ra" / name) == sha(tmp_path / "rb" / name)
    md = (tmp_path / "ra" / "report.md").read_text()
    assert "pathology-missing" in md
    rows = json.loads((tmp_path / "ra" / "report.json").read_text())["rows"]
    assert len(rows) == 4 * 2  # concat block has four training rows
    capsys.readouterr()


def test_gradcheck_passes_quickly(capsys):
    assert run("gradcheck", "--seed", 0, "--instances", 4) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("flag,value", [("--h", 0), ("--h", -1e-5), ("--h", "nan"), ("--h", "inf"),
                                        ("--instances", 0), ("--instances", -1)])
def test_bad_gradcheck_arguments_are_usage_errors(capsys, flag, value):
    assert run("gradcheck", f"{flag}={value}", "--quiet") == 1
    err = capsys.readouterr().err
    assert "gradcheck needs a finite step h > 0 and at least one instance" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
def test_a_tolerance_that_is_not_finite_and_positive_is_a_usage_error(capsys, value):
    assert run("gradcheck", f"--tol={value}", "--instances", 1, "--quiet") == 1
    err = capsys.readouterr().err
    assert f"gradcheck needs a finite tolerance > 0 (got tol={float(value)})" in err
    assert "Traceback" not in err


def test_train_uni_without_events_to_fit_exits_two(tmp_path, capsys):
    # 99% held out leaves two records per modality to fit; under these seeds
    # neither demographics record has an event, so no step could be taken
    data = tmp_path / "c.csv"
    assert run("synth", "--n", 300, "--seed", 8, "--out", data, "--quiet") == 0
    assert run("train-uni", "--data", data, "--seed", 1, "--val-fraction", 0.99,
               "--stage1-epochs", 3, "--out-dir", tmp_path / "enc", "--quiet") == 2
    err = capsys.readouterr().err
    assert "data error: stage 1 (demographics): the fit part has no observed events" in err
    assert "Traceback" not in err


def test_train_uni_with_a_zero_cox_loss_exits_two(tmp_path, capsys):
    # pathology's two fitted records are a censored one and a later event,
    # whose risk set is itself, so every step would have a zero loss and gradient
    data = tmp_path / "c.csv"
    assert run("synth", "--n", 300, "--seed", 1, "--out", data, "--quiet") == 0
    assert run("train-uni", "--data", data, "--seed", 1, "--val-fraction", 0.99,
               "--stage1-epochs", 3, "--out-dir", tmp_path / "enc", "--quiet") == 2
    err = capsys.readouterr().err
    assert ("data error: stage 1 (pathology): no event in the fit part has another record "
            "at or after its time, so the Cox loss is zero") in err
    assert "Traceback" not in err


def test_output_files_never_use_the_locale_encoding(tmp_path):
    # -X warn_default_encoding makes every open() that falls back on the
    # locale encoding warn, and -W error turns that warning into a failure
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mmsurv.__file__)))
    commands = [
        ["synth", "--n", 200, "--seed", 1, "--out", "c.csv"],
        ["train-uni", "--data", "c.csv", "--seed", 1, "--stage1-epochs", 2, "--out-dir", "enc"],
        ["train-fuse", "--data", "c.csv", "--encoders", "enc", "--strategy", "mean", "--seed", 1,
         "--fusion-epochs", 2, "--out-dir", "fuse"],
        ["eval", "--model", "fuse/model.json", "--data", "c.csv", "--seed", 1, "--bootstrap", 10,
         "--out", "eval.json"],
        ["ablate", "--seed", 1, "--n-train", 150, "--n-test", 80, "--strategies", "mean",
         "--stage1-epochs", 2, "--fusion-epochs", 2, "--bootstrap", 10, "--out-dir", "grid"],
    ]
    for argv in commands:
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                               "-m", "mmsurv", *map(str, argv), "--quiet"],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{argv[0]}: {proc.stderr}"
    assert (tmp_path / "enc" / "genomics_trace.csv").exists() and (tmp_path / "eval.json").exists()
    assert (tmp_path / "grid" / "report.md").stat().st_size > 0


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def test_import_pins_blas_threads_unless_the_caller_set_a_count():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mmsurv.__file__))
    code = ("import json, os, mmsurv; "
            f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}))")

    def threads(**given):
        proc = subprocess.run([sys.executable, "-c", code], env=dict(env, **given),
                              capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    pinned = dict.fromkeys(BLAS_THREAD_VARS, "1")
    assert threads() == pinned
    assert threads(OPENBLAS_NUM_THREADS="2") == dict(pinned, OPENBLAS_NUM_THREADS="2")


def test_stdout_is_utf8_under_an_ascii_locale(tmp_path):
    # eval prints "c-index X ± Y" and ablate prints its markdown table with "±"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mmsurv.__file__)))
    locales = {"ascii": dict(env, PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONUTF8="0"),
               "utf8": dict(env, PYTHONUTF8="1")}
    assert run("synth", "--n", 200, "--seed", 1, "--out", tmp_path / "c.csv", "--quiet") == 0
    assert run("train-fuse", "--data", tmp_path / "c.csv", "--strategy", "mean", "--seed", 1,
               "--stage1-epochs", 2, "--fusion-epochs", 2, "--out-dir", tmp_path / "fuse",
               "--quiet") == 0
    commands = [
        ["eval", "--model", "../fuse/model.json", "--data", "../c.csv", "--seed", 1,
         "--bootstrap", 10, "--out", "eval.json"],
        ["ablate", "--seed", 1, "--n-train", 150, "--n-test", 80, "--strategies", "mean",
         "--scenarios", "complete", "--stage1-epochs", 2, "--fusion-epochs", 2,
         "--bootstrap", 10, "--out-dir", "grid"],
    ]
    stdout = {}
    for name, locale_env in locales.items():
        (tmp_path / name).mkdir()
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "mmsurv", *map(str, argv)],
                                  cwd=tmp_path / name, env=locale_env, capture_output=True)
            assert proc.returncode == 0, f"{name} {argv[0]}: {proc.stderr.decode('utf-8', 'replace')}"
            stdout[name, argv[0]] = proc.stdout
    for cmd in ("eval", "ablate"):
        assert "±".encode("utf-8") in stdout["utf8", cmd]
        assert stdout["ascii", cmd] == stdout["utf8", cmd]
    for f in ("eval.json", "grid/report.csv", "grid/report.json", "grid/report.md"):
        assert (tmp_path / "ascii" / f).read_bytes() == (tmp_path / "utf8" / f).read_bytes()


@pytest.mark.parametrize("workers", [0, -2])
def test_worker_counts_below_one_are_usage_errors(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.chdir(tmp_path)
    assert run("ablate", "--seed", 1, "--out-dir", "grid", "--workers", workers, "--quiet") == 1
    err = capsys.readouterr().err
    assert f"--workers: must be a positive integer, got {workers}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_footprint_prints_ordering(capsys):
    assert run("footprint") == 0
    out = capsys.readouterr().out
    counts = {}
    for kind in ("concat", "mean", "tensor"):
        line = next(l for l in out.splitlines() if l.startswith(kind))
        total = next(l for l in out.splitlines()[out.splitlines().index(line):]
                     if "total" in l)
        counts[kind] = int(total.split()[1])
    assert counts["tensor"] > counts["mean"] > counts["concat"]


def test_eval_rejects_a_damaged_checkpoint_with_exit_two(tmp_path, capsys):
    _, test = workflow_files(tmp_path, capsys)
    model = init_fusion_model(FusionStrategy("concat"), seed=0)
    save_predictor(SurvivalPredictor(model), str(tmp_path / "model.json"))
    good = json.loads((tmp_path / "model.json").read_text())
    no_strategy = json.loads(json.dumps(good))
    del no_strategy["fusion"]["strategy"]
    wrong_width = json.loads(json.dumps(good))
    wrong_width["fusion"]["strategy"]["embed_dim"] = 16  # fused width 64, the head takes 128
    # json reads NaN and Infinity literals; no trainer writes them, nor a negative lam
    bad_lams = [json.loads(json.dumps(good)) for _ in range(4)]
    for payload, lam in zip(bad_lams, (float("nan"), float("inf"), -5.0, 10**400)):  # 10**400 overflows float
        payload["fusion"]["lam"] = lam
    string_weights = json.loads(json.dumps(good))  # numbers written as text are not numbers
    head = string_weights["fusion"]["parts"]["hazard_head"]["layers"][0]
    head["w"] = [repr(w) for w in head["w"]]
    for payload in (no_strategy, wrong_width, *bad_lams, string_weights):
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(payload))
        assert run("eval", "--model", path, "--data", test, "--seed", 1, "--bootstrap", 0) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "damaged.json" in err and "Traceback" not in err


def _stage1_dir(path, schema):
    path.mkdir()
    for m in MODALITIES:  # freshly initialised encoders are enough to load
        dims = (schema.dim(m), ENCODER_HIDDEN, schema.embed_dim)
        save_unimodal(UnimodalEncoder(m, init_net(dims, "selu", int(m)),
                                      init_net((schema.embed_dim, 1), "identity", 9)),
                      str(path / f"{m.label}.json"))
    return path


STAGE1_DAMAGE = {
    "no-encoder": lambda good: {k: v for k, v in good.items() if k != "encoder"},
    "list-payload": lambda good: [good],
    "string-payload": lambda good: "genomics",
    "unknown-modality": lambda good: dict(good, modality="olfaction"),
    "other-modality": lambda good: dict(good, modality="radiology"),
    "wrong-head-width": lambda good: dict(good, head=good["encoder"]),
}


@pytest.mark.parametrize("damage", sorted(STAGE1_DAMAGE))
def test_train_fuse_rejects_a_damaged_stage1_checkpoint_with_exit_two(tmp_path, capsys, damage):
    cohort = generate_synthetic(40, 5)
    data = tmp_path / "train.csv"
    save_cohort(cohort, str(data))
    save_schema(cohort.schema, str(data) + ".schema")
    enc = _stage1_dir(tmp_path / "enc", cohort.schema)
    good = json.loads((enc / "genomics.json").read_text())
    (enc / "genomics.json").write_text(json.dumps(STAGE1_DAMAGE[damage](good)))
    assert run("train-fuse", "--data", data, "--encoders", enc, "--strategy", "mean",
               "--seed", 5, "--out-dir", tmp_path / "fuse", *FAST_FUSE, "--quiet") == 2
    err = capsys.readouterr().err
    assert "data error" in err and "genomics.json" in err and "Traceback" not in err


def test_joint_scratch_with_encoders_is_a_usage_error_before_any_checkpoint_is_read(tmp_path, capsys):
    cohort = generate_synthetic(40, 5)
    data = tmp_path / "train.csv"
    save_cohort(cohort, str(data))
    save_schema(cohort.schema, str(data) + ".schema")
    for enc in (_stage1_dir(tmp_path / "enc", cohort.schema), tmp_path / "absent"):
        assert run("train-fuse", "--data", data, "--encoders", enc, "--mode", "joint-scratch",
                   "--strategy", "mean", "--seed", 5, "--out-dir", tmp_path / "fuse", *FAST_FUSE,
                   "--quiet") == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: --encoders .*--mode joint-scratch", err, re.MULTILINE)
        assert "Traceback" not in err and not (tmp_path / "fuse").exists()


def test_train_uni_on_complete_records_needs_some(tmp_path, capsys):
    data = tmp_path / "c.csv"
    assert run("synth", "--n", 30, "--seed", 2, "--missing-rate", 0.9, "--out", data, "--quiet") == 0
    assert run("train-uni", "--data", data, "--seed", 1, "--data-regime", "complete",
               "--out-dir", tmp_path / "enc", "--quiet") == 2
    err = capsys.readouterr().err
    assert "data error: stage 1 (complete data): no complete-modality records available" in err


def test_eval_rejects_an_overflowing_weight_in_the_checkpoint_with_exit_two(tmp_path, capsys):
    _, test = workflow_files(tmp_path, capsys)
    model = init_fusion_model(FusionStrategy("concat"), seed=0)
    save_predictor(SurvivalPredictor(model), str(tmp_path / "model.json"))
    payload = json.loads((tmp_path / "model.json").read_text())
    payload["fusion"]["parts"]["hazard_head"]["layers"][0]["w"][0] = "BIG"
    (tmp_path / "model.json").write_text(json.dumps(payload).replace('"BIG"', "1e999"))
    assert run("eval", "--model", tmp_path / "model.json", "--data", test, "--seed", 1,
               "--bootstrap", 0) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "hazard_head" in err and "non-finite" in err
    assert "Traceback" not in err


# valid JSON that Python's parser refuses: nesting past its recursion limit, an int past its digit limit
PAST_PARSER_LIMITS = {"deep-nesting": "[" * 200_000, "long-int": "1" * 5_000}


@pytest.mark.parametrize("limit", sorted(PAST_PARSER_LIMITS))
def test_a_checkpoint_past_the_parser_limits_is_a_data_error(tmp_path, capsys, limit):
    cohort = generate_synthetic(40, 5)
    data = tmp_path / "train.csv"
    save_cohort(cohort, str(data))
    save_schema(cohort.schema, str(data) + ".schema")
    enc = _stage1_dir(tmp_path / "enc", cohort.schema)
    for path in (enc / "genomics.json", tmp_path / "model.json"):
        path.write_text(PAST_PARSER_LIMITS[limit])
    for name, argv in [("model.json", ["eval", "--model", tmp_path / "model.json", "--data", data,
                                       "--seed", 1, "--bootstrap", 0]),
                       ("genomics.json", ["train-fuse", "--data", data, "--encoders", enc, "--strategy", "mean",
                                          "--seed", 5, "--out-dir", tmp_path / "fuse", *FAST_FUSE])]:
        assert run(*argv, "--quiet") == 2
        err = capsys.readouterr().err
        assert f"{name}: JSON past the parser's limits" in err and "Traceback" not in err


def test_train_fuse_rejects_a_nan_weight_in_a_stage1_checkpoint_with_exit_two(tmp_path, capsys):
    cohort = generate_synthetic(40, 5)
    data = tmp_path / "train.csv"
    save_cohort(cohort, str(data))
    save_schema(cohort.schema, str(data) + ".schema")
    enc = _stage1_dir(tmp_path / "enc", cohort.schema)
    payload = json.loads((enc / "genomics.json").read_text())
    payload["encoder"]["layers"][1]["b"][0] = float("nan")
    (enc / "genomics.json").write_text(json.dumps(payload))
    assert "NaN" in (enc / "genomics.json").read_text()
    assert run("train-fuse", "--data", data, "--encoders", enc, "--strategy", "mean",
               "--seed", 5, "--out-dir", tmp_path / "fuse", *FAST_FUSE, "--quiet") == 2
    err = capsys.readouterr().err
    assert "data error" in err and "genomics.json" in err and "non-finite" in err
    assert "Traceback" not in err


def test_bad_scenario_name_is_a_usage_error(tmp_path, capsys):
    train, test = workflow_files(tmp_path, capsys)
    assert run("eval", "--model", tmp_path / "x.json", "--data", test,
               "--scenario", "sunny-day", "--seed", 1) == 1
    capsys.readouterr()


NEGATIVE_SEED = {
    "synth": ["synth", "--seed", -1, "--out", "c.csv"],
    "synth-family": ["synth", "--seed", 1, "--family-seed", -1, "--out", "c.csv"],
    "train-uni": ["train-uni", "--data", "c.csv", "--seed", -1, "--out-dir", "enc"],
    "train-fuse": ["train-fuse", "--data", "c.csv", "--seed", -1, "--strategy", "mean",
                   "--out-dir", "fuse"],
    "eval": ["eval", "--model", "m.json", "--data", "c.csv", "--seed", -1, "--bootstrap", 3],
    "eval-bootstrap": ["eval", "--model", "m.json", "--data", "c.csv", "--seed", 1,
                       "--bootstrap", -3],
    "ablate": ["ablate", "--seed", -1, "--out-dir", "grid"],
    "ablate-bootstrap": ["ablate", "--seed", 1, "--bootstrap", -3, "--out-dir", "grid"],
    "gradcheck": ["gradcheck", "--seed", -1],
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_SEED))
def test_negative_seeds_and_bootstraps_are_usage_errors(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    assert run(*NEGATIVE_SEED[case]) == 1
    err = capsys.readouterr().err
    assert "must be a non-negative integer" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


NON_FINITE = {
    "train-fuse-lam-nan": ["train-fuse", "--strategy", "mean", "--out-dir", "fuse", "--lam", "nan"],
    "train-fuse-lam-inf": ["train-fuse", "--strategy", "mean", "--out-dir", "fuse", "--lam", "inf"],
    "train-fuse-lr-nan": ["train-fuse", "--strategy", "mean", "--out-dir", "fuse",
                          "--fusion-lr", "nan"],
    "train-uni-lr-inf": ["train-uni", "--out-dir", "enc", "--stage1-lr", "inf"],
    "train-uni-lr-nan": ["train-uni", "--out-dir", "enc", "--stage1-lr", "nan"],
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_learning_rates_and_lam_are_usage_errors(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--n", 60, "--seed", 1, "--out", "c.csv", "--quiet") == 0
    assert run(*NON_FINITE[case], "--data", "c.csv", "--seed", 1, "--stage1-epochs", 2,
               "--quiet") == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: .*must be finite", err, re.MULTILINE)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert sorted(os.listdir(tmp_path)) == ["c.csv", "c.csv.cache", "c.csv.schema"]


def test_optimizer_state_rejects_a_non_finite_learning_rate():
    net = init_net((2, 1), "identity", 0)
    for lr in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ConfigError, match="finite and positive"):
            OptimizerState("adam", lr, net.params)


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        TrainConfig(seed=-1)


def _spoil(path):
    """Put a byte that is not UTF-8 into the middle of a file."""
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
    return path


NOT_UTF8 = {
    "cohort": lambda d: (["train-uni", "--data", _spoil(d / "train.csv"), "--seed", 1,
                          "--out-dir", d / "enc2"], d / "train.csv"),
    "schema": lambda d: (["train-uni", "--data", d / "train.csv", "--seed", 1,
                          "--out-dir", d / "enc2"], _spoil(d / "train.csv.schema")),
    "predictor": lambda d: (["eval", "--model", _spoil(d / "model.json"), "--data", d / "train.csv",
                             "--seed", 1, "--bootstrap", 0], d / "model.json"),
    "stage-1": lambda d: (["train-fuse", "--data", d / "train.csv", "--encoders", d / "enc",
                           "--strategy", "mean", "--seed", 1, "--out-dir", d / "fuse", *FAST_FUSE],
                          _spoil(d / "enc" / "pathology.json")),
}


@pytest.mark.parametrize("kind", sorted(NOT_UTF8))
def test_input_files_that_are_not_utf8_exit_two(tmp_path, capsys, kind):
    cohort = generate_synthetic(40, 5)
    save_cohort(cohort, str(tmp_path / "train.csv"))
    save_schema(cohort.schema, str(tmp_path / "train.csv.schema"))
    _stage1_dir(tmp_path / "enc", cohort.schema)
    save_predictor(SurvivalPredictor(init_fusion_model(FusionStrategy("concat"), seed=0)),
                   str(tmp_path / "model.json"))
    argv, spoiled = NOT_UTF8[kind](tmp_path)
    assert run(*argv, "--quiet") == 2
    err = capsys.readouterr().err
    assert f"data error: {spoiled}: not UTF-8 text" in err and "Traceback" not in err


def test_schema_width_below_one_exits_two_naming_file_and_key(tmp_path, capsys):
    cohort = generate_synthetic(40, 5)
    save_cohort(cohort, str(tmp_path / "train.csv"))
    schema = tmp_path / "train.csv.schema"
    save_schema(cohort.schema, str(schema))
    schema.write_text(schema.read_text().replace("radiology_dim=16", "radiology_dim=0"))
    assert run("train-uni", "--data", tmp_path / "train.csv", "--seed", 1,
               "--out-dir", tmp_path / "enc", "--quiet") == 2
    err = capsys.readouterr().err
    assert f"data error: {schema}: radiology_dim must be positive" in err and "Traceback" not in err
