"""Acceptance harness: one test per release criterion.

Criteria 1-5 and 8 check the numerical core against independent oracles
written out longhand here (explicit loops, raw exponentials, hand-summed
layer shapes). Criteria 6 and 7 retrain the mean-vector grid over ten
seeds, two seeds at a time in worker processes, and check recovery and
trend medians. Criterion 9 replays CLI workflows and diffs the output
bytes. The conftest hook folds these into one PASS/FAIL line per criterion
at the end of the run.
"""

import hashlib
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from statistics import median

import numpy as np
import pytest

from mmsurv.cli import main
from mmsurv.cohort import scenario_by_name
from mmsurv.config import TrainConfig
from mmsurv.fusion import (FusionStrategy, init_fusion_model, modality_dropout, model_footprint,
                           recon_loss_and_grad)
from mmsurv.gradcheck import run_gradient_checks
from mmsurv.pipeline import (ExperimentCell, default_synthetic_pair, evaluate,
                             train_cell, train_stage1_encoders)
from mmsurv.survival import concordance_index, cox_loss_and_grad


# ── criterion 1: analytic gradients vs central finite differences ────────────

def test_criterion_1_gradients_match_finite_differences():
    t0 = time.time()
    results = run_gradient_checks(seed=0, instances=50)
    elapsed = time.time() - t0
    failed = [r for r in results if not r.passed]
    assert not failed, [(r.name, r.max_rel_err) for r in failed]
    assert {r.name for r in results} >= {"cox_loss", "recon_loss", "total_loss"}
    assert all(r.instances >= 50 for r in results)
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ── criterion 2: Cox loss vs direct enumeration ──────────────────────────────

def _cox_by_enumeration(hazards, times, events):
    # risk-set loops with raw exponentials, no log-sum-exp rearrangement
    total = 0.0
    for i in range(len(times)):
        if events[i] != 1:
            continue
        denom = 0.0
        for j in range(len(times)):
            if times[j] >= times[i]:
                denom += math.exp(hazards[j])
        total -= hazards[i] - math.log(denom)
    return total


def test_criterion_2_cox_loss_matches_enumeration():
    rng = np.random.default_rng(202)
    for trial in range(120):
        n = int(rng.integers(2, 21))
        times = rng.integers(1, 9, size=n).astype(np.float64)  # heavy ties
        events = (rng.random(n) < 0.6).astype(np.float64)
        if events.sum() == 0:
            events[int(rng.integers(n))] = 1.0
        hazards = rng.uniform(-3.0, 3.0, size=n)
        ours = cox_loss_and_grad(hazards, times, events)[0]
        direct = _cox_by_enumeration(hazards, times, events)
        assert abs(ours - direct) <= 1e-9, f"trial {trial}: {ours} vs {direct}"
        shift = float(rng.uniform(-20.0, 20.0))
        shifted = cox_loss_and_grad(hazards + shift, times, events)[0]
        assert abs(shifted - ours) <= 1e-10, f"trial {trial}: shift {shift}"


# ── criterion 3: c-index vs pair enumeration ─────────────────────────────────

def _cindex_by_pairs(risks, times, events):
    num, den = 0.0, 0
    for i in range(len(times)):
        for j in range(len(times)):
            if times[i] < times[j] and events[i] == 1:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    return num / den


def test_criterion_3_cindex_matches_pair_oracle():
    rng = np.random.default_rng(303)
    checked = 0
    for trial in range(130):
        n = int(rng.integers(3, 31))
        times = rng.integers(1, 7, size=n).astype(np.float64)   # tied times
        risks = rng.integers(-4, 5, size=n) / 4.0               # tied risks
        events = (rng.random(n) < 0.7).astype(np.float64)
        has_pair = any(times[i] < times[j] and events[i] == 1
                       for i in range(n) for j in range(n))
        if not has_pair:
            continue
        checked += 1
        ours = concordance_index(risks, times, events)
        assert ours == _cindex_by_pairs(risks, times, events), f"trial {trial}"
        # exact dyadic affine maps preserve order and ties exactly
        assert concordance_index(2.0 * risks + 3.0, times, events) == ours
        assert concordance_index(risks / 4.0 - 1.0, times, events) == ours
    assert checked >= 100


# ── criterion 4: masked reconstruction semantics ─────────────────────────────

def test_criterion_4_recon_loss_masking_and_hand_example():
    rng = np.random.default_rng(404)
    for _ in range(50):
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        decoded = rng.normal(size=(n, 4, d))
        targets = rng.normal(size=(n, 4, d))
        alpha = (rng.random((n, 4)) < 0.6).astype(np.float64)
        if alpha.sum() == 0:
            alpha[0, 0] = 1.0
        base = recon_loss_and_grad(decoded, targets, alpha)[0]
        noised = decoded + (1.0 - alpha[:, :, None]) * rng.normal(size=decoded.shape) * 100.0
        assert recon_loss_and_grad(noised, targets, alpha)[0] == base  # absent slots contribute nothing

    # hand-built batch: available distances 3, 4, 1, 2, 0 over 5 slots
    decoded = np.zeros((2, 4, 4))
    targets = np.zeros((2, 4, 4))
    targets[0, 0, 0] = 3.0
    targets[0, 1, 1] = 4.0
    targets[0, 2, 2] = 1.0
    targets[0, 3, 3] = 2.0
    decoded[1, 0] = targets[1, 0] = 7.0          # present, distance 0
    decoded[1, 2] = 55.0                         # absent, ignored
    alpha = np.array([[1, 1, 1, 1], [1, 0, 0, 0]], dtype=np.float64)
    assert abs(recon_loss_and_grad(decoded, targets, alpha)[0] - 2.0) <= 1e-12

    # second hand example with non-integer distances
    decoded = np.zeros((1, 4, 2))
    targets = np.array([[[1.0, 1.0], [0.3, 0.4], [5.0, 12.0], [9.0, 9.0]]])
    alpha = np.array([[1.0, 1.0, 1.0, 0.0]])
    by_hand = (math.sqrt(2.0) + 0.5 + 13.0) / 3.0
    assert abs(recon_loss_and_grad(decoded, targets, alpha)[0] - by_hand) <= 1e-12


# ── criterion 5: dropout retention law ───────────────────────────────────────

def test_criterion_5_dropout_marginals_match_exact_law():
    rate = 0.5
    # enumerate the 15 nonempty keep patterns and renormalize
    patterns = [s for s in itertools.product((0, 1), repeat=4) if any(s)]
    weights = []
    for s in patterns:
        p = 1.0
        for bit in s:
            p *= (1.0 - rate) if bit else rate
        weights.append(p)
    norm = sum(weights)
    exact = np.array([sum(w for w, s in zip(weights, patterns) if s[m]) / norm
                      for m in range(4)])

    rng = np.random.default_rng(505)
    full = np.ones(4, dtype=np.int64)
    draws = 1_000_000
    counts = np.zeros(4)
    all_dropped = 0
    for _ in range(draws):
        keep = modality_dropout(full, rate, rng)
        if not keep.any():
            all_dropped += 1
        counts += keep
    assert all_dropped == 0
    empirical = counts / draws
    assert np.all(np.abs(empirical - exact) < 0.01), (empirical, exact)


# ── criteria 6 and 7: retrained mean-vector grid over ten seeds ──────────────

_SWEEP_SEEDS = range(10)
_MEAN_CELLS = (
    ("complete", "complete", False, False),
    ("all", "complete", False, False),
    ("all", "all", False, False),
    ("complete", "complete", True, False),
    ("all", "complete", True, False),
    ("all", "all", True, False),
    ("all", "complete", False, True),
    ("all", "all", False, True),
    ("all", "complete", True, True),
    ("all", "all", True, True),
)
_SCENARIOS = ("complete", "pathology-missing", "gene-pathology-missing")
_FLAGSHIP = ("all", "all", True, True)   # both stages on all data, dropout, recon

# floor calibrated once against the generator oracle before freezing:
# median oracle c-index over these seeds is 0.8877, minus the 0.12 allowance
_RECOVERY_FLOOR = 0.7677


def _sweep_seed(seed):
    """Train the ten mean-vector cells for one seed; runs in a worker process.

    Returns each cell's c-index per scenario, the oracle c-index, and the
    runtime of the slice a recovery-only run would need: cohort generation,
    stage-1 training on all data, the flagship cell, and its
    complete-scenario evaluation.
    """
    cells = {}
    t0 = time.time()
    train, test = default_synthetic_pair(seed)
    recovery_seconds = time.time() - t0
    config = TrainConfig(seed=seed, bootstrap=0)
    oracle = concordance_index(test.ground_truth_risk, test.times, test.events)
    t0 = time.time()
    stage1 = {"all": train_stage1_encoders(train, config, "all")}
    recovery_seconds += time.time() - t0
    stage1["complete"] = train_stage1_encoders(train, config, "complete")
    for spec in _MEAN_CELLS:
        s1, s2, drop, recon = spec
        cell = ExperimentCell("mean", stage1_data=s1, stage2_data=s2,
                              dropout=drop, recon=recon)
        t0 = time.time()
        predictor = train_cell(train, config, cell,
                               stage1_encoders=stage1[s1])
        train_seconds = time.time() - t0
        for name in _SCENARIOS:
            t0 = time.time()
            result = evaluate(predictor, test, scenario_by_name(name),
                              bootstrap=0, seed=seed)
            cells[spec, name] = result.cindex
            if spec == _FLAGSHIP and name == "complete":
                recovery_seconds += train_seconds + (time.time() - t0)
    return cells, oracle, recovery_seconds


@pytest.fixture(scope="module")
def sweep():
    """Train the ten mean-vector cells for each seed, two seeds at a time, and collect medians.

    Each seed's work is independent and deterministic, so the two worker
    processes give the c-indices a serial loop gives. ``recovery_seconds``
    sums the recovery slice as each worker timed it.
    """
    with ProcessPoolExecutor(2) as pool:
        per_seed = list(pool.map(_sweep_seed, _SWEEP_SEEDS))
    medians = {c: {s: median(cells[c, s] for cells, _, _ in per_seed) for s in _SCENARIOS}
               for c in _MEAN_CELLS}
    return {"medians": medians, "oracle": median(oracle for _, oracle, _ in per_seed),
            "recovery_seconds": sum(seconds for _, _, seconds in per_seed)}


def test_criterion_6_fused_model_recovers_synthetic_risk(sweep):
    recovered = sweep["medians"][_FLAGSHIP]["complete"]
    assert recovered >= max(0.70, sweep["oracle"] - 0.12)
    assert recovered >= _RECOVERY_FLOOR
    assert sweep["recovery_seconds"] < 600.0


def test_criterion_7a_stage2_all_data_beats_complete_only(sweep):
    # the flagship configuration with stage-2 restricted to complete records
    restricted = ("all", "complete", True, True)
    for name in _SCENARIOS:
        on_all = sweep["medians"][_FLAGSHIP][name]
        on_complete = sweep["medians"][restricted][name]
        assert on_all > on_complete, f"{name}: {on_all} vs {on_complete}"


def test_criterion_7b_dropout_recon_best_when_gene_and_pathology_missing(sweep):
    scores = {c: by["gene-pathology-missing"] for c, by in sweep["medians"].items()}
    best = scores[_FLAGSHIP]
    rest = {c: s for c, s in scores.items() if c != _FLAGSHIP}
    assert best >= max(rest.values()), (best, rest)


# ── criterion 8: footprint ordering with hand-summed counts ──────────────────

def test_criterion_8_footprint_ordering_and_exact_counts():
    totals = {}
    for kind in ("concat", "mean", "tensor"):
        model = init_fusion_model(FusionStrategy(kind), seed=0)
        totals[kind] = model_footprint(model).total_params

    head = 128 * 64 + 64 + 64 * 1 + 1            # fused 128 -> 64 -> 1
    assert totals["concat"] == head
    extender = 32 * 64 + 64 + 64 * 128 + 128     # 32 -> 64 -> 128, four of them
    assert totals["mean"] == 4 * extender + head
    reducer = 32 * 16 + 16 + 16 * 8 + 8          # 32 -> 16 -> 8, four of them
    tensor_head = 6561 * 64 + 64 + 64 * 1 + 1    # product space (8+1)^4 = 6561
    assert totals["tensor"] == 4 * reducer + tensor_head
    assert totals["concat"] == 8321
    assert totals["mean"] == 50049
    assert totals["tensor"] == 422689
    assert totals["tensor"] > totals["mean"] > totals["concat"]

    with_recon = init_fusion_model(FusionStrategy("mean"), seed=0, recon=True)
    decoder = 128 * 64 + 64 + 64 * 128 + 128     # fused 128 -> 64 -> 4 x 32
    assert model_footprint(with_recon).total_params == totals["mean"] + decoder


# ── criterion 9: byte-deterministic CLI workflows ────────────────────────────

def _tree_bytes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def _run(args):
    assert main(args) == 0, f"command failed: {args}"


def test_criterion_9_cli_workflows_are_byte_deterministic(tmp_path, capsys):
    trees = []
    for run in ("first", "second"):
        base = tmp_path / run
        base.mkdir()
        data = base / "cohort.csv"
        _run(["synth", "--n", "160", "--seed", "11", "--out", str(data),
              "--quiet"])
        _run(["train-fuse", "--data", str(data), "--strategy", "mean",
              "--seed", "3", "--out-dir", str(base / "fused"),
              "--dropout", "--recon", "--stage1-epochs", "6",
              "--fusion-epochs", "5", "--quiet"])
        _run(["ablate", "--seed", "4", "--out-dir", str(base / "grid"),
              "--n-train", "120", "--n-test", "60",
              "--strategies", "concat", "--scenarios", "complete",
              "pathology-missing", "--stage1-epochs", "4",
              "--fusion-epochs", "3", "--quiet"])
        capsys.readouterr()
        trees.append(_tree_bytes(base))
    assert trees[0] == trees[1]
