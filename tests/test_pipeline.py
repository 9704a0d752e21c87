"""End-to-end training paths, scoring, evaluation, and the ablation grid."""
import concurrent.futures
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mmsurv.config
import mmsurv.fusion
import mmsurv.survival as survival
import mmsurv.unimodal
from conftest import (assert_layers_view_params, block_cohort, bootstrap_loop, cindex_pairwise, hide,
                      with_columns)
from mmsurv.cohort import (DEFAULT_SCHEMA, MODALITIES, SCENARIOS, Cohort, ModalityId, ModalitySchema,
                           apply_scenario, complete_subset, embedding_schema,
                           generate_synthetic, scenario_by_name)
from mmsurv.config import TrainConfig
from mmsurv.errors import ConfigError, DataError, MmsurvError, NumericalError
from mmsurv.fusion import SCORE_CHUNK, FusionStrategy, fuse, init_fusion_model
from mmsurv.nets import init_net
from mmsurv.pipeline import (_BOOT_SALT, AblationReport, EvalResult, ExperimentCell,
                             SurvivalPredictor, default_synthetic_pair, evaluate, load_predictor,
                             run_ablation_grid, save_predictor, table_cells,
                             train_cell, train_fusion_on_table, train_stage1_encoders)
from mmsurv.unimodal import ENCODER_HIDDEN, UnimodalEncoder, embedding_table

FAST = TrainConfig(seed=5, stage1_epochs=15, fusion_epochs=8, bootstrap=50)


def fast_pair(seed=5, n_train=160, n_test=90):
    return default_synthetic_pair(seed, n_train=n_train, n_test=n_test)


def predictor_params(p):
    parts = [net.params for _, net in p.fusion.parts()]
    if p.encoders is not None:
        parts += [p.encoders[m].params for m in MODALITIES]
    return np.concatenate(parts)


def stage1_nets(encoders):
    """{modality: DenseNet} of a stage-1 set, as two-stage training freezes them."""
    return {m: u.encoder for m, u in encoders.items()}


def test_cell_validation_and_training_key():
    with pytest.raises(ConfigError):
        ExperimentCell("mean", stage1_data="most")
    with pytest.raises(ConfigError):
        ExperimentCell("mean", mode="three-stage")
    with pytest.raises(ConfigError):
        ExperimentCell("majority-vote")
    with pytest.raises(ConfigError, match="unknown scenario 'bogus'"):
        ExperimentCell("mean", scenario="bogus")
    a = ExperimentCell("mean", "all", "all", True, True, scenario="complete")
    b = ExperimentCell("mean", "all", "all", True, True, scenario="pathology-missing")
    assert a.training_key() == b.training_key()
    assert a != b and len({a, b}) == 2


def test_two_stage_smoke_beats_chance():
    train, test = fast_pair()
    cell = ExperimentCell("mean", "all", "all", dropout=True)
    predictor = train_cell(train, FAST, cell)
    result = evaluate(predictor, test, scenario_by_name("complete"), bootstrap=50, seed=5)
    assert result.cindex > 0.6
    assert result.std is not None and 0 < result.std < 0.2
    assert result.n_test == len(test)


def test_two_stage_is_deterministic():
    train, test = fast_pair()
    cell = ExperimentCell("concat", "all", "all")
    a = train_cell(train, FAST, cell)
    b = train_cell(train, FAST, cell)
    assert np.array_equal(predictor_params(a), predictor_params(b))
    ra = evaluate(a, test, scenario_by_name("pathology-missing"), 50, 5)
    rb = evaluate(b, test, scenario_by_name("pathology-missing"), 50, 5)
    assert ra.cindex == rb.cindex and ra.std == rb.std


def test_shared_encoders_give_identical_fusion_input():
    train, _ = fast_pair()
    encoders = train_stage1_encoders(train, FAST, "all")
    cell = ExperimentCell("mean", "all", "all")
    direct = train_cell(train, FAST, cell, stage1_encoders=encoders)
    table = embedding_table(stage1_nets(encoders), train)
    on_table = train_fusion_on_table(table, FAST, cell)
    a = np.concatenate([n.params for _, n in direct.fusion.parts()])
    b = np.concatenate([n.params for _, n in on_table.fusion.parts()])
    assert np.array_equal(a, b)


def test_a_second_two_stage_training_on_one_pool_encodes_nothing(monkeypatch):
    train, _ = fast_pair()
    encoders = train_stage1_encoders(train, FAST, "all")
    cell = ExperimentCell("mean")
    train_cell(train, FAST, cell, stage1_encoders=encoders)
    encoded, column = [], mmsurv.unimodal._column
    monkeypatch.setattr(mmsurv.unimodal, "_column", lambda nets, m, cohort: encoded.append(m) or
                        column(nets, m, cohort))
    again = train_cell(train, FAST, cell, stage1_encoders=encoders)
    assert encoded == []   # every column of the pool's table comes from train's memo
    fresh = train_cell(rebuilt(train), FAST, cell, stage1_encoders=encoders)
    assert sorted(encoded) == list(MODALITIES)
    assert predictor_params(again).tobytes() == predictor_params(fresh).tobytes()


def test_a_stage1_encoder_that_overflows_is_a_numerical_error_in_two_stage_training():
    train, _ = fast_pair(n_train=80, n_test=40)
    stage1 = {m: UnimodalEncoder(m, net, None) for m, net in fresh_encoders(3).items()}
    stage1[ModalityId.PATHOLOGY].encoder.params[...] = 1e300   # its second layer overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"^fusion training \(mean/all/all\) diverged at epoch 0: "
                                                  "non-finite network input$"):
            train_cell(train, FAST, ExperimentCell("mean"), stage1)


def test_table_training_draws_the_stage2_regime():
    train, _ = fast_pair()
    table = embedding_table(stage1_nets(train_stage1_encoders(train, FAST, "all")), train)
    on_complete = train_fusion_on_table(table, FAST, ExperimentCell("mean", stage2_data="complete"))
    on_subset = train_fusion_on_table(complete_subset(table), FAST, ExperimentCell("mean"))
    on_all = train_fusion_on_table(table, FAST, ExperimentCell("mean"))
    assert 0 < len(complete_subset(table)) < len(table)
    assert np.array_equal(predictor_params(on_complete), predictor_params(on_subset))
    assert not np.array_equal(predictor_params(on_complete), predictor_params(on_all))
    assert on_complete.trace.epochs == on_subset.trace.epochs


def no_complete_records_cohort(seed=6, n=60):
    base = generate_synthetic(n, seed, missing_rate=(0.0,) * 4, censor_rate=0.2)
    return hide(base, np.eye(len(MODALITIES), dtype=bool)[np.arange(n) % 4])  # each misses one modality


def test_complete_regime_requires_complete_records():
    cohort = no_complete_records_cohort()
    cell = ExperimentCell("mean", "all", "complete")
    with pytest.raises(DataError, match="complete"):
        train_cell(cohort, FAST, cell)


def test_joint_finetune_requires_encoders():
    train, _ = fast_pair(n_train=80, n_test=40)
    cell = ExperimentCell("mean", mode="joint-finetune")
    with pytest.raises(ConfigError, match="stage-1"):
        train_cell(train, FAST, cell)


@pytest.mark.parametrize("kept", [[ModalityId.GENOMICS], []])
def test_joint_finetune_refuses_an_encoder_set_missing_a_modality(kept):
    train, _ = fast_pair(n_train=80, n_test=40)
    stage1 = {m: UnimodalEncoder(m, fresh_encoders(4)[m], None) for m in kept}
    missing = ", ".join(sorted(m.label for m in MODALITIES if m not in kept))
    with pytest.raises(DataError, match=f"^no encoder for modalities present in cohort: {missing}$"):
        train_cell(train, FAST, ExperimentCell("mean", mode="joint-finetune"), stage1)


def test_joint_training_runs_and_scores():
    train, test = fast_pair(n_train=120, n_test=70)
    cell = ExperimentCell("concat", "all", "all", dropout=True, mode="joint-scratch")
    predictor = train_cell(train, FAST, cell)
    scores = predictor.risk_scores(test)
    assert np.isfinite(scores).all() and scores.std() > 0
    # finetune from stage-1 encoders reaches a different optimum than scratch
    encoders = train_stage1_encoders(train, FAST, "all")
    cell_ft = ExperimentCell("concat", "all", "all", dropout=True, mode="joint-finetune")
    finetuned = train_cell(train, FAST, cell_ft, stage1_encoders=encoders)
    assert not np.array_equal(predictor_params(predictor), predictor_params(finetuned))


def test_evaluate_counts_records_emptied_by_the_scenario():
    train, _ = fast_pair(n_train=100, n_test=40)
    base = generate_synthetic(40, 77, missing_rate=(0.0,) * 4, censor_rate=0.2)
    hidden = np.zeros(base.availability.shape, dtype=bool)
    # these records only carry what the scenario removes
    hidden[:5, [ModalityId.RADIOLOGY, ModalityId.DEMOGRAPHICS]] = True
    test = hide(base, hidden)
    predictor = train_cell(train, FAST, ExperimentCell("concat"))
    result = evaluate(predictor, test, scenario_by_name("gene-pathology-missing"),
                      bootstrap=0, seed=5)
    assert result.n_dropped == 5
    assert result.n_test == 35
    assert result.std is None and result.n_resamples == 0


@pytest.fixture(scope="module")
def mean_predictor_and_test():
    train, test = fast_pair(n_train=120, n_test=70)
    return train_cell(train, FAST, ExperimentCell("mean")), test


def evaluate_by_loop(predictor, test, scenario, bootstrap, seed):
    """``evaluate`` as it was: one pairwise c-index per resample, in draw order."""
    applied = apply_scenario(test, scenario)
    risks = predictor.risk_scores(applied)
    rng = np.random.default_rng(np.random.SeedSequence([_BOOT_SALT, seed]))
    stats = bootstrap_loop(risks, applied.times, applied.events, bootstrap, rng)
    std = float(np.std(stats, ddof=1)) if len(stats) >= 2 else None
    return cindex_pairwise(risks, applied.times, applied.events), std, len(stats)


@pytest.mark.parametrize("scenario", ["complete", "pathology-missing", "gene-pathology-missing"])
def test_evaluate_equals_the_per_resample_loop(mean_predictor_and_test, scenario):
    predictor, test = mean_predictor_and_test
    for bootstrap in (0, 1, 2, 129):
        result = evaluate(predictor, test, scenario_by_name(scenario), bootstrap, seed=11)
        expected = evaluate_by_loop(predictor, test, scenario_by_name(scenario), bootstrap, 11)
        assert (result.cindex, result.std, result.n_resamples) == expected


@pytest.mark.parametrize("bootstrap", [0, 70])
def test_evaluate_builds_one_rank_plan_and_equals_the_separate_calls(mean_predictor_and_test,
                                                                     monkeypatch, bootstrap):
    predictor, test = mean_predictor_and_test
    built = []

    class CountedPlan(survival._RankPlan):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(survival, "_RankPlan", CountedPlan)
    scenario = scenario_by_name("pathology-missing")
    result = evaluate(predictor, test, scenario, bootstrap, seed=11)
    assert len(built) == 1
    applied = apply_scenario(test, scenario)
    risks = predictor.risk_scores(applied)
    rng = np.random.default_rng(np.random.SeedSequence([_BOOT_SALT, 11]))
    stats = survival.bootstrap_concordance(survival.rank_plan(risks, applied.times, applied.events),
                                           bootstrap, rng)
    expected = EvalResult(survival.concordance_index(risks, applied.times, applied.events),
                          float(np.std(stats, ddof=1)) if stats.size >= 2 else None,
                          len(applied), len(test) - len(applied), int(stats.size))
    assert len(built) == 3  # the separate calls build a plan each
    assert result == expected
    assert np.float64(result.cindex).view(np.int64) == np.float64(expected.cindex).view(np.int64)
    assert (result.std is None) == (bootstrap == 0)
    if bootstrap:
        assert np.float64(result.std).view(np.int64) == np.float64(expected.std).view(np.int64)


def test_evaluate_counts_only_resamples_with_a_comparable_pair(mean_predictor_and_test):
    predictor, test = mean_predictor_and_test
    tiny = with_columns(test.subset(range(3)), times=[1.0, 2.0, 3.0], events=[1, 0, 0])
    result = evaluate(predictor, tiny, scenario_by_name("complete"), bootstrap=200, seed=3)
    _, std, counted = evaluate_by_loop(predictor, tiny, scenario_by_name("complete"), 200, 3)
    assert 0 < result.n_resamples == counted < 200
    assert result.std == std


def test_scoring_checks_the_cohort_against_the_encoders(mean_predictor_and_test):
    predictor, test = mean_predictor_and_test
    narrow = generate_synthetic(10, 1, schema=ModalitySchema((4, 4, 4, 4), 32),
                                missing_rate=(0.0,) * 4)
    with pytest.raises(DataError, match="radiology encoder expects 16 features"):
        predictor.risk_scores(narrow)
    table = embedding_table(predictor.encoders, test)
    on_table = SurvivalPredictor(predictor.fusion)
    assert np.array_equal(on_table.risk_scores(table), predictor.risk_scores(test))
    with pytest.raises(DataError, match="radiology has width 16, expected embeddings of width 32"):
        on_table.risk_scores(test)


@pytest.mark.parametrize("mode", ["stage-1", "two-stage", "joint-scratch", "joint-finetune"])
def test_each_trainer_steps_one_vector_that_every_trained_layer_views(monkeypatch, mode):
    train, test = fast_pair(n_train=120, n_test=40)
    config = TrainConfig(seed=3, stage1_epochs=2, fusion_epochs=2)
    built, real = [], mmsurv.config.OptimizerState
    monkeypatch.setattr(mmsurv.config, "OptimizerState",
                        lambda *a, **kw: built.append(a) or real(*a, **kw))
    encoders = train_stage1_encoders(train, config, "all")
    if mode == "stage-1":
        assert len(built) == len(MODALITIES)  # one per trainer
        groups = [[u.encoder, u.head] for u in encoders.values()]
    else:
        built.clear()
        cell = ExperimentCell("mean", recon=True, mode=mode)
        predictor = train_cell(train, config, cell, None if mode == "joint-scratch" else encoders)
        assert len(built) == 1
        trained = [net for _, net in predictor.fusion.parts()]
        if mode != "two-stage":
            trained += [predictor.encoders[m] for m in MODALITIES]
        groups = [trained]
        # the --workers 2 grid hands predictors back pickled: each net then owns its params
        clone = pickle.loads(pickle.dumps(predictor))
        assert not np.shares_memory(clone.fusion.hazard_head.params, predictor.fusion.hazard_head.params)
        assert np.array_equal(clone.risk_scores(test).view(np.int64),
                              predictor.risk_scores(test).view(np.int64))
    for nets in groups:
        packed = nets[0].params.base
        assert packed.size == sum(net.params.size for net in nets)
        for net in nets:
            assert_layers_view_params(net, packed)
        if mode == "joint-finetune":  # training moved copies, not the stage-1 encoders
            assert not any(np.shares_memory(u.encoder.params, packed) for u in encoders.values())


def untrained_predictor(kind: str, seed: int = 0):
    """A fresh fusion model, with fresh SELU encoders unless ``kind`` is "table"."""
    schema = DEFAULT_SCHEMA
    if kind == "table":
        return SurvivalPredictor(init_fusion_model(FusionStrategy("mean"), seed)), embedding_schema(schema)
    encoders = {m: init_net((schema.dim(m), ENCODER_HIDDEN, schema.embed_dim), "selu", seed + 1 + m)
                for m in MODALITIES}
    return SurvivalPredictor(init_fusion_model(FusionStrategy(kind), seed), encoders), schema


def scores_block_by_block(predictor, cohort) -> np.ndarray:
    """The oracle: each SCORE_CHUNK block encoded, fused and scored as one batch."""
    out = []
    for start in range(0, len(cohort), SCORE_CHUNK):
        rows = np.arange(start, min(start + SCORE_CHUNK, len(cohort)))
        alpha = cohort.availability[rows]
        emb = np.zeros((len(rows), len(MODALITIES), predictor.fusion.strategy.embed_dim))
        for m in MODALITIES:
            present = np.flatnonzero(alpha[:, m])
            if present.size:
                x = cohort.block(m)[rows[present]]
                emb[present, m] = x if predictor.encoders is None else predictor.encoders[m].forward(x)[0]
        h, _ = fuse(predictor.fusion, emb, alpha)
        out.append(predictor.fusion.hazard_head.forward(h)[0][:, 0])
    return np.concatenate(out)


@pytest.mark.parametrize("kind", ["concat", "mean", "tensor", "table"])
@pytest.mark.parametrize("n", [1, SCORE_CHUNK - 1, SCORE_CHUNK, SCORE_CHUNK + 1, 2 * SCORE_CHUNK + 37])
def test_risk_scores_equal_each_block_scored_as_one_batch(kind, n):
    predictor, schema = untrained_predictor(kind)
    cohort = block_cohort(schema, n, seed=n)  # genomics absent from all of the first block
    assert not cohort.availability[:SCORE_CHUNK, ModalityId.GENOMICS].any()
    got = predictor.risk_scores(cohort)
    assert got.shape == (n,)
    assert np.array_equal(got.view(np.int64), scores_block_by_block(predictor, cohort).view(np.int64))


@pytest.mark.parametrize("kind", ["mean", "tensor"])
def test_scoring_memory_does_not_grow_with_the_cohort(kind):
    predictor, schema = untrained_predictor(kind)
    peaks = []
    for n in (4 * SCORE_CHUNK, 32 * SCORE_CHUNK):
        cohort = block_cohort(schema, n, seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            predictor.risk_scores(cohort)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 ** 20, peaks


# ── evaluation through the memoized embedding table ──────────────────────────

def scenario_cohort(schema, n: int, seed: int, drops: bool) -> Cohort:
    """``n`` random records, genomics absent from the whole first scoring block.

    Every record keeps radiology or demographics, so no scenario empties one,
    unless ``drops``: then every fifth record carries only pathology and
    genomics, which gene-pathology-missing empties.
    """
    rng = np.random.default_rng(seed)
    alpha = rng.random((n, len(MODALITIES))) < 0.7
    alpha[~alpha[:, [ModalityId.RADIOLOGY, ModalityId.DEMOGRAPHICS]].any(axis=1), ModalityId.RADIOLOGY] = True
    if drops:
        alpha[::5] = (False, True, True, False)
    alpha[:SCORE_CHUNK, ModalityId.GENOMICS] = False
    blocks = [np.where(alpha[:, m, None], rng.normal(size=(n, schema.dim(m))), 0.0) for m in MODALITIES]
    return Cohort(schema, [f"r{i}" for i in range(n)], rng.exponential(size=n) + 0.1,
                  (rng.random(n) < 0.7).astype(np.float64), alpha.astype(np.int64), blocks)


def rebuilt(cohort: Cohort) -> Cohort:
    """A fresh cohort over the same columns: no memo carried over."""
    return Cohort(cohort.schema, cohort.ids, cohort.times, cohort.events, cohort.availability,
                  [cohort.block(m) for m in MODALITIES], cohort.ground_truth_risk)


def evaluate_directly(predictor, test, scenario, bootstrap, seed):
    """``evaluate`` without the table: the predictor scores the applied cohort itself."""
    applied = apply_scenario(test, scenario)
    risks = predictor.risk_scores(applied)
    plan = survival.rank_plan(risks, applied.times, applied.events)
    stats = survival.bootstrap_concordance(
        plan, bootstrap, np.random.default_rng(np.random.SeedSequence([_BOOT_SALT, seed])))
    return EvalResult(float(survival.concordance_index(risks, applied.times, applied.events, plan)),
                      float(np.std(stats, ddof=1)) if stats.size >= 2 else None,
                      len(applied), len(test) - len(applied), int(stats.size))


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of the package error it raises."""
    try:
        return fn(*args)
    except MmsurvError as e:
        return type(e), str(e)


def fresh_encoders(seed: int) -> dict:
    schema = DEFAULT_SCHEMA
    return {m: init_net((schema.dim(m), ENCODER_HIDDEN, schema.embed_dim), "selu", [seed, m])
            for m in MODALITIES}


@pytest.fixture(scope="module")
def eval_predictors():
    """{(kind, encoder set): predictor}: two encoder sets shared by all three fusions, and
    embedding-input predictors under the encoder set None."""
    fusions = {kind: init_fusion_model(FusionStrategy(kind), 3) for kind in ("concat", "mean", "tensor")}
    sets = {0: fresh_encoders(1), 1: fresh_encoders(2), None: None}
    return {(kind, s): SurvivalPredictor(fusion, encoders)
            for kind, fusion in fusions.items() for s, encoders in sets.items()}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from([1, 7, SCORE_CHUNK - 1, SCORE_CHUNK, SCORE_CHUNK + 1, 2 * SCORE_CHUNK + 37]),
       seed=st.integers(0, 2**16), drops=st.booleans(), table=st.booleans(),
       calls=st.lists(st.tuples(st.sampled_from(["concat", "mean", "tensor"]), st.sampled_from([0, 1]),
                                st.sampled_from(sorted(SCENARIOS))), min_size=1, max_size=6))
def test_evaluations_on_one_cohort_equal_each_on_a_fresh_cohort(eval_predictors, monkeypatch, n, seed, drops,
                                                                table, calls):
    ranked, rank_plan = [], mmsurv.pipeline.rank_plan   # the scores evaluate ranks, kept for their bits
    monkeypatch.setattr(mmsurv.pipeline, "rank_plan", lambda risks, *a: ranked.append(risks) or
                        rank_plan(risks, *a))
    test = scenario_cohort(embedding_schema(DEFAULT_SCHEMA) if table else DEFAULT_SCHEMA, n, seed, drops)
    for kind, encoder_set, name in calls:   # scenarios repeat, predictors share or swap encoders
        predictor = eval_predictors[kind, None if table else encoder_set]
        args = scenario_by_name(name), 3, seed
        ranked.clear()
        got = outcome(evaluate, predictor, test, *args)
        assert got == outcome(evaluate, predictor, rebuilt(test), *args)
        assert got == outcome(evaluate_directly, predictor, test, *args)
        if isinstance(got, EvalResult):   # the memo's and a fresh cohort's scores, bit for bit
            direct = predictor.risk_scores(apply_scenario(test, args[0]))
            assert [risks.tobytes() for risks in ranked] == [direct.tobytes()] * 2
    assert not rebuilt(test)._memo


def test_an_encoder_changed_in_place_is_encoded_again(eval_predictors):
    predictor = eval_predictors["mean", 0]
    predictor = SurvivalPredictor(predictor.fusion, {m: net.copy() for m, net in predictor.encoders.items()})
    test, scenario = scenario_cohort(DEFAULT_SCHEMA, SCORE_CHUNK + 9, 4, False), scenario_by_name("complete")
    before = evaluate(predictor, test, scenario, 5, 1)
    predictor.encoders[ModalityId.RADIOLOGY].params[7] += 4.0
    after = evaluate(predictor, test, scenario, 5, 1)
    assert after == evaluate(predictor, rebuilt(test), scenario, 5, 1) != before


def test_predictors_sharing_encoders_share_one_memo_entry(eval_predictors, monkeypatch):
    encoded, column = [], mmsurv.unimodal._column
    monkeypatch.setattr(mmsurv.unimodal, "_column", lambda nets, m, cohort: encoded.append(m) or
                        column(nets, m, cohort))
    test = scenario_cohort(DEFAULT_SCHEMA, 2 * SCORE_CHUNK + 3, 5, False)
    for kind in ("concat", "mean", "tensor"):
        for name in sorted(SCENARIOS):
            evaluate(eval_predictors[kind, 0], test, scenario_by_name(name), 2, 1)
    assert sorted(encoded) == list(MODALITIES)   # each modality once, for all nine evaluations
    held = dict(test._memo)
    evaluate(eval_predictors["mean", 1], test, scenario_by_name("gene-pathology-missing"), 2, 1)
    assert len(encoded) == 6   # the other set replaces the two columns it needs, and only those
    assert [test._memo[m][1] is held[m][1] for m in MODALITIES] == [False, True, True, False]


def test_a_view_that_drops_no_record_shares_its_cohorts_memo(eval_predictors):
    nets = eval_predictors["mean", 0].encoders
    test = scenario_cohort(DEFAULT_SCHEMA, SCORE_CHUNK + 5, 9, False)
    for name in sorted(SCENARIOS):
        assert apply_scenario(test, scenario_by_name(name))._memo is test._memo
    gappy = scenario_cohort(DEFAULT_SCHEMA, SCORE_CHUNK + 5, 9, True)
    embedding_table(nets, gappy)
    held = dict(gappy._memo)
    view = apply_scenario(gappy, scenario_by_name("gene-pathology-missing"))
    assert len(view) < len(gappy) and view._memo == {}
    embedding_table(nets, view)
    assert sorted(view._memo) == [ModalityId.RADIOLOGY, ModalityId.DEMOGRAPHICS]
    assert gappy._memo.keys() == held.keys() and all(gappy._memo[m] is held[m] for m in held)


@pytest.mark.parametrize("kind", ["concat", "mean", "tensor"])
def test_a_non_finite_embedding_is_a_numerical_error_unless_the_scenario_hides_it(eval_predictors, kind):
    encoders = {m: net.copy() for m, net in eval_predictors[kind, 0].encoders.items()}
    encoders[ModalityId.PATHOLOGY].params[...] = 1e300   # its second layer overflows
    predictor = SurvivalPredictor(eval_predictors[kind, 0].fusion, encoders)
    test = scenario_cohort(DEFAULT_SCHEMA, SCORE_CHUNK + 5, 6, False)
    for name in ("complete", "pathology-missing", "complete"):
        with np.errstate(over="ignore", invalid="ignore"):
            got = outcome(evaluate, predictor, test, scenario_by_name(name), 4, 1)
            assert got == outcome(evaluate_directly, predictor, test, scenario_by_name(name), 4, 1)
        assert isinstance(got, EvalResult) == (name == "pathology-missing")
    assert got == (NumericalError, "non-finite network input")


def test_a_predictor_without_an_encoder_for_a_hidden_modality_still_evaluates(eval_predictors):
    full = eval_predictors["tensor", 0]
    partial = SurvivalPredictor(full.fusion, {m: net for m, net in full.encoders.items()
                                              if m != ModalityId.PATHOLOGY})
    test = scenario_cohort(DEFAULT_SCHEMA, SCORE_CHUNK + 5, 7, True)
    for name in ("pathology-missing", "gene-pathology-missing"):
        result = evaluate(partial, test, scenario_by_name(name), 4, 1)
        assert result == evaluate(full, rebuilt(test), scenario_by_name(name), 4, 1)
    with pytest.raises(DataError, match="^no encoder for modalities present in cohort: pathology$"):
        evaluate(partial, test, scenario_by_name("complete"), 4, 1)


def test_the_memo_holds_one_column_per_modality(eval_predictors):
    test = scenario_cohort(DEFAULT_SCHEMA, 4 * SCORE_CHUNK + 3, 8, False)
    embed = DEFAULT_SCHEMA.embed_dim
    bound = (len(test) + SCORE_CHUNK) * len(MODALITIES) * embed * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = []
        for encoder_set in (0, 1, 0):   # each set replaces the other's columns
            for name in sorted(SCENARIOS):
                evaluate(eval_predictors["mean", encoder_set], test, scenario_by_name(name), 3, 1)
            held.append(tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    assert all(len(test) * len(MODALITIES) * embed * 8 <= size <= bound for size in held), (held, bound)


def test_importing_the_package_loads_no_process_pool():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", "import sys, mmsurv; "
                           "print('concurrent.futures.process' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_predictor_checkpoint_round_trip(tmp_path):
    train, test = fast_pair(n_train=100, n_test=50)
    predictor = train_cell(train, FAST, ExperimentCell("mean", recon=True))
    path = tmp_path / "model.json"
    save_predictor(predictor, str(path))
    loaded = load_predictor(str(path))
    assert np.array_equal(predictor.risk_scores(test), loaded.risk_scores(test))


def test_grid_preset_covers_the_published_layout():
    cells = table_cells()
    assert len(cells) == 18 * 3
    mean_rows = {c.training_key() for c in cells if c.strategy == "mean"}
    assert len(mean_rows) == 10
    for strat in ("concat", "tensor"):
        rows = {c.training_key() for c in cells if c.strategy == strat}
        assert len(rows) == 4
        assert all(key[2] == "all" for key in rows)  # stage 1 regime
        assert not any(key[5] for key in rows)  # no recon outside mean vector
    best = ExperimentCell("mean", "all", "all", True, True, "gene-pathology-missing")
    assert best in cells
    scenarios = {c.scenario for c in cells}
    assert scenarios == {"complete", "pathology-missing", "gene-pathology-missing"}


def test_grid_shares_models_and_reports_every_cell(tmp_path, caplog):
    train, test = fast_pair(n_train=120, n_test=70)
    cells = [
        ExperimentCell("concat", "all", "all", scenario="complete"),
        ExperimentCell("concat", "all", "all", scenario="pathology-missing"),
        ExperimentCell("mean", "all", "all", scenario="complete"),
        ExperimentCell("concat", "all", "all", scenario="complete"),  # duplicate
    ]
    import logging
    with caplog.at_level(logging.WARNING, logger="mmsurv.pipeline"):
        report = run_ablation_grid(train, test, cells, FAST, out_dir=str(tmp_path))
    assert "duplicate" in caplog.text
    assert len(report.rows) == 3
    by_scenario = {r["scenario"]: r for r in report.rows if r["strategy"] == "concat"}
    assert by_scenario["complete"]["params"] == by_scenario["pathology-missing"]["params"]
    assert all(r["error"] is None for r in report.rows)
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == ",".join(AblationReport.CSV_COLUMNS)
    assert len(csv_text.splitlines()) == 4
    md = (tmp_path / "report.md").read_text()
    assert "pathology-missing" in md.splitlines()[0]
    import json
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["seed"] == FAST.seed
    assert [row["n_resamples"] for row in payload["rows"]] == [FAST.bootstrap] * 3
    assert "n_resamples" not in csv_text
    assert len(payload["rows"]) == 3


def test_grid_records_cell_failures_and_continues():
    train = no_complete_records_cohort(n=80)
    _, test = fast_pair(n_train=40, n_test=60)
    cells = [
        ExperimentCell("concat", "all", "complete", scenario="complete"),  # must fail
        ExperimentCell("concat", "all", "all", scenario="complete"),
    ]
    report = run_ablation_grid(train, test, cells, FAST)
    assert report.rows[0]["error"] is not None
    assert report.rows[0]["cindex_mean"] is None
    assert report.rows[1]["error"] is None
    assert report.rows[1]["cindex_mean"] is not None


def test_a_failed_stage1_regime_fails_only_the_cells_that_need_it():
    train = no_complete_records_cohort(n=80)
    _, test = fast_pair(n_train=40, n_test=60)
    cells = [ExperimentCell("mean", s1, s2, scenario=scen)
             for s1, s2 in (("complete", "complete"), ("all", "complete"), ("all", "all"))
             for scen in ("complete", "pathology-missing")]
    cells.append(ExperimentCell("mean", "complete", "all", mode="joint-scratch"))
    reports = [run_ablation_grid(train, test, cells, FAST, workers=w) for w in (1, 2)]
    assert reports[0].rows == reports[1].rows
    by_regimes = {}
    for row in reports[0].rows:
        by_regimes.setdefault((row["mode"], row["stage1_data"], row["stage2_data"]), []).append(row)
    for row in by_regimes[("two-stage", "complete", "complete")]:
        assert row["cindex_mean"] is None
        assert row["error"].startswith("stage 1 (complete data): no complete-modality records")
    for row in by_regimes[("two-stage", "all", "complete")]:
        assert row["cindex_mean"] is None and row["error"].startswith("stage 2 (complete data)")
    for key in (("two-stage", "all", "all"), ("joint-scratch", "complete", "all")):
        for row in by_regimes[key]:
            assert row["error"] is None and row["cindex_mean"] is not None


def test_grid_worker_pool_matches_serial():
    train, test = fast_pair(n_train=100, n_test=60)
    cells = [ExperimentCell(s, "all", "all", scenario="complete") for s in ("concat", "mean")]
    serial = run_ablation_grid(train, test, cells, FAST, workers=1)
    parallel = run_ablation_grid(train, test, cells, FAST, workers=2)
    assert serial.to_csv_text() == parallel.to_csv_text()


def test_grid_starts_no_more_workers_than_training_jobs(monkeypatch):
    sizes = []

    class InProcessPool:  # records the pool size and maps here, so no process starts
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    train, test = fast_pair(n_train=100, n_test=60)
    two_jobs = [ExperimentCell(s, "all", "all", scenario=scen)
                for s in ("concat", "mean") for scen in ("complete", "pathology-missing")]
    serial = run_ablation_grid(train, test, two_jobs, FAST, workers=1)
    assert run_ablation_grid(train, test, two_jobs, FAST, workers=500).rows == serial.rows
    assert sizes == [2]
    one_job = two_jobs[:2]  # two scenarios of one trained configuration
    assert run_ablation_grid(train, test, one_job, FAST, workers=8).rows == serial.rows[:2]
    assert sizes == [2]  # one job runs in-process, without a pool


@pytest.mark.parametrize("workers", [0, -2])
def test_grid_rejects_worker_counts_below_one(workers):
    train, test = fast_pair(n_train=60, n_test=40)
    cells = [ExperimentCell("concat", "all", "all", scenario="complete")]
    with pytest.raises(ConfigError, match=f"workers must be at least 1, got {workers}"):
        run_ablation_grid(train, test, cells, FAST, workers=workers)


def test_default_pair_shares_the_generative_family():
    train, test = default_synthetic_pair(seed=12, n_train=300, n_test=200)
    assert len(train) == 300 and len(test) == 200
    assert test.availability.all()
    assert not train.availability.all()
    from mmsurv.survival import concordance_index
    ci_tr = concordance_index(train.ground_truth_risk, train.times, train.events)
    ci_te = concordance_index(test.ground_truth_risk, test.times, test.events)
    assert abs(ci_tr - ci_te) < 0.08  # same population, different draws


def test_each_training_step_makes_one_cox_call(monkeypatch):
    counts = {}

    def counted(module, name, key):
        f = getattr(module, name)

        def wrapper(*args):
            counts[key] = counts.get(key, 0) + 1
            return f(*args)
        monkeypatch.setattr(module, name, wrapper)

    config = TrainConfig(seed=5, stage1_epochs=2, fusion_epochs=2)
    step = mmsurv.config.optimizer_step

    def counted_step(params, grad, state):  # the two stages step at their own rates
        key = "stage-1 steps" if state.lr == config.stage1_lr else "fusion steps"
        counts[key] = counts.get(key, 0) + 1
        return step(params, grad, state)

    assert config.stage1_lr != config.fusion_lr
    counted(mmsurv.unimodal, "cox_loss_and_grad", "stage-1 cox")
    counted(mmsurv.fusion, "cox_loss_and_grad", "fusion cox")
    monkeypatch.setattr(mmsurv.config, "optimizer_step", counted_step)
    train, _ = fast_pair(n_train=120, n_test=40)
    train_cell(train, config, ExperimentCell("mean", recon=True))
    assert counts["stage-1 steps"] > 0 and counts["fusion steps"] > 0
    assert counts["stage-1 cox"] == counts["stage-1 steps"]
    assert counts["fusion cox"] == counts["fusion steps"]
