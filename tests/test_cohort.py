from __future__ import annotations

import itertools
import json
import os
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import Row, cohort_csv_text, cohort_from_rows, cohorts_equal, generate_synthetic_where
from mmsurv import cohort as cohort_module
from mmsurv.cohort import (DEFAULT_SCHEMA, MODALITIES, N_MODALITIES, SCENARIOS, Cohort,
                           MissingnessScenario, ModalityId, ModalitySchema, apply_scenario,
                           complete_subset, embedding_schema, generate_synthetic, load_cohort,
                           load_schema, save_cohort, save_schema, scenario_by_name)
from mmsurv.errors import ConfigError, DataError
from mmsurv.survival import concordance_index

SMALL_SCHEMA = ModalitySchema(raw_dims=(3, 2, 4, 2), embed_dim=5)


def make_record(rid, time=10.0, event=1, present=(1, 1, 1, 1), schema=SMALL_SCHEMA, fill=1.0):
    feats = tuple(np.full(schema.dim(m), fill) if present[m] else None for m in MODALITIES)
    return Row(rid, time, event, feats)


def pattern(record):
    """The 0/1 presence flags of one record, in modality order."""
    return [int(record.has(m)) for m in MODALITIES]


def make_cohort(n=6, schema=SMALL_SCHEMA, presents=None):
    presents = presents or [(1, 1, 1, 1)] * n
    records = [make_record(f"r{i}", time=float(i + 1), event=i % 2, present=presents[i],
                           schema=schema, fill=float(i)) for i in range(n)]
    return cohort_from_rows(schema, records)


def test_modality_order_is_fixed():
    assert [m.label for m in MODALITIES] == ["radiology", "pathology", "genomics", "demographics"]
    assert ModalityId.from_name("genomics") == ModalityId.GENOMICS
    with pytest.raises(ConfigError):
        ModalityId.from_name("sonography")


def test_record_validation():
    for row, message in [(make_record("x", time=0.0), "record 'x': survival time must be finite and positive"),
                         (make_record("x", event=2), "record 'x': event must be 0 or 1"),
                         (make_record("x", present=(0, 0, 0, 0)), "record 'x': no modality available"),
                         (make_record(""), "record id must be non-empty"),
                         (make_record("x", fill=np.nan),
                          "record 'x': radiology features must be a finite vector")]:
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            cohort_from_rows(SMALL_SCHEMA, [row])
    c = cohort_from_rows(SMALL_SCHEMA, [make_record("x", present=(0, 1, 0, 0))])
    assert pattern(c.records[0]) == [0, 1, 0, 0]
    assert len(complete_subset(c)) == 0


def test_absent_rows_must_hold_zeros(tmp_path):
    cohort = make_cohort(3, presents=[(1, 1, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)])
    blocks = [cohort.block(m).copy() for m in MODALITIES]
    for stray in (5.0, np.nan, -np.inf):
        blocks[ModalityId.RADIOLOGY][1, 2] = stray
        with pytest.raises(DataError, match="^record 'r1': radiology marked absent but has feature values$"):
            Cohort(SMALL_SCHEMA, cohort.ids, cohort.times, cohort.events, cohort.availability, blocks)
    blocks[ModalityId.RADIOLOGY][1] = -0.0   # a signed zero is still no value: it saves as empty cells
    signed = Cohort(SMALL_SCHEMA, cohort.ids, cohort.times, cohort.events, cohort.availability, blocks)
    save_cohort(signed, str(tmp_path / "c.csv"))
    again = load_cohort(str(tmp_path / "c.csv"), SMALL_SCHEMA)
    assert cohorts_equal(again, signed) and not np.signbit(again.block(ModalityId.RADIOLOGY)).any()


def test_availability_flags_must_be_zero_or_one(tmp_path):
    cohort = make_cohort(2)
    blocks = [cohort.block(m) for m in MODALITIES]
    with pytest.raises(DataError, match="^record 'r0': radiology_present must be 0 or 1$"):
        Cohort(SMALL_SCHEMA, cohort.ids, cohort.times, cohort.events, [[2, 1, 1, 1], [1, -1, 1, 1]], blocks)
    with pytest.raises(DataError, match="^record 'r1': pathology_present must be 0 or 1$"):
        Cohort(SMALL_SCHEMA, cohort.ids, cohort.times, cohort.events, [[1, 1, 1, 1], [1, -1, 1, 1]], blocks)
    with pytest.raises(DataError, match="^record 'r1': genomics_present must be 0 or 1$"):
        Cohort(SMALL_SCHEMA, cohort.ids, cohort.times, cohort.events, [[1, 1, 1, 1], [1, 1, 1.5, 1]], blocks)
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    path.write_text(path.read_text().replace("r1,2.0,1,1,", "r1,2.0,1,2,"))
    with pytest.raises(DataError, match="record 'r1': radiology_present must be 0 or 1$"):
        load_cohort(str(path), SMALL_SCHEMA)   # the loader's wording


def test_cohort_rejects_duplicate_ids_and_bad_dims():
    records = [make_record("a"), make_record("a")]
    with pytest.raises(DataError):
        cohort_from_rows(SMALL_SCHEMA, records)
    wrong = Row("b", 1.0, 1, (np.ones(99), None, None, np.ones(2)))
    with pytest.raises(DataError):
        cohort_from_rows(SMALL_SCHEMA, [wrong])


def test_schema_round_trip(tmp_path):
    path = tmp_path / "cohort.schema"
    save_schema(DEFAULT_SCHEMA, str(path))
    assert load_schema(str(path)) == DEFAULT_SCHEMA


def test_schema_file_errors(tmp_path):
    path = tmp_path / "bad.schema"
    path.write_text("radiology_dim=16\n")
    with pytest.raises(DataError, match="missing schema keys"):
        load_schema(str(path))
    path.write_text("radiology_dim=two\n")
    with pytest.raises(DataError, match="must be an integer"):
        load_schema(str(path))
    save_schema(DEFAULT_SCHEMA, str(path))
    path.write_text(path.read_text().replace("radiology_dim=16", "radiology_dim=0"))
    with pytest.raises(DataError, match="bad.schema: radiology_dim must be positive"):
        load_schema(str(path))


def test_embedding_schema_is_square():
    es = embedding_schema(DEFAULT_SCHEMA)
    assert es.raw_dims == (32, 32, 32, 32) and es.embed_dim == 32


def test_save_load_round_trip_exact(tmp_path):
    cohort = generate_synthetic(40, seed=5, schema=SMALL_SCHEMA)
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    again = load_cohort(str(path), SMALL_SCHEMA)
    assert cohorts_equal(cohort, again)
    # and the reload serializes to identical bytes, the column cache too
    path2 = tmp_path / "c2.csv"
    save_cohort(again, str(path2))
    assert path.read_bytes() == path2.read_bytes()
    assert (tmp_path / "c.csv.cache").read_bytes() == (tmp_path / "c2.csv.cache").read_bytes()


# Ids the csv module must quote (a comma, a quote, line breaks), non-ASCII
# text and ids it leaves bare though they look special.
TRICKY_IDS = ["a,b", 'say "hi"', '"', ",", "line\nbreak", "cr\rhere", "crlf\r\n", "Ünïcødé",
              "日本語", "emoji\U0001F600", " lead", "trail ", "tab\tx", "'single'", "#hash", "0"]


@pytest.mark.parametrize("with_gt", [True, False])
def test_save_cohort_writes_the_bytes_of_csv_writer(tmp_path, with_gt):
    rng = np.random.default_rng(3)
    n = len(TRICKY_IDS)
    extremes = [5e-324, -0.0, 1e308, -1.0 / 3.0, 2.0 ** 52 + 1.0, 1e-7, 123456789.0]
    rows = []
    for i, rid in enumerate(TRICKY_IDS):
        present = PATTERNS[i % len(PATTERNS)]
        feats = tuple(np.resize(np.roll(np.r_[extremes, rng.normal(size=4)], i + m), SMALL_SCHEMA.dim(m))
                      if present[m] else None for m in MODALITIES)
        rows.append(Row(rid, float(rng.exponential()) + 1e-3, i % 2, feats))
    cohort = cohort_from_rows(SMALL_SCHEMA, rows, rng.normal(size=n) if with_gt else None)
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    assert path.read_bytes() == cohort_csv_text(cohort).encode("utf-8")
    assert cohorts_equal(load_cohort(str(path), SMALL_SCHEMA), cohort)


def test_round_trip_without_ground_truth(tmp_path):
    cohort = make_cohort()
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    again = load_cohort(str(path), SMALL_SCHEMA)
    assert again.ground_truth_risk is None
    assert cohorts_equal(cohort, again)


def test_load_rejects_malformed_rows(tmp_path):
    cohort = make_cohort(4)
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    lines = path.read_text().splitlines()

    truncated = tmp_path / "t.csv"
    truncated.write_text("\n".join([lines[0], lines[1][: lines[1].rindex(",")]]) + "\n")
    with pytest.raises(DataError, match="r0"):
        load_cohort(str(truncated), SMALL_SCHEMA)

    garbled = tmp_path / "g.csv"
    garbled.write_text("\n".join([lines[0], lines[1].replace("r0,1.0", "r0,soon")]) + "\n")
    with pytest.raises(DataError, match="malformed numeric"):
        load_cohort(str(garbled), SMALL_SCHEMA)

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_cohort(str(empty), SMALL_SCHEMA)

    header_only = tmp_path / "h.csv"
    header_only.write_text(lines[0] + "\n")
    with pytest.raises(DataError, match="no records"):
        load_cohort(str(header_only), SMALL_SCHEMA)


def test_load_rejects_schema_mismatch(tmp_path):
    cohort = make_cohort()
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    other = ModalitySchema(raw_dims=(3, 2, 4, 3), embed_dim=5)
    with pytest.raises(DataError, match="header"):
        load_cohort(str(path), other)


def test_load_rejects_negative_time_naming_record(tmp_path):
    cohort = make_cohort(3)
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    text = path.read_text().replace("r1,2.0", "r1,-2.0")
    path.write_text(text)
    with pytest.raises(DataError, match="r1"):
        load_cohort(str(path), SMALL_SCHEMA)


def test_load_rejects_zero_event_file(tmp_path):
    records = [make_record(f"r{i}", event=0) for i in range(3)]
    cohort = cohort_from_rows(SMALL_SCHEMA, records)
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    with pytest.raises(DataError, match="zero observed events"):
        load_cohort(str(path), SMALL_SCHEMA)


def test_absent_block_round_trips_as_absent(tmp_path):
    presents = [(1, 0, 1, 1), (1, 1, 1, 1), (0, 1, 0, 1)]
    cohort = make_cohort(3, presents=presents)
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    again = load_cohort(str(path), SMALL_SCHEMA)
    assert pattern(again.records[0]) == [1, 0, 1, 1]
    assert pattern(again.records[2]) == [0, 1, 0, 1]
    assert again.records[0].features[ModalityId.PATHOLOGY] is None


def test_synthetic_no_missingness_no_censoring():
    c = generate_synthetic(30, seed=1, missing_rate=(0, 0, 0, 0), censor_rate=0.0)
    assert np.all(c.availability == 1)
    assert np.all(c.events == 1.0)
    assert np.all(c.times > 0)


def test_synthetic_deterministic_given_seed(tmp_path):
    a = generate_synthetic(25, seed=9)
    b = generate_synthetic(25, seed=9)
    assert cohorts_equal(a, b)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_cohort(a, str(pa))
    save_cohort(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    assert not cohorts_equal(a, generate_synthetic(25, seed=10))


@pytest.mark.parametrize("n,seed,options", [
    (4000, 1_000_001, dict(missing_rate=(0.0,) * 4)),   # seed 1's complete 4,000-record test cohort
    (500, 1, {}),
    (300, 3, dict(mnar=True)),
    (300, 4, dict(mnar=True, missing_rate=(0.6, 0.2, 0.0, 0.4), censor_rate=0.5)),
    (50, 5, dict(missing_rate=(0.1, 0.5, 0.9, 0.0), family_seed=2)),
    (2, 0, {}),
    (2, 7, dict(missing_rate=(0.9,) * 4)),
    (60, 8, dict(schema=SMALL_SCHEMA, missing_rate=(0.5,) * 4)),
])
def test_synthetic_blocks_have_the_bits_of_the_where_formula(n, seed, options):
    got, want = generate_synthetic(n, seed, **options), generate_synthetic_where(n, seed, **options)
    assert cohorts_equal(got, want)
    for m in MODALITIES:
        assert np.array_equal(got.block(m).view(np.int64), want.block(m).view(np.int64))


def test_generating_20000_records_holds_each_block_about_once():
    # the blocks take 19.4 MB (121 floats a record) and the widest projection
    # 12.8 MB while it is added; measured 31.4 MiB, and 43.6 MiB with an
    # np.where copy of every block
    tracemalloc.start()
    try:
        generate_synthetic(20000, seed=2, missing_rate=(0.0,) * 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2**20


def test_synthetic_always_keeps_one_modality():
    c = generate_synthetic(300, seed=2, missing_rate=(0.8, 0.8, 0.8, 0.8))
    assert c.availability.sum(axis=1).min() >= 1


def test_synthetic_censoring_rate_and_shrunk_times():
    c = generate_synthetic(2000, seed=3, censor_rate=0.4)
    frac = 1.0 - c.events.mean()
    assert abs(frac - 0.4) < 0.05


def test_synthetic_ground_truth_risk_orders_times():
    # generator oracle: true risk must rank uncensored survival strongly
    c = generate_synthetic(500, seed=0, censor_rate=0.0)
    ci = concordance_index(c.ground_truth_risk, c.times, c.events)
    assert ci >= 0.85


def test_separately_generated_cohorts_share_the_population():
    # train/test pairs drawn with different seeds must come from one family:
    # a risk ranking learned on one must transfer to the other, which shows
    # up as the oracle risk scoring both cohorts equally well
    train = generate_synthetic(300, seed=21, censor_rate=0.0)
    test = generate_synthetic(300, seed=9921, censor_rate=0.0)
    ci_train = concordance_index(train.ground_truth_risk, train.times, train.events)
    ci_test = concordance_index(test.ground_truth_risk, test.times, test.events)
    assert abs(ci_train - ci_test) < 0.05


def test_synthetic_mnar_ties_pathology_missingness_to_risk():
    c = generate_synthetic(1500, seed=4, mnar=True)
    avail = c.availability[:, ModalityId.PATHOLOGY]
    risk = c.ground_truth_risk
    high = risk > np.median(risk)
    missing_high = 1.0 - avail[high].mean()
    missing_low = 1.0 - avail[~high].mean()
    assert missing_high > missing_low + 0.1


def test_synthetic_rejects_bad_rates():
    with pytest.raises(ConfigError):
        generate_synthetic(10, seed=0, missing_rate=(1.0, 0, 0, 0))
    with pytest.raises(ConfigError):
        generate_synthetic(10, seed=0, missing_rate=(np.nan,) * 4)
    with pytest.raises(ConfigError):
        generate_synthetic(10, seed=0, censor_rate=1.0)
    with pytest.raises(ConfigError):
        generate_synthetic(1, seed=0)
    with pytest.raises(ConfigError, match="non-negative"):
        generate_synthetic(10, seed=-1)
    with pytest.raises(ConfigError, match="non-negative"):
        generate_synthetic(10, seed=0, family_seed=-1)


def test_scenario_cannot_drop_everything():
    with pytest.raises(ConfigError):
        MissingnessScenario("all", frozenset(MODALITIES))
    assert scenario_by_name("complete").drop == frozenset()
    with pytest.raises(ConfigError):
        scenario_by_name("nope")


def test_apply_scenario_masks_named_modalities():
    c = make_cohort(4)
    out = apply_scenario(c, scenario_by_name("pathology-missing"))
    assert np.all(out.availability[:, ModalityId.PATHOLOGY] == 0)
    assert np.all(out.availability[:, ModalityId.RADIOLOGY] == 1)
    both = apply_scenario(c, scenario_by_name("gene-pathology-missing"))
    assert pattern(both.records[0]) == [1, 0, 0, 1]


def test_apply_scenario_idempotent_and_complete_is_identity():
    c = make_cohort(4)
    assert cohorts_equal(apply_scenario(c, scenario_by_name("complete")), c)
    once = apply_scenario(c, scenario_by_name("pathology-missing"))
    twice = apply_scenario(once, scenario_by_name("pathology-missing"))
    assert cohorts_equal(once, twice)


def test_apply_scenario_drops_emptied_records():
    presents = [(1, 1, 1, 1), (0, 1, 0, 0), (1, 1, 1, 1), (0, 1, 0, 0)]
    records = [make_record(f"r{i}", time=float(i + 1), event=1, present=presents[i])
               for i in range(4)]
    c = cohort_from_rows(SMALL_SCHEMA, records)
    out = apply_scenario(c, scenario_by_name("pathology-missing"))
    assert len(out) == 2
    assert [r.id for r in out.records] == ["r0", "r2"]


def test_apply_scenario_refuses_eventless_result():
    presents = [(1, 1, 1, 1), (0, 1, 0, 0)]
    records = [make_record("a", event=0, present=presents[0]),
               make_record("b", event=1, present=presents[1])]
    c = cohort_from_rows(SMALL_SCHEMA, records)
    with pytest.raises(DataError, match="zero observed events"):
        apply_scenario(c, scenario_by_name("pathology-missing"))


def test_complete_subset_filters_partial_records():
    presents = [(1, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)]
    c = make_cohort(3, presents=presents)
    sub = complete_subset(c)
    assert [r.id for r in sub.records] == ["r0", "r2"]


def test_a_subset_reruns_no_record_check_and_checks_only_its_indices(monkeypatch):
    c = make_cohort(4, presents=[(1, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1), (0, 1, 0, 0)])

    def checked(rows):  # the records at ``rows`` as the constructor builds and checks them
        return column_bits(Cohort(c.schema, c.ids[rows], c.times[rows], c.events[rows], c.availability[rows],
                                  [c.block(m)[rows] for m in MODALITIES]))

    expected_sub, expected_complete = checked([3, 0]), checked([0, 2])

    def refuse(*args):
        raise AssertionError("a subset ran the record checks again")

    monkeypatch.setattr(cohort_module, "_row_error", refuse)
    sub = c.subset([3, 0])
    assert sub.ids.tolist() == ["r3", "r0"] and column_bits(sub) == expected_sub
    assert column_bits(complete_subset(c)) == expected_complete
    assert sub._memo == {} and sub._memo is not c._memo
    with pytest.raises(DataError, match="^duplicate record id 'r1'$"):
        c.subset([1, 2, 1])
    with pytest.raises(DataError, match=re.escape("subset indices must be one-dimensional, got shape (1, 2)")):
        c.subset([[0, 1]])


# ── columnar storage against record-by-record reference implementations ──────
#
# These are the list-of-records implementations the columns replaced. They
# work on the rows a cohort was built from, never on its columns.

def oracle_availability(records):
    return np.array([pattern(r) for r in records], dtype=np.int64).reshape(len(records), N_MODALITIES)


def oracle_block(records, schema, modality):
    out = np.zeros((len(records), schema.dim(modality)))
    for i, r in enumerate(records):
        if r.has(modality):
            out[i] = r.features[modality]
    return out


def oracle_subset(records, gt, indices):
    indices = list(indices)
    return [records[i] for i in indices], None if gt is None else gt[indices]


def oracle_complete_subset(records, gt):
    return oracle_subset(records, gt, [i for i, r in enumerate(records) if all(pattern(r))])


def oracle_apply_scenario(records, gt, scenario):
    """Scenario view by rebuilding every record; raises DataError when no event is left."""
    out, kept = [], []
    for i, r in enumerate(records):
        feats = tuple(None if m in scenario.drop else r.features[m] for m in MODALITIES)
        if all(x is None for x in feats):
            continue
        out.append(Row(r.id, r.time, r.event, feats))
        kept.append(i)
    if not out or not any(r.event for r in out):
        raise DataError("no event left")
    return out, None if gt is None else gt[kept]


def assert_columns_match(cohort, records, gt):
    assert cohort.ids.tolist() == [r.id for r in records]
    assert np.array_equal(cohort.times, np.array([r.time for r in records], dtype=np.float64))
    assert np.array_equal(cohort.events, np.array([r.event for r in records], dtype=np.float64))
    assert cohort.events.dtype == np.float64 and cohort.availability.dtype == np.int64
    assert np.array_equal(cohort.availability, oracle_availability(records))
    for m in MODALITIES:
        assert np.array_equal(cohort.block(m), oracle_block(records, cohort.schema, m))
    if gt is None:
        assert cohort.ground_truth_risk is None
    else:
        assert np.array_equal(cohort.ground_truth_risk, gt)


PATTERNS = [p for p in itertools.product((0, 1), repeat=N_MODALITIES) if any(p)]
DROP_SETS = [frozenset(d) for k in range(N_MODALITIES) for d in itertools.combinations(MODALITIES, k)]


@st.composite
def record_lists(draw):
    schema = ModalitySchema(raw_dims=tuple(draw(st.integers(1, 3)) for _ in MODALITIES), embed_dim=2)
    n = draw(st.integers(1, 10))
    values = st.floats(allow_nan=False, allow_infinity=False)
    records = []
    for i in range(n):
        present = draw(st.sampled_from(PATTERNS))
        feats = tuple(np.array(draw(st.lists(values, min_size=schema.dim(m), max_size=schema.dim(m))))
                      if present[m] else None for m in MODALITIES)
        records.append(Row(f"r{i}", draw(st.floats(1e-3, 1e6)), draw(st.integers(0, 1)), feats))
    gt = draw(st.none() | st.lists(values, min_size=n, max_size=n).map(np.array))
    return schema, records, gt


def check_against_oracles(schema, records, gt, scenario, indices):
    cohort = cohort_from_rows(schema, records, gt)
    assert_columns_match(cohort, records, gt)
    rows = [(r.id, r.time, r.event, r.features) for r in cohort.records]
    assert_columns_match(cohort_from_rows(schema, rows, gt), records, gt)  # the row view round trips
    assert_columns_match(cohort.subset(indices), *oracle_subset(records, gt, indices))
    assert_columns_match(complete_subset(cohort), *oracle_complete_subset(records, gt))
    try:
        expected = oracle_apply_scenario(records, gt, scenario)
    except DataError:
        with pytest.raises(DataError):
            apply_scenario(cohort, scenario)
        return
    applied = apply_scenario(cohort, scenario)
    assert_columns_match(applied, *expected)
    assert cohorts_equal(apply_scenario(applied, scenario), applied)


@settings(max_examples=300, deadline=None)
@given(data=record_lists(), drop=st.sampled_from(DROP_SETS), picks=st.data())
def test_columnar_operations_match_the_record_oracles(data, drop, picks):
    schema, records, gt = data
    indices = picks.draw(st.lists(st.integers(0, len(records) - 1), unique=True))
    check_against_oracles(schema, records, gt, MissingnessScenario("drawn", drop), indices)


@pytest.mark.parametrize("with_gt", [False, True])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS) + ["keep-radiology-only"])
def test_every_missingness_pattern_under_each_scenario_matches_the_oracles(scenario, with_gt):
    # every non-empty pattern twice, events alternating, so every scenario
    # empties some records and keeps others
    presents = PATTERNS * 2
    records = [make_record(f"r{i}", time=float(i + 1), event=i % 2, present=p, fill=float(i) - 7.5)
               for i, p in enumerate(presents)]
    gt = np.linspace(-1.0, 1.0, len(records)) if with_gt else None
    chosen = (MissingnessScenario(scenario, frozenset(MODALITIES[1:])) if scenario == "keep-radiology-only"
              else scenario_by_name(scenario))
    check_against_oracles(SMALL_SCHEMA, records, gt, chosen, [5, 0, 17, 3])
    kept = oracle_apply_scenario(records, gt, chosen)[0]
    assert len(apply_scenario(cohort_from_rows(SMALL_SCHEMA, records, gt), chosen)) == len(kept)


def test_column_arrays_reject_in_place_writes():
    cohort = generate_synthetic(30, seed=3, missing_rate=(0.0, 0.3, 0.3, 0.3))
    derived = [cohort, cohort.subset([3, 1]), complete_subset(cohort),
               apply_scenario(cohort, scenario_by_name("gene-pathology-missing")),
               pickle.loads(pickle.dumps(cohort))]
    for c in derived:
        columns = [c.ids, c.times, c.events, c.availability, c.ground_truth_risk]
        columns += [c.block(m) for m in MODALITIES]
        for column in columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
        with pytest.raises(ValueError, match="read-only"):
            c.records[0].features[ModalityId.RADIOLOGY][0] = 1.0
    assert cohorts_equal(pickle.loads(pickle.dumps(cohort)), cohort)


def test_constructor_reports_the_first_bad_record():
    cohort = make_cohort(5)
    ids, times, events, availability = cohort.ids, cohort.times.copy(), cohort.events, cohort.availability
    blocks = [cohort.block(m) for m in MODALITIES]
    times[[1, 3]] = [np.inf, -1.0]
    with pytest.raises(DataError, match="record 'r1': survival time"):
        Cohort(SMALL_SCHEMA, ids, times, events, availability, blocks)
    with pytest.raises(DataError, match="duplicate record id 'r1'"):
        Cohort(SMALL_SCHEMA, ["r0", "r1", "r2", "r1", "r0"], cohort.times, events, availability, blocks)
    with pytest.raises(DataError, match="duplicate record id 'r1'"):
        cohort.subset([1, 2, 1])
    blocks[ModalityId.GENOMICS] = blocks[ModalityId.GENOMICS].copy()
    blocks[ModalityId.GENOMICS][2, 1] = np.nan
    with pytest.raises(DataError, match="record 'r2': genomics features must be a finite vector"):
        Cohort(SMALL_SCHEMA, ids, cohort.times, events, availability, blocks)


def test_load_reports_the_first_bad_record_in_file_order(tmp_path):
    cohort = make_cohort(4)
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    # an invalid time in r1 comes before a malformed cell in r3 and a repeated id in r2
    text = path.read_text().replace("r1,2.0", "r1,0.0").replace("r3,4.0", "r3,soon")
    path.write_text(text.replace("r2,3.0", "r0,3.0"))
    with pytest.raises(DataError, match="record 'r1': survival time"):
        load_cohort(str(path), SMALL_SCHEMA)
    path.write_text(text.replace("r1,0.0", "r1,2.0"))
    with pytest.raises(DataError, match="record 'r3': malformed numeric"):
        load_cohort(str(path), SMALL_SCHEMA)
    path.write_text(text.replace("r1,0.0", "r1,2.0").replace("r3,soon", "r3,4.0").replace("r2,3.0", "r0,3.0"))
    with pytest.raises(DataError, match="duplicate record id 'r0'"):
        load_cohort(str(path), SMALL_SCHEMA)


def test_load_maps_out_of_range_events_and_undecodable_bytes_to_data_errors(tmp_path):
    cohort = make_cohort(3)
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    text = path.read_text()
    path.write_text(text.replace("r1,2.0,1", "r1,2.0," + "9" * 400))
    with pytest.raises(DataError, match="record 'r1': event must be 0 or 1"):
        load_cohort(str(path), SMALL_SCHEMA)
    path.write_text(text.replace("r2,3.0,0,1,2.0", "r2,3.0,0,1,inf"))
    with pytest.raises(DataError, match="record 'r2': radiology features must be a finite vector"):
        load_cohort(str(path), SMALL_SCHEMA)
    path.write_bytes(text.encode().replace(b"r1", b"r\xff"))
    with pytest.raises(DataError, match="c.csv: not UTF-8"):
        load_cohort(str(path), SMALL_SCHEMA)


ID_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=record_lists(), ids=st.lists(ID_TEXT, min_size=10, max_size=10, unique=True))
def test_csv_round_trip_is_exact_for_any_ids(tmp_path, data, ids):
    schema, records, gt = data
    records = [Row(ids[i], r.time, r.event, r.features) for i, r in enumerate(records)]
    cohort = cohort_from_rows(schema, records, gt)
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    assert path.read_bytes() == cohort_csv_text(cohort).encode("utf-8")
    if cohort.n_events == 0:
        with pytest.raises(DataError, match="zero observed events"):
            load_cohort(str(path), schema)
        return
    assert cohorts_equal(load_cohort(str(path), schema), cohort)


@pytest.fixture(scope="module")
def saved_cohort_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "c.csv"
    save_cohort(generate_synthetic(6, seed=8, schema=SMALL_SCHEMA), str(path))
    return path.read_bytes()


EDITS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                           st.integers(0, 10**6), st.binary(min_size=1, max_size=3)),
                 min_size=1, max_size=4)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=EDITS)
def test_byte_edits_of_a_saved_cohort_load_or_raise_data_error(tmp_path, saved_cohort_bytes, edits):
    data = bytearray(saved_cohort_bytes)
    for kind, pos, chunk in edits:
        pos %= len(data) + 1
        if kind == "replace":
            data[pos:pos + len(chunk)] = chunk
        elif kind == "insert":
            data[pos:pos] = chunk
        else:
            del data[pos:pos + len(chunk)]
    path = tmp_path / "fuzzed.csv"
    path.write_bytes(bytes(data))
    try:
        cohort = load_cohort(str(path), SMALL_SCHEMA)
    except DataError:
        return
    assert len(cohort) >= 1 and cohort.n_events >= 1
    assert np.isfinite(cohort.times).all() and (cohort.times > 0).all()


# ── the column cache beside a saved CSV ─────────────────────────────────────

def column_bits(cohort):
    """Every column of a cohort as dtype, shape and raw bytes: equal only when bit-identical."""
    columns = [cohort.times, cohort.events, cohort.availability, cohort.ground_truth_risk]
    columns += [cohort.block(m) for m in MODALITIES]
    return (cohort.schema, cohort.ids.dtype, cohort.ids.tolist(),
            [None if c is None else (c.dtype.str, c.shape, c.tobytes()) for c in columns])


def load_outcome(path, schema):
    """The column bits ``load_cohort`` gives, or the message of the ``DataError`` it raises."""
    try:
        return column_bits(load_cohort(str(path), schema))
    except DataError as e:
        return str(e)


def parse_outcome(path, schema):
    """``load_outcome`` with the cache moved aside for the call."""
    cache = f"{path}.cache"
    os.rename(cache, cache + ".aside")
    try:
        return load_outcome(path, schema)
    finally:
        os.rename(cache + ".aside", cache)


def cached_outcome(path, schema, monkeypatch):
    """``load_outcome`` with the CSV parser made to fail, so only the cache can answer."""
    def no_parse(*args):
        raise AssertionError("the cache was not used")

    with monkeypatch.context() as patch:
        patch.setattr(cohort_module, "_read_columns", no_parse)
        return load_outcome(path, schema)


# ids the csv module must quote, alongside any other text
CACHE_IDS = st.text(st.sampled_from('"\',\r\n x\u00e9\U0001F600')
                    | st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5)
NANS = [float("nan"), -float("nan"), np.frombuffer(bytes.fromhex("0100000000f0ff7f"), "<f8")[0]]


@st.composite
def cache_cohorts(draw):
    schema = ModalitySchema(raw_dims=tuple(draw(st.integers(1, 3)) for _ in MODALITIES), embed_dim=2)
    n = draw(st.integers(1, 8))
    never = draw(st.none() | st.sampled_from(MODALITIES))   # a modality absent in every row
    patterns = [p for p in PATTERNS if never is None or not p[never]]
    availability = np.array([draw(st.sampled_from(patterns)) for _ in range(n)], dtype=np.int64)
    cell = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
    blocks = []
    for m in MODALITIES:
        present = np.array(draw(st.lists(cell, min_size=n * schema.dim(m), max_size=n * schema.dim(m))))
        absent = draw(st.sampled_from([0.0, -0.0]))   # both are "no value"; the CSV has empty cells
        blocks.append(np.where(availability[:, m, None] == 1, present.reshape(n, schema.dim(m)), absent))
    risk = draw(st.none() | st.lists(st.floats() | st.sampled_from(NANS), min_size=n, max_size=n))
    ids = draw(st.lists(CACHE_IDS, min_size=n, max_size=n, unique=True))
    times = draw(st.lists(st.floats(1e-3, 1e6) | st.just(5e-324), min_size=n, max_size=n))
    events = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=n, max_size=n))
    return Cohort(schema, ids, times, events, availability, blocks, None if risk is None else np.array(risk))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cohort=cache_cohorts())
def test_a_cached_load_gives_the_bits_of_the_parse(tmp_path, monkeypatch, cohort):
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    cached = cached_outcome(path, cohort.schema, monkeypatch)
    assert cached == parse_outcome(path, cohort.schema)
    assert isinstance(cached, tuple) or cohort.n_events == 0


def checked_apply_scenario(cohort, scenario):
    """``apply_scenario`` as it was built before it skipped the checks: through ``Cohort(...)``."""
    availability = cohort.availability.copy()
    availability[:, sorted(scenario.drop)] = 0
    kept = np.flatnonzero(availability.any(axis=1))
    blocks = [np.zeros_like(cohort.block(m)) if m in scenario.drop else cohort.block(m) for m in MODALITIES]
    gt = None if cohort.ground_truth_risk is None else cohort.ground_truth_risk[kept]
    out = Cohort(cohort.schema, cohort.ids[kept], cohort.times[kept], cohort.events[kept],
                 availability[kept], [b[kept] for b in blocks], gt)
    out.require_events("scenario")
    return out


@settings(max_examples=300, deadline=None)
@given(cohort=cache_cohorts(), drop=st.sampled_from(DROP_SETS))
def test_a_scenario_view_passes_the_checks_it_skips(cohort, drop):
    scenario = MissingnessScenario("drawn", drop)
    try:
        expected = checked_apply_scenario(cohort, scenario)
    except DataError:
        with pytest.raises(DataError, match="zero observed events|cohort is empty"):
            apply_scenario(cohort, scenario)
        return
    applied = apply_scenario(cohort, scenario)
    blocks = [applied.block(m) for m in MODALITIES]
    assert cohort_module._row_error(applied.ids, applied.times, applied.events, applied.availability,
                                    blocks) is None
    assert len(set(applied.ids.tolist())) == len(applied)
    assert column_bits(applied) == column_bits(expected)
    assert all(not column.flags.writeable for column in [applied.ids, applied.availability, *blocks])


def test_the_cache_header_keeps_its_sorted_key_order(tmp_path):
    save_cohort(make_cohort(2), str(tmp_path / "c.csv"))
    head = json.loads((tmp_path / "c.csv.cache").read_bytes().split(b"\n", 1)[0])
    assert list(head) == ["crc32", "csv_bytes", "csv_crc32", "embed_dim", "format", "ids", "n", "raw_dims",
                          "with_risk"]


def test_an_empty_cohort_saves_whole_and_its_load_is_refused(tmp_path):
    empty = make_cohort().subset([])
    save_cohort(empty, str(tmp_path / "c.csv"))   # its cache's empty arrays once failed the byte view
    assert sorted(os.listdir(tmp_path)) == ["c.csv", "c.csv.cache"]
    with pytest.raises(DataError, match="cohort has no records"):
        load_cohort(str(tmp_path / "c.csv"), SMALL_SCHEMA)


@pytest.fixture(scope="module")
def cached_pair(tmp_path_factory):
    """A saved cohort's CSV and cache bytes, and the column bits of its parse."""
    path = tmp_path_factory.mktemp("cache") / "c.csv"
    cohort = generate_synthetic(5, seed=8, schema=SMALL_SCHEMA)
    save_cohort(cohort, str(path))
    return path.read_bytes(), path.with_name("c.csv.cache").read_bytes(), column_bits(cohort)


def write_pair(tmp_path, csv_bytes, cache_bytes):
    (tmp_path / "c.csv").write_bytes(csv_bytes)
    (tmp_path / "c.csv.cache").write_bytes(cache_bytes)
    return tmp_path / "c.csv"


def test_the_fixture_cache_is_used(tmp_path, monkeypatch, cached_pair):
    csv_bytes, cache_bytes, bits = cached_pair
    assert cached_outcome(write_pair(tmp_path, csv_bytes, cache_bytes), SMALL_SCHEMA, monkeypatch) == bits


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pos=st.integers(0, 10**6), byte=st.integers(0, 255))
def test_a_one_byte_edit_of_the_cache_never_changes_the_load(tmp_path, cached_pair, pos, byte):
    csv_bytes, cache_bytes, bits = cached_pair
    edited = bytearray(cache_bytes)
    edited[pos % len(edited)] = byte
    assert load_outcome(write_pair(tmp_path, csv_bytes, bytes(edited)), SMALL_SCHEMA) == bits


def test_a_truncated_cache_never_changes_the_load(tmp_path, cached_pair):
    csv_bytes, cache_bytes, bits = cached_pair
    for end in range(len(cache_bytes)):
        assert load_outcome(write_pair(tmp_path, csv_bytes, cache_bytes[:end]), SMALL_SCHEMA) == bits
    assert load_outcome(write_pair(tmp_path, csv_bytes, cache_bytes + b"\0"), SMALL_SCHEMA) == bits


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pos=st.integers(0, 10**6), byte=st.integers(0, 255))
def test_a_one_byte_edit_of_the_csv_loads_as_its_parse(tmp_path, cached_pair, pos, byte):
    csv_bytes, cache_bytes, _ = cached_pair
    edited = bytearray(csv_bytes)
    edited[pos % len(edited)] = byte
    path = write_pair(tmp_path, bytes(edited), cache_bytes)
    assert load_outcome(path, SMALL_SCHEMA) == parse_outcome(path, SMALL_SCHEMA)


def test_a_truncated_csv_loads_as_its_parse(tmp_path, cached_pair):
    csv_bytes, cache_bytes, _ = cached_pair
    for end in range(len(csv_bytes)):
        path = write_pair(tmp_path, csv_bytes[:end], cache_bytes)
        assert load_outcome(path, SMALL_SCHEMA) == parse_outcome(path, SMALL_SCHEMA)


def test_a_cache_for_other_widths_gives_way_to_the_parse(tmp_path):
    cohort = make_cohort()
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    with pytest.raises(DataError, match="header does not match schema"):
        load_cohort(str(path), ModalitySchema(raw_dims=(3, 2, 4, 3), embed_dim=5))
    # the CSV does not record the embedding width, so the parse accepts another one
    other = ModalitySchema(raw_dims=SMALL_SCHEMA.raw_dims, embed_dim=7)
    assert load_outcome(path, other) == parse_outcome(path, other)


def test_a_cache_that_is_not_a_regular_file_is_passed_over(tmp_path):
    cohort = make_cohort()
    path = tmp_path / "c.csv"
    save_cohort(cohort, str(path))
    os.unlink(f"{path}.cache")
    os.mkfifo(f"{path}.cache")   # opening a FIFO for reading would wait for a writer
    assert cohorts_equal(load_cohort(str(path), SMALL_SCHEMA), cohort)
    os.unlink(f"{path}.cache")
    os.mkdir(f"{path}.cache")
    assert cohorts_equal(load_cohort(str(path), SMALL_SCHEMA), cohort)


@pytest.mark.parametrize("bad", [np.int64(7), 9.5, None])
def test_ids_that_are_not_strings_are_rejected(bad):
    cohort = make_cohort(3)
    with pytest.raises(DataError, match=f"^{re.escape(f'record id {bad!r} must be a str')}$"):
        Cohort(SMALL_SCHEMA, np.array(["r0", bad, "r2"], dtype=object), cohort.times, cohort.events,
               cohort.availability, [cohort.block(m) for m in MODALITIES])


def listing(root):
    return {name: (root / name).read_bytes() if (root / name).is_file() else None
            for name in sorted(os.listdir(root))}


def test_a_load_never_writes(tmp_path):
    path = tmp_path / "c.csv"
    save_cohort(make_cohort(), str(path))
    before = listing(tmp_path)
    load_cohort(str(path), SMALL_SCHEMA)   # through the cache
    assert listing(tmp_path) == before
    with pytest.raises(DataError):
        load_cohort(str(path), ModalitySchema(raw_dims=(1, 1, 1, 1)))
    assert listing(tmp_path) == before
    path.write_bytes(path.read_bytes().replace(b"r1,2.0", b"r1,0.0"))   # the cache no longer matches
    before = listing(tmp_path)
    with pytest.raises(DataError, match="record 'r1': survival time"):
        load_cohort(str(path), SMALL_SCHEMA)
    assert listing(tmp_path) == before
    os.unlink(f"{path}.cache")
    with pytest.raises(DataError, match="record 'r1': survival time"):
        load_cohort(str(path), SMALL_SCHEMA)
    assert sorted(os.listdir(tmp_path)) == ["c.csv"]


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_save_and_cached_load_hold_no_payload_wide_buffer(tmp_path):
    cohort = generate_synthetic(4000, seed=1, missing_rate=(0.0,) * 4)
    path = str(tmp_path / "c.csv")
    columns = sum(cohort.block(m).nbytes for m in MODALITIES) + 3 * cohort.times.nbytes  # times, events, risk
    save_peak, _ = traced_peak(save_cohort, cohort, path)
    assert os.path.getsize(path + ".cache") > columns > 3 * 2**20
    assert save_peak < 1.5 * 2**20   # the CSV writer's row lists; the cache goes out in 64 KiB chunks
    load_peak, loaded = traced_peak(load_cohort, path, cohort.schema)
    assert cohorts_equal(loaded, cohort)
    # the columns themselves, the int64 availability and ids, one 1 MiB CSV chunk and small change
    assert load_peak < columns + cohort.availability.nbytes + 2 * 2**20
