"""Shared pytest wiring: one summary line per acceptance criterion, the
tests' finite-difference, c-index, bootstrap, Cox, reconstruction,
tensor-product, cohort round-trip, file-writer and synthetic-generator
oracles, and test cohorts made from rows or drawn at random around the
scoring blocks.

Acceptance tests are named test_criterion_<number><subtag>_<slug>; every
phase outcome is collected here and folded into a single PASS/FAIL line
per criterion at the end of the run.
"""

import csv
import io
import json
import re
from typing import NamedTuple

import numpy as np

from mmsurv import cohort as cohort_module
from mmsurv.cohort import MODALITIES, N_MODALITIES, Cohort, ModalityId, ModalitySchema
from mmsurv.fusion import NORM_EPS, SCORE_CHUNK
from mmsurv.errors import NumericalError
from mmsurv.nets import OptimizerState, optimizer_step


class Row(NamedTuple):
    """One test record: outcome plus per-modality features, None where absent."""

    id: str
    time: float
    event: int
    features: tuple

    def has(self, modality) -> bool:
        return self.features[modality] is not None


def cohort_from_rows(schema, rows, gt=None) -> Cohort:
    """Pack (id, time, event, features) rows into a Cohort.

    Absent modalities become zero rows of their block. The rows are not
    checked here: an invalid one fails the Cohort's own record checks.
    """
    ids, times, events, feats = zip(*rows)
    blocks = [np.stack([np.zeros(schema.dim(m)) if f[m] is None else np.asarray(f[m], dtype=np.float64)
                        for f in feats]) for m in MODALITIES]
    availability = [[int(f[m] is not None) for m in MODALITIES] for f in feats]
    return Cohort(schema, ids, times, events, availability, blocks, gt)


def with_columns(cohort, **columns) -> Cohort:
    """``cohort`` built again, and checked, by the constructor with the named columns replaced.

    ``columns`` takes the constructor's keywords: ids, times, events,
    availability, blocks and ground_truth_risk.
    """
    kept = dict(ids=cohort.ids, times=cohort.times, events=cohort.events, availability=cohort.availability,
                blocks=[cohort.block(m) for m in MODALITIES], ground_truth_risk=cohort.ground_truth_risk)
    return Cohort(cohort.schema, **{**kept, **columns})


def hide(cohort, hidden) -> Cohort:
    """``cohort`` with the slots an (n, 4) bool mask ``hidden`` marks made absent: flag 0, features zero."""
    return with_columns(cohort, availability=np.where(hidden, 0, cohort.availability),
                        blocks=[np.where(hidden[:, m, None], 0.0, cohort.block(m)) for m in MODALITIES])


def block_cohort(schema, n: int, seed: int, absent=ModalityId.GENOMICS) -> Cohort:
    """``n`` random records in which ``absent`` is missing from every row of the first scoring block.

    Every other slot is present with probability 0.7 (radiology fills in for
    a row left with none), so later blocks carry every modality.
    """
    rng = np.random.default_rng(seed)
    alpha = rng.random((n, len(MODALITIES))) < 0.7
    alpha[:SCORE_CHUNK, absent] = False
    alpha[~alpha.any(axis=1), ModalityId.RADIOLOGY] = True
    blocks = [np.where(alpha[:, m, None], rng.normal(size=(n, schema.dim(m))), 0.0) for m in MODALITIES]
    return Cohort(schema, [f"r{i}" for i in range(n)], rng.exponential(size=n) + 0.1,
                  (rng.random(n) < 0.7).astype(np.float64), alpha.astype(np.int64), blocks)


def cohorts_equal(a: Cohort, b: Cohort) -> bool:
    """Field-for-field equality, exact on floats: the oracle of the round-trip tests."""
    if a.schema != b.schema or len(a) != len(b):
        return False
    if (a.ground_truth_risk is None) != (b.ground_truth_risk is None):
        return False
    if a.ground_truth_risk is not None and not np.array_equal(a.ground_truth_risk, b.ground_truth_risk):
        return False
    return (np.array_equal(a.ids, b.ids) and np.array_equal(a.times, b.times)
            and np.array_equal(a.events, b.events)
            and np.array_equal(a.availability, b.availability)
            and all(np.array_equal(a.block(m), b.block(m)) for m in MODALITIES))


def checkpoint_text(payload) -> str:
    """Reference checkpoint text: the whole payload through one ``json.dumps``, arrays as lists.

    What ``save_predictor`` and ``save_unimodal`` wrote before ``nets.write_json``
    converted arrays a slice at a time.
    """
    return json.dumps(payload, default=lambda a: a.tolist())


def cohort_csv_text(cohort: Cohort) -> str:
    """Reference cohort CSV: every cell of every row through one ``csv.writer``.

    The rows ``save_cohort`` built before it wrote each row as one string.
    """
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    with_risk = cohort.ground_truth_risk is not None
    header = ["id", "time", "event"] + ["true_risk"] * with_risk
    for m in MODALITIES:
        header += [m.label + "_present"] + [f"{m.label}_f{k}" for k in range(cohort.schema.dim(m))]
    writer.writerow(header)
    for i in range(len(cohort)):
        row = [cohort.ids[i], repr(float(cohort.times[i])), str(int(cohort.events[i]))]
        if with_risk:
            row.append(repr(float(cohort.ground_truth_risk[i])))
        for m in MODALITIES:
            if cohort.availability[i, m]:
                row += ["1"] + [repr(v) for v in cohort.block(m)[i].tolist()]
            else:
                row += ["0"] + [""] * cohort.schema.dim(m)
        writer.writerow(row)
    return out.getvalue()


def generate_synthetic_where(n: int, seed: int, *, schema: ModalitySchema = cohort_module.DEFAULT_SCHEMA,
                             missing_rate=(0.3, 0.3, 0.3, 0.3), censor_rate: float = 0.2,
                             mnar: bool = False, family_seed: int = 0) -> Cohort:
    """Reference generator: ``generate_synthetic`` as it was before it built its blocks in place.

    Each block is ``projection + FEATURE_NOISE * noise`` and the absent rows
    are zeroed by an ``np.where`` copy; the draws are the generator's, in
    its order. The arguments are assumed valid.
    """
    c = cohort_module
    w, views, maps = c._generative_family(schema, family_seed)
    rng = np.random.default_rng(np.random.SeedSequence([c._COHORT_SALT, seed]))
    z = rng.normal(size=(n, c.LATENT_DIM))
    risk = z @ w + 0.5 * np.tanh(z[:, 0] * z[:, 1])
    blocks = [z[:, views[m]] @ maps[m].T + c.FEATURE_NOISE * rng.normal(size=(n, schema.dim(m)))
              for m in MODALITIES]
    event_time = rng.exponential(scale=c.TIME_SCALE * np.exp(-risk))
    censored = rng.random(n) < censor_rate
    frac = rng.random(n)
    time = np.where(censored, event_time * np.maximum(frac, 1e-12), event_time)
    rates = np.asarray(missing_rate, dtype=np.float64)
    quantile = np.argsort(np.argsort(risk)) / max(n - 1, 1)
    width = max(4, len(str(n - 1)))
    keep = np.empty((n, N_MODALITIES), dtype=bool)
    for i in range(n):
        p_drop = rates.copy()
        if mnar:
            p_drop[ModalityId.PATHOLOGY] = min(2.0 * rates[ModalityId.PATHOLOGY] * quantile[i], 0.95)
        while True:
            keep[i] = rng.random(N_MODALITIES) >= p_drop
            if keep[i].any():
                break
    return Cohort(schema, [f"p{i:0{width}d}" for i in range(n)], time, (~censored).astype(np.float64),
                  keep, [np.where(keep[:, m, None], blocks[m], 0.0) for m in MODALITIES],
                  ground_truth_risk=risk)


def cindex_pairwise(risks, times, events) -> float:
    """Reference implementation: credit summed over the n x n comparable-pair matrix."""
    risks = np.asarray(risks, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.float64)
    comparable = (times[:, None] < times[None, :]) & (events[:, None] == 1.0)
    count = comparable.sum()
    if count == 0:
        raise ZeroDivisionError
    higher = risks[:, None] > risks[None, :]
    tied = risks[:, None] == risks[None, :]
    credit = np.where(higher, 1.0, np.where(tied, 0.5, 0.0))
    return float(credit[comparable].sum() / count)


def bootstrap_loop(risks, times, events, resamples: int, rng) -> list:
    """Reference bootstrap: one resample at a time, each scored by ``cindex_pairwise``.

    The draws, their order and the skipping of resamples without a
    comparable pair are those of the per-resample loop ``evaluate`` ran
    before it counted resamples as weights over one rank plan.
    """
    n = len(risks)
    stats = []
    for _ in range(resamples):
        idx = rng.integers(0, n, size=n)
        try:
            stats.append(cindex_pairwise(risks[idx], times[idx], events[idx]))
        except ZeroDivisionError:
            continue  # resample without comparable pairs
    return stats


def cox_loss_unchunked(hazards, times, events) -> float:
    """Reference Cox loss: every event row's risk set in one (events x n) matrix.

    The arithmetic of the Cox loss before it built risk sets a chunk of
    event rows at a time.
    """
    f = hazards
    at_risk = times[None, :] >= times[:, None]
    event_rows = events == 1.0
    scores = np.where(at_risk[event_rows], f[None, :], -np.inf)
    mx = scores.max(axis=1)
    lse = mx + np.log(np.exp(scores - mx[:, None]).sum(axis=1))
    return float(-(f[event_rows] - lse).sum())


def cox_loss_grad_unchunked(hazards, times, events) -> np.ndarray:
    """Reference Cox gradient over one (events x n) matrix, as ``cox_loss_unchunked``."""
    f = hazards
    at_risk = times[None, :] >= times[:, None]
    event_rows = events == 1.0
    scores = np.where(at_risk[event_rows], f[None, :], -np.inf)
    mx = scores.max(axis=1)
    expd = np.exp(scores - mx[:, None])
    weights = expd / expd.sum(axis=1, keepdims=True)
    return -events + weights.sum(axis=0)


def recon_loss_two_pass(decoded, targets, alpha) -> float:
    """Reference reconstruction loss, computed apart from its gradient.

    The arithmetic of the separate loss and gradient functions that
    ``recon_loss_and_grad`` replaced.
    """
    norms = np.linalg.norm(decoded - targets, axis=2)
    return float((alpha * norms).sum() / alpha.sum())


def recon_loss_grad_two_pass(decoded, targets, alpha) -> np.ndarray:
    """Reference reconstruction gradient with respect to ``decoded``, as ``recon_loss_two_pass``."""
    diff = decoded - targets
    norms = np.linalg.norm(diff, axis=2)
    scale = alpha / (norms + NORM_EPS) / alpha.sum()
    return diff * scale[:, :, None]


def tensor_product_einsum(factors: np.ndarray) -> np.ndarray:
    """Reference tensor-fusion product: one four-operand einsum over (n, 4, w) factors.

    The form ``fuse`` used before it chained two-operand products.
    """
    h = np.einsum("bi,bj,bk,bl->bijkl", *factors.transpose(1, 0, 2))
    return h.reshape(len(factors), -1)


def finite_diff_grad(f, p: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    p = np.asarray(p, dtype=np.float64)
    g = np.zeros_like(p)
    for k in range(p.size):
        step = np.zeros_like(p)
        step[k] = h
        g[k] = (f(p + step) - f(p - step)) / (2.0 * h)
    if not np.isfinite(g).all():
        raise NumericalError("non-finite finite-difference gradient")
    return g


def assert_layers_view_params(net, packed=None) -> None:
    """Every layer array is a view into ``net.params``, and a step moves them all.

    With ``packed``, the vector a trainer packed the net into, every layer
    array must view that vector too.
    """
    for layer in net.layers:
        for a in (layer.w, layer.b):
            assert np.shares_memory(a, net.params)
            assert packed is None or np.shares_memory(a, packed)
    before = [(layer.w.copy(), layer.b.copy()) for layer in net.layers]
    state = OptimizerState("sgd", lr=0.25, params=net.params)
    optimizer_step(net.params, np.ones_like(net.params), state)
    for layer, (w, b) in zip(net.layers, before):
        assert np.array_equal(layer.w, w - 0.25) and np.array_equal(layer.b, b - 0.25)


_CRITERION = re.compile(r"test_acceptance.*::test_criterion_(\d+)([a-z]?)_")

_LABELS = {
    1: "analytic gradients match finite differences",
    2: "batch Cox loss matches the enumeration oracle",
    3: "c-index matches the pair-enumeration oracle",
    4: "masked reconstruction loss semantics",
    5: "modality dropout retention law",
    6: "fused model recovers synthetic risk",
    7: "training-regime and robustness trends",
    8: "parameter footprint ordering and exact counts",
    9: "byte-deterministic CLI workflows",
}

_outcomes: list[tuple[int, str, str]] = []


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if m is None:
        return
    # record the call phase, plus any phase that did not pass (a fixture
    # error or skip must still fail the criterion line)
    if report.when == "call" or report.outcome != "passed":
        _outcomes.append((int(m.group(1)), m.group(2), report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    grouped: dict[int, list[tuple[str, str]]] = {}
    for num, sub, outcome in _outcomes:
        grouped.setdefault(num, []).append((sub, outcome))
    terminalreporter.section("acceptance criteria")
    for num in sorted(grouped):
        parts = sorted(grouped[num])
        ok = all(outcome == "passed" for _, outcome in parts)
        detail = ""
        if len({sub for sub, _ in parts}) > 1:
            detail = " (" + ", ".join(
                f"{num}{sub} {'PASS' if outcome == 'passed' else outcome.upper()}"
                for sub, outcome in parts) + ")"
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"criterion {num} {verdict}: {_LABELS.get(num, 'unlabeled')}{detail}")
