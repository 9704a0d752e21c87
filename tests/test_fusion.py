from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (finite_diff_grad, recon_loss_grad_two_pass, recon_loss_two_pass,
                      tensor_product_einsum)
from mmsurv.cohort import DEFAULT_SCHEMA, MODALITIES, Cohort, ModalityId, ModalitySchema, embedding_schema
from mmsurv.errors import ConfigError, DataError, NumericalError
from mmsurv.fusion import (FusionStrategy, batch_loss_and_grads,
                           SCORE_CHUNK, dropout_masks, fuse, fusion_from_dict, fusion_to_dict,
                           init_fusion_model, modality_dropout, model_footprint,
                           recon_loss_and_grad, tensor_product)
from mmsurv import fusion
from mmsurv.nets import OptimizerState, init_net, optimizer_step, pack, split, write_json
from mmsurv.pipeline import score_records

SMALL = dict(embed_dim=4, extended_dim=8, reduced_dim=3,
             extender_hidden=6, reducer_hidden=5, head_hidden=5, recon_hidden=6)


def small_strategy(kind):
    return FusionStrategy(kind, **SMALL)


def make_batch(rng, n, embed_dim, full_mask=False, with_dropout=False):
    embeddings = np.zeros((n, 4, embed_dim))
    alphas, masks, times = [], [], []
    for i in range(n):
        while True:
            alpha = (rng.random(4) < 0.75).astype(np.int64)
            if full_mask:
                alpha = np.ones(4, dtype=np.int64)
            if alpha.any():
                break
        mask = alpha.copy()
        if with_dropout:
            mask = modality_dropout(alpha, 0.4, rng)
        for m in MODALITIES:
            if alpha[m]:
                embeddings[i, m] = rng.normal(size=embed_dim)
        alphas.append(alpha)
        masks.append(mask)
        times.append(float(rng.uniform(1, 50)))
    events = np.array([float(i % 2 == 0) for i in range(n)])
    return embeddings, np.stack(alphas), np.stack(masks), np.array(times), events


def one_row(vecs, mask, embed_dim):
    """A one-row (1, 4, embed) block holding ``vecs`` ({modality: vector})."""
    x = np.zeros((1, 4, embed_dim))
    for m, v in vecs.items():
        x[0, m] = v
    return x, np.asarray(mask)[None, :]


def kron4_oracle(f0, f1, f2, f3):
    """Brute-force four-way outer product, explicit loops."""
    d = len(f0)
    out = np.zeros(d ** 4)
    idx = 0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    out[idx] = f0[i] * f1[j] * f2[k] * f3[l]
                    idx += 1
    return out


def dropout_marginals_oracle(mask, rate):
    """Exact kept-probability per modality under redraw-until-nonempty."""
    present = [m for m in range(4) if mask[m]]
    total = 0.0
    kept_prob = np.zeros(4)
    for bits in itertools.product([0, 1], repeat=len(present)):
        if not any(bits):
            continue
        p = 1.0
        for b in bits:
            p *= (1 - rate) if b else rate
        total += p
        for m, b in zip(present, bits):
            if b:
                kept_prob[m] += p
    return kept_prob / total


# ── modality dropout ─────────────────────────────────────────────────────────

def test_dropout_at_zero_rate_is_identity():
    mask = np.array([1, 0, 1, 1])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert modality_dropout(mask, 0.0, rng).tolist() == [1, 0, 1, 1]
    assert dropout_masks(np.array([mask, [0, 1, 0, 0]]), 0.0, rng).tolist() == [
        [1, 0, 1, 1], [0, 1, 0, 0]]
    assert rng.bit_generator.state == state


def test_dropout_single_present_modality_always_survives():
    mask = np.array([0, 0, 1, 0])
    rng = np.random.default_rng(1)
    for _ in range(200):
        assert modality_dropout(mask, 0.9, rng).tolist() == [0, 0, 1, 0]


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, float("nan")])
def test_dropout_rejects_a_rate_outside_zero_to_one(rate):
    # rate 1 would hide every modality on every draw and redraw forever
    mask = np.array([1, 0, 1, 1])
    with pytest.raises(ConfigError):
        modality_dropout(mask, rate, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        dropout_masks(np.array([mask]), rate, np.random.default_rng(0))


def test_dropout_rejects_empty_mask():
    with pytest.raises(DataError):
        modality_dropout(np.zeros(4), 0.5, np.random.default_rng(0))


def test_dropout_never_returns_empty_and_never_revives():
    rng = np.random.default_rng(2)
    mask = np.array([1, 0, 1, 1])
    for _ in range(5000):
        out = modality_dropout(mask, 0.6, rng)
        assert out.sum() >= 1
        assert out[1] == 0
        assert np.all(out <= mask)


def test_dropout_marginals_match_exact_enumeration():
    rng = np.random.default_rng(3)
    for mask in (np.array([1, 1, 1, 1]), np.array([1, 0, 1, 1])):
        expected = dropout_marginals_oracle(mask, 0.5)
        draws = np.stack([modality_dropout(mask, 0.5, rng) for _ in range(100_000)])
        observed = draws.mean(axis=0)
        assert np.abs(observed - expected).max() < 0.01


def test_dropout_deterministic_given_rng_state():
    mask = np.array([1, 1, 1, 1])
    a = [modality_dropout(mask, 0.5, np.random.default_rng(7)).tolist()
         for _ in range(1)]
    b = [modality_dropout(mask, 0.5, np.random.default_rng(7)).tolist()
         for _ in range(1)]
    assert a == b


# ── fuse semantics ───────────────────────────────────────────────────────────

def test_concat_layout_and_zero_fill():
    model = init_fusion_model(small_strategy("concat"), seed=0)
    rng = np.random.default_rng(4)
    e = {ModalityId.RADIOLOGY: rng.normal(size=4), ModalityId.GENOMICS: rng.normal(size=4)}
    h, _ = fuse(model, *one_row(e, [1, 0, 1, 0], 4))
    assert h.shape == (1, 16)
    h = h[0]
    assert np.array_equal(h[0:4], e[ModalityId.RADIOLOGY])
    assert np.all(h[4:8] == 0.0)
    assert np.array_equal(h[8:12], e[ModalityId.GENOMICS])
    assert np.all(h[12:16] == 0.0)


def test_mean_single_modality_equals_extender_output():
    model = init_fusion_model(small_strategy("mean"), seed=1)
    x = np.random.default_rng(5).normal(size=4)
    h, _ = fuse(model, *one_row({ModalityId.PATHOLOGY: x}, [0, 1, 0, 0], 4))
    y, _ = model.body[ModalityId.PATHOLOGY].forward(x[None, :])
    assert np.array_equal(h, y)


def test_mean_two_modalities_is_elementwise_average():
    model = init_fusion_model(small_strategy("mean"), seed=2)
    rng = np.random.default_rng(6)
    xa, xb = rng.normal(size=4), rng.normal(size=4)
    h, _ = fuse(model, *one_row({ModalityId.RADIOLOGY: xa, ModalityId.DEMOGRAPHICS: xb},
                                [1, 0, 0, 1], 4))
    ya, _ = model.body[ModalityId.RADIOLOGY].forward(xa[None, :])
    yb, _ = model.body[ModalityId.DEMOGRAPHICS].forward(xb[None, :])
    assert np.allclose(h, (ya + yb) / 2.0, atol=0, rtol=0)


def test_mean_fuse_is_insertion_order_invariant_bitwise():
    model = init_fusion_model(small_strategy("mean"), seed=3)
    rng = np.random.default_rng(7)
    vecs = {m: rng.normal(size=4) for m in MODALITIES}
    h_fwd, _ = fuse(model, *one_row(dict(sorted(vecs.items())), np.ones(4), 4))
    h_rev, _ = fuse(model, *one_row(dict(sorted(vecs.items(), reverse=True)), np.ones(4), 4))
    assert np.array_equal(h_fwd, h_rev)
    # the sum runs in modality-id order, whatever order the rows were filled in
    ys = [model.body[m].forward(vecs[m][None, :])[0] for m in MODALITIES]
    assert np.array_equal(h_fwd, (((ys[0] + ys[1]) + ys[2]) + ys[3]) / 4)


def test_tensor_fuse_matches_bruteforce_product():
    model = init_fusion_model(small_strategy("tensor"), seed=4)
    rng = np.random.default_rng(8)
    vecs = {m: rng.normal(size=4) for m in MODALITIES}
    mask = np.array([1, 1, 0, 1])
    h, tape = fuse(model, *one_row({m: v for m, v in vecs.items() if mask[m]}, mask, 4))
    h = h[0]
    factors = []
    for m in MODALITIES:
        if mask[m]:
            y, _ = model.body[m].forward(vecs[m][None, :])
            factors.append(np.append(y[0], 1.0))
        else:
            factors.append(np.append(np.zeros(3), 1.0))
    expected = kron4_oracle(*factors)
    assert np.array_equal(h, expected)  # the oracle multiplies in the same left-to-right order
    assert h.shape == ((3 + 1) ** 4,)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# factor entries that stress the sign of zero, overflow to inf and underflow to 0
HOSTILE = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e150, -1e150, 1e300, np.inf, -np.inf, 3.5e-8]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=2**32))
@example(1, 1, 0)
@example(3, 9, 1)
def test_tensor_product_has_the_bits_of_the_four_operand_einsum(n, width, seed):
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(n, 4, width)) * 10.0 ** rng.integers(-150, 151, size=(n, 4, width))
    hostile = rng.random((n, 4, width)) < 0.3
    factors[hostile] = rng.choice(HOSTILE, size=hostile.sum())
    absent = rng.random((n, 4)) < 0.3  # the slots fuse gives a hidden modality: zeros, then 1
    factors[absent] = np.r_[np.zeros(width - 1), 1.0]
    with np.errstate(all="ignore"):
        assert same_bits(tensor_product(factors), tensor_product_einsum(factors))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 255, 256, 257, 513]), st.sampled_from([1e-120, 1.0, 1e40, 1e90]),
       st.integers(min_value=0, max_value=2**32))
@example(1, 1.0, 0)
@example(255, 1e90, 1)
@example(256, 1e-120, 2)
@example(257, 1e40, 3)
@example(513, 1.0, 4)
def test_tensor_fuse_has_the_bits_of_the_four_operand_einsum(n, scale, seed):
    rng = np.random.default_rng(seed)
    model = init_fusion_model(FusionStrategy("tensor"), seed=seed % 1000)
    for net in model.body.values():
        net.layers[-1].w[...] *= scale  # huge or tiny factors; 1e90 overflows the product
    mask = rng.random((n, 4)) < 0.6
    mask[~mask.any(axis=1), rng.integers(4)] = True
    x = rng.normal(size=(n, 4, model.strategy.embed_dim))
    with np.errstate(over="ignore"):
        h, tape = fuse(model, x, mask)
    assert same_bits(h, tensor_product_einsum(tape.factors))
    assert (tape.factors[~mask][:, :-1] == 0.0).all()


def test_tensor_scoring_over_many_chunks_equals_the_einsum_path():
    rng = np.random.default_rng(30)
    model = init_fusion_model(FusionStrategy("tensor"), seed=31)
    n = 2 * SCORE_CHUNK + 37
    mask = rng.random((n, 4)) < 0.7
    mask[~mask.any(axis=1), 0] = True
    x = np.where(mask[:, :, None], rng.normal(size=(n, 4, model.strategy.embed_dim)), 0.0)
    table = Cohort(embedding_schema(DEFAULT_SCHEMA), [f"r{i}" for i in range(n)], np.ones(n),
                   np.ones(n), mask.astype(np.int64), [x[:, m] for m in MODALITIES])
    expected = np.concatenate([
        model.hazard_head.forward(tensor_product_einsum(fuse(model, x[s:s + SCORE_CHUNK],
                                                             mask[s:s + SCORE_CHUNK])[1].factors))[0][:, 0]
        for s in range(0, n, SCORE_CHUNK)])
    assert np.array_equal(score_records(model, None, table, np.arange(n)), expected)


def test_tensor_all_zero_reducers_give_trailing_one_hot():
    model = init_fusion_model(FusionStrategy("tensor"), seed=5)
    for net in model.body.values():
        for layer in net.layers:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
    x = {m: np.random.default_rng(9).normal(size=32) for m in MODALITIES}
    h, _ = fuse(model, *one_row(x, np.ones(4, dtype=np.int64), 32))
    assert h.shape == (1, 6561)
    expected = np.zeros(6561)
    expected[6560] = 1.0
    assert np.array_equal(h[0], expected)


def test_fuse_rejects_inconsistent_inputs():
    model = init_fusion_model(small_strategy("mean"), seed=6)
    x = np.zeros((2, 4, 4))
    with pytest.raises(DataError):
        fuse(model, x, np.array([[1, 0, 0, 0], [0, 0, 0, 0]]))  # a row with nothing present
    with pytest.raises(DataError):
        fuse(model, x, np.array([1, 1, 0, 0]))  # mask is not one row per embedding row
    with pytest.raises(DataError):
        fuse(model, np.zeros((2, 4, 9)), np.ones((2, 4)))  # bad width
    with pytest.raises(DataError):
        batch_loss_and_grads(model, x, np.array([[1, 0, 0, 0]] * 2), np.array([[1, 1, 0, 0]] * 2),
                             np.array([1.0, 2.0]), np.array([1.0, 0.0]))  # training mask wider than the availability


def rel_close(a, b, tol=1e-12):
    return np.abs(a - b).max() <= tol * max(np.abs(b).max(), 1e-300)


def part_grads(model, grad) -> dict:
    """{part name: its slice} of a gradient vector in the ``parts()`` packing layout."""
    names, nets = zip(*model.parts())
    return dict(zip(names, split(grad, nets)))


@pytest.mark.parametrize("kind", ["concat", "mean", "tensor"])
def test_fuse_batch_equals_stacked_single_rows(kind):
    model = init_fusion_model(small_strategy(kind), seed=22)
    rng = np.random.default_rng(23)
    # mixed masks: every row shows a different subset, one modality is
    # hidden in every row, and hidden slots hold junk that must be ignored
    mask = np.array([[1, 0, 1, 0], [0, 0, 1, 0], [1, 0, 1, 1], [0, 0, 0, 1], [1, 0, 0, 0]])
    x = rng.normal(size=(5, 4, 4)) + 1e3 * (1 - mask)[:, :, None]
    h, _ = fuse(model, x, mask)
    rows = np.vstack([fuse(model, x[i:i + 1], mask[i:i + 1])[0] for i in range(5)])
    assert h.shape == (5, model.strategy.fused_dim)
    assert rel_close(h, rows)
    if kind == "tensor":
        # pathology is hidden everywhere: only its constant slot (index 3 of 4) carries weight
        assert np.all(h.reshape(5, 4, 4, 4, 4)[:, :, :3] == 0.0)


@pytest.mark.parametrize("kind,recon", [("concat", True), ("mean", True), ("tensor", True),
                                        ("tensor", False)])
def test_batch_loss_and_grads_is_invariant_to_row_order(kind, recon):
    model = init_fusion_model(small_strategy(kind), seed=24, recon=recon, lam=0.7)
    batch = make_batch(np.random.default_rng(25), 7, embed_dim=4, with_dropout=True)
    perm = np.random.default_rng(26).permutation(7)
    total, cox, rec, grads, dx = batch_loss_and_grads(model, *batch)
    p_total, p_cox, p_rec, p_grads, p_dx = batch_loss_and_grads(model, *(a[perm] for a in batch))
    assert abs(p_total - total) <= 1e-12 * abs(total)
    assert abs(p_cox - cox) <= 1e-12 * abs(cox)
    assert abs(p_rec - rec) <= 1e-12 * max(abs(rec), 1e-300)
    assert p_grads.shape == grads.shape == (sum(net.params.size for _, net in model.parts()),)
    p_grads, grads = part_grads(model, p_grads), part_grads(model, grads)
    assert list(p_grads) == [name for name, _ in model.parts()] == list(grads)
    for name in grads:
        assert rel_close(p_grads[name], grads[name])
    assert rel_close(p_dx, dx[perm])


def test_a_zero_hazard_head_scores_zero():
    model = init_fusion_model(small_strategy("mean"), seed=7)
    for layer in model.hazard_head.layers:
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    x = np.ones((3, 4, 4))
    table = Cohort(ModalitySchema(raw_dims=(4, 4, 4, 4), embed_dim=4), ["a", "b", "c"], np.ones(3),
                   np.ones(3), np.ones((3, 4)), [x[:, m] for m in MODALITIES])
    scores = score_records(model, None, table, np.arange(3))
    assert scores.shape == (3,) and np.all(scores == 0.0)


# ── reconstruction loss ──────────────────────────────────────────────────────

def test_recon_loss_zero_when_decoded_matches_targets():
    rng = np.random.default_rng(10)
    targets = rng.normal(size=(3, 4, 5))
    alpha = np.ones((3, 4))
    assert recon_loss_and_grad(targets.copy(), targets, alpha)[0] == 0.0


def test_recon_loss_single_sample_single_modality():
    decoded = np.zeros((1, 4, 4))
    targets = np.zeros((1, 4, 4))
    decoded[0, 0] = [3.0, 0.0, 0.0, 0.0]  # distance 3 on the only available slot
    alpha = np.zeros((1, 4))
    alpha[0, 0] = 1.0
    assert recon_loss_and_grad(decoded, targets, alpha)[0] == pytest.approx(3.0, abs=1e-15)


def test_recon_loss_batch_normalizer_counts_available_slots():
    # sample one: two available slots at distances 3 and 4; sample two:
    # three available slots at distances 1, 2, 0 -> (3+4+1+2+0) / 5 = 2.0
    decoded = np.zeros((2, 4, 4))
    targets = np.zeros((2, 4, 4))
    alpha = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]])
    decoded[0, 0, 0] = 3.0
    decoded[0, 1, 1] = 4.0
    decoded[1, 0, 2] = 1.0
    decoded[1, 1, 3] = 2.0
    assert recon_loss_and_grad(decoded, targets, alpha)[0] == pytest.approx(2.0, abs=1e-12)


def test_recon_loss_ignores_unavailable_slots_exactly():
    rng = np.random.default_rng(11)
    targets = rng.normal(size=(4, 4, 6))
    decoded = rng.normal(size=(4, 4, 6))
    alpha = (rng.random((4, 4)) < 0.5).astype(float)
    alpha[:, 0] = 1.0  # keep at least one slot per sample
    base = recon_loss_and_grad(decoded, targets, alpha)[0]
    noisy = decoded.copy()
    noisy[alpha == 0.0] = rng.normal(size=noisy[alpha == 0.0].shape) * 1e6
    assert recon_loss_and_grad(noisy, targets, alpha)[0] == base


def test_recon_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(12)
    shape = (3, 4, 5)
    targets = rng.normal(size=shape)
    decoded = rng.normal(size=shape)
    alpha = np.ones((3, 4))
    alpha[1, 2] = 0.0
    analytic = recon_loss_and_grad(decoded, targets, alpha)[1].ravel()
    numeric = finite_diff_grad(
        lambda p: recon_loss_and_grad(p.reshape(shape), targets, alpha)[0], decoded.ravel(),
        h=1e-6)
    scale = max(np.abs(numeric).max(), 1e-8)
    assert np.abs(analytic - numeric).max() / scale < 1e-4


def test_recon_loss_shape_mismatch_and_empty_batch():
    with pytest.raises(DataError):
        recon_loss_and_grad(np.zeros((2, 4, 3)), np.zeros((2, 4, 4)), np.ones((2, 4)))
    with pytest.raises(DataError):
        recon_loss_and_grad(np.zeros((1, 4, 3)), np.zeros((1, 4, 3)), np.zeros((1, 4)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=2**32))
@example(1, 1, 0)
def test_recon_loss_and_grad_equal_the_two_pass_reference(n, width, seed):
    rng = np.random.default_rng(seed)
    decoded = rng.normal(size=(n, 4, width))
    targets = rng.normal(size=(n, 4, width))
    exact = rng.random((n, 4)) < 0.2  # slots decoded exactly, distance 0
    targets[exact] = decoded[exact]
    alpha = (rng.random((n, 4)) < 0.7).astype(float)
    alpha[0, 0] = 1.0
    loss, grad = recon_loss_and_grad(decoded, targets, alpha)
    assert loss == recon_loss_two_pass(decoded, targets, alpha)
    assert np.array_equal(grad, recon_loss_grad_two_pass(decoded, targets, alpha))


def test_total_loss_combination():
    batch = make_batch(np.random.default_rng(19), 6, embed_dim=4, with_dropout=True)
    for lam in (0.7, 0.0):
        model = init_fusion_model(small_strategy("mean"), seed=20, recon=True, lam=lam)
        total, cox, recon, _, _ = batch_loss_and_grads(model, *batch)
        assert recon > 1.0 and total == cox + lam * recon
    model = init_fusion_model(small_strategy("mean"), seed=20, recon=True, lam=np.finfo(float).max)
    with pytest.raises(NumericalError, match="non-finite total loss"):
        batch_loss_and_grads(model, *batch)


# ── end-to-end gradients through each strategy ───────────────────────────────

@pytest.mark.parametrize("kind,recon", [("concat", False), ("mean", False),
                                        ("mean", True), ("tensor", False), ("tensor", True)])
def test_fusion_parameter_gradients_match_finite_differences(kind, recon):
    rng = np.random.default_rng(13)
    model = init_fusion_model(small_strategy(kind), seed=14, recon=recon, lam=0.7)
    batch = make_batch(rng, 6, embed_dim=4, with_dropout=True)

    params = pack([net for _, net in model.parts()])
    _, _, _, analytic, _ = batch_loss_and_grads(model, *batch)

    def loss_of(p):
        params[...] = p
        total, _, _, _, _ = batch_loss_and_grads(model, *batch)
        return total

    numeric = finite_diff_grad(loss_of, params.copy(), h=1e-5)
    scale = max(np.abs(numeric).max(), 1e-8)
    assert np.abs(analytic - numeric).max() / scale < 1e-4


@pytest.mark.parametrize("kind", ["concat", "mean", "tensor"])
def test_fusion_embedding_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(15)
    model = init_fusion_model(small_strategy(kind), seed=16, recon=False)
    batch = make_batch(rng, 5, embed_dim=4, full_mask=True)

    _, _, _, _, dx = batch_loss_and_grads(model, *batch)
    target_sample, target_mod = 2, ModalityId.GENOMICS
    analytic = dx[target_sample, target_mod]

    def loss_of(vec):
        embeddings = batch[0].copy()
        embeddings[target_sample, target_mod] = vec
        total, _, _, _, _ = batch_loss_and_grads(model, embeddings, *batch[1:])
        return total

    numeric = finite_diff_grad(loss_of, batch[0][target_sample, target_mod], h=1e-5)
    scale = max(np.abs(numeric).max(), 1e-8)
    assert np.abs(analytic - numeric).max() / scale < 1e-4


def test_masked_modalities_receive_no_parameter_gradient():
    rng = np.random.default_rng(17)
    model = init_fusion_model(small_strategy("mean"), seed=18)
    mask = np.array([1, 0, 1, 1], dtype=np.int64)  # pathology hidden by dropout
    embeddings = rng.normal(size=(4, 4, 4))
    _, _, _, grads, dx = batch_loss_and_grads(model, embeddings, np.ones((4, 4), dtype=np.int64),
                                              np.tile(mask, (4, 1)), np.arange(1.0, 5.0), np.ones(4))
    grads = part_grads(model, grads)
    assert np.all(grads["extender_pathology"] == 0.0)
    assert np.any(grads["extender_radiology"] != 0.0)
    assert np.all(dx[:, ModalityId.PATHOLOGY] == 0.0)


def test_an_absent_modality_leaves_exact_zeros_in_its_slice_of_the_trainer_gradient():
    rng = np.random.default_rng(19)
    model = init_fusion_model(small_strategy("mean"), seed=20, recon=True)
    params = pack([net for _, net in model.parts()])
    alpha = np.tile(np.array([1, 1, 0, 1], dtype=np.int64), (4, 1))  # no row has genomics
    embeddings = rng.normal(size=(4, 4, 4)) * alpha[:, :, None]
    grad = np.full_like(params, np.nan)  # what an earlier step could have left in the buffer
    _, _, _, out, _ = batch_loss_and_grads(model, embeddings, alpha, alpha.copy(), np.arange(1.0, 5.0),
                                           np.ones(4), grad)
    assert out is grad and np.isfinite(grad).all()
    grads = part_grads(model, grad)
    assert np.all(grads["extender_genomics"] == 0.0)
    assert all(np.any(grads[name] != 0.0) for name in grads if name != "extender_genomics")
    genomics, before = model.body[ModalityId.GENOMICS], params.copy()
    kept = genomics.params.copy()
    optimizer_step(params, grad, OptimizerState("adam", lr=0.01, params=params))
    assert np.array_equal(genomics.params, kept)  # a first Adam step on zeros moves nothing
    assert not np.array_equal(params, before)


@pytest.mark.parametrize("kind", ["concat", "mean", "tensor"])
@pytest.mark.parametrize("recon", [False, True])
def test_parts_table_and_seed_streams(kind, recon):
    model = init_fusion_model(small_strategy(kind), seed=3, recon=recon)
    prefix = {"mean": "extender", "tensor": "reducer"}.get(kind)
    body = [f"{prefix}_{m.label}" for m in MODALITIES] if prefix else []
    names = body + ["hazard_head"] + (["recon_head"] if recon else [])
    table = dict(model.parts())
    assert list(table) == names
    assert model.body == {m: table[name] for m, name in zip(MODALITIES, body)}
    assert model.hazard_head is table["hazard_head"] and model.recon_head is table.get("recon_head")
    # body net m draws from seed stream m, the hazard head from 4 and the decoder from 5
    streams = np.random.SeedSequence([fusion._FUSION_SALT, 3]).spawn(6)
    for name, slot in zip(names, [int(m) for m in model.body] + [4, 5]):
        fresh = init_net(table[name].dims, "relu", streams[slot], output_activation="identity")
        assert np.array_equal(table[name].params, fresh.params), name


# ── footprint ────────────────────────────────────────────────────────────────

def test_footprint_exact_counts_at_default_widths():
    # hand-summed: extender 32->64->128 twice affine, head 128->64->1,
    # reducer 32->16->8, tensor head 6561->64->1, recon 128->64->128
    mean = init_fusion_model(FusionStrategy("mean"), seed=19)
    concat = init_fusion_model(FusionStrategy("concat"), seed=19)
    tensor = init_fusion_model(FusionStrategy("tensor"), seed=19)
    mean_recon = init_fusion_model(FusionStrategy("mean"), seed=19, recon=True)

    extender = (32 * 64 + 64) + (64 * 128 + 128)
    head128 = (128 * 64 + 64) + (64 * 1 + 1)
    reducer = (32 * 16 + 16) + (16 * 8 + 8)
    head6561 = (6561 * 64 + 64) + (64 * 1 + 1)
    recon128 = (128 * 64 + 64) + (64 * 128 + 128)

    assert model_footprint(concat).total_params == head128 == 8321
    assert model_footprint(mean).total_params == 4 * extender + head128 == 50049
    assert model_footprint(tensor).total_params == 4 * reducer + head6561 == 422689
    assert model_footprint(mean_recon).total_params == 4 * extender + head128 + recon128 == 66625
    assert model_footprint(mean).total_bytes == 50049 * 8


def test_footprint_ordering_tensor_over_mean_over_concat():
    mean = init_fusion_model(FusionStrategy("mean"), seed=20)
    concat = init_fusion_model(FusionStrategy("concat"), seed=20)
    tensor = init_fusion_model(FusionStrategy("tensor"), seed=20)
    assert (model_footprint(tensor).total_params
            > model_footprint(mean).total_params
            > model_footprint(concat).total_params)


# ── checkpoints ──────────────────────────────────────────────────────────────

@pytest.mark.parametrize("kind,recon", [("concat", False), ("mean", True), ("tensor", False)])
def test_fusion_checkpoint_round_trip_bit_exact(tmp_path, kind, recon):
    model = init_fusion_model(small_strategy(kind), seed=21, recon=recon, lam=0.5)
    path = tmp_path / "fusion.json"
    write_json(str(path), fusion_to_dict(model))
    loaded = fusion_from_dict(json.loads(path.read_text()), origin=str(path))
    assert loaded.strategy == model.strategy
    assert loaded.lam == model.lam
    for (name_a, net_a), (name_b, net_b) in zip(model.parts(), loaded.parts()):
        assert name_a == name_b
        for la, lb in zip(net_a.layers, net_b.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)
            assert la.activation == lb.activation


@pytest.mark.parametrize("damage", ["no strategy", "bad kind", "no hazard head", "extra part",
                                    "narrow head", "widths disagree", "bad lam", "nan lam",
                                    "infinite lam", "negative lam"])
def test_fusion_checkpoint_rejects_missing_keys_and_wrong_widths(damage):
    payload = fusion_to_dict(init_fusion_model(small_strategy("tensor"), seed=27, recon=True))
    parts, spec = payload["parts"], payload["strategy"]
    if damage == "no strategy":
        del payload["strategy"]
    elif damage == "bad kind":
        spec["kind"] = "sum"
    elif damage == "no hazard head":
        del parts["hazard_head"]
    elif damage == "extra part":
        parts["extender_radiology"] = parts["reducer_radiology"]
    elif damage == "narrow head":
        parts["hazard_head"] = fusion_to_dict(init_fusion_model(small_strategy("mean"), seed=27))["parts"]["hazard_head"]
    elif damage == "widths disagree":
        spec["reduced_dim"] = 4  # fused width 625, the heads were saved for 256
    elif damage == "bad lam":
        payload["lam"] = "one"
    else:  # values json reads but no trainer writes
        payload["lam"] = {"nan lam": float("nan"), "infinite lam": float("inf"), "negative lam": -5.0}[damage]
    with pytest.raises(DataError, match="^checkpoint: "):
        fusion_from_dict(payload, origin="checkpoint")


def test_fusion_strategy_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        FusionStrategy("sum")
