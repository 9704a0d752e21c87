"""The finite-difference suite itself: coverage and pass behavior."""
import numpy as np
import pytest

from mmsurv.cohort import DEFAULT_SCHEMA, MODALITIES, ModalityId, generate_synthetic
from mmsurv.config import TrainConfig
from mmsurv.fusion import FUSION_KINDS, FusionStrategy, init_fusion_model
from mmsurv.gradcheck import _KINK_GUARD, _net_configs, _pass_tapes, _tape_kink_gap, run_gradient_checks
from mmsurv.nets import init_net
from mmsurv.pipeline import ExperimentCell, train_cell
from mmsurv.unimodal import init_encoder, train_unimodal


def layout(net):
    """A network's widths and per-layer activations."""
    return net.dims, tuple(layer.activation for layer in net.layers)


def test_suite_passes_at_reduced_size():
    results = run_gradient_checks(seed=1, instances=6)
    assert all(r.passed for r in results)
    assert all(r.max_rel_err < 1e-4 for r in results)


def test_suite_covers_losses_and_every_network_geometry():
    results = run_gradient_checks(seed=0, instances=2)
    names = [r.name for r in results]
    for required in ("cox_loss", "recon_loss", "total_loss"):
        assert required in names
    for fragment in ("encoder (16->32)", "encoder (80->32)", "encoder (9->32)",
                     "stage-1 head", "extender", "reducer",
                     "concat hazard head (128->1)", "tensor hazard head (6561->1)",
                     "concat recon head (128->128)", "tensor recon head (6561->128)"):
        assert any(fragment in n for n in names), fragment
    assert len(names) == len(set(names))
    # every net the trainers build has a checked geometry: stage 1's encoders
    # and heads, and the encoders and fusion parts of joint training per strategy
    checked = {layout(init_net(dims, act, 0, output_activation=out_act))
               for _, dims, act, out_act in _net_configs()}
    cohort = generate_synthetic(60, seed=4)
    config = TrainConfig(seed=1, stage1_epochs=1, fusion_epochs=1)
    built = []
    for m in MODALITIES:
        trained = train_unimodal(cohort, m, config)
        built += [trained.encoder, trained.head]
    for kind in FUSION_KINDS:
        predictor = train_cell(cohort, config, ExperimentCell(kind, recon=True, mode="joint-scratch"))
        built += list(predictor.encoders.values()) + [net for _, net in predictor.fusion.parts()]
    # 4 x (encoder, head); 3 x 4 encoders; concat 2 heads, mean and tensor 4 body nets + 2 heads
    assert len(built) == 8 + 12 + 2 + 6 + 6
    assert {layout(net) for net in built} - checked == set()


def test_kink_guard_covers_an_encoders_selu_output_layer():
    # an encoder's last layer is SELU: an output pre-activation within the
    # guard band of its kink must be reported, so the instance is redrawn
    encoder = init_encoder(DEFAULT_SCHEMA, ModalityId.GENOMICS, 3)
    assert encoder.layers[-1].activation == "selu"
    x = np.random.default_rng(3).normal(0, 1, (1, encoder.input_dim))
    _, tape = encoder.forward(x)
    assert _tape_kink_gap([(encoder, tape)]) >= _KINK_GUARD
    encoder.layers[-1].b[5] -= tape[-1][1][0, 5] - 0.5 * _KINK_GUARD  # output 5 lands by the kink
    _, tape = encoder.forward(x)
    assert _tape_kink_gap([(encoder, tape[:-1])]) >= _KINK_GUARD  # the hidden layer is clear
    assert _tape_kink_gap([(encoder, tape)]) < _KINK_GUARD


@pytest.mark.parametrize("kind", FUSION_KINDS)
@pytest.mark.parametrize("recon", [False, True])
def test_kink_guard_lists_every_network_the_training_pass_runs(kind, recon):
    # the body nets that saw rows (genomics is hidden everywhere, radiology in
    # two rows), the hazard head and any decoder, each with its tape
    rng = np.random.default_rng(8)
    strategy = FusionStrategy(kind, embed_dim=4, extended_dim=8, reduced_dim=3, extender_hidden=6,
                              reducer_hidden=5, head_hidden=5, recon_hidden=6)
    model = init_fusion_model(strategy, 9, recon=recon, lam=0.7)
    n = 5
    alpha = np.ones((n, len(MODALITIES)), dtype=np.int64)
    mask = alpha.copy()
    mask[:, ModalityId.GENOMICS] = 0
    mask[:2, ModalityId.RADIOLOGY] = 0
    embeddings = rng.normal(size=(n, len(MODALITIES), 4))
    expected = [(model.body[m], int(mask[:, m].sum())) for m in model.body if mask[:, m].any()]
    expected += [(model.hazard_head, n)] + ([(model.recon_head, n)] if recon else [])
    runs = _pass_tapes(model, embeddings, mask)
    assert [id(net) for net, _ in runs] == [id(net) for net, _ in expected]
    for (net, tape), (_, rows) in zip(runs, expected):
        assert len(tape) == len(net.layers) and all(z.shape[0] == rows for _, z in tape)
