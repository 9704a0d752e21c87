"""Finite-difference verification of every analytic gradient in the package.

Each check compares hand-derived gradients against central differences on
batches of randomized instances and reports the worst relative error seen.
The network checks cover every layer geometry the fusion strategies and
encoders instantiate at default widths; large networks are probed on a
random subset of coordinates to keep the whole suite under a minute.

Central differences are only meaningful away from activation kinks, so
instances whose relu or selu pre-activations sit within a guard band of
zero are redrawn before measuring. Zero-bias initialization makes an
exactly-dead layer reachable, which would otherwise park every downstream
pre-activation exactly on the kink.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import DEFAULT_SCHEMA, MODALITIES, ModalityId
from .errors import ConfigError
from .fusion import (FUSION_KINDS, FusionStrategy, batch_loss_and_grads, fuse,
                     init_fusion_model, recon_loss_and_grad)
from .nets import init_net, pack
from .survival import cox_loss_and_grad
from .unimodal import init_encoder

DEFAULT_TOLERANCE = 1e-4
DEFAULT_STEP = 1e-5
_COORDS_PER_INSTANCE = 24
_KINK_GUARD = 1e-3  # min |pre-activation| for a valid finite-difference point
_MAX_REDRAWS = 200


@dataclass
class CheckResult:
    name: str
    instances: int
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-8)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def _fd_coords(f, p: np.ndarray, coords: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros(len(coords))
    for k, j in enumerate(coords):
        saved = p[j]
        p[j] = saved + h
        hi = f()
        p[j] = saved - h
        lo = f()
        p[j] = saved
        out[k] = (hi - lo) / (2 * h)
    return out


def _check_cox(rng, instances: int, h: float) -> float:
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 21))
        hz = rng.normal(0, 1.5, n)
        times = rng.exponential(200.0, n) + 1e-3
        if rng.random() < 0.3:  # force ties
            times[: n // 2] = times[0]
        events = rng.integers(0, 2, n).astype(np.int64)
        if events.sum() == 0:
            events[int(rng.integers(0, n))] = 1
        analytic = cox_loss_and_grad(hz, times, events)[1]
        numeric = _fd_coords(lambda: cox_loss_and_grad(hz, times, events)[0],
                             hz, np.arange(n), h)
        worst = max(worst, _rel_err(analytic, numeric))
    return worst


def _check_recon(rng, instances: int, h: float) -> float:
    worst = 0.0
    for _ in range(instances):
        n, e = int(rng.integers(1, 7)), int(rng.integers(2, 9))
        decoded = rng.normal(0, 1, (n, len(MODALITIES), e))
        targets = rng.normal(0, 1, (n, len(MODALITIES), e))
        alpha = rng.integers(0, 2, (n, len(MODALITIES))).astype(float)
        if alpha.sum() == 0:
            alpha[0, 0] = 1.0
        analytic = recon_loss_and_grad(decoded, targets, alpha)[1]
        flat = decoded.reshape(-1)
        coords = rng.choice(flat.size, size=min(_COORDS_PER_INSTANCE, flat.size), replace=False)
        numeric = _fd_coords(lambda: recon_loss_and_grad(decoded, targets, alpha)[0], flat, coords, h)
        worst = max(worst, _rel_err(analytic.reshape(-1)[coords], numeric))
    return worst


def _random_batch(rng, n: int, embed_dim: int) -> tuple:
    """``batch_loss_and_grads``'s (embeddings, alpha, mask, times, events) for ``n`` random records."""
    k = len(MODALITIES)
    embeddings = np.zeros((n, k, embed_dim))
    alpha, mask = np.zeros((n, k), dtype=np.int64), np.zeros((n, k), dtype=np.int64)
    times, events = np.zeros(n), np.zeros(n)
    for i in range(n):
        avail = rng.integers(0, 2, k)
        if avail.sum() == 0:
            avail[int(rng.integers(0, k))] = 1
        for m in np.flatnonzero(avail):
            embeddings[i, m] = rng.normal(0, 1, embed_dim)
        alpha[i] = mask[i] = avail
        if avail.sum() > 1 and rng.random() < 0.5:  # emulate dropout: hide one
            mask[i, int(rng.choice(np.flatnonzero(avail)))] = 0
        times[i] = rng.exponential(100.0) + 1e-3
        events[i] = float(i == 0 or rng.random() < 0.5)
    return embeddings, alpha, mask, times, events


def _tape_kink_gap(runs) -> float:
    """Smallest |pre-activation| over the non-identity layers of (network, tape) runs."""
    gap = np.inf
    for net, tape in runs:
        for layer, (_, z) in zip(net.layers, tape):
            if layer.activation != "identity":  # an encoder's SELU output has a kink too
                gap = min(gap, float(np.min(np.abs(z))))
    return gap


def _pass_tapes(model, embeddings: np.ndarray, mask: np.ndarray) -> list:
    """(network, tape) of every network a training pass over a batch runs:
    the body nets that saw rows, the hazard head and any decoder."""
    h, tape = fuse(model, embeddings, mask)
    heads = [net for net in (model.hazard_head, model.recon_head) if net is not None]
    runs = [(model.body[m], t) for m, (_, t) in tape.net_tapes.items()]
    return runs + [(net, net.forward(h)[1]) for net in heads]


def _check_total(rng, instances: int, h: float) -> float:
    dims = dict(embed_dim=4, extended_dim=8, reduced_dim=3,
                extender_hidden=6, reducer_hidden=5, head_hidden=5, recon_hidden=6)
    worst = 0.0
    kinds = ("concat", "mean", "tensor")
    for k in range(instances):
        strategy = FusionStrategy(kinds[k % 3], **dims)
        for _ in range(_MAX_REDRAWS):
            model = init_fusion_model(strategy, int(rng.integers(0, 2**31)),
                                      recon=bool(k % 2), lam=0.7)
            batch = _random_batch(rng, 4, dims["embed_dim"])
            embeddings, _, mask, _, _ = batch
            if _tape_kink_gap(_pass_tapes(model, embeddings, mask)) >= _KINK_GUARD:
                break
        p = pack([net for _, net in model.parts()])
        _, _, _, analytic, _ = batch_loss_and_grads(model, *batch)
        coords = rng.choice(p.size, size=min(_COORDS_PER_INSTANCE, p.size), replace=False)
        numeric = _fd_coords(lambda: batch_loss_and_grads(model, *batch)[0], p, coords, h)
        worst = max(worst, _rel_err(analytic[coords], numeric))
    return worst


def _net_configs():
    """(name, dims, hidden activation, output activation) of every network geometry.

    Read off the nets that ``init_encoder`` and ``init_fusion_model`` build
    at default widths, so the list follows the builders; the first net of
    each dims is kept.
    """
    def geometry(name, net):
        return (f"{name} ({net.input_dim}->{net.output_dim})", net.dims,
                net.layers[0].activation, net.layers[-1].activation)

    schema = DEFAULT_SCHEMA
    e = schema.embed_dim
    configs = [geometry("encoder", init_encoder(schema, m, 0)) for m in sorted(ModalityId, key=schema.dim)]
    configs.append((f"stage-1 head ({e}->1)", (e, 1), "identity", None))
    for kind in FUSION_KINDS:
        model = init_fusion_model(FusionStrategy(kind, embed_dim=e), 0, recon=True)
        for part, net in model.parts():
            configs.append(geometry(f"{kind} {part.replace('_', ' ')}" if part.endswith("_head")
                                    else part.split("_")[0], net))
    unique = {}
    for config in configs:
        unique.setdefault(config[1], config)
    return list(unique.values())


def _check_net(rng, dims, activation, output_activation, instances: int, h: float) -> float:
    worst = 0.0
    for _ in range(instances):
        for _ in range(_MAX_REDRAWS):
            net = init_net(dims, activation, int(rng.integers(0, 2**31)),
                           output_activation=output_activation)
            x = rng.normal(0, 1, (1, dims[0]))
            _, tape = net.forward(x)
            if _tape_kink_gap([(net, tape)]) >= _KINK_GUARD:
                break
        w = rng.normal(0, 1, (1, dims[-1]))
        analytic, _ = net.backward(tape, w)
        coords = rng.choice(net.params.size, size=min(_COORDS_PER_INSTANCE, net.params.size),
                            replace=False)
        numeric = _fd_coords(lambda: float((w * net.forward(x)[0]).sum()), net.params, coords, h)
        worst = max(worst, _rel_err(analytic[coords], numeric))
    return worst


def run_gradient_checks(seed: int = 0, instances: int = 50,
                        h: float = DEFAULT_STEP, tolerance: float = DEFAULT_TOLERANCE,
                        progress=None) -> list[CheckResult]:
    """Run every gradient check; returns one result per check."""
    if not (math.isfinite(h) and h > 0 and instances >= 1):
        raise ConfigError(f"gradcheck needs a finite step h > 0 and at least one instance "
                          f"(got h={h}, instances={instances})")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"gradcheck needs a finite tolerance > 0 (got tol={tolerance})")
    notify = progress or (lambda msg: None)
    ss = np.random.SeedSequence([0x6AD, seed])
    results = []

    def add(name, worst):
        results.append(CheckResult(name, instances, worst, tolerance))
        notify(f"{'PASS' if results[-1].passed else 'FAIL'} {name}: max rel err {worst:.3g}")

    streams = iter(ss.spawn(3 + len(_net_configs())))
    add("cox_loss", _check_cox(np.random.default_rng(next(streams)), instances, h))
    add("recon_loss", _check_recon(np.random.default_rng(next(streams)), instances, h))
    add("total_loss", _check_total(np.random.default_rng(next(streams)), instances, h))
    for name, dims, act, out_act in _net_configs():
        add(name, _check_net(np.random.default_rng(next(streams)), dims, act, out_act, instances, h))
    return results
