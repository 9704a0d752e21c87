"""Fusion of per-modality embeddings under arbitrary missingness.

Three strategies share one interface. Concatenation lays the four embedding
slots side by side and zero-fills absent ones. Mean vector pushes each
present embedding through its own extender network and averages the
results, so any subset of modalities lands in the same space. Tensor fusion
reduces each embedding to a short vector, appends a constant 1, and takes
the four-way outer product; an absent modality contributes the bare
constant slot, which leaves the other modalities' cross terms intact. With
every modality absent from the product the fused vector would collapse to a
single 1 in the last position (index 6560 at the default widths), but
masks with no present modality are rejected before that can happen.

Everything works on batches: an (n, 4, embed) block of embeddings plus an
(n, 4) 0/1 mask. Each extender or reducer runs once per batch, on the rows
where its modality is visible, in modality-id order. Concatenation is a
masked reshape, mean vector a masked sum over the visible count, and the
tensor product three chained two-operand products over the batch, widths
w -> w^2 -> w^3 -> w^4. Each entry comes out as ((f0*f1)*f2)*f3, the same
multiplications in the same order as one four-operand einsum, and both forms
add 0.0 to their products, which can only turn a -0.0 into +0.0; so the fused
block has the same bits as the four-operand einsum, several times faster
(numpy runs a four-operand einsum through its generic loop).

Training-time modality dropout hides a random subset of the present
modalities and redraws whenever the draw would hide all of them. The
reconstruction loss compares decoded embeddings against the originally
available ones, dropout mask ignored, so the model is pushed to rebuild
exactly what it was shown before hiding. Its normalizer is the total count
of available modality instances in the batch. Like the Cox loss, it returns
its value and its gradient from one pass, and one training step,
``batch_loss_and_grads``, runs the forward pass, both losses and the
backward pass in one body.

All gradients are hand-derived, including the backward pass through the
four-way outer product, which contracts the fused gradient against the
other three factors of each row.
"""
from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from .cohort import MODALITIES, N_MODALITIES
from .errors import ConfigError, DataError, NumericalError
from .nets import DenseNet, check_format, init_net, net_from_dict, net_to_dict, split
from .survival import cox_loss_and_grad

FUSION_KINDS = ("concat", "mean", "tensor")
CHECKPOINT_FORMAT = "fusion-v1"
NORM_EPS = 1e-12  # guards the derivative of the unsquared norm
# Records scored at a time: the scoring loop (``pipeline``) encodes, fuses
# and runs the hazard head on SCORE_CHUNK rows per pass, and an embedding
# table encodes in the same blocks, so no pass holds more than one block's
# activations (a fused tensor block is SCORE_CHUNK x 6561 doubles, 13 MB)
# whatever the cohort size.
SCORE_CHUNK = 256

_FUSION_SALT = 0xF05E


@dataclass(frozen=True)
class FusionStrategy:
    """Which fusion to build and the widths of its pieces."""

    kind: str
    embed_dim: int = 32
    extended_dim: int = 128   # mean vector: extender output width
    reduced_dim: int = 8      # tensor: per-modality width before the product
    extender_hidden: int = 64
    reducer_hidden: int = 16
    head_hidden: int = 64
    recon_hidden: int = 64

    def __post_init__(self):
        if self.kind not in FUSION_KINDS:
            raise ConfigError(f"unknown fusion strategy {self.kind!r}, expected one of {FUSION_KINDS}")
        if not all(isinstance(w, (int, np.integer)) and w > 0 for w in astuple(self)[1:]):
            raise ConfigError("fusion widths must be positive integers")

    @property
    def fused_dim(self) -> int:
        if self.kind == "concat":
            return N_MODALITIES * self.embed_dim
        if self.kind == "mean":
            return self.extended_dim
        return (self.reduced_dim + 1) ** N_MODALITIES


class FusionModel:
    """Fusion networks for one strategy as one ``{name: DenseNet}`` table, in ``_part_dims`` order.

    ``body`` maps each modality to its extender (mean) or reducer (tensor)
    and is empty for concat; the heads are read from the same table.
    """

    def __init__(self, strategy: FusionStrategy, parts: dict, lam: float = 1.0):
        self.strategy = strategy
        self._parts = dict(parts)
        self.lam = float(lam)
        self.body = dict(zip(MODALITIES, self._parts.values())) if strategy.kind != "concat" else {}
        self.hazard_head = self._parts["hazard_head"]
        self.recon_head = self._parts.get("recon_head")

    def parts(self) -> list[tuple[str, DenseNet]]:
        """Named subnetworks in a fixed order; the unit of optimization."""
        return list(self._parts.items())


def _part_dims(s: FusionStrategy, recon: bool) -> dict[str, tuple[int, ...]]:
    """Layer widths of every part, input first, in ``FusionModel.parts()`` order."""
    dims = {}
    if s.kind == "mean":
        dims.update({f"extender_{m.label}": (s.embed_dim, s.extender_hidden, s.extended_dim)
                     for m in MODALITIES})
    elif s.kind == "tensor":
        dims.update({f"reducer_{m.label}": (s.embed_dim, s.reducer_hidden, s.reduced_dim)
                     for m in MODALITIES})
    dims["hazard_head"] = (s.fused_dim, s.head_hidden, 1)
    if recon:
        dims["recon_head"] = (s.fused_dim, s.recon_hidden, N_MODALITIES * s.embed_dim)
    return dims


def init_fusion_model(strategy: FusionStrategy, seed, recon: bool = False, lam: float = 1.0) -> FusionModel:
    if isinstance(seed, np.random.SeedSequence):
        base = seed
    else:
        base = np.random.SeedSequence([_FUSION_SALT, int(seed)])
    # body nets take streams 0-3 by modality, the hazard head 4 and any decoder
    # 5; concat has no body nets, so its heads skip to stream 4
    seeds = base.spawn(N_MODALITIES + 2)
    if strategy.kind == "concat":
        seeds = seeds[N_MODALITIES:]
    parts = {name: init_net(dims, "relu", s, output_activation="identity")
             for (name, dims), s in zip(_part_dims(strategy, recon).items(), seeds)}
    return FusionModel(strategy, parts, lam)


def modality_dropout(mask: np.ndarray, rate: float, rng) -> np.ndarray:
    """Randomly hide present modalities, never all of them.

    Each present modality survives independently with probability 1 - rate;
    a draw that hides everything is rejected and redrawn, so the result is
    the subset distribution conditioned on being non-empty. Rate 0 hides
    none; rate 1 would redraw forever, so the rate must lie in [0, 1).
    """
    if not 0 <= rate < 1:
        raise ConfigError("dropout rate must lie in [0, 1)")
    mask = np.asarray(mask)
    if mask.shape != (N_MODALITIES,):
        raise DataError(f"mask must have {N_MODALITIES} entries")
    present = mask.astype(bool)
    if not present.any():
        raise DataError("mask has no available modality")
    if rate == 0.0:
        return mask.astype(np.int64).copy()
    while True:
        keep = (rng.random(N_MODALITIES) >= rate) & present
        if keep.any():
            return keep.astype(np.int64)


@dataclass
class FuseTape:
    """Bookkeeping from one fuse() call, consumed by the backward pass."""

    mask: np.ndarray                               # (n, 4) bool, the visible slots
    net_tapes: dict = field(default_factory=dict)  # modality -> (rows, net tape), id order
    factors: np.ndarray | None = None              # tensor: (n, 4, reduced + 1)


def _check_fuse_inputs(model: FusionModel, embeddings, mask) -> tuple[np.ndarray, np.ndarray]:
    e = model.strategy.embed_dim
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (N_MODALITIES, e):
        raise DataError(f"embeddings must be an (n, {N_MODALITIES}, {e}) block, got {x.shape}")
    mask = np.asarray(mask)
    if mask.shape != x.shape[:2]:
        raise DataError(f"mask must be (n, {N_MODALITIES}) with one row per embedding row, got {mask.shape}")
    visible = mask.astype(bool)
    if not visible.any(axis=1).all():
        raise DataError("cannot fuse a row with no present modality")
    return x, visible


def fuse(model: FusionModel, embeddings, mask) -> tuple[np.ndarray, FuseTape]:
    """Combine each row's visible embeddings into one fused vector.

    ``embeddings`` is an (n, 4, embed) block and ``mask`` its (n, 4) 0/1
    visibility; hidden slots are ignored whatever they hold. Returns the
    (n, fused_dim) block. Body nets run once each, on the rows where their
    modality is visible, and accumulate in fixed modality-id order. A
    modality visible in every row is read as a view of its embedding slot
    and accumulated into the whole block in place.
    """
    s = model.strategy
    x, visible = _check_fuse_inputs(model, embeddings, mask)
    n = x.shape[0]
    tape = FuseTape(visible)
    if s.kind == "concat":
        return np.where(visible[:, :, None], x, 0.0).reshape(n, s.fused_dim), tape
    if s.kind == "mean":
        acc = np.zeros((n, s.extended_dim))
        for m, rows, y in _run_body_nets(model.body, x, visible, tape):
            acc[rows] += y
        acc /= visible.sum(axis=1)[:, None]
        return acc, tape
    # tensor: reduce, append the constant slot, then the 4-way outer product
    factors = np.zeros((n, N_MODALITIES, s.reduced_dim + 1))
    factors[:, :, s.reduced_dim] = 1.0
    for m, rows, y in _run_body_nets(model.body, x, visible, tape):
        factors[rows, m, :s.reduced_dim] = y
    tape.factors = factors
    return tensor_product(factors), tape


def tensor_product(factors: np.ndarray) -> np.ndarray:
    """Row-wise outer product of an (n, k, w) factor block, flattened to (n, w**k).

    Built as chained two-operand products, so entry (i, j, l, m) is
    ((f0[i] * f1[j]) * f2[l]) * f3[m] + 0.0, bit for bit what the
    four-operand einsum computes.
    """
    h = factors[:, 0]
    for m in range(1, factors.shape[1]):
        g = factors[:, m]
        h = np.einsum("bi,bj->bij", h, g).reshape(len(h), h.shape[1] * g.shape[1])
    return h


def _run_body_nets(nets: dict, x: np.ndarray, visible: np.ndarray, tape: FuseTape):
    """Forward each modality's net on its visible rows, in id order; yields (m, rows, output).

    ``rows`` is ``slice(None)`` for a modality visible in every row, whose
    slot is read as a view; the tape keeps the row positions either way.
    """
    for m in MODALITIES:
        rows = np.flatnonzero(visible[:, m])
        if rows.size:
            whole = rows.size == len(x)
            y, net_tape = nets[m].forward(x[:, m] if whole else x[rows, m])
            tape.net_tapes[m] = (rows, net_tape)
            yield m, slice(None) if whole else rows, y


def _tensor_factor_grads(dh: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Gradient of the flattened outer product with respect to each factor, (n, 4, reduced + 1)."""
    n, _, width = factors.shape
    u = dh.reshape((n,) + (width,) * N_MODALITIES)
    f0, f1, f2, f3 = factors.transpose(1, 0, 2)
    return np.stack([np.einsum("bijkl,bj,bk,bl->bi", u, f1, f2, f3),
                     np.einsum("bijkl,bi,bk,bl->bj", u, f0, f2, f3),
                     np.einsum("bijkl,bi,bj,bl->bk", u, f0, f1, f3),
                     np.einsum("bijkl,bi,bj,bk->bl", u, f0, f1, f2)], axis=1)


def fuse_backward(model: FusionModel, tape: FuseTape, dh: np.ndarray, body_grads) -> np.ndarray:
    """Push an (n, fused_dim) gradient back to body nets and input embeddings.

    ``body_grads`` holds one vector per body net in modality-id order (none
    for concat), each in its net's ``params`` layout; each net's parameter
    gradient is written into its vector, zeros for a net that saw no rows.
    Returns the (n, 4, embed) input gradient, zero on hidden slots.
    """
    s = model.strategy
    n = dh.shape[0]
    if s.kind == "concat":
        return np.where(tape.mask[:, :, None], dh.reshape(n, N_MODALITIES, s.embed_dim), 0.0)
    dx = np.zeros((n, N_MODALITIES, s.embed_dim))
    if s.kind == "mean":
        up = dh / tape.mask.sum(axis=1)[:, None]
    else:
        up = _tensor_factor_grads(dh, tape.factors)
    for m, grad in zip(MODALITIES, body_grads):
        if m not in tape.net_tapes:
            grad[...] = 0.0
            continue
        rows, net_tape = tape.net_tapes[m]
        upstream = up[rows] if s.kind == "mean" else up[rows, m, :s.reduced_dim]
        _, dx[rows, m] = model.body[m].backward(net_tape, upstream, grad)
    return dx


def recon_loss_and_grad(decoded: np.ndarray, targets: np.ndarray,
                        alpha: np.ndarray) -> tuple[float, np.ndarray]:
    """Availability-masked reconstruction loss over one batch and its gradient
    with respect to ``decoded``, same shape.

    ``decoded`` and ``targets`` are (n, 4, embed); ``alpha`` is the (n, 4)
    original availability. Each available slot contributes the plain
    (unsquared) euclidean distance; the sum is divided by the total number
    of available slots in the batch. Slots with alpha 0 contribute exactly
    nothing, whatever values they hold.
    """
    decoded = np.asarray(decoded, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    n = decoded.shape[0]
    if decoded.shape != targets.shape or alpha.shape != (n, N_MODALITIES):
        raise DataError("decoded, targets, and alpha shapes do not line up")
    denom = alpha.sum()
    if denom == 0:
        raise DataError("batch has no available modality instances")
    diff = decoded - targets
    norms = np.linalg.norm(diff, axis=2)
    loss = float((alpha * norms).sum() / denom)
    if not np.isfinite(loss):
        raise NumericalError("non-finite reconstruction loss")
    scale = alpha / (norms + NORM_EPS) / denom
    return loss, diff * scale[:, :, None]


# ── batched training math ───────────────────────────────────────────────────

def dropout_masks(alpha: np.ndarray, rate: float, rng) -> np.ndarray:
    """Training masks for a batch: one ``modality_dropout`` draw per row, in row order."""
    alpha = np.asarray(alpha, dtype=np.int64)
    if rate == 0.0:
        return alpha.copy()
    return np.stack([modality_dropout(a, rate, rng) for a in alpha])


def batch_loss_and_grads(model: FusionModel, embeddings: np.ndarray, alpha: np.ndarray, mask: np.ndarray,
                         times: np.ndarray, events: np.ndarray, grad: np.ndarray | None = None):
    """One training step's math, no parameter updates: the mask check, ``fuse``,
    the hazard head and any decoder, both losses and the backward pass.

    ``embeddings`` is (n, 4, embed) and holds every originally available
    modality, zeros elsewhere; these are also the reconstruction targets.
    ``alpha`` is the (n, 4) availability and ``mask`` the training-time view
    after modality dropout, which must never be wider than the availability.

    Returns (total, cox, recon, parameter gradient, (n, 4, embed) input
    gradient). The parameter gradient is written into ``grad``, a vector in
    the layout ``nets.pack`` gives ``parts()`` (a fresh one when None); a
    part that saw no rows gets zeros there. Reconstruction targets are
    treated as constants, gradients flow into the decoder and the fused
    representation but not through the target side.
    """
    if (mask > alpha).any():
        raise DataError("training mask shows a modality the record does not have")
    h, fuse_tape = fuse(model, embeddings, mask)
    y, head_tape = model.hazard_head.forward(h)
    cox, d_scores = cox_loss_and_grad(y[:, 0], times, events)
    recon = 0.0
    if model.recon_head is not None:
        flat, recon_tape = model.recon_head.forward(h)
        decoded = flat.reshape(len(h), N_MODALITIES, model.strategy.embed_dim)
        recon, d_decoded = recon_loss_and_grad(decoded, embeddings, alpha)
        d_decoded = model.lam * d_decoded
    total = cox + model.lam * recon
    if not np.isfinite(total):
        raise NumericalError("non-finite total loss")
    nets = [net for _, net in model.parts()]
    if grad is None:
        grad = np.empty(sum(net.params.size for net in nets))
    grads, k = split(grad, nets), len(model.body)  # parts(): k body nets, hazard head, any decoder
    _, dh = model.hazard_head.backward(head_tape, d_scores[:, None], grads[k])
    if model.recon_head is not None:
        _, dh_recon = model.recon_head.backward(recon_tape, d_decoded.reshape(len(dh), -1), grads[k + 1])
        dh = dh + dh_recon
    dx = fuse_backward(model, fuse_tape, dh, grads[:k])
    return total, cox, recon, grad, dx


# ── model size ───────────────────────────────────────────────────────────────

@dataclass
class Footprint:
    parts: dict
    total_params: int
    total_bytes: int


def model_footprint(model: FusionModel) -> Footprint:
    """Float64 parameter counts per part and in total."""
    parts = {name: net.params.size for name, net in model.parts()}
    total = sum(parts.values())
    return Footprint(parts, total, total * 8)


# ── checkpoints ──────────────────────────────────────────────────────────────

def fusion_to_dict(model: FusionModel) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "strategy": asdict(model.strategy),
        "lam": model.lam,
        "parts": {name: net_to_dict(net) for name, net in model.parts()},
    }


def fusion_from_dict(payload: dict, origin: str = "payload") -> FusionModel:
    """Rebuild a fusion model, checking every part against its strategy's widths."""
    check_format(payload, CHECKPOINT_FORMAT, origin, "fusion")
    try:
        strategy = FusionStrategy(**payload["strategy"])
        lam, blobs = float(payload["lam"]), dict(payload["parts"])
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as e:
        raise DataError(f"{origin}: missing or malformed strategy, lam or parts "
                        f"({type(e).__name__}: {e})") from e
    if not (np.isfinite(lam) and lam >= 0):
        raise DataError(f"{origin}: lam must be finite and non-negative, not {lam!r}")
    expected = _part_dims(strategy, recon="recon_head" in blobs)
    if set(blobs) != set(expected):
        raise DataError(f"{origin}: parts {sorted(blobs)} do not make a {strategy.kind} model")
    parts = {name: net_from_dict(blobs[name], origin=f"{origin}: {name}") for name in expected}
    for name, dims in expected.items():
        if parts[name].dims != dims:
            raise DataError(f"{origin}: {name} has widths {parts[name].dims}, the strategy needs {dims}")
    return FusionModel(strategy, parts, lam)

