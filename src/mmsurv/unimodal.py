"""Stage 1: per-modality encoders trained on the Cox objective.

Each modality gets its own small SELU encoder mapping raw features to a
32-dimensional embedding, topped during training by a single affine scoring
layer. Training runs only on the records where the modality is present, so
a rarely observed modality simply trains on fewer samples. After stage 1
the scoring layer is discarded and the frozen encoder produces embeddings
for the fusion stage.

An embedding table is just a cohort whose feature blocks are embeddings
(every block width equals the embedding width), which keeps one file format
for raw cohorts and precomputed embeddings.

``init_encoder`` is the one encoder builder, for stage 1, joint-scratch
training and the gradient checks alike. ``encode`` is the one way a set of
encoders runs over a cohort, and ``check_encoders`` the one check that it
can: building a table, scoring and joint training all go through them.
``embedding_table`` is the one table builder, for two-stage training and
``evaluate`` alike: each modality's encoder over the cohort's
``SCORE_CHUNK`` blocks as scoring runs it, every column kept on the
cohort, so a second training on one pool, or one test cohort evaluated
under several scenarios, encodes nothing again.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohort import N_MODALITIES, Cohort, ModalityId, ModalitySchema, embedding_schema
from .config import TrainConfig, TrainingTrace, fit
from .errors import DataError
from .fusion import SCORE_CHUNK
from .nets import DenseNet, check_format, init_net, net_from_dict, net_to_dict, read_json, write_json
from .survival import cox_loss_and_grad

ENCODER_HIDDEN = 64
CHECKPOINT_FORMAT = "unimodal-v1"

_STAGE1_SALT = 0x51A6E1


@dataclass
class UnimodalEncoder:
    """A trained per-modality encoder plus its stage-1 scoring head."""

    modality: ModalityId
    encoder: DenseNet
    head: DenseNet
    trace: TrainingTrace | None = field(default=None, repr=False)


def init_encoder(schema: ModalitySchema, modality: ModalityId, seed) -> DenseNet:
    """A fresh SELU encoder from ``modality``'s feature width to the schema's embedding width."""
    return init_net((schema.dim(modality), ENCODER_HIDDEN, schema.embed_dim), "selu", seed)


def train_unimodal(cohort: Cohort, modality: ModalityId, config: TrainConfig) -> UnimodalEncoder:
    """Train one modality's encoder on the records where it is present."""
    present = cohort.availability[:, modality] == 1
    if not present.any():
        raise DataError(f"no records carry {modality.label}, nothing to train on")
    x, times, events = cohort.block(modality)[present], cohort.times[present], cohort.events[present]
    if events.sum() == 0:
        raise DataError(f"records carrying {modality.label} have zero observed events")
    ss = np.random.SeedSequence([_STAGE1_SALT, config.seed, int(modality)])
    init_seed, head_seed, split_seed, shuffle_seed = ss.spawn(4)
    encoder = init_encoder(cohort.schema, modality, init_seed)
    head = init_net((cohort.schema.embed_dim, 1), "identity", head_seed)
    n_enc = encoder.params.size  # the packed layout: the encoder, then the head

    def step(idx, grad):
        emb, tape_e = encoder.forward(x[idx])
        f, tape_h = head.forward(emb)
        loss, d_scores = cox_loss_and_grad(f[:, 0], times[idx], events[idx])
        _, d_emb = head.backward(tape_h, d_scores[:, None], grad[n_enc:])
        encoder.backward(tape_e, d_emb, grad[:n_enc])
        return loss

    def val_risks(idx):
        return head.forward(encoder.forward(x[idx])[0])[0][:, 0]

    trace = fit([encoder, head], step, val_risks, times, events, optimizer=config.optimizer,
                lr=config.stage1_lr, epochs=config.stage1_epochs, batch_size=config.stage1_batch,
                patience=config.patience, val_fraction=config.val_fraction, split_seed=split_seed,
                shuffle_seed=shuffle_seed, context=f"stage 1 ({modality.label})")
    return UnimodalEncoder(modality, encoder, head, trace)


def check_encoders(nets, cohort: Cohort) -> None:
    """A DataError unless ``encode(nets, cohort, ...)`` can run.

    Every modality the cohort carries needs a net in ``nets`` ({modality:
    DenseNet}) that takes its feature width and yields the schema's
    embedding width. With ``nets`` None the feature blocks are the
    embeddings, so each carried block must be embedding-wide.
    """
    schema = cohort.schema
    needed = [m for m in ModalityId if cohort.availability[:, m].any()]
    if nets is None:
        for m in needed:
            if schema.dim(m) != schema.embed_dim:
                raise DataError(f"{m.label} has width {schema.dim(m)}, "
                                f"expected embeddings of width {schema.embed_dim}")
        return
    missing = sorted(m.label for m in needed if m not in nets)
    if missing:
        raise DataError("no encoder for modalities present in cohort: " + ", ".join(missing))
    for m in needed:
        if nets[m].input_dim != schema.dim(m):
            raise DataError(f"{m.label} encoder expects {nets[m].input_dim} features, "
                            f"cohort provides {schema.dim(m)}")
        if nets[m].output_dim != schema.embed_dim:
            raise DataError(f"{m.label} encoder yields {nets[m].output_dim}-wide embeddings, "
                            f"the schema declares {schema.embed_dim}")


def encode(nets, cohort: Cohort, idx: np.ndarray, tapes: dict | None = None) -> np.ndarray:
    """(len(idx), 4, embed) embeddings of the records ``idx``, zero where a modality is absent.

    Each modality's net runs once, on the rows of ``idx`` that carry it, in
    id order; with ``nets`` None the feature blocks are copied as they are.
    Every modality gathers the feature rows it runs on. One present in every
    row is written as a whole slot of the output; the others scatter their
    results into a zeroed slot. Given a ``tapes`` dict, each forward leaves
    its (rows, tape) in ``tapes[modality]``, rows counted as positions in
    ``idx``.
    """
    out = np.empty((len(idx), N_MODALITIES, cohort.schema.embed_dim))
    for m in ModalityId:
        taped = _encode_slot(out[:, m], nets, m, cohort, idx)
        if taped is not None and tapes is not None:
            tapes[m] = taped
    return out


def _encode_slot(slot: np.ndarray, nets, m: ModalityId, cohort: Cohort, idx: np.ndarray):
    """Write modality ``m``'s embeddings of the records ``idx`` into ``slot``; gives (rows, tape) or None."""
    rows = np.flatnonzero(cohort.availability[idx, m])
    whole = rows.size == len(idx)
    if not whole:
        slot[...] = 0.0
    if not rows.size:
        return None
    x = cohort.block(m)[idx if whole else idx[rows]]
    at = slice(None) if whole else rows
    if nets is None:
        slot[at] = x
        return None
    slot[at], tape = nets[m].forward(x)
    return rows, tape


def _column(nets, m: ModalityId, cohort: Cohort) -> np.ndarray:
    """(n, embed) embeddings of modality ``m``: its net over each SCORE_CHUNK block, as scoring runs it."""
    column = np.empty((len(cohort), cohort.schema.embed_dim))
    for start in range(0, len(cohort), SCORE_CHUNK):
        idx = np.arange(start, min(start + SCORE_CHUNK, len(cohort)))
        _encode_slot(column[start:start + len(idx)], nets, m, cohort, idx)
    return column


def _memo_column(nets, m: ModalityId, cohort: Cohort) -> np.ndarray:
    """``_column(nets, m, cohort)``, kept on ``cohort`` while ``nets[m]`` holds the same layers and bits."""
    net = nets[m]
    key = (net.dims, tuple(layer.activation for layer in net.layers), net.params.tobytes())
    held = cohort._memo.get(m)
    if held is None or held[0] != key:
        cohort._memo[m] = held = key, _column(nets, m, cohort)
    return held[1]


def embedding_table(nets, cohort: Cohort) -> Cohort:
    """The embedding table scoring ``cohort`` under ``nets`` would encode; a DataError unless it can.

    ``check_encoders`` runs first. Every embedding has the bits
    ``score_records`` gives it, and a modality the cohort does not carry is
    zero. Each column is memoized on ``cohort``, per modality and keyed by
    its net's widths, activations and parameter bytes, at ``embed * 8``
    bytes per record for as long as the cohort lives. The table is not
    checked again: its rows are ``cohort``'s, and a non-finite embedding
    fails as a network input when it is scored or trained on. With ``nets``
    None the feature blocks are the embeddings and ``cohort`` is its own
    table.
    """
    check_encoders(nets, cohort)
    if nets is None:
        return cohort
    carried = cohort.availability.any(axis=0)
    zeros = np.broadcast_to(0.0, (len(cohort), cohort.schema.embed_dim))
    return cohort._derive(schema=embedding_schema(cohort.schema),
                          blocks=[_memo_column(nets, m, cohort) if carried[m] else zeros for m in ModalityId])


def save_unimodal(model: UnimodalEncoder, path: str) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "modality": model.modality.label,
        "encoder": net_to_dict(model.encoder),
        "head": net_to_dict(model.head),
    }
    write_json(path, payload)


def load_unimodal(path: str) -> UnimodalEncoder:
    """Read a stage-1 checkpoint; anything malformed or mismatched is a DataError."""
    payload = read_json(path)
    check_format(payload, CHECKPOINT_FORMAT, path, "stage-1")
    label = payload.get("modality")
    if label not in [m.label for m in ModalityId]:
        raise DataError(f"{path}: unknown modality {label!r}")
    encoder = net_from_dict(payload.get("encoder"), origin=f"{path}: encoder")
    head = net_from_dict(payload.get("head"), origin=f"{path}: head")
    if head.dims != (encoder.output_dim, 1):
        raise DataError(f"{path}: head has widths {head.dims}, the encoder needs "
                        f"({encoder.output_dim}, 1)")
    return UnimodalEncoder(ModalityId.from_name(label), encoder, head)
