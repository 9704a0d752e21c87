"""Dense feed-forward networks with hand-derived reverse-mode gradients.

Everything runs in float64 on plain numpy arrays. A network is a stack of
affine layers, each followed by an elementwise activation. ``forward`` runs
an (n, input) batch of rows through the stack and returns a tape;
``backward`` consumes it with one product per layer for each of
``dW = dZᵀ·A``, ``db = dZ.sum(0)`` and ``dX = dZ·W``. A single record is a
one-row batch. The derivatives are written out by hand, and a central
finite-difference helper serves as the independent oracle in the tests.

Checkpoints are JSON: dims, per-layer activation ids, and row-major
parameter lists. Python's float repr round-trips doubles exactly, so a
save/load cycle is bit-identical.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

ACTIVATIONS = ("relu", "selu", "tanh", "identity")

CHECKPOINT_FORMAT = "densenet-v1"

# Elements per block of the in-place Adam update: a block's six 128 KiB
# operands stay in a core's L2 cache across the update's thirteen passes, and
# the scratch stays small however large the layer (a tensor head's is 3.4 MB).
ADAM_BLOCK = 16384


def activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "selu":
        return SELU_LAMBDA * np.where(z > 0.0, z, SELU_ALPHA * np.expm1(z))
    if name == "tanh":
        return np.tanh(z)
    if name == "identity":
        return z
    raise ConfigError(f"unknown activation {name!r}")


def activate_grad(name: str, z: np.ndarray) -> np.ndarray:
    """Derivative of the activation, evaluated at the pre-activation z."""
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "selu":
        return SELU_LAMBDA * np.where(z > 0.0, 1.0, SELU_ALPHA * np.exp(z))
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if name == "identity":
        return np.ones_like(z)
    raise ConfigError(f"unknown activation {name!r}")


@dataclass
class Layer:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    activation: str


class DenseNet:
    """A stack of affine layers with elementwise activations."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ConfigError("a network needs at least one layer")
        for k, layer in enumerate(layers):
            if layer.activation not in ACTIVATIONS:
                raise ConfigError(f"layer {k}: unknown activation {layer.activation!r}")
            if layer.w.ndim != 2 or layer.b.ndim != 1 or layer.w.shape[0] != layer.b.shape[0]:
                raise ConfigError(f"layer {k}: weight/bias shapes do not chain")
            if k > 0 and layer.w.shape[1] != layers[k - 1].w.shape[0]:
                raise ConfigError(f"layer {k}: input dim {layer.w.shape[1]} does not match previous output")
            if not (np.isfinite(layer.w).all() and np.isfinite(layer.b).all()):
                raise NumericalError(f"layer {k}: non-finite parameters")
            # in-place updates work on flat views, which need contiguous storage
            layer.w = np.ascontiguousarray(layer.w, dtype=np.float64)
            layer.b = np.ascontiguousarray(layer.b, dtype=np.float64)
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].w.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim,) + tuple(layer.w.shape[0] for layer in self.layers)

    def param_count(self) -> int:
        return sum(layer.w.size + layer.b.size for layer in self.layers)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Run an (n, input_dim) batch of rows through the stack.

        Returns the (n, output_dim) outputs and a tape of (input,
        pre-activation) block pairs, one per layer, that ``backward``
        consumes.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ConfigError(f"input shape {x.shape} is not a batch of rows of width {self.input_dim}")
        if not np.isfinite(x).all():
            raise NumericalError("non-finite network input")
        tape = []
        a = x
        for layer in self.layers:
            z = a @ layer.w.T + layer.b
            tape.append((a, z))
            a = activate(layer.activation, z)
        return a, tape

    def backward(self, tape: list, upstream: np.ndarray) -> tuple["GradientSet", np.ndarray]:
        """Backpropagate an (n, output_dim) upstream block through a forward tape.

        Returns a fresh GradientSet holding the parameter gradients summed
        over the rows, plus the (n, input_dim) gradient with respect to the
        network input (needed when networks are chained).
        """
        if len(tape) != len(self.layers):
            raise ConfigError("tape does not match network depth")
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != (tape[0][0].shape[0], self.output_dim):
            raise ConfigError(f"upstream shape {upstream.shape} does not match the taped batch "
                              f"of {tape[0][0].shape[0]} rows x {self.output_dim} outputs")
        dw, db = [None] * len(self.layers), [None] * len(self.layers)
        delta = upstream
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            a_in, z = tape[k]
            dz = delta if layer.activation == "identity" else delta * activate_grad(layer.activation, z)
            dw[k] = dz.T @ a_in
            db[k] = dz.sum(axis=0)
            delta = dz @ layer.w
        return GradientSet(dw, db), delta

    def copy(self) -> "DenseNet":
        return DenseNet([Layer(l.w.copy(), l.b.copy(), l.activation) for l in self.layers])

    def flat_params(self) -> np.ndarray:
        return np.concatenate([np.concatenate([l.w.ravel(), l.b]) for l in self.layers])

    def set_flat_params(self, p: np.ndarray) -> None:
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (self.param_count(),):
            raise ConfigError("flat parameter vector has wrong length")
        ofs = 0
        for layer in self.layers:
            n = layer.w.size
            layer.w[...] = p[ofs:ofs + n].reshape(layer.w.shape)
            ofs += n
            layer.b[...] = p[ofs:ofs + layer.b.size]
            ofs += layer.b.size


class GradientSet:
    """Per-layer parameter gradients for one DenseNet."""

    def __init__(self, dw: list[np.ndarray], db: list[np.ndarray]):
        self.dw = dw
        self.db = db

    @classmethod
    def zeros_like(cls, net: DenseNet) -> "GradientSet":
        return cls([np.zeros_like(l.w) for l in net.layers], [np.zeros_like(l.b) for l in net.layers])

    def flat(self) -> np.ndarray:
        return np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in zip(self.dw, self.db)])

    def is_finite(self) -> bool:
        return all(np.isfinite(dw).all() for dw in self.dw) and all(np.isfinite(db).all() for db in self.db)


def init_net(dims: tuple[int, ...], activation: str, seed, output_activation: str | None = None) -> DenseNet:
    """Build a network with freshly initialized parameters.

    ``dims`` lists layer widths input first, e.g. (80, 64, 32). Hidden layers
    use ``activation``; the last layer uses ``output_activation`` when given.
    Weights are zero-mean normal with variance 2/fan_in, except SELU layers
    which use 1/fan_in. Biases start at zero. ``seed`` may be an int or a
    numpy SeedSequence; the result is deterministic either way.
    """
    if len(dims) < 2:
        raise ConfigError("dims must list at least input and output width")
    if any(d < 1 for d in dims):
        raise ConfigError("all layer widths must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        act = activation
        if output_activation is not None and k == len(dims) - 2:
            act = output_activation
        if act not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {act!r}")
        var = 1.0 / fan_in if act == "selu" else 2.0 / fan_in
        w = rng.normal(0.0, math.sqrt(var), size=(fan_out, fan_in))
        layers.append(Layer(w, np.zeros(fan_out), act))
    return DenseNet(layers)


class OptimizerState:
    """Per-network optimizer state. ``optimizer_step`` is the only mutator."""

    def __init__(self, algorithm: str, lr: float, net: DenseNet,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if algorithm not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {algorithm!r}")
        if lr <= 0.0:
            raise ConfigError("learning rate must be positive")
        self.algorithm = algorithm
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        if algorithm == "adam":
            self.m = GradientSet.zeros_like(net)
            self.v = GradientSet.zeros_like(net)
            width = min(ADAM_BLOCK, max(l.w.size for l in net.layers))
            self.scratch = (np.empty(width), np.empty(width))


def _adam_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                 state: OptimizerState, c1: float, c2: float) -> None:
    """Adam on one parameter array in place, in the textbook order of operations."""
    b1, b2 = state.beta1, state.beta2
    p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
    for start in range(0, p.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        pb, gb, mb, vb = p[block], g[block], m[block], v[block]
        s, u = state.scratch[0][:pb.size], state.scratch[1][:pb.size]
        np.multiply(gb, 1.0 - b1, out=s)      # m = b1 m + (1 - b1) g
        mb *= b1
        mb += s
        np.multiply(gb, 1.0 - b2, out=s)      # v = b2 v + (1 - b2) g g
        s *= gb
        vb *= b2
        vb += s
        np.divide(vb, c2, out=s)              # p -= lr (m / c1) / (sqrt(v / c2) + eps)
        np.sqrt(s, out=s)
        s += state.eps
        np.divide(mb, c1, out=u)
        u *= state.lr
        u /= s
        pb -= u


def optimizer_step(net: DenseNet, grads: GradientSet, state: OptimizerState) -> None:
    """Apply one update in place. Refuses to step on non-finite gradients."""
    if len(grads.dw) != len(net.layers):
        raise ConfigError("gradient set does not match network depth")
    for k, layer in enumerate(net.layers):
        if grads.dw[k].shape != layer.w.shape or grads.db[k].shape != layer.b.shape:
            raise ConfigError(f"gradient shapes do not match layer {k}")
    if not grads.is_finite():
        raise NumericalError("non-finite gradient entries, step refused")
    state.t += 1
    if state.algorithm == "sgd":
        for k, layer in enumerate(net.layers):
            layer.w -= state.lr * grads.dw[k]
            layer.b -= state.lr * grads.db[k]
        return
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for k, layer in enumerate(net.layers):
        _adam_update(layer.w, grads.dw[k], state.m.dw[k], state.v.dw[k], state, c1, c2)
        _adam_update(layer.b, grads.db[k], state.m.db[k], state.v.db[k], state, c1, c2)


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


def net_to_dict(net: DenseNet) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "dims": list(net.dims),
        "activations": [l.activation for l in net.layers],
        "layers": [{"w": l.w.ravel().tolist(), "b": l.b.tolist()} for l in net.layers],
    }


def net_from_dict(d: dict, origin: str = "network") -> DenseNet:
    """Rebuild a network; a payload that is not one consistent layer chain is a DataError."""
    fmt = d.get("format") if isinstance(d, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise DataError(f"{origin}: not a network checkpoint (format {fmt!r})")
    try:
        dims = d["dims"]
        layers = [Layer(np.asarray(blob["w"], dtype=np.float64).reshape(dims[k + 1], dims[k]),
                        np.asarray(blob["b"], dtype=np.float64).reshape(dims[k + 1]), act)
                  for k, (act, blob) in enumerate(zip(d["activations"], d["layers"], strict=True))]
        if len(dims) != len(layers) + 1:
            raise ValueError(f"{len(dims)} widths for {len(layers)} layers")
        return DenseNet(layers)
    except (KeyError, IndexError, TypeError, ValueError, ConfigError) as e:
        raise DataError(f"{origin}: not a consistent layer chain ({type(e).__name__}: {e})") from e


def read_json(path: str):
    """The JSON payload of a checkpoint file; undecodable bytes or syntax are a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: not JSON ({e})") from None
