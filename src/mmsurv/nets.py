"""Dense feed-forward networks with hand-derived reverse-mode gradients.

Everything runs in float64 on plain numpy arrays. A network is a stack of
affine layers, each followed by an elementwise activation. ``forward`` runs
an (n, input) batch of rows through the stack and returns a tape;
``backward`` consumes it with one product per layer for each of
``dW = dZᵀ·A``, ``db = dZ.sum(0)`` and ``dX = dZ·W``. A single record is a
one-row batch. The derivatives are written out by hand and checked against
central finite differences in the tests.

A network is built from its widths, activations and one contiguous
vector, ``params``: layer by layer, each layer's (out, in) weights
row-major and then its out biases. Every ``layer.w`` and ``layer.b`` is a
reshaped view into that vector, so writing ``params`` moves the layers and
vice versa. ``pack`` moves the networks a trainer updates into one vector,
their ``params`` in list order, and points every network's ``params`` and
layers at views of it. ``backward`` writes the parameter gradient into a
vector in the ``params`` layout, which may be a slice of one gradient
vector in the ``pack`` layout; ``config.fit`` owns both vectors and the
optimizer, which updates the packed vector with one call per step.

Checkpoints are JSON: dims, per-layer activation ids, and row-major
parameter lists. Python's float repr round-trips doubles exactly, so a
save/load cycle is bit-identical. ``write_json`` writes a payload through
``atomic.atomic_write``, so an interrupted save leaves the previous file in
place, with the bytes of ``json.dumps``; ``net_to_dict``'s parameter arrays
go out ``WRITE_CHUNK`` floats at a time, so a save holds one slice's text,
not the whole checkpoint's. The same walk gathers ``<json>.cache`` (see
``sidecar``): the payload's text with each array as a marker, then the
arrays as raw ``<f8``. ``read_json`` answers from it only when it provably
belongs to the JSON, putting each array in its marker's place, and parses
the JSON otherwise; the sidecar is safe to delete, and either way the
payload goes through the same ``net_from_dict`` checks.
"""
from __future__ import annotations

import json
import math
import operator
import zlib
from dataclasses import dataclass

import numpy as np

from . import sidecar
from .atomic import atomic_write
from .errors import ConfigError, DataError, NumericalError

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

ACTIVATIONS = ("relu", "selu", "identity")

CHECKPOINT_FORMAT = "densenet-v1"

# The checkpoint sidecar's format tag, and the key of the marker that stands
# for a float array in its header: no checkpoint payload uses it.
_SIDECAR_FORMAT = "mmsurv-checkpoint-arrays/1"
_ARRAY_MARK = "<f8"

# Elements per block of the in-place Adam update: a block's six 128 KiB
# operands stay in a core's L2 cache across the update's thirteen passes, and
# the scratch stays small however large the network (a tensor head's weights
# alone are 3.4 MB).
ADAM_BLOCK = 16384

# Adam's moment decay rates (b1, b2) and denominator guard (eps)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Floats per slice a checkpoint write converts at once: a slice's Python
# floats and its text, about 2 MiB while json.dumps runs, are the transient
# of a save whatever the network (a tensor head and decoder hold 851k
# parameters).
WRITE_CHUNK = 16384


def activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "selu":
        # LAMBDA * where(z > 0, z, ALPHA * expm1(z)) as a bitwise select on
        # the int64 views of z and of e = ALPHA * expm1(z): ((e ^ z) * tail) ^ z
        # is e's bits where tail = not(z > 0) is 1 and z's where it is 0. Each
        # element keeps the exact bits of its branch (NaN payloads, signed
        # zeros, infinities), with no masked copy and no temporary but the mask
        out = np.expm1(z)
        out *= SELU_ALPHA
        bits, z_bits = out.view(np.int64), z.view(np.int64)
        bits ^= z_bits
        tail = np.greater(z, 0.0)
        np.logical_not(tail, out=tail)
        bits *= tail
        bits ^= z_bits
        out *= SELU_LAMBDA
        return out
    if name == "identity":
        return z
    raise ConfigError(f"unknown activation {name!r}")


def activate_grad(name: str, z: np.ndarray) -> np.ndarray:
    """Derivative of the activation, evaluated at the pre-activation z."""
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "selu":
        return SELU_LAMBDA * np.where(z > 0.0, 1.0, SELU_ALPHA * np.exp(z))
    if name == "identity":
        return np.ones_like(z)
    raise ConfigError(f"unknown activation {name!r}")


@dataclass
class Layer:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    activation: str


class DenseNet:
    """Affine layers of widths ``dims`` (input first), one of ``activations`` after each,
    over ``params``, a 1-D float64 vector in the layout above that the net keeps without a copy."""

    def __init__(self, dims, activations, params: np.ndarray):
        self.dims, activations = _widths(dims), list(activations)
        if len(activations) != len(self.dims) - 1 or not all(a in ACTIVATIONS for a in activations):
            raise ConfigError(f"activations {activations!r} do not name one of {ACTIVATIONS} per layer")
        size = sum(rows * (cols + 1) for rows, cols in zip(self.dims[1:], self.dims))
        if not (isinstance(params, np.ndarray) and params.dtype == np.float64 and params.shape == (size,)):
            raise ConfigError(f"parameters must be a 1-D float64 vector of {size} entries")
        if not np.isfinite(params).all():
            raise NumericalError("non-finite parameters")
        self.params = params
        self.layers = [Layer(w, b, act) for (w, b), act in zip(self._views(params), activations)]

    def __reduce__(self):
        # pickle copies params on its own; rebuilding binds fresh views to the copy
        return DenseNet, (self.dims, [l.activation for l in self.layers], self.params)

    def _bind(self, params: np.ndarray) -> None:
        """Point ``params`` and every layer array at ``params``, a vector in this net's layout."""
        self.params = params
        for layer, (w, b) in zip(self.layers, self._views(params)):
            layer.w, layer.b = w, b

    def _views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views of each layer into a vector in the ``params`` layout."""
        out, ofs = [], 0
        for rows, cols in zip(self.dims[1:], self.dims):
            w_end = ofs + rows * cols
            out.append((flat[ofs:w_end].reshape(rows, cols), flat[w_end:w_end + rows]))
            ofs = w_end + rows
        return out

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]

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
            z = a @ layer.w.T
            z += layer.b
            tape.append((a, z))
            a = activate(layer.activation, z)
        return a, tape

    def backward(self, tape: list, upstream: np.ndarray,
                 grad: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagate an (n, output_dim) upstream block through a forward tape.

        Writes the parameter gradient, summed over the rows, into ``grad``, a
        vector in the ``params`` layout (a fresh one when None), and returns
        it plus the (n, input_dim) gradient with respect to the network input
        (needed when networks are chained).
        """
        if len(tape) != len(self.layers):
            raise ConfigError("tape does not match network depth")
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != (tape[0][0].shape[0], self.output_dim):
            raise ConfigError(f"upstream shape {upstream.shape} does not match the taped batch "
                              f"of {tape[0][0].shape[0]} rows x {self.output_dim} outputs")
        grad = np.empty_like(self.params) if grad is None else grad
        views = self._views(grad)
        delta = upstream
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            a_in, z = tape[k]
            dz = delta if layer.activation == "identity" else delta * activate_grad(layer.activation, z)
            np.matmul(dz.T, a_in, out=views[k][0])
            dz.sum(axis=0, out=views[k][1])
            delta = dz @ layer.w
        return grad, delta

    def copy(self) -> "DenseNet":
        return DenseNet(self.dims, [l.activation for l in self.layers], self.params.copy())


def _widths(dims) -> tuple[int, ...]:
    """``dims`` as a tuple of ints; fewer than two widths, or one below 1, is a ConfigError."""
    dims = tuple(map(operator.index, dims))
    if len(dims) < 2 or min(dims) < 1:
        raise ConfigError(f"a network needs at least two widths, all positive, not {dims}")
    return dims


def init_net(dims: tuple[int, ...], activation: str, seed, output_activation: str | None = None) -> DenseNet:
    """Build a network with freshly initialized parameters.

    ``dims`` lists layer widths input first, e.g. (80, 64, 32). Hidden layers
    use ``activation``; the last layer uses ``output_activation`` when given.
    Weights are zero-mean normal with variance 2/fan_in, except SELU layers
    which use 1/fan_in. Biases start at zero. ``seed`` may be an int or a
    numpy SeedSequence; the result is deterministic either way.
    """
    dims = _widths(dims)
    activations = [activation] * (len(dims) - 2) + [output_activation or activation]
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        var = 1.0 / fan_in if act == "selu" else 2.0 / fan_in
        parts += [rng.normal(0.0, math.sqrt(var), size=fan_out * fan_in), np.zeros(fan_out)]
    return DenseNet(dims, activations, np.concatenate(parts))


def pack(nets: list[DenseNet]) -> np.ndarray:
    """Move ``nets`` into one contiguous vector, their ``params`` in list order.

    Returns the vector. Afterwards every net's ``params``, ``layer.w`` and
    ``layer.b`` are views into it, so one optimizer step, one snapshot or
    one restore of the vector covers all the nets.
    """
    flat = np.concatenate([net.params for net in nets])
    for net, part in zip(nets, split(flat, nets)):
        net._bind(part)
    return flat


def split(flat: np.ndarray, nets: list[DenseNet]) -> list[np.ndarray]:
    """Views of a vector in the ``pack(nets)`` layout, one slice per net."""
    return np.split(flat, np.cumsum([net.params.size for net in nets])[:-1])


class OptimizerState:
    """Optimizer state for one parameter vector. ``optimizer_step`` is the only mutator."""

    def __init__(self, algorithm: str, lr: float, params: np.ndarray):
        if algorithm not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {algorithm!r}")
        if not (math.isfinite(lr) and lr > 0.0):
            raise ConfigError("learning rate must be finite and positive")
        self.algorithm = algorithm
        self.lr = lr
        self.t = 0
        if algorithm == "adam":
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
            width = min(ADAM_BLOCK, params.size)
            self.scratch = (np.empty(width), np.empty(width))


def _adam_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                 state: OptimizerState, c1: float, c2: float) -> None:
    """Adam on a parameter vector in place, in the textbook order of operations."""
    for start in range(0, p.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        pb, gb, mb, vb = p[block], g[block], m[block], v[block]
        s, u = state.scratch[0][:pb.size], state.scratch[1][:pb.size]
        np.multiply(gb, 1.0 - ADAM_BETA1, out=s)  # m = b1 m + (1 - b1) g
        mb *= ADAM_BETA1
        mb += s
        np.multiply(gb, 1.0 - ADAM_BETA2, out=s)  # v = b2 v + (1 - b2) g g
        s *= gb
        vb *= ADAM_BETA2
        vb += s
        np.divide(vb, c2, out=s)                  # p -= lr (m / c1) / (sqrt(v / c2) + eps)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(mb, c1, out=u)
        u *= state.lr
        u /= s
        pb -= u


def optimizer_step(params: np.ndarray, grad: np.ndarray, state: OptimizerState) -> None:
    """Apply one update to ``params`` in place.

    Refuses to step on non-finite gradients, before any entry moves.
    """
    if grad.shape != params.shape:
        raise ConfigError(f"gradient of shape {grad.shape} does not match the "
                          f"{params.size} parameters")
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient entries, step refused")
    state.t += 1
    if state.algorithm == "sgd":
        params -= state.lr * grad
        return
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    _adam_update(params, grad, state.m, state.v, state, c1, c2)


def net_to_dict(net: DenseNet) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "dims": list(net.dims),
        "activations": [l.activation for l in net.layers],
        "layers": [{"w": l.w.ravel(), "b": l.b} for l in net.layers],
    }


def check_format(payload, fmt: str, origin: str, what: str) -> None:
    """A payload that is not a dict tagged ``fmt`` is a DataError: "not a ``what`` checkpoint"."""
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != fmt:
        raise DataError(f"{origin}: not a {what} checkpoint (format {found!r})")


def net_from_dict(d: dict, origin: str = "network") -> DenseNet:
    """Rebuild a network; a payload that is not one consistent layer chain is a DataError."""
    check_format(d, CHECKPOINT_FORMAT, origin, "network")
    try:
        dims, blobs, activations = d["dims"], d["layers"], d["activations"]
        if not all(type(width) is int and width > 0 for width in dims):   # JSON's true would pass as 1
            raise ValueError(f"widths {dims!r} are not all positive ints")
        if type(activations) is not list:   # an object would pass its keys as the activations
            raise ValueError(f"activations {activations!r} are not a list")
        layers = zip(blobs, dims[1:], dims[:-1], strict=True)   # one {w, b} blob per layer
        params = np.concatenate([_flat(blob[key], size, f"layer {k} {key}") for k, (blob, rows, cols)
                                 in enumerate(layers) for key, size in (("w", rows * cols), ("b", rows))])
        return DenseNet(dims, activations, params)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, ConfigError) as e:
        raise DataError(f"{origin}: not a consistent layer chain ({type(e).__name__}: {e})") from e
    except NumericalError as e:  # NaN or an overflowed literal such as 1e999 in the file
        raise DataError(f"{origin}: {e}") from e


def _flat(value, size: int, what: str) -> np.ndarray:
    """``value``, a parse's flat list of ``size`` ints/floats (no bools) or the sidecar's array, as float64."""
    if type(value) is list and len(value) == size and set(map(type, value)) <= {int, float}:
        return np.asarray(value, dtype=np.float64)
    if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.shape == (size,):
        return value
    raise ValueError(f"{what} is not a flat list of {size} numbers")


def read_json(path: str):
    """The JSON payload of a checkpoint file; a file that does not parse is a DataError.

    From ``write_json``'s sidecar when it provably belongs to the file, each
    marker replaced by a 1-D float64 ndarray with the bits the parse's list
    would hold; otherwise from a parse of the file.
    """
    slots = []   # (container, key) of each array marker in the sidecar header, in walk order

    def layout(head: dict) -> list | None:
        slots.extend(_mark_slots(head, ["payload"] if "payload" in head else []))
        marks = [container[key] for container, key in slots]
        if "payload" in head and all(len(mark) == 1 and type(mark[_ARRAY_MARK]) is int
                                     and mark[_ARRAY_MARK] >= 0 for mark in marks):
            return [("<f8", (mark[_ARRAY_MARK],)) for mark in marks]
        return None

    cached = sidecar.read(path, _SIDECAR_FORMAT, "json", layout)
    if cached is None:
        return _parse_json(path)
    head, arrays = cached
    for (container, key), array in zip(slots, arrays, strict=True):
        container[key] = array
    return head["payload"]


def _mark_slots(container, keys):
    """The (container, key) slot of each array marker under ``container``'s ``keys``, in walk order."""
    for key in keys:
        value = container[key]
        if isinstance(value, dict) and _ARRAY_MARK in value:
            yield container, key
        elif isinstance(value, (dict, list)):
            yield from _mark_slots(value, value if isinstance(value, dict) else range(len(value)))


def _parse_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: not JSON ({e})") from None
    except (ValueError, RecursionError) as e:   # an int past Python's digit limit, nesting past its stack
        raise DataError(f"{path}: JSON past the parser's limits ({e})") from None


def write_json(path: str, payload) -> None:
    """Write a checkpoint payload to ``path`` with the bytes ``json.dumps(payload)`` would have.

    One walk writes the file and gathers its sidecar's header text, which
    has the file's tokens except that each array is ``{_ARRAY_MARK: size}``.
    A 1-D float array, as ``net_to_dict`` gives, goes out ``WRITE_CHUNK``
    floats at a time; the sidecar then holds the arrays as raw ``<f8``,
    every NaN as the parse reads it. A key that is not a ``str`` or is
    ``_ARRAY_MARK``, or an ndarray that is not 1-D float64, is a ConfigError
    raised before the file is replaced, so it and its sidecar keep their bytes.
    """
    crc = size = 0
    arrays, head = [], []

    def write(text: str, head_text: str | None = None) -> None:
        """Write ``text`` to the file and ``head_text``, by default the same, to the header."""
        nonlocal crc, size
        data = text.encode()
        crc, size = zlib.crc32(data, crc), size + len(data)
        fh.write(data)
        head.append(text if head_text is None else head_text)

    with atomic_write(path, binary=True) as fh:
        _write_value(write, payload, arrays)
    fields = json.dumps({"format": _SIDECAR_FORMAT, "json_bytes": size, "json_crc32": crc})
    sidecar.write(path, f'{fields[:-1]}, "payload": {"".join(head)}}}', lambda: _array_bytes(arrays))


def _write_value(write, value, arrays: list) -> None:
    if isinstance(value, np.ndarray):
        if value.ndim != 1 or value.dtype != np.float64:
            raise ConfigError(f"a checkpoint holds 1-D float64 arrays, not {value.ndim}-D {value.dtype}")
        arrays.append(value)
        write("[", json.dumps({_ARRAY_MARK: value.size}))
        for start in range(0, value.size, WRITE_CHUNK):
            write(f"{', ' if start else ''}{json.dumps(value[start:start + WRITE_CHUNK].tolist())[1:-1]}", "")
        write("]", "")
    elif isinstance(value, dict):
        write("{")
        for k, (key, item) in enumerate(value.items()):
            if not isinstance(key, str) or key == _ARRAY_MARK:
                raise ConfigError(f"a checkpoint's keys are strs other than {_ARRAY_MARK!r}, not {key!r}")
            write(f"{', ' if k else ''}{json.dumps(key)}: ")
            _write_value(write, item, arrays)
        write("}")
    elif isinstance(value, list):
        write("[")
        for k, item in enumerate(value):
            if k:
                write(", ")
            _write_value(write, item, arrays)
        write("]")
    else:
        write(json.dumps(value))


def _array_bytes(arrays: list):
    """The sidecar payload: each array's ``<f8`` bytes, ``WRITE_CHUNK`` floats at a time."""
    for array in arrays:
        for start in range(0, array.size, WRITE_CHUNK):
            chunk = array[start:start + WRITE_CHUNK]
            yield np.where(np.isnan(chunk), np.nan, chunk).astype("<f8", copy=False).view(np.uint8)
