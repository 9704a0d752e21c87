from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest

from conftest import assert_layers_view_params, checkpoint_text, finite_diff_grad
from mmsurv.errors import ConfigError, DataError, NumericalError
from mmsurv.gradcheck import _net_configs
from mmsurv.nets import (ADAM_BLOCK, SELU_ALPHA, SELU_LAMBDA, WRITE_CHUNK, DenseNet, OptimizerState,
                         activate, init_net, net_from_dict, net_to_dict, optimizer_step, pack, split,
                         write_json)


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def test_init_shapes_and_zero_biases():
    net = init_net((4, 3, 1), "relu", seed=0, output_activation="identity")
    assert net.dims == (4, 3, 1)
    assert net.layers[0].w.shape == (3, 4)
    assert net.layers[1].w.shape == (1, 3)
    assert np.all(net.layers[0].b == 0.0) and np.all(net.layers[1].b == 0.0)
    assert net.params.size == 3 * 4 + 3 + 1 * 3 + 1


def test_init_net_draws_each_layer_in_turn_from_one_stream():
    dims, activations = (5, 4, 3, 2), ["selu", "selu", "relu"]
    for seed in (17, np.random.SeedSequence(17)):
        net = init_net(dims, "selu", seed, output_activation="relu")
        rng, reference = np.random.default_rng(seed), []
        for fan_in, fan_out, act in zip(dims, dims[1:], activations):
            w = rng.normal(0.0, math.sqrt((1.0 if act == "selu" else 2.0) / fan_in), size=(fan_out, fan_in))
            reference += [w.ravel(), np.zeros(fan_out)]
        assert net.params.tobytes() == np.concatenate(reference).tobytes()
        assert net.dims == dims and [l.activation for l in net.layers] == activations


def test_a_network_keeps_the_vector_it_is_given_and_refuses_a_bad_one():
    dims, activations = (2, 2, 1), ["relu", "identity"]  # 2x2 + 2, then 1x2 + 1: nine parameters
    params = np.arange(9.0)
    net = DenseNet(dims, activations, params)
    assert net.params is params and net.dims == dims
    assert all(np.shares_memory(a, params) for layer in net.layers for a in (layer.w, layer.b))
    assert np.array_equal(net.layers[0].w, [[0.0, 1.0], [2.0, 3.0]]) and np.array_equal(net.layers[1].b, [8.0])
    params[6] = -1.0
    assert net.layers[1].w[0, 0] == -1.0
    not_finite = np.arange(9.0)
    not_finite[4] = np.inf
    bad = [((2, 2, 1), activations, np.arange(8.0), ConfigError),       # a size off the layout
           ((2, 2, 1), activations, np.arange(10.0), ConfigError),
           ((2, 2, 1), activations, np.arange(9.0).reshape(3, 3), ConfigError),
           ((2, 2, 1), activations, list(range(9)), ConfigError),
           ((2, 2, 1), activations, np.arange(9), ConfigError),           # int64
           ((2, 2, 1), activations, np.arange(9.0, dtype=np.float32), ConfigError),
           ((2, 2, 1), activations, not_finite, NumericalError),
           ((2, 2, 1), ["relu", "swish"], np.arange(9.0), ConfigError),
           ((2, 2, 1), ["relu"], np.arange(9.0), ConfigError),          # one activation per layer
           ((2,), [], np.arange(0.0), ConfigError),
           ((2, 0, 1), activations, np.arange(1.0), ConfigError)]
    for dims, acts, vector, error in bad:
        with pytest.raises(error):
            DenseNet(dims, acts, vector)


def test_init_deterministic_given_seed():
    a = init_net((6, 5, 2), "selu", seed=123)
    b = init_net((6, 5, 2), "selu", seed=123)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w, lb.w)


def test_selu_init_variance_close_to_reciprocal_fan_in():
    net = init_net((32, 128), "selu", seed=5)
    var = net.layers[0].w.var()
    assert abs(var - 1.0 / 32) < 0.2 * (1.0 / 32)


def test_relu_init_variance_close_to_two_over_fan_in():
    net = init_net((64, 256), "relu", seed=9)
    var = net.layers[0].w.var()
    assert abs(var - 2.0 / 64) < 0.2 * (2.0 / 64)


def test_forward_identity_net_reproduces_affine_map():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([0.5, -0.5])
    net = DenseNet((2, 2), ["identity"], np.concatenate([w.ravel(), b]))
    y, _ = net.forward(np.array([[1.0, 1.0]]))
    assert np.allclose(y[0], w @ np.ones(2) + b, atol=0, rtol=0)


def test_selu_matches_published_constants():
    z = np.array([-40.0, 0.0, 2.0])
    y = activate("selu", z)
    assert y[1] == 0.0
    assert y[2] == SELU_LAMBDA * 2.0
    # deep negative tail saturates at -lambda*alpha
    assert abs(y[0] - (-1.758099340847377)) < 1e-12
    assert round(-SELU_LAMBDA * SELU_ALPHA, 4) == -1.7581


def test_selu_has_the_bits_of_the_textbook_formula():
    rng = np.random.default_rng(12)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, -800.0, 800.0])
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000123, -0x0008000000000000,
                     -0x0007FFFFFFFFFEDC], dtype=np.int64).view(np.float64)  # +-NaN, two payloads
    assert np.isnan(nans).all() and len(set(nans.view(np.int64).tolist())) == 4
    log_max = np.log(np.finfo(np.float64).max)  # 709.78...: expm1 overflows above it
    edges = np.array([5e-324, -5e-324, 709.78, 709.79, -709.78, -709.79,
                      log_max, np.nextafter(log_max, np.inf), -log_max, np.nextafter(-log_max, -np.inf)])
    blocks = [specials, nans, edges, rng.normal(size=(64, 33)), 30.0 * rng.normal(size=(7, 5)),
              rng.normal(size=(2800, 64))[:, ::2], rng.normal(size=(1, 64)),
              rng.normal(size=(256, 64)), rng.normal(size=(64, 256)).T,
              np.concatenate([specials, nans, edges, rng.normal(size=42)]).reshape(8, 8).T]
    with np.errstate(over="ignore"):
        for z in blocks:
            textbook = SELU_LAMBDA * np.where(z > 0, z, SELU_ALPHA * np.expm1(z))
            got = activate("selu", z)
            assert got.shape == z.shape
            assert np.array_equal(got.view(np.int64), textbook.view(np.int64))


def test_forward_rejects_wrong_width_and_nonfinite():
    net = init_net((3, 2), "relu", seed=0)
    with pytest.raises(ConfigError):
        net.forward(np.ones((1, 4)))
    with pytest.raises(ConfigError):
        net.forward(np.ones(3))  # a record is a one-row batch, not a bare vector
    with pytest.raises(NumericalError):
        net.forward(np.array([[1.0, np.nan, 0.0]]))


def test_backward_zero_upstream_gives_zero_gradients():
    net = init_net((5, 4, 2), "selu", seed=1)
    _, tape = net.forward(np.random.default_rng(0).normal(size=(1, 5)))
    grads, dx = net.backward(tape, np.zeros((1, 2)))
    assert grads.shape == net.params.shape and np.all(grads == 0.0)
    assert np.all(dx == 0.0)


def test_backward_single_linear_layer_input_grad_is_w_transpose():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(3, 4))
    net = DenseNet((4, 3), ["identity"], np.concatenate([w.ravel(), np.zeros(3)]))
    _, tape = net.forward(rng.normal(size=(1, 4)))
    upstream = rng.normal(size=(1, 3))
    _, dx = net.backward(tape, upstream)
    assert np.allclose(dx[0], w.T @ upstream[0], atol=1e-15)


@pytest.mark.parametrize("activation", ["relu", "selu", "identity"])
def test_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(hash(activation) % 2**32)
    for _ in range(5):
        net = init_net((8, 16, 8, 1), activation, seed=rng.integers(2**31),
                       output_activation="identity")
        x = rng.normal(size=(1, 8))
        upstream = rng.normal(size=(1, 1))

        def loss(p, net=net, x=x, upstream=upstream):
            probe = net.copy()
            probe.params[...] = p
            y, _ = probe.forward(x)
            return float((upstream * y).sum())

        _, tape = net.forward(x)
        grads, _ = net.backward(tape, upstream)
        numeric = finite_diff_grad(loss, net.params, h=1e-5)
        assert rel_err(grads, numeric) < 1e-4


def test_backward_input_grad_matches_finite_differences():
    rng = np.random.default_rng(77)
    net = init_net((6, 10, 3), "selu", seed=3)
    x = rng.normal(size=(1, 6))
    upstream = rng.normal(size=(1, 3))
    _, tape = net.forward(x)
    _, dx = net.backward(tape, upstream)

    def loss(xv):
        y, _ = net.forward(xv.reshape(1, 6))
        return float((upstream * y).sum())

    numeric = finite_diff_grad(loss, x.ravel(), h=1e-5)
    assert rel_err(dx.ravel(), numeric) < 1e-4


@pytest.mark.parametrize("name,dims,act,out_act", _net_configs(), ids=[c[0] for c in _net_configs()])
def test_batched_backward_equals_sum_of_row_calls(name, dims, act, out_act):
    rng = np.random.default_rng(31)
    net = init_net(dims, act, seed=32, output_activation=out_act)
    x = rng.normal(size=(5, dims[0]))
    upstream = rng.normal(size=(5, dims[-1]))
    y, tape = net.forward(x)
    grads, dx = net.backward(tape, upstream)
    rows = [net.backward(net.forward(x[i:i + 1])[1], upstream[i:i + 1]) for i in range(5)]
    assert rel_err(y, np.vstack([net.forward(x[i:i + 1])[0] for i in range(5)])) < 1e-12
    assert rel_err(grads, sum(g for g, _ in rows)) < 1e-12
    assert rel_err(dx, np.vstack([d for _, d in rows])) < 1e-12


def test_finite_diff_on_quadratic():
    g = finite_diff_grad(lambda p: float((p ** 2).sum()), np.array([1.0, -2.0, 3.0]))
    assert np.allclose(g, [2.0, -4.0, 6.0], atol=1e-8)


def test_selu_stack_keeps_activations_normalized():
    # four selu layers, standard-normal input: mean near 0, variance near 1
    net = init_net((32, 32, 32, 32, 32), "selu", seed=28)
    rng = np.random.default_rng(12)
    outs, _ = net.forward(rng.normal(size=(10_000, 32)))
    mean = outs.mean(axis=0)
    var = outs.var(axis=0)
    assert np.all(np.abs(mean) < 0.3)
    assert np.all((var > 0.5) & (var < 2.0))


def test_sgd_step_is_plain_descent():
    net = DenseNet((1, 1), ["identity"], np.array([1.0, 0.0]))
    state = OptimizerState("sgd", lr=0.1, params=net.params)
    optimizer_step(net.params, np.array([2.0, 0.0]), state)
    assert net.layers[0].w[0, 0] == pytest.approx(0.8, abs=0)


@pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3])
def test_adam_first_step_size_is_learning_rate(magnitude):
    net = DenseNet((1, 1), ["identity"], np.array([0.0, 0.0]))
    state = OptimizerState("adam", lr=0.01, params=net.params)
    optimizer_step(net.params, np.array([magnitude, 0.0]), state)
    assert abs(net.layers[0].w[0, 0] + 0.01) < 1e-5 * 0.01 + 1e-12


def test_adam_zero_gradient_leaves_parameters_unchanged():
    net = init_net((3, 2), "relu", seed=4)
    before = net.params.copy()
    state = OptimizerState("adam", lr=0.05, params=net.params)
    optimizer_step(net.params, np.zeros_like(net.params), state)
    assert np.array_equal(net.params, before)


def assert_adam_matches_textbook(net):
    rng = np.random.default_rng(7)
    state = OptimizerState("adam", lr=0.01, params=net.params)
    params = [a.copy() for l in net.layers for a in (l.w, l.b)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, 4):
        grads = [rng.normal(size=p.shape) for p in params]
        optimizer_step(net.params, np.concatenate([g.ravel() for g in grads]), state)
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for k, g in enumerate(grads):
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
            params[k] = params[k] - 0.01 * (m[k] / c1) / (np.sqrt(v[k] / c2) + 1e-8)
        for k, p in enumerate(a for l in net.layers for a in (l.w, l.b)):
            assert np.array_equal(p, params[k])


def test_adam_in_place_blocks_match_textbook_update():
    # a weight matrix larger than one block exercises the blocked passes
    net = init_net((300, 100, 2), "relu", seed=6)
    assert net.layers[0].w.size > ADAM_BLOCK
    assert_adam_matches_textbook(net)


def test_adam_blocks_that_span_layers_match_textbook_update():
    # the first block ends inside the second layer's weights
    net = init_net((100, 100, 100), "relu", seed=6)
    assert net.layers[0].w.size + net.layers[0].b.size < ADAM_BLOCK < net.params.size
    assert_adam_matches_textbook(net)


def test_nonfinite_gradient_refuses_step():
    net = init_net((3, 2), "relu", seed=4)
    before = net.params.copy()
    grads = np.zeros_like(net.params)
    grads[0] = np.nan
    state = OptimizerState("adam", lr=0.05, params=net.params)
    with pytest.raises(NumericalError):
        optimizer_step(net.params, grads, state)
    assert np.array_equal(net.params, before)


def test_a_nonfinite_gradient_leaves_the_whole_packed_vector_unchanged():
    nets = [init_net((3, 2), "relu", seed=4), init_net((2, 5, 1), "relu", seed=5)]
    params = pack(nets)
    before = params.copy()
    grad = np.ones_like(params)
    split(grad, nets)[1][-1] = np.inf  # only the last net's gradient is bad
    state = OptimizerState("adam", lr=0.05, params=params)
    with pytest.raises(NumericalError):
        optimizer_step(params, grad, state)
    assert np.array_equal(params, before) and state.t == 0
    assert not state.m.any() and not state.v.any()


def test_pack_points_every_net_at_one_vector_and_keeps_its_values():
    nets = [init_net((5, 4, 3), "selu", seed=40), init_net((3, 1), "identity", seed=41)]
    values = [net.params.copy() for net in nets]
    params = pack(nets)
    assert params.size == sum(v.size for v in values)
    assert np.array_equal(params, np.concatenate(values))
    for net, v, part in zip(nets, values, split(params, nets)):
        assert net.params.base is params and np.shares_memory(net.params, part)
        assert np.array_equal(net.params, v)
        assert_layers_view_params(net, params)
    copied = pickle.loads(pickle.dumps(nets[0]))
    assert not np.shares_memory(copied.params, params) and copied.params.base is None
    assert np.array_equal(copied.params, nets[0].params)


def test_backward_writes_into_a_given_slice():
    nets = [init_net((4, 3, 2), "relu", seed=42), init_net((2, 1), "identity", seed=43)]
    grad = np.full(sum(net.params.size for net in nets), np.nan)
    x = np.random.default_rng(44).normal(size=(6, 4))
    _, tape = nets[0].forward(x)
    upstream = np.ones((6, 2))
    fresh, fresh_dx = nets[0].backward(tape, upstream)
    out, dx = nets[0].backward(tape, upstream, split(grad, nets)[0])
    assert np.shares_memory(out, grad) and np.array_equal(out, fresh) and np.array_equal(dx, fresh_dx)
    assert np.isnan(split(grad, nets)[1]).all()  # the other net's slice is untouched


def test_gradient_shape_mismatch_rejected():
    net = init_net((3, 2), "relu", seed=4)
    other = init_net((4, 2), "relu", seed=4)
    state = OptimizerState("sgd", lr=0.1, params=net.params)
    with pytest.raises(ConfigError):
        optimizer_step(net.params, np.zeros_like(other.params), state)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    net = init_net((7, 5, 3, 1), "selu", seed=21, output_activation="identity")
    path = tmp_path / "net.json"
    write_json(str(path), net_to_dict(net))
    loaded = net_from_dict(json.loads(path.read_text()), origin=str(path))
    assert loaded.dims == net.dims
    for la, lb in zip(net.layers, loaded.layers):
        assert la.activation == lb.activation
        assert np.array_equal(la.w, lb.w) and la.w.dtype == lb.w.dtype
        assert np.array_equal(la.b, lb.b)


@pytest.mark.parametrize("width", [1, WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1, 2 * WRITE_CHUNK + 5])
def test_written_checkpoint_has_the_bytes_of_one_json_dumps(tmp_path, width):
    # a (1 -> width) layer holds width weights and width biases, so both of its
    # arrays end one float short of, on, or one float past a slice boundary
    net = init_net((1, width, 2), "selu", seed=width, output_activation="identity")
    rng = np.random.default_rng(width)
    net.params[:] = rng.normal(size=net.params.size) * 10.0 ** rng.integers(-300, 300, net.params.size)
    net.params[:3] = [5e-324, -0.0, 1.7976931348623157e308]
    payload = {"format": "outer", "lam": 0.1, "nets": [net_to_dict(net), None], "empty": np.empty(0),
               "nested": {"b": [1, "two", 3.0], "a": {"n": net_to_dict(init_net((3, 1), "relu", 0))}}}
    path = tmp_path / "net.json"
    write_json(str(path), payload)
    assert path.read_text(encoding="ascii") == checkpoint_text(payload)
    assert net_from_dict(json.loads(path.read_text())["nets"][0]).params.tobytes() == net.params.tobytes()


def test_net_dict_holds_views_of_the_parameters():
    net = init_net((4, 3, 2), "relu", seed=8)
    for blob, layer in zip(net_to_dict(net)["layers"], net.layers):
        assert blob["w"].ndim == 1 and np.shares_memory(blob["w"], net.params)
        assert np.array_equal(blob["w"], layer.w.ravel()) and np.array_equal(blob["b"], layer.b)


def test_checkpoint_dict_rejects_foreign_payload():
    from mmsurv.errors import DataError
    with pytest.raises(DataError):
        net_from_dict({"format": "something-else"})


def test_checkpoint_dict_rejects_broken_chains():
    good = net_to_dict(init_net((4, 3, 2), "relu", seed=8))
    broken = [{k: v for k, v in good.items() if k != "layers"},
              dict(good, dims=[4, 3]),
              dict(good, dims=[4, 5, 2]),
              dict(good, activations=["relu", "swish"]),
              dict(good, activations=["relu", "tanh"]),
              dict(good, layers=[good["layers"][0], {"w": good["layers"][1]["w"]}]),
              dict(good, dims=[4, -1, 2]),   # reshape would infer the 3
              dict(good, dims=[4, 3.0, 2]),
              dict(good, layers=[dict(good["layers"][0], w=[10**400] * 12), good["layers"][1]])]
    one = net_to_dict(init_net((1, 1), "relu", seed=8))
    broken += [dict(one, dims=[-1, 1]), dict(one, dims=[True, 1]), dict(one, dims=[1, -1])]
    # activations are a list of names: an object's keys, or a string's letters, are not
    broken += [dict(one, activations={"relu": "anything"}), dict(good, activations={"relu": 0, "identity": 0}),
               dict(one, activations=("relu",))]
    # a parse gives lists, and only a flat list of int and float items is numbers
    two = net_to_dict(init_net((1, 2), "relu", seed=8))
    broken += [dict(two, layers=[{"w": ["1.5", "2"], "b": [True, "0"]}]),
               dict(two, layers=[{"w": [1.5, 2], "b": [True, 0]}]),
               dict(one, layers=[{"w": "1", "b": [0.0]}]),
               dict(one, layers=[{"w": [1.0], "b": 0.0}]),
               dict(good, layers=[dict(good["layers"][0], w=good["layers"][0]["w"].reshape(3, 4).tolist()),
                                  good["layers"][1]]),
               dict(good, layers=[good["layers"][0], dict(good["layers"][1], b=[[0.0, 0.0]])]),
               dict(good, layers=[dict(good["layers"][0], w=good["layers"][0]["w"].reshape(3, 4)),
                                  good["layers"][1]]),
               dict(good, layers=[good["layers"][0], dict(good["layers"][1], b=np.zeros(2, np.float32))])]
    for payload in broken:
        with pytest.raises(DataError, match="not a consistent layer chain"):
            net_from_dict(payload)


def test_net_dict_round_trip_without_file():
    net = init_net((4, 4), "relu", seed=8)
    clone = net_from_dict(net_to_dict(net))
    assert np.array_equal(net.layers[0].w, clone.layers[0].w)


@pytest.mark.parametrize("make", [
    lambda net: net,
    lambda net: net.copy(),
    lambda net: net_from_dict(net_to_dict(net)),
    lambda net: pickle.loads(pickle.dumps(net)),
], ids=["init_net", "copy", "net_from_dict", "pickle"])
def test_layer_arrays_are_views_into_params(make):
    source = init_net((5, 4, 3), "selu", seed=40, output_activation="identity")
    net = make(source)
    assert net.dims == source.dims and np.array_equal(net.params, source.params)
    if net is not source:
        assert not np.shares_memory(net.params, source.params)
    assert_layers_view_params(net)
