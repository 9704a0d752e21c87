"""The shared training loop ``fit``, driven by toy steps over small networks."""
import numpy as np
import pytest

from conftest import assert_layers_view_params
from mmsurv.config import fit
from mmsurv.errors import DataError, NumericalError
from mmsurv.nets import init_net

N = 40


def toy_nets(k=2):
    return [init_net((1, 1), "identity", seed) for seed in range(k)]


def run_fit(nets, step, val_risks, times=None, events=None, **kw):
    times = np.arange(1.0, N + 1) if times is None else times
    events = np.ones(N) if events is None else events
    args = dict(epochs=30, batch_size=4, patience=2, val_fraction=0.25, split_seed=1,
                shuffle_seed=2, context="toy training")
    args.update(kw)
    return fit(nets, step, val_risks, times, events, optimizer="sgd", lr=1.0, **args)


def counting_step(calls):
    """Writes a gradient of -1 everywhere: at SGD rate 1 every parameter, bias included,
    moves up by one per step, so a state names its step count."""
    def step(idx, grad):
        calls.append(np.array(idx))
        grad[...] = -1.0
        return float(len(calls))
    return step


def scripted_val(cindices, times):
    """val_risks giving c-index 1, 0.5 or 0 on the hold-out, one script entry per epoch."""
    epoch = iter(cindices)

    def val_risks(idx):
        return -(2.0 * next(epoch) - 1.0) * times[idx]
    return val_risks


@pytest.mark.parametrize("patience", [0, 2, 4])
def test_stops_after_patience_plus_one_epochs_without_improvement(patience):
    nets, calls = toy_nets(), []
    times = np.arange(1.0, N + 1)
    script = [0.5, 1.0] + [0.0] * 40
    trace = run_fit(nets, counting_step(calls), scripted_val(script, times), patience=patience)
    logged = [e["val_cindex"] for e in trace.epochs]
    assert len(logged) == 2 + patience + 1
    assert logged == script[:len(logged)]
    assert [e["epoch"] for e in trace.epochs] == list(range(len(logged)))


def test_best_copy_is_restored_in_place():
    nets, calls = toy_nets(), []
    times = np.arange(1.0, N + 1)
    originals = [net.layers[0].b.copy() for net in nets]
    ids = [id(net) for net in nets]
    trace = run_fit(nets, counting_step(calls), scripted_val([0.5, 1.0, 0.5, 0.0, 0.0], times))
    assert len(trace.epochs) == 5
    steps_per_epoch = len(calls) // 5
    assert [id(net) for net in nets] == ids
    packed = nets[0].params.base  # the one vector fit restored
    assert packed is nets[1].params.base and packed.size == sum(net.params.size for net in nets)
    for net, b0 in zip(nets, originals):
        # the best epoch is the second, so two epochs' worth of steps are kept
        assert np.array_equal(net.layers[0].b, b0 + 2 * steps_per_epoch)
        assert_layers_view_params(net, packed)


def test_split_holds_out_the_rounded_fraction_and_never_trains_on_it():
    nets, calls, seen_val = toy_nets(1), [], []
    times = np.arange(1.0, N + 1)

    def val_risks(idx):
        seen_val.append(np.array(idx))
        return -times[idx]

    run_fit(nets, counting_step(calls), val_risks, val_fraction=0.29, epochs=3, patience=5)
    val = set(seen_val[0].tolist())
    assert len(val) == round(N * 0.29) == 12 and all(set(v.tolist()) == val for v in seen_val)
    trained = set(np.concatenate(calls).tolist())
    assert trained.isdisjoint(val) and trained | val == set(range(N))


def test_step_is_never_called_for_a_batch_without_events():
    nets, calls = toy_nets(1), []
    events = (np.arange(N) % 9 == 0).astype(float)
    inner = counting_step(calls)
    trace = run_fit(nets, lambda idx, grad: inner(idx, grad) * 0.0 + 3.0, lambda idx: np.zeros(len(idx)),
                    events=events, batch_size=2, epochs=4, val_fraction=0.0)
    assert calls and all(events[idx].any() for idx in calls)
    assert len(calls) < 4 * N // 2  # most batches were skipped
    # the epoch loss is the mean over the steps taken; skipped batches do not dilute it
    assert [e["train_loss"] for e in trace.epochs] == [3.0] * 4


@pytest.mark.parametrize("case", ["no-hold-out", "no-comparable-pair"])
def test_without_a_validation_c_index_every_epoch_runs_and_the_last_state_stays(case):
    nets, calls = toy_nets(), []
    times = np.full(N, 5.0) if case == "no-comparable-pair" else None
    val_fraction = 0.0 if case == "no-hold-out" else 0.25

    def val_risks(idx):
        raise AssertionError("no c-index is defined, so nothing is scored")

    trace = run_fit(nets, counting_step(calls), val_risks, times=times,
                    val_fraction=val_fraction, epochs=7, patience=0)
    assert [e["val_cindex"] for e in trace.epochs] == [None] * 7
    for net in nets:  # biases start at zero and every step moves them up by one
        assert np.array_equal(net.layers[0].b, [float(len(calls))])


@pytest.mark.parametrize("source", ["step", "optimizer"])
def test_a_numerical_error_in_step_names_the_context_and_the_epoch(source):
    nets, calls = toy_nets(1), []
    inner = counting_step(calls)

    def step(idx, grad):
        if source == "step" and len(calls) == 25:
            raise NumericalError("non-finite gradient entries, step refused")
        loss = inner(idx, grad)
        if len(calls) == 26:  # the optimizer refuses this gradient before any entry moves
            grad[-1] = np.nan
        return loss

    # ten steps per epoch, so the 26th step falls in epoch 2
    with pytest.raises(NumericalError, match=r"^toy training diverged at epoch 2: non-finite") as info:
        run_fit(nets, step, lambda idx: np.zeros(len(idx)), val_fraction=0.0, epochs=10)
    assert isinstance(info.value.__cause__, NumericalError)
    assert np.array_equal(nets[0].layers[0].b, [25.0])  # the 26th step moved nothing


def test_a_fit_part_without_events_is_a_data_error():
    nets, calls = toy_nets(1), []
    times = np.arange(1.0, N + 1)
    # the split permutation puts these ten records in the hold-out
    perm = np.random.default_rng(1).permutation(N)
    events = np.zeros(N)
    events[perm[:10]] = 1.0
    with pytest.raises(DataError, match=r"^toy training: the fit part has no observed events$"):
        run_fit(nets, counting_step(calls), lambda idx: -times[idx], events=events)
    assert calls == []
    events[perm[10]] = 1.0  # one event among the fitted records: every epoch takes a step
    trace = run_fit(nets, counting_step(calls), lambda idx: -times[idx], events=events,
                    epochs=3, val_fraction=0.25)
    assert len(calls) == 3 and [e["train_loss"] for e in trace.epochs] == [1.0, 2.0, 3.0]


def test_a_fit_part_whose_cox_loss_is_zero_is_a_data_error():
    nets, calls = toy_nets(1), []
    times = np.arange(1.0, N + 1)
    fit_idx = np.random.default_rng(1).permutation(N)[10:]  # the hold-out takes the first ten
    by_time = fit_idx[np.argsort(times[fit_idx])]
    events = np.zeros(N)
    events[by_time[-1]] = 1.0  # the only fitted event is the latest fitted time: its risk set is itself
    with pytest.raises(DataError, match=r"^toy training: no event in the fit part has another record "
                                        r"at or after its time, so the Cox loss is zero$"):
        run_fit(nets, counting_step(calls), lambda idx: -times[idx], events=events)
    assert calls == []
    times[by_time[-2]] = times[by_time[-1]]  # a tied record shares the risk set, so the loss is not zero
    trace = run_fit(nets, counting_step(calls), lambda idx: -times[idx], times=times,
                    events=events, epochs=3)
    assert len(calls) == 3 and len(trace.epochs) == 3
