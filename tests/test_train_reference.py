"""optimizer.train against the frozen allocating trainer in
reference_train.py: every TrainOutcome must agree bit for bit, and the
network passed in must come back untouched."""

import itertools

import numpy as np
import pytest

from reference_train import (
    reference_batch_deltas,
    reference_forward_batch,
    reference_mean_gradient_vector,
    reference_train,
)
from robustnn import losses as L
from robustnn.contamination import (
    ContaminationKind,
    ContaminationSpec,
    apply_contamination,
    make_iterative_attack_hook,
)
from robustnn.datagen import DataGenSpec, Structure, generate_dataset
from robustnn.net import (
    Activation,
    Architecture,
    batch_deltas,
    forward_batch,
    init_weights,
    mean_gradient_vector,
)
from robustnn.optimizer import OptimizerSpec, Rule, TrainStatus, train

LOSSES = {
    "squared": L.LossSpec.squared(),
    "huber-fixed": L.LossSpec.huber(0.5),
    "huber-adaptive": L.LossSpec.huber(),
    "tukey": L.LossSpec.tukey(),
    "trim10": L.LossSpec.trimmed(0.1),
    "trim25": L.LossSpec.trimmed(0.25),
    "trim50": L.LossSpec.trimmed(0.5),
}
DEPTHS = {"shallow": (10, 10), "deep": (5,) * 10}


def contaminated_data(seed, n=60, p=5):
    spec = DataGenSpec(p=p, n_train=n, n_test=10, structure=Structure.LIN)
    train_ds, _ = generate_dataset(spec, np.random.default_rng(seed))
    cont = ContaminationSpec(ContaminationKind.Y_CONVEX, r=0.25, mu_out=100.0)
    train_c = apply_contamination(train_ds, cont, np.random.default_rng(seed + 1))
    return train_c.X, train_c.Y


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def run_both(net, data, loss, spec, diverge_norm=1e8, make_kwargs=dict):
    """Train with both trainers, each with freshly made callbacks; assert
    bit-identical outcomes and an untouched input network."""
    before = [a.copy() for a in net.weights + net.intercepts]
    got = train(net, data, loss, spec, diverge_norm, **make_kwargs())
    want = reference_train(net, data, loss, spec, diverge_norm, **make_kwargs())
    for a, b in zip(net.weights + net.intercepts, before):
        np.testing.assert_array_equal(a, b)
    assert got.status == want.status
    assert got.epochs_used == want.epochs_used
    assert bits(got.sup_weight_norm) == bits(want.sup_weight_norm)
    assert got.breakdown == want.breakdown
    if want.norm_history is None:
        assert got.norm_history is None
    else:
        assert bits(got.norm_history) == bits(want.norm_history)
    assert np.array_equal(got.final_net.params, want.final_net.params,
                          equal_nan=True)
    assert bits(got.final_net.params) == bits(want.final_net.params)
    assert got.final_net.architecture == want.final_net.architecture
    return got


@pytest.mark.parametrize(
    "loss_name,rule,activation,depth",
    list(itertools.product(LOSSES, Rule, (Activation.LOGISTIC, Activation.SOFTPLUS), DEPTHS)))
def test_outcome_is_bit_identical_to_reference(loss_name, rule, activation, depth):
    X, y = contaminated_data(3)
    arch = Architecture(5, DEPTHS[depth], activation)
    net = init_weights(arch, np.random.default_rng(17))
    spec = OptimizerSpec(rule=rule, stepmax=150, grad_threshold=1e-3)
    run_both(net, (X, y), LOSSES[loss_name], spec,
             make_kwargs=lambda: dict(record_norms=True))


@pytest.mark.parametrize("loss_name", LOSSES)
def test_converging_runs_match(loss_name):
    X, y = contaminated_data(5)
    y = (y - y.mean()) / y.std()
    arch = Architecture(5, (10, 10), Activation.LOGISTIC)
    net = init_weights(arch, np.random.default_rng(23))
    out = run_both(net, (X, y), LOSSES[loss_name], OptimizerSpec(stepmax=20_000))
    assert out.status == TrainStatus.CONVERGED


@pytest.mark.parametrize("in_place", [False, True])
def test_grad_transform_matches(in_place):
    X, y = contaminated_data(7)

    def scale(g):
        if in_place:
            g *= 3.7
            return g
        return 3.7 * g

    arch = Architecture(5, (10, 10), Activation.LOGISTIC)
    net = init_weights(arch, np.random.default_rng(29))
    run_both(net, (X, y), L.LossSpec.trimmed(0.25), OptimizerSpec(stepmax=200),
             make_kwargs=lambda: dict(record_norms=True, grad_transform=scale))


@pytest.mark.parametrize("loss_name", ["squared", "huber-adaptive", "trim25"])
@pytest.mark.parametrize("depth", DEPTHS)
def test_iterative_attacker_hook_matches(loss_name, depth):
    X, y = contaminated_data(11)
    arch = Architecture(5, DEPTHS[depth], Activation.LOGISTIC)
    net = init_weights(arch, np.random.default_rng(31))

    def kwargs():
        _, hook = make_iterative_attack_hook(len(y), np.random.default_rng(37), eps=10.0)
        return dict(epoch_end_hook=hook, record_norms=True)

    run_both(net, (X, y), LOSSES[loss_name], OptimizerSpec(stepmax=200), make_kwargs=kwargs)


def test_overflow_at_the_first_epoch_matches():
    arch = Architecture(2, (2,), Activation.LOGISTIC)
    net = init_weights(arch, np.random.default_rng(4))
    out = run_both(net, (np.zeros((3, 2)), np.full(3, 1e200)), L.LossSpec.squared(),
                   OptimizerSpec(stepmax=10))
    assert out.status == TrainStatus.DIVERGED and out.epochs_used == 1


@pytest.mark.parametrize("loss_name", ["squared", "huber-adaptive", "trim50"])
def test_divergence_mid_run_matches(loss_name):
    # the responses overflow the loss from epoch 41 on
    X, y = contaminated_data(19)
    arch = Architecture(5, (10, 10), Activation.LOGISTIC)
    net = init_weights(arch, np.random.default_rng(43))

    def blow_up(epoch, predictions, losses, y):
        return np.full_like(y, 1e200) if epoch == 40 else None

    out = run_both(net, (X, y), LOSSES[loss_name],
                   OptimizerSpec(rule=Rule.SIGN_GD, stepmax=300, grad_threshold=1e-300),
                   make_kwargs=lambda: dict(record_norms=True, epoch_end_hook=blow_up))
    assert out.status == TrainStatus.DIVERGED and out.breakdown
    assert out.epochs_used == 41


def test_breakdown_by_norm_matches():
    X, y = contaminated_data(23)
    arch = Architecture(5, (10, 10), Activation.LOGISTIC)
    net = init_weights(arch, np.random.default_rng(47))
    n0 = float(np.linalg.norm(net.params))
    out = run_both(net, (X, 1e6 * y), L.LossSpec.squared(),
                   OptimizerSpec(rule=Rule.SIGN_GD, stepmax=500), diverge_norm=1.5 * n0)
    assert out.breakdown and out.status == TrainStatus.STEP_LIMIT


@pytest.mark.parametrize("hidden", [(10, 10), (5,) * 10, (7,), (4, 6)])
@pytest.mark.parametrize("activation", [Activation.LOGISTIC, Activation.SOFTPLUS])
@pytest.mark.parametrize("trimmed", [False, True])
def test_passes_are_bit_identical_to_reference(hidden, activation, trimmed):
    # the sign rules hide last-bit gradient differences from trajectories,
    # so the passes are compared on their own
    rng = np.random.default_rng(53)
    arch = Architecture(6, hidden, activation)
    net = init_weights(arch, rng)
    X = 3.0 * rng.standard_normal((40, 6))
    dl = rng.standard_normal(40)
    kept = np.sort(rng.choice(40, 30, replace=False)) if trimmed else None

    trace = forward_batch(net, X)
    pre, acts, predictions = reference_forward_batch(net, X)
    assert bits(trace.predictions) == bits(predictions)
    for got, want in zip(trace.pre_activations + trace.activations, pre + acts):
        assert bits(got) == bits(want)
    deltas = batch_deltas(net, trace, dl)
    want_deltas = reference_batch_deltas(net, pre, acts, dl)
    for got, want in zip(deltas, want_deltas):
        assert bits(got) == bits(want)
    assert bits(mean_gradient_vector(trace, deltas, kept)) == \
        bits(reference_mean_gradient_vector(acts, want_deltas, kept))
