import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import backprop, canonical_bytes, dloss_dprediction, flatten, intercept_sum
from robustnn import experiment as E
from robustnn import losses as L
from robustnn.contamination import ContaminationSpec
from robustnn.datagen import Dataset, DataGenSpec
from robustnn.net import (
    _ACTIVATE,
    _SCALE_BY_DERIV,
    Activation,
    Architecture,
    BatchKernel,
    Network,
    _gradient_sum,
    _sum_steps,
    batch_deltas,
    count_parameters,
    forward_batch,
    init_weights,
    predict,
)
from robustnn.optimizer import (
    OptimizerSpec,
    TrainOutcome,
    TrainStatus,
    _LossGroup,
    _Slots,
    train,
)


def make_arch(p, hidden, hidden_act=Activation.LOGISTIC):
    return Architecture(p, tuple(hidden), hidden_act)


def zero_network(arch):
    return Network(arch, np.zeros(count_parameters(arch)[2]))


def views(arch, params):
    """The per-layer (weights, intercepts) views of a (stacked) parameter
    array, the arrays a gradient sum writes into."""
    net = Network(arch, params)
    return net.weights, net.intercepts


def forward_one(net, x):
    """Forward pass of a single input vector, as a one-row batch."""
    return forward_batch(net, np.asarray(x, dtype=np.float64)[None, :])


def activation(kind, z):
    """sigma(z) through the forward pass's kernel."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore"):
        return _ACTIVATE[kind](z, np.empty_like(z))


def activation_deriv(kind, z):
    """sigma'(z): an error term of ones, scaled as backpropagation scales it."""
    z = np.asarray(z, dtype=np.float64)
    d = np.ones_like(z)
    with np.errstate(over="ignore"):
        _SCALE_BY_DERIV[kind](d, z, activation(kind, z), np.empty_like(z))
    return d


class TestActivations:
    def test_logistic_values(self):
        z = np.array([0.0, 2.0, -2.0])
        s = 1.0 / (1.0 + np.exp(-z))
        np.testing.assert_allclose(
            np.asarray([0.5, s[1], s[2]]),
            np.array([0.5, 1 / (1 + math.exp(-2)), 1 / (1 + math.exp(2))]))
        np.testing.assert_allclose(activation(Activation.LOGISTIC, z), s)

    def test_logistic_extreme_inputs_hit_exact_limits(self):
        out = activation(Activation.LOGISTIC, np.array([-800.0, 800.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_softplus_at_zero_is_log_two(self):
        assert activation(Activation.SOFTPLUS, 0.0) == pytest.approx(math.log(2), rel=1e-15)

    def test_softplus_large_z_equals_z(self):
        # overflow-safe branch: softplus(z) = z to 1e-13 relative for z > 30
        for z in [31.0, 100.0, 1e3, 1e6, 1e300]:
            assert abs(activation(Activation.SOFTPLUS, z) - z) <= 1e-13 * z

    def test_hidden_units_apply_the_same_kernels(self):
        # a one-unit hidden layer with weight 1 and intercept 0 passes z
        # through the activation on the way to the linear output
        z = np.array([-800.0, -2.0, 0.0, 2.0, 31.0, 800.0])
        for kind in Activation:
            net = Network(make_arch(1, [1], hidden_act=kind), np.array([0.0, 0.0, 1.0, 1.0]))
            np.testing.assert_array_equal(forward_batch(net, z[:, None]).predictions,
                                          activation(kind, z))

    def test_derivatives(self):
        z = np.linspace(-5, 5, 41)
        s = activation(Activation.LOGISTIC, z)
        np.testing.assert_allclose(activation_deriv(Activation.LOGISTIC, z), s * (1 - s))
        np.testing.assert_allclose(activation_deriv(Activation.SOFTPLUS, z), s)


class TestArchitectureValidation:
    def test_rejects_empty_hidden(self):
        with pytest.raises(ValueError):
            Architecture(3, ())

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Architecture(0, (4,))
        with pytest.raises(ValueError):
            Architecture(3, (4, 0))

    @pytest.mark.parametrize("hidden", [(2.7,), (4, True), (3, "5")])
    def test_rejects_non_integer_hidden_sizes(self, hidden):
        with pytest.raises(ValueError, match="^hidden_sizes entry must be an integer, got "):
            Architecture(3, hidden)


class TestInitWeights:
    def test_deterministic_given_seed(self):
        arch = make_arch(1, [1])
        a = init_weights(arch, np.random.default_rng(12345))
        b = init_weights(arch, np.random.default_rng(12345))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.intercepts, b.intercepts):
            np.testing.assert_array_equal(ba, bb)

    def test_all_parameters_finite(self):
        arch = make_arch(7, [6, 3], Activation.SOFTPLUS)
        net = init_weights(arch, np.random.default_rng(3))
        assert np.isfinite(net.params).all()

    def test_parameter_count_shallow_p5(self):
        arch = make_arch(5, [10, 10])
        net = init_weights(arch, np.random.default_rng(0))
        assert net.params.size == 181


class TestCountParameters:
    # the study's depth grid: intercepts and weights per (p, hidden)
    @pytest.mark.parametrize("p,hidden,n_b,n_w", [
        (5, (10, 10), 21, 160),
        (5, (5,) * 10, 51, 255),
        (20, (10, 10), 21, 310),
        (20, (5,) * 10, 51, 330),
        (50, (10, 10), 21, 610),
        (50, (5,) * 10, 51, 480),
    ])
    def test_study_grid_rows(self, p, hidden, n_b, n_w):
        b, w, total = count_parameters(make_arch(p, hidden))
        assert (b, w) == (n_b, n_w)
        assert total == n_b + n_w

    def test_minimal_network(self):
        assert count_parameters(make_arch(1, (1,))) == (2, 2, 4)


class TestForward:
    def test_zero_params_logistic_hidden(self):
        arch = make_arch(4, [3, 5])
        net = zero_network(arch)
        trace = forward_one(net, np.zeros(4))
        for z in trace.activations[1:-1]:
            np.testing.assert_array_equal(z, np.full_like(z, 0.5))
        assert trace.predictions[0] == 0.0

    def test_zero_params_softplus_hidden(self):
        arch = make_arch(4, [3, 5], Activation.SOFTPLUS)
        net = zero_network(arch)
        trace = forward_one(net, np.ones(4))
        for z in trace.activations[1:-1]:
            np.testing.assert_allclose(z, math.log(2), rtol=1e-15)

    def test_matches_straight_line_oracle(self):
        # independent pure-python re-implementation of the affine chain
        def oracle(net, x):
            z = [float(v) for v in x]
            arch = net.architecture
            for h, (W, b) in enumerate(zip(net.weights, net.intercepts)):
                a = [sum(W[l][j] * z[j] for j in range(len(z))) + b[l]
                     for l in range(len(b))]
                if h == len(arch.hidden_sizes):
                    z = a
                elif arch.hidden_activation == Activation.LOGISTIC:
                    z = [1.0 / (1.0 + math.exp(-v)) for v in a]
                else:
                    z = [math.log1p(math.exp(v)) for v in a]
            return z[0]

        rng = np.random.default_rng(99)
        for hidden_act in (Activation.LOGISTIC, Activation.SOFTPLUS):
            for _ in range(10):
                arch = make_arch(3, [5, 4], hidden_act)
                net = init_weights(arch, rng)
                x = rng.standard_normal(3)
                expected = oracle(net, x)
                got = forward_one(net, x).predictions[0]
                assert got == pytest.approx(expected, rel=1e-12)

    def test_pure_function_bit_identical(self):
        arch = make_arch(6, [8, 8])
        net = init_weights(arch, np.random.default_rng(11))
        x = np.random.default_rng(12).standard_normal(6)
        a = forward_one(net, x)
        b = forward_one(net, x)
        assert a.predictions[0] == b.predictions[0]
        for za, zb in zip(a.activations, b.activations):
            np.testing.assert_array_equal(za, zb)

    def test_dimension_mismatch_raises(self):
        net = init_weights(make_arch(4, [3]), np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward_one(net, np.zeros(5))

    def test_nonfinite_inputs_propagate_without_raising(self):
        # non-finite values flow through; detecting them is the trainer's job
        net = init_weights(make_arch(2, [3], Activation.SOFTPLUS), np.random.default_rng(1))
        with np.errstate(invalid="ignore"):
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                trace = forward_one(net, np.array([np.inf, 0.0]))
        assert not math.isfinite(trace.predictions[0])

    def test_frozen_zero_weights_ignore_their_inputs(self):
        # a column of zeros in the first layer disconnects that input
        arch = make_arch(3, [4, 2])
        net = init_weights(arch, np.random.default_rng(21))
        net.weights[0][:, 1] = 0.0
        base = np.array([0.3, -0.7, 1.2])
        other = base.copy()
        other[1] = 42.0
        assert forward_one(net, base).predictions[0] == forward_one(net, other).predictions[0]


class TestBackprop:
    def test_zero_residual_gives_zero_gradients(self):
        arch = make_arch(3, [4, 4])
        net = init_weights(arch, np.random.default_rng(5))
        X = np.random.default_rng(6).standard_normal((4, 3))
        preds = forward_batch(net, X).predictions
        r = preds - preds  # y == prediction
        dl = dloss_dprediction(L.LossSpec.squared(), r)
        for g in backprop(net, X, dl):
            assert np.all(g == 0.0)

    def test_output_intercept_gradient_is_output_delta(self):
        # with a linear output, delta_out = dL/dyhat exactly
        arch = make_arch(2, [3])
        net = init_weights(arch, np.random.default_rng(7))
        X = np.random.default_rng(8).standard_normal((5, 2))
        y = np.random.default_rng(9).standard_normal(5)
        r = y - forward_batch(net, X).predictions
        # intercepts come first in a network's params, the output one last
        out_intercept = count_parameters(arch)[0] - 1
        for spec, delta in [(L.LossSpec.squared(), None),
                            (L.LossSpec.huber(1.0), None),
                            (L.LossSpec.tukey(), None)]:
            dl = dloss_dprediction(spec, r, delta)
            grads = backprop(net, X, dl)
            for i, g in enumerate(grads):
                assert g[out_intercept] == pytest.approx(dl[i], abs=0.0)

    @pytest.mark.parametrize("activation", Activation)
    def test_batch_deltas_leaves_the_trace_as_it_was(self, activation):
        # the kernel's backward pass overwrites its hidden pre-activations,
        # the standalone route must not touch its caller's trace; both give
        # the same error terms
        arch = make_arch(4, [6, 5, 3], activation)
        net = init_weights(arch, np.random.default_rng(31))
        X = np.random.default_rng(32).standard_normal((40, 4))
        dl = np.random.default_rng(33).standard_normal(40)
        trace = forward_batch(net, X)
        before = [a.tobytes() for a in trace.pre_activations + trace.activations]
        deltas = batch_deltas(net, trace, dl)
        assert [a.tobytes() for a in trace.pre_activations + trace.activations] == before

        kernel = BatchKernel(Network(arch, net.params[None]), X[None])
        kernel.forward()
        kernel.output_error[...] = dl
        for got, want in zip(kernel.backward(), deltas, strict=True):
            assert got[0].tobytes() == want.tobytes()

    @staticmethod
    def _total_loss(arch, params, X, y, spec, delta=None):
        net = Network(arch, params)
        preds = forward_batch(net, X).predictions
        return float(L.loss_value(spec, y - preds, delta).sum())

    def test_finite_difference_oracle(self):
        # central differences, step 1e-5, residuals kept away from loss kinks
        rng = np.random.default_rng(2024)
        step = 1e-5
        combos = 0
        specs = [
            (L.LossSpec.squared(), None, None),
            (L.LossSpec.huber(1.0), 1.0, 1.0),       # kink at |r| = 1
            (L.LossSpec.tukey(), None, L.TUKEY_K_DEFAULT),  # kink at |r| = k
        ]
        while combos < 54:
            for spec, delta, kink in specs:
                for hidden_act in Activation:
                    arch = make_arch(int(rng.integers(1, 4)),
                                     [int(rng.integers(1, 5)) for _ in
                                      range(int(rng.integers(1, 3)))],
                                     hidden_act)
                    net = init_weights(arch, rng)
                    X = rng.standard_normal((3, arch.input_dim))
                    preds = forward_batch(net, X).predictions
                    r = rng.uniform(-3, 3, size=3)
                    if kink is not None:
                        # push residuals away from the non-smooth point
                        r = np.where(np.abs(np.abs(r) - kink) < 0.05,
                                     r + 0.15 * np.sign(r), r)
                    y = preds + r  # residual y - pred = r by construction
                    dl = dloss_dprediction(spec, y - preds, delta)
                    grads = backprop(net, X, dl)
                    analytic = np.sum(grads, axis=0)

                    p0 = net.params
                    fd = np.zeros_like(p0)
                    for i in range(p0.size):
                        up = p0.copy()
                        up[i] += step
                        dn = p0.copy()
                        dn[i] -= step
                        fd[i] = (self._total_loss(arch, up, X, y, spec, delta)
                                 - self._total_loss(arch, dn, X, y, spec, delta)) / (2 * step)
                    scale = np.maximum(np.abs(analytic), np.abs(fd))
                    err = np.abs(analytic - fd)
                    rel = np.where(scale > 1e-6, err / np.maximum(scale, 1e-300), 0.0)
                    assert rel.max() <= 1e-6, f"{spec.kind} {hidden_act} rel={rel.max()}"
                    assert err[scale <= 1e-6].max(initial=0.0) <= 1e-9
                    combos += 1
        assert combos == 54


class TestNetwork:
    def test_views_alias_params_both_ways(self):
        arch = make_arch(3, [4, 2], Activation.SOFTPLUS)
        for params in (np.zeros(count_parameters(arch)[2]),
                       np.zeros((3, count_parameters(arch)[2]))):
            net = Network(arch, params)
            for a in net.intercepts + net.weights:
                assert np.shares_memory(a, params)
            params[..., -1] = 2.5          # the last weight of the output layer
            assert np.all(net.weights[-1][..., 0, -1] == 2.5)
            net.intercepts[0][..., 1] = -1.0
            assert np.all(params[..., 1] == -1.0)
            net.weights[0][..., 3, 2] = 7.0  # node 3 of layer 1 from input 2
            assert np.all(params[..., 7 + 3 * 3 + 2] == 7.0)  # after 7 intercepts

    def test_a_float64_input_is_not_copied(self):
        arch = make_arch(2, [3])
        params = np.arange(count_parameters(arch)[2], dtype=np.float64)
        assert Network(arch, params).params is params
        ints = Network(arch, list(range(params.size)))
        assert ints.params.dtype == np.float64
        np.testing.assert_array_equal(ints.params, params)

    @pytest.mark.parametrize("shape", [(3,), (20,), (), (2, 2, 21), (0,)])
    def test_a_wrong_length_or_ndim_is_rejected(self, shape):
        arch = make_arch(3, [4])  # 21 parameters
        with pytest.raises(ValueError, match="length 21"):
            Network(arch, np.zeros(shape))

    def test_params_equal_the_flattened_views(self):
        for seed, arch in enumerate([make_arch(1, [1]), make_arch(4, [5, 3]),
                                     make_arch(5, (10, 10), Activation.SOFTPLUS)]):
            net = init_weights(arch, np.random.default_rng(seed))
            assert flatten(net).tobytes() == net.params.tobytes()
            stacked = Network(arch, np.random.default_rng(seed).standard_normal(
                (4, count_parameters(arch)[2])))
            assert flatten(stacked).tobytes() == stacked.params.tobytes()
            for row in stacked.params:
                assert flatten(Network(arch, row)).tobytes() == row.tobytes()

    def test_train_outcomes_keep_the_layout(self):
        arch = make_arch(2, [3])
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 2))
        for loss in (L.LossSpec.squared(), L.LossSpec.trimmed(0.5)):
            out = train(init_weights(arch, rng), (X, np.sin(X[:, 0])), loss,
                        OptimizerSpec(stepmax=50))
            assert out.epochs_used > 1
            assert flatten(out.final_net).tobytes() == out.final_net.params.tobytes()

    def test_norm_of_params(self):
        # the probe prints this norm for the initial network
        assert np.linalg.norm(zero_network(make_arch(3, [2])).params) == 0.0
        net = zero_network(make_arch(2, [2]))
        net.weights[0][0, 0] = 3.0
        net.intercepts[1][0] = 4.0
        assert np.linalg.norm(net.params) == 5.0
        net = init_weights(make_arch(4, [5, 3]), np.random.default_rng(31))
        oracle = math.sqrt(float(np.sum(flatten(net) ** 2)))
        assert np.linalg.norm(net.params) == pytest.approx(oracle, rel=1e-14, abs=0.0)


# ten hidden layers of 5, the study's deep networks, and softplus networks,
# whose derivative scaling goes through the logistic
KERNEL_ARCHS = [make_arch(3, (5,) * 10), make_arch(3, (5,) * 10, Activation.SOFTPLUS),
                make_arch(4, (10, 10), Activation.SOFTPLUS), make_arch(2, (3,), Activation.SOFTPLUS)]


@st.composite
def group_cases(draw):
    """Slots, rows, a squared-loss group of k slots from slot `first` on,
    and a group of `count` slots from `start` on that trims pct percent,
    with kept rows of its own per slot."""
    arch = draw(st.sampled_from(KERNEL_ARCHS))
    slots = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    first = draw(st.integers(0, slots - 1))
    k = draw(st.integers(1, slots - first))
    start = draw(st.integers(0, slots - 1))
    count = draw(st.integers(1, slots - start))
    pct = draw(st.integers(1, 99))
    seed = draw(st.integers(0, 2**32 - 1))
    return arch, slots, n, first, k, start, count, pct, seed


class TestLossGroupGradientSum:
    @settings(max_examples=40, deadline=None)
    @given(case=group_cases())
    def test_sums_equal_the_per_instance_oracle(self, case):
        arch, slots, n, first, k, start, count, pct, seed = case
        rng = np.random.default_rng(seed)
        batch = _Slots(arch, n, OptimizerSpec(), slots)
        batch.params[...] = rng.standard_normal(batch.params.shape)
        batch.X[...] = rng.standard_normal(batch.X.shape)
        batch.grad[...] = np.nan
        dloss = rng.standard_normal((slots, n))
        with np.errstate(over="ignore"):  # the logistic's exp(-a) may overflow to its limit
            batch.kernel.forward()
            batch.kernel.output_error[...] = dloss
            batch.kernel.backward()

        _LossGroup(batch, L.LossSpec.squared(), first, k).mean_gradient()
        full = batch.grad[first:first + k].copy()
        trimmed = _LossGroup(batch, L.LossSpec.trimmed(pct / 100), start, count)
        h = trimmed.h
        kept = np.sort(np.stack([rng.permutation(n)[:h] for _ in range(count)]), axis=1)
        # as losses() leaves them: positions in the group's (count, n) losses
        trimmed.kept = kept + np.arange(count)[:, None] * n
        trimmed.mean_gradient()

        for got, b, subset in [(full[j], first + j, slice(None)) for j in range(k)] + \
                [(batch.grad[start + j], start + j, kept[j]) for j in range(count)]:
            net = Network(arch, batch.params[b])
            per_instance = backprop(net, batch.X[b], dloss[b])[subset]
            rows = len(per_instance)
            want = per_instance.sum(axis=0) / rows
            # both sums round each term and partial sum once or so
            tol = 1e-12 * np.abs(per_instance).sum(axis=0) / rows
            assert np.all(np.abs(got - want) <= tol), (b, np.abs(got - want).max())


SUM_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


@st.composite
def sum_cases(draw):
    """Two layer widths (the output layer adds a width of 1), rows, slots,
    a prefix of k slots, G slots with h kept rows each, the share of
    special values among the error terms and a seed."""
    widths = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    n = draw(st.integers(1, 1200))
    slots = draw(st.integers(1, 24))
    k = draw(st.integers(1, slots))
    g = draw(st.integers(1, slots))
    h = draw(st.integers(1, n))
    share = draw(st.sampled_from([0.0, 0.01, 0.3, 1.0]))
    return widths, n, slots, k, g, h, share, draw(st.integers(0, 2**32 - 1))


class TestInterceptSum:
    @settings(max_examples=50, deadline=None)
    @given(case=sum_cases())
    @example(case=((12, 12), 1200, 24, 24, 24, 1200, 0.01, 1))
    @example(case=((1, 2), 1200, 24, 7, 13, 600, 0.3, 2))
    def test_full_and_gathered_sums_add_the_rows_in_order(self, case):
        widths, n, slots, k, g, h, share, seed = case
        rng = np.random.default_rng(seed)
        arch = make_arch(2, widths)
        n_params = count_parameters(arch)[2]
        kernel = BatchKernel(Network(arch, np.zeros((slots, n_params))), np.zeros((slots, n, 2)))
        for z in kernel.acts[1:]:
            z[...] = 0.0
        for d in kernel.deltas:
            d[...] = rng.standard_normal(d.shape) * 10.0 ** rng.integers(-3, 4, d.shape)
            special = rng.random(d.shape) < share
            d[special] = rng.choice(SUM_SPECIALS, np.count_nonzero(special))

        full = np.full((k, n_params), 7.0)
        group = np.sort(rng.choice(slots, g, replace=False))
        kept = np.sort(np.stack([rng.choice(n, h, replace=False) for _ in group]), axis=1)
        gathered = np.full((g, n_params), 7.0)
        deltas, inputs = kernel.deltas, kernel.acts[:-1]

        def gather(a):
            return np.stack([a[b][rows] for b, rows in zip(group, kept)])

        with np.errstate(all="ignore"):
            steps = _sum_steps([d[:k] for d in deltas], [z[:k] for z in inputs])
            assert _gradient_sum(steps, *views(arch, full)) == n
            steps = _sum_steps([gather(d) for d in deltas], [gather(z) for z in inputs])
            assert _gradient_sum(steps, *views(arch, gathered)) == h
            for layer, d in enumerate(deltas):
                want_full = intercept_sum(d[:k])
                want_gathered = intercept_sum(gather(d))
                got_full = Network(arch, full).intercepts[layer]
                got_gathered = Network(arch, gathered).intercepts[layer]
                assert canonical_bytes(got_full) == canonical_bytes(want_full), layer
                assert canonical_bytes(got_gathered) == canonical_bytes(want_gathered), layer


class TestTestPredictions:
    """A converged run's test predictions, which experiment._record takes
    from a one-slot BatchKernel kept per shape of the test inputs."""

    @staticmethod
    def record(net, X, y, kernels):
        """_record of a converged run of net with test set (X, y), and the
        predictions it took."""
        test = Dataset(X, y)
        cfg = E.ExperimentConfig(
            DataGenSpec(p=X.shape[1], n_train=2, n_test=len(X)), ContaminationSpec("none"),
            net.architecture.hidden_activation, L.LossSpec.squared(), False, E.Depth.SHALLOW, 1, 0)
        scenario = E.PreparedScenario(test, test, y, E._fingerprint(test), None, None)
        outcome = TrainOutcome(TrainStatus.CONVERGED, 1, net, 0.0, False)
        rec = E._record(E.PreparedRun(cfg, 0, 0, scenario, net), outcome, kernels)
        return rec, kernels[X.shape].predictions[0]

    @pytest.mark.parametrize("arch", KERNEL_ARCHS + [make_arch(5, (10, 10))])
    def test_they_equal_predict_bit_for_bit(self, arch):
        rng = np.random.default_rng(len(arch.hidden_sizes))
        kernels = {}
        for rows in (50, 7, 50, 1):
            net = init_weights(arch, rng)
            X = rng.standard_normal((rows, arch.input_dim)) * 30.0
            y = rng.standard_normal(rows)
            rec, got = self.record(net, X, y, kernels)
            want = predict(net, X)
            assert got.tobytes() == want.tobytes()
            with np.errstate(over="ignore", invalid="ignore"):
                assert rec.test_loss == float(np.mean((want - y) ** 2))
        assert len(kernels) == 3
