import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import backprop, canonical_bytes, dloss_dprediction, intercept_sum
from robustnn import losses as L
from robustnn.net import (
    _ACTIVATE,
    _SCALE_BY_DERIV,
    Activation,
    Architecture,
    BatchKernel,
    Predictor,
    _split,
    count_parameters,
    forward_batch,
    init_weights,
    network_from_vector,
    param_vector,
    predict,
    weight_vec_norm,
)


def make_arch(p, hidden, hidden_act=Activation.LOGISTIC, out_act=Activation.IDENTITY):
    return Architecture(p, tuple(hidden), hidden_act, out_act)


def zero_network(arch):
    return network_from_vector(arch, np.zeros(count_parameters(arch)[2]))


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
        # through the activation on the way to the identity output
        z = np.array([-800.0, -2.0, 0.0, 2.0, 31.0, 800.0])
        for kind in Activation:
            net = network_from_vector(make_arch(1, [1], hidden_act=kind),
                                      np.array([0.0, 0.0, 1.0, 1.0]))
            np.testing.assert_array_equal(forward_batch(net, z[:, None]).predictions,
                                          activation(kind, z))

    def test_derivatives(self):
        z = np.linspace(-5, 5, 41)
        s = activation(Activation.LOGISTIC, z)
        np.testing.assert_allclose(activation_deriv(Activation.LOGISTIC, z), s * (1 - s))
        np.testing.assert_allclose(activation_deriv(Activation.SOFTPLUS, z), s)
        np.testing.assert_allclose(activation_deriv(Activation.IDENTITY, z), np.ones_like(z))


class TestArchitectureValidation:
    def test_rejects_empty_hidden(self):
        with pytest.raises(ValueError):
            Architecture(3, ())

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Architecture(0, (4,))
        with pytest.raises(ValueError):
            Architecture(3, (4, 0))


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
        assert np.isfinite(param_vector(net)).all()

    def test_parameter_count_shallow_p5(self):
        arch = make_arch(5, [10, 10])
        net = init_weights(arch, np.random.default_rng(0))
        assert param_vector(net).size == 181


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
            for h in range(arch.n_layers):
                W, b = net.weights[h], net.intercepts[h]
                a = [sum(W[l][j] * z[j] for j in range(len(z))) + b[l]
                     for l in range(len(b))]
                kind = arch.activation_of(h + 1)
                if kind == Activation.LOGISTIC:
                    z = [1.0 / (1.0 + math.exp(-v)) for v in a]
                elif kind == Activation.SOFTPLUS:
                    z = [math.log1p(math.exp(v)) for v in a]
                else:
                    z = a
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
        # with identity output activation, delta_out = dL/dyhat exactly
        arch = make_arch(2, [3])
        net = init_weights(arch, np.random.default_rng(7))
        X = np.random.default_rng(8).standard_normal((5, 2))
        y = np.random.default_rng(9).standard_normal(5)
        r = y - forward_batch(net, X).predictions
        # intercepts come first in param_vector layout, the output one last
        out_intercept = count_parameters(arch)[0] - 1
        for spec, delta in [(L.LossSpec.squared(), None),
                            (L.LossSpec.huber(1.0), None),
                            (L.LossSpec.tukey(), None)]:
            dl = dloss_dprediction(spec, r, delta)
            grads = backprop(net, X, dl)
            for i, g in enumerate(grads):
                assert g[out_intercept] == pytest.approx(dl[i], abs=0.0)

    @staticmethod
    def _total_loss(arch, params, X, y, spec, delta=None):
        net = network_from_vector(arch, params)
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
        acts = [(Activation.LOGISTIC, Activation.IDENTITY),
                (Activation.SOFTPLUS, Activation.IDENTITY),
                (Activation.LOGISTIC, Activation.SOFTPLUS)]
        while combos < 54:
            for spec, delta, kink in specs:
                for hidden_act, out_act in acts:
                    arch = make_arch(int(rng.integers(1, 4)),
                                     [int(rng.integers(1, 5)) for _ in
                                      range(int(rng.integers(1, 3)))],
                                     hidden_act, out_act)
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

                    p0 = param_vector(net)
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
        assert combos >= 50


class TestWeightVecNorm:
    def test_zero_network(self):
        assert weight_vec_norm(zero_network(make_arch(3, [2]))) == 0.0

    def test_three_four_five(self):
        arch = make_arch(2, [2])
        net = zero_network(arch)
        net.weights[0][0, 0] = 3.0
        net.intercepts[1][0] = 4.0
        assert weight_vec_norm(net) == 5.0

    def test_matches_flatten_oracle(self):
        net = init_weights(make_arch(4, [5, 3]), np.random.default_rng(31))
        flat = np.concatenate([v.ravel() for v in net.intercepts]
                              + [w.ravel() for w in net.weights])
        oracle = math.sqrt(float(np.sum(flat * flat)))
        assert weight_vec_norm(net) == pytest.approx(oracle, rel=1e-14, abs=0.0)

    def test_nonfinite_parameter_flags_infinity(self):
        net = init_weights(make_arch(2, [2]), np.random.default_rng(1))
        net.weights[1][0, 0] = np.nan
        assert weight_vec_norm(net) == math.inf
        net.weights[1][0, 0] = np.inf
        assert weight_vec_norm(net) == math.inf


class TestVectorRoundTrip:
    def test_param_vector_round_trip(self):
        arch = make_arch(3, [4, 2], Activation.SOFTPLUS)
        net = init_weights(arch, np.random.default_rng(8))
        vec = param_vector(net)
        again = network_from_vector(arch, vec)
        np.testing.assert_array_equal(param_vector(again), vec)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            network_from_vector(make_arch(3, [4]), np.zeros(3))


# ten hidden layers of 5, the study's deep networks, and softplus networks,
# whose derivative scaling goes through the logistic
KERNEL_ARCHS = [make_arch(3, (5,) * 10), make_arch(3, (5,) * 10, Activation.SOFTPLUS),
                make_arch(4, (10, 10), Activation.SOFTPLUS), make_arch(2, (3,), Activation.SOFTPLUS)]


@st.composite
def kernel_cases(draw):
    """Slots, rows, a prefix of k slots for the full sum, and a group of
    adjacent slots with kept-row subsets of one size h, each its own."""
    arch = draw(st.sampled_from(KERNEL_ARCHS))
    slots = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, slots))
    start = draw(st.integers(0, slots - 1))
    count = draw(st.integers(1, slots - start))
    h = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return arch, slots, n, k, start, count, h, seed


class TestBatchKernelGradientSum:
    @settings(max_examples=40, deadline=None)
    @given(case=kernel_cases())
    def test_sums_equal_the_per_instance_oracle(self, case):
        arch, slots, n, k, start, count, h, seed = case
        rng = np.random.default_rng(seed)
        n_params = count_parameters(arch)[2]
        params = rng.standard_normal((slots, n_params))
        X = rng.standard_normal((slots, n, arch.input_dim))
        dloss = rng.standard_normal((slots, n))
        kernel = BatchKernel(network_from_vector(arch, params, copy=False), X)
        with np.errstate(over="ignore"):  # the logistic's exp(-a) may overflow to its limit
            kernel.forward()
            kernel.output_error[...] = dloss
            kernel.backward()

        full = np.full((k, n_params), np.nan)
        assert kernel.gradient_sum(*_split(full, arch.layer_sizes)) == n
        kept = np.sort(np.stack([rng.permutation(n)[:h] for _ in range(count)]), axis=1)
        trimmed = np.full((count, n_params), np.nan)
        rows = kept + np.arange(start, start + count)[:, None] * n
        assert kernel.gradient_sum(*_split(trimmed, arch.layer_sizes), rows) == h

        for got, b, subset in [(full[b], b, slice(None)) for b in range(k)] + \
                [(trimmed[j], start + j, kept[j]) for j in range(count)]:
            net = network_from_vector(arch, params[b])
            per_instance = backprop(net, X[b], dloss[b])[subset]
            want = per_instance.sum(axis=0)
            # both sums round each term and partial sum once or so
            tol = 1e-12 * np.abs(per_instance).sum(axis=0)
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
        kernel = BatchKernel(network_from_vector(arch, np.zeros((slots, n_params)), copy=False),
                             np.zeros((slots, n, 2)))
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
        with np.errstate(all="ignore"):
            assert kernel.gradient_sum(*_split(full, arch.layer_sizes)) == n
            assert kernel.gradient_sum(*_split(gathered, arch.layer_sizes),
                                       kept + group[:, None] * n) == h
            for layer, d in enumerate(kernel.deltas):
                want_full = intercept_sum(d[:k])
                want_gathered = intercept_sum(
                    np.stack([d[b][rows] for b, rows in zip(group, kept)]))
                got_full = _split(full, arch.layer_sizes)[1][layer]
                got_gathered = _split(gathered, arch.layer_sizes)[1][layer]
                assert canonical_bytes(got_full) == canonical_bytes(want_full), layer
                assert canonical_bytes(got_gathered) == canonical_bytes(want_gathered), layer


class TestPredictor:
    @pytest.mark.parametrize("arch", KERNEL_ARCHS + [make_arch(5, (10, 10))])
    def test_predictions_equal_predict_bit_for_bit(self, arch):
        rng = np.random.default_rng(len(arch.hidden_sizes))
        predictor = Predictor(arch)
        for rows in (50, 7, 50, 1):
            net = init_weights(arch, rng)
            X = rng.standard_normal((rows, arch.input_dim)) * 30.0
            with np.errstate(over="ignore"):
                got = predictor(net, X).copy()
            assert got.tobytes() == predict(net, X).tobytes()
        assert len(predictor._passes) == 3

    def test_a_network_of_another_architecture_is_rejected(self):
        predictor = Predictor(make_arch(3, (4,)))
        net = init_weights(make_arch(3, (4,), Activation.SOFTPLUS), np.random.default_rng(1))
        with pytest.raises(ValueError, match="architecture"):
            predictor(net, np.zeros((2, 3)))
