import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracle import (
    RpropState,
    aggregate_gradients,
    backprop,
    dloss_dprediction,
    rprop_plus_reference,
    step,
)
from robustnn import losses as L
from robustnn.datagen import DataGenSpec, Structure, fit_standardizer, generate_dataset
from robustnn.net import (
    Activation,
    Architecture,
    Network,
    count_parameters,
    forward_batch,
    init_weights,
)
from robustnn.optimizer import OptimizerSpec, Rule, TrainStatus, _in_place_update, train


def tiny_net(values=None):
    arch = Architecture(1, (1,), Activation.LOGISTIC)
    n = count_parameters(arch)[2]  # 4 parameters
    vec = np.zeros(n) if values is None else np.asarray(values, dtype=float)
    return Network(arch, vec)


class TestOptimizerSpecValidation:
    def test_eta_factor_ordering(self):
        with pytest.raises(ValueError):
            OptimizerSpec(eta_minus=1.1)
        with pytest.raises(ValueError):
            OptimizerSpec(eta_plus=0.9)

    def test_delta_window(self):
        with pytest.raises(ValueError):
            OptimizerSpec(delta0=100.0, delta_max=50.0)

    @pytest.mark.parametrize("field", ["eta", "grad_threshold", "eta_minus", "eta_plus",
                                       "delta0", "delta_min"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            OptimizerSpec(**{field: math.nan})

    @pytest.mark.parametrize("delta_min,delta0", [(0.0, 0.0), (-1.0, -0.5)])
    def test_step_bounds_must_be_positive(self, delta_min, delta0):
        # a zero step never moves; a negative one climbs the loss
        with pytest.raises(ValueError, match="^delta_min must be positive"):
            OptimizerSpec(delta_min=delta_min, delta0=delta0)


class TestSignGdStep:
    def test_update_moves_against_gradient_sign(self):
        net = tiny_net([1.0, 0.0, 0.0, 0.0])
        agg = [0.3, 0.0, 0.0, 0.0]
        spec = OptimizerSpec(rule=Rule.SIGN_GD, eta=0.1)
        new_net, _ = step(spec, None, net, agg)
        assert new_net.params[0] == pytest.approx(0.9, abs=0.0)
        np.testing.assert_array_equal(new_net.params[1:], [0.0, 0.0, 0.0])

    def test_zero_gradient_leaves_network_unchanged(self):
        net = tiny_net([1.0, -2.0, 3.0, 0.5])
        agg = np.zeros(4)
        new_net, _ = step(OptimizerSpec(rule=Rule.SIGN_GD), None, net, agg)
        np.testing.assert_array_equal(new_net.params, net.params)


class TestRpropStep:
    def manual_sequence(self, grads, spec):
        net = tiny_net()
        state = RpropState.initial(4, spec)
        trail = []
        for g in grads:
            net, state = step(spec, state, net, g)
            trail.append((net.params[0], state.step_sizes[0],
                          state.prev_grad_signs[0]))
        return trail

    def test_grow_shrink_backtrack_trace(self):
        spec = OptimizerSpec(rule=Rule.RPROP_PLUS, delta0=0.0125)
        g = [1.0, 0.0, 0.0, 0.0]
        trail = self.manual_sequence([g, g, [-1, 0, 0, 0], [-1, 0, 0, 0]], spec)
        # epoch 1: neutral, step down by delta0
        assert trail[0] == (pytest.approx(-0.0125), pytest.approx(0.0125), 1.0)
        # epoch 2: same sign, step grows by 1.2
        assert trail[1] == (pytest.approx(-0.0125 - 0.015), pytest.approx(0.015), 1.0)
        # epoch 3: sign flip, previous move reverted, step halves, no new move
        assert trail[2] == (pytest.approx(-0.0125), pytest.approx(0.0075), 0.0)
        # epoch 4: neutral again, move with the shrunk step
        assert trail[3] == (pytest.approx(-0.0125 + 0.0075), pytest.approx(0.0075), -1.0)

    def test_zero_gradient_keeps_network_and_state(self):
        spec = OptimizerSpec(rule=Rule.RPROP_PLUS)
        net = tiny_net([0.2, 0.4, -0.8, 1.0])
        state = RpropState.initial(4, spec)
        new_net, new_state = step(spec, state, net, np.zeros(4))
        np.testing.assert_array_equal(new_net.params, net.params)
        np.testing.assert_array_equal(new_state.step_sizes, state.step_sizes)
        np.testing.assert_array_equal(new_state.prev_grad_signs, state.prev_grad_signs)

    def test_step_sizes_stay_inside_limits(self):
        spec = OptimizerSpec(rule=Rule.RPROP_PLUS, delta0=0.0125)
        rng = np.random.default_rng(8)
        net = tiny_net()
        state = RpropState.initial(4, spec)
        for _ in range(400):
            g = rng.choice([-1.0, 1.0], size=4)
            net, state = step(spec, state, net, g)
            assert state.step_sizes.min() >= spec.delta_min
            assert state.step_sizes.max() <= spec.delta_max


class TestCheckConvergence:
    """train's own check: one epoch whose gradient grad_transform replaces
    converges exactly when every entry is strictly below the threshold."""

    @staticmethod
    def converges(g, threshold=0.01):
        X = np.linspace(-1.0, 1.0, 6).reshape(-1, 1)
        out = train(tiny_net([0.1, -0.2, 0.3, 0.4]), (X, np.cos(X[:, 0])),
                    L.LossSpec.squared(),
                    OptimizerSpec(stepmax=1, grad_threshold=threshold),
                    grad_transform=lambda _: np.array(g, dtype=float))
        assert out.epochs_used == 1
        assert out.status in (TrainStatus.CONVERGED, TrainStatus.STEP_LIMIT)
        return out.status == TrainStatus.CONVERGED

    def test_all_zero_converges(self):
        assert self.converges(np.zeros(4))

    def test_strict_comparison(self):
        assert not self.converges([0.011, 0.0, 0.0, 0.0])
        assert not self.converges([0.01, 0.0, 0.0, 0.0])
        assert not self.converges([0.0, 0.0, 0.0, -0.01])

    def test_small_entries_converge(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.uniform(-0.009, 0.009, size=4)
            assert self.converges(g) == (np.abs(g).max() < 0.01)


def clean_lin_data(seed, n=150, p=5, standardize=True):
    spec = DataGenSpec(p=p, n_train=n, n_test=max(n // 3, 2), structure=Structure.LIN)
    train_ds, _ = generate_dataset(spec, np.random.default_rng(seed))
    y = train_ds.Y
    if standardize:
        y = fit_standardizer(y).apply(y)
    return train_ds.X, y


class TestTrain:
    def test_zero_gradient_converges_at_epoch_one(self):
        arch = Architecture(3, (4,), Activation.LOGISTIC)
        net = init_weights(arch, np.random.default_rng(5))
        X = np.random.default_rng(6).standard_normal((10, 3))
        y = forward_batch(net, X).predictions.copy()  # residuals are all zero
        out = train(net, (X, y), L.LossSpec.squared(), OptimizerSpec(stepmax=100))
        assert out.status == TrainStatus.CONVERGED
        assert out.epochs_used == 1
        np.testing.assert_array_equal(out.final_net.params, net.params)

    def test_stepmax_cap_is_respected(self):
        X, y = clean_lin_data(0)
        arch = Architecture(5, (10, 10), Activation.LOGISTIC)
        net = init_weights(arch, np.random.default_rng(1))
        out = train(net, (X, y), L.LossSpec.squared(),
                    OptimizerSpec(stepmax=5, grad_threshold=1e-300))
        assert out.status == TrainStatus.STEP_LIMIT
        assert out.epochs_used == 5

    def test_clean_data_converges_for_most_seeds(self):
        arch = Architecture(5, (10, 10), Activation.LOGISTIC)
        converged = 0
        for seed in range(10):
            X, y = clean_lin_data(seed)
            net = init_weights(arch, np.random.default_rng(100 + seed))
            out = train(net, (X, y), L.LossSpec.squared(),
                        OptimizerSpec(stepmax=100_000))
            converged += out.status == TrainStatus.CONVERGED
        assert converged > 5

    def test_nonfinite_loss_reports_divergence(self):
        arch = Architecture(2, (2,), Activation.LOGISTIC)
        net = init_weights(arch, np.random.default_rng(4))
        X = np.zeros((3, 2))
        y = np.full(3, 1e200)  # squared residual overflows immediately
        out = train(net, (X, y), L.LossSpec.squared(), OptimizerSpec(stepmax=10))
        assert out.status == TrainStatus.DIVERGED
        assert out.breakdown

    def test_sup_norm_matches_norm_history_replay(self):
        X, y = clean_lin_data(2, n=60)
        arch = Architecture(5, (6,), Activation.LOGISTIC)
        net = init_weights(arch, np.random.default_rng(3))
        out = train(net, (X, y), L.LossSpec.squared(),
                    OptimizerSpec(stepmax=200, grad_threshold=1e-300),
                    record_norms=True)
        assert out.sup_weight_norm == max(out.norm_history)
        assert len(out.norm_history) == out.epochs_used + 1

    def test_diverge_norm_must_exceed_initial(self):
        arch = Architecture(2, (2,), Activation.LOGISTIC)
        net = init_weights(arch, np.random.default_rng(4))
        with pytest.raises(ValueError):
            train(net, (np.zeros((3, 2)), np.zeros(3)), L.LossSpec.squared(),
                  OptimizerSpec(), diverge_norm=1e-6)


class TestPositiveScaleInvariance:
    @pytest.mark.parametrize("rule", [Rule.RPROP_PLUS, Rule.SIGN_GD])
    def test_scaled_gradients_reproduce_trajectory(self, rule):
        # both rules see the gradient only through its sign
        arch = Architecture(5, (10, 10), Activation.LOGISTIC)
        for seed in range(5):
            X, y = clean_lin_data(seed, n=80)
            spec = OptimizerSpec(rule=rule, stepmax=300, grad_threshold=1e-300)
            runs = []
            for scale in (None, 3.7):
                net = init_weights(arch, np.random.default_rng(500 + seed))
                transform = None if scale is None else (lambda g: scale * g)
                out = train(net, (X, y), L.LossSpec.squared(), spec,
                            record_norms=True, grad_transform=transform)
                runs.append(out)
            a, b = runs
            np.testing.assert_array_equal(a.final_net.params,
                                          b.final_net.params)
            assert a.norm_history == b.norm_history
            assert a.epochs_used == b.epochs_used


class TestBreakdownBehaviour:
    """Reduced-scale demonstrations; the acceptance suite runs the full ones."""

    def setup_data(self, seed):
        spec = DataGenSpec(p=5, n_train=60, n_test=10, structure=Structure.LIN)
        train_ds, _ = generate_dataset(spec, np.random.default_rng(seed))
        y = train_ds.Y.copy()
        y[0] = 1e6  # one wild response, no standardization
        return train_ds.X, y

    def test_single_outlier_drives_norm_growth_under_sign_gd(self):
        X, y = self.setup_data(11)
        arch = Architecture(5, (10, 10), Activation.LOGISTIC)
        net = init_weights(arch, np.random.default_rng(12))
        n0 = float(np.linalg.norm(net.params))
        out = train(net, (X, y), L.LossSpec.squared(),
                    OptimizerSpec(rule=Rule.SIGN_GD, stepmax=3000))
        assert out.sup_weight_norm > 20 * n0

    def test_half_trimming_blocks_the_same_outlier(self):
        X, y = self.setup_data(11)
        arch = Architecture(5, (10, 10), Activation.LOGISTIC)
        net = init_weights(arch, np.random.default_rng(12))
        n0 = float(np.linalg.norm(net.params))
        out = train(net, (X, y), L.LossSpec.trimmed(0.5),
                    OptimizerSpec(rule=Rule.SIGN_GD, stepmax=3000))
        assert out.sup_weight_norm < 10 * n0
        assert not out.breakdown


class TestStepAndAggregationAgree:
    def test_one_epoch_of_train_matches_per_instance_route(self):
        # dual-route check: the trainer's vectorized epoch gradient must act
        # exactly like aggregate_gradients over backprop's per-instance rows
        arch = Architecture(4, (5, 3), Activation.LOGISTIC)
        rng = np.random.default_rng(77)
        X = rng.standard_normal((12, 4))
        y = rng.standard_normal(12)
        for loss_spec in (L.LossSpec.squared(), L.LossSpec.huber(),
                          L.LossSpec.tukey(), L.LossSpec.trimmed(0.5)):
            net = init_weights(arch, np.random.default_rng(78))
            spec = OptimizerSpec(rule=Rule.SIGN_GD, eta=0.1, stepmax=1,
                                 grad_threshold=1e-300)
            out = train(net, (X, y), loss_spec, spec)
            # expected: one sign step against the aggregated gradient
            r = y - forward_batch(net, X).predictions
            delta = L.adaptive_huber_delta(r) if loss_spec.adaptive_huber else None
            per_losses = L.loss_value(loss_spec, r, delta)
            grads = backprop(net, X, dloss_dprediction(loss_spec, r, delta))
            agg = aggregate_gradients(grads, per_losses, loss_spec)
            expected = net.params - 0.1 * np.sign(agg)
            np.testing.assert_array_equal(out.final_net.params, expected)


class TestStackedRpropProperties:
    """Rprop+ and sign-GD on a (B, P) stack of parameter rows, the way the
    slot trainer moves B runs at once (Riedmiller & Braun 1993; Igel &
    Hüsken 2000)."""

    # dyadic step sizes and parameters keep every sum exact, so "reverts
    # exactly" can be checked as equality with the parameters of before
    DYADIC = OptimizerSpec(rule=Rule.RPROP_PLUS, delta0=0.125, eta_plus=2.0,
                           eta_minus=0.5, delta_min=2.0 ** -6, delta_max=2.0)

    @staticmethod
    def stacks(max_rows=4, max_cols=6, max_steps=8):
        """(params, gradients): a (B, P) start and a sequence of (B, P)
        gradients whose signs repeat and flip often, zeros included."""
        def build(shape):
            b, p, k = shape
            params = hnp.arrays(np.float64, (b, p),
                                elements=st.integers(-512, 512).map(lambda i: i / 64.0))
            grads = hnp.arrays(np.float64, (k, b, p),
                               elements=st.sampled_from([-2.0, -1e-3, 0.0, 1e-3, 3.0]))
            return st.tuples(params, grads)
        return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols),
                         st.integers(1, max_steps)).flatmap(build)

    @settings(max_examples=60, deadline=None)
    @given(case=stacks(), rule=st.sampled_from(list(Rule)))
    def test_each_row_moves_as_one_run_moves(self, case, rule):
        params, grads = case
        spec = dataclasses.replace(self.DYADIC, rule=rule)
        stacked = params.copy()
        update = _in_place_update(spec, stacked.shape)
        rows = [params[b].copy() for b in range(params.shape[0])]
        row_updates = [_in_place_update(spec, params.shape[1]) for _ in rows]
        for g in grads:
            update(stacked, g)
            for b, (row, row_update) in enumerate(zip(rows, row_updates)):
                row_update(row, g[b].copy())
                assert stacked[b].tobytes() == row.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=stacks(), spec=st.sampled_from([
        DYADIC, OptimizerSpec(), OptimizerSpec(delta0=1e-6, delta_min=1e-6, delta_max=1e-3)]))
    def test_step_sizes_stay_within_limits(self, case, spec):
        params, grads = case
        steps = np.full(params.shape, spec.delta0)
        signs = np.zeros(params.shape)
        update = _in_place_update(spec, params.shape, steps, signs)
        for g in np.concatenate([grads] * 6):
            update(params, g)
            assert steps.min() >= spec.delta_min
            assert steps.max() <= spec.delta_max

    @settings(max_examples=80, deadline=None)
    @given(case=stacks())
    def test_a_sign_flip_reverts_the_previous_move(self, case):
        params, grads = case
        spec = self.DYADIC
        steps = np.full(params.shape, spec.delta0)
        signs = np.zeros(params.shape)
        update = _in_place_update(spec, params.shape, steps, signs)
        before = params.copy()
        for g in grads:
            previous, prev_steps, prev_signs = before, steps.copy(), signs.copy()
            before = params.copy()
            update(params, g)
            flipped = np.sign(g) * prev_signs < 0
            # back to where the parameter stood before its previous move
            np.testing.assert_array_equal(params[flipped], previous[flipped])
            np.testing.assert_array_equal(signs[flipped], 0.0)
            np.testing.assert_array_equal(
                steps[flipped], np.maximum(prev_steps[flipped] * spec.eta_minus,
                                           spec.delta_min))
            # every other parameter moves by its step against the gradient sign
            kept = ~flipped
            np.testing.assert_array_equal(
                params[kept], before[kept] - np.sign(g[kept]) * steps[kept])


def same_bits(a, b) -> bool:
    """Equal bit for bit, signed zeros included, except that any NaN equals
    any NaN in the same place."""
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()) and a[~nan].tobytes() == b[~nan].tobytes()


class TestRpropAgainstReference:
    """The vectorised Rprop+ update against the branch-per-parameter one in
    tests/oracle.py, on parameters and gradients at +-0.0, NaN gradients and
    steps at their limits, over several consecutive updates."""

    SPECS = [OptimizerSpec(),
             OptimizerSpec(delta0=1e-6, delta_min=1e-6, delta_max=1e-3),
             OptimizerSpec(eta_plus=3.5, eta_minus=0.1, delta0=0.05, delta_min=0.01,
                           delta_max=0.05)]

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("rows", [1, 6])
    def test_every_value_matches_the_reference(self, spec, rows):
        rng = np.random.default_rng(rows * 31 + int(spec.delta_max * 1000))
        shape = (rows, 97)
        special_p = [0.0, -0.0, 1.5, -2.25, spec.delta_min, -spec.delta_max]
        special_g = [0.0, -0.0, np.nan, 1e-300, -1e-300, 2.0, -3.0]
        # a -0.0 parameter with a zero gradient, which becomes +0.0
        signed_zero_stays = False
        for trial in range(12):
            params = np.where(rng.random(shape) < 0.5, rng.choice(special_p, shape),
                              rng.standard_normal(shape))
            steps = rng.choice([spec.delta_min, spec.delta0, spec.delta_max], shape)
            signs = rng.choice([-1.0, 0.0, 1.0], shape)
            ref = [a.copy() for a in (params, steps, signs)]
            update = _in_place_update(spec, shape, steps, signs)
            for _ in range(8):
                g = np.where(rng.random(shape) < 0.4, rng.choice(special_g, shape),
                             rng.standard_normal(shape))
                signed_zero_stays |= bool((np.signbit(params) & (params == 0.0)
                                           & (g == 0.0)).any())
                with np.errstate(invalid="ignore"):
                    update(params, g)
                rprop_plus_reference(spec, *ref[:1], g, *ref[1:])
                for got, want in zip((params, steps, signs), ref):
                    assert same_bits(got, want)
            assert np.isnan(params).any()
        assert signed_zero_stays
