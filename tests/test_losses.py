import math
from fractions import Fraction

import numpy as np
import pytest

from oracle import aggregate_gradients, backprop, dloss_dprediction
from robustnn import losses as L
from robustnn.net import Activation, Architecture, forward_batch, init_weights


class TestLossSpecValidation:
    def test_trim_alpha_required_and_bounded(self):
        with pytest.raises(ValueError):
            L.LossSpec(L.LossKind.TRIMMED_SQUARED)
        with pytest.raises(ValueError):
            L.LossSpec.trimmed(1.0)

    def test_parameters_belong_to_their_kind(self):
        with pytest.raises(ValueError):
            L.LossSpec(L.LossKind.SQUARED, huber_delta=1.0)
        with pytest.raises(ValueError):
            L.LossSpec(L.LossKind.HUBER, trim_alpha=0.5)

    def test_tukey_default_k(self):
        assert L.LossSpec.tukey().tukey_k == 4.685

    def test_nan_constants_rejected(self):
        with pytest.raises(ValueError, match="^huber_delta must be positive, got nan$"):
            L.LossSpec.huber(math.nan)
        with pytest.raises(ValueError, match="^tukey_k must be positive, got nan$"):
            L.LossSpec.tukey(math.nan)

    @pytest.mark.parametrize("make,field", [(L.LossSpec.huber, "huber_delta"),
                                            (L.LossSpec.tukey, "tukey_k")])
    def test_infinite_constants_rejected(self, make, field):
        # an infinite Tukey constant gives every residual a loss and a
        # gradient of 0, and an infinite Huber threshold computes inf - inf
        with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
            make(math.inf)
        with pytest.raises(ValueError, match=f"^{field} must be positive, got -inf$"):
            make(-math.inf)


class TestLossTokens:
    @pytest.mark.parametrize("spec", [L.LossSpec.squared(), L.LossSpec.huber(),
                                      L.LossSpec.tukey()]
                             + [L.LossSpec.trimmed(pct / 100) for pct in range(1, 100)],
                             ids=lambda spec: spec.token)
    def test_a_token_spells_back_its_loss(self, spec):
        assert L.LossSpec.from_token(spec.token) == spec
        assert L.LossSpec.from_token(spec.token.upper()) == spec

    def test_trimmed_tokens_name_the_percentage(self):
        assert [L.LossSpec.trimmed(pct / 100).token for pct in range(1, 100)] == [
            f"trim{pct}" for pct in range(1, 100)]

    @pytest.mark.parametrize("token", ["trimmed-squared", "trim", "trimx", "absolute", "",
                                       "trim 5", "trim+5", "trim05", "Trim50 ",
                                       "trim\u0665", "trim5_0", "trim-0"])
    def test_a_token_that_spells_no_loss_gives_none(self, token):
        assert L.LossSpec.from_token(token) is None

    @pytest.mark.parametrize("token", ["trim0", "trim100", "trim-5"])
    def test_a_trimming_rate_outside_the_unit_interval_is_refused(self, token):
        with pytest.raises(ValueError, match=r"^trim_alpha must lie in \(0, 1\)$"):
            L.LossSpec.from_token(token)


class TestLossValues:
    def test_huber_outside_branch(self):
        assert L.loss_value(L.LossSpec.huber(1.0), 2.0) == 1.5

    def test_huber_inside_branch(self):
        assert L.loss_value(L.LossSpec.huber(2.0), 1.0) == 0.5

    def test_tukey_saturates_at_one(self):
        assert L.loss_value(L.LossSpec.tukey(), 10.0) == 1.0

    def test_tukey_zero_residual(self):
        assert L.loss_value(L.LossSpec.tukey(), 0.0) == 0.0

    def test_squared(self):
        assert L.loss_value(L.LossSpec.squared(), -3.0) == 9.0

    def test_trimmed_per_instance_is_squared(self):
        r = np.array([0.5, -2.0])
        np.testing.assert_array_equal(
            L.loss_value(L.LossSpec.trimmed(0.5), r), r * r)


class TestLossGradients:
    def test_huber_bounded_branch(self):
        assert L.loss_gradient(L.LossSpec.huber(1.0), 2.0) == 1.0
        assert L.loss_gradient(L.LossSpec.huber(1.0), -2.0) == -1.0

    def test_tukey_redescends_at_k(self):
        assert L.loss_gradient(L.LossSpec.tukey(), 4.685) == 0.0

    def test_squared(self):
        assert L.loss_gradient(L.LossSpec.squared(), 3.0) == 6.0

    def test_dloss_dprediction_is_negated(self):
        r = np.linspace(-3, 3, 7)
        np.testing.assert_array_equal(
            dloss_dprediction(L.LossSpec.squared(), r),
            -L.loss_gradient(L.LossSpec.squared(), r))

    def test_unresolved_adaptive_delta_raises(self):
        with pytest.raises(ValueError):
            L.loss_value(L.LossSpec.huber(), 1.0)


@pytest.mark.parametrize("spec, delta", [
    (L.LossSpec.squared(), None), (L.LossSpec.huber(1.5), None), (L.LossSpec.huber(), 0.75),
    (L.LossSpec.tukey(), None), (L.LossSpec.trimmed(0.25), None),
    (L.LossSpec.trimmed(0.5), None)])
def test_a_0d_residual_gives_a_numpy_scalar_of_the_elementwise_value(spec, delta):
    for r in (0.5, -3.0, 7.0, -0.0, 1e200, math.inf, math.nan):
        for f in (L.loss_value, L.loss_gradient):
            with np.errstate(over="ignore"):
                want = f(spec, np.array([r]), delta)[0]
                got = [f(spec, given, delta) for given in (r, np.float64(r), np.array(r))]
            for value in got:
                assert type(value) is np.float64, (f.__name__, r, type(value))
                assert np.array(value).tobytes() == np.array(want).tobytes(), (f.__name__, r)


class TestHuberInvariants:
    def test_gradient_bounded_by_delta(self):
        spec = L.LossSpec.huber(1.7)
        grid = np.concatenate([np.linspace(-1e6, 1e6, 20001), [-1e6, 1e6]])
        g = L.loss_gradient(spec, grid)
        assert np.abs(g).max() <= 1.7

    def test_continuity_at_knot(self):
        # crossing the knot by one ulp must not jump value or gradient
        for d in (0.3, 1.0, 4.2):
            spec = L.LossSpec.huber(d)
            just_above = np.nextafter(d, np.inf)
            assert abs(L.loss_value(spec, just_above) - L.loss_value(spec, d)) < 1e-12
            assert abs(L.loss_gradient(spec, just_above) - L.loss_gradient(spec, d)) < 1e-12
            # both branch formulas agree exactly at the knot itself
            assert 0.5 * d * d == d * d - 0.5 * d * d


class TestTukeyInvariants:
    def test_gradient_zero_beyond_k_and_loss_capped(self):
        spec = L.LossSpec.tukey()
        r = np.concatenate([np.linspace(4.685, 1e6, 5001),
                            -np.linspace(4.685, 1e6, 5001)])
        assert np.all(L.loss_gradient(spec, r) == 0.0)
        full = np.linspace(-1e6, 1e6, 10001)
        assert L.loss_value(spec, full).max() <= 1.0

    def test_continuity_at_knot(self):
        spec = L.LossSpec.tukey()
        k = spec.tukey_k
        just_below = np.nextafter(k, 0.0)
        assert abs(L.loss_value(spec, just_below) - 1.0) < 1e-12
        assert abs(L.loss_gradient(spec, just_below)) < 1e-12


class TestAdaptiveHuberDelta:
    def test_odd_count_median(self):
        assert L.adaptive_huber_delta([1.0, -2.0, 3.0]) == 2.0

    def test_all_zero_floor(self):
        assert L.adaptive_huber_delta([0.0, 0.0, 0.0, 0.0]) == 1e-8

    def test_even_count_averages_middle_pair(self):
        # order-statistics oracle: sorted |r|, average of the two middle values
        vals = [1.0, 3.0]
        s = sorted(abs(v) for v in vals)
        oracle = 0.5 * (s[0] + s[1])
        assert L.adaptive_huber_delta(vals) == oracle == 2.0

    def test_even_count_random_against_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            r = rng.standard_normal(2 * int(rng.integers(1, 30)))
            s = np.sort(np.abs(r))
            oracle = 0.5 * (s[s.size // 2 - 1] + s[s.size // 2])
            assert L.adaptive_huber_delta(r) == max(oracle, 1e-8)


class TestTrimCount:
    def test_study_example(self):
        assert L.trim_count(150, 0.1) == 135

    def test_formula_against_exact_rational_oracle(self):
        for alpha_txt in ("0.1", "0.25", "0.5"):
            alpha = float(alpha_txt)
            frac = 1 - Fraction(alpha_txt)
            for n in range(1, 1001):
                h = L.trim_count(n, alpha)
                assert h == math.ceil(frac * n)
                assert 1 <= h <= n


class TestTrimmedSelect:
    def test_direct_sort_example(self):
        res = L.trimmed_select([5.0, 1.0, 4.0, 2.0], 0.5)
        assert res.h == 2
        np.testing.assert_array_equal(res.kept_indices, [1, 3])
        assert res.aggregate == 1.5

    def test_tie_break_by_smallest_index(self):
        res = L.trimmed_select([7.0, 7.0, 7.0, 7.0], 0.5)
        np.testing.assert_array_equal(res.kept_indices, [0, 1])

    def test_kept_are_the_h_smallest(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            keys = rng.standard_normal(int(rng.integers(2, 60)))
            alpha = float(rng.choice([0.1, 0.25, 0.5]))
            res = L.trimmed_select(keys, alpha)
            assert res.kept_indices.size == res.h
            worst_kept = keys[res.kept_indices].max()
            dropped = np.setdiff1d(np.arange(keys.size), res.kept_indices)
            if dropped.size:
                assert keys[dropped].min() >= worst_kept

    def test_trimming_insensitivity_to_inflating_the_tail(self):
        # blowing up values already ranked in the trimmed tail changes nothing
        rng = np.random.default_rng(11)
        keys = rng.uniform(0, 1, 20)
        res = L.trimmed_select(keys, 0.5)
        tail = np.setdiff1d(np.arange(20), res.kept_indices)
        inflated = keys.copy()
        inflated[tail] = 1e12 * (1 + rng.uniform(size=tail.size))
        res2 = L.trimmed_select(inflated, 0.5)
        np.testing.assert_array_equal(res.kept_indices, res2.kept_indices)
        assert res.aggregate == res2.aggregate


def _per_instance_setup(seed, n=8):
    rng = np.random.default_rng(seed)
    arch = Architecture(3, (4,), Activation.LOGISTIC)
    net = init_weights(arch, rng)
    X = rng.standard_normal((n, 3))
    y = rng.standard_normal(n)
    r = y - forward_batch(net, X).predictions
    return net, X, y, r


class TestAggregateGradients:
    def test_single_instance_passthrough(self):
        net, X, y, r = _per_instance_setup(1, n=1)
        spec = L.LossSpec.squared()
        grads = backprop(net, X, dloss_dprediction(spec, r))
        agg = aggregate_gradients(grads, L.loss_value(spec, r), spec)
        np.testing.assert_array_equal(agg, grads[0])

    def test_mean_over_instances_for_untrimmed(self):
        net, X, y, r = _per_instance_setup(2)
        spec = L.LossSpec.squared()
        grads = backprop(net, X, dloss_dprediction(spec, r))
        agg = aggregate_gradients(grads, L.loss_value(spec, r), spec)
        oracle = np.mean(grads, axis=0)
        np.testing.assert_allclose(agg, oracle, rtol=1e-15)

    def test_trimmed_equals_clean_half_alone(self):
        # outliers dominate the trimmed tail, so the aggregate must be
        # exactly the clean half's aggregate (brute-force oracle)
        net, X, y, r = _per_instance_setup(3)
        y = y.copy()
        y[:4] += 1e6  # four wild responses out of eight
        r = y - forward_batch(net, X).predictions
        spec = L.LossSpec.trimmed(0.5)
        losses = L.loss_value(spec, r)
        grads = backprop(net, X, dloss_dprediction(spec, r))
        agg = aggregate_gradients(grads, losses, spec)
        clean = list(range(4, 8))
        oracle = np.mean(grads[clean], axis=0)
        np.testing.assert_allclose(agg, oracle, rtol=1e-14)

    def test_loss_rank_equals_gradient_magnitude_rank_for_squared(self):
        # dual-ranking oracle over 1000 random residual vectors
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            r = rng.standard_normal(n) * float(rng.uniform(0.1, 100))
            alpha = float(rng.choice([0.1, 0.25, 0.5]))
            by_loss = L.trimmed_select(r * r, alpha)
            by_grad = L.trimmed_select(np.abs(2.0 * r), alpha)
            assert set(by_loss.kept_indices) == set(by_grad.kept_indices)
