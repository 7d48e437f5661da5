import math
from fractions import Fraction

import numpy as np
import pytest

from oracle import (aggregate_gradients, backprop, dloss_dprediction, iterative_attacker_step,
                    step)
from robustnn import losses as L
from robustnn.contamination import (
    ContaminationKind,
    ContaminationSpec,
    apply_contamination,
    contamination_count,
    make_iterative_attack_hook,
)
from robustnn.datagen import DataGenSpec, Dataset, Structure, generate_dataset
from robustnn.net import Activation, Architecture, forward_batch, init_weights
from robustnn.optimizer import OptimizerSpec, Rule


def make_data(seed, n=150, p=5):
    spec = DataGenSpec(p=p, n_train=n, n_test=10, structure=Structure.LIN)
    train_ds, _ = generate_dataset(spec, np.random.default_rng(seed))
    return train_ds


class TestContaminationCount:
    def test_decimal_radii_snap_to_exact_multiples(self):
        assert contamination_count(0.1, 150) == 15
        assert contamination_count(0.25, 150) == 38  # 37.5 rounds up
        assert contamination_count(0.4, 150) == 60
        assert contamination_count(0.1, 150 * 6) == 90

    def test_against_exact_rational_oracle(self):
        for r_txt in ("0.1", "0.25", "0.4"):
            r = float(r_txt)
            frac = Fraction(r_txt)
            for n in (150, 500, 1000, 150 * 6, 500 * 21, 1000 * 51, 7, 33):
                assert contamination_count(r, n) == math.ceil(frac * n)

    def test_extremes(self):
        assert contamination_count(0.0, 150) == 0
        assert contamination_count(1.0, 150) == 150


class TestContaminateY:
    def test_exact_replacement_count(self):
        data = make_data(1)
        spec = ContaminationSpec(ContaminationKind.Y_CONVEX, r=0.1, mu_out=100.0)
        out = apply_contamination(data, spec, np.random.default_rng(2))
        assert int(np.sum(out.Y != data.Y)) == 15
        np.testing.assert_array_equal(out.X, data.X)

    def test_zero_radius_is_identity(self):
        data = make_data(3)
        spec = ContaminationSpec(ContaminationKind.Y_CONVEX, r=0.0, mu_out=100.0)
        out = apply_contamination(data, spec, np.random.default_rng(4))
        np.testing.assert_array_equal(out.Y, data.Y)

    def test_full_radius_replaces_everything(self):
        data = make_data(5)
        spec = ContaminationSpec(ContaminationKind.Y_CONVEX, r=1.0, mu_out=100.0)
        out = apply_contamination(data, spec, np.random.default_rng(6))
        assert np.all(out.Y != data.Y)

    def test_original_untouched(self):
        data = make_data(7)
        snapshot = data.Y.copy()
        spec = ContaminationSpec(ContaminationKind.Y_CONVEX, r=0.5, mu_out=10.0)
        apply_contamination(data, spec, np.random.default_rng(8))
        np.testing.assert_array_equal(data.Y, snapshot)

    def test_replacements_center_on_mu_out(self):
        data = make_data(9, n=1000)
        spec = ContaminationSpec(ContaminationKind.Y_CONVEX, r=1.0, mu_out=1000.0)
        out = apply_contamination(data, spec, np.random.default_rng(10))
        assert abs(out.Y.mean() - 1000.0) < 0.5


class TestContaminateXCasewise:
    def test_exact_row_count(self):
        data = make_data(11, n=500, p=20)
        spec = ContaminationSpec(ContaminationKind.X_CASEWISE, r=0.25, mu_out=10.0)
        out = apply_contamination(data, spec, np.random.default_rng(12))
        changed_rows = np.any(out.X != data.X, axis=1)
        assert int(changed_rows.sum()) == 125
        # a replaced row is replaced wholesale
        assert np.all(np.all(out.X[changed_rows] != data.X[changed_rows], axis=1))

    def test_responses_untouched(self):
        data = make_data(13)
        spec = ContaminationSpec(ContaminationKind.X_CASEWISE, r=0.4, mu_out=1000.0)
        out = apply_contamination(data, spec, np.random.default_rng(14))
        np.testing.assert_array_equal(out.Y, data.Y)

    def test_zero_radius_is_identity(self):
        data = make_data(15)
        spec = ContaminationSpec(ContaminationKind.X_CASEWISE, r=0.0, mu_out=10.0)
        out = apply_contamination(data, spec, np.random.default_rng(16))
        np.testing.assert_array_equal(out.X, data.X)


class TestContaminateCellwise:
    def test_exact_cell_count_and_untouched_rest(self):
        data = make_data(17)  # n=150, p=5 -> 90 of the 900 cells
        spec = ContaminationSpec(ContaminationKind.XY_CELLWISE, r=0.1, mu_out=100.0)
        out = apply_contamination(data, spec, np.random.default_rng(18))
        before = np.column_stack([data.X, data.Y])
        after = np.column_stack([out.X, out.Y])
        changed = before != after
        assert int(changed.sum()) == 90
        np.testing.assert_array_equal(before[~changed], after[~changed])

    def test_zero_radius_is_identity(self):
        data = make_data(19)
        spec = ContaminationSpec(ContaminationKind.XY_CELLWISE, r=0.0, mu_out=100.0)
        out = apply_contamination(data, spec, np.random.default_rng(20))
        np.testing.assert_array_equal(out.X, data.X)
        np.testing.assert_array_equal(out.Y, data.Y)

    def test_study_grid_cell_counts(self):
        for (n, p) in ((150, 5), (500, 20), (1000, 50)):
            for r_txt in ("0.1", "0.25", "0.4"):
                data = Dataset(np.zeros((n, p)), np.zeros(n))
                spec = ContaminationSpec(ContaminationKind.XY_CELLWISE,
                                         r=float(r_txt), mu_out=10.0)
                out = apply_contamination(data, spec, np.random.default_rng(n + p))
                changed = int((np.column_stack([out.X, out.Y]) != 0.0).sum())
                assert changed == math.ceil(Fraction(r_txt) * n * (p + 1))


class TestDispatchAndDeterminism:
    def test_none_kind_returns_untouched_copy(self):
        data = make_data(21)
        spec = ContaminationSpec(ContaminationKind.NONE)
        out = apply_contamination(data, spec, np.random.default_rng(22))
        assert out is not data
        np.testing.assert_array_equal(out.X, data.X)
        np.testing.assert_array_equal(out.Y, data.Y)

    # n=150, p=5, r=0.25: the units picked from, how many are picked and the
    # shape of the normal draw; none and y-iterative draw nothing
    DRAWS = {"none": None, "y-iterative": None, "y-convex": (150, 38, 38),
             "x-casewise": (150, 38, (38, 5)), "xy-cellwise": (900, 225, 225)}

    @pytest.mark.parametrize("kind", list(ContaminationKind), ids=lambda kind: kind.value)
    def test_same_seed_same_result(self, kind):
        data = make_data(23)
        spec = ContaminationSpec(kind, r=0.25, mu_out=10.0, out_sd=2.0)
        rng = np.random.default_rng(24)
        a = apply_contamination(data, spec, rng)
        b = apply_contamination(data, spec, np.random.default_rng(24))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)
        # the documented draws and no others: the golden digests and the
        # attacker's rows, drawn next from the same stream, depend on it
        fresh = np.random.default_rng(24)
        values = np.empty(0)
        if self.DRAWS[kind.value] is not None:
            units, m, size = self.DRAWS[kind.value]
            fresh.choice(units, size=m, replace=False)
            values = fresh.normal(10.0, 2.0, size=size)
        assert rng.bit_generator.state == fresh.bit_generator.state
        before = np.column_stack([data.X, data.Y])
        after = np.column_stack([a.X, a.Y])
        np.testing.assert_array_equal(np.sort(after[before != after]), np.sort(values.ravel()))

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            ContaminationSpec(ContaminationKind.Y_CONVEX, r=1.5)

    @pytest.mark.parametrize("field", [dict(r=math.nan), dict(out_sd=math.nan),
                                       dict(out_sd=0.0)])
    def test_nan_and_out_of_range_values_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{next(iter(field))} "):
            ContaminationSpec(ContaminationKind.Y_CONVEX, **field)

    @pytest.mark.parametrize("kind", [ContaminationKind.Y_ITERATIVE, "y-iterative"])
    @pytest.mark.parametrize("mu_out", [0.0, -0.0, -2.0, -1.0, math.nan])
    def test_the_attacker_bound_must_be_positive(self, kind, mu_out):
        with pytest.raises(ValueError, match="^mu_out must be positive"):
            ContaminationSpec(kind, r=0.5, mu_out=mu_out)
        # elsewhere mu_out is the outliers' mean, which may be zero or negative
        if not math.isnan(mu_out):
            ContaminationSpec(ContaminationKind.Y_CONVEX, r=0.5, mu_out=mu_out)


class TestIterativeAttackerStep:
    def test_equal_losses_example(self):
        # all current losses 4, predictions 0, eps 10: the bound is
        # 0.99 * sqrt(4) = 1.98 and the resulting loss 3.9204 stays below 4
        preds = np.zeros(6)
        losses = np.full(6, 4.0)
        new = iterative_attacker_step(preds, losses, [0, 1, 2], eps=10.0)
        np.testing.assert_allclose(new, 1.98)
        assert np.all((new - preds[:3]) ** 2 == pytest.approx(3.9204))
        assert np.all((new - preds[:3]) ** 2 < 4.0)

    def test_small_eps_branch(self):
        preds = np.array([1.0, 2.0, 3.0, 4.0])
        losses = np.full(4, 4.0)
        new = iterative_attacker_step(preds, losses, [1, 3], eps=0.001)
        np.testing.assert_allclose(new, preds[[1, 3]] + 0.001)

    def test_attacked_responses_exceed_predictions(self):
        rng = np.random.default_rng(25)
        preds = rng.standard_normal(10)
        losses = rng.uniform(0.5, 2.0, 10)
        attacked = [0, 2, 4, 6, 8]
        new = iterative_attacker_step(preds, losses, attacked, eps=1.0)
        assert np.all(new > preds[attacked])

    def test_degenerate_zero_losses_floor(self):
        preds = np.zeros(4)
        losses = np.zeros(4)
        new = iterative_attacker_step(preds, losses, [0, 1], eps=1.0)
        np.testing.assert_array_equal(new, 1e-12)

    @pytest.mark.parametrize("n", [1, 6, 7, 1000])
    def test_hook_sets_what_the_step_gives(self, n):
        # the hook skips the step's sort of the (already sorted) indices;
        # its responses must not change
        rng = np.random.default_rng(n)
        attacked, hook = make_iterative_attack_hook(n, rng, eps=0.5)
        for losses in (rng.uniform(0.0, 2.0, n), np.zeros(n), np.round(rng.uniform(0, 2, n))):
            preds, y = rng.standard_normal((2, n))
            want = y.copy()
            want[attacked] = iterative_attacker_step(preds, losses, list(attacked), eps=0.5)
            got = hook(1, preds, losses, y)
            assert got is not y and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_the_hook_is_not_built_without_a_positive_bound(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            make_iterative_attack_hook(6, np.random.default_rng(0), eps=eps)

    def test_step_sorts_the_given_indices(self):
        preds = np.arange(6.0)
        losses = np.full(6, 4.0)
        np.testing.assert_array_equal(iterative_attacker_step(preds, losses, [4, 1, 2], 0.5),
                                      [1.5, 2.5, 4.5])

    def test_chosen_indices_are_half_of_n(self):
        idx, _ = make_iterative_attack_hook(10, np.random.default_rng(1), eps=1.0)
        assert idx.size == 5
        assert np.unique(idx).size == 5


class TestAttackerProgress:
    def test_output_weight_sum_nondecreasing_once_attack_dominates(self):
        # toy net, half trimming, sign rule: after the attacker's instances
        # occupy the whole kept set, every epoch pushes the output layer up
        rng = np.random.default_rng(31)
        n = 6
        X = rng.standard_normal((n, 1)) * 0.5
        y = np.full(n, 8.0)  # clean losses stay large throughout the horizon
        arch = Architecture(1, (2,), Activation.LOGISTIC, Activation.IDENTITY)
        net = init_weights(arch, rng)
        spec = OptimizerSpec(rule=Rule.SIGN_GD, eta=0.01)
        loss_spec = L.LossSpec.trimmed(0.5)
        # a small cap keeps the attacked losses far below the clean ones, so
        # the captured kept set cannot flicker back
        attacked, hook = make_iterative_attack_hook(n, rng, eps=0.05)

        def out_layer_sum(network):
            return float(network.intercepts[-1].sum() + network.weights[-1].sum())

        sums = []
        dominated = []
        state = None
        for _ in range(200):
            trace = forward_batch(net, X)
            r = y - trace.predictions
            per_loss = L.loss_value(loss_spec, r)
            sel = L.trimmed_select(per_loss, 0.5)
            dominated.append(set(sel.kept_indices) <= set(attacked))
            grads = backprop(net, X, dloss_dprediction(loss_spec, r))
            agg = aggregate_gradients(grads, per_loss, loss_spec)
            sums.append(out_layer_sum(net))
            net, state = step(spec, state, net, agg)
            y = hook(0, trace.predictions, per_loss, y)
        sums.append(out_layer_sum(net))

        assert any(dominated), "attack never captured the kept set"
        first = dominated.index(True)
        assert all(dominated[first:])
        tail = sums[first:]
        assert all(b >= a for a, b in zip(tail, tail[1:]))
        assert tail[-1] > tail[0]
