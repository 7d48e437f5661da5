import math

import numpy as np
import pytest

from robustnn.datagen import (
    POLY_SINGULARITY_FLOOR,
    DataGenSpec,
    Dataset,
    DegenerateStandardizationError,
    StandardizationTransform,
    Structure,
    dataset_to_csv,
    fit_standardizer,
    generate_dataset,
    noiseless_signal,
)


class TestNoiselessSignal:
    def test_lin_is_identity_on_the_index(self):
        xb = np.array([-2.0, 0.0, 3.5])
        np.testing.assert_array_equal(noiseless_signal(Structure.LIN, xb), xb)

    def test_trig_removable_singularity(self):
        assert noiseless_signal(Structure.TRIG, np.array([0.0]))[0] == 1.0

    def test_trig_matches_sin_ratio(self):
        xb = np.array([-2.0, 0.5, 10.0])
        np.testing.assert_allclose(noiseless_signal(Structure.TRIG, xb),
                                   np.sin(np.abs(xb)) / np.abs(xb))

    def test_poly_floor_guards_singularity(self):
        val = noiseless_signal(Structure.POLY, np.array([0.0]))[0]
        assert val == POLY_SINGULARITY_FLOOR ** (-2.0 / 3.0)
        assert math.isfinite(val)

    def test_poly_power_law(self):
        xb = np.array([2.0, -8.0])
        np.testing.assert_allclose(noiseless_signal(Structure.POLY, xb),
                                   np.abs(xb) ** (-2.0 / 3.0))


def replayed_beta(spec: DataGenSpec, seed: int) -> np.ndarray:
    """The coefficient generate_dataset draws from default_rng(seed), by the
    documented draw order: X_train, then X_test, then beta."""
    rng = np.random.default_rng(seed)
    rng.normal(spec.mu, 1.0, size=(spec.n_train, spec.p))
    rng.normal(spec.mu, 1.0, size=(spec.n_test, spec.p))
    return rng.standard_normal(spec.p)


class TestGenerateDataset:
    def test_shapes_and_shared_beta(self):
        spec = DataGenSpec(p=5, n_train=150, n_test=50)
        train_ds, test_ds = generate_dataset(spec, np.random.default_rng(1))
        assert train_ds.X.shape == (150, 5) and train_ds.Y.shape == (150,)
        assert test_ds.X.shape == (50, 5) and test_ds.Y.shape == (50,)
        # without noise, both sets' responses are their index under one beta
        spec = DataGenSpec(p=5, n_train=150, n_test=50, snr=math.inf)
        beta = replayed_beta(spec, 1)
        for ds in generate_dataset(spec, np.random.default_rng(1)):
            np.testing.assert_array_equal(ds.Y, ds.X @ beta)

    def test_deterministic_by_seed(self):
        spec = DataGenSpec(p=3, n_train=20, n_test=10, structure=Structure.POLY)
        a = generate_dataset(spec, np.random.default_rng(7))
        b = generate_dataset(spec, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0].Y, b[0].Y)
        np.testing.assert_array_equal(a[1].X, b[1].X)

    def test_infinite_snr_forces_zero_noise(self):
        spec = DataGenSpec(p=4, n_train=30, n_test=10, snr=math.inf,
                           structure=Structure.LIN)
        train_ds, _ = generate_dataset(spec, np.random.default_rng(2))
        np.testing.assert_array_equal(train_ds.Y, train_ds.X @ replayed_beta(spec, 2))

    def test_replay_oracle_reproduces_construction(self):
        # independent replay of the documented draw order; also verifies the
        # noise scale is the combined signal variance divided by the SNR
        spec = DataGenSpec(p=4, n_train=40, n_test=20, mu=0.5, snr=2.0,
                           structure=Structure.TRIG)
        train_ds, test_ds = generate_dataset(spec, np.random.default_rng(33))

        rng = np.random.default_rng(33)
        X_train = rng.normal(0.5, 1.0, size=(40, 4))
        X_test = rng.normal(0.5, 1.0, size=(20, 4))
        beta = rng.standard_normal(4)
        f_train = noiseless_signal(Structure.TRIG, X_train @ beta)
        f_test = noiseless_signal(Structure.TRIG, X_test @ beta)
        var = np.var(np.concatenate([f_train, f_test]), ddof=1)
        sigma = math.sqrt(var / 2.0)
        y_train = f_train + sigma * rng.standard_normal(40)
        y_test = f_test + sigma * rng.standard_normal(20)

        np.testing.assert_array_equal(train_ds.X, X_train)
        np.testing.assert_array_equal(train_ds.Y, y_train)
        np.testing.assert_array_equal(test_ds.Y, y_test)
        assert var / sigma**2 == pytest.approx(2.0, abs=1e-9)

    def test_test_noise_is_independent_of_train_noise(self):
        spec = DataGenSpec(p=2, n_train=30, n_test=30)
        train_ds, test_ds = generate_dataset(spec, np.random.default_rng(9))
        beta = replayed_beta(spec, 9)
        train_noise = train_ds.Y - train_ds.X @ beta
        test_noise = test_ds.Y - test_ds.X @ beta
        assert not np.array_equal(train_noise, test_noise)

    def test_all_entries_finite(self):
        for structure in Structure:
            spec = DataGenSpec(p=5, n_train=100, n_test=40, structure=structure)
            train_ds, test_ds = generate_dataset(spec, np.random.default_rng(4))
            for ds in (train_ds, test_ds):
                assert np.isfinite(ds.X).all() and np.isfinite(ds.Y).all()


class TestStandardizer:
    def test_fit_stores_extremes(self):
        t = fit_standardizer([2.0, 4.0, 6.0])
        assert (t.y_min, t.y_max) == (2.0, 6.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateStandardizationError):
            fit_standardizer([5.0, 5.0])

    def test_outlier_dominates_the_range(self):
        t = fit_standardizer([0.5, -1.2, 0.3, 1000.0])
        assert t.y_max == 1000.0

    def test_apply_maps_extremes_to_unit_interval(self):
        t = StandardizationTransform(2.0, 6.0)
        np.testing.assert_array_equal(t.apply([2.0, 4.0, 6.0]),
                                      [0.0, 0.5, 1.0])

    def test_unit_transform_is_identity(self):
        t = StandardizationTransform(0.0, 1.0)
        np.testing.assert_array_equal(t.apply([0.25]), [0.25])

    def test_training_responses_land_in_unit_interval(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(100) * 7 + 3
        t = fit_standardizer(y)
        s = t.apply(y)
        assert s.min() == 0.0 and s.max() == 1.0
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_values_outside_training_range_leave_unit_interval(self):
        t = StandardizationTransform(0.0, 2.0)
        out = t.apply([-1.0, 3.0])
        assert out[0] < 0.0 and out[1] > 1.0


class TestCsvExport:
    def test_header_names(self, tmp_path):
        data = Dataset(np.zeros((2, 2)), np.zeros(2))
        path = tmp_path / "d.csv"
        dataset_to_csv(data, path)
        assert path.read_text().splitlines()[0] == "x1,x2,y"


class TestSpecValidation:
    def test_positive_dimensions(self):
        with pytest.raises(ValueError):
            DataGenSpec(p=0, n_train=10, n_test=5)
        with pytest.raises(ValueError):
            DataGenSpec(p=2, n_train=10, n_test=0)

    def test_positive_snr(self):
        with pytest.raises(ValueError):
            DataGenSpec(p=2, n_train=10, n_test=5, snr=0.0)
