import dataclasses
import math
import re

import numpy as np
import pytest

from robustnn import experiment as E
from robustnn.contamination import ContaminationKind, ContaminationSpec
from robustnn.datagen import DataGenSpec, Structure
from robustnn.losses import LossKind, LossSpec
from robustnn.net import Activation, Architecture
from robustnn.optimizer import OptimizerSpec, Rule


def small_config(loss=None, kind=ContaminationKind.NONE, r=0.0, mu_out=10.0,
                 stepmax=4000, replications=2, base_seed=11, standardize=True,
                 activation=Activation.LOGISTIC, n_train=40, p=3):
    return E.ExperimentConfig(
        data=DataGenSpec(p=p, n_train=n_train, n_test=16, structure=Structure.LIN),
        contamination=ContaminationSpec(kind, r=r, mu_out=mu_out),
        activation=activation,
        loss=loss if loss is not None else LossSpec.squared(),
        standardize=standardize,
        depth=E.Depth.SHALLOW,
        replications=replications,
        base_seed=base_seed,
        optimizer=OptimizerSpec(stepmax=stepmax),
    )


CONFIG_ARGS = dict(data=DataGenSpec(p=3, n_train=10, n_test=5),
                   contamination=ContaminationSpec(ContaminationKind.NONE),
                   loss=LossSpec.squared(), standardize=True, replications=1, base_seed=1)


class TestSpecEnumFields:
    # (spec, its other arguments, enum field, a value string, its member, a typo)
    CASES = [
        (OptimizerSpec, {}, "rule", "sign-gd", Rule.SIGN_GD, "sign_gd"),
        (LossSpec, {}, "kind", "tukey", LossKind.TUKEY, "absolute"),
        (Architecture, {"input_dim": 2, "hidden_sizes": (3,)}, "hidden_activation",
         "softplus", Activation.SOFTPLUS, "relu"),
        (DataGenSpec, {"p": 3, "n_train": 10, "n_test": 5}, "structure", "trig",
         Structure.TRIG, "cubic"),
        (ContaminationSpec, {}, "kind", "y-convex", ContaminationKind.Y_CONVEX, "bogus"),
        (E.ExperimentConfig, {**CONFIG_ARGS, "depth": E.Depth.DEEP}, "activation", "softplus",
         Activation.SOFTPLUS, "relu"),
        (E.ExperimentConfig, {**CONFIG_ARGS, "activation": Activation.LOGISTIC}, "depth",
         "deep", E.Depth.DEEP, "medium"),
    ]

    @pytest.mark.parametrize("spec,args,field,name,member,typo", CASES)
    def test_a_member_or_its_string_is_taken_and_nothing_else(self, spec, args, field, name,
                                                             member, typo):
        assert getattr(spec(**args, **{field: name}), field) is member
        assert getattr(spec(**args, **{field: member}), field) is member
        for value in (typo, name.upper(), 3, None):
            with pytest.raises(ValueError, match=f"^{field} must be one of {{"):
                spec(**args, **{field: value})

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_the_activation_is_logistic_or_softplus(self, activation):
        with pytest.raises(ValueError, match=re.escape(
                f"activation must be one of {{logistic, softplus}}, got {activation!r}")):
            E.ExperimentConfig(**CONFIG_ARGS, activation=activation, depth="shallow")


# every int field of the spec dataclasses, found by its annotation, with
# valid values for the other fields
INT_FIELDS = [(spec, args, f.name) for spec, args in [
    (DataGenSpec, {"p": 3, "n_train": 10, "n_test": 5}),
    (ContaminationSpec, {"kind": "none"}),
    (LossSpec, {"kind": "squared"}),
    (OptimizerSpec, {}),
    (Architecture, {"input_dim": 2, "hidden_sizes": (3,)}),
    (E.ExperimentConfig, {**CONFIG_ARGS, "activation": "logistic", "depth": "shallow"}),
] for f in dataclasses.fields(spec) if f.type in ("int", int)]


class TestSpecIntegerFields:
    def test_the_fields_are_found(self):
        assert [field for _, _, field in INT_FIELDS] == [
            "p", "n_train", "n_test", "stepmax", "input_dim", "replications", "base_seed"]

    @pytest.mark.parametrize("spec,args,field", INT_FIELDS)
    def test_an_integer_or_a_numpy_integer_is_taken_and_nothing_else(self, spec, args, field):
        value = getattr(spec(**{**args, field: np.int64(3)}), field)
        assert type(value) is int and value == 3
        for bad in (2.5, True, 3.0, "3", None):
            with pytest.raises(ValueError,
                               match=f"^{field} must be an integer, got {re.escape(repr(bad))}$"):
                spec(**{**args, field: bad})


class TestConfigIds:
    def test_config_id_is_scenario_plus_loss(self):
        cfg = small_config(loss=LossSpec.trimmed(0.25))
        assert cfg.config_id == cfg.scenario_id + "_trim25"

    def test_loss_tokens(self):
        assert LossSpec.squared().token == "squared"
        assert LossSpec.huber().token == "huber"
        assert LossSpec.tukey().token == "tukey"
        assert LossSpec.trimmed(0.1).token == "trim10"
        assert LossSpec.trimmed(0.5).token == "trim50"

    @pytest.mark.parametrize("field", [dict(diverge_norm=math.nan),
                                       dict(diverge_norm=0.0), dict(replications=0),
                                       dict(activation="identity")])
    def test_invalid_values_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{next(iter(field))} "):
            dataclasses.replace(small_config(), **field)

    def test_a_configuration_computes_its_identity_once(self):
        cfg = small_config(loss=LossSpec.huber(), kind=ContaminationKind.Y_CONVEX, r=0.25)
        for name in ("config_id", "scenario_key", "cell"):
            assert getattr(cfg, name) is getattr(cfg, name)
        assert cfg.architecture() is cfg.architecture()
        assert dataclasses.asdict(cfg.cell) == dict(
            config_id=cfg.config_id, structure="lin", n=40, p=3, activation="logistic",
            depth="shallow", standardized=True, cont_kind="y-convex", r=0.25, mu_out=10.0,
            loss="huber")
        assert cfg.init_seed(1) == E.derive_seed("init", 11, cfg.config_id, 1)
        # what is kept leaves equality and hashing to the fields
        fresh = small_config(loss=LossSpec.huber(), kind=ContaminationKind.Y_CONVEX, r=0.25)
        assert fresh == cfg and hash(fresh) == hash(cfg)
        # replace computes it anew from the new values
        other = dataclasses.replace(cfg, base_seed=12, loss=LossSpec.tukey())
        assert other.scenario_key == (12, *cfg.scenario_key[1:])
        assert other.cell.loss == "tukey" and other.config_id.endswith("_tukey")
        assert other.init_seed(1) == E.derive_seed("init", 12, other.config_id, 1)

    def test_depth_controls_architecture_and_stepmax(self):
        cfg = small_config()
        assert cfg.architecture().hidden_sizes == (10, 10)
        deep = dataclasses.replace(cfg, depth=E.Depth.DEEP, optimizer=None)
        assert deep.architecture().hidden_sizes == (5,) * 10
        assert deep.resolved_optimizer().stepmax == 250_000
        shallow = dataclasses.replace(cfg, optimizer=None)
        assert shallow.resolved_optimizer().stepmax == 100_000


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert E.derive_seed("a", 1, "b") == E.derive_seed("a", 1, "b")
        assert E.derive_seed("a", 1, "b") != E.derive_seed("a", 2, "b")

    def test_data_stream_is_shared_across_losses(self):
        a = small_config(loss=LossSpec.squared())
        b = small_config(loss=LossSpec.huber())
        assert E._data_key(a.data) == E._data_key(b.data)
        assert E._cont_key(a.contamination) == E._cont_key(b.contamination)
        # network init still differs per configuration
        assert (E.derive_seed("init", a.base_seed, a.config_id, 0)
                != E.derive_seed("init", b.base_seed, b.config_id, 0))


class TestRecord:
    def test_deterministic_record(self):
        cfg = small_config()
        assert E.run_sweep([cfg]) == E.run_sweep([cfg])

    def test_converged_run_on_easy_data(self):
        # closed-form bound: a useful fit beats the constant predictor,
        # whose loss is the variance of the standardized test responses
        cfg = dataclasses.replace(
            small_config(stepmax=100_000, replications=1),
            data=DataGenSpec(p=3, n_train=80, n_test=40, snr=50.0,
                             structure=Structure.LIN))
        rec, = E.run_sweep([cfg])
        assert rec.converged and rec.status == "converged"
        assert rec.test_loss is not None and math.isfinite(rec.test_loss)
        from robustnn.datagen import fit_standardizer, generate_dataset
        rng = np.random.default_rng(E.derive_seed("data", cfg.base_seed,
                                                  E._data_key(cfg.data), 0))
        train_ds, test_ds = generate_dataset(cfg.data, rng)
        t = fit_standardizer(train_ds.Y)
        bound = float(np.var(t.apply(test_ds.Y)))
        assert rec.test_loss <= bound

    def test_nonconverged_run_has_no_test_loss(self):
        rec, = E.run_sweep([small_config(stepmax=2, replications=1)])
        assert rec.status == "step-limit"
        assert rec.test_loss is None
        assert not rec.test_loss_finite
        assert rec.epochs == 2

    def test_shared_data_same_initial_contamination_across_losses(self):
        # records of different losses in one scenario share seeds for data
        # and contamination, so their per-rep seeds only differ via init
        records = E.run_sweep([small_config(loss=LossSpec.squared()),
                               small_config(loss=LossSpec.huber())])
        a, b = [rec for rec in records if rec.rep == 1]
        assert a.config_id != b.config_id
        assert a.seed != b.seed

    @pytest.mark.parametrize("rep", [1, -1])
    def test_rep_bound_checked(self, rep):
        with pytest.raises(ValueError, match=r"^rep must lie in \[0, 1\)"):
            E.prepare_run(small_config(replications=1), rep)

    def test_modified_test_set_is_recorded_as_error(self, monkeypatch):
        # the check is an explicit raise, so it also holds under python -O
        prepare_scenario, prepared = E.prepare_scenario, []

        def recording_prepare_scenario(cfg, rep):
            prepared.append(prepare_scenario(cfg, rep))
            return prepared[-1]

        class TamperingKernel(E.BatchKernel):
            """Writes into the run's test set while predicting it."""

            def forward(self):
                prepared[-1].test.X[0, 0] += 1.0
                return super().forward()

        monkeypatch.setattr(E, "prepare_scenario", recording_prepare_scenario)
        monkeypatch.setattr(E, "BatchKernel", TamperingKernel)
        rec, = E.run_sweep([small_config(stepmax=100_000, replications=1)])
        assert rec.status == E.STATUS_ERROR
        assert not rec.converged and rec.test_loss is None
        assert rec.error == "HeldOutSetModifiedError: test set was modified during the run"

    def test_y_iterative_runs_through(self):
        cfg = small_config(kind=ContaminationKind.Y_ITERATIVE, r=0.5,
                           mu_out=1.0, stepmax=50)
        for rec in E.run_sweep([cfg]):
            assert rec.status in ("converged", "step-limit", "diverged")
            assert rec.epochs <= 50


class TestRunSweep:
    def test_empty_config_list(self):
        assert E.run_sweep([]) == []

    def test_a_repeated_configuration_is_rejected(self):
        # its records would count twice in its cell's summary
        cfg = small_config(stepmax=50)
        with pytest.raises(ValueError, match=f"^configuration id '{cfg.config_id}' occurs twice"):
            E.run_sweep([cfg, small_config(loss=LossSpec.huber(), stepmax=50), cfg])

    def test_record_count(self):
        cfgs = [small_config(loss=LossSpec.squared(), replications=3),
                small_config(loss=LossSpec.huber(), replications=3)]
        records = E.run_sweep(cfgs)
        assert len(records) == 6

    def test_parallelism_does_not_change_results(self):
        cfgs = [small_config(loss=LossSpec.squared(), replications=2),
                small_config(loss=LossSpec.trimmed(0.5), replications=2)]
        serial = E.run_sweep(cfgs, parallelism=1)
        parallel = E.run_sweep(cfgs, parallelism=2)
        assert serial == parallel

    def test_records_sorted_by_config_and_rep(self):
        cfgs = [small_config(loss=LossSpec.tukey(), replications=2),
                small_config(loss=LossSpec.huber(), replications=2)]
        records = E.run_sweep(cfgs)
        keys = [(rec.config_id, rec.rep) for rec in records]
        assert keys == sorted(keys)

    def test_epochs_never_exceed_stepmax(self):
        cfgs = [small_config(replications=2, stepmax=300)]
        for rec in E.run_sweep(cfgs):
            assert rec.epochs <= 300

    def test_failures_are_recorded_not_raised(self, monkeypatch):
        cfg = small_config(replications=1)

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(E, "generate_dataset", boom)
        records = E.run_sweep([cfg])
        assert len(records) == 1
        assert records[0].status == E.STATUS_ERROR
        assert "synthetic failure" in records[0].error
        assert not records[0].converged


def fake_record(config_id="cfg", rep=0, converged=True, test_loss=0.5,
                epochs=10, loss="squared"):
    return E.RunRecord(
        config_id=config_id, structure="lin", n=40, p=3, activation="logistic",
        depth="shallow", standardized=True, cont_kind="none", r=0.0,
        mu_out=10.0, loss=loss, rep=rep, seed=1, converged=converged,
        status="converged" if converged else "step-limit", epochs=epochs,
        test_loss=test_loss if converged else None, sup_weight_norm=5.0,
        breakdown=False)


class TestSummarize:
    def test_all_converged_equal_losses(self):
        records = [fake_record(rep=i, test_loss=0.25) for i in range(4)]
        (cell,) = E.summarize(records)
        assert cell.n_converged == 4
        assert cell.mean_finite_test_loss == 0.25
        assert cell.breakdown_rate_surrogate == 0.0
        assert cell.n_inf_losses == 0

    def test_mixed_finite_inf_nonconverged(self):
        # V=4: two finite, one infinite, one never converged
        records = [
            fake_record(rep=0, test_loss=1.0, epochs=8),
            fake_record(rep=1, test_loss=3.0, epochs=12),
            fake_record(rep=2, test_loss=math.inf, epochs=20),
            fake_record(rep=3, converged=False, epochs=100),
        ]
        (cell,) = E.summarize(records)
        assert cell.replications == 4
        assert cell.n_converged == 3
        assert cell.n_inf_losses == 1
        assert cell.mean_finite_test_loss == 2.0
        assert cell.mean_epochs_converged == pytest.approx((8 + 12 + 20) / 3)
        assert cell.breakdown_rate_surrogate == 0.25

    def test_zero_converged_cell(self):
        records = [fake_record(rep=i, converged=False) for i in range(3)]
        (cell,) = E.summarize(records)
        assert cell.n_converged == 0
        assert cell.mean_finite_test_loss is None
        assert cell.mean_epochs_converged is None
        assert cell.breakdown_rate_surrogate == 1.0

    def test_grouping_and_order_independence(self):
        records = [fake_record("b", rep=1), fake_record("a", rep=0),
                   fake_record("b", rep=0), fake_record("a", rep=1)]
        cells = E.summarize(records)
        assert [c.config_id for c in cells] == ["a", "b"]
        shuffled = E.summarize(records[::-1])
        assert cells == shuffled
