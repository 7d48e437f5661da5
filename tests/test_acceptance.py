"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The empirical criteria
(3-6) retrain networks at the study's epoch caps; criteria 3, 5 and 6
dominate the runtime, while criterion 4's runs soon repeat their state and
skip the rest of their epochs. The whole module finishes in a few minutes
on two cores.
"""

import dataclasses
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from oracle import backprop, dloss_dprediction
from robustnn import losses as L
from robustnn.cli import cmd_run
from robustnn.contamination import (
    ContaminationKind,
    ContaminationSpec,
    apply_contamination,
)
from robustnn.datagen import DataGenSpec, Structure, generate_dataset
from robustnn.experiment import (
    Depth,
    ExperimentConfig,
    RunRecord,
    derive_seed,
    prepare_run,
    prepare_scenario,
    run_sweep,
    summarize,
    _data_key,
)
from robustnn.net import (
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
    mean_gradient_vector,
)
from robustnn.optimizer import OptimizerSpec, Rule, TrainJob, train, train_slots


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[acceptance] {name}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"\n[acceptance] {name}: PASS ({time.perf_counter() - started:.1f}s)")


def breakdown_data(seed):
    """Study-sized clean draw with one wild response, unstandardized."""
    spec = DataGenSpec(p=5, n_train=150, n_test=50, structure=Structure.LIN)
    train_ds, _ = generate_dataset(spec, np.random.default_rng(seed))
    y = train_ds.Y.copy()
    y[0] = 1e6
    return train_ds.X, y


SHALLOW = Architecture(5, (10, 10), Activation.LOGISTIC)


C01_ROWS = 5


def test_c01_gradient_oracle():
    with criterion("criterion 1 (gradient vs central finite differences)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(314)
        # the extra rows and the kept subsets come from a stream of their
        # own, so rng draws the same architectures whatever they need
        rng_rows = np.random.default_rng(315)
        step = 1e-5
        specs = [(L.LossSpec.squared(), None, None),
                 (L.LossSpec.huber(1.0), 1.0, 1.0),
                 (L.LossSpec.tukey(), None, L.TUKEY_K_DEFAULT)]
        acts = [Activation.LOGISTIC, Activation.SOFTPLUS]

        def off_kink(r, kink):
            if kink is None:
                return r
            return np.where(np.abs(np.abs(r) - kink) < 0.05, r + 0.15 * np.sign(r), r)

        def finite_differences(loss_at, p0):
            fd = np.zeros_like(p0)
            for i in range(p0.size):
                up, dn = p0.copy(), p0.copy()
                up[i] += step
                dn[i] -= step
                fd[i] = (loss_at(up) - loss_at(dn)) / (2 * step)
            return fd

        def assert_matches(analytic, fd):
            scale = np.maximum(np.abs(analytic), np.abs(fd))
            rel = np.where(scale > 1e-6,
                           np.abs(analytic - fd) / np.maximum(scale, 1e-300),
                           0.0)
            assert rel.max() <= 1e-6
            assert np.abs(analytic - fd)[scale <= 1e-6].max(initial=0.0) <= 1e-9

        checked = 0
        while checked < 54:
            for spec, delta, kink in specs:
                for act in acts:
                    arch = Architecture(int(rng.integers(1, 5)),
                                        tuple(int(rng.integers(1, 6)) for _ in
                                              range(int(rng.integers(1, 3)))),
                                        act)
                    net = init_weights(arch, rng)
                    p0 = net.params

                    def mean_loss_at(params, X, y, rows=None):
                        p = forward_batch(Network(arch, params), X).predictions
                        per = L.loss_value(spec, y - p, delta)
                        return float(np.mean(per if rows is None else per[rows]))

                    # the per-instance oracle on one row
                    x = rng.standard_normal((1, arch.input_dim))
                    pred = forward_batch(net, x).predictions
                    r = float(off_kink(rng.uniform(-3, 3), kink))
                    y = pred + r
                    analytic = backprop(net, x, dloss_dprediction(spec, y - pred, delta))[0]
                    assert_matches(analytic, finite_differences(
                        lambda v: mean_loss_at(v, x, y), p0))

                    # over all rows and over a kept subset: the standalone
                    # passes, and the route train runs, a one-slot
                    # BatchKernel whose error terms and layer inputs a loss
                    # group sums, its kept rows gathered first, and divides
                    # by the row count
                    X = np.vstack([x, rng_rows.standard_normal((C01_ROWS - 1, arch.input_dim))])
                    trace = forward_batch(net, X)
                    Y = trace.predictions + off_kink(rng_rows.uniform(-3, 3, C01_ROWS), kink)
                    deltas = batch_deltas(
                        net, trace, -L.loss_gradient(spec, Y - trace.predictions, delta))
                    kept = np.sort(rng_rows.choice(C01_ROWS, replace=False,
                                                   size=int(rng_rows.integers(1, C01_ROWS))))
                    kernel = BatchKernel(Network(arch, p0[None]), X[None])
                    predictions = kernel.forward()
                    kernel.output_error[:] = -L.loss_gradient(spec, Y - predictions[0], delta)
                    kernel.backward()
                    grad = np.empty((1, p0.size))
                    sums = Network(arch, grad)
                    for rows in (None, kept):
                        fd = finite_differences(lambda v: mean_loss_at(v, X, Y, rows), p0)
                        assert_matches(mean_gradient_vector(trace, deltas, rows), fd)
                        summed = kernel.deltas, kernel.acts[:-1]
                        if rows is not None:
                            summed = [[a[:, rows] for a in arrays] for arrays in summed]
                        count = _gradient_sum(_sum_steps(*summed), sums.weights,
                                              sums.intercepts)
                        assert count == (C01_ROWS if rows is None else rows.size)
                        assert_matches(grad[0] / count, fd)
                    checked += 1
        elapsed = time.perf_counter() - t0
        assert checked >= 50
        assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"


def test_c02_parameter_count_table():
    with criterion("criterion 2 (parameter-count table rows)"):
        rows = [
            (5, (10, 10), 21, 160),
            (5, (5,) * 10, 51, 255),
            (20, (10, 10), 21, 310),
            (20, (5,) * 10, 51, 330),
            (50, (10, 10), 21, 610),
            (50, (5,) * 10, 51, 480),
        ]
        for p, hidden, n_b, n_w in rows:
            arch = Architecture(p, hidden, Activation.LOGISTIC)
            got = count_parameters(arch)
            assert got == (n_b, n_w, n_b + n_w), (p, hidden, got)
        assert count_parameters(SHALLOW)[2] == 181
        deep50 = Architecture(50, (5,) * 10, Activation.LOGISTIC)
        assert count_parameters(deep50)[2] == 531


def breakdown_runs(loss):
    """Criteria 3 and 4: the five seeds' runs with one wild response under
    the sign rule, trained side by side in one slot-batched call; returns
    (initial norm, outcome) per seed."""
    spec = OptimizerSpec(rule=Rule.SIGN_GD, stepmax=100_000, grad_threshold=0.01)
    jobs = []
    for seed in range(5):
        X, y = breakdown_data(1000 + seed)
        net = init_weights(SHALLOW, np.random.default_rng(2000 + seed))
        jobs.append(TrainJob(net, (X, y), loss, diverge_norm=1e8, tag=seed))
    ended = {job.tag: (float(np.linalg.norm(job.net.params)), outcome)
             for job, outcome in train_slots(jobs, spec, slots=len(jobs))}
    return [ended[seed] for seed in range(5)]


@pytest.mark.slow
def test_c03_breakdown_of_unprotected_training():
    with criterion("criterion 3 (single-outlier breakdown, sign rule + squared)"):
        t0 = time.perf_counter()
        for seed, (n0, out) in enumerate(breakdown_runs(L.LossSpec.squared())):
            assert out.sup_weight_norm >= 1000 * n0, \
                f"seed {seed}: ratio {out.sup_weight_norm / n0:.1f}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"breakdown demonstration took {elapsed:.1f}s"


def test_c04_half_trimming_protects_against_the_same_outlier():
    with criterion("criterion 4 (half trimming keeps the norm bounded)"):
        for seed, (n0, out) in enumerate(breakdown_runs(L.LossSpec.trimmed(0.5))):
            assert out.sup_weight_norm < 10 * n0, \
                f"seed {seed}: ratio {out.sup_weight_norm / n0:.1f}"
            assert not out.breakdown


def _ordering_configs(base_seed):
    data = DataGenSpec(p=5, n_train=150, n_test=50, structure=Structure.LIN)
    cont = ContaminationSpec(ContaminationKind.Y_CONVEX, r=0.25, mu_out=100.0)
    return [ExperimentConfig(
        data=data, contamination=cont, activation=Activation.LOGISTIC,
        loss=loss, standardize=True, depth=Depth.SHALLOW, replications=20,
        base_seed=base_seed)
        for loss in (L.LossSpec.squared(), L.LossSpec.huber(),
                     L.LossSpec.trimmed(0.5))]


def _median_finite_loss(records, loss_name):
    finite = [rec.test_loss for rec in records
              if rec.loss == loss_name and rec.converged
              and rec.test_loss is not None and math.isfinite(rec.test_loss)]
    return float(np.median(finite)) if finite else math.inf


def test_c05_robust_losses_beat_squared_under_y_contamination():
    with criterion("criterion 5 (robustness ordering under Y-contamination)"):
        t0 = time.perf_counter()
        good = 0
        for base_seed in (101, 102, 103, 104, 105):
            records = run_sweep(_ordering_configs(base_seed), parallelism=2)
            med_sq = _median_finite_loss(records, "squared")
            med_hu = _median_finite_loss(records, "huber")
            med_t5 = _median_finite_loss(records, "trim50")
            # an all-inf comparison would pass vacuously (inf <= inf)
            for name, med in (("squared", med_sq), ("huber", med_hu), ("trim50", med_t5)):
                assert math.isfinite(med), \
                    f"base_seed {base_seed}: no converged {name} run with a finite test loss"
            ok = med_hu <= med_sq and med_t5 <= med_sq
            print(f"  base_seed {base_seed}: squared={med_sq:.4g} "
                  f"huber={med_hu:.4g} trim50={med_t5:.4g} -> "
                  f"{'ok' if ok else 'violated'}")
            good += ok
        elapsed = time.perf_counter() - t0
        assert good >= 4, f"ordering held for only {good}/5 base seeds"
        assert elapsed < 900.0, f"ordering study took {elapsed:.1f}s"


def _x_case_configs(activation, mu_out):
    data = DataGenSpec(p=5, n_train=150, n_test=50, structure=Structure.LIN)
    cont = ContaminationSpec(ContaminationKind.X_CASEWISE, r=0.25, mu_out=mu_out)
    return ExperimentConfig(
        data=data, contamination=cont, activation=activation,
        loss=L.LossSpec.squared(), standardize=True, depth=Depth.SHALLOW,
        replications=10, base_seed=424242)


@pytest.mark.slow
def test_c06_bounded_activation_tames_x_contamination():
    with criterion("criterion 6 (X-contamination boundedness per activation)"):
        cfgs = [_x_case_configs(Activation.LOGISTIC, 10.0),
                _x_case_configs(Activation.LOGISTIC, 1000.0),
                _x_case_configs(Activation.SOFTPLUS, 1000.0)]
        records = run_sweep(cfgs, parallelism=2)
        by_cfg = {}
        for rec in records:
            by_cfg.setdefault(rec.config_id, []).append(rec)

        def stats(cfg):
            recs = by_cfg[cfg.config_id]
            med = _median_finite_loss(recs, "squared")
            return med, sum(1 for r in recs if r.converged)

        med_small, conv_log_small = stats(cfgs[0])
        med_big, conv_log_big = stats(cfgs[1])
        _, conv_soft_big = stats(cfgs[2])
        ratio = med_big / med_small
        print(f"  logistic medians: mu=10 -> {med_small:.4g}, "
              f"mu=1000 -> {med_big:.4g} (ratio {ratio:.3f}); converged "
              f"logistic@1000 {conv_log_big}/10 vs softplus@1000 {conv_soft_big}/10")
        assert 1.0 / 3.0 <= ratio <= 3.0, f"median ratio {ratio:.3f}"
        assert conv_soft_big < conv_log_big, \
            f"softplus {conv_soft_big} !< logistic {conv_log_big}"


def test_c07_loss_rank_equals_gradient_rank_for_squared():
    with criterion("criterion 7 (trimming-rank equivalence for squared loss)"):
        rng = np.random.default_rng(777)
        for _ in range(1000):
            n = int(rng.integers(2, 50))
            r = rng.standard_normal(n) * float(rng.uniform(0.01, 1000))
            alpha = float(rng.choice([0.1, 0.25, 0.5]))
            by_loss = L.trimmed_select(r * r, alpha)
            by_grad = L.trimmed_select(np.abs(2.0 * r), alpha)
            assert set(by_loss.kept_indices) == set(by_grad.kept_indices)


def test_c08_gradient_scale_invariance_of_trajectories():
    with criterion("criterion 8 (sign rules ignore positive gradient scale)"):
        data = DataGenSpec(p=5, n_train=80, n_test=10, structure=Structure.LIN)
        for seed in range(5):
            train_ds, _ = generate_dataset(data, np.random.default_rng(30 + seed))
            spec = OptimizerSpec(rule=Rule.RPROP_PLUS, stepmax=300,
                                 grad_threshold=1e-300)
            outs = []
            for transform in (None, lambda g: 3.7 * g):
                net = init_weights(SHALLOW, np.random.default_rng(60 + seed))
                outs.append(train(net, (train_ds.X, train_ds.Y),
                                  L.LossSpec.squared(), spec,
                                  record_norms=True, grad_transform=transform))
            a, b = outs
            np.testing.assert_array_equal(a.final_net.params,
                                          b.final_net.params)
            assert a.norm_history == b.norm_history


def test_c09_contamination_counts_and_test_set_integrity():
    with criterion("criterion 9 (exact contamination counts, untouched test set)"):
        grid = [(150, 5), (500, 20), (1000, 50)]
        for n, p in grid:
            spec = DataGenSpec(p=p, n_train=n, n_test=max(n // 3, 2))
            data, _ = generate_dataset(spec, np.random.default_rng(n))
            for r_txt in ("0.1", "0.25", "0.4"):
                r = float(r_txt)
                frac = Fraction(r_txt)
                rng = np.random.default_rng(p)
                out = apply_contamination(
                    data, ContaminationSpec(ContaminationKind.Y_CONVEX, r=r,
                                            mu_out=100.0), rng)
                assert int((out.Y != data.Y).sum()) == math.ceil(frac * n)
                out = apply_contamination(
                    data, ContaminationSpec(ContaminationKind.X_CASEWISE, r=r,
                                            mu_out=100.0), rng)
                assert int(np.any(out.X != data.X, axis=1).sum()) == math.ceil(frac * n)
                out = apply_contamination(
                    data, ContaminationSpec(ContaminationKind.XY_CELLWISE, r=r,
                                            mu_out=100.0), rng)
                changed = (np.column_stack([out.X, out.Y])
                           != np.column_stack([data.X, data.Y]))
                assert int(changed.sum()) == math.ceil(frac * n * (p + 1))
        # the quoted 90-cell case
        spec = DataGenSpec(p=5, n_train=150, n_test=50)
        data, _ = generate_dataset(spec, np.random.default_rng(9))
        out = apply_contamination(
            data, ContaminationSpec(ContaminationKind.XY_CELLWISE, r=0.1,
                                    mu_out=100.0), np.random.default_rng(10))
        assert int((np.column_stack([out.X, out.Y])
                    != np.column_stack([data.X, data.Y])).sum()) == 90

        # contamination never reaches the test set: after training, each
        # prepared run's test set equals an independent regeneration from
        # the data stream and the test set of the clean configuration
        cfg = ExperimentConfig(
            data=DataGenSpec(p=3, n_train=30, n_test=12, structure=Structure.LIN),
            contamination=ContaminationSpec(ContaminationKind.XY_CELLWISE,
                                            r=0.25, mu_out=1000.0),
            activation=Activation.LOGISTIC, loss=L.LossSpec.trimmed(0.5),
            standardize=True, depth=Depth.SHALLOW, replications=3,
            base_seed=17, optimizer=OptimizerSpec(stepmax=500))
        records = run_sweep([cfg])
        assert all(rec.status != "error" for rec in records)
        clean = dataclasses.replace(cfg, contamination=ContaminationSpec(ContaminationKind.NONE))
        for rep in range(3):
            prep = prepare_run(cfg, rep)
            train(prep.net, prep.scenario.train, cfg.loss, cfg.resolved_optimizer(),
                  cfg.diverge_norm, epoch_end_hook=prep.scenario.hook)
            rng = np.random.default_rng(derive_seed("data", 17, _data_key(cfg.data), rep))
            regenerated = generate_dataset(cfg.data, rng)[1]
            clean_scenario = prepare_scenario(clean, rep)
            # the training set was contaminated, so the check is not vacuous
            assert not np.array_equal(prep.scenario.train.X, clean_scenario.train.X)
            for other in (regenerated, clean_scenario.test):
                np.testing.assert_array_equal(prep.scenario.test.X, other.X)
                np.testing.assert_array_equal(prep.scenario.test.Y, other.Y)


def test_c10_cmd_run_is_byte_deterministic(tmp_path):
    with criterion("criterion 10 (byte-identical results and summary files)"):
        import json
        doc = {
            "data": {"p": 3, "n_train": 30, "n_test": 12},
            "structure": ["lin", "trig"],
            "contamination": {"kind": "y-convex", "r": 0.25, "mu_out": 100},
            "activation": "logistic",
            "depth": "shallow",
            "standardize": True,
            "losses": ["squared", "huber", "trim50"],
            "replications": 3,
            "base_seed": 5,
            "optimizer": {"stepmax": 2000},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cmd_run(cfg, tmp_path / "a", parallelism=1) == 0
        assert cmd_run(cfg, tmp_path / "b", parallelism=2) == 0
        assert ((tmp_path / "a" / "results.csv").read_bytes()
                == (tmp_path / "b" / "results.csv").read_bytes())
        assert ((tmp_path / "a" / "summary.csv").read_bytes()
                == (tmp_path / "b" / "summary.csv").read_bytes())


def test_c11_summary_aggregation_rules():
    with criterion("criterion 11 (finite-mean, Inf-count and surrogate rules)"):
        def rec(rep, converged, test_loss, epochs):
            return RunRecord(
                config_id="cell", structure="lin", n=30, p=3,
                activation="logistic", depth="shallow", standardized=True,
                cont_kind="none", r=0.0, mu_out=10.0, loss="squared", rep=rep,
                seed=1, converged=converged,
                status="converged" if converged else "step-limit",
                epochs=epochs, test_loss=test_loss, sup_weight_norm=1.0,
                breakdown=False)

        records = [rec(0, True, 2.0, 5), rec(1, True, 4.0, 7),
                   rec(2, True, math.inf, 9), rec(3, False, None, 50)]
        (cell,) = summarize(records)
        assert cell.mean_finite_test_loss == 3.0
        assert cell.n_inf_losses == 1
        assert cell.n_converged == 3
        assert cell.breakdown_rate_surrogate == 0.25
