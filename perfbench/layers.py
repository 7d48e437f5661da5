"""The traced run: per-module metrics from in-process replays that time
each call into robustnn's public functions from the benchmark's own code.
Nothing inside the program is instrumented.

Three replays make it up:
- the workload's runs, one after another, through the public calls in the
  order run_single makes them (per-run and per-call times, outcomes);
- an epoch-phase replay per configuration: a fixed number of epochs at the
  initial parameters through forward_batch, the loss functions, batch_deltas
  and mean_gradient_vector, next to train over the same number of epochs;
- run_sweep at the benchmark's worker count, then the CSV writers and report.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

import replay as rp
from robustnn import barchart, cli, contamination, datagen, experiment
from robustnn import losses as L
from robustnn import net as rnet
from robustnn import optimizer
from robustnn.datagen import Dataset
from workloads import PARALLEL, Sweep

PHASE_EPOCHS = {"desk-sweep": 100, "probe-breakdown": 1000, "wide-capped": 30}
CALL_COUNT_EPOCHS = (5, 25)
UNREACHABLE = 1e-300   # gradient threshold no run reaches
PARSE_REPEATS = 5
PREP_CALLS = ("datagen.generate_dataset", "contamination.apply_contamination",
              "datagen.fit_standardizer", "contamination.make_iterative_attack_hook",
              "net.init_weights")

# (metric, timed call); a per-call time is the median over the calls the
# workload's own runs make, or over the epoch-phase replay where they make none
PER_CALL = (
    ("datagen.generate_dataset_us", "datagen.generate_dataset"),
    ("datagen.fit_standardizer_us", "datagen.fit_standardizer"),
    ("contamination.apply_contamination_us", "contamination.apply_contamination"),
    ("contamination.attack_hook_us", "contamination.attack_hook"),
    ("net.init_weights_us", "net.init_weights"),
    ("net.forward_batch_us", "net.forward_batch"),
    ("net.batch_deltas_us", "net.batch_deltas"),
    ("net.mean_gradient_vector_us", "net.mean_gradient_vector"),
    ("net.predict_us", "net.predict"),
    ("losses.loss_value_us", "losses.loss_value"),
    ("losses.loss_gradient_us", "losses.loss_gradient"),
    ("losses.adaptive_huber_delta_us", "losses.adaptive_huber_delta"),
    ("losses.trimmed_select_us", "losses.trimmed_select"),
)


def _median_us(samples) -> float:
    return statistics.median(samples) * 1e6


def _count_calls(fn) -> int:
    """Python-level and builtin calls made by fn(), as cProfile counts them."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _matmul_flops(cfg, kept: int) -> int:
    """Multiply-adds x2 of one epoch's matrix products, from the shapes:
    forward, error back-propagation through all but the first layer, and the
    weight gradients over the kept rows."""
    sizes = (cfg.data.p, *experiment.DEPTH_HIDDEN[cfg.depth], 1)
    pairs = [a * b for a, b in zip(sizes, sizes[1:])]
    n = cfg.data.n_train
    return 2 * n * sum(pairs) + 2 * n * sum(pairs[1:]) + 2 * kept * sum(pairs)


def phase_replay(cfg, epochs: int, timer: rp.Timer) -> dict:
    """Per-epoch cost of each phase, of train itself, and the exact call
    count per epoch, for one configuration at replication 0."""
    prep = rp.prepare(cfg, 0)
    net, X, Y, spec = prep.net0, prep.train_c.X, prep.y_train, cfg.loss
    hook = prep.hook
    if hook is None:   # time the attacker on this workload's data anyway
        _, hook = contamination.make_iterative_attack_hook(
            len(Y), np.random.default_rng(0), eps=cfg.contamination.mu_out)
    alpha = spec.trim_alpha if spec.is_trimmed else 0.5
    t = rp.Timer()
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            trace = t("net.forward_batch", rnet.forward_batch, net, X)
            r = Y - trace.predictions
            median_delta = t("losses.adaptive_huber_delta", L.adaptive_huber_delta, r)
            delta = None
            if spec.kind == L.LossKind.HUBER:
                delta = spec.huber_delta if spec.huber_delta is not None else median_delta
            per = t("losses.loss_value", L.loss_value, spec, r, delta)
            sel = t("losses.trimmed_select", L.trimmed_select, per, alpha)
            kept = sel.kept_indices if spec.is_trimmed else None
            dl = -t("losses.loss_gradient", L.loss_gradient, spec, r, delta)
            deltas = t("net.batch_deltas", rnet.batch_deltas, net, trace, dl)
            t("net.mean_gradient_vector", rnet.mean_gradient_vector, trace, deltas, kept)
            t("contamination.attack_hook", hook, epoch, trace.predictions, per, Y)
            t("net.predict", rnet.predict, net, prep.test.X)
            t("datagen.fit_standardizer", datagen.fit_standardizer, prep.train_c.Y)
    for name, samples in t.samples.items():
        timer.samples[name].extend(samples)

    used = ["net.forward_batch", "losses.loss_value", "losses.loss_gradient",
            "net.batch_deltas", "net.mean_gradient_vector"]
    if spec.adaptive_huber:
        used.append("losses.adaptive_huber_delta")
    if spec.is_trimmed:
        used.append("losses.trimmed_select")
    if prep.hook is not None:
        used.append("contamination.attack_hook")
    phases_us = sum(_median_us(t.samples[name]) for name in used)

    def train(n_epochs):
        opt = replace(cfg.resolved_optimizer(), stepmax=n_epochs, grad_threshold=UNREACHABLE)
        return optimizer.train(net, Dataset(X, Y), spec, opt, cfg.diverge_norm,
                               epoch_end_hook=prep.hook)

    t0 = time.perf_counter()
    outcome = train(epochs)
    train_us = (time.perf_counter() - t0) / outcome.epochs_used * 1e6
    lo, hi = CALL_COUNT_EPOCHS
    calls = (_count_calls(lambda: train(hi)) - _count_calls(lambda: train(lo))) / (hi - lo)
    n = len(Y)
    kept_rows = len(sel.kept_indices) if spec.is_trimmed else n
    flops = _matmul_flops(cfg, kept_rows)
    return dict(train_us=train_us, step_us=train_us - phases_us, calls=calls,
                flops=flops, gflops=flops / (train_us * 1e3), kept=kept_rows, rows=n)


def _render_charts(summary_path, timer: rp.Timer) -> None:
    """One chart per scenario from summary rows, through render_bar_chart."""
    groups: dict[str, list[dict]] = {}
    for row in cli.read_summary_csv(summary_path):
        groups.setdefault(row["config_id"].rsplit("_", 1)[0], []).append(row)
    for scenario, rows in groups.items():
        entries = [barchart.BarEntry(
            label=row["loss"],
            value=(None if row["mean_finite_test_loss"] in ("", "Inf", "NaN")
                   else float(row["mean_finite_test_loss"])),
            count=int(row["n_converged"]),
            inf_flag=int(row["n_inf_losses"]) > 0) for row in rows]
        timer("barchart.render_bar_chart", barchart.render_bar_chart, scenario, entries)


def traced_run(workload, ctx, tally) -> dict[str, tuple[float, str]]:
    reference_round, reference = workload.untraced_reference(ctx, tally)

    timer = rp.Timer()
    t_start = time.perf_counter()
    cfgs = [replace(cfg, base_seed=ctx.seed)
            for path in workload.config_paths(ctx)
            for cfg in timer("cli.parse_config", cli.parse_config, path)]

    hook_calls = 0

    def wrap(hook, attacked):
        def timed(*args):
            nonlocal hook_calls
            hook_calls += 1
            return timer("contamination.attack_hook", hook, *args)
        return timed

    busy, fields = [], []
    for cfg in cfgs:
        for rep in range(cfg.replications):
            t0 = time.perf_counter()
            fields.append(rp.replay_run(cfg, rep, timer, wrap).fields)
            busy.append(time.perf_counter() - t0)
    traced_wall = time.perf_counter() - t_start
    workload.compare(reference, fields, tally)

    t0 = time.perf_counter()
    records = experiment.run_sweep(cfgs, parallelism=PARALLEL)
    sweep_wall = time.perf_counter() - t0

    out = ctx.work / "traced"
    out.mkdir()
    t0 = time.perf_counter()
    timer("cli.write_results_csv", cli.write_results_csv, records, out / "results.csv")
    timer("cli.write_summary_csv", cli.write_summary_csv,
          experiment.summarize(records), out / "summary.csv")
    writes = time.perf_counter() - t0
    with contextlib.redirect_stdout(io.StringIO()):
        timer("cli.cmd_report", cli.cmd_report, out / "summary.csv", out / "report")
    if isinstance(workload, Sweep):
        traced_wall += writes
    if workload.report:
        traced_wall += timer.samples["cli.cmd_report"][-1]
    _render_charts(out / "summary.csv", timer)
    for path in workload.config_paths(ctx):
        for _ in range(PARSE_REPEATS - 1):
            timer("cli.parse_config", cli.parse_config, path)

    phase_timer = rp.Timer()
    phases = [phase_replay(cfg, PHASE_EPOCHS[workload.name], phase_timer) for cfg in cfgs]

    def mean(key):
        return statistics.fmean(p[key] for p in phases)

    def per_call(source):
        samples = timer.samples.get(source) or phase_timer.samples[source]
        return _median_us(samples)

    statuses = [f["status"] for f in fields]
    ms = 1e3
    metrics = {
        "experiment.run_single_ms_p50": (statistics.median(busy) * ms, "ms"),
        "experiment.run_single_ms_max": (max(busy) * ms, "ms"),
        "experiment.prep_ms_per_run": (
            sum(sum(timer.samples.get(name, ())) for name in PREP_CALLS) / len(busy) * ms, "ms"),
        "experiment.parallel_efficiency": (sum(busy) / (sweep_wall * PARALLEL), "ratio"),
    }
    for name, source in PER_CALL:
        metrics[name] = (per_call(source), "us")
    metrics.update({
        "contamination.attack_hook_calls": (hook_calls, "count"),
        "net.flops_per_epoch": (mean("flops"), "flop"),
        "net.achieved_gflops": (mean("gflops"), "GFLOP/s"),
        "losses.backprop_rows_useful_fraction": (
            sum(p["kept"] for p in phases) / sum(p["rows"] for p in phases), "ratio"),
        "optimizer.train_us_per_epoch": (mean("train_us"), "us"),
        "optimizer.py_calls_per_epoch": (mean("calls"), "count"),
        "optimizer.step_and_bookkeeping_us": (mean("step_us"), "us"),
        "optimizer.epochs": (sum(f["epochs"] for f in fields), "count"),
        "optimizer.runs_converged": (statuses.count("converged"), "count"),
        "optimizer.runs_step_limit": (statuses.count("step-limit"), "count"),
        "optimizer.runs_diverged": (statuses.count("diverged"), "count"),
        "cli.parse_config_ms": (statistics.median(timer.samples["cli.parse_config"]) * ms, "ms"),
        "cli.write_results_csv_ms": (timer.samples["cli.write_results_csv"][0] * ms, "ms"),
        "cli.write_summary_csv_ms": (timer.samples["cli.write_summary_csv"][0] * ms, "ms"),
        "cli.cmd_report_ms": (timer.samples["cli.cmd_report"][0] * ms, "ms"),
        "cli.results_csv_bytes": ((out / "results.csv").stat().st_size, "bytes"),
        "barchart.render_bar_chart_ms": (
            statistics.median(timer.samples["barchart.render_bar_chart"]) * ms, "ms"),
        "barchart.charts": (len(list((out / "report").glob("chart_*.svg"))), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - reference_round.wall_s, "s"),
    })
    return metrics
