"""The benchmark's workloads. A round drives the robustnn CLI in
subprocesses, times each invocation from launch to exit, and checks what it
printed and wrote. Every round of a run uses the same inputs."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import replay as rp
from robustnn import cli
from robustnn import losses as rlosses

PARALLEL = 2          # nproc of the reference machine
# A run of the benchmark reports the median of several rounds. The desk
# sweep needs thousands of runs per round to average out how many epochs its
# runs take on one seed's data; the capped sweep does the same work on any.
DESK_REPS = 100       # 2400 runs per round, about 12 s at --parallel 2
WIDE_REPS = 1
WIDE_CAP = 400        # 12 runs of 400 epochs per round, about 3 s at --parallel 2
PROBE_CAP = 40_000
SIGN_GD_ETA = 0.1     # the default sign-GD step, which every parameter moves per epoch
GRAD_THRESHOLD = 0.01  # the default convergence threshold on max |gradient|
CHECKED_RUNS = 12     # converged desk runs re-derived per run of the benchmark
CAPS = {"shallow": 100_000, "deep": 250_000}   # the study's default epoch caps


@dataclass
class Invocation:
    wall_s: float
    returncode: int
    peak_rss_mb: float   # the process or any child it waited for
    stdout: str
    stderr: str


@dataclass
class Context:
    root: Path    # checkout root
    work: Path    # this run's scratch directory, inside the checkout
    seed: int
    env: dict

    def cli(self, tag: str, *args) -> Invocation:
        cmd = [sys.executable, "-m", "robustnn.cli", *map(str, args)]
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with out_path.open("w") as out, err_path.open("w") as err:
            t0 = time.perf_counter()
            # own process group, so an interrupted run can stop the pool workers too
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work,
                                    start_new_session=True)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                          out_path.read_text(), err_path.read_text())


@dataclass
class Round:
    wall_s: float       # every CLI invocation of the round
    run_wall_s: float   # the run/probe invocations only
    runs: int           # training runs completed
    epochs: int
    peak_rss_mb: float


@dataclass
class Tally:
    """Operations attempted, the keys of those that failed, and failed checks
    on the output as a whole (which make the result incorrect)."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, key, why: str) -> None:
        if key not in self.failed:
            self.failed.add(key)
            self.notes.append(f"operation {key} failed: {why}")

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def expansion_size(doc: dict) -> int:
    """Number of configurations a document expands to: the product of the
    lengths of its list-valued keys."""
    size = 1
    for value in doc.values():
        if isinstance(value, dict):
            size *= expansion_size(value)
        elif isinstance(value, list):
            size *= len(value)
    return size


def read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name: str
    docs: dict[str, dict]   # config file stem -> configuration document
    report = False          # whether a round also runs robustnn report

    def config_paths(self, ctx: Context) -> list[Path]:
        paths = []
        for stem, doc in self.docs.items():
            path = ctx.work / f"{stem}.json"
            if not path.exists():
                path.write_text(json.dumps(doc, indent=1))
            paths.append(path)
        return paths

    def configs(self, ctx: Context) -> list:
        return [replace(cfg, base_seed=ctx.seed)
                for path in self.config_paths(ctx) for cfg in cli.parse_config(path)]


# ---------------------------------------------------------------------------
# run + report sweeps

class Sweep(Workload):
    def __init__(self, name: str, doc: dict):
        self.name, self.docs = name, {name: doc}
        self.doc = doc

    @property
    def expected_runs(self) -> int:
        return expansion_size(self.doc) * self.doc["replications"]

    def cap(self, row: dict) -> int:
        return self.doc.get("optimizer", {}).get("stepmax", CAPS[row["depth"]])

    def row_problem(self, row: dict) -> str | None:
        raise NotImplementedError

    def round(self, ctx: Context, k: int, tally: Tally) -> Round:
        out = ctx.work / f"round{k}"
        (config,) = self.config_paths(ctx)
        run = ctx.cli(f"run{k}", "run", "--config", config, "--out", out,
                      "--parallel", PARALLEL, "--seed", ctx.seed)
        tally.require(run.returncode == 0, f"round {k}: run exited {run.returncode}: "
                      f"{run.stderr.strip()[-300:]}")
        rows = read_rows(out / "results.csv")
        tally.attempted += self.expected_runs
        for row in rows:
            why = self.row_problem(row)
            if why:
                tally.fail((k, row["config_id"], row["rep"]), why)
        for i in range(len(rows), self.expected_runs):
            tally.fail((k, "missing", i), "no results.csv row")
        wall, rss = run.wall_s, run.peak_rss_mb
        if self.report and run.returncode == 0:
            rep = ctx.cli(f"report{k}", "report", "--summary", out / "summary.csv",
                          "--out", out / "report")
            tally.require(rep.returncode == 0, f"round {k}: report exited {rep.returncode}")
            wall, rss = wall + rep.wall_s, max(rss, rep.peak_rss_mb)
        if k > 0 and run.returncode == 0:
            same = (out / "results.csv").read_bytes() == \
                (ctx.work / "round0" / "results.csv").read_bytes()
            tally.require(same, f"round {k} wrote other results than round 0")
            shutil.rmtree(out)
        return Round(wall, run.wall_s, len(rows), sum(int(r["epochs"]) for r in rows), rss)

    def check_outputs(self, ctx: Context, tally: Tally, rng: np.random.Generator) -> None:
        rows = read_rows(ctx.work / "round0" / "results.csv")
        tally.require(len(rows) == self.expected_runs,
                      f"{len(rows)} results rows, expected {self.expected_runs}")
        if rows:
            self.deep_checks(ctx, rows, tally, rng)

    def deep_checks(self, ctx, rows, tally, rng) -> None:
        raise NotImplementedError

    def untraced_reference(self, ctx: Context, tally: Tally) -> tuple[Round, list[dict]]:
        """One untraced round and the rows it wrote."""
        rnd = self.round(ctx, 0, tally)
        return rnd, read_rows(ctx.work / "round0" / "results.csv")

    def compare(self, reference: list[dict], replayed: list[dict], tally: Tally) -> None:
        """The untraced --parallel rows against the sequential replay."""
        by_key = {(row["config_id"], row["rep"]): row for row in reference}
        for fields in replayed:
            key = (fields["config_id"], str(fields["rep"]))
            row = by_key.get(key)
            bad = ["no such row"] if row is None else rp.field_mismatches(row, fields)
            if bad:
                tally.fail((0, *key), "replay differs: " + bad[0])


class DeskSweep(Sweep):
    """The make-up of configs/desk_demo.json with more replications."""

    report = True

    def __init__(self):
        super().__init__("desk-sweep", {
            "data": {"p": 5, "n_train": 150, "n_test": 50},
            "structure": "lin",
            "contamination": {"kind": ["none", "y-convex", "x-casewise", "xy-cellwise"],
                              "r": 0.25, "mu_out": 100},
            "activation": "logistic",
            "depth": "shallow",
            "standardize": True,
            "losses": ["squared", "huber", "tukey", "trim10", "trim25", "trim50"],
            "replications": DESK_REPS,
            "base_seed": 0,
        })

    def row_problem(self, row):
        if row["status"] == "error":
            return "status error"
        epochs, cap = int(row["epochs"]), self.cap(row)
        converged = row["converged"] == "true"
        if converged != (row["status"] == "converged"):
            return "converged flag disagrees with status"
        if converged != (row["test_loss"] != "" and epochs < cap):
            return "converged without test loss below the cap, or the reverse"
        if row["status"] == "step-limit" and epochs != cap:
            return f"step-limit after {epochs} epochs, cap {cap}"
        return None

    def deep_checks(self, ctx, rows, tally, rng):
        out = ctx.work / "round0"
        rebuilt = rp.rebuild_summary(rows)
        bad = rp.summary_mismatches(read_rows(out / "summary.csv"), rebuilt)
        tally.require(not bad, "summary.csv: " + "; ".join(bad[:3]))

        scenarios = {row["config_id"].rsplit("_", 1)[0] for row in rows}
        charts = sorted((out / "report").glob("chart_*.svg"))
        tally.require(len(charts) == len(scenarios),
                      f"{len(charts)} charts for {len(scenarios)} scenarios")
        for chart in charts:
            tally.require(ET.parse(chart).getroot().tag.endswith("svg"),
                          f"{chart.name} is not an SVG document")

        cfgs = {cfg.config_id: cfg for cfg in self.configs(ctx)}
        converged = [row for row in rows if row["converged"] == "true"]
        picks = rng.choice(len(converged), size=min(CHECKED_RUNS, len(converged)),
                           replace=False)
        for i in sorted(picks):
            row = converged[i]
            why = self.rederive(cfgs[row["config_id"]], row)
            if why:
                tally.fail((0, row["config_id"], row["rep"]), why)

    @staticmethod
    def rederive(cfg, row) -> str | None:
        """Retrain one converged run, recompute its test loss with the
        benchmark's forward pass and its gradient by central differences."""
        run = rp.replay_run(cfg, int(row["rep"]))
        bad = rp.field_mismatches(row, run.fields)
        if bad:
            return "replay differs: " + bad[0]
        prep, net = run.prep, run.outcome.final_net
        y_fit = prep.train_c.Y
        y_train = rp.min_max(y_fit, y_fit) if cfg.standardize else y_fit
        y_test = rp.min_max(y_fit, prep.test.Y) if cfg.standardize else prep.test.Y
        with np.errstate(over="ignore", invalid="ignore"):
            test_loss = math.fsum((rp.forward(net, prep.test.X) - y_test) ** 2) / len(y_test)
        if not rp.close(test_loss, float(row["test_loss"])):
            return f"test loss {row['test_loss']} vs recomputed {test_loss!r}"
        objective = rp.Objective(row["loss"], net, prep.train_c.X, y_train)
        g = float(np.max(np.abs(rp.central_difference_gradient(objective))))
        # the allowance covers the central difference's own error, ~1e-10
        if not g < GRAD_THRESHOLD * (1 + 1e-6):
            return f"central-difference max |gradient| {g!r} not below {GRAD_THRESHOLD}"
        return None


class WideCapped(Sweep):
    """The study's largest data shape, every run held to the same epoch cap."""

    def __init__(self):
        super().__init__("wide-capped", {
            "data": {"p": 50, "n_train": 1000, "n_test": 500},
            "structure": "lin",
            "contamination": {"kind": ["y-convex", "y-iterative"], "r": 0.1, "mu_out": 10},
            "activation": "logistic",
            "depth": ["shallow", "deep"],
            "standardize": False,
            "losses": ["squared", "huber", "trim25"],
            "replications": WIDE_REPS,
            "base_seed": 0,
            "optimizer": {"stepmax": WIDE_CAP, "grad_threshold": 1e-300},
        })

    def row_problem(self, row):
        epochs, cap = int(row["epochs"]), self.cap(row)
        if row["status"] == "step-limit":
            return None if epochs == cap else f"step-limit after {epochs} epochs, cap {cap}"
        if row["status"] == "diverged":
            return None if epochs <= cap else f"diverged after {epochs} epochs, cap {cap}"
        return f"status {row['status']}"

    def deep_checks(self, ctx, rows, tally, rng):
        """Replay one trimmed and one other y-iterative run, checking every
        attacker call and every trimmed selection on the way."""
        cfgs = {cfg.config_id: cfg for cfg in self.configs(ctx)}
        attacked = [row for row in rows if row["cont_kind"] == "y-iterative"]
        trimmed = [row for row in attacked if row["loss"].startswith("trim")]
        others = [row for row in attacked if not row["loss"].startswith("trim")]
        tally.require(bool(trimmed and others), "no y-iterative runs to check")
        for group in (trimmed, others):
            if group:
                row = group[rng.integers(len(group))]
                why = self.replay_attacked(cfgs[row["config_id"]], row)
                if why:
                    tally.fail((0, row["config_id"], row["rep"]), why)

    @staticmethod
    def replay_attacked(cfg, row) -> str | None:
        eps, token = cfg.contamination.mu_out, row["loss"]
        problems = []

        def wrap(hook, attacked):
            def checked(epoch, predictions, losses, y):
                new_y = hook(epoch, predictions, losses, y)
                why = attack_violation(predictions, losses, y, new_y, attacked, eps)
                if why is None and token.startswith("trim"):
                    kept = len(rlosses.trimmed_select(losses, cfg.loss.trim_alpha).kept_indices)
                    if kept != rp.trim_keep(len(losses), token):
                        why = f"trimmed selection kept {kept} of {len(losses)} rows"
                if why:
                    problems.append(f"epoch {epoch}: {why}")
                return new_y
            return checked

        run = rp.replay_run(cfg, int(row["rep"]), wrap_hook=wrap)
        if problems:
            return problems[0]
        bad = rp.field_mismatches(row, run.fields)
        return "replay differs: " + bad[0] if bad else None


def attack_violation(predictions, losses, y, new_y, attacked, eps) -> str | None:
    """The adaptive attacker's promise for one epoch: attacked responses sit
    above the prediction by at most eps, with a squared offset strictly below
    the (n/2+1)-th smallest loss unless that loss is 0; others are untouched."""
    n = len(losses)
    others = np.ones(n, dtype=bool)
    others[attacked] = False
    if not np.array_equal(new_y[others], y[others]):
        return "the attacker changed responses it does not own"
    diff = new_y[attacked] - predictions[attacked]
    order_stat = np.partition(losses, n // 2)[n // 2]
    # pred + offset - pred can exceed offset by the rounding of the addition
    rounding = 4 * np.spacing(np.maximum(np.abs(predictions[attacked]), eps))
    if not (diff > 0).all():
        return "an attacked residual is not positive"
    if not (diff <= eps + rounding).all():
        return "an attacked offset exceeds eps"
    if order_stat > 0 and not (diff * diff < order_stat).all():
        return "an attacked squared offset reaches the (n/2+1)-th smallest loss"
    return None


# ---------------------------------------------------------------------------
# the breakdown probe

_PROBE_FINAL = re.compile(r"status=(\S+) epochs=(\d+) sup_norm=(\S+) ratio=\S+ breakdown=(\S+)")
_PROBE_LINE = re.compile(r"epoch\s+(\d+)\s+\|\|w\|\| = (\S+)")
_PROBE_INIT = re.compile(r"initial weight norm (\S+)")


@dataclass
class ProbeOutput:
    initial_norm: float
    trajectory: list[tuple[int, float]]
    status: str
    epochs: int
    sup_norm_text: str


def parse_probe(text: str) -> ProbeOutput | None:
    init = _PROBE_INIT.search(text)
    final = _PROBE_FINAL.search(text)
    if not (init and final):
        return None
    traj = [(int(e), float(v)) for e, v in _PROBE_LINE.findall(text)]
    return ProbeOutput(float(init.group(1)), traj, final.group(1), int(final.group(2)),
                       final.group(3))


class ProbeBreakdown(Workload):
    """The make-up of configs/breakdown_probe.json, once per loss."""

    name = "probe-breakdown"
    losses = ("squared", "trim50")

    def __init__(self):
        self.docs = {f"probe_{loss}": {
            "data": {"p": 5, "n_train": 150, "n_test": 50},
            "structure": "lin",
            "contamination": {"kind": "y-convex", "r": 0.01, "mu_out": 1000000},
            "activation": "logistic",
            "depth": "shallow",
            "standardize": False,
            "losses": [loss],
            "replications": 1,
            "base_seed": 0,
            "optimizer": {"rule": "sign-gd", "stepmax": PROBE_CAP},
        } for loss in self.losses}
        # parameters of the 5-10-10-1 network: weights plus intercepts
        sizes = (5, 10, 10, 1)
        self.n_params = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))

    def round(self, ctx: Context, k: int, tally: Tally) -> Round:
        wall = rss = 0.0
        runs = epochs = 0
        for loss, path in zip(self.losses, self.config_paths(ctx)):
            inv = ctx.cli(f"probe_{loss}_{k}", "probe", "--config", path, "--seed", ctx.seed)
            tally.attempted += 1
            wall, rss = wall + inv.wall_s, max(rss, inv.peak_rss_mb)
            out = parse_probe(inv.stdout) if inv.returncode == 0 else None
            why = self.probe_problem(loss, out) if out else f"probe exited {inv.returncode}"
            if why:
                tally.fail((k, loss), why)
            if out:
                runs, epochs = runs + 1, epochs + out.epochs
            if k == 0:
                (ctx.work / f"probe_{loss}.first").write_text(inv.stdout)
            else:
                same = inv.stdout == (ctx.work / f"probe_{loss}.first").read_text()
                tally.require(same, f"round {k}: {loss} probe printed other output than round 0")
        return Round(wall, wall, runs, epochs, rss)

    def probe_problem(self, loss: str, out: ProbeOutput) -> str | None:
        if out.status != "step-limit" or out.epochs != PROBE_CAP:
            return f"ended {out.status} after {out.epochs} epochs, cap {PROBE_CAP}"
        if not out.trajectory or out.trajectory[-1][0] != PROBE_CAP:
            return "trajectory does not reach the cap"
        # sign-GD moves each parameter by exactly eta per epoch, so the norm
        # moves by at most eta * sqrt(P) per epoch; %.6g printing adds rounding
        per_epoch = SIGN_GD_ETA * math.sqrt(self.n_params)
        for (e0, w0), (e1, w1) in zip(out.trajectory, out.trajectory[1:]):
            if abs(w1 - w0) > per_epoch * (e1 - e0) + 1e-5 * (abs(w0) + abs(w1)):
                return f"norm moved from {w0} to {w1} between epochs {e0} and {e1}"
        # criterion 4's trim50 bound (ratio below 10) is not checked: on some
        # seeds the trim50 norm settles near 50x its start (seed 25: 51.3)
        ratio = float(out.sup_norm_text) / out.initial_norm
        if loss == "squared" and not ratio >= 1000 * PROBE_CAP / 100_000:
            return f"squared sup-norm ratio {ratio:.4g} below {1000 * PROBE_CAP / 100_000:g}"
        return None

    def check_outputs(self, ctx, tally, rng) -> None:
        """Every probe output is checked in its round."""

    def untraced_reference(self, ctx: Context, tally: Tally) -> tuple[Round, list]:
        rnd = self.round(ctx, 0, tally)
        return rnd, [parse_probe((ctx.work / f"probe_{loss}.first").read_text())
                     for loss in self.losses]

    def compare(self, reference: list, replayed: list[dict], tally: Tally) -> None:
        """The printed final line against the in-process replay of rep 0."""
        for loss, out, f in zip(self.losses, reference, replayed):
            mine = (f["status"], f["epochs"], f"{f['sup_weight_norm']:.6g}")
            if out is None or (out.status, out.epochs, out.sup_norm_text) != mine:
                tally.fail((0, loss), f"replay {mine} differs from the probe's output")


WORKLOADS = {w.name: w for w in (DeskSweep(), ProbeBreakdown(), WideCapped())}
