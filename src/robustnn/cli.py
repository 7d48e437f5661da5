"""Command-line front end: JSON configuration parsing with factorial
expansion, sweep execution with CSV persistence, chart emission, dataset
export and the single-config breakdown probe.

Exit codes: 0 ok, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .barchart import BarEntry, render_bar_chart
from .contamination import ContaminationKind, ContaminationSpec
from .datagen import DataGenSpec, Structure, dataset_to_csv, generate_dataset
from . import experiment as exp
from .experiment import (
    LOSS_LABELS,
    LOSS_ORDER,
    Cell,
    CellSummary,
    Depth,
    ExperimentConfig,
    RunRecord,
    run_sweep,
    summarize,
)
from .losses import LossSpec
from .net import Activation, weight_vec_norm
from .optimizer import OptimizerSpec, Rule

SEED_ENV_VAR = "ROBUSTNN_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

RESULTS_HEADER = [f.name for f in fields(Cell)] + [
    "rep", "seed", "converged", "status", "epochs", "test_loss",
    "test_loss_finite", "sup_weight_norm", "breakdown",
]

SUMMARY_HEADER = [f.name for f in fields(CellSummary)]


class ConfigError(ValueError):
    """Invalid configuration document; the message names the offending key."""


# ---------------------------------------------------------------------------
# configuration parsing

_TOP_KEYS = {"data", "structure", "contamination", "activation", "depth",
             "standardize", "losses", "replications", "base_seed",
             "optimizer", "diverge_norm"}
_DATA_KEYS = {"p", "n_train", "n_test", "snr", "mu"}
_CONT_KEYS = {"kind", "r", "mu_out", "out_sd"}
_OPT_KEYS = {"rule", "eta", "delta0", "eta_plus", "eta_minus", "delta_min",
             "delta_max", "stepmax", "grad_threshold"}


def _as_list(value) -> list:
    return list(value) if isinstance(value, list) else [value]


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"missing required key '{key}'")
    return doc[key]


def _check_keys(doc: dict, allowed: set, prefix: str = "") -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key '{prefix}{key}'")


def _num(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    # json reads the tokens NaN and Infinity as floats
    if not math.isfinite(value):
        raise ConfigError(f"'{key}' must be a finite number, got {value!r}")
    return float(value)


def _int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return value


def _build(make, prefix: str, **kwargs):
    """make(**kwargs), a spec whose own checks do the range validation.
    Their ValueError messages start with the field name, so prefixing the
    config section names the offending key."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def parse_loss(token: str) -> LossSpec:
    if not isinstance(token, str):
        raise ConfigError(f"'losses' entries must be strings, got {token!r}")
    t = token.lower()
    if t == "squared":
        return LossSpec.squared()
    if t == "huber":
        return LossSpec.huber()
    if t == "tukey":
        return LossSpec.tukey()
    if t.startswith("trim"):
        try:
            pct = int(t[4:])
        except ValueError:
            raise ConfigError(f"unknown loss '{token}' in 'losses'") from None
        return _build(LossSpec.trimmed, f"'losses' entry '{token}': ", alpha=pct / 100.0)
    raise ConfigError(f"unknown loss '{token}' in 'losses'")


def _parse_enum(value, enum_cls, key: str):
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"'{key}' must be one of {{{valid}}}, got {value!r}") from None


def _parse_data(doc) -> DataGenSpec:
    if not isinstance(doc, dict):
        raise ConfigError("'data' entries must be objects")
    _check_keys(doc, _DATA_KEYS, "data.")
    p = _int(_require(doc, "p"), "data.p")
    n_train = _int(_require(doc, "n_train"), "data.n_train")
    n_test = _int(_require(doc, "n_test"), "data.n_test")
    snr = _num(doc.get("snr", 2.0), "data.snr")
    mu = _num(doc.get("mu", 0.0), "data.mu")
    return _build(DataGenSpec, "data.", p=p, n_train=n_train, n_test=n_test, snr=snr, mu=mu)


def _parse_optimizer(doc: dict, depth_stepmax: int) -> OptimizerSpec:
    _check_keys(doc, _OPT_KEYS, "optimizer.")
    kwargs = {}
    if "rule" in doc:
        kwargs["rule"] = _parse_enum(doc["rule"], Rule, "optimizer.rule")
    for key in ("eta", "delta0", "eta_plus", "eta_minus", "delta_min",
                "delta_max", "grad_threshold"):
        if key in doc:
            kwargs[key] = _num(doc[key], f"optimizer.{key}")
    kwargs["stepmax"] = (_int(doc["stepmax"], "optimizer.stepmax")
                         if "stepmax" in doc else depth_stepmax)
    return _build(OptimizerSpec, "optimizer.", **kwargs)


def expand_config(doc: dict) -> list[ExperimentConfig]:
    """Expand one configuration document into the factorial product of its
    list-valued keys. Expansion order is fixed so config ordering (and with
    it every downstream artifact) is deterministic."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    _check_keys(doc, _TOP_KEYS)

    datas = [_parse_data(d) for d in _as_list(_require(doc, "data"))]
    structures = [_parse_enum(s, Structure, "structure")
                  for s in _as_list(_require(doc, "structure"))]

    cont = _require(doc, "contamination")
    if not isinstance(cont, dict):
        raise ConfigError("'contamination' must be an object")
    _check_keys(cont, _CONT_KEYS, "contamination.")
    kinds = [_parse_enum(k, ContaminationKind, "contamination.kind")
             for k in _as_list(_require(cont, "kind"))]
    radii = [_num(v, "contamination.r") for v in _as_list(cont.get("r", 0.0))]
    mus = [_num(v, "contamination.mu_out") for v in _as_list(cont.get("mu_out", 10.0))]
    out_sd = _num(cont.get("out_sd", 1.0), "contamination.out_sd")

    activations = [_parse_enum(a, Activation, "activation")
                   for a in _as_list(_require(doc, "activation"))]
    if Activation.IDENTITY in activations:
        raise ConfigError("'activation' must be logistic or softplus")
    depths = [_parse_enum(d, Depth, "depth") for d in _as_list(_require(doc, "depth"))]
    standardizes = _as_list(_require(doc, "standardize"))
    for s in standardizes:
        if not isinstance(s, bool):
            raise ConfigError(f"'standardize' must be boolean, got {s!r}")
    loss_specs = [parse_loss(t) for t in _as_list(_require(doc, "losses"))]

    replications = _int(_require(doc, "replications"), "replications")
    base_seed = _int(_require(doc, "base_seed"), "base_seed")
    diverge_norm = _num(doc.get("diverge_norm", 1e8), "diverge_norm")

    opt_doc = doc.get("optimizer")
    if opt_doc is not None and not isinstance(opt_doc, dict):
        raise ConfigError("'optimizer' must be an object")

    cfgs = []
    for data in datas:
        for structure in structures:
            dspec = replace(data, structure=structure)
            for kind in kinds:
                for r in radii:
                    for mu_out in mus:
                        cspec = _build(ContaminationSpec, "contamination.", kind=kind,
                                       r=r, mu_out=mu_out, out_sd=out_sd)
                        for activation in activations:
                            for depth in depths:
                                opt = (_parse_optimizer(opt_doc, exp.DEPTH_STEPMAX[depth])
                                       if opt_doc is not None else None)
                                for standardize in standardizes:
                                    for loss in loss_specs:
                                        cfgs.append(_build(
                                            ExperimentConfig, "",
                                            data=dspec,
                                            contamination=cspec,
                                            activation=activation,
                                            loss=loss,
                                            standardize=standardize,
                                            depth=depth,
                                            replications=replications,
                                            base_seed=base_seed,
                                            optimizer=opt,
                                            diverge_norm=diverge_norm,
                                        ))
    # the specs built above do the range checks; with an empty list none is built
    if not cfgs:
        raise ConfigError("configuration expands to no runs: a list-valued key is empty")
    return cfgs


def parse_config(path) -> list[ExperimentConfig]:
    """Read a JSON configuration file: either one document or a list of
    documents whose expansions are concatenated."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    docs = doc if isinstance(doc, list) else [doc]
    if not docs:
        raise ConfigError(f"{path} holds an empty list of documents")
    return [cfg for entry in docs for cfg in expand_config(entry)]


def emit_config(cfgs: list[ExperimentConfig]) -> list[dict]:
    """Serialize configurations as a list of single-valued documents; parsing
    the emitted list yields an equal configuration list."""
    loss_token = exp.loss_token
    docs = []
    for cfg in cfgs:
        opt = cfg.optimizer
        doc = {
            "data": {"p": cfg.data.p, "n_train": cfg.data.n_train,
                     "n_test": cfg.data.n_test, "snr": cfg.data.snr,
                     "mu": cfg.data.mu},
            "structure": cfg.data.structure.value,
            "contamination": {"kind": cfg.contamination.kind.value,
                              "r": cfg.contamination.r,
                              "mu_out": cfg.contamination.mu_out,
                              "out_sd": cfg.contamination.out_sd},
            "activation": cfg.activation.value,
            "depth": cfg.depth.value,
            "standardize": cfg.standardize,
            "losses": [loss_token(cfg.loss)],
            "replications": cfg.replications,
            "base_seed": cfg.base_seed,
            "diverge_norm": cfg.diverge_norm,
        }
        if opt is not None:
            doc["optimizer"] = {
                "rule": opt.rule.value, "eta": opt.eta, "delta0": opt.delta0,
                "eta_plus": opt.eta_plus, "eta_minus": opt.eta_minus,
                "delta_min": opt.delta_min, "delta_max": opt.delta_max,
                "stepmax": opt.stepmax, "grad_threshold": opt.grad_threshold,
            }
        docs.append(doc)
    return docs


# ---------------------------------------------------------------------------
# CSV persistence

def fmt_float(x) -> str:
    """Locale-independent float field: empty for absent, literal Inf/NaN
    tokens for non-finite values, shortest round-trip repr otherwise."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Inf" if x > 0 else "-Inf"
    return repr(x)


def fmt_bool(x: bool) -> str:
    return "true" if x else "false"


def _cell_row(c: Cell) -> list[str]:
    return [
        c.config_id, c.structure, str(c.n), str(c.p), c.activation, c.depth,
        fmt_bool(c.standardized), c.cont_kind, fmt_float(c.r), fmt_float(c.mu_out), c.loss,
    ]


def record_row(rec: RunRecord) -> list[str]:
    return _cell_row(rec) + [
        str(rec.rep), str(rec.seed), fmt_bool(rec.converged), rec.status, str(rec.epochs),
        fmt_float(rec.test_loss), fmt_bool(rec.test_loss_finite),
        fmt_float(rec.sup_weight_norm), fmt_bool(rec.breakdown),
    ]


def write_results_csv(records: list[RunRecord], path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for rec in records:
            writer.writerow(record_row(rec))


def write_summary_csv(cells: list[CellSummary], path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for c in cells:
            writer.writerow(_cell_row(c) + [
                str(c.replications), str(c.n_converged), str(c.n_inf_losses),
                fmt_float(c.mean_finite_test_loss),
                fmt_float(c.mean_epochs_converged),
                fmt_float(c.breakdown_rate_surrogate),
            ])


def read_summary_csv(path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(config_path, out_dir, parallelism: int = 1,
            seed_override: int | None = None) -> int:
    try:
        if parallelism < 1:
            raise ConfigError(f"--parallel must be at least 1, got {parallelism}")
        cfgs = parse_config(config_path)
        cfgs = _apply_seed_override(cfgs, seed_override)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return EXIT_IO
    records = run_sweep(cfgs, parallelism=parallelism)
    cells = summarize(records)
    try:
        write_results_csv(records, out / "results.csv")
        write_summary_csv(cells, out / "summary.csv")
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return EXIT_IO
    n_runs = len(records)
    n_conv = sum(1 for rec in records if rec.converged)
    # results.csv has no error column, so the error text goes to stderr
    errors = [rec for rec in records if rec.status == exp.STATUS_ERROR]
    if errors:
        first = errors[0]
        print(f"error: {len(errors)} of {n_runs} runs failed; the first, "
              f"{first.config_id} rep {first.rep}: {first.error}", file=sys.stderr)
    print(f"{len(cfgs)} configurations, {n_runs} runs, {n_conv} converged, "
          f"{len(errors)} errors; results in {out}")
    return EXIT_OK


def _scenario_key(row: dict) -> tuple:
    return (row["structure"], row["n"], row["p"], row["cont_kind"], row["r"],
            row["mu_out"], row["activation"], row["depth"], row["standardized"])


def cmd_report(summary_path, out_dir) -> int:
    summary_path = Path(summary_path)
    if not summary_path.exists():
        print(f"error: summary file not found: {summary_path}", file=sys.stderr)
        return EXIT_CONFIG
    rows = read_summary_csv(summary_path)
    if not rows:
        print("summary is empty; nothing to report")
        return EXIT_OK
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return EXIT_IO

    scenarios: dict[tuple, list[dict]] = {}
    for row in rows:
        scenarios.setdefault(_scenario_key(row), []).append(row)

    data_rows = []
    try:
        for key in sorted(scenarios):
            group = scenarios[key]
            by_loss = {row["loss"]: row for row in group}
            ordered = [t for t in LOSS_ORDER if t in by_loss]
            ordered += [t for t in sorted(by_loss) if t not in LOSS_ORDER]
            entries = []
            for token in ordered:
                row = by_loss[token]
                mean = row["mean_finite_test_loss"]
                value = None if mean in ("", "Inf", "NaN") else float(mean)
                entries.append(BarEntry(
                    label=LOSS_LABELS.get(token, token),
                    value=value,
                    count=int(row["n_converged"]),
                    inf_flag=int(row["n_inf_losses"]) > 0,
                ))
                data_rows.append(row)
            # the config id without its loss: the configuration's scenario_id
            slug = group[0]["config_id"].removesuffix(f"_{group[0]['loss']}")
            svg = render_bar_chart(slug, entries)
            (out / f"chart_{slug}.svg").write_text(svg)
        with (out / "report_data.csv").open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SUMMARY_HEADER,
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(data_rows)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"{len(scenarios)} charts written to {out}")
    return EXIT_OK


def cmd_datagen(p: int, n_train: int, n_test: int, structure: str, snr: float,
                mu: float, seed: int, out_dir) -> int:
    try:
        spec = DataGenSpec(p=p, n_train=n_train, n_test=n_test, snr=snr, mu=mu,
                           structure=Structure(structure))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        train_ds, test_ds = generate_dataset(spec, np.random.default_rng(seed))
        dataset_to_csv(train_ds, out / "train.csv")
        dataset_to_csv(test_ds, out / "test.csv")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out / 'train.csv'} and {out / 'test.csv'}")
    return EXIT_OK


def cmd_probe(config_path, seed_override: int | None = None,
              max_lines: int = 40) -> int:
    """Breakdown probe: train replication 0 of the first configured cell,
    prepared exactly as run prepares it, and print the weight-norm
    trajectory."""
    try:
        cfgs = parse_config(config_path)
        cfgs = _apply_seed_override(cfgs, seed_override)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = cfgs[0]
    # a run that run_sweep records as status=error, such as one with a
    # degenerate standardization or diverge_norm below the initial norm,
    # ends the probe with an error message instead of a traceback
    try:
        prep = exp.prepare_run(cfg, 0)
        n0 = weight_vec_norm(prep.net)
        print(f"config {cfg.config_id}: initial weight norm {n0:.6g}")
        outcome = exp.train_run(prep, record_norms=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    hist = outcome.norm_history
    stride = max(1, len(hist) // max_lines)
    for i in range(0, len(hist), stride):
        print(f"epoch {i:>8d}  ||w|| = {hist[i]:.6g}")
    if (len(hist) - 1) % stride != 0:
        print(f"epoch {len(hist) - 1:>8d}  ||w|| = {hist[-1]:.6g}")
    print(f"status={outcome.status.value} epochs={outcome.epochs_used} "
          f"sup_norm={outcome.sup_weight_norm:.6g} "
          f"ratio={outcome.sup_weight_norm / n0 if n0 > 0 else float('inf'):.3g} "
          f"breakdown={outcome.breakdown}")
    return EXIT_OK


def _apply_seed_override(cfgs: list[ExperimentConfig],
                         seed_override: int | None) -> list[ExperimentConfig]:
    """--seed wins over ROBUSTNN_SEED wins over the config's base_seed."""
    seed = seed_override
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None:
            return cfgs
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    return [replace(cfg, base_seed=seed) for cfg in cfgs]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustnn",
        description="Robust regression network training and contamination study harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured sweep")
    p_run.add_argument("--config", required=True, help="JSON configuration file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="worker processes (default 1)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override base_seed from the config")

    p_rep = sub.add_parser("report", help="render charts from a summary.csv")
    p_rep.add_argument("--summary", required=True, help="summary.csv from 'run'")
    p_rep.add_argument("--out", required=True, help="output directory")

    p_dg = sub.add_parser("datagen", help="emit a generated dataset as CSV")
    p_dg.add_argument("--p", type=int, required=True)
    p_dg.add_argument("--n-train", type=int, required=True)
    p_dg.add_argument("--n-test", type=int, required=True)
    p_dg.add_argument("--structure", default="lin",
                      choices=[s.value for s in Structure])
    p_dg.add_argument("--snr", type=float, default=2.0)
    p_dg.add_argument("--mu", type=float, default=0.0)
    p_dg.add_argument("--seed", type=int, default=1)
    p_dg.add_argument("--out", required=True, help="output directory")

    p_pr = sub.add_parser("probe", help="print the weight-norm trajectory of "
                                        "the first configured cell")
    p_pr.add_argument("--config", required=True)
    p_pr.add_argument("--seed", type=int, default=None,
                      help="override base_seed from the config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.parallel,
                       seed_override=args.seed)
    if args.command == "report":
        return cmd_report(args.summary, args.out)
    if args.command == "datagen":
        return cmd_datagen(args.p, args.n_train, args.n_test, args.structure,
                           args.snr, args.mu, args.seed, args.out)
    if args.command == "probe":
        return cmd_probe(args.config, seed_override=args.seed)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
