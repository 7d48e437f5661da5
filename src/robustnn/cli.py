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
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from enum import Enum
from itertools import product, zip_longest
from operator import attrgetter
from pathlib import Path

import numpy as np

from ._spec import member
from .barchart import BarEntry, render_bar_chart
from .contamination import ContaminationSpec
from .datagen import DataGenSpec, Structure, dataset_to_csv, generate_dataset
from . import experiment as exp
from .experiment import (
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
from .optimizer import OptimizerSpec, train

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

def _as_list(value) -> list:
    return list(value) if isinstance(value, list) else [value]


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"missing required key '{key}'")
    return doc[key]


def _num(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {value!r}")
    # json reads the tokens NaN and Infinity as floats
    if not math.isfinite(value):
        raise ConfigError(f"'{key}' must be a finite number, got {value!r}")
    return float(value)


def _bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"'{key}' must be boolean, got {value!r}")
    return value


# JSON type checks by a field's annotation; the specs check every other
# value themselves
_CHECKS = {"float": _num, "bool": _bool}


def _build(make, prefix: str, *args, **kwargs):
    """make(*args, **kwargs), a spec whose own checks do the range and
    enum validation. Their ValueError messages start with the field name,
    so prefixing the config section names the offending key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _section(doc, cls, prefix: str, lists=(), skip=(), extra=()) -> dict[str, list]:
    """The values a configuration section gives the fields of cls, by field
    name in field order, each a list: the keys in lists may hold a list of
    values, the others hold one. A key that the section leaves out is left
    out, so that the field's default applies; the fields in skip are not
    keys of the section, and the keys in extra are read elsewhere."""
    if not isinstance(doc, dict):
        raise ConfigError(f"'{prefix[:-1]}' must be an object")
    known = {f.name: f for f in fields(cls) if f.name not in skip}
    for key in doc:
        if key not in known and key not in extra:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    section = {}
    for name, f in known.items():
        if name in doc:
            check = _CHECKS.get(f.type, lambda value, key: value)
            values = _as_list(doc[name]) if name in lists else [doc[name]]
            section[name] = [check(value, prefix + name) for value in values]
        elif f.default is MISSING:
            raise ConfigError(f"missing required key '{prefix}{name}'")
    return section


def _specs(cls, prefix: str, section: dict[str, list]) -> list:
    """cls built from each combination of the section's values, the last
    field varying fastest."""
    return [_build(cls, prefix, **dict(zip(section, values)))
            for values in product(*section.values())]


def parse_loss(token: str) -> LossSpec:
    if not isinstance(token, str):
        raise ConfigError(f"'losses' entries must be strings, got {token!r}")
    loss = _build(LossSpec.from_token, f"'losses' entry '{token}': ", token)
    if loss is None:
        raise ConfigError(f"unknown loss '{token}' in 'losses'")
    return loss


def expand_config(doc: dict) -> list[ExperimentConfig]:
    """Expand one configuration document into the factorial product of its
    list-valued keys. Expansion order is fixed so config ordering (and with
    it every downstream artifact) is deterministic."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    # the top level sets ExperimentConfig's fields, with the losses as a
    # list of tokens and the data's structure beside the data
    top = _section(doc, ExperimentConfig, "", lists=("data", "activation", "depth", "standardize"),
                   skip=("loss",), extra=("structure", "losses"))
    structures = _as_list(_require(doc, "structure"))
    losses = [parse_loss(t) for t in _as_list(_require(doc, "losses"))]
    datas = [_build(replace, "", data, structure=structure)
             for entry in top.pop("data")
             for data in _specs(DataGenSpec, "data.",
                                _section(entry, DataGenSpec, "data.", skip=("structure",)))
             for structure in structures]
    conts = _specs(ContaminationSpec, "contamination.",
                   _section(top.pop("contamination")[0], ContaminationSpec, "contamination.",
                            lists=("kind", "r", "mu_out")))
    depths = [_build(member, "", Depth, depth, "depth") for depth in top.pop("depth")]
    activations, standardizes = top.pop("activation"), top.pop("standardize")
    opt_doc = top.pop("optimizer", [None])[0]
    opt = None if opt_doc is None else _section(opt_doc, OptimizerSpec, "optimizer.")
    # an optimizer section without stepmax takes the depth's epoch cap
    optimizers = [None if opt is None else _specs(
        OptimizerSpec, "optimizer.", {"stepmax": [exp.DEPTH_STEPMAX[depth]], **opt})[0]
        for depth in depths]
    fixed = {name: value for name, (value,) in top.items()}

    cfgs = [_build(ExperimentConfig, "", data=data, contamination=cont, activation=activation,
                   depth=depth, optimizer=optimizer, standardize=standardize, loss=loss, **fixed)
            for data, cont, activation, (depth, optimizer), standardize, loss
            in product(datas, conts, activations, zip(depths, optimizers), standardizes, losses)]
    # the specs built above do the range checks; with an empty list none is built
    if not cfgs:
        raise ConfigError("configuration expands to no runs: a list-valued key is empty")
    return cfgs


def parse_config(path, base_seed: int | None = None) -> list[ExperimentConfig]:
    """Read a JSON configuration file: either one document or a list of
    documents whose expansions are concatenated. Two configurations with
    one config_id are rejected (see experiment.check_unique_ids). A
    base_seed, the --seed option, replaces every configuration's own. A
    file that cannot be opened or decoded as text is a ConfigError naming
    it."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    docs = doc if isinstance(doc, list) else [doc]
    if not docs:
        raise ConfigError(f"{path} holds an empty list of documents")
    cfgs = [cfg for entry in docs for cfg in expand_config(entry)]
    _build(exp.check_unique_ids, "", cfgs)
    if base_seed is None:
        return cfgs
    return [replace(cfg, base_seed=base_seed) for cfg in cfgs]


def _section_doc(spec) -> dict:
    """A spec's fields as a configuration section: a spec-valued field as
    its own section, an enum member as its string, None left out."""
    doc = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if is_dataclass(value):
            value = _section_doc(value)
        elif isinstance(value, Enum):
            value = value.value
        if value is not None:
            doc[f.name] = value
    return doc


def emit_config(cfgs: list[ExperimentConfig]) -> list[dict]:
    """Serialize configurations as a list of single-valued documents; parsing
    the emitted list yields an equal configuration list. A loss that no
    'losses' token spells, such as a fixed Huber threshold, is a ValueError."""
    docs = []
    for cfg in cfgs:
        token = cfg.loss.token
        if _build(parse_loss, f"config {cfg.config_id}: ", token) != cfg.loss:
            raise ValueError(f"config {cfg.config_id}: '{token}' does not spell loss {cfg.loss}")
        doc = _section_doc(cfg)
        doc["structure"] = doc["data"].pop("structure")
        del doc["loss"]
        doc["losses"] = [token]
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


# a column's format by the annotation of the field or property it shows
_FORMATS = {"str": str, "int": str, "bool": fmt_bool, "float": fmt_float,
            "float | None": fmt_float}


def _write_csv(rows: list, cls, header: list[str], path) -> None:
    """One line per row: the header's attributes, each formatted by the
    type that cls declares for it, column by column."""
    types = {f.name: f.type for f in fields(cls)}
    columns = [map(_FORMATS[types[name] if name in types
                            else getattr(cls, name).fget.__annotations__["return"]],
                   map(attrgetter(name), rows))
               for name in header]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))


def write_results_csv(records: list[RunRecord], path) -> None:
    _write_csv(records, RunRecord, RESULTS_HEADER, path)


def write_summary_csv(cells: list[CellSummary], path) -> None:
    _write_csv(cells, CellSummary, SUMMARY_HEADER, path)


def read_summary_csv(path) -> list[dict]:
    """The rows of a summary.csv as run writes it. Raises ConfigError naming
    the file and the column for another header, a row of another length, a
    count that is not an integer or a mean that is not a number, and for a
    file it cannot open or decode as text."""
    try:
        with Path(path).open(newline="") as fh:
            header, *lines = list(csv.reader(fh)) or [[]]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if header != SUMMARY_HEADER:
        i, found, wanted = next((i, a, b) for i, (a, b) in
                                enumerate(zip_longest(header, SUMMARY_HEADER)) if a != b)
        raise ConfigError(f"{path}: column {i + 1} is {found!r}, expected {wanted!r}")
    rows = [dict(zip(header, line)) for line in lines]
    for number, (line, row) in enumerate(zip(lines, rows), start=2):
        where = f"{path}: line {number}"
        if len(line) != len(header):
            raise ConfigError(f"{where} has {len(line)} fields, expected {len(header)}")
        for column in ("replications", "n_converged", "n_inf_losses"):
            if not row[column].isdecimal():
                raise ConfigError(f"{where}, column '{column}': {row[column]!r} is not a count")
        try:
            float(row["mean_finite_test_loss"] or 0.0)
        except ValueError:
            raise ConfigError(f"{where}, column 'mean_finite_test_loss': "
                              f"{row['mean_finite_test_loss']!r} is not a number") from None
    return rows


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(config_path, out_dir, parallelism: int = 1,
            seed_override: int | None = None) -> int:
    try:
        if parallelism < 1:
            raise ConfigError(f"--parallel must be at least 1, got {parallelism}")
        cfgs = parse_config(config_path, seed_override)
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
    try:
        rows = read_summary_csv(summary_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
                # no bar for a mean that is absent or not finite
                value = float(row["mean_finite_test_loss"] or "nan")
                entries.append(BarEntry(
                    label=token.capitalize(),
                    value=value if math.isfinite(value) else None,
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
        if seed < 0:
            raise ValueError(f"--seed must be non-negative, got {seed}")
        spec = DataGenSpec(p=p, n_train=n_train, n_test=n_test, snr=snr, mu=mu,
                           structure=structure)
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
        cfgs = parse_config(config_path, seed_override)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = cfgs[0]
    # a run that run_sweep records as status=error, such as one with a
    # degenerate standardization or diverge_norm below the initial norm,
    # ends the probe with an error message instead of a traceback
    try:
        prep = exp.prepare_run(cfg, 0)
        n0 = float(np.linalg.norm(prep.net.params))
        print(f"config {cfg.config_id}: initial weight norm {n0:.6g}")
        outcome = train(prep.net, prep.scenario.train, cfg.loss, cfg.resolved_optimizer(),
                        cfg.diverge_norm, record_norms=True,
                        epoch_end_hook=prep.scenario.hook)
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
    data_defaults = {f.name: f.default for f in fields(DataGenSpec)}
    p_dg.add_argument("--structure", default=data_defaults["structure"].value,
                      choices=[s.value for s in Structure])
    p_dg.add_argument("--snr", type=float, default=data_defaults["snr"])
    p_dg.add_argument("--mu", type=float, default=data_defaults["mu"])
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
