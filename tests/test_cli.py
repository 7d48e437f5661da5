import dataclasses
import json
import math
import re
import xml.etree.ElementTree as ET
from xml.sax import saxutils

import numpy as np
import pytest

from robustnn import cli
from robustnn.barchart import BarEntry, render_bar_chart
from robustnn import experiment as exp
from robustnn.contamination import ContaminationKind, ContaminationSpec
from robustnn.datagen import DataGenSpec, generate_dataset
from robustnn.experiment import ExperimentConfig, RunRecord, run_sweep
from robustnn.losses import LossSpec
from robustnn.net import Activation


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def base_doc(**overrides):
    doc = {
        "data": {"p": 3, "n_train": 30, "n_test": 12},
        "structure": "lin",
        "contamination": {"kind": "none"},
        "activation": "logistic",
        "depth": "shallow",
        "standardize": True,
        "losses": ["squared"],
        "replications": 2,
        "base_seed": 7,
        "optimizer": {"stepmax": 1500},
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_list_keys_expand_to_product(self, tmp_path):
        doc = base_doc(losses=["squared", "huber"],
                       contamination={"kind": "y-convex", "r": [0.1, 0.25],
                                      "mu_out": 100})
        cfgs = cli.parse_config(write_config(tmp_path, doc))
        assert len(cfgs) == 4

    def test_out_of_range_radius_names_the_key(self, tmp_path):
        doc = base_doc(contamination={"kind": "y-convex", "r": 1.5, "mu_out": 10})
        with pytest.raises(cli.ConfigError, match=r"contamination\.r"):
            cli.parse_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("key,overrides", [
        ("contamination.out_sd", {"contamination": {"kind": "y-convex", "out_sd": -1.0}}),
        ("replications", {"replications": 0}),
        ("diverge_norm", {"diverge_norm": -1.0}),
        ("data.n_test", {"data": {"p": 3, "n_train": 30, "n_test": 0}}),
        ("optimizer.eta", {"optimizer": {"eta": 0.0}}),
        ("optimizer.delta_min must be positive",
         {"optimizer": {"delta_min": -1.0, "delta0": -0.5}}),
        ("'losses' entry 'trim100'", {"losses": ["trim100"]}),
        ("optimizer.rule must be one of", {"optimizer": {"rule": "sign_gd"}}),
        ("contamination.kind must be one of", {"contamination": {"kind": ["none", "bogus"]}}),
        ("structure must be one of", {"structure": ["lin", "cubic"]}),
        ("activation must be one of {logistic, softplus}, got 'relu'", {"activation": "relu"}),
        ("activation must be one of {logistic, softplus}, got 'identity'",
         {"activation": "identity"}),
        ("replications must be an integer, got 2.5", {"replications": 2.5}),
        ("replications must be an integer, got True", {"replications": True}),
        ("data.p must be an integer, got 2.5", {"data": {"p": 2.5, "n_train": 30, "n_test": 12}}),
        ("optimizer.stepmax must be an integer, got 2.5", {"optimizer": {"stepmax": 2.5}}),
        ("depth must be one of", {"depth": "medium"}),
    ])
    def test_out_of_range_value_names_the_key(self, tmp_path, key, overrides):
        doc = base_doc(**overrides)
        with pytest.raises(cli.ConfigError, match=re.escape(key)):
            cli.parse_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("key,overrides", [
        ("optimizer.grad_threshold", {"optimizer": {"grad_threshold": math.nan}}),
        ("contamination.out_sd", {"contamination": {"kind": "y-convex", "r": 0.1,
                                                    "out_sd": math.nan}}),
        ("contamination.mu_out", {"contamination": {"kind": "y-convex", "r": 0.1,
                                                    "mu_out": -math.inf}}),
        ("diverge_norm", {"diverge_norm": math.inf}),
    ])
    def test_non_finite_number_names_the_key(self, tmp_path, key, overrides):
        # json writes and reads these as the tokens NaN, Infinity, -Infinity
        path = write_config(tmp_path, base_doc(**overrides))
        with pytest.raises(cli.ConfigError, match=re.escape(f"'{key}' must be a finite")):
            cli.parse_config(path)

    def test_empty_expansion_is_rejected(self, tmp_path):
        doc = base_doc(losses=[], replications=0)
        with pytest.raises(cli.ConfigError, match="expands to no runs"):
            cli.parse_config(write_config(tmp_path, doc))
        with pytest.raises(cli.ConfigError, match="empty list of documents"):
            cli.parse_config(write_config(tmp_path, []))

    def test_unknown_key_is_named(self, tmp_path):
        doc = base_doc(surprise=1)
        with pytest.raises(cli.ConfigError, match="surprise"):
            cli.parse_config(write_config(tmp_path, doc))

    def test_unknown_nested_key_is_named(self, tmp_path):
        doc = base_doc(data={"p": 3, "n_train": 30, "n_test": 12, "rows": 9})
        with pytest.raises(cli.ConfigError, match="data.rows"):
            cli.parse_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("key,section", [("losses", None), ("structure", None),
                                             ("data", None), ("n_train", "data"),
                                             ("kind", "contamination")])
    def test_missing_key_is_named(self, tmp_path, key, section):
        doc = base_doc()
        del (doc if section is None else doc[section])[key]
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(cli.ConfigError, match=f"missing required key '{name}'"):
            cli.parse_config(write_config(tmp_path, doc))

    def test_left_out_keys_take_the_defaults_of_the_specs(self):
        # no snr, mu, r, mu_out, out_sd, diverge_norm or optimizer
        doc = base_doc(contamination={"kind": ["none", "y-iterative"]},
                       depth=["shallow", "deep"])
        del doc["optimizer"]
        data = DataGenSpec(p=3, n_train=30, n_test=12)
        assert cli.expand_config(doc) == [
            ExperimentConfig(data, ContaminationSpec(kind), Activation.LOGISTIC,
                             LossSpec.squared(), True, depth, 2, 7)
            for kind in (ContaminationKind.NONE, ContaminationKind.Y_ITERATIVE)
            for depth in (exp.Depth.SHALLOW, exp.Depth.DEEP)]

    def test_bad_loss_token(self, tmp_path):
        doc = base_doc(losses=["absolute"])
        with pytest.raises(cli.ConfigError, match="absolute"):
            cli.parse_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("token,message", [
        ("trimmed-squared", "unknown loss 'trimmed-squared' in 'losses'"),
        ("trim0", "'losses' entry 'trim0': trim_alpha must lie in (0, 1)"),
        ("TRIM100", "'losses' entry 'TRIM100': trim_alpha must lie in (0, 1)"),
        ("trim-5", "'losses' entry 'trim-5': trim_alpha must lie in (0, 1)"),
        *((token, f"unknown loss '{token}' in 'losses'")
          for token in ("trim 5", "trim+5", "trim05", "Trim50 ", "trim\u0665", "trim5_0")),
    ])
    def test_a_loss_token_is_refused_with_its_message(self, tmp_path, token, message):
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(message)}$"):
            cli.parse_config(write_config(tmp_path, base_doc(losses=["squared", token])))

    def test_full_study_grid_size(self, tmp_path):
        doc = {
            "data": [{"p": 5, "n_train": 150, "n_test": 50},
                     {"p": 20, "n_train": 500, "n_test": 200},
                     {"p": 50, "n_train": 1000, "n_test": 500}],
            "structure": ["lin", "poly", "trig"],
            "contamination": {"kind": ["none", "y-convex", "x-casewise",
                                       "xy-cellwise"],
                              "r": [0.1, 0.25, 0.4],
                              "mu_out": [10, 100, 1000]},
            "activation": ["logistic", "softplus"],
            "depth": ["shallow", "deep"],
            "standardize": [True, False],
            "losses": ["squared", "huber", "tukey", "trim10", "trim25", "trim50"],
            "replications": 100,
            "base_seed": 1,
        }
        cfgs = cli.parse_config(write_config(tmp_path, doc))
        assert len(cfgs) == 15552
        assert len({cfg.config_id for cfg in cfgs}) == 15552

    @pytest.mark.parametrize("doc,every_optional_key_set", [
        (base_doc(losses=["squared", "trim25"],
                  contamination={"kind": ["none", "xy-cellwise"], "r": 0.25,
                                 "mu_out": [10, 1000]}), False),
        (base_doc(data={"p": 3, "n_train": 30, "n_test": 12, "snr": 3.5, "mu": -0.5},
                 contamination={"kind": "y-iterative", "r": 0.5, "mu_out": 2.5,
                                "out_sd": 0.5},
                 depth=["shallow", "deep"], diverge_norm=1e6,
                 optimizer={"rule": "sign-gd", "eta": 0.05, "delta0": 0.02,
                            "eta_plus": 1.3, "eta_minus": 0.4, "delta_min": 1e-5,
                            "delta_max": 40.0, "stepmax": 1234, "grad_threshold": 0.02}),
         True),
    ])
    def test_emit_parse_round_trip(self, tmp_path, doc, every_optional_key_set):
        cfgs = cli.parse_config(write_config(tmp_path, doc))
        emitted = write_config(tmp_path, cli.emit_config(cfgs), "emitted.json")
        assert cli.parse_config(emitted) == cfgs
        if every_optional_key_set:
            # each to a value other than its default; structure is not optional
            cfg = cfgs[0]
            for spec in (cfg.data, cfg.contamination, cfg.optimizer, cfg):
                for f in dataclasses.fields(spec):
                    if f.default is not dataclasses.MISSING and f.name != "structure":
                        assert getattr(spec, f.name) != f.default, f.name

    @pytest.mark.parametrize("loss", [LossSpec.huber(1.0), LossSpec.tukey(3.0),
                                      LossSpec.trimmed(1 / 3), LossSpec.trimmed(0.001)])
    def test_emit_refuses_a_loss_no_token_spells(self, tmp_path, loss):
        # the first three would parse back as another loss (adaptive Huber,
        # tukey_k 4.685, trim_alpha 0.33) under the same config_id; the
        # last one's token, trim0, parses to no loss
        cfg = dataclasses.replace(cli.parse_config(write_config(tmp_path, base_doc()))[0],
                                  loss=loss)
        with pytest.raises(ValueError, match=re.escape(f"config {cfg.config_id}: ")) as info:
            cli.emit_config([cfg])
        assert f"'{loss.token}'" in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(tmp_path / "nope.json")

    def test_a_repeated_config_id_is_rejected_before_any_output(self, tmp_path, capsys):
        # the id leaves out snr, so these two configurations share one
        doc = base_doc(data=[{"p": 3, "n_train": 30, "n_test": 12, "snr": 2.0},
                             {"p": 3, "n_train": 30, "n_test": 12, "snr": 4.0}])
        path = write_config(tmp_path, doc)
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config(path)
        (cfg,) = {cfg.config_id for cfg in cli.expand_config(doc)}
        assert f"'{cfg}' occurs twice" in str(info.value)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"error: configuration id '{cfg}' occurs twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # the same document twice in one list repeats every id
        with pytest.raises(cli.ConfigError, match="occurs twice"):
            cli.parse_config(write_config(tmp_path, [base_doc(), base_doc()], "twice.json"))


@pytest.mark.parametrize("command, flag, unreadable", [
    ("run", "--config", "directory"), ("run", "--config", "non-utf-8"),
    ("probe", "--config", "directory"),
    ("report", "--summary", "directory"), ("report", "--summary", "non-utf-8"),
    ("run", "--config", "missing"), ("report", "--summary", "missing")])
def test_an_unreadable_input_file_is_a_named_configuration_error(tmp_path, capsys, command,
                                                                  flag, unreadable):
    path = tmp_path / "input"
    if unreadable == "directory":
        path.mkdir()
    elif unreadable == "non-utf-8":
        path.write_bytes(b'{"structure": "lin\xff"}\n')
    out = tmp_path / "out"
    argv = [command, flag, str(path)] + ([] if command == "probe" else ["--out", str(out)])
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    assert not out.exists()


class TestFloatFormatting:
    def test_tokens(self):
        assert cli.fmt_float(None) == ""
        assert cli.fmt_float(math.inf) == "Inf"
        assert cli.fmt_float(-math.inf) == "-Inf"
        assert cli.fmt_float(math.nan) == "NaN"
        assert cli.fmt_float(0.25) == "0.25"

    def test_round_trip_precision(self):
        x = 0.1 + 0.2
        assert float(cli.fmt_float(x)) == x


def fake_record(**overrides):
    base = dict(
        config_id="cfg_a", structure="lin", n=30, p=3, activation="logistic",
        depth="shallow", standardized=True, cont_kind="none", r=0.0,
        mu_out=10.0, loss="squared", rep=0, seed=123, converged=True,
        status="converged", epochs=10, test_loss=0.5, sup_weight_norm=4.0,
        breakdown=False)
    base.update(overrides)
    return RunRecord(**base)


class TestResultsCsv:
    def test_infinite_loss_serializes_as_literal_inf(self, tmp_path):
        rec = fake_record(test_loss=math.inf)
        path = tmp_path / "results.csv"
        cli.write_results_csv([rec], path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(cli.RESULTS_HEADER)
        fields = lines[1].split(",")
        header_index = cli.RESULTS_HEADER.index
        assert fields[header_index("test_loss")] == "Inf"
        assert fields[header_index("test_loss_finite")] == "false"
        assert fields[header_index("converged")] == "true"

    def test_nonconverged_loss_field_empty(self, tmp_path):
        rec = fake_record(converged=False, status="step-limit", test_loss=None)
        path = tmp_path / "r.csv"
        cli.write_results_csv([rec], path)
        fields = path.read_text().splitlines()[1].split(",")
        assert fields[cli.RESULTS_HEADER.index("test_loss")] == ""


class TestCmdRun:
    def test_tiny_run_row_count_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        assert cli.cmd_run(cfg, tmp_path / "out1") == 0
        assert cli.cmd_run(cfg, tmp_path / "out2", parallelism=2) == 0
        res1 = (tmp_path / "out1" / "results.csv").read_bytes()
        res2 = (tmp_path / "out2" / "results.csv").read_bytes()
        assert res1 == res2
        sum1 = (tmp_path / "out1" / "summary.csv").read_bytes()
        sum2 = (tmp_path / "out2" / "summary.csv").read_bytes()
        assert sum1 == sum2
        assert len(res1.decode().splitlines()) == 3  # header + V=2 rows

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(losses=["nope"]))
        assert cli.cmd_run(cfg, tmp_path / "out") == 2

    def test_unwritable_output_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert cli.cmd_run(cfg, blocker / "sub") == 3

    @pytest.mark.parametrize("parallel", ["0", "-2"])
    def test_parallelism_below_one_is_a_config_error(self, tmp_path, capsys, parallel):
        cfg = write_config(tmp_path, base_doc())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--parallel", parallel]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --parallel must be at least 1, got {parallel}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mu_out", [0, -1.0])
    def test_a_non_positive_attacker_bound_is_a_config_error(self, tmp_path, capsys, mu_out):
        # the adaptive attacker's offset is bounded by mu_out; without this
        # check every run would fail after its first epoch
        doc = base_doc(contamination={"kind": ["none", "y-iterative"], "r": 0.5,
                                      "mu_out": mu_out})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path, doc)),
                         "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: contamination.mu_out must be positive"), err
        assert not out.exists()

    def test_a_run_that_fails_to_prepare_is_reported(self, tmp_path, capsys, monkeypatch):
        # six same-shape runs (three losses, two reps) train as one queue;
        # one of them fails to prepare and the rest train on
        doc = base_doc(losses=["squared", "huber", "trim25"],
                       contamination={"kind": "y-convex", "r": 0.2, "mu_out": 10})
        cfg = write_config(tmp_path, doc)
        assert cli.cmd_run(cfg, tmp_path / "clean") == 0
        assert capsys.readouterr().out.startswith("3 configurations, 6 runs, ")

        prepare = exp._prepare_net

        def failing(cfg, rep, scenario):
            if cfg.config_id.endswith("_huber") and rep == 1:
                raise RuntimeError("no data for this run")
            return prepare(cfg, rep, scenario)

        monkeypatch.setattr(exp, "_prepare_net", failing)
        assert cli.cmd_run(cfg, tmp_path / "failed") == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].startswith(
            "3 configurations, 6 runs, ") and ", 1 errors; results in " in captured.out
        assert re.fullmatch(r"error: 1 of 6 runs failed; the first, \S+_huber rep 1: "
                            r"RuntimeError: no data for this run\n", captured.err)

        clean = (tmp_path / "clean" / "results.csv").read_text().splitlines()
        failed = (tmp_path / "failed" / "results.csv").read_text().splitlines()
        assert len(clean) == len(failed) == 7
        header = failed[0].split(",")
        for before, after in zip(clean, failed):
            row = dict(zip(header, after.split(",")))
            if row.get("loss") == "huber" and row["rep"] == "1":
                assert row["status"] == "error" and row["epochs"] == "0"
                assert row["converged"] == "false" and row["sup_weight_norm"] == "NaN"
                assert after.split(",")[:13] == before.split(",")[:13]
            else:
                assert after == before

    def test_the_seed_option_replaces_the_files_base_seed(self, tmp_path, capsys):
        # run and probe on a file with base_seed 3 and --seed 7 write what
        # they write for the same file with base_seed 7, not what base_seed 3 gives
        paths = {seed: write_config(tmp_path, base_doc(base_seed=seed), f"seed{seed}.json")
                 for seed in (3, 7)}
        written = {}
        for name, path, flag in [("three", paths[3], []), ("seven", paths[7], []),
                                 ("three --seed 7", paths[3], ["--seed", "7"])]:
            out = tmp_path / f"out{len(written)}"
            assert cli.main(["run", "--config", str(path), "--out", str(out)] + flag) == 0
            capsys.readouterr()
            assert cli.main(["probe", "--config", str(path)] + flag) == 0
            written[name] = ((out / "results.csv").read_bytes(),
                             (out / "summary.csv").read_bytes(), capsys.readouterr().out)
        for got, seven, three in zip(written["three --seed 7"], written["seven"],
                                     written["three"]):
            assert got == seven
            assert got != three


class TestCmdReport:
    def run_and_report(self, tmp_path, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.cmd_run(cfg, out) == 0
        charts = tmp_path / "charts"
        assert cli.cmd_report(out / "summary.csv", charts) == 0
        return charts

    def test_one_chart_per_scenario_all_well_formed(self, tmp_path):
        doc = base_doc(losses=["squared", "huber"],
                       contamination={"kind": ["none", "y-convex"],
                                      "r": 0.25, "mu_out": 100})
        charts = self.run_and_report(tmp_path, doc)
        svgs = sorted(charts.glob("*.svg"))
        assert len(svgs) == 2
        for svg in svgs:
            root = ET.parse(svg).getroot()
            assert root.tag.endswith("svg")
        assert (charts / "report_data.csv").exists()

    GOOD_ROW = "s_lin_squared,lin,30,3,logistic,shallow,true,none,0.0,10.0,squared,4,3,1,0.5,10.0,0.25"
    # a scenario that charts as chart_a.svg, then one whose scenario part is {}
    TWO_SCENARIOS = (GOOD_ROW.replace("s_lin_squared,lin,", "a_squared,lin,") + "\n"
                     + GOOD_ROW.replace("s_lin_squared,lin,", "{}_squared,poly,"))

    @pytest.mark.parametrize("header,row,message", [
        ("config_id,loss", "x,squared", "column 2 is 'loss', expected 'structure'"),
        (",".join(cli.SUMMARY_HEADER[:-1]), GOOD_ROW.rsplit(",", 1)[0],
         "column 17 is None, expected 'breakdown_rate_surrogate'"),
        (",".join(cli.SUMMARY_HEADER + ["extra"]), GOOD_ROW + ",1",
         "column 18 is 'extra', expected None"),
        (",".join(cli.SUMMARY_HEADER), GOOD_ROW.replace(",4,3,1,", ",4,3.0,1,"),
         "line 2, column 'n_converged': '3.0' is not a count"),
        (",".join(cli.SUMMARY_HEADER), GOOD_ROW.replace(",4,3,1,", ",4,3,-1,"),
         "line 2, column 'n_inf_losses': '-1' is not a count"),
        (",".join(cli.SUMMARY_HEADER), GOOD_ROW.replace(",0.5,", ",half,"),
         "line 2, column 'mean_finite_test_loss': 'half' is not a number"),
        (",".join(cli.SUMMARY_HEADER), GOOD_ROW.rsplit(",", 1)[0], "line 2 has 16 fields"),
        # one chart could show only one of the two squared cells
        (",".join(cli.SUMMARY_HEADER),
         "\n".join([GOOD_ROW, GOOD_ROW.replace("squared", "huber"),
                    GOOD_ROW.replace(",0.5,", ",0.75,")]),
         "lines 2 and 4 hold one scenario's 'squared' cell"),
        # both scenarios would be written to chart_X.svg, the second over the first
        (",".join(cli.SUMMARY_HEADER),
         GOOD_ROW.replace("s_lin_squared,lin,", "X_squared,lin,") + "\n"
         + GOOD_ROW.replace("s_lin_squared,lin,", "X_huber,poly,").replace(",squared,", ",huber,"),
         "config ids 'X_squared' and 'X_huber' belong to two scenarios that would both be "
         "charted as chart_X.svg"),
        # more than the csv module reads in one field
        (",".join(cli.SUMMARY_HEADER), GOOD_ROW.replace("s_lin_", "s" * 131072 + "_"),
         "line 2: field larger than field limit (131072)"),
        # chart names that are not a file name in the output directory
        (",".join(cli.SUMMARY_HEADER), TWO_SCENARIOS.format("b/c"),
         "config id 'b/c_squared' would be charted under a name that is not"),
        (",".join(cli.SUMMARY_HEADER), TWO_SCENARIOS.format("b\0c"),
         "config id 'b\\x00c_squared' would be charted under a name that is not"),
        (",".join(cli.SUMMARY_HEADER), TWO_SCENARIOS.format("b" * 246),
         f"config id '{'b' * 246}_squared' would be charted under a name that is not"),
    ], ids=["foreign-header", "short-header", "extra-column", "float-count",
            "negative-count", "word-mean", "short-row", "repeated-cell", "shared-chart-name",
            "oversized-field", "slash-in-chart-name", "nul-in-chart-name", "long-chart-name"])
    def test_a_summary_run_did_not_write_is_a_named_error(self, tmp_path, capsys,
                                                           header, row, message):
        summary = tmp_path / "summary.csv"
        summary.write_text(f"{header}\n{row}\n")
        charts = tmp_path / "charts"
        assert cli.main(["report", "--summary", str(summary), "--out", str(charts)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {summary}: ") and message in err
        assert not charts.exists()

    def test_the_longest_chart_name_fills_a_file_name(self, tmp_path):
        # chart_<245 characters>.svg is 255 bytes, the most a file name holds
        summary = tmp_path / "summary.csv"
        summary.write_text(f"{','.join(cli.SUMMARY_HEADER)}\n"
                           f"{self.TWO_SCENARIOS.format('b' * 245)}\n")
        charts = tmp_path / "charts"
        assert cli.main(["report", "--summary", str(summary), "--out", str(charts)]) == 0
        assert sorted(p.name for p in charts.glob("*.svg")) == \
            ["chart_a.svg", f"chart_{'b' * 245}.svg"]

    def test_missing_bar_and_inf_annotation(self, tmp_path):
        # hand-written summary: one cell converged with an infinite loss,
        # one cell with nothing converged at all
        header = ",".join(cli.SUMMARY_HEADER)
        rows = [
            "s_lin_squared,lin,30,3,logistic,shallow,true,none,0.0,10.0,squared,"
            "4,3,1,0.5,10.0,0.25",
            "s_lin_huber,lin,30,3,logistic,shallow,true,none,0.0,10.0,huber,"
            "4,0,0,,,1.0",
        ]
        summary = tmp_path / "summary.csv"
        summary.write_text(header + "\n" + "\n".join(rows) + "\n")
        charts = tmp_path / "charts"
        assert cli.cmd_report(summary, charts) == 0
        (svg_path,) = sorted(charts.glob("*.svg"))
        text = svg_path.read_text()
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        rects = root.findall(f"{ns}rect")
        # background plus exactly one bar: the huber cell has no bar
        assert len(rects) == 2
        labels = [t.text for t in root.findall(f"{ns}text")]
        assert "Inf" in labels
        assert "Huber" in labels and "Squared" in labels

    @pytest.mark.parametrize("mean", ["inf", "nan", "Infinity", "1e400"])
    def test_a_mean_that_is_not_finite_gets_no_bar(self, tmp_path, mean):
        # any text float() reads as inf or NaN is charted as run's Inf is
        def chart(written, name):
            rows = [self.GOOD_ROW.replace(",0.5,", f",{written},"),
                    self.GOOD_ROW.replace("squared", "huber")]
            summary = tmp_path / name / "summary.csv"
            summary.parent.mkdir()
            summary.write_text("\n".join([",".join(cli.SUMMARY_HEADER), *rows]) + "\n")
            charts = tmp_path / name / "charts"
            assert cli.main(["report", "--summary", str(summary), "--out", str(charts)]) == 0
            (svg,) = charts.glob("*.svg")
            return svg.read_text()

        assert chart(mean, "given") == chart("Inf", "want")

    def test_each_bar_is_labelled_with_its_capitalised_token(self, tmp_path):
        header = ",".join(cli.SUMMARY_HEADER)
        tokens = ["squared", "huber", "tukey", "trim10", "trim25", "trim50", "trim33", "trim5"]
        rows = [f"s_lin_{t},lin,30,3,logistic,shallow,true,none,0.0,10.0,{t},4,3,0,0.5,10.0,0.25"
                for t in tokens]
        summary = tmp_path / "summary.csv"
        summary.write_text(header + "\n" + "\n".join(rows) + "\n")
        charts = tmp_path / "charts"
        assert cli.cmd_report(summary, charts) == 0
        (svg_path,) = sorted(charts.glob("*.svg"))
        labels = [t.text for t in ET.parse(svg_path).iter("{http://www.w3.org/2000/svg}text")]
        # in the report's order: the standard losses first, then by token
        bars = [label for label in labels if label in {t.capitalize() for t in tokens}]
        assert bars == ["Squared", "Huber", "Tukey", "Trim10", "Trim25", "Trim50",
                        "Trim33", "Trim5"]

    def test_chart_text_is_escaped_as_xml_text(self):
        # &, < and > become entities, quotes stay, as xml.sax.saxutils.escape
        # has it
        odd = """a&b <c> "d" 'e'"""
        svg = render_bar_chart(odd, [BarEntry(odd, 1.0, 2, False)])
        want = saxutils.escape(odd)
        assert want == "a&amp;b &lt;c&gt; \"d\" 'e'"
        assert svg.count(f">{want}</text>") == 2
        assert ">mean finite test loss (log scale)</text>" in svg
        texts = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count(odd) == 2 and "mean finite test loss (log scale)" in texts

    def test_empty_summary_is_a_noop(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        summary.write_text(",".join(cli.SUMMARY_HEADER) + "\n")
        assert cli.cmd_report(summary, tmp_path / "charts") == 0
        assert "nothing to report" in capsys.readouterr().out


class TestCmdDatagenAndProbe:
    def test_datagen_writes_csvs(self, tmp_path):
        code = cli.cmd_datagen(3, 20, 8, "trig", 2.0, 0.0, 5, tmp_path / "dg")
        assert code == 0
        spec = DataGenSpec(p=3, n_train=20, n_test=8, structure="trig")
        for name, data in zip(("train", "test"),
                              generate_dataset(spec, np.random.default_rng(5))):
            header, *lines = (tmp_path / "dg" / f"{name}.csv").read_text().splitlines()
            assert header == "x1,x2,x3,y"
            values = np.array([[float(field) for field in line.split(",")] for line in lines])
            # every value exactly, each written as its shortest repr
            assert values.shape == (data.n, 4)
            assert values.tobytes() == np.column_stack([data.X, data.Y]).tobytes()
            assert lines == [",".join(map(repr, row)) for row in values.tolist()]

    def test_datagen_rejects_a_negative_seed_before_writing(self, tmp_path, capsys):
        out = tmp_path / "D"
        code = cli.main(["datagen", "--p", "3", "--n-train", "10", "--n-test", "5",
                         "--seed", "-1", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("mu", ["nan", "inf", "-inf"])
    def test_datagen_rejects_a_non_finite_mu_before_writing(self, tmp_path, capsys, mu):
        out = tmp_path / "D"
        code = cli.main(["datagen", "--p", "3", "--n-train", "10", "--n-test", "5",
                         f"--mu={mu}", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: mu must be finite, got {mu}\n"
        assert not out.exists()

    def test_probe_prints_trajectory(self, tmp_path, capsys):
        doc = base_doc(standardize=False,
                       contamination={"kind": "y-convex", "r": 0.1,
                                      "mu_out": 1000},
                       optimizer={"rule": "sign-gd", "stepmax": 200})
        cfg = write_config(tmp_path, doc)
        assert cli.cmd_probe(cfg) == 0
        out = capsys.readouterr().out
        assert "||w||" in out
        assert "status=" in out

    @pytest.mark.parametrize("overrides", [
        dict(standardize=False, contamination={"kind": "y-iterative", "r": 0.5, "mu_out": 1.0},
             optimizer={"rule": "sign-gd", "stepmax": 300}),
        dict(standardize=False, contamination={"kind": "y-convex", "r": 0.1, "mu_out": 100},
             optimizer={"rule": "sign-gd", "stepmax": 300}),
        dict(standardize=True, contamination={"kind": "x-casewise", "r": 0.25, "mu_out": 100},
             activation="softplus", losses=["trim25"],
             optimizer={"rule": "rprop-plus", "stepmax": 500}),
    ])
    def test_probe_trains_the_run_of_rep_zero(self, tmp_path, capsys, overrides):
        # the probe's final line matches the run's row in run's results.csv
        path = write_config(tmp_path, base_doc(replications=1, **overrides))
        assert cli.cmd_probe(path) == 0
        out = capsys.readouterr().out.splitlines()
        assert cli.cmd_run(path, tmp_path / "out") == 0
        header, line = (tmp_path / "out" / "results.csv").read_text().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert row["rep"] == "0" and out[0].startswith(f"config {row['config_id']}: ")
        assert out[-1].startswith(f"status={row['status']} epochs={row['epochs']} "
                                  f"sup_norm={float(row['sup_weight_norm']):.6g} ")

    @pytest.mark.parametrize("overrides", [
        {"data": {"p": 3, "n_train": 1, "n_test": 12}},  # one response to standardize
        {"diverge_norm": 1.0},                           # below the initial weight norm
    ])
    def test_probe_reports_a_failed_run_as_an_error(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, base_doc(**overrides))
        assert cli.cmd_probe(path) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert run_sweep(cli.parse_config(path)[:1])[0].status == "error"

    def test_main_dispatch(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "m")]) == 0
        assert cli.main(["report", "--summary", str(tmp_path / "m" / "summary.csv"),
                         "--out", str(tmp_path / "mc")]) == 0
