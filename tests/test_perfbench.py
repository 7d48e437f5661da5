"""Every name the benchmark under perfbench/ takes from the package exists.

perfbench imports modules of the package and calls their functions; a
renamed or removed name would break its output checks or its trace only
when the benchmark runs. The scan reads perfbench's sources with ast:
`from robustnn import m as a` and `import robustnn.m as a` bind a module,
whose `a.attr` are the names used, and `from robustnn.m import Name`
names one directly.

perfbench also re-derives each run itself (replay.replay_run: the seed
keys, the architecture, the optimizer and the call of train) to check the
rows of results.csv. A change to any of these under src/ must keep that
replay equal to what run records."""

import ast
import importlib
import json
from pathlib import Path

from robustnn import cli
from robustnn.contamination import ContaminationKind
from robustnn.experiment import run_sweep

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def used_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for every package name a module's source uses."""
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "robustnn":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("robustnn."):
            names.update((node.module.partition(".")[2], a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update((a.asname, a.name.partition(".")[2]) for a in node.names
                           if a.name.startswith("robustnn.") and a.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def perfbench_names() -> set[tuple[str, str]]:
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= used_names(ast.parse(path.read_text(), filename=path.name))
    return names


def test_the_scan_finds_the_names_perfbench_uses():
    names = perfbench_names()
    assert len(names) >= 32
    assert {("net", "forward_batch"), ("net", "predict"), ("losses", "trimmed_select"),
            ("optimizer", "train"), ("experiment", "run_sweep"),
            ("experiment", "derive_seed")} <= names


def test_every_name_perfbench_uses_exists():
    missing = sorted(f"{module}.{name}" for module, name in perfbench_names()
                     if not hasattr(importlib.import_module(f"robustnn.{module}"), name))
    assert missing == []


def test_the_replay_equals_each_record_of_a_sweep(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    replay = importlib.import_module("replay")
    # configs/desk_demo.json with every contamination kind and two
    # replications; at the depth's cap of 100k epochs four y-iterative
    # trimmed runs take over a minute, so the cap is 1000: they still stop
    # at it
    doc = json.loads((ROOT / "configs" / "desk_demo.json").read_text())
    doc["contamination"]["kind"] = [kind.value for kind in ContaminationKind]
    doc["replications"] = 2
    doc["optimizer"] = {"stepmax": 1000}
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(doc))
    cfgs = {cfg.config_id: cfg for cfg in cli.parse_config(path)}
    records = run_sweep(list(cfgs.values()))
    assert len(records) == 60
    assert {rec.status for rec in records} == {"converged", "step-limit"}
    for rec in records:
        fields = replay.replay_run(cfgs[rec.config_id], rec.rep).fields
        assert fields == {name: getattr(rec, name) for name in fields}
