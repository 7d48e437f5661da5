"""Every name the benchmark under perfbench/ takes from the package exists.

perfbench imports modules of the package and calls their functions; a
renamed or removed name would break its output checks or its trace only
when the benchmark runs. The scan reads perfbench's sources with ast:
`from robustnn import m as a` and `import robustnn.m as a` bind a module,
whose `a.attr` are the names used, and `from robustnn.m import Name`
names one directly."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
