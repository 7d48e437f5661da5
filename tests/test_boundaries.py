"""Four boundaries inside the package.

The standalone route stays out of production: of the package's modules,
only net.py and losses.py, which define it, name its functions. The
trainer and the test predictions run on BatchKernel and the slot loss
groups; tests and perfbench call the standalone route.

The contamination kinds that replace data up front are named only in
contamination.py, whose apply_contamination draws them all, so a change
to how they are drawn is an edit in one place.

In the trainer, only the loss group knows that a trimmed loss sums and
averages its kept rows rather than all of them; the slots lay runs out
without asking which loss trims. net.BatchKernel runs the forward and
backward passes only: each loss group gathers and sums its own rows.

No module reads the environment: a run's settings come from its
configuration file and the command line, which its outputs follow from."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "robustnn"
STANDALONE = {"forward_batch", "predict", "BatchTrace", "batch_deltas", "mean_gradient_vector",
              "loss_value", "loss_gradient", "trimmed_select", "TrimResult",
              "adaptive_huber_delta"}
PRODUCTION = sorted(p.name for p in PACKAGE.glob("*.py") if p.name not in ("net.py", "losses.py"))
# experiment.py may name Y_ITERATIVE: it builds the adaptive attacker
UP_FRONT_KINDS = {"Y_CONVEX", "X_CASEWISE", "XY_CELLWISE"}
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
TRIMMING = {"is_trimmed", "trim_count", "trim_alpha", "_trim_rows"}
ENVIRONMENT = {"environ", "getenv", "putenv"}
# what summing, or gathering kept rows, would name
SUMMING = {"take", "kept", "_sum_steps", "_gradient_sum"}


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name.rpartition(".")[2], node.asname))
    return names


def test_the_production_modules_are_found():
    assert {"cli.py", "experiment.py", "optimizer.py"} <= set(PRODUCTION)


@pytest.mark.parametrize("module", PRODUCTION)
def test_a_production_module_names_no_standalone_function(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert referenced_names(tree) & STANDALONE == set()


def test_the_kind_names_are_found_where_they_are_defined():
    tree = ast.parse((PACKAGE / "contamination.py").read_text(), filename="contamination.py")
    assert UP_FRONT_KINDS <= referenced_names(tree)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "contamination.py"])
def test_only_contamination_names_the_up_front_kinds(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert referenced_names(tree) & UP_FRONT_KINDS == set()


def trainer_parts() -> tuple[ast.AST, ast.Module]:
    """optimizer.py's _LossGroup class, and the module without it."""
    tree = ast.parse((PACKAGE / "optimizer.py").read_text(), filename="optimizer.py")
    (group,) = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "_LossGroup"]
    rest = ast.Module([node for node in tree.body if node is not group], type_ignores=[])
    return group, rest


def test_the_loss_group_names_the_trimming():
    group, _ = trainer_parts()
    assert TRIMMING <= referenced_names(group)


def test_only_the_loss_group_names_the_trimming():
    _, rest = trainer_parts()
    assert referenced_names(rest) & TRIMMING == set()


def test_the_batch_kernel_does_not_sum():
    tree = ast.parse((PACKAGE / "net.py").read_text(), filename="net.py")
    (kernel,) = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "BatchKernel"]
    assert referenced_names(kernel) & SUMMING == set()


def test_the_loss_group_sums():
    group, _ = trainer_parts()
    assert SUMMING <= referenced_names(group)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_the_environment(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert referenced_names(tree) & ENVIRONMENT == set()
