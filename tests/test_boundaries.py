"""Six boundaries inside the package.

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
configuration file and the command line, which its outputs follow from.

The package trains a run alone in one place: optimizer.train is the one
caller that sets train_slots' slot count. run and probe both train
through train_slots, run through its sweep queues and probe through
train.

Nothing in the package is there for the tests alone: each module-level
function and class, and each method that is not a dunder, is named
somewhere besides its own definition. What counts is the package's code,
the words of its strings other than docstrings (a header lists the
properties its columns read), perfbench's sources, README's inline code
and python blocks, and pyproject.toml. A name that no such place names
is deleted, not kept for a test."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "robustnn"
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
# definitions kept for a use that is planned, with the ROADMAP item
UNUSED_ALLOWED = {"cli.emit_config": "ROADMAP item 1b"}


def name_counts(tree: ast.AST) -> Counter:
    """How often a tree reads, imports or takes as an attribute each name."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts.update({node.name.rpartition(".")[2], node.asname} - {None})
    return counts


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, imports or takes as an attribute."""
    return set(name_counts(tree))


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


def slot_count_callers(tree: ast.Module) -> list[str | None]:
    """The top-level definition around each call of train_slots that sets
    its slot count, by keyword or as the third argument; None for a call
    outside any definition."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and "train_slots" in referenced_names(node.func)
                    and (len(node.args) > 2 or any(k.arg == "slots" for k in node.keywords))):
                found.append(getattr(top, "name", None))
    return found


def test_the_package_trains_a_run_alone_in_one_place():
    found = [(module, name) for module in MODULES
             for name in slot_count_callers(ast.parse((PACKAGE / module).read_text(),
                                                      filename=module))]
    assert found == [("optimizer.py", "train")]


def words(text: str) -> set[str]:
    return set(re.findall(r"\w+", text))


def string_words(tree: ast.AST) -> set[str]:
    """The words of a module's string constants, its docstrings left out."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first.value)
    return {word for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node not in docstrings
            for word in words(node.value)}


def definitions(tree: ast.Module):
    """(qualified name, node) for each module-level function and class and
    each of their methods that is not a dunder."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__") and node.name.endswith("__"))):
                    yield f"{top.name}.{node.name}", node


def unused_definitions(sources: dict[str, str], outside: set[str]) -> tuple[list[str], list[str]]:
    """Every definition of the modules (module name to source), and those
    that no module names outside the definition itself, that no string of
    the modules holds as a word and that is not in the words outside."""
    trees = {module: ast.parse(source, filename=module) for module, source in sources.items()}
    named = sum((name_counts(tree) for tree in trees.values()), Counter())
    said = set(outside).union(*(string_words(tree) for tree in trees.values()))
    scanned, unused = [], []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            scanned.append(f"{module}.{qualname}")
            if named[node.name] == name_counts(node)[node.name] and node.name not in said:
                unused.append(f"{module}.{qualname}")
    return scanned, unused


def words_outside_the_package() -> set[str]:
    """The words of perfbench's sources, README's inline code and python
    blocks, and pyproject.toml."""
    found = set().union(*(words(path.read_text()) for path in (ROOT / "perfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        found |= words(block)
    for code in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme, flags=re.S)):
        found |= words(code)
    return found | words((ROOT / "pyproject.toml").read_text())


SYNTHETIC = '''"""unused, in a docstring, does not count."""


def used():
    return 1


def unused(n):
    return unused(n - 1)


class Kept:
    def __init__(self):
        self.x = used()

    def spoken(self):
        pass


HEADER = ["spoken", "Kept"]
'''


def test_the_scanner_flags_a_function_named_only_by_itself():
    scanned, unused = unused_definitions({"m": SYNTHETIC}, set())
    assert scanned == ["m.used", "m.unused", "m.Kept", "m.Kept.spoken"]
    assert unused == ["m.unused"]
    assert unused_definitions({"m": SYNTHETIC}, {"unused"})[1] == []


def test_the_package_holds_nothing_only_tests_reach():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    scanned, unused = unused_definitions(sources, words_outside_the_package())
    assert len(scanned) >= 150
    # an allowed name that comes into use leaves the list
    assert set(unused) == set(UNUSED_ALLOWED)
