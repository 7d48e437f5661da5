"""The README's library examples run as written: every ```python block,
in order, in one namespace, as a reader would paste them. Its example
configuration expands to the number of configurations it states, its
list of optimizer keys is the fields of OptimizerSpec, and its list of
activations is the members of Activation."""

import json
import re
from dataclasses import fields
from pathlib import Path

from robustnn import cli
from robustnn.net import Activation
from robustnn.optimizer import OptimizerSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {i + 1}", "exec"), namespace)
    assert capsys.readouterr().out


def test_readme_grid_size_is_what_the_grid_expands_to():
    text = README.read_text()
    (block,) = re.findall(r"^```json\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    (stated,) = re.findall(r"The grid above expands to ([\d,]+) configurations", text)
    assert len(cli.expand_config(json.loads(block))) == int(stated.replace(",", ""))


def test_readme_lists_every_optimizer_key():
    (bullet,) = re.findall(r"^- `optimizer` \(optional\)(.*?)^(?:- |\n)", README.read_text(),
                           re.MULTILINE | re.DOTALL)
    # the rule's values are spelled with hyphens, which no key has
    assert re.findall(r"`(\w+)`", bullet) == [f.name for f in fields(OptimizerSpec)]


def test_readme_lists_every_activation():
    (bullet,) = re.findall(r"^- `activation` \(\*\)(.*?)^(?:- |\n)", README.read_text(),
                           re.MULTILINE | re.DOTALL)
    assert re.findall(r"`(\w+)`", bullet) == [a.value for a in Activation]
