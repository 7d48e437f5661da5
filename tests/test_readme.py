"""The README's library examples run as written: every ```python block,
in order, in one namespace, as a reader would paste them. Its example
configuration expands to the number of configurations it states."""

import json
import re
from pathlib import Path

from robustnn import cli

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
