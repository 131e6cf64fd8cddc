"""The README's library example and CLI commands run as written."""

import re
import shlex
from pathlib import Path

from planepart import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # --csv files land in the temporary directory
    lines = [line for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
             for line in block.splitlines() if line.startswith("planepart ")]
    assert lines
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
