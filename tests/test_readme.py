"""The README's Python API example and shell examples run as written."""

import re
import shlex
from pathlib import Path

from csg_ldpc.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    assert capsys.readouterr().out.splitlines()[0] == "7 3 4 6"


def shell_examples():
    """Each ``csg-ldpc`` command of the Command line section, as argv
    without the program name, continuation lines joined."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("csg-ldpc ")]


def test_shell_examples_run(tmp_path, monkeypatch, capsys):
    # the examples name data/ relative to the checkout and write into the
    # working directory
    (tmp_path / "data").symlink_to(ROOT / "data")
    monkeypatch.chdir(tmp_path)
    examples = shell_examples()
    assert [argv[0] for argv in examples] == [
        "analyze", "analyze", "catalog", "export-alist", "simulate", "variance", "extend",
    ]
    for argv in examples:
        assert main(argv) == 0, argv
        capsys.readouterr()
