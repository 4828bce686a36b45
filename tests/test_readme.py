"""The README's Python API example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    assert capsys.readouterr().out.splitlines()[0] == "7 3 4 6"
