"""The README's Library example runs as written against the package."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})
