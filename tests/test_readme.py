"""README examples run as written.

The ```python blocks of README.md run in order in one namespace, as a
reader pasting them into one session would run them.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text())
    assert blocks, "README.md has no ```python blocks"
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {i}", "exec"), namespace)
