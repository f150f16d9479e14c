"""README's library example runs, and every exported name exists."""

import re
from pathlib import Path

import enumcode

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    # the block asserts its own round trip
    exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in enumcode.__all__ if not hasattr(enumcode, name)]
    assert not missing
