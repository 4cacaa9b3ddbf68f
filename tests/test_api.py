"""Tests of the package's top-level API and the README's library example."""

import re
from pathlib import Path

import pflow

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in pflow.__all__ if not hasattr(pflow, name)]
    assert missing == []


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["estimates"]) == namespace["trajectory"].steps
