"""Checks on the repository's Python sources themselves."""

import ast
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))


def test_sources_are_found():
    assert ROOT / "src" / "wigslits" / "analysis.py" in SOURCES
    assert Path(__file__).resolve() in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    # pyproject.toml admits Python 3.10: no syntax newer than it, such as except*
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_readme_library_example_runs():
    # the README's library overview is run as written, so an API change cannot leave it stale
    (example,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["shift"] == pytest.approx(0.4, abs=2e-3)
    assert namespace["delta"] == math.pi
