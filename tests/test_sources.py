"""Checks on the repository's Python sources themselves."""

import ast
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
