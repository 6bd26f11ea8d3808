"""The sources use no grammar newer than the Python floor of pyproject.toml.

This checks syntax only: a call into the standard library or numpy that the
floors (Python 3.10, numpy 2.0) lack still parses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "tdse").glob("*.py"), *(ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_a_source_parses_with_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
