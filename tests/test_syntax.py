"""Every module parses with the grammar of the oldest Python that
pyproject.toml declares, so a newer construct fails here and not on import
under that version."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)


def test_oldest_version_is_the_declared_one():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "pressmetrics").glob("*.py")),
                         ids=lambda path: path.name)
def test_module_parses_as_the_oldest_version(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
